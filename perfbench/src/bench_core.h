// Shared machinery of the perfbench binary: options, clocks, order
// statistics, the in-memory span tracer, the output fingerprint, and
// the result record every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Minimal sizes for the self-test: tiny scales, one set-up, short
  // windows. Numbers from a smoke run are not comparable to real runs.
  bool smoke = false;
  std::string dcrm;     // the `dcrm` CLI binary (service workload)
  std::string out_dir;  // span dumps and daemon logs
  std::string commit;   // source identity for the environment header
};

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

// Set-up repetitions per run. The host is shared, and its speed swings
// by up to 2x in phases of about ten seconds as its other tenants load
// it. Set-ups taken back to back all land in one phase, so the campaign
// and timing workloads spread theirs over the run -- one before the
// measured window and one after each of its slices but the last, each
// a throw-away copy of the first -- and report their mean. The service
// workload restarts its daemon back to back and reports the median.
unsigned SetupRepeats(const Options& opts);

// The host's speed, from a fixed reference computation that belongs to
// the benchmark, so no change to the program can move it. Its two
// halves take about equal time: pseudo-random read-modify-writes over a
// 256 KB table, and eight independent lanes of single-cycle integer
// work, which lose the most when another tenant shares the core. A
// single-threaded workload samples it between units of work, and
// reports its window times divided by Factor() (its rates multiplied by
// it): as on a host where one reference pass takes kNominalMs. Set-up
// times are not scaled. On a shared 4-vCPU host it cut
// the spread of campaign-cnn's times over five seeds from 22-31% of
// their median to 7-12%.
class HostSpeed {
 public:
  static constexpr double kNominalMs = 5.0;

  HostSpeed();
  // Times one pass of the reference computation.
  void Sample();
  // Median sampled pass time over kNominalMs; 1 before any sample.
  double Factor() const;
  std::size_t samples() const { return ms_.size(); }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> ms_;
  std::uint32_t state_ = 1;
};

// Calls `slice(k)` for k in [0, SetupRepeats) and, between slices,
// `setup()` -- the spread set-up repetitions described above.
template <typename Slice, typename Setup>
void SlicedWindow(const Options& opts, Slice&& slice, Setup&& setup) {
  for (unsigned k = 0; k < SetupRepeats(opts); ++k) {
    if (k > 0) setup();
    slice(k);
  }
}

// Spans recorded around calls into the program's layers. Kept in
// memory while the workload runs and written out once at the end, so
// the only cost on the measured path is two clock reads and a locked
// push. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer was created
    std::int64_t end_ns = 0;
    int parent = -1;            // index of the enclosing span
    std::uint64_t id = 0;       // trial / request / app index
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Opens a span on this thread; returns its index (-1 when disabled).
  int Begin(std::string_view name, std::uint64_t id);
  void End(int index);
  // Records a finished top-level span measured by the caller (a trial
  // stamped from the engine's after_trial hook on a pool thread).
  void Add(std::string_view name, Clock::time_point start,
           Clock::time_point end, std::uint64_t id);
  // Enables or disables recording (a traced run measures its untraced
  // half first on the same objects).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Total and self time per span name (self = duration minus the part
  // covered by child spans).
  void PrintSelfTimes(std::ostream& os) const;
  // One JSON object per line; returns false when the file cannot be
  // written.
  bool Write(const std::string& path) const;

 private:
  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::atomic<bool> enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string_view name, std::uint64_t id = 0)
      : tracer_(t), index_(t.Begin(name, id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// FNV-1a over the workload's outputs: equal fingerprints on two
// commits mean the outputs the benchmark checked were identical.
class Fingerprint {
 public:
  void Add(std::uint64_t v);
  void Add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// The metric vocabulary (names and units) — BENCHMARK.json lists the
// same names; the self-test checks the two agree.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// The timing workload's cells, named in PerLayerMetrics().
const std::vector<std::string>& TimingApps();
const std::vector<std::string>& TimingSchemes();

class Result {
 public:
  Result();

  // A failed operation: counted, and reported with a reason.
  void Fail(const std::string& why, std::uint64_t ops = 1);
  void Attempt(std::uint64_t ops) { attempted_ += ops; }
  // Sets a metric named in EndToEndMetrics() or PerLayerMetrics();
  // throws on an unknown name.
  void Set(const std::string& name, double value);
  // Prints a human-readable note line (stdout, before the result).
  void Note(const std::string& line);

  Fingerprint& fingerprint() { return fp_; }

  // The last stdout line: the result object with the end-to-end or the
  // per-layer metrics.
  void PrintJson(std::ostream& os, bool per_layer) const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  Fingerprint fp_;
};

// Peak and current memory of a process from /proc/<pid>/status, in
// MB (pid 0 = this process); 0 when unreadable.
double ProcStatusMb(int pid, const char* field);
long ProcStatusValue(int pid, const char* field);

// Workloads. Each fills `result` and returns normally; exceptions
// escaping a workload are reported by main as a failed run.
void RunCampaignCnn(const Options& opts, Tracer& tracer, Result& result);
void RunCampaignRecovery(const Options& opts, Tracer& tracer,
                         Result& result);
void RunTimingFig7(const Options& opts, Tracer& tracer, Result& result);
void RunServiceOpenLoop(const Options& opts, Tracer& tracer, Result& result);

}  // namespace perfbench
