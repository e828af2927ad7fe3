#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

unsigned SetupRepeats(const Options& opts) { return opts.smoke ? 1 : 5; }

HostSpeed::HostSpeed() : table_(std::size_t{1} << 16) {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
}

void HostSpeed::Sample() {
  const auto mask = static_cast<std::uint32_t>(table_.size() - 1);
  std::uint32_t x = state_;
  const auto t0 = Clock::now();
  std::uint32_t y = x ^ 0x1234567u, z = x ^ 0x7654321u, w = x ^ 0xabcdefu;
  for (std::uint32_t k = 0; k < 1200000; ++k) {
    x = x * 1664525u + 1013904223u;
    y = y * 22695477u + 1u;
    z ^= z << 13;
    z ^= z >> 17;
    z ^= z << 5;
    table_[(x >> 9) & mask] += y;
    if (table_[(z >> 11) & mask] & 2u) {
      w += y;
    } else {
      w ^= x;
    }
  }
  std::uint32_t lane[8];
  for (std::uint32_t i = 0; i < 8; ++i) lane[i] = x + w + 77u * i;
  for (std::uint32_t k = 0; k < 500000; ++k) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      lane[i] = (lane[i] ^ (lane[i] << (2 * i + 3))) +
                table_[(lane[i] >> 20) & 1023u];
      // Keeps each lane in a register and the loop scalar: vectorised,
      // it would measure the vector units instead.
      asm volatile("" : "+r"(lane[i]));
    }
  }
  for (const std::uint32_t l : lane) x ^= l;
  ms_.push_back(MsSince(t0));
  state_ = x;
}

double HostSpeed::Factor() const {
  return ms_.empty() ? 1.0 : Median(ms_) / kNominalMs;
}

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Begin(std::string_view name, std::uint64_t id) {
  if (!enabled()) return -1;
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = now;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.id = id;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
}

void Tracer::Add(std::string_view name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t id) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  s.id = id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

void Tracer::PrintSelfTimes(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
  }
  for (const auto& [name, t] : by_name) {
    os << "# span " << name << ": count=" << t.count << " total_ms="
       << static_cast<double>(t.total_ns) / 1e6
       << " self_ms=" << static_cast<double>(t.self_ns) / 1e6 << "\n";
  }
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"id\":" << s.id << "}\n";
  }
  return static_cast<bool>(os);
}

void Fingerprint::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(std::string_view s) {
  Add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

const std::vector<std::string>& TimingApps() {
  static const std::vector<std::string> apps = {"C-NN", "A-SRAD", "A-Sobel",
                                                "P-MVT"};
  return apps;
}

const std::vector<std::string>& TimingSchemes() {
  static const std::vector<std::string> schemes = {"baseline", "detect",
                                                   "correct"};
  return schemes;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"ops_per_s", "op/s"},
      {"latency_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"apps.profile_ms", "ms"},
        {"analysis.gate_ms", "ms"},
        {"analysis.vulnerability_ms", "ms"},
        {"fault.campaign_build_ms", "ms"},
        {"fault.trial_p50_ms", "ms"},
        {"fault.trial_p90_ms", "ms"},
        {"fault.trial_count", "count"},
        {"fault.parallel_efficiency", "ratio"},
        {"fault.sdc_reachable_share", "ratio"},
        {"exec.direct_run_ms", "ms"},
        {"exec.loads_per_run", "count"},
        {"exec.stores_per_run", "count"},
        {"exec.ns_per_load", "ns"},
        {"core.protected_run_ms", "ms"},
        {"core.protected_load_share", "ratio"},
        {"core.recovery_work_per_trial", "count"},
        {"mem.faulted_run_ms", "ms"},
        {"mem.restore_us", "us"},
        {"mem.snapshot_bytes", "B"},
        {"metrics.compare_us", "us"},
        {"trace.txns", "count"},
        {"trace.store_bytes", "B"},
        {"sim.replay_mtxn_per_s", "Mtxn/s"},
        {"sim.ns_per_txn", "ns"},
    };
    for (const auto& app : TimingApps()) {
      for (const auto& scheme : TimingSchemes()) {
        v.emplace_back("sim.replay_ms." + app + "." + scheme, "ms");
        v.emplace_back("sim.cycles." + app + "." + scheme, "cycles");
        if (scheme != "baseline") {
          v.emplace_back("sim.overhead_pct." + app + "." + scheme, "%");
        }
      }
      v.emplace_back("sim.ticks_per_cycle." + app, "ratio");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"service.hit_p50_ms", "ms"},
        {"service.hit_p99_ms", "ms"},
        {"service.miss_p50_ms", "ms"},
        {"service.miss_p99_ms", "ms"},
        {"service.connect_ms", "ms"},
        {"service.hit_rate", "ratio"},
        {"service.batch_trials_saved", "count"},
        {"service.daemon_vmsize_mb", "MB"},
        {"service.daemon_threads", "count"},
        {"service.generator_lag_ms", "ms"},
        {"bench.latency_tail_ms", "ms"},
        {"bench.trace_overhead_pct", "%"},
        {"bench.layer_residual_pct", "%"},
        {"bench.failed_ratio", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

Result::Result() {
  for (const auto& [name, unit] : EndToEndMetrics()) e2e_[name] = {0, unit};
  // Layer metrics a workload does not exercise stay 0 ("not measured").
  for (const auto& [name, unit] : PerLayerMetrics()) layer_[name] = {0, unit};
}

void Result::Fail(const std::string& why, std::uint64_t ops) {
  failed_ += ops;
  std::cout << "# FAILED: " << why << "\n";
}

void Result::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  if (auto it = e2e_.find(name); it != e2e_.end()) {
    it->second.value = value;
  } else if (auto jt = layer_.find(name); jt != layer_.end()) {
    jt->second.value = value;
  } else {
    throw std::logic_error("unknown metric " + name);
  }
}

void Result::Note(const std::string& line) { std::cout << "# " << line << "\n"; }

void Result::PrintJson(std::ostream& os, bool per_layer) const {
  std::map<std::string, Metric> metrics = per_layer ? layer_ : e2e_;
  if (per_layer) {
    metrics["bench.failed_ratio"].value =
        attempted_ == 0 ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
  }
  std::ostringstream o;
  o << std::setprecision(17);
  o << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
    << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
    << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) o << ", ";
    first = false;
    o << "\"" << name << "\": {\"value\": " << m.value << ", \"unit\": \""
      << m.unit << "\"}";
  }
  o << "}}";
  os << o.str() << std::endl;
}

long ProcStatusValue(int pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream is(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtol(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

double ProcStatusMb(int pid, const char* field) {
  return static_cast<double>(ProcStatusValue(pid, field)) / 1024.0;
}

}  // namespace perfbench
