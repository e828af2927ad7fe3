// The two fault-campaign workloads.
//
// campaign-cnn: C-NN, detect-only over its hot objects, miss-weighted
// 1 block x 2 bits, no recovery, one worker. A trial issues ~1.6M loads
// at the small scale, so the data-plane layers (exec/core/mem) do
// nearly all the work; the faulty block's golden readers issue only a
// small share of a trial's transactions, which is where sparse
// re-execution would show.
//
// campaign-recovery: the seven other paper apps, detect-only over each
// hot cover, miss-weighted 5 blocks x 4 bits, tiered recovery with a
// budget of 3 and Tier-2 escalation every 16 trials, two workers.
// Trials are short, so per-trial fixed costs (snapshot restore, output
// compare, fault selection, recovery write-backs) and per-app set-up
// weigh more; Tier-2 coupling pins the engine's waves to epoch
// barriers. Sparse re-execution falls back to full execution for
// recovery campaigns, so it is predicted to leave this one unchanged.
// C-Histogram is left out: its float-to-int cast on corrupted data is
// due to change outcomes when it is given saturating semantics.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/analysis.h"
#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "bench_core.h"
#include "core/protection.h"
#include "exec/data_plane.h"
#include "fault/cross_check.h"
#include "fault/parallel_campaign.h"

namespace perfbench {
namespace {

using namespace dcrm;

struct CampaignWorkload {
  std::vector<std::string> apps;
  apps::AppScale scale = apps::AppScale::kSmall;
  unsigned jobs = 1;
  fault::CampaignConfig cfg;
  unsigned chunk = 8;    // trials per engine call (epoch-aligned if coupled)
  unsigned prefix = 16;  // leading trials per app that are fingerprinted
  // Prefix oracle: a fresh one-worker instance (true), or a re-run on
  // the measured instance after all its trials (false; only valid
  // without cross-trial recovery state).
  bool fresh_reference = false;
  double tail_quantile = 0.99;  // reported as bench.latency_tail_ms
  bool layer_residual = false;  // report the trial-time breakdown check
};

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

fault::CampaignSpec MakeSpec(const std::string& name, apps::AppScale scale,
                             const apps::ProfileResult& profile) {
  fault::CampaignSpec spec;
  spec.make_app = [name, scale] { return apps::MakeApp(name, scale); };
  spec.profile = &profile;
  spec.scheme = sim::Scheme::kDetectOnly;
  spec.cover_objects = static_cast<unsigned>(profile.hot.hot_objects.size());
  return spec;
}

struct AppRun {
  std::string name;
  // Heap-held: the campaign keeps a pointer to it.
  std::unique_ptr<apps::ProfileResult> profile;
  std::unique_ptr<fault::ParallelCampaign> campaign;
  double profile_ms = 0;
  double build_ms = 0;
  unsigned next = 0;
  bool dead = false;
  fault::CampaignCounts total;
  fault::CampaignCounts prefix;
  double prefix_ms = 0;
};

struct SetUpResult {
  std::vector<AppRun> runs;
  double seconds = 0;
  double profile_ms = 0;
  double build_ms = 0;
};

SetUpResult SetUp(const CampaignWorkload& w, Tracer& tracer) {
  SetUpResult out;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < w.apps.size(); ++i) {
    AppRun r;
    r.name = w.apps[i];
    const auto app = apps::MakeApp(r.name, w.scale);
    auto tp = Clock::now();
    {
      ScopedSpan s(tracer, "apps.ProfileApp", i);
      r.profile = std::make_unique<apps::ProfileResult>(
          apps::ProfileApp(*app, sim::GpuConfig{}));
    }
    r.profile_ms = MsSince(tp);
    tp = Clock::now();
    {
      ScopedSpan s(tracer, "fault.ParallelCampaign.ctor", i);
      r.campaign = std::make_unique<fault::ParallelCampaign>(
          MakeSpec(r.name, w.scale, *r.profile), w.jobs);
    }
    r.build_ms = MsSince(tp);
    out.profile_ms += r.profile_ms;
    out.build_ms += r.build_ms;
    out.runs.push_back(std::move(r));
  }
  out.seconds = MsSince(t0) / 1000.0;
  return out;
}

// Per-trial durations from the engine's after_trial hook. Trials of one
// worker run back to back on one pool thread, so a trial lasts from the
// previous stamp on its thread (or the start of the engine call) to its
// own stamp.
class TrialClock {
 public:
  explicit TrialClock(Tracer& tracer) : tracer_(tracer) {}

  // Called before each engine call, while no trial runs.
  void StartCall() { call_start_ = Clock::now(); }

  void OnTrial(unsigned trial) {
    const auto now = Clock::now();
    Clock::time_point start;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& last = last_[std::this_thread::get_id()];
      start = std::max(last, call_start_);
      last = now;
      ms_.push_back(MsBetween(start, now));
    }
    tracer_.Add("fault.trial", start, now, trial);
  }

  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(ms_, {});
  }

 private:
  Tracer& tracer_;
  Clock::time_point call_start_;
  std::mutex mu_;
  std::unordered_map<std::thread::id, Clock::time_point> last_;  // mu_
  std::vector<double> ms_;                                       // mu_
};

struct Window {
  std::uint64_t trials = 0;
  double wall_s = 0;
  std::vector<double> trial_ms;
};

// Runs trials round-robin over the apps, one chunk per app per round,
// for at least `seconds` and at least enough rounds to cover the
// fingerprinted prefix, and adds them to `win`.
void Measure(std::vector<AppRun>& runs, const CampaignWorkload& w,
             double seconds, HostSpeed& host, Tracer& tracer, Result& result,
             Window& win) {
  TrialClock clock(tracer);
  const std::function<void(unsigned)> hook = [&clock](unsigned t) {
    clock.OnTrial(t);
  };
  const unsigned min_rounds = (w.prefix + w.chunk - 1) / w.chunk;
  std::uint64_t trials = 0;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (unsigned round = 0;
       round < min_rounds || Clock::now() < deadline; ++round) {
    bool any = false;
    std::uint64_t round_trials = 0;
    host.Sample();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      AppRun& r = runs[i];
      if (r.dead) continue;
      fault::EngineOptions eo;
      eo.begin = r.next;
      eo.end = r.next + w.chunk;
      eo.after_trial = &hook;
      clock.StartCall();
      const auto tc = Clock::now();
      fault::CampaignCounts counts;
      try {
        ScopedSpan s(tracer, "fault.ParallelCampaign.Run", i);
        counts = r.campaign->Run(w.cfg, eo);
      } catch (const std::exception& e) {
        result.Fail(r.name + " trials [" + std::to_string(eo.begin) + ", " +
                        std::to_string(eo.end) + "): " + e.what(),
                    w.chunk);
        r.dead = true;
        continue;
      }
      const double ms = MsSince(tc);
      any = true;
      if (counts.runs != w.chunk) {
        result.Fail(r.name + ": engine ran " + std::to_string(counts.runs) +
                    " of " + std::to_string(w.chunk) + " trials");
      }
      r.total += counts;
      if (eo.end <= w.prefix) {
        r.prefix += counts;
        r.prefix_ms += ms;
      }
      r.next = eo.end;
      round_trials += counts.runs;
    }
    if (!any) break;
    trials += round_trials;
  }
  win.wall_s += MsSince(t0) / 1000.0;
  win.trials += trials;
  const std::vector<double> ms = clock.Take();
  win.trial_ms.insert(win.trial_ms.end(), ms.begin(), ms.end());
  result.Attempt(trials);
}

std::string CountsLine(const fault::CampaignCounts& c) {
  std::ostringstream os;
  os << "runs=" << c.runs << " masked=" << c.masked << " sdc=" << c.sdc
     << " detected=" << c.detected << " due=" << c.due << " crash=" << c.crash
     << " recovered=" << c.recovered << " corrections=" << c.corrections
     << " scrubs=" << c.recovery.scrubs
     << " scrub_sticks=" << c.recovery.scrub_sticks
     << " arbitrations=" << c.recovery.arbitrations
     << " retired=" << c.recovery.retired_blocks
     << " retries=" << c.recovery.retries
     << " backoff=" << c.recovery.backoff_units
     << " escalations=" << c.recovery.escalations
     << " exhausted=" << c.recovery.exhausted_runs;
  return os.str();
}

// Runs trials [0, prefix) in the same range calls the measured loop
// made; returns the merged counts and the wall time.
fault::CampaignCounts RunPrefix(fault::ParallelCampaign& c,
                                const CampaignWorkload& w, double& ms) {
  fault::CampaignCounts sum;
  const auto t0 = Clock::now();
  for (unsigned b = 0; b < w.prefix; b += w.chunk) {
    fault::EngineOptions eo;
    eo.begin = b;
    eo.end = b + w.chunk;
    sum += c.Run(w.cfg, eo);
  }
  ms = MsSince(t0);
  return sum;
}

// Oracles: the outcome classes partition the trials; the counts lie
// inside the static analyzer's outcome bounds; the fingerprinted
// prefix is reproduced by an independent run.
void CheckAndFingerprint(std::vector<AppRun>& runs, const CampaignWorkload& w,
                         Tracer& tracer, Result& result,
                         double& parallel_efficiency) {
  double ref_ms_sum = 0, measured_ms_sum = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    AppRun& r = runs[i];
    const fault::CampaignCounts& c = r.total;
    result.Note(r.name + " total " + CountsLine(c));
    result.Attempt(3);
    if (c.masked + c.sdc + c.detected + c.due + c.crash + c.recovered !=
        c.runs) {
      result.Fail(r.name + ": outcome classes do not sum to runs");
    }
    const auto check = fault::CrossCheckCounts(r.campaign->front(), w.cfg, c);
    if (!check.Pass()) {
      std::ostringstream os;
      fault::WriteCrossCheckText(check, os);
      result.Fail(r.name + ": counts outside the static bounds: " + os.str());
    }
    double ref_ms = 0;
    fault::CampaignCounts ref;
    try {
      ScopedSpan s(tracer, "bench.prefix_oracle", i);
      if (w.fresh_reference) {
        fault::ParallelCampaign fresh(MakeSpec(r.name, w.scale, *r.profile),
                                      1);
        ref = RunPrefix(fresh, w, ref_ms);
      } else {
        ref = RunPrefix(*r.campaign, w, ref_ms);
      }
    } catch (const std::exception& e) {
      result.Fail(r.name + ": prefix oracle threw: " + e.what());
      continue;
    }
    result.Attempt(ref.runs);
    if (!(ref == r.prefix)) {
      result.Fail(r.name + ": prefix [0, " + std::to_string(w.prefix) +
                  ") differs from its reference run: measured " +
                  CountsLine(r.prefix) + " reference " + CountsLine(ref));
    }
    ref_ms_sum += ref_ms;
    measured_ms_sum += r.prefix_ms;
    result.Note(r.name + " prefix[0," + std::to_string(w.prefix) + ") " +
                CountsLine(r.prefix));
    Fingerprint& fp = result.fingerprint();
    fp.Add(r.name);
    for (const std::uint64_t v :
         {std::uint64_t{r.prefix.runs}, std::uint64_t{r.prefix.masked},
          std::uint64_t{r.prefix.sdc}, std::uint64_t{r.prefix.detected},
          std::uint64_t{r.prefix.due}, std::uint64_t{r.prefix.crash},
          std::uint64_t{r.prefix.recovered}, r.prefix.corrections,
          r.prefix.recovery.scrubs, r.prefix.recovery.scrub_sticks,
          r.prefix.recovery.arbitrations, r.prefix.recovery.retired_blocks,
          r.prefix.recovery.retries, r.prefix.recovery.backoff_units,
          r.prefix.recovery.escalations, r.prefix.recovery.exhausted_runs}) {
      fp.Add(v);
    }
  }
  parallel_efficiency =
      w.jobs > 1 && measured_ms_sum > 0
          ? ref_ms_sum / (static_cast<double>(w.jobs) * measured_ms_sum)
          : 0.0;
}

// Counts the data plane's traffic on its way to the wrapped plane.
class CountingPlane final : public exec::DataPlane {
 public:
  CountingPlane(exec::DataPlane& inner, const sim::ProtectionPlan& plan)
      : inner_(inner), plan_(plan) {}

  void Load(Pc pc, Addr addr, void* out, std::uint32_t size) override {
    ++loads;
    if (plan_.Lookup(addr) != nullptr) ++protected_loads;
    inner_.Load(pc, addr, out, size);
  }
  void Store(Pc pc, Addr addr, const void* in, std::uint32_t size) override {
    ++stores;
    inner_.Store(pc, addr, in, size);
  }

  std::uint64_t loads = 0;
  std::uint64_t protected_loads = 0;
  std::uint64_t stores = 0;

 private:
  exec::DataPlane& inner_;
  const sim::ProtectionPlan& plan_;
};

struct LayerProbe {
  double gate_ms = 0;
  double vulnerability_ms = 0;
  double direct_ms = 0;
  double loads = 0;
  double stores = 0;
  double protected_loads = 0;
  double protected_ms = 0;
  double faulted_ms = 0;
  double restore_us = 0;
  double snapshot_bytes = 0;
  double compare_us = 0;
  double txns = 0;
  double store_bytes = 0;
  double sdc_reachable_share = 0;
};

template <typename F>
double MedianMs(unsigned reps, F&& f) {
  std::vector<double> v;
  for (unsigned i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    v.push_back(MsSince(t0));
  }
  return Median(std::move(v));
}

// The first block of a named object that no kernel reads; when every
// object is read, a block allocated past them for the probe.
Addr UnreadBlock(mem::AddressSpace& space,
                 const core::AccessProfiler& profiler) {
  const auto& blocks = profiler.blocks();
  for (const mem::DataObject& o : space.Objects()) {
    for (std::uint64_t k = 0; k < o.NumBlocks(); ++k) {
      const std::uint64_t b = o.base / kBlockSize + k;
      const auto it = blocks.find(b);
      if (it == blocks.end() || it->second.reads == 0) return b * kBlockSize;
    }
  }
  return space.AllocateRaw(kBlockSize);
}

// Times one app's layers from outside: the campaign's launch gate and
// liveness map, fault-free runs over the direct and the protected data
// plane, a protected run with a fault nothing reads, the snapshot
// restore and the output compare a trial performs.
LayerProbe ProbeLayers(const AppRun& r, const CampaignWorkload& w,
                       unsigned reps, Tracer& tracer, Result& result) {
  ScopedSpan span(tracer, "bench.layer_probe");
  LayerProbe p;
  auto app = apps::MakeApp(r.name, w.scale);
  const apps::ProfileResult& profile = *r.profile;
  const auto cover = static_cast<unsigned>(profile.hot.hot_objects.size());
  apps::ProtectionSetup setup = apps::MakeProtectionSetup(
      *app, profile, sim::Scheme::kDetectOnly, cover);
  mem::DeviceMemory& dev = *setup.dev;

  analysis::AnalyzerInput in;
  in.traces = profile.trace_store.get();
  in.space = &dev.space();
  in.plan = &setup.plan;
  p.gate_ms = MedianMs(reps, [&] {
    ScopedSpan s(tracer, "analysis.Analyze");
    (void)analysis::Analyze(in);
  });
  p.vulnerability_ms = MedianMs(reps, [&] {
    ScopedSpan s(tracer, "analysis.AnalyzeVulnerability");
    (void)analysis::AnalyzeVulnerability(*profile.trace_store, dev.space(),
                                         app->OutputObjects());
  });

  const auto tables = r.campaign->front().tables();
  const std::vector<std::byte>& snap = tables->snapshot;
  if (snap.size() != dev.space().StoreSize()) {
    result.Fail(r.name + ": campaign snapshot size differs from the probe "
                         "device's store");
    return p;
  }
  p.snapshot_bytes = static_cast<double>(snap.size());
  auto restore = [&] {
    std::memcpy(dev.space().Data(), snap.data(), snap.size());
  };
  p.restore_us = 1000.0 * MedianMs(reps, [&] {
    ScopedSpan s(tracer, "mem.restore");
    restore();
  });

  exec::DirectDataPlane direct(dev);
  p.direct_ms = MedianMs(reps, [&] {
    restore();
    ScopedSpan s(tracer, "exec.RunKernels.direct");
    apps::RunKernels(*app, direct, nullptr);
  });
  restore();
  CountingPlane counting(direct, setup.plan);
  apps::RunKernels(*app, counting, nullptr);
  p.loads = static_cast<double>(counting.loads);
  p.stores = static_cast<double>(counting.stores);
  p.protected_loads = static_cast<double>(counting.protected_loads);

  core::ProtectedDataPlane prot(dev, setup.plan);
  p.protected_ms = MedianMs(reps, [&] {
    restore();
    ScopedSpan s(tracer, "core.RunKernels.protected");
    apps::RunKernels(*app, prot, nullptr);
  });
  double err = 0;
  p.compare_us = 1000.0 * MedianMs(reps, [&] {
    ScopedSpan s(tracer, "metrics.compare");
    const std::vector<float> observed = apps::ReadOutputs(*app, dev);
    err = app->OutputError(profile.golden, observed);
  });
  result.Attempt(1);
  if (err > app->SdcThreshold()) {
    result.Fail(r.name + ": fault-free protected run differs from golden");
  }

  dev.faults().Add(mem::StuckAtFault{UnreadBlock(dev.space(), profile.profiler),
                                     0, true});
  p.faulted_ms = MedianMs(reps, [&] {
    restore();
    ScopedSpan s(tracer, "mem.RunKernels.faulted");
    apps::RunKernels(*app, prot, nullptr);
  });
  dev.faults().Clear();

  p.txns = static_cast<double>(profile.trace_store->TotalTransactions());
  p.store_bytes = static_cast<double>(profile.trace_store->FootprintBytes());
  p.sdc_reachable_share =
      r.campaign->front().SamplingShare(fault::Target::kMissWeighted);
  return p;
}

void RunCampaignWorkload(const CampaignWorkload& w, const Options& opts,
                         Tracer& tracer, Result& result) {
  std::vector<double> setup_s, profile_ms, build_ms;
  HostSpeed host;
  auto timed_setup = [&] {
    host.Sample();
    tracer.set_enabled(opts.trace);
    SetUpResult su = SetUp(w, tracer);
    tracer.set_enabled(false);
    setup_s.push_back(su.seconds);
    profile_ms.push_back(su.profile_ms);
    build_ms.push_back(su.build_ms);
    return su;
  };
  SetUpResult su = timed_setup();
  std::vector<AppRun>& runs = su.runs;

  // A traced run measures its first half untraced, for the overhead.
  const double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Window plain;
  double peak_rss_mb = 0;
  SlicedWindow(
      opts,
      [&](unsigned k) {
        Measure(runs, w, plain_s / SetupRepeats(opts), host, tracer, result,
                plain);
        // Before a throw-away set-up adds its own memory.
        if (k == 0) peak_rss_mb = ProcStatusMb(0, "VmHWM");
      },
      [&] { timed_setup(); });
  Window traced;
  if (opts.trace) {
    tracer.set_enabled(true);
    Measure(runs, w, opts.seconds / 2, host, tracer, result, traced);
  }

  double parallel_efficiency = 0;
  CheckAndFingerprint(runs, w, tracer, result, parallel_efficiency);

  // The reference runs on one thread, so it stands for a one-worker
  // campaign only: with two workers the slowdown depends on two cores,
  // and scaling by it widened campaign-recovery's spread.
  const double f = w.jobs == 1 ? host.Factor() : 1.0;
  const double ops_per_s = static_cast<double>(plain.trials) / plain.wall_s;
  // Set-up is not scaled: profiling allocates and page-faults, which
  // the host's phases slow unlike the reference. Between two sets of
  // campaign-cnn runs its scaled mean moved 16% and its raw mean 1%.
  result.Set("setup_s", Mean(setup_s));
  result.Set("ops_per_s", ops_per_s * f);
  result.Set("latency_ms", Mean(plain.trial_ms) / f);
  result.Set("peak_rss_mb", peak_rss_mb);
  {
    std::ostringstream os;
    os << "host speed factor " << host.Factor() << " from "
       << host.samples() << " reference passes"
       << (w.jobs == 1 ? "" : " (not applied: more than one worker)")
       << "; as measured: setup_s " << Mean(setup_s)
       << ", ops_per_s " << ops_per_s << ", latency_ms "
       << Mean(plain.trial_ms);
    result.Note(os.str());
  }
  const double tail = Quantile(plain.trial_ms, w.tail_quantile);
  {
    std::ostringstream os;
    os << "trials=" << plain.trials << " in " << plain.wall_s << " s; p50 "
       << Median(plain.trial_ms) << " ms and p" << 100 * w.tail_quantile
       << " " << tail << " ms of " << plain.trial_ms.size()
       << " trial latencies; " << setup_s.size() << " set-ups";
    result.Note(os.str());
  }
  if (!opts.trace) return;

  const unsigned reps = opts.smoke ? 1 : 5;
  LayerProbe sum;
  double share_sum = 0;
  for (const AppRun& r : runs) {
    const LayerProbe p = ProbeLayers(r, w, reps, tracer, result);
    sum.gate_ms += p.gate_ms;
    sum.vulnerability_ms += p.vulnerability_ms;
    sum.direct_ms += p.direct_ms;
    sum.loads += p.loads;
    sum.stores += p.stores;
    sum.protected_loads += p.protected_loads;
    sum.protected_ms += p.protected_ms;
    sum.faulted_ms += p.faulted_ms;
    sum.restore_us += p.restore_us;
    sum.snapshot_bytes += p.snapshot_bytes;
    sum.compare_us += p.compare_us;
    sum.txns += p.txns;
    sum.store_bytes += p.store_bytes;
    share_sum += p.sdc_reachable_share;
  }
  fault::CampaignCounts all;
  for (const AppRun& r : runs) all += r.total;
  const core::RecoveryStats& rs = all.recovery;

  const double trial_p50 = Median(traced.trial_ms);
  result.Set("apps.profile_ms", Mean(profile_ms));
  result.Set("analysis.gate_ms", sum.gate_ms);
  result.Set("analysis.vulnerability_ms", sum.vulnerability_ms);
  result.Set("fault.campaign_build_ms",
             std::max(0.0, Mean(build_ms) - sum.gate_ms -
                               sum.vulnerability_ms));
  result.Set("fault.trial_p50_ms", trial_p50);
  result.Set("fault.trial_p90_ms", Quantile(traced.trial_ms, 0.9));
  result.Set("fault.trial_count", static_cast<double>(traced.trial_ms.size()));
  result.Set("fault.parallel_efficiency", parallel_efficiency);
  result.Set("fault.sdc_reachable_share",
             share_sum / static_cast<double>(runs.size()));
  result.Set("exec.direct_run_ms", sum.direct_ms);
  result.Set("exec.loads_per_run", sum.loads);
  result.Set("exec.stores_per_run", sum.stores);
  result.Set("exec.ns_per_load",
             sum.loads > 0 ? sum.direct_ms * 1e6 / sum.loads : 0.0);
  result.Set("core.protected_run_ms", sum.protected_ms);
  result.Set("core.protected_load_share",
             sum.loads > 0 ? sum.protected_loads / sum.loads : 0.0);
  result.Set("core.recovery_work_per_trial",
             all.runs > 0 ? static_cast<double>(rs.scrubs + rs.retired_blocks +
                                                rs.retries + rs.escalations) /
                                static_cast<double>(all.runs)
                          : 0.0);
  result.Set("mem.faulted_run_ms", sum.faulted_ms);
  result.Set("mem.restore_us", sum.restore_us);
  result.Set("mem.snapshot_bytes", sum.snapshot_bytes);
  result.Set("metrics.compare_us", sum.compare_us);
  result.Set("trace.txns", sum.txns);
  result.Set("trace.store_bytes", sum.store_bytes);
  const double plain_p50 = Median(plain.trial_ms);
  result.Set("bench.latency_tail_ms", tail);
  result.Set("bench.trace_overhead_pct",
             plain_p50 > 0 ? 100.0 * (trial_p50 - plain_p50) / plain_p50 : 0.0);
  if (w.layer_residual && trial_p50 > 0) {
    const double parts =
        sum.restore_us / 1000.0 + sum.faulted_ms + sum.compare_us / 1000.0;
    const double residual = 100.0 * (trial_p50 - parts) / trial_p50;
    result.Set("bench.layer_residual_pct", residual);
    std::ostringstream os;
    os << "layer sum (restore + faulted run + compare) = " << parts
       << " ms vs trial p50 " << trial_p50 << " ms of "
       << traced.trial_ms.size() << " trials: residual " << residual << "%"
       << (std::abs(residual) > 10 ? " FLAG: breakdown misses by more than 10%"
                                   : " (within 10%)");
    result.Note(os.str());
  }
}

}  // namespace

void RunCampaignCnn(const Options& opts, Tracer& tracer, Result& result) {
  CampaignWorkload w;
  w.apps = {"C-NN"};
  w.scale = opts.smoke ? apps::AppScale::kTiny : apps::AppScale::kSmall;
  w.jobs = 1;
  w.cfg.target = fault::Target::kMissWeighted;
  w.cfg.faulty_blocks = 1;
  w.cfg.bits_per_block = 2;
  w.cfg.runs = 1u << 24;
  w.cfg.seed = MixSeed(opts.seed, 1);
  w.chunk = 8;
  w.prefix = 16;
  w.fresh_reference = false;
  w.tail_quantile = 0.9;
  w.layer_residual = true;
  RunCampaignWorkload(w, opts, tracer, result);
}

void RunCampaignRecovery(const Options& opts, Tracer& tracer,
                         Result& result) {
  CampaignWorkload w;
  w.apps = {"P-BICG",      "P-GESUMMV", "P-MVT", "A-Laplacian",
            "A-Meanfilter", "A-Sobel",   "A-SRAD"};
  w.scale = opts.smoke ? apps::AppScale::kTiny : apps::AppScale::kSmall;
  w.jobs = 2;
  w.cfg.target = fault::Target::kMissWeighted;
  w.cfg.faulty_blocks = 5;
  w.cfg.bits_per_block = 4;
  w.cfg.runs = 1u << 24;
  w.cfg.seed = MixSeed(opts.seed, 2);
  w.cfg.recovery.enabled = true;
  w.cfg.recovery.max_retries = 3;
  w.cfg.escalation_epoch = 16;
  w.chunk = 16;
  w.prefix = 32;
  w.fresh_reference = true;
  w.tail_quantile = 0.99;
  RunCampaignWorkload(w, opts, tracer, result);
}

}  // namespace perfbench
