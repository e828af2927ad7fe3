// timing-fig7: the paper's Fig. 7 cells — baseline, detect-only over
// the hot cover and correct over the hot cover — for C-NN, A-SRAD,
// A-Sobel and P-MVT, replayed on the event-driven engine. The only
// workload where the timing simulator does most of the work. It mixes
// apps whose replays the event engine shortens by skipping idle cycles
// with P-MVT, which is saturated, so a replay change that helps one
// kind and costs the other shows. The replays use a V100-class
// geometry (80 SMs, 32 memory partitions): at the Table I geometry
// (15 SMs) every app keeps the GPU busy and no engine skips anything.
// There P-MVT leaves most cycles idle while the other three stay
// saturated. All four run at the small scale: at the medium scale
// P-MVT's profile and replays alone would outlast the run, and the
// larger traces made replay times swing with memory contention from
// other tenants of the host.
#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "apps/driver.h"
#include "apps/registry.h"
#include "bench_core.h"

namespace perfbench {
namespace {

using namespace dcrm;

// Every GpuStats field except sim_ticks (the one field the engines may
// disagree on), with the per-block miss map folded to its size and sum.
std::vector<std::uint64_t> StatFields(const sim::GpuStats& s) {
  std::uint64_t miss_sum = 0;
  for (const auto& [block, n] : s.block_misses) miss_sum += n;
  return {s.cycles,         s.warp_insts_issued,
          s.mem_insts,      s.transactions,
          s.replica_transactions, s.l1_accesses,
          s.l1_hits,        s.l1_pending_hits,
          s.l1_misses,      s.l2_accesses,
          s.l2_hits,        s.l2_misses,
          s.replica_l2_hits, s.replica_l2_misses,
          s.dram_reads,     s.dram_writes,
          s.dram_row_hits,  s.mshr_stalls,
          s.compare_queue_stalls, s.comparisons,
          s.block_misses.size(), miss_sum};
}

struct TimingApp {
  std::string name;
  std::unique_ptr<apps::App> app;
  std::unique_ptr<apps::ProfileResult> profile;
  std::vector<apps::ProtectionSetup> setups;  // one per TimingSchemes()
};

struct Cell {
  std::size_t app = 0;
  std::size_t scheme = 0;
  std::vector<double> ms;
  sim::GpuStats first;
  bool seen = false;
};


sim::GpuConfig TimingConfig() {
  sim::GpuConfig cfg;
  cfg.num_sms = 80;
  cfg.num_partitions = 32;
  return cfg;
}

const sim::Scheme kSchemes[] = {sim::Scheme::kNone, sim::Scheme::kDetectOnly,
                                sim::Scheme::kDetectCorrect};

std::vector<TimingApp> SetUp(bool smoke, Tracer& tracer, double& profile_ms) {
  const apps::AppScale scale =
      smoke ? apps::AppScale::kTiny : apps::AppScale::kSmall;
  std::vector<TimingApp> out;
  profile_ms = 0;
  for (std::size_t i = 0; i < TimingApps().size(); ++i) {
    TimingApp a;
    a.name = TimingApps()[i];
    a.app = apps::MakeApp(a.name, scale);
    const auto tp = Clock::now();
    {
      ScopedSpan s(tracer, "apps.ProfileApp", i);
      a.profile = std::make_unique<apps::ProfileResult>(
          apps::ProfileApp(*a.app, TimingConfig()));
    }
    profile_ms += MsSince(tp);
    const auto cover =
        static_cast<unsigned>(a.profile->hot.hot_objects.size());
    for (const sim::Scheme scheme : kSchemes) {
      ScopedSpan s(tracer, "apps.MakeProtectionSetup", i);
      a.setups.push_back(apps::MakeProtectionSetup(
          *a.app, *a.profile, scheme,
          scheme == sim::Scheme::kNone ? 0 : cover));
    }
    out.push_back(std::move(a));
  }
  return out;
}

struct Window {
  std::uint64_t cells = 0;
  double wall_s = 0;
  std::vector<double> cell_ms;
};

// Replays whole passes over every cell for at least `seconds` and adds
// them to `win`. Every pass must reproduce the first pass's statistics
// exactly.
void Measure(std::vector<TimingApp>& apps_, std::vector<Cell>& cells,
             double seconds, HostSpeed& host, Tracer& tracer, Result& result,
             Window& win) {
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  do {
    host.Sample();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Cell& cell = cells[c];
      const TimingApp& a = apps_[cell.app];
      const auto tc = Clock::now();
      sim::GpuStats stats;
      {
        ScopedSpan s(tracer, "apps.RunTiming", c);
        stats = apps::RunTiming(*a.app, *a.profile, TimingConfig(),
                                a.setups[cell.scheme].plan);
      }
      const double ms = MsSince(tc);
      cell.ms.push_back(ms);
      win.cell_ms.push_back(ms);
      ++win.cells;
      result.Attempt(1);
      if (!cell.seen) {
        cell.first = stats;
        cell.seen = true;
      } else if (StatFields(stats) != StatFields(cell.first)) {
        result.Fail(a.name + "." + TimingSchemes()[cell.scheme] +
                    ": replay statistics changed between passes");
      }
    }
  } while (Clock::now() < deadline);
  win.wall_s += MsSince(t0) / 1000.0;
}

}  // namespace

void RunTimingFig7(const Options& opts, Tracer& tracer, Result& result) {
  std::vector<double> setup_s, profile_ms;
  HostSpeed host;
  auto timed_setup = [&] {
    host.Sample();
    tracer.set_enabled(opts.trace);
    const auto t0 = Clock::now();
    double pm = 0;
    std::vector<TimingApp> a = SetUp(opts.smoke, tracer, pm);
    setup_s.push_back(MsSince(t0) / 1000.0);
    profile_ms.push_back(pm);
    tracer.set_enabled(false);
    return a;
  };
  std::vector<TimingApp> apps_ = timed_setup();

  std::vector<Cell> cells;
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    for (std::size_t s = 0; s < TimingSchemes().size(); ++s) {
      Cell c;
      c.app = a;
      c.scheme = s;
      cells.push_back(c);
    }
  }

  // A traced run measures its first half untraced, for the overhead.
  const double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Window plain;
  double peak_rss_mb = 0;
  SlicedWindow(
      opts,
      [&](unsigned k) {
        Measure(apps_, cells, plain_s / SetupRepeats(opts), host, tracer,
                result, plain);
        // Before a throw-away set-up adds its own memory.
        if (k == 0) peak_rss_mb = ProcStatusMb(0, "VmHWM");
      },
      [&] { timed_setup(); });
  std::vector<std::vector<double>> plain_ms;
  for (Cell& c : cells) plain_ms.push_back(std::exchange(c.ms, {}));
  if (opts.trace) {
    tracer.set_enabled(true);
    Window traced;
    Measure(apps_, cells, opts.seconds / 2, host, tracer, result, traced);
  }

  // Oracles beyond pass-to-pass identity: the baseline replays exactly
  // the profiled transactions, and the cycle-stepped reference engine
  // agrees with the event engine on a saturated app (A-Sobel) and on the
  // one whose idle cycles the event engine skips (P-MVT).
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const TimingApp& ta = apps_[a];
    const Cell& base = cells[a * TimingSchemes().size()];
    result.Attempt(1);
    if (base.first.transactions != ta.profile->trace_store->TotalTransactions()) {
      result.Fail(ta.name + ": baseline replay transactions differ from the "
                            "profiled trace");
    }
  }
  for (const std::size_t a : {std::size_t{2}, std::size_t{3}}) {
    const TimingApp& ta = apps_[a];
    sim::GpuConfig cycle_cfg = TimingConfig();
    cycle_cfg.engine = sim::SimEngine::kCycleStepped;
    for (std::size_t s = 0; s < TimingSchemes().size(); ++s) {
      ScopedSpan span(tracer, "bench.cycle_engine_oracle", a);
      const sim::GpuStats ref =
          apps::RunTiming(*ta.app, *ta.profile, cycle_cfg, ta.setups[s].plan);
      result.Attempt(1);
      if (StatFields(ref) !=
          StatFields(cells[a * TimingSchemes().size() + s].first)) {
        result.Fail(ta.name + "." + TimingSchemes()[s] +
                    ": event engine differs from the cycle-stepped engine");
      }
    }
  }

  Fingerprint& fp = result.fingerprint();
  for (const Cell& c : cells) {
    const std::string name =
        apps_[c.app].name + "." + TimingSchemes()[c.scheme];
    fp.Add(name);
    std::ostringstream os;
    os << name << ":";
    for (const std::uint64_t v : StatFields(c.first)) {
      fp.Add(v);
      os << " " << v;
    }
    result.Note(os.str());
  }

  // The cells' replay times are far apart, so a mean over all replays
  // would depend on how many passes each cell got; the latency is the
  // mean over cells of each cell's mean replay time.
  double cell_mean_sum = 0;
  for (const auto& ms : plain_ms) cell_mean_sum += Mean(ms);
  const double f = host.Factor();
  const double ops_per_s = static_cast<double>(plain.cells) / plain.wall_s;
  const double latency_ms =
      cell_mean_sum / static_cast<double>(plain_ms.size());
  // Not scaled, as in the campaign workloads.
  result.Set("setup_s", Mean(setup_s));
  result.Set("ops_per_s", ops_per_s * f);
  result.Set("latency_ms", latency_ms / f);
  result.Set("peak_rss_mb", peak_rss_mb);
  {
    std::ostringstream os;
    os << "host speed factor " << f << " from " << host.samples()
       << " reference passes; as measured: setup_s " << Mean(setup_s)
       << ", ops_per_s " << ops_per_s << ", latency_ms " << latency_ms;
    result.Note(os.str());
  }
  const double tail = Quantile(plain.cell_ms, 0.8);
  {
    std::ostringstream os;
    os << "cells=" << plain.cells << " in " << plain.wall_s << " s; p80 of "
       << plain.cell_ms.size() << " cell replays " << tail << " ms; "
       << setup_s.size() << " set-ups";
    result.Note(os.str());
  }
  if (!opts.trace) return;

  double replay_ms = 0, txns = 0, plain_sum = 0, traced_sum = 0;
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    double ticks = 0, cycles = 0;
    const std::string& app = apps_[a].name;
    const double base_cycles =
        static_cast<double>(cells[a * TimingSchemes().size()].first.cycles);
    for (std::size_t s = 0; s < TimingSchemes().size(); ++s) {
      const std::size_t ci = a * TimingSchemes().size() + s;
      const Cell& c = cells[ci];
      const std::string key = app + "." + TimingSchemes()[s];
      const double med = Median(c.ms);
      result.Set("sim.replay_ms." + key, med);
      result.Set("sim.cycles." + key, static_cast<double>(c.first.cycles));
      if (s > 0 && base_cycles > 0) {
        result.Set("sim.overhead_pct." + key,
                   100.0 * (static_cast<double>(c.first.cycles) / base_cycles -
                            1.0));
      }
      ticks += static_cast<double>(c.first.sim_ticks);
      cycles += static_cast<double>(c.first.cycles);
      replay_ms += med;
      txns += static_cast<double>(c.first.transactions +
                                  c.first.replica_transactions);
      plain_sum += Median(plain_ms[ci]);
      traced_sum += med;
    }
    result.Set("sim.ticks_per_cycle." + app, cycles > 0 ? ticks / cycles : 0);
  }
  double trace_txns = 0, store_bytes = 0;
  for (const TimingApp& a : apps_) {
    trace_txns += static_cast<double>(a.profile->trace_store->TotalTransactions());
    store_bytes += static_cast<double>(a.profile->trace_store->FootprintBytes());
  }
  result.Set("apps.profile_ms", Mean(profile_ms));
  result.Set("trace.txns", trace_txns);
  result.Set("trace.store_bytes", store_bytes);
  result.Set("sim.replay_mtxn_per_s",
             replay_ms > 0 ? txns / (replay_ms * 1000.0) : 0.0);
  result.Set("sim.ns_per_txn", txns > 0 ? replay_ms * 1e6 / txns : 0.0);
  result.Set("bench.latency_tail_ms", tail);
  result.Set("bench.trace_overhead_pct",
             plain_sum > 0 ? 100.0 * (traced_sum - plain_sum) / plain_sum : 0);
  result.Note("simulated cycles and overheads come from an unvalidated "
              "timing model, not from hardware");
}

}  // namespace perfbench
