// TraceStore engineering bench: what the columnar refactor buys, and
// what the event-driven engine buys on top of it.
//
// Four measurements:
//   1. trace memory footprint (paper apps) — the same trace as nested
//      arrays of structs (LegacyFootprintBytes, a closed form over the
//      store's counts) vs the columnar TraceStore, plus the serialized
//      --save-trace size for reference. Acceptance bar: >= 2x
//      reduction in-memory.
//   2. replay throughput (hot-pattern apps) — transactions/second
//      through the timing model under the cycle-stepped reference
//      engine vs the event-driven engine, at the seed geometry and at
//      a paper-scale V100-class geometry (80 SMs / 32 partitions),
//      with the stats checked bit-identical per app at both.
//      Acceptance bar: identical everywhere, and the event engine is
//      >= 3x faster at paper scale on the sparse (campaign-shaped)
//      replays — at least 4 of the 10 apps. Saturated replays are
//      pinned near 1x by bit-identity: every SM is busy every cycle,
//      so there are no idle ticks to skip.
//   3. campaign wall-clock at --jobs=1 vs hardware threads, with the
//      merged counts checked bit-identical — the immutable shared
//      store plus shared CampaignTables is what makes the fan-out
//      cheap, and determinism must survive it.
#include <chrono>
#include <iostream>
#include <thread>

#include "apps/driver.h"
#include "bench_util.h"
#include "fault/parallel_campaign.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Everything but sim_ticks (engine rounds — the one field the event
// engine is supposed to change).
bool StatsIdentical(const dcrm::sim::GpuStats& a,
                    const dcrm::sim::GpuStats& b) {
  return a.cycles == b.cycles &&
         a.warp_insts_issued == b.warp_insts_issued &&
         a.mem_insts == b.mem_insts && a.transactions == b.transactions &&
         a.replica_transactions == b.replica_transactions &&
         a.l1_accesses == b.l1_accesses && a.l1_hits == b.l1_hits &&
         a.l1_pending_hits == b.l1_pending_hits &&
         a.l1_misses == b.l1_misses && a.l2_accesses == b.l2_accesses &&
         a.l2_hits == b.l2_hits && a.l2_misses == b.l2_misses &&
         a.replica_l2_hits == b.replica_l2_hits &&
         a.replica_l2_misses == b.replica_l2_misses &&
         a.dram_reads == b.dram_reads && a.dram_writes == b.dram_writes &&
         a.dram_row_hits == b.dram_row_hits &&
         a.mshr_stalls == b.mshr_stalls &&
         a.compare_queue_stalls == b.compare_queue_stalls &&
         a.comparisons == b.comparisons &&
         a.block_misses == b.block_misses;
}

struct ReplaySample {
  double cycle_mtxns = 0;
  double event_mtxns = 0;
  double speedup = 0;
  bool identical = false;
};

// Replays `store` under both engines on `cfg`, repeating until each
// engine's sample is long enough to time on a shared box.
ReplaySample MeasureReplay(dcrm::sim::GpuConfig cfg,
                           const dcrm::apps::App& app,
                           const dcrm::trace::TraceStore& store) {
  using dcrm::sim::SimEngine;
  cfg.alu_cycles_per_mem = app.AluCyclesPerMem();
  double mtxns[2] = {0, 0};
  dcrm::sim::GpuStats stats[2];
  for (const auto engine :
       {SimEngine::kCycleStepped, SimEngine::kEventDriven}) {
    cfg.engine = engine;
    const int slot = engine == SimEngine::kCycleStepped ? 0 : 1;
    unsigned reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double ms = 0;
    do {
      dcrm::sim::Gpu gpu(cfg, {});
      stats[slot] = gpu.Run(store);
      ++reps;
      ms = MillisSince(t0);
    } while (ms < 50.0);
    const double txns = static_cast<double>(store.TotalTransactions()) * reps;
    mtxns[slot] = txns / (ms * 1e3);
  }
  return {mtxns[0], mtxns[1], mtxns[1] / mtxns[0],
          StatsIdentical(stats[0], stats[1])};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcrm;
  const auto args = bench::ParseArgs(argc, argv);
  const auto scale = args.scale.value_or(apps::AppScale::kSmall);
  const unsigned runs = args.runs ? args.runs : 200;
  bench::PrintHeader(
      "TraceStore footprint and replay throughput",
      "Columnar trace artifact vs the legacy nested-AoS traces "
      "(in-memory bytes and the --save-trace file size), timing-replay "
      "throughput under the cycle-stepped reference engine vs the "
      "event-driven engine at the seed geometry and at a paper-scale "
      "V100-class geometry (80 SMs / 32 partitions; 'identical' = "
      "every stat but sim_ticks is bit-equal at both), and campaign "
      "wall-clock at jobs=1 vs hardware threads ('identical' = merged "
      "counts are bit-identical).",
      args, runs, scale);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "hardware threads: " << hw << "\n\n";

  const sim::GpuConfig cfg = bench::MakeGpuConfig(args);

  // Replay throughput is measured at two machine geometries: the seed
  // config (15 SMs / 6 partitions) and a paper-scale V100-class GPU
  // (80 SMs / 32 partitions). The event engine's win is idle ticks
  // skipped, so it grows with the number of components a workload
  // leaves idle; a saturated replay (every SM busy every cycle) has
  // nothing to skip and is pinned near 1x by the bit-identity
  // requirement.
  sim::GpuConfig paper_cfg = cfg;
  paper_cfg.num_sms = 80;
  paper_cfg.num_partitions = 32;

  TextTable foot({"app", "AoS bytes", "store bytes", "ratio", "file bytes"});
  TextTable replay({"app", "txns", "cycle Mtxn/s", "event Mtxn/s", "speedup",
                    "paper cycle", "paper event", "paper speedup",
                    "identical"});
  TextTable camp({"app", "jobs", "runs", "wall ms", "speedup", "identical"});
  std::vector<bench::JsonMetric> metrics;
  double worst_ratio = 0;
  bool identical = true;
  bool engines_identical = true;
  unsigned engine_apps = 0;
  unsigned engine_3x = 0;

  const auto& paper = apps::PaperAppNames();
  for (const auto& name :
       bench::SelectApps(args, apps::HotPatternAppNames())) {
    auto app = apps::MakeApp(name, scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    const trace::TraceStore& store = *profile.trace_store;

    // 1. Footprint (paper-app subset). The AoS bytes are counted from
    // the very same trace, so the comparison is content-identical.
    if (std::find(paper.begin(), paper.end(), name) != paper.end()) {
      const double aos =
          static_cast<double>(trace::LegacyFootprintBytes(store));
      const double col = static_cast<double>(store.FootprintBytes());
      const double ratio = aos / col;
      if (worst_ratio == 0 || ratio < worst_ratio) worst_ratio = ratio;
      foot.NewRow()
          .Add(name)
          .Add(static_cast<std::uint64_t>(aos))
          .Add(static_cast<std::uint64_t>(col))
          .Add(ratio, 2)
          .Add(static_cast<std::uint64_t>(
              trace::SaveTraceToString(store).size()));
    }

    // 2. Replay throughput at both geometries. The same trace store
    // replays under every (engine, geometry) pair; identity must hold
    // at each geometry independently.
    const ReplaySample seed = MeasureReplay(cfg, *app, store);
    const ReplaySample paper = MeasureReplay(paper_cfg, *app, store);
    engines_identical = engines_identical && seed.identical &&
                        paper.identical;
    ++engine_apps;
    if (paper.identical && paper.speedup >= 3.0) ++engine_3x;
    replay.NewRow()
        .Add(name)
        .Add(store.TotalTransactions())
        .Add(seed.cycle_mtxns, 2)
        .Add(seed.event_mtxns, 2)
        .Add(seed.speedup, 2)
        .Add(paper.cycle_mtxns, 2)
        .Add(paper.event_mtxns, 2)
        .Add(paper.speedup, 2)
        .Add(seed.identical && paper.identical ? "yes" : "NO");
    metrics.push_back(
        {"sim_throughput/" + name, "cycle_mtxns", seed.cycle_mtxns, "Mtxn/s"});
    metrics.push_back(
        {"sim_throughput/" + name, "event_mtxns", seed.event_mtxns, "Mtxn/s"});
    metrics.push_back(
        {"sim_throughput/" + name, "engine_speedup", seed.speedup, "x"});
    metrics.push_back({"sim_throughput/" + name, "paper_cycle_mtxns",
                       paper.cycle_mtxns, "Mtxn/s"});
    metrics.push_back({"sim_throughput/" + name, "paper_event_mtxns",
                       paper.event_mtxns, "Mtxn/s"});
    metrics.push_back({"sim_throughput/" + name, "paper_engine_speedup",
                       paper.speedup, "x"});
  }
  metrics.push_back({"sim_throughput/summary", "apps_at_3x_paper_scale",
                     static_cast<double>(engine_3x), "apps"});
  metrics.push_back({"sim_throughput/summary", "engines_identical",
                     engines_identical ? 1.0 : 0.0, "bool"});

  // 3. Campaign fan-out on one representative app: the workers share
  // the one immutable store and the worker-0 CampaignTables.
  for (const auto& name : bench::SelectApps(args, {std::string("P-BICG")})) {
    auto app = apps::MakeApp(name, scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    const auto hot = static_cast<unsigned>(profile.hot.hot_objects.size());
    fault::CampaignConfig cc;
    cc.target = fault::Target::kMissWeighted;
    cc.faulty_blocks = 1;
    cc.bits_per_block = 2;
    cc.runs = runs;
    cc.seed = args.seed;

    fault::CampaignCounts reference{};
    double serial_ms = 0;
    for (const unsigned jobs : {1u, hw}) {
      auto campaign = bench::MakeCampaign(
          name, scale, profile, sim::Scheme::kDetectCorrect, hot, jobs);
      const auto t0 = std::chrono::steady_clock::now();
      const auto counts = campaign.Run(cc);
      const double ms = MillisSince(t0);
      if (jobs == 1) {
        reference = counts;
        serial_ms = ms;
      }
      identical = identical && counts == reference;
      camp.NewRow()
          .Add(name)
          .Add(jobs)
          .Add(counts.runs)
          .Add(ms, 1)
          .Add(serial_ms / ms, 2)
          .Add(counts == reference ? "yes" : "NO");
      if (jobs == hw) break;  // hw may be 1; don't run jobs=1 twice
    }
  }

  bench::Emit(foot, args);
  std::cout << '\n';
  bench::Emit(replay, args);
  std::cout << '\n';
  bench::Emit(camp, args);
  bench::EmitJson(args, metrics);
  std::cout << "\nworst footprint ratio: " << worst_ratio
            << "x (acceptance bar: >= 2x)\n"
            << "event engine >= 3x at paper-scale geometry on " << engine_3x
            << "/" << engine_apps
            << " apps (acceptance bar: >= 4, identical on all)\n";
  std::cout << "expectation: every app's columnar trace is at least "
               "half the AoS bytes (the block pool packs to 32-bit "
               "block indices), the event-driven engine replays the "
               "same traces bit-identically at both geometries, and "
               "the fan-out stays bit-identical. The event engine's "
               "win is idle ticks skipped, so the campaign-shaped "
               "sparse replays (the polybench apps, <1 active SM per "
               "cycle on average) clear 3x with a wide margin at "
               "paper scale, while saturated stencil replays (every "
               "SM busy every cycle) have nothing to skip and sit "
               "near 1x — that ceiling is forced by bit-identity, "
               "not engine overhead.\n";
  const bool engine_pass =
      engines_identical && (engine_apps < 10 || engine_3x >= 4);
  if (worst_ratio < 2.0 || !identical || !engine_pass) {
    std::cerr << "ACCEPTANCE FAILURE: ratio " << worst_ratio
              << " identical=" << (identical ? "yes" : "no")
              << " engines_identical=" << (engines_identical ? "yes" : "no")
              << " apps_at_3x_paper_scale=" << engine_3x << "/" << engine_apps
              << "\n";
    return 1;
  }
  return 0;
}
