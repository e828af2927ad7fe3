// Kernel-graph workloads: cross-kernel hotness, inter-kernel data
// reuse, and the weight-tensor protection trade-off.
//
// The DAG apps (transformer block, two-layer MLP) read their weight
// tensors from several kernel launches — chunked GEMMs — so any
// per-launch profile splits a weight's access intensity across rows
// and under-ranks it. The graph runtime accumulates reads across the
// whole DAG: section 1 shows the cross-kernel totals against the best
// single-kernel view and FAILS THE SWEEP (exit 1) if a shared weight
// tensor's cross-kernel reads do not exceed every single-kernel view
// of it. Section 2 prices the data flowing along each graph edge.
// Section 3 runs the protection trade-off: protect exactly the shared
// weight set, measure SDC drop and timing overhead, and compare
// against warp-RMT and checkpoint-restart baselines.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "bench_util.h"
#include "core/baselines.h"
#include "fault/parallel_campaign.h"
#include "trace/graph_stats.h"

namespace {

using namespace dcrm;

// The shared weight tensors of the graph apps ("Wq", "W1", ...). The
// convention is part of the app contract: weights are the read-only
// 'W*' objects reused across launches.
bool IsWeight(const std::string& name) {
  return !name.empty() && name[0] == 'W';
}

// Rank = number of objects with a strictly larger key (ties share the
// better rank), so "ranks above" is insensitive to tie order.
std::size_t RankBy(const std::vector<core::ObjectProfile>& objs,
                   const core::ObjectProfile& target,
                   std::uint64_t (*key)(const core::ObjectProfile&)) {
  std::size_t rank = 0;
  for (const auto& o : objs) {
    if (key(o) > key(target)) ++rank;
  }
  return rank;
}

fault::CampaignCounts RunWeightCampaign(const std::string& name,
                                        apps::AppScale scale,
                                        const apps::ProfileResult& profile,
                                        sim::Scheme scheme,
                                        std::vector<std::string> objects,
                                        const bench::BenchArgs& args,
                                        unsigned runs) {
  fault::CampaignSpec spec;
  spec.make_app = [name, scale] { return apps::MakeApp(name, scale); };
  spec.profile = &profile;
  spec.scheme = scheme;
  spec.object_names = std::move(objects);
  fault::ParallelCampaign campaign(std::move(spec),
                                   args.jobs == 0 ? 1 : args.jobs);
  fault::CampaignConfig cc;
  cc.target = fault::Target::kMissWeighted;
  cc.faulty_blocks = 1;
  cc.bits_per_block = 2;
  cc.runs = runs;
  cc.seed = args.seed;
  return campaign.Run(cc);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::ParseArgs(argc, argv);
  const auto scale = args.scale.value_or(apps::AppScale::kSmall);
  const unsigned runs = args.runs != 0 ? args.runs : 40;
  bench::PrintHeader(
      "Kernel-graph workloads: cross-kernel hotness and weight protection",
      "Multi-kernel DAG apps whose weight tensors are re-read by "
      "several launches. Cross-kernel read totals vs the best "
      "single-kernel view, per-edge reused bytes, and the trade-off "
      "from protecting exactly the shared weight set vs RMT / "
      "checkpoint-restart baselines.",
      args, runs, scale);

  const sim::GpuConfig cfg = bench::MakeGpuConfig(args);
  const auto names = bench::SelectApps(args, apps::GraphAppNames());
  std::vector<bench::JsonMetric> metrics;
  bool hotness_gate_ok = true;

  // --- Section 1: cross-kernel hotness vs the single-kernel view. ---
  TextTable hot({"app", "object", "reads (cross)", "kernels",
                 "max 1-kernel", "cross/single", "rank cross",
                 "rank single"});
  for (const auto& name : names) {
    auto app = apps::MakeApp(name, scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    const auto objs =
        core::AggregateByObject(profile.profiler, profile.dev->space());
    double worst_amp = 0.0;
    for (const auto& op : objs) {
      if (op.reads == 0) continue;
      const double amp = op.max_kernel_reads == 0
                             ? 1.0
                             : static_cast<double>(op.reads) /
                                   static_cast<double>(op.max_kernel_reads);
      const std::size_t rank_cross = RankBy(
          objs, op, [](const core::ObjectProfile& o) { return o.reads; });
      const std::size_t rank_single =
          RankBy(objs, op, [](const core::ObjectProfile& o) {
            return o.max_kernel_reads;
          });
      hot.NewRow()
          .Add(name)
          .Add(op.name)
          .Add(op.reads)
          .Add(op.kernels_reading)
          .Add(op.max_kernel_reads)
          .Add(amp, 2)
          .Add(static_cast<std::uint64_t>(rank_cross))
          .Add(static_cast<std::uint64_t>(rank_single));
      if (IsWeight(op.name) && op.kernels_reading >= 2) {
        // The acceptance gate: a shared weight's cross-kernel total
        // must beat any single launch's view of it, and its rank under
        // cross-kernel totals must be at least as good. (Weights read
        // by a single launch — Wo — have nothing to accumulate.)
        if (op.reads <= op.max_kernel_reads || rank_cross > rank_single) {
          hotness_gate_ok = false;
        }
        worst_amp = std::max(worst_amp, amp);
      }
    }
    // Every graph app must actually exercise the claim.
    if (worst_amp <= 1.0) hotness_gate_ok = false;
    metrics.push_back({"kernel_graph/" + name, "weight_read_amplification",
                       worst_amp, "x"});
  }
  bench::Emit(hot, args);
  std::cout << "shared weights accumulate reads across launches; a "
               "per-launch profile sees at most 1/kernels of it.\n\n";

  // --- Section 2: data crossing the graph's edges. ---
  TextTable reuse({"app", "producer", "consumer", "object",
                   "reused blocks", "reused KiB"});
  for (const auto& name : names) {
    auto app = apps::MakeApp(name, scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    std::uint64_t total_bytes = 0;
    for (const auto& e : trace::ComputeEdgeReuse(*profile.trace_store)) {
      reuse.NewRow()
          .Add(name)
          .Add(e.producer_label)
          .Add(e.consumer_label)
          .Add(e.object)
          .Add(e.reused_blocks)
          .Add(static_cast<double>(e.reused_bytes) / 1024.0, 1);
      total_bytes += e.reused_bytes;
    }
    metrics.push_back({"kernel_graph/" + name, "edge_reused_bytes",
                       static_cast<double>(total_bytes), "bytes"});
  }
  bench::Emit(reuse, args);
  std::cout << "every producer->consumer value that survives a kernel "
               "boundary is exposure the single-kernel model never "
               "prices.\n\n";

  // --- Section 3: weight-set protection vs the baselines. ---
  constexpr double kPcieBytesPerCycle = 16.0;
  constexpr double kFaultProb = 0.01;
  TextTable trade({"app", "SDC base", "SDC W-prot", "W-prot overhead",
                   "hot overhead", "RMT time", "ckpt E[T] p=.01"});
  for (const auto& name : names) {
    auto app = apps::MakeApp(name, scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    const auto objs =
        core::AggregateByObject(profile.profiler, profile.dev->space());
    std::vector<std::string> weights;
    for (const auto& op : objs) {
      if (IsWeight(op.name)) weights.push_back(op.name);
    }
    const auto hot_cover =
        static_cast<unsigned>(profile.hot.hot_objects.size());

    const auto base =
        apps::MakeProtectionSetup(*app, profile, sim::Scheme::kNone, 0);
    const auto base_stats = apps::RunTiming(*app, profile, cfg, base.plan);
    const double base_cycles = static_cast<double>(base_stats.cycles);

    const auto wprot = apps::BuildProtection(
        *app, apps::Cover{sim::Scheme::kDetectCorrect, weights, {}});
    const double w_over =
        static_cast<double>(
            apps::RunTiming(*app, profile, cfg, wprot.plan).cycles) /
            base_cycles -
        1.0;
    const auto hotp = apps::MakeProtectionSetup(
        *app, profile, sim::Scheme::kDetectCorrect, hot_cover);
    const double hot_over =
        static_cast<double>(
            apps::RunTiming(*app, profile, cfg, hotp.plan).cycles) /
            base_cycles -
        1.0;

    const auto sdc_base = RunWeightCampaign(
        name, scale, profile, sim::Scheme::kNone, {}, args, runs);
    const auto sdc_wprot =
        RunWeightCampaign(name, scale, profile, sim::Scheme::kDetectCorrect,
                          weights, args, runs);

    // Warp-RMT: duplicate every warp and replay (cannot even observe
    // the memory faults studied here — both copies read the same
    // faulty DRAM).
    std::vector<trace::KernelTrace> rmt;
    const auto kernels = trace::ToKernelTraces(*profile.trace_store);
    rmt.reserve(kernels.size());
    for (const auto& k : kernels) {
      rmt.push_back(core::MakeRmtTrace(k));
    }
    sim::GpuConfig rmt_cfg = cfg;
    rmt_cfg.alu_cycles_per_mem = app->AluCyclesPerMem();
    sim::Gpu gpu(rmt_cfg, {});
    const double rmt_time =
        static_cast<double>(gpu.Run(rmt).cycles) / base_cycles;

    const double ckpt_cost = core::RecoveryModel::CheckpointCost(
        profile.dev->space().TotalObjectBytes(), kPcieBytesPerCycle,
        base_stats.cycles);
    const double ckpt = core::RecoveryModel::CheckpointRestart(
        kFaultProb, 0.25, ckpt_cost, ckpt_cost);

    trade.NewRow()
        .Add(name)
        .Add(static_cast<double>(sdc_base.sdc) / runs, 3)
        .Add(static_cast<double>(sdc_wprot.sdc) / runs, 3)
        .Add(w_over, 4)
        .Add(hot_over, 4)
        .Add(rmt_time, 3)
        .Add(ckpt, 3);
    metrics.push_back({"kernel_graph/" + name, "sdc_base_rate",
                       static_cast<double>(sdc_base.sdc) / runs, "fraction"});
    metrics.push_back({"kernel_graph/" + name, "sdc_weight_prot_rate",
                       static_cast<double>(sdc_wprot.sdc) / runs,
                       "fraction"});
    metrics.push_back(
        {"kernel_graph/" + name, "weight_prot_overhead", w_over, "fraction"});
    metrics.push_back({"kernel_graph/" + name, "rmt_time", rmt_time, "x"});
  }
  bench::Emit(trade, args);
  std::cout
      << "expectation: protecting the shared weight set removes the "
         "weight-borne SDC share at near-zero overhead (activation-"
         "borne SDCs remain); RMT pays duplicated execution without "
         "even observing memory faults; checkpointing pays its "
         "footprint tax even when nothing fails.\n";

  bench::EmitJson(args, metrics);

  if (!hotness_gate_ok) {
    std::cerr << "FAIL: a shared weight tensor did not rank above its "
                 "single-kernel view in the cross-kernel profile.\n";
    return 1;
  }
  return 0;
}
