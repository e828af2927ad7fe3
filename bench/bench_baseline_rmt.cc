// Baseline comparison: warp-level redundant multithreading (RMT) vs
// the paper's partial data replication.
//
// RMT duplicates every warp (the trailing copy re-executes loads and
// verifies before stores commit). Two results reproduce the paper's
// related-work argument (Section VI): RMT's overhead dwarfs hot-data
// replication, and — decisively — RMT cannot detect the L2/DRAM
// faults studied here at all, because both redundant warps read the
// same faulty memory and agree on the corrupted values.
#include <iostream>

#include "apps/driver.h"
#include "bench_util.h"
#include "core/baselines.h"

int main(int argc, char** argv) {
  using namespace dcrm;
  const auto args = bench::ParseArgs(argc, argv);
  const auto scale = args.scale.value_or(apps::AppScale::kMedium);
  bench::PrintHeader(
      "Baseline: warp-level RMT vs partial data replication",
      "Normalized execution time. 'detects mem faults' states whether "
      "the mechanism can observe a fault in L2/DRAM-resident data.",
      args, 0, scale);

  const sim::GpuConfig cfg = bench::MakeGpuConfig(args);
  TextTable t({"app", "hot det+corr time", "RMT time",
               "RMT/replication", "RMT detects mem faults"});
  for (const auto& name :
       bench::SelectApps(args, apps::PaperAppNames())) {
    auto app = apps::MakeApp(name, cfg.num_sms ? scale : scale);
    const auto profile = apps::ProfileApp(*app, cfg);
    const auto hot =
        static_cast<unsigned>(profile.hot.hot_objects.size());

    const auto base =
        apps::MakeProtectionSetup(*app, profile, sim::Scheme::kNone, 0);
    const double base_cycles = static_cast<double>(
        apps::RunTiming(*app, profile, cfg, base.plan).cycles);

    const auto prot = apps::MakeProtectionSetup(
        *app, profile, sim::Scheme::kDetectCorrect, hot);
    const double prot_time =
        static_cast<double>(
            apps::RunTiming(*app, profile, cfg, prot.plan).cycles) /
        base_cycles;

    sim::GpuConfig rmt_cfg = cfg;
    rmt_cfg.alu_cycles_per_mem = app->AluCyclesPerMem();
    const double rmt_time =
        static_cast<double>(sim::Gpu(rmt_cfg, {})
                                .Run(*core::MakeRmtTrace(*profile.trace_store))
                                .cycles) /
        base_cycles;

    t.NewRow()
        .Add(name)
        .Add(prot_time, 4)
        .Add(rmt_time, 4)
        .Add(rmt_time / prot_time, 3)
        .Add("no (both copies read the same faulty DRAM)");
  }
  bench::Emit(t, args);
  std::cout
      << "expectation: RMT costs ~2x while hot-data replication stays "
         "within a few percent — and only the latter addresses the "
         "paper's fault model at all.\n";
  return 0;
}
