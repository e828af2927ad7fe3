// Deeper timing-model tests for the LD/ST replication hardware and
// the scheduler/MLP machinery added for fidelity.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hand_trace.h"
#include "sim/gpu.h"

namespace dcrm::sim {
namespace {

using test::HandTrace;

std::shared_ptr<const trace::TraceStore> MakeTrace(
    std::uint32_t ctas, std::uint32_t warps_per_cta,
    const std::function<void(HandTrace&, WarpId)>& gen) {
  return HandTrace().Grid(ctas, warps_per_cta, gen).Build();
}

ProtectionPlan OneRangePlan(Scheme scheme, Addr base, std::uint64_t size,
                            bool lazy = true) {
  ProtectionPlan plan;
  plan.scheme = scheme;
  plan.lazy_compare = lazy;
  ProtectedRange r;
  r.base = base;
  r.size = size;
  r.replica_base[0] = 100000 * kBlockSize;
  r.replica_base[1] = 200000 * kBlockSize;
  plan.ranges.push_back(r);
  return plan;
}

TEST(Replication, ReplicaResponsesDoNotFillL1) {
  // One protected load, then a later *primary* load to the replica's
  // address: if the replica response had filled L1 it would hit.
  GpuConfig cfg;
  auto plan = OneRangePlan(Scheme::kDetectOnly, 0, kBlockSize);
  const Addr replica_block = plan.ranges[0].replica_base[0];
  const auto kt = MakeTrace(1, 1, [&](HandTrace& t, WarpId) {
    t.Load(1, {0}).Load(2, {replica_block});
  });
  Gpu gpu(cfg, plan);
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.l1_misses, 2u);  // the replica block missed again
  EXPECT_EQ(stats.l1_hits, 0u);
}

TEST(Replication, PcFilterSuppressesUntrackedLoads) {
  GpuConfig cfg;
  auto plan = OneRangePlan(Scheme::kDetectOnly, 0, kBlockSize);
  plan.pcs = {7};  // only PC 7 is in the LD/ST tracking table
  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    t.Load(7, {0}).Load(9, {0});
  });
  Gpu gpu(cfg, plan);
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.replica_transactions, 1u);  // PC 9 not replicated
}

TEST(Replication, MergedMissesReplicateOnce) {
  // Many warps missing the same protected block at once merge into one
  // MSHR and generate exactly one replica access (one L1 miss -> one
  // duplication, as in the paper).
  GpuConfig cfg;
  auto plan = OneRangePlan(Scheme::kDetectOnly, 0, kBlockSize);
  const auto kt =
      MakeTrace(1, 8, [](HandTrace& t, WarpId) { t.Load(1, {0}); });
  Gpu gpu(cfg, plan);
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.l1_misses, 1u);
  EXPECT_EQ(stats.l1_pending_hits + stats.l1_hits, 7u);
  EXPECT_EQ(stats.replica_transactions, 1u);
}

TEST(Replication, EagerDetectionSlowerThanLazy) {
  GpuConfig cfg;
  const std::uint64_t span = 512;
  const auto kt = MakeTrace(4, 4, [&](HandTrace& t, WarpId w) {
    for (int i = 0; i < 16; ++i) t.Load(1, {((w * 16 + i) % span) * kBlockSize});
  });
  Gpu lazy(cfg, OneRangePlan(Scheme::kDetectOnly, 0, span * kBlockSize, true));
  Gpu eager(cfg,
            OneRangePlan(Scheme::kDetectOnly, 0, span * kBlockSize, false));
  const auto ls = lazy.Run(*kt);
  const auto es = eager.Run(*kt);
  EXPECT_GE(es.cycles, ls.cycles);
  EXPECT_EQ(es.replica_transactions, ls.replica_transactions);
  EXPECT_EQ(es.comparisons, 0u);  // eager copies block the warp instead
  EXPECT_GT(ls.comparisons, 0u);
}

TEST(Replication, CompareQueueBoundsOutstandingLazyEntries) {
  // More simultaneous protected misses than compare-queue entries:
  // the run must still complete and record stalls.
  GpuConfig cfg;
  cfg.compare_queue_entries = 2;
  auto plan = OneRangePlan(Scheme::kDetectOnly, 0, 4096 * kBlockSize);
  const auto kt = MakeTrace(1, 8, [](HandTrace& t, WarpId w) {
    for (int i = 0; i < 8; ++i) {
      t.Load(1, {static_cast<Addr>(w * 512 + i * 64) * kBlockSize});
    }
  });
  Gpu gpu(cfg, plan);
  const auto stats = gpu.Run(*kt);
  EXPECT_GT(stats.compare_queue_stalls, 0u);
  EXPECT_EQ(stats.comparisons, stats.replica_transactions);
}

TEST(Scheduler, GtoAndLrrBothComplete) {
  const auto kt = MakeTrace(2, 8, [](HandTrace& t, WarpId w) {
    for (int i = 0; i < 32; ++i) {
      t.Load(1, {static_cast<Addr>(w % 4) * 32 * kBlockSize +
                 static_cast<Addr>(i % 32) * kBlockSize});
    }
  });
  GpuConfig gto_cfg;
  gto_cfg.sched_policy = SchedPolicy::kGto;
  GpuConfig lrr_cfg;
  lrr_cfg.sched_policy = SchedPolicy::kLrr;
  const auto gto = Gpu(gto_cfg, {}).Run(*kt);
  const auto lrr = Gpu(lrr_cfg, {}).Run(*kt);
  EXPECT_EQ(gto.mem_insts, lrr.mem_insts);
  EXPECT_GT(gto.cycles, 0u);
  EXPECT_GT(lrr.cycles, 0u);
}

TEST(Scheduler, PoliciesConserveWork) {
  // Scheduling policy must never change *what* is executed, only when:
  // instruction and access totals are identical across policies.
  const auto kt = MakeTrace(1, 16, [](HandTrace& t, WarpId w) {
    for (int rep = 0; rep < 8; ++rep) {
      for (int b = 0; b < 32; ++b) {
        t.Load(1, {(static_cast<Addr>(w) * 32 + b) * kBlockSize});
      }
    }
  });
  GpuConfig gto_cfg;
  gto_cfg.sched_policy = SchedPolicy::kGto;
  GpuConfig lrr_cfg;
  lrr_cfg.sched_policy = SchedPolicy::kLrr;
  const auto gto = Gpu(gto_cfg, {}).Run(*kt);
  const auto lrr = Gpu(lrr_cfg, {}).Run(*kt);
  EXPECT_EQ(gto.mem_insts, lrr.mem_insts);
  EXPECT_EQ(gto.transactions, lrr.transactions);
  EXPECT_EQ(gto.l1_accesses, lrr.l1_accesses);
  EXPECT_EQ(gto.l1_hits + gto.l1_pending_hits + gto.l1_misses,
            lrr.l1_hits + lrr.l1_pending_hits + lrr.l1_misses);
}

TEST(Scheduler, SimulationIsDeterministic) {
  const auto kt = MakeTrace(3, 4, [](HandTrace& t, WarpId w) {
    for (int i = 0; i < 20; ++i) {
      t.Load(1, {(static_cast<Addr>(w * 7 + i * 3) % 256) * kBlockSize});
    }
  });
  GpuConfig cfg;
  const auto a = Gpu(cfg, {}).Run(*kt);
  const auto b = Gpu(cfg, {}).Run(*kt);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.dram_reads, b.dram_reads);
}

TEST(Mlp, WindowOverlapsIndependentLoads) {
  // Two independent cold loads per "iteration": with an MLP window of
  // 2 they overlap; with 1 they serialize. Time must improve.
  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    for (int i = 0; i < 16; ++i) {
      t.Load(1, {static_cast<Addr>(2 * i) * 97 * kBlockSize});
      t.Load(2, {static_cast<Addr>(2 * i + 1) * 97 * kBlockSize});
    }
  });
  GpuConfig mlp1;
  mlp1.max_warp_mlp = 1;
  GpuConfig mlp2;
  mlp2.max_warp_mlp = 2;
  const auto s1 = Gpu(mlp1, {}).Run(*kt);
  const auto s2 = Gpu(mlp2, {}).Run(*kt);
  EXPECT_LT(s2.cycles, s1.cycles * 3 / 4);
}

TEST(Gpu, CtaThrottlingRespectsWarpSlots) {
  // 64-warp CTAs exceed the 48-warp SM limit at 2 CTAs: each SM holds
  // one CTA at a time, so the run completes without oversubscription.
  GpuConfig cfg;
  cfg.num_sms = 1;
  const auto kt = MakeTrace(3, 24, [](HandTrace& t, WarpId w) {
    t.Load(1, {static_cast<Addr>(w) * kBlockSize});
  });
  Gpu gpu(cfg, {});
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.mem_insts, 3u * 24);
}

TEST(Gpu, MultiKernelRunsAccumulate) {
  GpuConfig cfg;
  const auto one_load = [](HandTrace& t, WarpId) { t.Load(1, {0}); };
  const auto kt = HandTrace()
                      .Grid(1, 1, one_load)
                      .Grid(1, 1, one_load)
                      .Grid(1, 1, one_load)
                      .Build();
  Gpu gpu(cfg, {});
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.mem_insts, 3u);
  // Kernel 2 and 3 hit in the warm L1 (caches persist across kernels).
  EXPECT_EQ(stats.l1_misses, 1u);
}

TEST(Gpu, DeadlockGuardFires) {
  GpuConfig cfg;
  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    for (int i = 0; i < 100; ++i) t.Load(1, {static_cast<Addr>(i) * kBlockSize});
  });
  Gpu gpu(cfg, {});
  EXPECT_THROW(gpu.Run(*kt, /*max_cycles=*/10), std::runtime_error);
}

}  // namespace
}  // namespace dcrm::sim
