#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hand_trace.h"
#include "sim/dram.h"
#include "sim/gpu.h"
#include "sim/interconnect.h"
#include "sim/tag_array.h"

namespace dcrm::sim {
namespace {

using test::HandTrace;

std::shared_ptr<const trace::TraceStore> MakeTrace(
    std::uint32_t ctas, std::uint32_t warps_per_cta,
    const std::function<void(HandTrace&, WarpId)>& gen) {
  return HandTrace().Grid(ctas, warps_per_cta, gen).Build();
}

TEST(TagArray, HitAfterFill) {
  TagArray t(4, 2);
  EXPECT_FALSE(t.Access(0));
  EXPECT_TRUE(t.Access(0));
}

TEST(TagArray, LruEviction) {
  TagArray t(1, 2);  // one set, two ways
  t.Access(0 * kBlockSize);
  t.Access(1 * kBlockSize);
  t.Access(0 * kBlockSize);          // refresh 0
  t.Access(2 * kBlockSize);          // evicts 1
  EXPECT_TRUE(t.Contains(0));
  EXPECT_FALSE(t.Contains(1 * kBlockSize));
  EXPECT_TRUE(t.Contains(2 * kBlockSize));
}

TEST(TagArray, SetsIsolate) {
  TagArray t(2, 1);
  t.Access(0);               // set 0
  t.Access(1 * kBlockSize);  // set 1
  EXPECT_TRUE(t.Contains(0));
  EXPECT_TRUE(t.Contains(1 * kBlockSize));
}

TEST(TagArray, NoAllocateProbe) {
  TagArray t(4, 2);
  EXPECT_FALSE(t.Access(0, /*allocate=*/false));
  EXPECT_FALSE(t.Contains(0));
  t.Fill(0);
  EXPECT_TRUE(t.Access(0, /*allocate=*/false));
}

TEST(TagArray, InvalidConfigThrows) {
  EXPECT_THROW(TagArray(0, 1), std::invalid_argument);
  EXPECT_THROW(TagArray(3, 1), std::invalid_argument);  // not a power of two
}

TEST(Dram, RowHitFasterThanConflict) {
  GpuConfig cfg;
  AddrMap map{cfg.num_partitions, cfg.dram_banks, cfg.BlocksPerRow()};
  DramChannel ch(cfg, map);
  GpuStats stats;
  std::vector<MemRequest> done;

  // Two requests to the same row: the second is a row hit.
  ch.Push({1, 0, false, 0}, 0);
  std::uint64_t t = 0;
  while (done.empty()) ch.Tick(t++, done, stats);
  const std::uint64_t first = t;
  done.clear();
  ch.Push({2, 0, false, 0}, t);
  while (done.empty()) ch.Tick(t++, done, stats);
  const std::uint64_t second_latency = t - first;
  EXPECT_LT(second_latency, first);  // row hit is faster than cold row
  EXPECT_EQ(stats.dram_row_hits, 1u);
  EXPECT_EQ(stats.dram_reads, 2u);
}

TEST(Dram, FrfcfsPrefersRowHit) {
  GpuConfig cfg;
  AddrMap map{cfg.num_partitions, cfg.dram_banks, cfg.BlocksPerRow()};
  DramChannel ch(cfg, map);
  GpuStats stats;
  std::vector<MemRequest> done;
  // Open row 0 of bank 0.
  ch.Push({1, 0, false, 0}, 0);
  std::uint64_t t = 0;
  while (done.empty()) ch.Tick(t++, done, stats);
  done.clear();
  // Queue: first an older request to a *different* row of bank 0, then
  // a younger row hit. FR-FCFS should service the row hit first.
  const Addr other_row =
      static_cast<Addr>(cfg.BlocksPerRow()) * cfg.dram_banks *
      cfg.num_partitions * kBlockSize;
  ch.Push({2, other_row, false, 0}, t);
  ch.Push({3, 0, false, 0}, t);
  while (done.empty()) ch.Tick(t++, done, stats);
  EXPECT_EQ(done[0].id, 3u);
}

TEST(Interconnect, RequestLatency) {
  GpuConfig cfg;
  Interconnect icnt(cfg);
  icnt.PushRequest({1, 0, false, 0}, /*now=*/10, /*partition=*/0);
  EXPECT_FALSE(icnt.PopRequestFor(0, 10).has_value());
  EXPECT_FALSE(icnt.PopRequestFor(0, 10 + cfg.icnt_latency - 1).has_value());
  auto r = icnt.PopRequestFor(0, 10 + cfg.icnt_latency);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 1u);
  EXPECT_TRUE(icnt.Idle());
}

TEST(Interconnect, ResponsePortSerializes) {
  GpuConfig cfg;
  Interconnect icnt(cfg);
  // Two 128B responses from the same partition to SM 0: the second is
  // delayed by the port occupancy (128/32 = 4 cycles).
  icnt.PushResponse({1, 0, false, 0}, 0, 0);
  icnt.PushResponse({2, 128, false, 0}, 0, 0);
  const std::uint64_t occ = kBlockSize / cfg.icnt_resp_bytes_per_cycle;
  const std::uint64_t first_ready = occ + cfg.icnt_latency;
  EXPECT_FALSE(icnt.PopResponseFor(0, first_ready - 1).has_value());
  ASSERT_TRUE(icnt.PopResponseFor(0, first_ready).has_value());
  EXPECT_FALSE(icnt.PopResponseFor(0, first_ready).has_value());
  ASSERT_TRUE(icnt.PopResponseFor(0, first_ready + occ).has_value());
}

TEST(Gpu, EmptyTraceCompletes) {
  GpuConfig cfg;
  Gpu gpu(cfg, ProtectionPlan{});
  const auto kt = MakeTrace(2, 2, [](HandTrace&, WarpId) {});
  const auto stats = gpu.Run(*kt);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_EQ(stats.mem_insts, 0u);
}

TEST(Gpu, SingleLoadGoesThroughHierarchy) {
  GpuConfig cfg;
  Gpu gpu(cfg, ProtectionPlan{});
  const auto kt =
      MakeTrace(1, 1, [](HandTrace& t, WarpId) { t.Load(1, {0}); });
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.mem_insts, 1u);
  EXPECT_EQ(stats.l1_misses, 1u);
  EXPECT_EQ(stats.l2_misses, 1u);
  EXPECT_EQ(stats.dram_reads, 1u);
  // One cold miss must cost at least icnt + L2 + DRAM + return.
  EXPECT_GT(stats.cycles, 2u * cfg.icnt_latency);
}

TEST(Gpu, RepeatedLoadHitsInL1) {
  GpuConfig cfg;
  Gpu gpu(cfg, ProtectionPlan{});
  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    for (int i = 0; i < 10; ++i) t.Load(1, {0});
  });
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.l1_misses, 1u);
  // The MLP window lets the second load issue while the first is
  // outstanding: it merges into the MSHR (pending hit); the other
  // eight hit in the filled line.
  EXPECT_EQ(stats.l1_pending_hits, 1u);
  EXPECT_EQ(stats.l1_hits, 8u);
  EXPECT_EQ(stats.dram_reads, 1u);
}

TEST(Gpu, StoresAreWriteThrough) {
  GpuConfig cfg;
  Gpu gpu(cfg, ProtectionPlan{});
  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    t.Store(1, {0}).Store(2, {0});
  });
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.dram_writes, 2u);  // no write-allocate in L2 either
  EXPECT_EQ(stats.l1_misses, 0u);    // stores don't count as load misses
}

TEST(Gpu, LatencyToleranceOverlapsWarps) {
  // 16 warps each loading a distinct cold block: with latency
  // tolerance total time must be far below 16x the single-warp time.
  GpuConfig cfg;
  const auto one = MakeTrace(1, 1, [](HandTrace& t, WarpId w) {
    t.Load(1, {static_cast<Addr>(w) * 64 * kBlockSize});
  });
  Gpu g1(cfg, ProtectionPlan{});
  const auto s1 = g1.Run(*one);

  const auto many = MakeTrace(1, 16, [](HandTrace& t, WarpId w) {
    t.Load(1, {static_cast<Addr>(w) * 64 * kBlockSize});
  });
  Gpu g16(cfg, ProtectionPlan{});
  const auto s16 = g16.Run(*many);
  EXPECT_LT(s16.cycles, s1.cycles * 4);
}

TEST(Gpu, DetectionDuplicatesMissesOnly) {
  GpuConfig cfg;
  ProtectionPlan plan;
  plan.scheme = Scheme::kDetectOnly;
  ProtectedRange range;
  range.base = 0;
  range.size = 4 * kBlockSize;
  range.replica_base[0] = 1000 * kBlockSize;
  plan.ranges.push_back(range);

  const auto kt = MakeTrace(1, 1, [](HandTrace& t, WarpId) {
    t.Load(1, {0});                // protected miss -> +1 replica txn
    t.Load(1, {0});                // protected hit  -> no extra txn
    t.Load(2, {10 * kBlockSize});  // unprotected miss
  });
  Gpu gpu(cfg, plan);
  const auto stats = gpu.Run(*kt);
  EXPECT_EQ(stats.replica_transactions, 1u);
  EXPECT_EQ(stats.l1_misses, 2u);
  EXPECT_EQ(stats.L1MissedAccesses(), 3u);
  EXPECT_EQ(stats.comparisons, 1u);
}

TEST(Gpu, CorrectionTriplicatesAndStalls) {
  GpuConfig cfg;
  ProtectionPlan detect;
  detect.scheme = Scheme::kDetectOnly;
  ProtectionPlan correct;
  correct.scheme = Scheme::kDetectCorrect;
  ProtectedRange range;
  range.base = 0;
  range.size = 64 * kBlockSize;
  range.replica_base[0] = 1000 * kBlockSize;
  range.replica_base[1] = 2000 * kBlockSize;
  detect.ranges.push_back(range);
  correct.ranges.push_back(range);

  const auto kt = MakeTrace(2, 4, [](HandTrace& t, WarpId w) {
    for (int i = 0; i < 8; ++i) {
      t.Load(1, {static_cast<Addr>((w * 8 + i) % 64) * kBlockSize});
    }
  });

  Gpu gd(cfg, detect);
  const auto sd = gd.Run(*kt);
  Gpu gc(cfg, correct);
  const auto sc = gc.Run(*kt);
  EXPECT_EQ(sc.replica_transactions, 2 * sd.replica_transactions);
  // Waiting for all three copies can't be faster than lazy detection.
  EXPECT_GE(sc.cycles, sd.cycles);
}

TEST(Gpu, PlanCapacityValidated) {
  GpuConfig cfg;
  ProtectionPlan plan;
  plan.scheme = Scheme::kDetectCorrect;
  for (int i = 0; i < 17; ++i) {  // > 16 objects for two replicas
    ProtectedRange r;
    r.base = static_cast<Addr>(i) * 10 * kBlockSize;
    r.size = kBlockSize;
    plan.ranges.push_back(r);
  }
  EXPECT_THROW(Gpu(cfg, plan), std::invalid_argument);
}

}  // namespace
}  // namespace dcrm::sim
