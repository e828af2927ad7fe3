// Differential cycle-identity harness for the two replay engines.
//
// The event-driven engine (GpuConfig::engine = kEventDriven) must be
// bit-identical to the cycle-stepped reference in final cycle counts,
// every aggregate statistic, every per-SM / per-partition breakdown,
// and the recovery-cost charges derived from them. GpuStats::sim_ticks
// (engine rounds) is the only field allowed to differ — it is what the
// event engine exists to shrink.
//
// The EventQueue itself enforces the two queue invariants by throwing:
// no wakeup may be scheduled in the past (Update) and an idle-skip may
// never overshoot the earliest pending wakeup (AdvanceTo). Every
// event-engine replay in this file therefore doubles as an invariant
// check — a violation aborts the test with std::logic_error.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/recovery.h"
#include "hand_trace.h"
#include "sim/event_queue.h"
#include "sim/gpu.h"

namespace dcrm {
namespace {

// ---------------------------------------------------------------- queue

TEST(EventQueue, OrderingAndTieBreak) {
  sim::EventQueue q(4, 10);
  q.Update(2, 30);
  q.Update(0, 20);
  q.Update(1, 20);  // ties with id 0: lower id wins
  q.Update(3, 15);
  EXPECT_EQ(q.MinTime(), 15u);
  EXPECT_EQ(q.MinId(), 3u);
  q.AdvanceTo(15);
  q.Update(3, sim::kNeverCycle);  // park
  EXPECT_EQ(q.MinTime(), 20u);
  EXPECT_EQ(q.MinId(), 0u);
  q.AdvanceTo(20);
  q.Update(0, 40);
  EXPECT_EQ(q.MinId(), 1u);
  EXPECT_EQ(q.TimeOf(0), 40u);
  EXPECT_EQ(q.TimeOf(3), sim::kNeverCycle);
}

TEST(EventQueue, AllParkedReportsNever) {
  sim::EventQueue q(3, 0);
  EXPECT_EQ(q.MinTime(), sim::kNeverCycle);
  q.Update(1, 5);
  q.AdvanceTo(5);
  q.Update(1, sim::kNeverCycle);
  EXPECT_EQ(q.MinTime(), sim::kNeverCycle);
}

TEST(EventQueue, UpdateInPastThrows) {
  sim::EventQueue q(2, 0);
  q.Update(0, 10);
  q.AdvanceTo(10);
  EXPECT_THROW(q.Update(1, 9), std::logic_error);
  q.Update(1, 10);  // == now is fine (forced due this round)
  EXPECT_EQ(q.TimeOf(1), 10u);
}

TEST(EventQueue, AdvanceInvariantsThrow) {
  sim::EventQueue q(2, 0);
  q.Update(0, 10);
  q.Update(1, 25);
  EXPECT_THROW(q.AdvanceTo(11), std::logic_error);  // overshoots id 0
  q.AdvanceTo(10);
  EXPECT_THROW(q.AdvanceTo(9), std::logic_error);  // backwards
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, ZeroComponentsThrows) {
  EXPECT_THROW(sim::EventQueue(0), std::invalid_argument);
}

// --------------------------------------------------- identity helpers

void ExpectStatsEqual(const sim::GpuStats& a, const sim::GpuStats& b,
                      const std::string& what) {
#define DCRM_EQ_FIELD(f) EXPECT_EQ(a.f, b.f) << what << ": field " #f
  DCRM_EQ_FIELD(cycles);
  DCRM_EQ_FIELD(warp_insts_issued);
  DCRM_EQ_FIELD(mem_insts);
  DCRM_EQ_FIELD(transactions);
  DCRM_EQ_FIELD(replica_transactions);
  DCRM_EQ_FIELD(l1_accesses);
  DCRM_EQ_FIELD(l1_hits);
  DCRM_EQ_FIELD(l1_pending_hits);
  DCRM_EQ_FIELD(l1_misses);
  DCRM_EQ_FIELD(l2_accesses);
  DCRM_EQ_FIELD(l2_hits);
  DCRM_EQ_FIELD(l2_misses);
  DCRM_EQ_FIELD(replica_l2_hits);
  DCRM_EQ_FIELD(replica_l2_misses);
  DCRM_EQ_FIELD(dram_reads);
  DCRM_EQ_FIELD(dram_writes);
  DCRM_EQ_FIELD(dram_row_hits);
  DCRM_EQ_FIELD(mshr_stalls);
  DCRM_EQ_FIELD(compare_queue_stalls);
  DCRM_EQ_FIELD(comparisons);
#undef DCRM_EQ_FIELD
  EXPECT_EQ(a.block_misses, b.block_misses) << what << ": block_misses";
}

void ExpectDetailEqual(const apps::TimingDetail& cyc,
                       const apps::TimingDetail& evt,
                       const std::string& what) {
  ExpectStatsEqual(cyc.total, evt.total, what + " total");
  ASSERT_EQ(cyc.per_sm.size(), evt.per_sm.size());
  ASSERT_EQ(cyc.per_partition.size(), evt.per_partition.size());
  for (std::size_t s = 0; s < cyc.per_sm.size(); ++s) {
    ExpectStatsEqual(cyc.per_sm[s], evt.per_sm[s],
                     what + " sm" + std::to_string(s));
  }
  for (std::size_t p = 0; p < cyc.per_partition.size(); ++p) {
    ExpectStatsEqual(cyc.per_partition[p], evt.per_partition[p],
                     what + " part" + std::to_string(p));
  }
}

sim::GpuConfig WithEngine(sim::GpuConfig cfg, sim::SimEngine e) {
  cfg.engine = e;
  return cfg;
}

// ------------------------------------------------- golden-app matrix

// Every app in the registry, fault-free replay: total, per-SM and
// per-partition stats must match bit for bit, and the event engine
// must get there in fewer rounds overall.
TEST(EngineIdentity, AllGoldenAppsFaultFree) {
  std::uint64_t cycle_rounds = 0;
  std::uint64_t event_rounds = 0;
  for (const std::string& name : apps::AllAppNames()) {
    SCOPED_TRACE(name);
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
    const auto cyc = apps::RunTimingDetailed(
        *app, profile, WithEngine({}, sim::SimEngine::kCycleStepped), {});
    const auto evt = apps::RunTimingDetailed(
        *app, profile, WithEngine({}, sim::SimEngine::kEventDriven), {});
    ExpectDetailEqual(cyc, evt, name);
    // The reference executes one round per cycle; the event engine may
    // never need more rounds than cycles.
    EXPECT_EQ(cyc.total.sim_ticks, cyc.total.cycles) << name;
    EXPECT_LE(evt.total.sim_ticks, cyc.total.sim_ticks) << name;
    cycle_rounds += cyc.total.sim_ticks;
    event_rounds += evt.total.sim_ticks;
  }
  // Idle-skipping must actually skip something across the suite.
  EXPECT_LT(event_rounds, cycle_rounds);
}

// Paper-scale geometry (V100-class: 80 SMs, 32 memory partitions) —
// the regime where idle-component skipping matters most, and where
// the dense-round bulk re-key path in the engine is exercised hardest.
TEST(EngineIdentity, PaperScaleGeometry) {
  sim::GpuConfig base;
  base.num_sms = 80;
  base.num_partitions = 32;
  for (const std::string& name : {std::string("P-BICG"),
                                  std::string("A-Sobel")}) {
    SCOPED_TRACE(name);
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, base);
    const auto cyc = apps::RunTimingDetailed(
        *app, profile, WithEngine(base, sim::SimEngine::kCycleStepped), {});
    const auto evt = apps::RunTimingDetailed(
        *app, profile, WithEngine(base, sim::SimEngine::kEventDriven), {});
    ExpectDetailEqual(cyc, evt, name);
    EXPECT_LE(evt.total.sim_ticks, cyc.total.sim_ticks) << name;
  }
}

// Replication schemes exercise the comparator pipeline, replica
// transactions, and the compare-queue stall path.
TEST(EngineIdentity, ReplicationSchemeMatrix) {
  for (const std::string& name : {std::string("P-BICG"),
                                  std::string("A-Sobel")}) {
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
    struct Case {
      sim::Scheme scheme;
      bool lazy;
      const char* tag;
    };
    const Case cases[] = {
        {sim::Scheme::kDetectOnly, true, "detect-lazy"},
        {sim::Scheme::kDetectOnly, false, "detect-eager"},
        {sim::Scheme::kDetectCorrect, true, "correct"},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(name + "/" + c.tag);
      const auto setup = apps::MakeProtectionSetup(*app, profile, c.scheme,
                                                  /*cover_objects=*/2,
                                                  c.lazy);
      const auto cyc = apps::RunTimingDetailed(
          *app, profile, WithEngine({}, sim::SimEngine::kCycleStepped),
          setup.plan);
      const auto evt = apps::RunTimingDetailed(
          *app, profile, WithEngine({}, sim::SimEngine::kEventDriven),
          setup.plan);
      ExpectDetailEqual(cyc, evt, name + "/" + c.tag);
      EXPECT_GT(cyc.total.replica_transactions, 0u);
      // The lazy comparator path is the only one that books comparisons
      // (eager/vote blocks on the copies instead).
      if (c.scheme == sim::Scheme::kDetectOnly && c.lazy) {
        EXPECT_GT(cyc.total.comparisons, 0u);
      }
    }
  }
}

// Read-write cover turns on store propagation (replica write traffic).
TEST(EngineIdentity, WritableStorePropagation) {
  auto app = apps::MakeApp("P-MVT", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::vector<std::string> cover{"y1", "y2", "x1", "x2"};
  const auto setup = apps::BuildProtection(
      *app, apps::Cover{sim::Scheme::kDetectCorrect, cover, {}});
  ASSERT_TRUE(setup.plan.propagate_stores);
  const auto cyc = apps::RunTimingDetailed(
      *app, profile, WithEngine({}, sim::SimEngine::kCycleStepped),
      setup.plan);
  const auto evt = apps::RunTimingDetailed(
      *app, profile, WithEngine({}, sim::SimEngine::kEventDriven),
      setup.plan);
  ExpectDetailEqual(cyc, evt, "P-MVT rw");
  EXPECT_GT(cyc.total.replica_transactions, 0u);
}

// The Fig. 8 per-block miss profile must be map-identical too.
TEST(EngineIdentity, BlockMissProfile) {
  auto app = apps::MakeApp("P-BICG", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  sim::GpuConfig cfg;
  cfg.collect_block_misses = true;
  const auto cyc = apps::RunTimingDetailed(
      *app, profile, WithEngine(cfg, sim::SimEngine::kCycleStepped), {});
  const auto evt = apps::RunTimingDetailed(
      *app, profile, WithEngine(cfg, sim::SimEngine::kEventDriven), {});
  ExpectDetailEqual(cyc, evt, "P-BICG misses");
  EXPECT_FALSE(evt.total.block_misses.empty());
}

// Recovery-cost charges are a pure function of run cycles; identical
// cycle counts must produce identical charges.
TEST(EngineIdentity, ChargeRecoveryMatches) {
  auto app = apps::MakeApp("A-SRAD", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const auto cyc = apps::RunTiming(
      *app, profile, WithEngine({}, sim::SimEngine::kCycleStepped), {});
  const auto evt = apps::RunTiming(
      *app, profile, WithEngine({}, sim::SimEngine::kEventDriven), {});
  ASSERT_EQ(cyc.cycles, evt.cycles);
  core::RecoveryStats rs;
  rs.scrubs = 7;
  rs.scrub_sticks = 5;
  rs.arbitrations = 2;
  rs.retired_blocks = 2;
  rs.retries = 3;
  rs.backoff_units = 7;
  rs.escalations = 1;
  const sim::GpuConfig cfg;
  const auto a = core::ChargeRecovery(rs, /*runs=*/40, cyc.cycles, cfg);
  const auto b = core::ChargeRecovery(rs, /*runs=*/40, evt.cycles, cfg);
  EXPECT_EQ(a.scrub_cycles, b.scrub_cycles);
  EXPECT_EQ(a.retire_cycles, b.retire_cycles);
  EXPECT_EQ(a.reexec_cycles, b.reexec_cycles);
  EXPECT_EQ(a.backoff_cycles, b.backoff_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.per_run_overhead, b.per_run_overhead);
}

// A kernel with zero CTAs still burns exactly one dispatch cycle in
// the reference loop; the event engine replicates it.
TEST(EngineIdentity, EmptyKernel) {
  exec::LaunchConfig cfg;
  cfg.grid = {0, 1, 1};
  cfg.block = {kWarpSize, 1, 1};
  const auto kernels = test::HandTrace().Kernel(cfg).Build();
  sim::Gpu cyc(WithEngine({}, sim::SimEngine::kCycleStepped), {});
  sim::Gpu evt(WithEngine({}, sim::SimEngine::kEventDriven), {});
  const auto a = cyc.Run(*kernels);
  const auto b = evt.Run(*kernels);
  EXPECT_EQ(a.cycles, 1u);
  EXPECT_EQ(b.cycles, 1u);
  EXPECT_EQ(b.sim_ticks, 1u);
}

// ------------------------------------------------ randomized property

// Hand-built random traces through randomly perturbed GPU geometries.
// Each case replays the same trace through both engines and demands
// bit-identical totals and per-component breakdowns. The EventQueue's
// throwing invariants ride along on every event-engine replay.
TEST(EngineIdentity, RandomizedTraceProperty) {
  std::mt19937_64 rng(2026);
  auto pick = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  constexpr int kCases = 100;
  for (int n = 0; n < kCases; ++n) {
    SCOPED_TRACE("case " + std::to_string(n));
    sim::GpuConfig cfg;
    cfg.num_sms = pick(1, 6);
    cfg.num_partitions = 1u << pick(0, 2);
    cfg.dram_banks = 1u << pick(2, 4);
    cfg.max_ctas_per_sm = pick(1, 4);
    cfg.issue_width = pick(1, 2);
    cfg.max_warp_mlp = pick(1, 4);
    cfg.alu_cycles_per_mem = pick(0, 12);
    cfg.ldst_throughput = pick(1, 2);
    cfg.l1_ways = 1u << pick(0, 2);
    cfg.l1_size_bytes = kBlockSize * cfg.l1_ways * (1u << pick(2, 6));
    cfg.l1_latency = pick(1, 40);
    cfg.l1_mshrs = pick(1, 16);
    cfg.icnt_latency = pick(1, 48);
    cfg.icnt_resp_bytes_per_cycle = 1u << pick(4, 7);
    cfg.l2_ways = 1u << pick(1, 4);
    cfg.l2_size_bytes = kBlockSize * cfg.l2_ways * (1u << pick(4, 7));
    cfg.l2_latency = pick(1, 40);
    cfg.l2_mshrs = pick(1, 32);
    cfg.l2_input_queue = pick(1, 16);
    cfg.t_rcd = pick(4, 20);
    cfg.t_rp = pick(4, 20);
    cfg.t_cl = pick(4, 20);
    cfg.burst_cycles = pick(2, 8);
    cfg.row_bytes = 1024u << pick(0, 1);
    cfg.dram_queue = pick(2, 32);
    cfg.collect_block_misses = (n % 4 == 0);

    // One warps-per-CTA for the whole case so every kernel fits the
    // SM occupancy limits (otherwise dispatch deadlocks — faithfully,
    // in both engines, but at max_cycles expense).
    const std::uint32_t wpc = pick(1, 4);
    cfg.max_warps_per_sm = wpc * pick(1, 4);
    const std::uint32_t kernels_n = pick(1, 2);
    test::HandTrace t;
    for (std::uint32_t k = 0; k < kernels_n; ++k) {
      const std::uint32_t ctas = pick(1, 6);
      exec::LaunchConfig launch;
      launch.grid = {ctas, 1, 1};
      launch.block = {wpc * kWarpSize, 1, 1};
      t.Kernel(launch);
      for (std::uint32_t c = 0; c < ctas; ++c) {
        for (std::uint32_t w = 0; w < wpc; ++w) {
          t.Warp(c * wpc + w, c);
          const std::uint32_t insts = pick(0, 8);
          for (std::uint32_t i = 0; i < insts; ++i) {
            const Pc pc = 0x100 + 8 * pick(0, 5);
            const AccessType type =
                pick(0, 9) < 8 ? AccessType::kLoad : AccessType::kStore;
            const std::uint32_t nblk = pick(1, 4);
            std::vector<Addr> blocks;
            for (std::uint32_t b = 0; b < nblk; ++b) {
              blocks.push_back(static_cast<Addr>(pick(0, 255)) * kBlockSize);
            }
            t.Inst(pc, type, 32, blocks);
          }
        }
      }
    }
    const auto kernels = t.Build();

    sim::Gpu cyc(WithEngine(cfg, sim::SimEngine::kCycleStepped), {});
    sim::Gpu evt(WithEngine(cfg, sim::SimEngine::kEventDriven), {});
    const auto a = cyc.Run(*kernels, /*max_cycles=*/1'000'000);
    const auto b = evt.Run(*kernels, /*max_cycles=*/1'000'000);
    ExpectStatsEqual(a, b, "totals");
    EXPECT_LE(b.sim_ticks, a.sim_ticks);
    const auto& asm_ = cyc.PerSmStats();
    const auto& bsm = evt.PerSmStats();
    ASSERT_EQ(asm_.size(), bsm.size());
    for (std::size_t s = 0; s < asm_.size(); ++s) {
      ExpectStatsEqual(asm_[s], bsm[s], "sm" + std::to_string(s));
    }
    const auto& ap = cyc.PerPartitionStats();
    const auto& bp = evt.PerPartitionStats();
    ASSERT_EQ(ap.size(), bp.size());
    for (std::size_t p = 0; p < ap.size(); ++p) {
      ExpectStatsEqual(ap[p], bp[p], "part" + std::to_string(p));
    }
    if (HasFailure()) break;  // first divergent case is enough
  }
}

}  // namespace
}  // namespace dcrm
