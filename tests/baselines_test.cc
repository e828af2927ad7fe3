// Tests for the related-work baseline models (RMT trace transform and
// recovery-time formulas).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/baselines.h"
#include "hand_trace.h"
#include "sim/gpu.h"

namespace dcrm::core {
namespace {

std::shared_ptr<const trace::TraceStore> SmallTrace() {
  exec::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {64, 1, 1};  // 2 warps per CTA
  test::HandTrace t;
  t.Kernel(cfg);
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      t.Warp(c * 2 + w, c).Load(1, {0}).Store(2, {kBlockSize});
    }
  }
  return t.Build();
}

TEST(RmtTrace, DoublesWarpsAndDropsShadowStores) {
  const auto in = SmallTrace();
  const auto out = MakeRmtTrace(*in);
  ASSERT_EQ(out->NumKernels(), 1u);
  const trace::KernelView kin = in->Kernel(0);
  const trace::KernelView kout = out->Kernel(0);
  EXPECT_EQ(kout.NumWarps(), kin.NumWarps() * 2);
  EXPECT_EQ(kout.cfg().block.x, kin.cfg().block.x * 2);
  // Loads double; stores stay (shadow copies only verify).
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (std::uint32_t w = 0; w < kout.NumWarps(); ++w) {
    const trace::WarpSlice ws = kout.Warp(w);
    for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
      (ws.Inst(i).type == AccessType::kLoad ? loads : stores) += 1;
    }
  }
  EXPECT_EQ(loads, 8u);
  EXPECT_EQ(stores, 4u);
}

TEST(RmtTrace, WarpIdsStayUniqueAndCtaLocal) {
  const auto out = MakeRmtTrace(*SmallTrace());
  const trace::KernelView kv = out->Kernel(0);
  std::set<WarpId> ids;
  const std::uint32_t wpc = kv.cfg().WarpsPerCta();
  for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
    const trace::WarpSlice ws = kv.Warp(w);
    EXPECT_TRUE(ids.insert(ws.warp()).second) << "duplicate warp id";
    EXPECT_EQ(ws.warp() / wpc, ws.cta());
  }
}

// GpuStats of the RMT store's replay (tiny scale, default geometry,
// the app's ALU ratio), captured from the nested-AoS transform this
// one replaces; both engines must reproduce them. C-NN's differ from
// that capture (40400 cycles, 54434 mem insts, 4027 L1 misses, 593
// DRAM reads, 420 DRAM writes): its CTAs end in a partial warp, the
// old transform doubled their thread count rather than their warp
// count, and the shadows of one CTA took the next CTA's warp ids, so
// the replay dropped lead warps. Its pins now issue every instruction.
struct RmtPin {
  const char* app;
  sim::SimEngine engine;
  std::uint64_t cycles, mem_insts, l1_misses, dram_reads, dram_writes;
};
constexpr RmtPin kRmtPins[] = {
    {"C-NN", sim::SimEngine::kCycleStepped, 40625, 56604, 3979, 594, 495},
    {"P-BICG", sim::SimEngine::kCycleStepped, 36474, 2310, 2930, 294, 6},
    {"P-GESUMMV", sim::SimEngine::kCycleStepped, 129768, 2307, 36022, 579, 3},
    {"P-MVT", sim::SimEngine::kCycleStepped, 39359, 2322, 4523, 300, 0},
    {"A-Laplacian", sim::SimEngine::kCycleStepped, 1337, 5248, 465, 131, 256},
    {"A-Meanfilter", sim::SimEngine::kCycleStepped, 978, 2944, 450, 130, 256},
    {"A-Sobel", sim::SimEngine::kCycleStepped, 1505, 7552, 465, 131, 256},
    {"A-SRAD", sim::SimEngine::kCycleStepped, 1652, 5632, 804, 264, 512},
    {"L-Transformer", sim::SimEngine::kCycleStepped, 15577, 3504, 198, 98,
     304},
    {"L-MLP2", sim::SimEngine::kCycleStepped, 7247, 1746, 108, 51, 18},
    {"C-NN", sim::SimEngine::kEventDriven, 40625, 56604, 3979, 594, 495},
    {"P-BICG", sim::SimEngine::kEventDriven, 36474, 2310, 2930, 294, 6},
    {"P-GESUMMV", sim::SimEngine::kEventDriven, 129768, 2307, 36022, 579, 3},
    {"P-MVT", sim::SimEngine::kEventDriven, 39359, 2322, 4523, 300, 0},
    {"A-Laplacian", sim::SimEngine::kEventDriven, 1337, 5248, 465, 131, 256},
    {"A-Meanfilter", sim::SimEngine::kEventDriven, 978, 2944, 450, 130, 256},
    {"A-Sobel", sim::SimEngine::kEventDriven, 1505, 7552, 465, 131, 256},
    {"A-SRAD", sim::SimEngine::kEventDriven, 1652, 5632, 804, 264, 512},
    {"L-Transformer", sim::SimEngine::kEventDriven, 15577, 3504, 198, 98,
     304},
    {"L-MLP2", sim::SimEngine::kEventDriven, 7247, 1746, 108, 51, 18},
};

TEST(RmtTrace, ReplayMatchesPinnedStats) {
  // The eight paper apps and the two DAG apps (non-index node ids and
  // data edges), on both engines.
  ASSERT_EQ(std::size(kRmtPins),
            2 * (apps::PaperAppNames().size() + apps::GraphAppNames().size()));
  for (const RmtPin& pin : kRmtPins) {
    SCOPED_TRACE(std::string(pin.app) + " " +
                 (pin.engine == sim::SimEngine::kCycleStepped ? "cycle"
                                                              : "event"));
    sim::GpuConfig cfg;
    cfg.engine = pin.engine;
    auto app = apps::MakeApp(pin.app, apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, cfg);
    const auto rmt = MakeRmtTrace(*profile.trace_store);
    // Names, node ids and edges carry over.
    const auto& in = profile.trace_store->columns();
    ASSERT_EQ(rmt->columns().kernels.size(), in.kernels.size());
    for (std::size_t k = 0; k < in.kernels.size(); ++k) {
      EXPECT_EQ(rmt->columns().kernels[k].name, in.kernels[k].name);
      EXPECT_EQ(rmt->columns().kernels[k].node_id, in.kernels[k].node_id);
    }
    EXPECT_EQ(rmt->columns().edges, in.edges);
    // Every instruction once and every load again; stores only once.
    const trace::TraceStore& base = *profile.trace_store;
    EXPECT_EQ(rmt->TotalTransactions(),
              2 * base.TotalTransactions() - base.TotalStoreTransactions());
    EXPECT_EQ(rmt->TotalStoreTransactions(), base.TotalStoreTransactions());
    sim::GpuConfig rmt_cfg = cfg;
    rmt_cfg.alu_cycles_per_mem = app->AluCyclesPerMem();
    const sim::GpuStats s = sim::Gpu(rmt_cfg, {}).Run(*rmt);
    EXPECT_EQ(s.mem_insts, rmt->TotalMemInsts());
    EXPECT_EQ(s.cycles, pin.cycles);
    EXPECT_EQ(s.mem_insts, pin.mem_insts);
    EXPECT_EQ(s.l1_misses, pin.l1_misses);
    EXPECT_EQ(s.dram_reads, pin.dram_reads);
    EXPECT_EQ(s.dram_writes, pin.dram_writes);
  }
}

TEST(RecoveryModel, DetectRerunGeometricRetry) {
  EXPECT_DOUBLE_EQ(RecoveryModel::DetectRerun(0.0, 0.012), 1.012);
  EXPECT_NEAR(RecoveryModel::DetectRerun(0.5, 0.0), 2.0, 1e-12);
  EXPECT_GT(RecoveryModel::DetectRerun(0.1, 0.012),
            RecoveryModel::DetectRerun(0.0, 0.012));
  EXPECT_THROW(RecoveryModel::DetectRerun(1.0, 0.0), std::invalid_argument);
}

TEST(RecoveryModel, CorrectIsFlatInFaultRate) {
  EXPECT_DOUBLE_EQ(RecoveryModel::Correct(0.034), 1.034);
}

TEST(RecoveryModel, CheckpointPaysEvenWithoutFaults) {
  const double t = RecoveryModel::CheckpointRestart(0.0, 0.25, 0.05, 0.05);
  EXPECT_NEAR(t, 1.2, 1e-12);  // 4 checkpoints of 5% each
  EXPECT_THROW(RecoveryModel::CheckpointRestart(0.1, 0.0, 0.05, 0.05),
               std::invalid_argument);
}

TEST(RecoveryModel, CheckpointCostScalesWithFootprint) {
  const double small = RecoveryModel::CheckpointCost(1 << 20, 16.0, 1000000);
  const double large = RecoveryModel::CheckpointCost(1 << 24, 16.0, 1000000);
  EXPECT_NEAR(large / small, 16.0, 1e-9);
  EXPECT_THROW(RecoveryModel::CheckpointCost(1, 0.0, 1),
               std::invalid_argument);
}

TEST(RecoveryModel, CorrectionDominatesAtSmallOverheads) {
  // The paper's headline comparison with realistic numbers: 3.4%
  // correction beats both rerun-on-detect at high fault rates and
  // checkpointing with a 10% footprint tax.
  const double corr = RecoveryModel::Correct(0.034);
  EXPECT_LT(corr, RecoveryModel::DetectRerun(0.1, 0.012));
  EXPECT_LT(corr, RecoveryModel::CheckpointRestart(0.1, 0.25, 0.1, 0.1));
}

}  // namespace
}  // namespace dcrm::core
