#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/data_plane.h"
#include "exec/launcher.h"
#include "trace/trace_builder.h"
#include "trace/trace_store.h"

namespace dcrm::trace {
namespace {

exec::AccessRecord Ld(Pc pc, Addr addr) {
  return {pc, addr, 4, AccessType::kLoad};
}

exec::ThreadCoord Lane(WarpId warp, std::uint8_t lane) {
  exec::ThreadCoord who;
  who.warp_global = warp;
  who.lane = lane;
  return who;
}

// Records one lockstep step (record i from lane i of warp 0) and
// returns the recorder's store; Warp(0) of kernel 0 holds the
// coalesced instructions.
std::shared_ptr<const TraceStore> RecordStep(
    const std::vector<exec::AccessRecord>& step) {
  TraceBuilder recorder;
  recorder.BeginKernel(exec::LaunchConfig{{1, 1, 1}, {kWarpSize, 1, 1}});
  for (std::size_t lane = 0; lane < step.size(); ++lane) {
    recorder.OnAccess(Lane(0, static_cast<std::uint8_t>(lane)), step[lane]);
  }
  recorder.EndKernel();
  return recorder.Finish();
}

TEST(Coalescer, BroadcastBecomesOneTransaction) {
  std::vector<exec::AccessRecord> step;
  for (int lane = 0; lane < 32; ++lane) step.push_back(Ld(1, 512));
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  ASSERT_EQ(insts.NumInsts(), 1u);
  EXPECT_EQ(insts.Inst(0).blocks.size(), 1u);
  EXPECT_EQ(insts.Inst(0).blocks[0], 512u);
  EXPECT_EQ(insts.Inst(0).active_lanes, 32u);
}

TEST(Coalescer, ConsecutiveFloatsCoalesceToOneBlock) {
  std::vector<exec::AccessRecord> step;
  for (int lane = 0; lane < 32; ++lane) {
    step.push_back(Ld(1, 1024 + lane * 4));  // 32 floats == one 128B block
  }
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  ASSERT_EQ(insts.NumInsts(), 1u);
  EXPECT_EQ(insts.Inst(0).blocks.size(), 1u);
}

TEST(Coalescer, StridedAccessFansOut) {
  std::vector<exec::AccessRecord> step;
  for (int lane = 0; lane < 32; ++lane) {
    step.push_back(Ld(1, static_cast<Addr>(lane) * 1024));  // stride 1KB
  }
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  ASSERT_EQ(insts.NumInsts(), 1u);
  EXPECT_EQ(insts.Inst(0).blocks.size(), 32u);
}

TEST(Coalescer, MisalignedSpanNeedsTwoBlocks) {
  std::vector<exec::AccessRecord> step;
  for (int lane = 0; lane < 32; ++lane) {
    step.push_back(Ld(1, 64 + lane * 4));  // straddles blocks 0 and 1
  }
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  ASSERT_EQ(insts.NumInsts(), 1u);
  EXPECT_EQ(insts.Inst(0).blocks.size(), 2u);
}

TEST(Coalescer, DifferentPcsSplitInstructions) {
  std::vector<exec::AccessRecord> step;
  step.push_back(Ld(1, 0));
  step.push_back(Ld(2, 128));
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  EXPECT_EQ(insts.NumInsts(), 2u);
}

TEST(Coalescer, LoadAndStoreSplit) {
  std::vector<exec::AccessRecord> step;
  step.push_back({1, 0, 4, AccessType::kLoad});
  step.push_back({1, 0, 4, AccessType::kStore});
  const auto store = RecordStep(step);
  const WarpSlice insts = store->Kernel(0).Warp(0);
  EXPECT_EQ(insts.NumInsts(), 2u);
}

// Runs `body` over `cfg` through the recorder, as one kernel.
std::shared_ptr<const TraceStore> RecordKernel(const exec::LaunchConfig& cfg,
                                               const exec::KernelFn& body) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", 64 * 1024, true);
  exec::DirectDataPlane plane(dev);
  TraceBuilder recorder;
  recorder.BeginKernel(cfg);
  exec::LaunchKernel(cfg, plane, &recorder, body);
  recorder.EndKernel();
  return recorder.Finish();
}

TEST(TraceBuilder, BuildsWarpLockstepTrace) {
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    const std::uint32_t tid =
        ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
    // Two lockstep loads: a broadcast and a coalesced row.
    (void)ctx.Ld<float>(1, 0);
    (void)ctx.Ld<float>(2, 4096 + tid * 4);
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 2u);
  EXPECT_EQ(kt.Warp(0).warp(), 0u);
  EXPECT_EQ(kt.Warp(1).warp(), 1u);
  ASSERT_EQ(kt.Warp(0).NumInsts(), 2u);
  EXPECT_EQ(kt.Warp(0).Inst(0).pc, 1u);
  EXPECT_EQ(kt.Warp(0).Inst(0).blocks.size(), 1u);   // broadcast
  EXPECT_EQ(kt.Warp(0).Inst(1).blocks.size(), 1u);   // coalesced
  EXPECT_EQ(kt.Warp(1).Inst(1).blocks[0], 4096u + 128);
  EXPECT_EQ(kt.TotalMemInsts(), 4u);
  EXPECT_EQ(kt.TotalTransactions(), 4u);
}

TEST(TraceBuilder, DivergentThreadsProduceSeparateInsts) {
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    // Half the warp takes a different path (different pc at ordinal 0).
    if (ctx.threadIdx().x < 16) {
      (void)ctx.Ld<float>(1, 0);
    } else {
      (void)ctx.Ld<float>(2, 2048);
    }
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 1u);
  EXPECT_EQ(kt.Warp(0).NumInsts(), 2u);
  EXPECT_EQ(kt.Warp(0).Inst(0).active_lanes, 16u);
}

TEST(TraceBuilder, InactiveThreadsEmitNothing) {
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    const std::uint32_t tid = ctx.threadIdx().x;
    if (tid >= 32) return;  // boundary guard: warp 1 idle
    (void)ctx.Ld<float>(1, tid * 4);
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 1u);  // idle warp absent from the trace
  EXPECT_EQ(kt.Warp(0).warp(), 0u);
}

TEST(TraceBuilder, PartialSecondWarpHasItsActiveLanesOnly) {
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {48, 1, 1};  // warp 1 holds lanes 0..15 only
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    (void)ctx.Ld<float>(1, ctx.threadIdx().x * 4);
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 2u);
  EXPECT_EQ(kt.Warp(0).Inst(0).active_lanes, 32u);
  EXPECT_EQ(kt.Warp(1).warp(), 1u);
  EXPECT_EQ(kt.Warp(1).cta(), 0u);
  ASSERT_EQ(kt.Warp(1).NumInsts(), 1u);
  EXPECT_EQ(kt.Warp(1).Inst(0).active_lanes, 16u);
  ASSERT_EQ(kt.Warp(1).Inst(0).blocks.size(), 1u);
  EXPECT_EQ(kt.Warp(1).Inst(0).blocks[0], 128u);
}

TEST(TraceBuilder, TwoDimensionalBlocksAcrossCtas) {
  // 2x2 CTAs of 8x8 threads over a 16-float-wide row-major matrix:
  // two warps per CTA, each covering four 32-byte row pieces that
  // fall in two 128B blocks.
  exec::LaunchConfig cfg;
  cfg.grid = {2, 2, 1};
  cfg.block = {8, 8, 1};
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    const std::uint32_t x = ctx.blockIdx().x * 8 + ctx.threadIdx().x;
    const std::uint32_t y = ctx.blockIdx().y * 8 + ctx.threadIdx().y;
    (void)ctx.Ld<float>(1, (y * 16 + x) * 4);
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 8u);
  for (std::uint32_t w = 0; w < 8; ++w) {
    const WarpSlice ws = kt.Warp(w);
    EXPECT_EQ(ws.warp(), w);
    EXPECT_EQ(ws.cta(), w / 2);
    ASSERT_EQ(ws.NumInsts(), 1u);
    EXPECT_EQ(ws.Inst(0).active_lanes, 32u);
    EXPECT_EQ(ws.Inst(0).blocks.size(), 2u);
  }
  // CTA (1, 0)'s first warp: rows 0..3, columns 8..15.
  EXPECT_EQ(kt.Warp(2).Inst(0).blocks[0], 0u);
  EXPECT_EQ(kt.Warp(2).Inst(0).blocks[1], 128u);
  // CTA (0, 1)'s first warp: rows 8..11.
  EXPECT_EQ(kt.Warp(4).Inst(0).blocks[0], 512u);
  EXPECT_EQ(kt.Warp(4).Inst(0).blocks[1], 640u);
}

TEST(TraceBuilder, WarpsWithoutAccessesStayAbsent) {
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {128, 1, 1};
  const auto store = RecordKernel(cfg, [&](exec::ThreadCtx& ctx) {
    const std::uint32_t tid = ctx.threadIdx().x;
    if ((tid / kWarpSize) % 2 == 0) return;  // warps 0 and 2 idle
    (void)ctx.Ld<float>(1, tid * 4);
  });
  const KernelView kt = store->Kernel(0);
  ASSERT_EQ(kt.NumWarps(), 2u);
  EXPECT_EQ(kt.Warp(0).warp(), 1u);
  EXPECT_EQ(kt.Warp(1).warp(), 3u);
  EXPECT_TRUE(kt.FindWarp(0).Empty());
  EXPECT_TRUE(kt.FindWarp(2).Empty());
}

TEST(TraceBuilder, BackwardsWarpIdThrows) {
  TraceBuilder recorder;
  recorder.BeginKernel(exec::LaunchConfig{{4, 1, 1}, {32, 1, 1}});
  recorder.OnAccess(Lane(1, 0), Ld(1, 0));
  recorder.OnAccess(Lane(2, 0), Ld(1, 0));
  EXPECT_THROW(recorder.OnAccess(Lane(1, 1), Ld(1, 0)), std::logic_error);
  EXPECT_THROW(recorder.OnAccess(Lane(0, 0), Ld(1, 0)), std::logic_error);
  // Each kernel starts over at warp 0.
  recorder.EndKernel();
  recorder.BeginKernel(exec::LaunchConfig{{4, 1, 1}, {32, 1, 1}});
  EXPECT_NO_THROW(recorder.OnAccess(Lane(0, 0), Ld(1, 0)));
}

}  // namespace
}  // namespace dcrm::trace
