#include <gtest/gtest.h>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/access_profile.h"
#include "core/hot_classifier.h"
#include "core/protection.h"
#include "core/replication.h"
#include "exec/launcher.h"
#include "hand_trace.h"

namespace dcrm::core {
namespace {

exec::ThreadCoord Coord(WarpId warp, std::uint8_t lane) {
  exec::ThreadCoord c;
  c.warp_global = warp;
  c.lane = lane;
  return c;
}

TEST(AccessProfiler, CountsReadsWritesPerBlock) {
  AccessProfiler prof;
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  prof.BeginKernel(cfg);
  prof.OnAccess(Coord(0, 0), {1, 0, 4, AccessType::kLoad});
  prof.OnAccess(Coord(0, 1), {1, 4, 4, AccessType::kLoad});
  prof.OnAccess(Coord(1, 0), {2, 130, 4, AccessType::kStore});
  prof.EndKernel();
  EXPECT_EQ(prof.blocks().at(0).reads, 2u);
  EXPECT_EQ(prof.blocks().at(1).writes, 1u);
  EXPECT_EQ(prof.TotalReads(), 2u);
  EXPECT_EQ(prof.TotalAccesses(), 3u);
}

TEST(AccessProfiler, WarpShareIsPerKernelMax) {
  AccessProfiler prof;
  exec::LaunchConfig k1;
  k1.grid = {1, 1, 1};
  k1.block = {4 * kWarpSize, 1, 1};  // 4 warps
  prof.BeginKernel(k1);
  prof.OnAccess(Coord(0, 0), {1, 0, 4, AccessType::kLoad});
  prof.OnAccess(Coord(1, 0), {1, 0, 4, AccessType::kLoad});
  prof.EndKernel();  // block 0 shared by 2/4 warps
  EXPECT_DOUBLE_EQ(prof.blocks().at(0).warp_share, 0.5);

  exec::LaunchConfig k2 = k1;
  prof.BeginKernel(k2);
  prof.OnAccess(Coord(0, 0), {1, 0, 4, AccessType::kLoad});
  prof.EndKernel();  // 1/4 in kernel 2; max stays 0.5
  EXPECT_DOUBLE_EQ(prof.blocks().at(0).warp_share, 0.5);
}

TEST(AccessProfiler, SortedByReadsAscending) {
  AccessProfiler prof;
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  prof.BeginKernel(cfg);
  for (int i = 0; i < 5; ++i) {
    prof.OnAccess(Coord(0, 0), {1, 256, 4, AccessType::kLoad});
  }
  prof.OnAccess(Coord(0, 0), {1, 0, 4, AccessType::kLoad});
  prof.EndKernel();
  const auto sorted = prof.SortedByReads();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_LE(sorted[0].second.reads, sorted[1].second.reads);
  EXPECT_EQ(sorted[1].first, 2u);  // block index 2 is hottest
}

TEST(AccessProfiler, MismatchedBeginEndThrows) {
  AccessProfiler prof;
  EXPECT_THROW(prof.EndKernel(), std::logic_error);
  exec::LaunchConfig cfg;
  prof.BeginKernel(cfg);
  EXPECT_THROW(prof.BeginKernel(cfg), std::logic_error);
}

const exec::LaunchConfig kOneWarp{{1, 1, 1}, {32, 1, 1}};

TEST(CountLoadTransactions, CountsPerBlockLoadsOnly) {
  const auto store = test::HandTrace()
                         .Kernel(kOneWarp)
                         .Warp(0)
                         .Load(1, {0, kBlockSize})
                         .Load(2, {0})
                         .Store(3, {0})  // not counted
                         .Build();
  const auto txns = CountLoadTransactions(*store);
  EXPECT_EQ(txns.at(0), 2u);
  EXPECT_EQ(txns.at(1), 1u);
  EXPECT_EQ(txns.size(), 2u);
}

TEST(PcAttribution, MapsLoadSitesToObjects) {
  mem::DeviceMemory dev;
  const auto a = dev.space().Allocate("a", 256, true);
  const auto b = dev.space().Allocate("b", 256, true);
  AccessProfiler prof;
  prof.AttachSpace(&dev.space());
  exec::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  prof.BeginKernel(cfg);
  const Addr b_base = dev.space().Object(b).base;
  for (int i = 0; i < 10; ++i) {
    prof.OnAccess(Coord(0, 0), {/*pc=*/1, 0, 4, AccessType::kLoad});
    prof.OnAccess(Coord(0, 0), {/*pc=*/2, b_base, 4, AccessType::kLoad});
  }
  // PC 3 touches both objects (rare but possible).
  prof.OnAccess(Coord(0, 0), {3, 0, 4, AccessType::kLoad});
  prof.OnAccess(Coord(0, 0), {3, b_base, 4, AccessType::kLoad});
  prof.EndKernel();

  EXPECT_EQ(prof.pc_stats().at(1).accesses, 10u);
  EXPECT_EQ(prof.pc_stats().at(1).per_object.at(a), 10u);
  const auto pcs_a = prof.PcsTouching(std::vector<mem::ObjectId>{a});
  EXPECT_TRUE(pcs_a.contains(1));
  EXPECT_FALSE(pcs_a.contains(2));
  EXPECT_TRUE(pcs_a.contains(3));
  const auto pcs_b = prof.PcsTouching(std::vector<mem::ObjectId>{b});
  EXPECT_TRUE(pcs_b.contains(2));
  EXPECT_TRUE(pcs_b.contains(3));
}

TEST(ReplayL1Misses, ColdMissesThenHits) {
  const auto store = test::HandTrace()
                         .Kernel(kOneWarp)
                         .Warp(0)
                         .Load(1, {0})
                         .Load(1, {0})
                         .Load(2, {kBlockSize})
                         .Build();
  const auto misses = ReplayL1Misses(*store, 15, 32, 4);
  EXPECT_EQ(misses.at(0), 1u);
  EXPECT_EQ(misses.at(1), 1u);
}

TEST(Replication, CopiesBytesToDistinctAddresses) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 300, true);
  for (Addr a = 0; a < 300; a += 4) {
    dev.Write<std::uint32_t>(a, static_cast<std::uint32_t>(a));
  }
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 2);
  ASSERT_EQ(infos.size(), 1u);
  const auto& obj = dev.space().Object(id);
  for (unsigned c = 0; c < 2; ++c) {
    const Addr base = infos[0].replica_base[c];
    EXPECT_NE(base, obj.base);
    EXPECT_EQ(base % kBlockSize, 0u);
    for (Addr a = 0; a < 300; a += 4) {
      EXPECT_EQ(dev.Read<std::uint32_t>(base + a),
                static_cast<std::uint32_t>(a));
    }
  }
  EXPECT_NE(infos[0].replica_base[0], infos[0].replica_base[1]);
}

TEST(Replication, WritableObjectRejected) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("out", 64, false);
  EXPECT_THROW(
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1),
      std::invalid_argument);
}

TEST(Replication, SameChannelPlacement) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.space().AllocateRaw(kBlockSize);  // perturb alignment
  const auto infos = ReplicateObjects(
      dev, std::vector<mem::ObjectId>{id}, 1,
      ReplicaPlacement::kSameChannel, /*num_channels=*/6);
  const auto& obj = dev.space().Object(id);
  EXPECT_EQ((infos[0].replica_base[0] / kBlockSize) % 6,
            (obj.base / kBlockSize) % 6);
}

TEST(Replication, SameChannelPlacementMultiBlockObject) {
  // Regression: the channel-padding path must allocate the *full*
  // replica after padding (an early version pointed the replica at a
  // single padding block and memcpy'd past it).
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 10 * kBlockSize, true);
  for (Addr a = 0; a < 10 * kBlockSize; a += 4) {
    dev.Write<std::uint32_t>(a, static_cast<std::uint32_t>(a ^ 0x5a5a));
  }
  dev.space().AllocateRaw(kBlockSize);  // misalign the break
  const auto infos = ReplicateObjects(
      dev, std::vector<mem::ObjectId>{id}, 2,
      ReplicaPlacement::kSameChannel, /*num_channels=*/6);
  const auto& obj = dev.space().Object(id);
  for (unsigned c = 0; c < 2; ++c) {
    const Addr base = infos[0].replica_base[c];
    EXPECT_EQ((base / kBlockSize) % 6, (obj.base / kBlockSize) % 6);
    ASSERT_TRUE(dev.space().ValidRange(base, 10 * kBlockSize));
    for (Addr a = 0; a < 10 * kBlockSize; a += 512) {
      EXPECT_EQ(dev.ReadGoldenTyped<std::uint32_t>(base + a),
                static_cast<std::uint32_t>(a ^ 0x5a5a));
    }
  }
}

TEST(ProtectedPlane, DetectsMismatchAndTerminates) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, 1.0f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  // Fault the primary copy only (bit 6 of byte 3 = float bit 30).
  dev.faults().Add({.byte_addr = 3, .bit = 6, .stuck_value = true});
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  EXPECT_THROW(plane.Load(1, 0, &out, 4), DetectionTerminated);
  EXPECT_EQ(plane.detections(), 1u);
}

TEST(ProtectedPlane, CleanLoadPassesThrough) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, 2.5f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  plane.Load(1, 0, &out, 4);
  EXPECT_FLOAT_EQ(out, 2.5f);
  EXPECT_EQ(plane.detections(), 0u);
}

TEST(ProtectedPlane, MajorityVoteCorrectsPrimaryFault) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, 3.25f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 2);
  auto plan =
      MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectCorrect);
  dev.faults().Add({.byte_addr = 1, .bit = 5, .stuck_value = true});
  dev.faults().Add({.byte_addr = 2, .bit = 6, .stuck_value = false});
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  plane.Load(1, 0, &out, 4);
  EXPECT_FLOAT_EQ(out, 3.25f);
  EXPECT_EQ(plane.corrections(), 1u);
}

TEST(ProtectedPlane, MajorityVoteCorrectsReplicaFault) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, -1.5f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 2);
  auto plan =
      MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectCorrect);
  // Fault one replica; primary and other replica out-vote it.
  dev.faults().Add(
      {.byte_addr = infos[0].replica_base[0], .bit = 0, .stuck_value = true});
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  plane.Load(1, 0, &out, 4);
  EXPECT_FLOAT_EQ(out, -1.5f);
}

TEST(ProtectedPlane, UnprotectedAddressNotChecked) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.space().Allocate("other", 64, true);
  dev.Write<float>(128, 7.0f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  dev.faults().Add({.byte_addr = 131, .bit = 7, .stuck_value = true});
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  plane.Load(1, 128, &out, 4);  // faulty but unprotected: silent
  EXPECT_NE(out, 7.0f);
}


// Armed planes (BeginRun): elision must leave every check that can
// fire in place.

TEST(ProtectedPlaneElision, ReplicaOnlyFaultStillDetected) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, 1.0f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  // Bit 6 of byte 3 of the duplicate (float bit 30: 1.0f has it clear).
  dev.faults().Add({.byte_addr = infos[0].replica_base[0] + 3,
                    .bit = 6,
                    .stuck_value = true});
  ProtectedDataPlane plane(dev, plan);
  plane.BeginRun();
  float out = 0;
  EXPECT_THROW(plane.Load(1, 0, &out, 4), DetectionTerminated);
  EXPECT_EQ(plane.detections(), 1u);
}

TEST(ProtectedPlaneElision, ReplicaOnlyFaultStillOutVoted) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(0, -1.5f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 2);
  auto plan =
      MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectCorrect);
  // The same stuck bit in both replicas out-votes the primary, which
  // shows the vote ran.
  for (unsigned c = 0; c < 2; ++c) {
    dev.faults().Add({.byte_addr = infos[0].replica_base[c],
                      .bit = 0,
                      .stuck_value = true});
  }
  ProtectedDataPlane plane(dev, plan);
  plane.BeginRun();
  float out = 0;
  plane.Load(1, 0, &out, 4);
  EXPECT_NE(out, -1.5f);
  EXPECT_EQ(plane.corrections(), 1u);
  // One faulty replica alone is out-voted by the other two copies.
  dev.faults().Clear();
  dev.faults().Add({.byte_addr = infos[0].replica_base[1],
                    .bit = 0,
                    .stuck_value = true});
  plane.BeginRun();
  plane.Load(1, 0, &out, 4);
  EXPECT_FLOAT_EQ(out, -1.5f);
  EXPECT_EQ(plane.corrections(), 1u);
}

TEST(ProtectedPlaneElision, UnpropagatedStoreStillDetected) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 64, true);
  dev.Write<float>(8, 4.0f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  ASSERT_FALSE(plan.propagate_stores);
  ProtectedDataPlane plane(dev, plan);
  plane.BeginRun();
  const float v = 5.0f;
  plane.Store(2, 8, &v, 4);  // the duplicate keeps 4.0f
  float out = 0;
  EXPECT_THROW(plane.Load(1, 8, &out, 4), DetectionTerminated);
  EXPECT_EQ(plane.detections(), 1u);
}

TEST(ProtectedPlaneElision, StraddlingLoadChecksItsSecondBlock) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", 2 * kBlockSize, true);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  // The only fault sits in the second block the load touches.
  dev.faults().Add({.byte_addr = kBlockSize + 3, .bit = 1,
                    .stuck_value = true});
  ProtectedDataPlane plane(dev, plan);
  plane.BeginRun();
  std::uint8_t out[16];
  EXPECT_THROW(plane.Load(1, kBlockSize - 8, out, 16), DetectionTerminated);
  EXPECT_EQ(plane.detections(), 1u);
}

// The precondition at work: copies that differ without a fault or a
// store through the plane (here written behind its back) are elided
// by a kernel load once armed and caught on the full path.
TEST(ProtectedPlaneElision, ArmedPlaneSkipsCleanBlocks) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("w", kBlockSize, true);
  dev.Write<float>(0, 1.0f);
  const auto infos =
      ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
  auto plan = MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly);
  dev.Write<float>(infos[0].replica_base[0], 2.0f);
  ProtectedDataPlane plane(dev, plan);
  float out = 0;
  EXPECT_THROW(plane.Load(1, 0, &out, 4), DetectionTerminated);
  plane.BeginRun();
  const exec::LaunchConfig cfg;
  exec::ThreadCtx ctx(exec::ThreadCoord{}, cfg, plane, nullptr);
  out = ctx.Ld<float>(1, 0);
  EXPECT_FLOAT_EQ(out, 1.0f);
  EXPECT_EQ(plane.detections(), 1u);
}

}  // namespace
}  // namespace dcrm::core
