// Tests for the writable-object protection extension (store
// propagation): the paper's schemes cover read-only inputs only; this
// extension mirrors stores into the replicas and reads protected
// outputs through the voting plane.
#include <gtest/gtest.h>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/protection.h"
#include "core/replication.h"
#include "fault/campaign.h"

namespace dcrm {
namespace {

TEST(WritableProtection, StorePropagationKeepsCopiesCoherent) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("rw", 256, false);
  dev.Write<float>(0, 1.0f);
  const auto infos = core::ReplicateObjects(
      dev, std::vector<mem::ObjectId>{id}, 2,
      core::ReplicaPlacement::kDefault, 6, /*allow_writable=*/true);
  auto plan = core::MakeProtectionPlan(dev.space(), infos,
                                       sim::Scheme::kDetectCorrect,
                                       /*lazy_compare=*/true,
                                       /*propagate_stores=*/true);
  core::ProtectedDataPlane plane(dev, plan);
  const float updated = 42.0f;
  plane.Store(1, 0, &updated, 4);
  // All three copies hold the new value.
  EXPECT_FLOAT_EQ(dev.ReadGoldenTyped<float>(0), 42.0f);
  for (unsigned c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(
        dev.ReadGoldenTyped<float>(infos[0].replica_base[c]), 42.0f);
  }
  // And the next protected load does not spuriously "correct".
  float v = 0;
  plane.Load(1, 0, &v, 4);
  EXPECT_FLOAT_EQ(v, 42.0f);
  EXPECT_EQ(plane.corrections(), 0u);
}

TEST(WritableProtection, WithoutPropagationStoreDesynchronizesCopies) {
  // Guard rail: replicating a writable object *without* store
  // propagation must make detection fire on the stale replica — the
  // precise reason the paper restricts itself to read-only objects.
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("rw", 64, false);
  dev.Write<float>(0, 1.0f);
  const auto infos = core::ReplicateObjects(
      dev, std::vector<mem::ObjectId>{id}, 1,
      core::ReplicaPlacement::kDefault, 6, /*allow_writable=*/true);
  auto plan = core::MakeProtectionPlan(dev.space(), infos,
                                       sim::Scheme::kDetectOnly);
  core::ProtectedDataPlane plane(dev, plan);
  const float updated = 2.0f;
  plane.Store(1, 0, &updated, 4);  // no propagation configured
  float v = 0;
  EXPECT_THROW(plane.Load(1, 0, &v, 4), core::DetectionTerminated);
}

TEST(WritableProtection, VoteRepairsFaultInWrittenData) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("rw", 64, false);
  dev.Write<float>(0, 1.0f);
  const auto infos = core::ReplicateObjects(
      dev, std::vector<mem::ObjectId>{id}, 2,
      core::ReplicaPlacement::kDefault, 6, /*allow_writable=*/true);
  auto plan = core::MakeProtectionPlan(dev.space(), infos,
                                       sim::Scheme::kDetectCorrect, true,
                                       /*propagate_stores=*/true);
  // Permanent fault in the primary cell: every write lands on a stuck
  // cell, every voted read recovers the written value.
  dev.faults().Add({.byte_addr = 2, .bit = 5, .stuck_value = true});
  core::ProtectedDataPlane plane(dev, plan);
  for (float x : {3.0f, -7.5f, 0.25f}) {
    plane.Store(1, 0, &x, 4);
    float v = 0;
    plane.Load(1, 0, &v, 4);
    EXPECT_FLOAT_EQ(v, x);
  }
  EXPECT_GT(plane.corrections(), 0u);
}

TEST(WritableProtection, GramschmidtProtectedEndToEnd) {
  // P-GRAMSCHM has *no* read-only inputs: the paper's schemes can
  // cover nothing, and a permanent fault in the in-place matrix A
  // propagates through the orthogonalization into every later column
  // (an SDC). With writable protection of A/Q/R (store propagation +
  // voted reads), the same fault is corrected at every read.
  auto app = apps::MakeApp("P-GRAMSCHM", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  EXPECT_TRUE(profile.hot.coverage_order.empty());  // nothing paper-coverable
  const auto& sp = profile.dev->space();
  const Addr a_base = sp.Object(*sp.FindByName("A")).base;
  const std::vector<mem::StuckAtFault> fault{
      {.byte_addr = a_base + 3, .bit = 6, .stuck_value = true}};

  fault::FaultCampaign bare(*app, profile, sim::Scheme::kNone, 0);
  EXPECT_EQ(bare.RunOnce(fault), fault::Outcome::kSdc);

  const std::vector<std::string> cover{"A", "Q", "R"};
  fault::FaultCampaign protectd(*app, profile, sim::Scheme::kDetectCorrect,
                                cover);
  EXPECT_EQ(protectd.RunOnce(fault), fault::Outcome::kMasked);
}

TEST(WritableProtection, AtaxTmpVectorCoveredByExtension) {
  // P-ATAX's tmp is broadcast-read by every kernel-2 thread (as hot
  // as x) but written by kernel 1 — uncoverable by the paper's
  // read-only schemes. A fault there corrupts every output element.
  auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const auto& sp = profile.dev->space();
  const Addr tmp_base = sp.Object(*sp.FindByName("tmp")).base;
  const std::vector<mem::StuckAtFault> fault{
      {.byte_addr = tmp_base + 3, .bit = 6, .stuck_value = true}};

  // Paper's best effort (hot cover = {x}) cannot help.
  fault::FaultCampaign paper(*app, profile, sim::Scheme::kDetectCorrect, 1);
  EXPECT_EQ(paper.RunOnce(fault), fault::Outcome::kSdc);

  // Store-propagating cover of {x, tmp} masks it.
  const std::vector<std::string> cover{"x", "tmp"};
  fault::FaultCampaign extended(*app, profile, sim::Scheme::kDetectCorrect,
                                cover);
  EXPECT_EQ(extended.RunOnce(fault), fault::Outcome::kMasked);
}

TEST(WritableProtection, TimingChargesReplicaStores) {
  auto app = apps::MakeApp("P-MVT", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::vector<std::string> ro_cover{"y1", "y2"};
  const std::vector<std::string> rw_cover{"y1", "y2", "x1", "x2"};
  const auto ro = apps::BuildProtection(
      *app, apps::Cover{sim::Scheme::kDetectCorrect, ro_cover, {}});
  const auto rw = apps::BuildProtection(
      *app, apps::Cover{sim::Scheme::kDetectCorrect, rw_cover, {}});
  EXPECT_FALSE(ro.plan.propagate_stores);
  EXPECT_TRUE(rw.plan.propagate_stores);
  const auto ro_stats = apps::RunTiming(*app, profile, sim::GpuConfig{},
                                        ro.plan);
  const auto rw_stats = apps::RunTiming(*app, profile, sim::GpuConfig{},
                                        rw.plan);
  // Covering the accumulators adds replica write traffic on top of the
  // read replication (the extra writes may be absorbed by L2, so count
  // L2 accesses, not DRAM writes).
  EXPECT_GT(rw_stats.replica_transactions, ro_stats.replica_transactions);
  EXPECT_GT(rw_stats.l2_accesses, ro_stats.l2_accesses);
}

TEST(WritableProtection, ReadOnlyGuardStillThrowsByDefault) {
  mem::DeviceMemory dev;
  const auto id = dev.space().Allocate("rw", 64, false);
  EXPECT_THROW(
      core::ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace dcrm
