#include <gtest/gtest.h>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/recovery.h"
#include "exec/data_plane.h"
#include "fault/campaign.h"

namespace dcrm::fault {
namespace {

class BicgRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = apps::MakeApp("P-BICG", apps::AppScale::kTiny);
    profile_ = std::make_unique<apps::ProfileResult>(
        apps::ProfileApp(*app_, sim::GpuConfig{}));
  }
  Addr RBase() const {
    const auto& sp = profile_->dev->space();
    return sp.Object(*sp.FindByName("r")).base;
  }
  // The seed suite's canonical fault: flips a high mantissa bit of
  // r[0], kSdc unprotected and kDetected under plain detect-only.
  static mem::StuckAtFault FaultAt(Addr a) {
    return {.byte_addr = a, .bit = 6, .stuck_value = true};
  }
  std::unique_ptr<apps::App> app_;
  std::unique_ptr<apps::ProfileResult> profile_;
};

TEST_F(BicgRecovery, ArbitrationRecoversPrimaryFault) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  c.EnableRecovery({.enabled = true});
  EXPECT_EQ(c.RunOnce({FaultAt(RBase() + 3)}), Outcome::kRecovered);
  const auto& s = c.recovery()->stats();
  EXPECT_GE(s.arbitrations, 1u);
  EXPECT_EQ(s.retries, 0u);  // Tier 0 settled it in place
}

TEST_F(BicgRecovery, ArbitrationRepairsFaultyReplica) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  c.EnableRecovery({.enabled = true});
  const auto* range = c.plan().Lookup(RBase());
  ASSERT_NE(range, nullptr);
  const Outcome o =
      c.RunOnce({FaultAt(range->ReplicaAddr(0, RBase() + 3))});
  EXPECT_EQ(o, Outcome::kRecovered);
  EXPECT_GE(c.recovery()->stats().arbitrations, 1u);
  EXPECT_EQ(c.recovery()->stats().retries, 0u);
}

TEST_F(BicgRecovery, RetirementAndRetryRecoverDetection) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  core::RecoveryConfig rc;
  rc.enabled = true;
  rc.arbitrate = false;  // force the Tier-1 path
  c.EnableRecovery(rc);
  EXPECT_EQ(c.RunOnce({FaultAt(RBase() + 3)}), Outcome::kRecovered);
  const auto& s = c.recovery()->stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_GE(s.retired_blocks, 1u);
  EXPECT_EQ(s.backoff_units, 1u);  // 2^0 for the first attempt
  EXPECT_GE(c.recovery()->spare_blocks_used(), 1u);
}

TEST_F(BicgRecovery, ExhaustedBudgetSurfacesDetected) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  core::RecoveryConfig rc;
  rc.enabled = true;
  rc.arbitrate = false;
  rc.retire = false;  // nothing changes between attempts: always fails
  rc.max_retries = 2;
  c.EnableRecovery(rc);
  EXPECT_EQ(c.RunOnce({FaultAt(RBase() + 3)}), Outcome::kDetected);
  const auto& s = c.recovery()->stats();
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.backoff_units, 3u);  // 2^0 + 2^1
  EXPECT_EQ(s.exhausted_runs, 1u);
}

TEST_F(BicgRecovery, ZeroRetryBudgetKeepsPaperBehaviour) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  core::RecoveryConfig rc;
  rc.enabled = true;
  rc.arbitrate = false;
  rc.scrub = false;
  rc.retire = false;
  rc.max_retries = 0;
  c.EnableRecovery(rc);
  EXPECT_EQ(c.RunOnce({FaultAt(RBase() + 3)}), Outcome::kDetected);
  EXPECT_EQ(c.recovery()->stats().retries, 0u);
}

TEST_F(BicgRecovery, RepeatOffenderEscalatesToVote) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  core::RecoveryConfig rc;
  rc.enabled = true;
  rc.arbitrate = false;
  rc.retire = false;
  rc.max_retries = 1;
  rc.escalate_threshold = 2;
  c.EnableRecovery(rc);
  const auto f = FaultAt(RBase() + 3);
  // Trial 1 exhausts its budget and records two offense events against
  // r. RunOnce itself must not escalate — that is campaign-lifetime
  // state, owned by the ledger and applied only at explicit epoch
  // boundaries — so an identical trial 2 still detects. Once the
  // engine merges the events and applies the ledger, r is escalated to
  // a majority vote, which corrects the fault without re-execution.
  EXPECT_EQ(c.RunOnce({f}), Outcome::kDetected);
  EXPECT_EQ(c.recovery()->trial_offenses().size(), 2u);
  c.ledger().Merge(c.recovery()->trial_offenses());
  EXPECT_EQ(c.RunOnce({f}), Outcome::kDetected);
  EXPECT_EQ(c.recovery()->stats().escalations, 0u);
  EXPECT_EQ(c.ApplyEscalations(), 1u);
  EXPECT_EQ(c.RunOnce({f}), Outcome::kRecovered);
  EXPECT_GE(c.recovery()->stats().escalations, 1u);
}

TEST_F(BicgRecovery, TrialOffensesResetPerTrialAndLeaveLedgerAlone) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  core::RecoveryConfig rc;
  rc.enabled = true;
  rc.arbitrate = false;
  rc.retire = false;
  rc.max_retries = 0;
  c.EnableRecovery(rc);
  EXPECT_EQ(c.RunOnce({FaultAt(RBase() + 3)}), Outcome::kDetected);
  EXPECT_FALSE(c.recovery()->trial_offenses().empty());
  // Per-trial state: a clean trial starts from zero offense events.
  EXPECT_EQ(c.RunOnce({}), Outcome::kMasked);
  EXPECT_TRUE(c.recovery()->trial_offenses().empty());
  // Campaign-lifetime state: RunOnce never wrote to the ledger.
  EXPECT_TRUE(c.ledger().counts().empty());
}

TEST_F(BicgRecovery, CleanRunStaysMaskedWithRecoveryEnabled) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  c.EnableRecovery({.enabled = true});
  EXPECT_EQ(c.RunOnce({}), Outcome::kMasked);
  EXPECT_EQ(c.recovery()->stats().retries, 0u);
  EXPECT_EQ(c.recovery()->stats().arbitrations, 0u);
}

TEST_F(BicgRecovery, CampaignConvertsDetectionsToRecoveries) {
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.faulty_blocks = 1;
  cfg.bits_per_block = 4;
  cfg.runs = 40;
  cfg.seed = 5;

  FaultCampaign off(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  const auto base = off.Run(cfg);
  ASSERT_GT(base.detected, 0u);

  cfg.recovery.enabled = true;
  cfg.recovery.max_retries = 2;
  FaultCampaign on(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  const auto rec = on.Run(cfg);

  EXPECT_EQ(rec.runs, base.runs);
  EXPECT_LE(rec.sdc, base.sdc);  // recovery must not create new SDCs
  EXPECT_LT(rec.detected, base.detected);
  // Strict majority of the former detections convert to kRecovered.
  EXPECT_GT(rec.recovered, base.detected / 2);
  EXPECT_GT(rec.recovery.scrubs + rec.recovery.arbitrations +
                rec.recovery.retries,
            0u);
}

TEST_F(BicgRecovery, CampaignCountsIncludeRecovered) {
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.faulty_blocks = 1;
  cfg.bits_per_block = 4;
  cfg.runs = 20;
  cfg.seed = 11;
  cfg.recovery.enabled = true;
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  const auto counts = c.Run(cfg);
  EXPECT_EQ(counts.masked + counts.sdc + counts.detected + counts.due +
                counts.crash + counts.recovered,
            counts.runs);
}

TEST(ChargeRecoveryTest, CostArithmetic) {
  sim::GpuConfig cfg;
  core::RecoveryStats s;
  s.scrubs = 3;
  s.retired_blocks = 2;
  s.retries = 1;
  s.backoff_units = 5;
  const auto c = core::ChargeRecovery(s, 10, 1000, cfg);
  const double dram =
      static_cast<double>(cfg.t_rcd + cfg.t_cl + cfg.burst_cycles);
  EXPECT_DOUBLE_EQ(c.scrub_cycles, 3 * 2.0 * dram);
  EXPECT_DOUBLE_EQ(c.retire_cycles, 2 * (2.0 * dram + cfg.t_rp));
  EXPECT_DOUBLE_EQ(c.reexec_cycles, 1000.0);
  EXPECT_DOUBLE_EQ(c.backoff_cycles, 5.0 * cfg.recovery_backoff_cycles);
  EXPECT_DOUBLE_EQ(c.total_cycles, c.scrub_cycles + c.retire_cycles +
                                       c.reexec_cycles + c.backoff_cycles);
  EXPECT_DOUBLE_EQ(c.per_run_overhead, c.total_cycles / 10000.0);
}

TEST(ChargeRecoveryTest, ZeroRunsYieldZeroOverhead) {
  const auto c = core::ChargeRecovery({}, 0, 0, sim::GpuConfig{});
  EXPECT_DOUBLE_EQ(c.total_cycles, 0.0);
  EXPECT_DOUBLE_EQ(c.per_run_overhead, 0.0);
}

// An 8-byte scrub at 124 straddles blocks 0 and 1; only block 1 holds
// stuck cells, so only block 1 is retired, and its loads read the
// written value from the spare.
TEST(RecoveryScrub, StraddlingScrubRetiresOnlyTheStuckBlock) {
  mem::DeviceMemory dev;
  ASSERT_EQ(dev.space().Object(dev.space().Allocate("w", 2 * kBlockSize,
                                                    false)).base,
            0u);
  core::RecoveryConfig cfg;
  cfg.enabled = true;
  core::RecoveryManager rm(dev, cfg);
  // Byte 128 reads bit 0 as 1; the good value there has it clear.
  dev.faults().Add({.byte_addr = 128, .bit = 0, .stuck_value = true});
  const std::uint8_t good[8] = {1, 2, 3, 4, 6, 6, 7, 8};
  rm.OnVoteCorrected(124, good, 8, /*escalated_range=*/false);

  EXPECT_EQ(rm.stats().scrubs, 1u);
  EXPECT_EQ(rm.stats().scrub_sticks, 0u);
  EXPECT_EQ(rm.stats().retired_blocks, 1u);
  EXPECT_EQ(rm.spare_blocks_used(), 1u);
  EXPECT_FALSE(dev.retired().Contains(0));
  EXPECT_TRUE(dev.retired().Contains(1));

  exec::DirectDataPlane plane(dev);
  std::uint8_t at128[4];
  plane.Load(/*pc=*/1, 128, at128, 4);
  EXPECT_EQ(std::vector<std::uint8_t>(at128, at128 + 4),
            std::vector<std::uint8_t>(good + 4, good + 8));
  std::uint8_t across[8];
  plane.Load(/*pc=*/1, 124, across, 8);
  EXPECT_EQ(std::vector<std::uint8_t>(across, across + 8),
            std::vector<std::uint8_t>(good, good + 8));
}

}  // namespace
}  // namespace dcrm::fault
