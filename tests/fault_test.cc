#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/driver.h"
#include "apps/registry.h"
#include "fault/campaign.h"

namespace dcrm::fault {
namespace {

sim::GpuConfig Cfg() { return sim::GpuConfig{}; }

class BicgCampaign : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = apps::MakeApp("P-BICG", apps::AppScale::kTiny);
    profile_ = std::make_unique<apps::ProfileResult>(
        apps::ProfileApp(*app_, Cfg()));
  }
  std::unique_ptr<apps::App> app_;
  std::unique_ptr<apps::ProfileResult> profile_;
};

TEST_F(BicgCampaign, NoFaultsIsMasked) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  EXPECT_EQ(c.RunOnce({}), Outcome::kMasked);
}

TEST_F(BicgCampaign, HotFaultCausesSdcWithoutProtection) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  // Flip a high mantissa/exponent bit in r[0] (hot object).
  const auto& sp = profile_->dev->space();
  const Addr r_base = sp.Object(*sp.FindByName("r")).base;
  const Outcome o = c.RunOnce(
      {{.byte_addr = r_base + 3, .bit = 6, .stuck_value = true}});
  EXPECT_EQ(o, Outcome::kSdc);
}

TEST_F(BicgCampaign, DetectionTerminatesInsteadOfSdc) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectOnly, 2);
  const auto& sp = profile_->dev->space();
  const Addr r_base = sp.Object(*sp.FindByName("r")).base;
  const Outcome o = c.RunOnce(
      {{.byte_addr = r_base + 3, .bit = 6, .stuck_value = true}});
  EXPECT_EQ(o, Outcome::kDetected);
}

TEST_F(BicgCampaign, CorrectionMasksTheFault) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectCorrect, 2);
  const auto& sp = profile_->dev->space();
  const Addr r_base = sp.Object(*sp.FindByName("r")).base;
  const Outcome o = c.RunOnce(
      {{.byte_addr = r_base + 3, .bit = 6, .stuck_value = true}});
  EXPECT_EQ(o, Outcome::kMasked);
}

TEST_F(BicgCampaign, UnprotectedObjectFaultsEscapePartialCover) {
  // Cover only the two hot objects (p, r); fault many blocks of A.
  // The scheme must neither detect nor correct them; with enough
  // corrupted elements (each faulty A element poisons one s and one q
  // entry) the output crosses the SDC threshold.
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectCorrect, 2);
  const auto& sp = profile_->dev->space();
  const auto& a = sp.Object(*sp.FindByName("A"));
  std::vector<mem::StuckAtFault> faults;
  // Setting float bit 30 always corrupts values with |v| < 2.
  for (unsigned b = 0; b < 8; ++b) {
    faults.push_back({.byte_addr = a.base + b * 16 * kBlockSize + 3,
                      .bit = 6,
                      .stuck_value = true});
  }
  const Outcome o = c.RunOnce(faults);
  EXPECT_EQ(o, Outcome::kSdc);
}

TEST_F(BicgCampaign, SingleStreamedElementFaultStaysBelowThreshold) {
  // One corrupted A element touches only ~2 of the output elements —
  // below the 5% SDC threshold, mirroring the paper's quality gating.
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  const auto& sp = profile_->dev->space();
  const Addr a_base = sp.Object(*sp.FindByName("A")).base;
  const Outcome o = c.RunOnce(
      {{.byte_addr = a_base + 3, .bit = 6, .stuck_value = true}});
  EXPECT_EQ(o, Outcome::kMasked);
}

TEST_F(BicgCampaign, CampaignCountsAreConsistent) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.faulty_blocks = 1;
  cfg.bits_per_block = 2;
  cfg.runs = 30;
  cfg.seed = 99;
  const auto counts = c.Run(cfg);
  EXPECT_EQ(counts.runs, 30u);
  EXPECT_EQ(counts.masked + counts.sdc + counts.detected + counts.due +
                counts.crash + counts.recovered,
            30u);
}

TEST_F(BicgCampaign, ZeroRunsYieldEmptyCounts) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.runs = 0;
  const auto counts = c.Run(cfg);
  EXPECT_EQ(counts.runs, 0u);
  EXPECT_EQ(counts.masked + counts.sdc + counts.detected + counts.due +
                counts.crash + counts.recovered,
            0u);
  EXPECT_EQ(counts.corrections, 0u);
}

TEST_F(BicgCampaign, FaultyBlocksClampedToPopulation) {
  // Requesting more faulty blocks than the target set holds injects
  // into all of it instead of throwing or spinning.
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.faulty_blocks = 1000000;
  cfg.bits_per_block = 1;
  cfg.runs = 2;
  cfg.seed = 3;
  const auto counts = c.Run(cfg);
  EXPECT_EQ(counts.runs, 2u);
}

TEST_F(BicgCampaign, DeterministicAcrossCampaignInstances) {
  // Two independently constructed campaigns with the same seed must
  // produce identical classifications, not merely the same instance
  // re-run (fresh Rng, fresh device, fresh snapshot).
  CampaignConfig cfg;
  cfg.target = Target::kMissWeighted;
  cfg.runs = 15;
  cfg.seed = 42;
  FaultCampaign a(*app_, *profile_, sim::Scheme::kNone, 0);
  FaultCampaign b(*app_, *profile_, sim::Scheme::kNone, 0);
  const auto ca = a.Run(cfg);
  const auto cb = b.Run(cfg);
  EXPECT_EQ(ca.masked, cb.masked);
  EXPECT_EQ(ca.sdc, cb.sdc);
  EXPECT_EQ(ca.detected, cb.detected);
  EXPECT_EQ(ca.due, cb.due);
  EXPECT_EQ(ca.crash, cb.crash);
  EXPECT_EQ(ca.corrections, cb.corrections);
}

TEST_F(BicgCampaign, HotTargetProducesMoreSdcThanRest) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.faulty_blocks = 1;
  cfg.bits_per_block = 4;
  cfg.runs = 60;
  cfg.seed = 7;
  cfg.target = Target::kHotBlocks;
  const auto hot = c.Run(cfg);
  cfg.target = Target::kRestBlocks;
  const auto rest = c.Run(cfg);
  EXPECT_GT(hot.sdc, rest.sdc);
}

TEST_F(BicgCampaign, ProtectionEliminatesSdcForHotFaults) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kDetectCorrect, 2);
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.faulty_blocks = 1;
  cfg.bits_per_block = 4;
  cfg.runs = 40;
  cfg.seed = 5;
  const auto counts = c.Run(cfg);
  EXPECT_EQ(counts.sdc, 0u);
  EXPECT_GT(counts.corrections, 0u);
}

TEST_F(BicgCampaign, DeterministicForSameSeed) {
  FaultCampaign c(*app_, *profile_, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.target = Target::kMissWeighted;
  cfg.runs = 20;
  cfg.seed = 123;
  const auto a = c.Run(cfg);
  const auto b = c.Run(cfg);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.masked, b.masked);
}

TEST_F(BicgCampaign, SdcCiIsComputed) {
  CampaignCounts counts;
  counts.runs = 1000;
  counts.sdc = 200;
  const auto ci = counts.SdcCi();
  EXPECT_NEAR(ci.p, 0.2, 1e-12);
  EXPECT_LT(ci.margin, 0.03);
}

TEST(FaultCampaignErrors, HotTargetWithoutHotBlocksThrows) {
  auto app = apps::MakeApp("C-BlackScholes", apps::AppScale::kTiny);
  auto profile = apps::ProfileApp(*app, Cfg());
  FaultCampaign c(*app, profile, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.target = Target::kHotBlocks;
  cfg.runs = 1;
  EXPECT_THROW(c.Run(cfg), std::invalid_argument);
}

TEST(FaultCampaignErrors, CoverBeyondOrderThrows) {
  auto app = apps::MakeApp("P-GESUMMV", apps::AppScale::kTiny);
  auto profile = apps::ProfileApp(*app, Cfg());
  EXPECT_THROW(FaultCampaign(*app, profile, sim::Scheme::kDetectOnly, 99),
               std::invalid_argument);
}

// A kernel defect no outcome describes: the app's copy kernel throws
// std::logic_error on one chosen launch.
class ThrowingApp final : public apps::App {
 public:
  std::string Name() const override { return "throwing"; }
  void Setup(mem::DeviceMemory& dev) override {
    auto& sp = dev.space();
    in_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("in", kN * 4, true)).base);
    out_ = exec::ArrayRef<float>(
        sp.Object(sp.Allocate("out", kN * 4, false)).base);
    for (std::uint64_t i = 0; i < kN; ++i) {
      dev.Write<float>(in_.AddrOf(i), static_cast<float>(i));
    }
  }
  std::vector<apps::KernelLaunch> Kernels() override {
    exec::LaunchConfig cfg;
    cfg.grid = {1, 1, 1};
    cfg.block = {kN, 1, 1};
    auto in = in_;
    auto out = out_;
    auto launches = launches_;
    return {{"copy", cfg, [in, out, launches](exec::ThreadCtx& ctx) {
               const std::uint64_t i = ctx.threadIdx().x;
               if (i == 0 && launches != nullptr &&
                   ++launches->count == launches->throw_at) {
                 throw std::logic_error("kernel bug");
               }
               out.St(ctx, 2, i, in.Ld(ctx, 1, i));
             }}};
  }
  std::vector<std::string> OutputObjects() const override { return {"out"}; }
  double OutputError(std::span<const float> golden,
                     std::span<const float> observed) const override {
    double err = 0;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      err = std::max(err, std::abs(static_cast<double>(golden[i]) -
                                   observed[i]));
    }
    return err;
  }
  double SdcThreshold() const override { return 0; }
  std::string MetricName() const override { return "max-abs-diff"; }

  // Throws on the `n`-th launch from now (1-based).
  void ThrowOnLaunch(unsigned n) {
    launches_ = std::make_shared<Launches>();
    launches_->throw_at = n;
  }

 private:
  static constexpr std::uint32_t kN = 64;
  struct Launches {
    unsigned count = 0;
    unsigned throw_at = 0;
  };
  std::shared_ptr<Launches> launches_;
  exec::ArrayRef<float> in_;
  exec::ArrayRef<float> out_;
};

TEST(FaultCampaignErrors, UnmappedTrialExceptionNamesTrialAndSeed) {
  ThrowingApp app;
  const auto profile = apps::ProfileApp(app, Cfg());
  FaultCampaign c(app, profile, sim::Scheme::kNone, 0);
  CampaignConfig cfg;
  cfg.runs = 5;
  cfg.seed = 42;
  app.ThrowOnLaunch(3);  // trial 2 of a serial campaign
  try {
    c.Run(cfg);
    FAIL() << "the kernel's exception was swallowed";
  } catch (const std::logic_error&) {
    FAIL() << "the kernel's exception escaped bare";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 2 (seed 42): kernel bug");
  }
}

}  // namespace
}  // namespace dcrm::fault
