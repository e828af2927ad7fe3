// Static trace analyzer tests: certification of the paper's protected
// apps, read-only violations on GRAMSCHM/writable plans, synthetic
// inter-warp races, replica-aliasing and capacity lints, and the
// campaign-launch gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/analysis.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "core/replication.h"
#include "fault/campaign.h"

namespace dcrm {
namespace {

using analysis::Check;
using analysis::Finding;
using analysis::Severity;

std::uint64_t CountFindings(const std::vector<Finding>& fs, Check c,
                            Severity s) {
  std::uint64_t n = 0;
  for (const auto& f : fs) {
    if (f.check == c && f.severity == s) ++n;
  }
  return n;
}

std::uint64_t CountFindings(const analysis::Report& r, Check c, Severity s) {
  return CountFindings(r.findings, c, s);
}

// Hand-built warp trace: one warp-level instruction touching `block`.
trace::WarpTrace MakeWarp(WarpId warp, Pc pc, AccessType type, Addr block) {
  trace::WarpTrace wt;
  wt.warp = warp;
  wt.insts.push_back({pc, type, kWarpSize, {BlockBase(block)}});
  return wt;
}

// ---------------------------------------------------------------------
// Real applications: the eight protected apps certify clean; the hot
// classifier's read-only claims agree with the analyzer on all ten.

TEST(AnalyzeApps, EightProtectedAppsCertifyCleanAndTenAgreeWithHot) {
  for (const auto& name : apps::AllAppNames()) {
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});

    // Cross-check on all ten apps (including the two counterexamples):
    // every coverage-order object the classifier claims read-only must
    // be store-free in the traces.
    const auto claims = analysis::CrossCheckHotClaims(
        *profile.trace_store, profile.dev->space(), profile.hot);
    EXPECT_TRUE(claims.empty())
        << name << ": " << claims.size() << " hot-claim finding(s), first: "
        << (claims.empty() ? "" : claims.front().detail);

    // The paper's eight protected apps certify clean under the default
    // hot cover with duplication.
    const bool protected_app =
        std::find(apps::PaperAppNames().begin(), apps::PaperAppNames().end(),
                  name) != apps::PaperAppNames().end();
    if (!protected_app) continue;
    const auto setup = apps::MakeProtectionSetup(
        *app, profile, sim::Scheme::kDetectOnly,
        static_cast<unsigned>(profile.hot.hot_objects.size()));
    analysis::AnalyzerInput in;
    in.traces = profile.trace_store.get();
    in.space = &setup.dev->space();
    in.plan = &setup.plan;
    const auto report = analysis::Analyze(in);
    EXPECT_TRUE(report.Clean())
        << name << " failed certification; first finding: "
        << (report.findings.empty() ? "" : report.findings.front().detail);
    EXPECT_EQ(report.ExitCode(), analysis::kExitClean) << name;
  }
}

TEST(AnalyzeApps, GramschmidtWritablePlanIsReadOnlyViolation) {
  // P-GRAMSCHM has no read-only inputs: any cover must go through the
  // writable-protection extension, and read-only certification must
  // reject it — the paper's counterexample, caught statically.
  auto app = apps::MakeApp("P-GRAMSCHM", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::vector<std::string> cover{"A", "Q", "R"};
  const auto setup = apps::MakeProtectionSetupForObjects(
      *app, sim::Scheme::kDetectCorrect, cover);
  ASSERT_TRUE(setup.plan.propagate_stores);
  analysis::AnalyzerInput in;
  in.traces = profile.trace_store.get();
  in.space = &setup.dev->space();
  in.plan = &setup.plan;
  const auto report = analysis::Analyze(in);
  EXPECT_EQ(CountFindings(report, Check::kReadOnly, Severity::kViolation),
            3u);
  EXPECT_EQ(report.ExitCode(), analysis::kExitViolations);
}

TEST(AnalyzeApps, WritableCoverWithoutPropagationViolates) {
  // The same writable cover with propagation off is the unsound
  // configuration lazy compare cannot survive.
  auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  mem::DeviceMemory dev;
  app->Setup(dev);
  const auto tmp = dev.space().FindByName("tmp");
  ASSERT_TRUE(tmp.has_value());
  const std::vector<mem::ObjectId> ids{*tmp};
  const auto replicas = core::ReplicateObjects(
      dev, ids, 1, core::ReplicaPlacement::kDefault, 6,
      /*allow_writable=*/true);
  const auto plan = core::MakeProtectionPlan(
      dev.space(), replicas, sim::Scheme::kDetectOnly,
      /*lazy_compare=*/true, /*propagate_stores=*/false);
  const auto findings =
      analysis::CertifyReadOnly(*profile.trace_store, dev.space(), plan);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kViolation);
  EXPECT_EQ(findings[0].subject, "tmp");
  EXPECT_NE(findings[0].detail.find("desynchronize"), std::string::npos);
}

// ---------------------------------------------------------------------
// Synthetic traces: inter-warp race detection semantics.

TEST(AnalyzeRaces, DeliberateInterWarpRaceIsFlagged) {
  mem::DeviceMemory dev;
  dev.space().Allocate("shared", 4 * kBlockSize, false);
  trace::KernelTrace kt;
  kt.name = "racy_kernel";
  kt.warps.push_back(MakeWarp(0, 1, AccessType::kStore, 0));
  kt.warps.push_back(MakeWarp(1, 2, AccessType::kLoad, 0));
  const std::vector<trace::KernelTrace> traces{kt};
  const sim::ProtectionPlan none;
  const auto findings =
      analysis::CheckInterWarpRaces(*trace::BuildStore(traces), dev.space(),
                                    none);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, Check::kInterWarpRace);
  EXPECT_EQ(findings[0].severity, Severity::kInfo);  // unprotected data
  EXPECT_EQ(findings[0].subject, "shared");
  EXPECT_EQ(findings[0].count, 1u);
  EXPECT_NE(findings[0].detail.find("racy_kernel"), std::string::npos);
}

TEST(AnalyzeRaces, RaceOnProtectedBlockIsViolation) {
  mem::DeviceMemory dev;
  dev.space().Allocate("shared", kBlockSize, false);
  const Addr replica = dev.space().AllocateRaw(kBlockSize);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  plan.ranges.push_back({0, kBlockSize, {replica, 0}, 0});
  trace::KernelTrace kt;
  kt.warps.push_back(MakeWarp(0, 1, AccessType::kStore, 0));
  kt.warps.push_back(MakeWarp(1, 2, AccessType::kLoad, 0));
  const std::vector<trace::KernelTrace> traces{kt};
  const auto findings =
      analysis::CheckInterWarpRaces(*trace::BuildStore(traces), dev.space(),
                                    plan);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kViolation);
  // The store-propagation extension downgrades it to a warning.
  plan.propagate_stores = true;
  const auto mitigated =
      analysis::CheckInterWarpRaces(*trace::BuildStore(traces), dev.space(),
                                    plan);
  ASSERT_EQ(mitigated.size(), 1u);
  EXPECT_EQ(mitigated[0].severity, Severity::kWarning);
}

TEST(AnalyzeRaces, SameWarpAndCrossKernelSharingAreNotRaces) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", 4 * kBlockSize, false);
  const sim::ProtectionPlan none;
  // Same warp writes then reads its own block: program order holds.
  trace::KernelTrace same;
  same.warps.push_back(MakeWarp(0, 1, AccessType::kStore, 0));
  same.warps[0].insts.push_back({2, AccessType::kLoad, kWarpSize, {0}});
  EXPECT_TRUE(analysis::CheckInterWarpRaces(*trace::BuildStore({same}),
                                            dev.space(), none)
                  .empty());
  // Writer and reader separated by a kernel boundary: ordered.
  trace::KernelTrace k1;
  k1.warps.push_back(MakeWarp(0, 1, AccessType::kStore, 0));
  trace::KernelTrace k2;
  k2.warps.push_back(MakeWarp(1, 2, AccessType::kLoad, 0));
  EXPECT_TRUE(analysis::CheckInterWarpRaces(*trace::BuildStore({k1, k2}),
                                            dev.space(), none)
                  .empty());
  // Two warps reading the same block: sharing, not a race.
  trace::KernelTrace rr;
  rr.warps.push_back(MakeWarp(0, 1, AccessType::kLoad, 0));
  rr.warps.push_back(MakeWarp(1, 1, AccessType::kLoad, 0));
  EXPECT_TRUE(analysis::CheckInterWarpRaces(*trace::BuildStore({rr}),
                                            dev.space(), none)
                  .empty());
}

TEST(AnalyzeRaces, WriteWriteSharingAcrossWarpsIsFlagged) {
  mem::DeviceMemory dev;
  dev.space().Allocate("out", kBlockSize, false);
  trace::KernelTrace kt;
  kt.warps.push_back(MakeWarp(0, 1, AccessType::kStore, 0));
  kt.warps.push_back(MakeWarp(3, 1, AccessType::kStore, 0));
  const sim::ProtectionPlan none;
  const auto findings =
      analysis::CheckInterWarpRaces(*trace::BuildStore({kt}), dev.space(),
                                    none);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].count, 1u);
}

// ---------------------------------------------------------------------
// Replica layout and capacity lints (hand-built plans).

TEST(AnalyzeLayout, ReplicaAliasingLiveObjectViolates) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", 2 * kBlockSize, true);
  dev.space().Allocate("b", 2 * kBlockSize, true);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  // Replica of 'a' deliberately placed on top of 'b'.
  plan.ranges.push_back({0, 2 * kBlockSize, {2 * kBlockSize, 0}, 0});
  const auto findings =
      analysis::CheckReplicaLayout(dev.space(), plan, std::nullopt);
  ASSERT_EQ(CountFindings(findings, Check::kReplicaLayout,
                          Severity::kViolation),
            1u);
  EXPECT_NE(findings[0].detail.find("'b'"), std::string::npos);
}

TEST(AnalyzeLayout, ReplicaAliasingSelfOrSiblingViolates) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", 2 * kBlockSize, true);
  const Addr spare_base = dev.space().AllocateRaw(4 * kBlockSize);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectCorrect;
  // Both replicas at the same address: one fault hits both copies and
  // the majority vote degenerates.
  plan.ranges.push_back(
      {0, 2 * kBlockSize, {spare_base + 100 * kBlockSize,
                           spare_base + 100 * kBlockSize}, 0});
  const auto findings =
      analysis::CheckReplicaLayout(dev.space(), plan, std::nullopt);
  EXPECT_GE(CountFindings(findings, Check::kReplicaLayout,
                          Severity::kViolation),
            1u);
}

TEST(AnalyzeLayout, ReplicaAliasingSparePoolViolates) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", kBlockSize, true);
  const Addr replica = dev.space().AllocateRaw(kBlockSize);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  plan.ranges.push_back({0, kBlockSize, {replica, 0}, 0});
  // Clean without a spare region...
  EXPECT_TRUE(analysis::CheckReplicaLayout(dev.space(), plan, std::nullopt)
                  .empty());
  // ...but a violation when the retirement spare pool covers it.
  const analysis::SpareRegion spare{replica, 32 * kBlockSize};
  const auto findings =
      analysis::CheckReplicaLayout(dev.space(), plan, spare);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kViolation);
  EXPECT_NE(findings[0].detail.find("spare"), std::string::npos);
}

TEST(AnalyzeLayout, ReplicaOutsideStoreAndOverlappingPrimariesViolate) {
  mem::DeviceMemory dev;
  dev.space().Allocate("a", 2 * kBlockSize, true);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  plan.ranges.push_back(
      {0, 2 * kBlockSize, {dev.space().StoreSize() + kBlockSize, 0}, 0});
  plan.ranges.push_back(
      {kBlockSize, kBlockSize, {dev.space().StoreSize() + kBlockSize, 0},
       0});
  const auto findings =
      analysis::CheckReplicaLayout(dev.space(), plan, std::nullopt);
  EXPECT_GE(CountFindings(findings, Check::kReplicaLayout,
                          Severity::kViolation),
            2u);  // overlapping primaries + out-of-store replicas
}

TEST(AnalyzeCapacity, TableOverflowsAreFlagged) {
  mem::DeviceMemory dev;
  sim::GpuConfig cfg;
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  // 33 one-replica ranges need 33 start addresses > 32-entry table.
  for (unsigned i = 0; i < 33; ++i) {
    std::string name = "o";
    name += std::to_string(i);
    const auto id = dev.space().Allocate(name, kBlockSize, true);
    const auto& obj = dev.space().Object(id);
    const Addr rep = dev.space().AllocateRaw(kBlockSize);
    plan.ranges.push_back({obj.base, obj.size_bytes, {rep, 0}, 0});
  }
  const auto no_traces = trace::BuildStore(std::vector<trace::KernelTrace>{});
  auto findings =
      analysis::LintCapacity(*no_traces, dev.space(), plan, cfg);
  EXPECT_EQ(CountFindings(findings, Check::kCapacity, Severity::kViolation),
            1u);
  // PC-table overflow: 33 tracked load sites > 32 entries.
  plan.ranges.resize(16);
  for (Pc pc = 0; pc < 33; ++pc) plan.pcs.insert(pc);
  findings = analysis::LintCapacity(*no_traces, dev.space(), plan, cfg);
  EXPECT_EQ(CountFindings(findings, Check::kCapacity, Severity::kViolation),
            1u);
}

TEST(AnalyzeCapacity, PoorCoalescingIsInformational) {
  mem::DeviceMemory dev;
  dev.space().Allocate("hot", 32 * kBlockSize, true);
  const Addr replica = dev.space().AllocateRaw(32 * kBlockSize);
  sim::ProtectionPlan plan;
  plan.scheme = sim::Scheme::kDetectOnly;
  plan.ranges.push_back({0, 32 * kBlockSize, {replica, 0}, 0});
  plan.pcs.insert(1);
  // One warp load fanning out to 32 distinct blocks: fully uncoalesced.
  trace::KernelTrace kt;
  trace::WarpTrace wt;
  wt.warp = 0;
  trace::WarpMemInst inst{1, AccessType::kLoad, kWarpSize, {}};
  for (unsigned b = 0; b < 32; ++b) inst.blocks.push_back(b * kBlockSize);
  wt.insts.push_back(inst);
  kt.warps.push_back(wt);
  const auto findings = analysis::LintCapacity(
      *trace::BuildStore({kt}), dev.space(), plan, sim::GpuConfig{});
  ASSERT_EQ(CountFindings(findings, Check::kCoalescing, Severity::kInfo),
            1u);
  EXPECT_EQ(findings.back().count, 32u);
}

// ---------------------------------------------------------------------
// Report plumbing.

TEST(AnalyzeReport, ExitCodesAndWriters) {
  analysis::Report report;
  EXPECT_EQ(report.ExitCode(), analysis::kExitClean);
  report.findings.push_back(
      {Check::kCoalescing, Severity::kInfo, "x", 0, 1, "diag"});
  EXPECT_EQ(report.ExitCode(), analysis::kExitClean);
  EXPECT_TRUE(report.Clean());
  report.findings.push_back(
      {Check::kCapacity, Severity::kWarning, "y", 0, 1, "warn"});
  EXPECT_EQ(report.ExitCode(), analysis::kExitWarnings);
  report.findings.push_back({Check::kReadOnly, Severity::kViolation, "z",
                             0x80, 2, "bad, \"quoted\""});
  EXPECT_EQ(report.ExitCode(), analysis::kExitViolations);
  EXPECT_EQ(report.Worst(), Severity::kViolation);

  std::ostringstream text;
  analysis::WriteText(report, text);
  EXPECT_NE(text.str().find("1 violation(s)"), std::string::npos);
  EXPECT_NE(text.str().find("read-only"), std::string::npos);

  std::ostringstream csv;
  analysis::WriteCsv(report, csv);
  EXPECT_NE(csv.str().find("check,severity,subject,addr,count,detail"),
            std::string::npos);
  EXPECT_NE(csv.str().find("\"bad, \"\"quoted\"\"\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign-launch gate.

// An application that lies about mutability: 'in' is allocated
// read-only (so the hot classifier lists it as coverable) but the
// kernel stores to it — the silent misconfiguration the gate exists
// to catch.
class LyingApp final : public apps::App {
 public:
  std::string Name() const override { return "lying"; }
  void Setup(mem::DeviceMemory& dev) override {
    in_ = exec::ArrayRef<float>(
        dev.space().Object(dev.space().Allocate("in", kN * 4, true)).base);
    out_ = exec::ArrayRef<float>(
        dev.space().Object(dev.space().Allocate("out", kN * 4, false))
            .base);
    for (std::uint64_t i = 0; i < kN; ++i) {
      dev.Write<float>(in_.AddrOf(i), static_cast<float>(i));
    }
  }
  std::vector<apps::KernelLaunch> Kernels() override {
    exec::LaunchConfig cfg;
    cfg.grid = {2, 1, 1};
    cfg.block = {64, 1, 1};
    auto in = in_;
    auto out = out_;
    // Kernel 1 stores to the "read-only" input; kernel 2 then loads it,
    // which is where lazy compare would hit the stale replica.
    return {{"lying_update", cfg,
             [in](exec::ThreadCtx& ctx) {
               const std::uint64_t i =
                   ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
               if (i >= kN) return;
               in.St(ctx, 2, i, in.Ld(ctx, 1, i) + 1.0f);
             }},
            {"lying_consume", cfg, [in, out](exec::ThreadCtx& ctx) {
               const std::uint64_t i =
                   ctx.blockIdx().x * ctx.blockDim().x + ctx.threadIdx().x;
               if (i >= kN) return;
               out.St(ctx, 4, i, in.Ld(ctx, 3, i) * 2.0f);
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
  double SdcThreshold() const override { return 1e-6; }
  std::string MetricName() const override { return "max-abs-diff"; }

 private:
  static constexpr std::uint64_t kN = 128;
  exec::ArrayRef<float> in_;
  exec::ArrayRef<float> out_;
};

TEST(CampaignGate, RefusesUnsoundPlanUnlessAllowed) {
  LyingApp app;
  const auto profile = apps::ProfileApp(app, sim::GpuConfig{});
  // The classifier believes the allocation flag...
  ASSERT_EQ(profile.hot.coverage_order.size(), 1u);
  EXPECT_EQ(profile.hot.coverage_order[0].name, "in");
  // ...the analyzer's cross-check does not.
  const auto claims = analysis::CrossCheckHotClaims(
      *profile.trace_store, profile.dev->space(), profile.hot);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims[0].check, Check::kHotClaim);
  EXPECT_EQ(claims[0].severity, Severity::kViolation);

  // Covering the lying object must refuse the launch...
  try {
    fault::FaultCampaign campaign(app, profile, sim::Scheme::kDetectOnly, 1);
    FAIL() << "gate did not fire";
  } catch (const analysis::UnsoundPlanError& e) {
    EXPECT_NE(std::string(e.what()).find("allow_unsound"),
              std::string::npos);
    EXPECT_GE(e.report().Count(Severity::kViolation), 1u);
  }

  // ...unless explicitly overridden.
  fault::FaultCampaign forced(app, profile, sim::Scheme::kDetectOnly, 1,
                              mem::EccMode::kNone,
                              /*allow_unsound=*/true);
  EXPECT_EQ(forced.RunOnce({}), fault::Outcome::kDetected)
      << "an unsound lazy-compare plan misfires even fault-free — the "
         "exact failure the gate prevents";
}

TEST(CampaignGate, WritableExtensionPassesViaPropagation) {
  // The store-propagating writable path must still launch: its
  // read-only violations are soundly mitigated, so the gate downgrades
  // rather than refuses.
  auto app = apps::MakeApp("P-GRAMSCHM", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::vector<std::string> cover{"A", "Q", "R"};
  fault::FaultCampaign campaign(*app, profile, sim::Scheme::kDetectCorrect,
                                cover);
  EXPECT_EQ(campaign.RunOnce({}), fault::Outcome::kMasked);
}

TEST(CampaignGate, CleanPaperPlanLaunches) {
  auto app = apps::MakeApp("P-BICG", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  fault::FaultCampaign campaign(
      *app, profile, sim::Scheme::kDetectOnly,
      static_cast<unsigned>(profile.hot.hot_objects.size()));
  EXPECT_EQ(campaign.RunOnce({}), fault::Outcome::kMasked);
}

}  // namespace
}  // namespace dcrm
