// Oracle for plan construction: a FaultCampaign must run exactly the
// protection plan, on exactly the device image, that
// apps::MakeProtectionSetup* builds for the same cover. Covers every
// app under both schemes at the hot-object cover and the full Table III
// coverage order, plus explicit named sets (read-only and writable).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "fault/campaign.h"

namespace {

using namespace dcrm;

const std::vector<std::string> kApps = {
    "C-NN",          "P-BICG",        "P-GESUMMV",   "P-MVT",
    "A-Laplacian",   "A-Meanfilter",  "A-Sobel",     "A-SRAD",
    "P-ATAX",        "C-ConvRows",    "C-Histogram", "C-BlackScholes",
    "P-GRAMSCHM",    "L-Transformer", "L-MLP2",
};

void ExpectSamePlan(const sim::ProtectionPlan& want,
                    const sim::ProtectionPlan& got) {
  EXPECT_EQ(want.scheme, got.scheme);
  EXPECT_EQ(want.lazy_compare, got.lazy_compare);
  EXPECT_EQ(want.propagate_stores, got.propagate_stores);
  EXPECT_EQ(want.pcs, got.pcs);
  ASSERT_EQ(want.ranges.size(), got.ranges.size());
  for (std::size_t i = 0; i < want.ranges.size(); ++i) {
    const sim::ProtectedRange& w = want.ranges[i];
    const sim::ProtectedRange& g = got.ranges[i];
    EXPECT_EQ(w.base, g.base) << "range " << i;
    EXPECT_EQ(w.size, g.size) << "range " << i;
    EXPECT_EQ(w.replica_base[0], g.replica_base[0]) << "range " << i;
    EXPECT_EQ(w.replica_base[1], g.replica_base[1]) << "range " << i;
    EXPECT_EQ(w.copies, g.copies) << "range " << i;
  }
}

void ExpectSameImage(const apps::ProtectionSetup& want,
                     const fault::FaultCampaign& got) {
  const mem::AddressSpace& space = want.dev->space();
  const std::vector<std::byte>& snapshot = got.tables()->snapshot;
  ASSERT_EQ(snapshot.size(), space.StoreSize());
  EXPECT_EQ(std::memcmp(snapshot.data(), space.Data(), snapshot.size()), 0);
}

class PlanOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanOracle, CampaignRunsTheBuildersPlan) {
  auto app = apps::MakeApp(GetParam(), apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const auto hot = static_cast<unsigned>(profile.hot.hot_objects.size());
  const auto full = static_cast<unsigned>(profile.hot.coverage_order.size());
  for (const sim::Scheme scheme :
       {sim::Scheme::kDetectOnly, sim::Scheme::kDetectCorrect}) {
    for (const unsigned cover : {hot, full}) {
      SCOPED_TRACE(std::string(sim::SchemeName(scheme)) + " cover=" +
                   std::to_string(cover));
      const auto setup =
          apps::MakeProtectionSetup(*app, profile, scheme, cover);
      const fault::FaultCampaign campaign(*app, profile, scheme, cover,
                                          mem::EccMode::kNone,
                                          /*allow_unsound=*/true);
      EXPECT_EQ(setup.plan.ranges.size(), cover);
      ExpectSamePlan(setup.plan, campaign.plan());
      ExpectSameImage(setup, campaign);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, PlanOracle, ::testing::ValuesIn(kApps),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string s = i.param;
                           for (char& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

void ExpectNamedSetMatches(const std::string& app_name,
                           const std::vector<std::string>& names) {
  auto app = apps::MakeApp(app_name, apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  for (const sim::Scheme scheme :
       {sim::Scheme::kDetectOnly, sim::Scheme::kDetectCorrect}) {
    SCOPED_TRACE(sim::SchemeName(scheme));
    const auto setup =
        apps::MakeProtectionSetupForObjects(*app, scheme, names);
    const fault::FaultCampaign campaign(*app, profile, scheme, names,
                                        mem::EccMode::kNone,
                                        /*allow_unsound=*/true);
    ExpectSamePlan(setup.plan, campaign.plan());
    ExpectSameImage(setup, campaign);
  }
}

TEST(NamedPlanOracle, GramSchmidtNamedSet) {
  ExpectNamedSetMatches("P-GRAMSCHM", {"A", "Q", "R"});
}

TEST(NamedPlanOracle, WritableNamedSet) {
  auto app = apps::MakeApp("P-MVT", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::vector<std::string> names{"y1", "y2", "x1", "x2"};
  const auto setup = apps::MakeProtectionSetupForObjects(
      *app, sim::Scheme::kDetectCorrect, names);
  ASSERT_TRUE(setup.plan.propagate_stores);
  ExpectNamedSetMatches("P-MVT", names);
}

}  // namespace
