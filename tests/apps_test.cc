#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "apps/bicg.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "exec/launcher.h"

namespace dcrm::apps {
namespace {

sim::GpuConfig Cfg() { return sim::GpuConfig{}; }

TEST(Bicg, MatchesCpuReference) {
  BicgApp app(48, 40);
  mem::DeviceMemory dev;
  app.Setup(dev);
  exec::DirectDataPlane plane(dev);
  RunKernels(app, plane, nullptr);

  // CPU reference from the same (golden) inputs.
  const auto& sp = dev.space();
  const auto a = sp.Object(*sp.FindByName("A"));
  const auto r = sp.Object(*sp.FindByName("r"));
  const auto p = sp.Object(*sp.FindByName("p"));
  const auto s = sp.Object(*sp.FindByName("s"));
  const auto q = sp.Object(*sp.FindByName("q"));
  auto ldf = [&](Addr base, std::uint64_t i) {
    return dev.ReadGoldenTyped<float>(base + i * 4);
  };
  for (std::uint32_t j = 0; j < 40; ++j) {
    float acc = 0;
    for (std::uint32_t i = 0; i < 48; ++i) {
      acc += ldf(a.base, std::uint64_t{i} * 40 + j) * ldf(r.base, i);
    }
    EXPECT_FLOAT_EQ(ldf(s.base, j), acc) << "s[" << j << "]";
  }
  for (std::uint32_t i = 0; i < 48; ++i) {
    float acc = 0;
    for (std::uint32_t j = 0; j < 40; ++j) {
      acc += ldf(a.base, std::uint64_t{i} * 40 + j) * ldf(p.base, j);
    }
    EXPECT_FLOAT_EQ(ldf(q.base, i), acc) << "q[" << i << "]";
  }
}

TEST(Registry, AllAppsConstructAndRun) {
  for (const auto& name : AllAppNames()) {
    auto app = MakeApp(name, AppScale::kTiny);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->Name(), name);
    mem::DeviceMemory dev;
    app->Setup(dev);
    exec::DirectDataPlane plane(dev);
    EXPECT_NO_THROW(RunKernels(*app, plane, nullptr)) << name;
    const auto out = ReadOutputs(*app, dev);
    EXPECT_FALSE(out.empty()) << name;
    // Fault-free output must self-compare clean.
    EXPECT_EQ(app->OutputError(out, out), 0.0) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(MakeApp("no-such-app", AppScale::kTiny), std::invalid_argument);
}

TEST(Registry, DeterministicAcrossInstances) {
  auto a1 = MakeApp("P-GESUMMV", AppScale::kTiny);
  auto a2 = MakeApp("P-GESUMMV", AppScale::kTiny);
  mem::DeviceMemory d1, d2;
  a1->Setup(d1);
  a2->Setup(d2);
  exec::DirectDataPlane p1(d1), p2(d2);
  RunKernels(*a1, p1, nullptr);
  RunKernels(*a2, p2, nullptr);
  EXPECT_EQ(ReadOutputs(*a1, d1), ReadOutputs(*a2, d2));
}

struct HotCase {
  const char* app;
  std::vector<std::string> expected_hot;
};

// Names the case in `ctest -N` instead of dumping its bytes, which
// would embed pointer values and change from build to build.
void PrintTo(const HotCase& c, std::ostream* os) { *os << c.app; }

class HotClassificationTest : public ::testing::TestWithParam<HotCase> {};

// The paper's Table III bold sets (per the source-code analysis in
// Section IV-A): these must fall out of our profiler + classifier.
INSTANTIATE_TEST_SUITE_P(
    TableIII, HotClassificationTest,
    ::testing::Values(
        HotCase{"P-BICG", {"p", "r"}},
        HotCase{"P-GESUMMV", {"x"}},
        HotCase{"P-MVT", {"y1", "y2"}},
        HotCase{"A-Laplacian", {"Filter", "Filter_Width", "Filter_Height"}},
        HotCase{"A-Meanfilter", {"Filter_Width", "Filter_Height"}},
        HotCase{"A-Sobel", {"Filter", "Filter_Width", "Filter_Height"}},
        HotCase{"A-SRAD", {"i_N", "i_S", "i_E", "i_W"}},
        HotCase{"P-ATAX", {"x"}},
        HotCase{"C-ConvRows", {"Kernel"}}),
    [](const auto& info) {
      std::string n = info.param.app;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(HotClassificationTest, HotSetMatchesPaper) {
  const auto& param = GetParam();
  auto app = MakeApp(param.app, AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  EXPECT_TRUE(profile.hot.has_hot_pattern) << param.app;
  std::vector<std::string> hot_names;
  for (const auto& op : profile.hot.hot_objects) hot_names.push_back(op.name);
  std::sort(hot_names.begin(), hot_names.end());
  auto expected = param.expected_hot;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(hot_names, expected) << param.app;
  // Hot footprint is small, as in Table III.
  EXPECT_LT(profile.hot.hot_footprint, 0.25) << param.app;
}

TEST(HotClassification, NnHotSetIsConvWeights) {
  auto app = MakeApp("C-NN", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  EXPECT_TRUE(profile.hot.has_hot_pattern);
  ASSERT_GE(profile.hot.hot_objects.size(), 2u);
  EXPECT_EQ(profile.hot.hot_objects[0].name, "Layer1_Weights");
  EXPECT_EQ(profile.hot.hot_objects[1].name, "Layer2_Weights");
  // Images must never classify as hot.
  for (const auto& op : profile.hot.hot_objects) {
    EXPECT_NE(op.name, "Images");
  }
}

TEST(HotClassification, CounterexamplesHaveNoHotPattern) {
  for (const char* name : {"C-BlackScholes", "P-GRAMSCHM"}) {
    auto app = MakeApp(name, AppScale::kTiny);
    const auto profile = ProfileApp(*app, Cfg());
    EXPECT_FALSE(profile.hot.has_hot_pattern) << name;
    EXPECT_TRUE(profile.hot.hot_objects.empty()) << name;
  }
}

TEST(HotClassification, HistogramIsHotButUncoverable) {
  // C-Histogram's partial histograms dominate the access profile
  // (knee pattern) but are read-write: the paper's read-only schemes
  // have nothing to protect — the gap the writable extension fills.
  auto app = MakeApp("C-Histogram", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  EXPECT_TRUE(profile.hot.has_hot_pattern);
  EXPECT_TRUE(profile.hot.hot_objects.empty());
}

TEST(Profile, BicgCoverageOrderMatchesTableIII) {
  auto app = MakeApp("P-BICG", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  ASSERT_EQ(profile.hot.coverage_order.size(), 3u);
  // p, r, A per Table III (p/r may tie; A strictly last).
  EXPECT_EQ(profile.hot.coverage_order[2].name, "A");
}

TEST(Profile, TracesCoverAllKernels) {
  auto app = MakeApp("P-MVT", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  ASSERT_NE(profile.trace_store, nullptr);
  EXPECT_EQ(profile.trace_store->NumKernels(), 2u);  // two kernels
  for (std::uint32_t k = 0; k < profile.trace_store->NumKernels(); ++k) {
    EXPECT_GT(profile.trace_store->Kernel(k).TotalMemInsts(), 0u);
  }
}

TEST(Profile, GoldenOutputsRecorded) {
  auto app = MakeApp("A-Sobel", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  EXPECT_EQ(profile.golden.size(), 64u * 64);
}

}  // namespace
}  // namespace dcrm::apps
