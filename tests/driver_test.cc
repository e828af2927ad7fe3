// Tests for the profiling driver and protection-setup plumbing that
// the benches and campaigns build on.
#include <gtest/gtest.h>

#include "apps/driver.h"
#include "apps/registry.h"
#include "trace/trace_io.h"

namespace dcrm::apps {
namespace {

sim::GpuConfig Cfg() { return sim::GpuConfig{}; }

TEST(Driver, ProfileIsDeterministic) {
  auto a1 = MakeApp("P-BICG", AppScale::kTiny);
  auto a2 = MakeApp("P-BICG", AppScale::kTiny);
  const auto p1 = ProfileApp(*a1, Cfg());
  const auto p2 = ProfileApp(*a2, Cfg());
  EXPECT_EQ(p1.profiler.TotalReads(), p2.profiler.TotalReads());
  EXPECT_EQ(p1.golden, p2.golden);
  ASSERT_EQ(p1.hot.hot_objects.size(), p2.hot.hot_objects.size());
  for (std::size_t i = 0; i < p1.hot.hot_objects.size(); ++i) {
    EXPECT_EQ(p1.hot.hot_objects[i].name, p2.hot.hot_objects[i].name);
  }
}

TEST(Driver, MissProfileAttachedToBlocks) {
  auto app = MakeApp("P-GESUMMV", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  std::uint64_t total_misses = 0;
  for (const auto& [block, bp] : profile.profiler.blocks()) {
    total_misses += bp.l1_misses;
  }
  EXPECT_GT(total_misses, 0u);
  // Misses can't exceed thread-level reads+writes... they can't even
  // exceed the coalesced transaction count; bound loosely by accesses.
  EXPECT_LT(total_misses, profile.profiler.TotalAccesses());
}

TEST(Driver, ProtectionSetupBuildsRangesForCoveredObjects) {
  auto app = MakeApp("P-BICG", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  const auto setup = MakeProtectionSetup(*app, profile,
                                         sim::Scheme::kDetectOnly, 2);
  ASSERT_EQ(setup.plan.ranges.size(), 2u);
  EXPECT_EQ(setup.plan.scheme, sim::Scheme::kDetectOnly);
  // Ranges must be the first two coverage-order objects, with replicas
  // outside the primary range.
  for (unsigned i = 0; i < 2; ++i) {
    const auto& op = profile.hot.coverage_order[i];
    const auto& obj = setup.dev->space().Object(op.id);
    const auto& range = setup.plan.ranges[i];
    EXPECT_EQ(range.base, obj.base);
    EXPECT_EQ(range.size, obj.size_bytes);
    EXPECT_FALSE(range.Contains(range.replica_base[0]));
  }
}

TEST(Driver, ZeroCoverMeansNoPlan) {
  auto app = MakeApp("P-MVT", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  const auto setup = MakeProtectionSetup(*app, profile,
                                         sim::Scheme::kDetectCorrect, 0);
  EXPECT_EQ(setup.plan.scheme, sim::Scheme::kNone);
  EXPECT_TRUE(setup.plan.ranges.empty());
}

TEST(Driver, TimingUsesAppArithmeticIntensity) {
  // Same traces, different modeled ALU intensity -> different cycles.
  auto app = MakeApp("A-Meanfilter", AppScale::kTiny);
  const auto profile = ProfileApp(*app, Cfg());
  sim::GpuConfig lo = Cfg();
  sim::Gpu gpu_lo(lo, {});
  const auto cyc_lo = gpu_lo.Run(*profile.trace_store).cycles;
  sim::GpuConfig hi = Cfg();
  hi.alu_cycles_per_mem = 400;
  sim::Gpu gpu_hi(hi, {});
  const auto cyc_hi = gpu_hi.Run(*profile.trace_store).cycles;
  EXPECT_GT(cyc_hi, cyc_lo);
}

TEST(Driver, TimingScalesWithTraceSize) {
  auto small_app = MakeApp("A-Sobel", AppScale::kTiny);
  const auto sp = ProfileApp(*small_app, Cfg());
  auto big_app = MakeApp("A-Sobel", AppScale::kSmall);
  const auto bp = ProfileApp(*big_app, Cfg());
  const auto ss = RunTiming(*small_app, sp, Cfg(), {});
  const auto bs = RunTiming(*big_app, bp, Cfg(), {});
  EXPECT_GT(bs.cycles, ss.cycles);
  EXPECT_GT(bs.mem_insts, ss.mem_insts);
}

TEST(Driver, CoverageOrderIntensityIsMonotone) {
  for (const auto& name : AllAppNames()) {
    auto app = MakeApp(name, AppScale::kTiny);
    const auto profile = ProfileApp(*app, Cfg());
    const auto& order = profile.hot.coverage_order;
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(order[i - 1].reads_per_block, order[i].reads_per_block)
          << name << " index " << i;
    }
  }
}

TEST(Driver, HotObjectsAreReadOnlyAndSmall) {
  for (const auto& name : HotPatternAppNames()) {
    auto app = MakeApp(name, AppScale::kTiny);
    const auto profile = ProfileApp(*app, Cfg());
    for (const auto& op : profile.hot.hot_objects) {
      EXPECT_TRUE(op.read_only) << name << "/" << op.name;
    }
    EXPECT_LE(profile.hot.hot_footprint, 0.25) << name;
  }
}

void ExpectSameObjects(const std::vector<core::ObjectProfile>& a,
                       const std::vector<core::ObjectProfile>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << context;
    EXPECT_EQ(a[i].reads, b[i].reads) << context;
    EXPECT_EQ(a[i].txns, b[i].txns) << context;
    EXPECT_EQ(a[i].l1_misses, b[i].l1_misses) << context;
    EXPECT_EQ(a[i].kernels_reading, b[i].kernels_reading) << context;
  }
}

// A preloaded store (read back from its serialized bytes) records no
// trace: the profile built on it must equal the one that recorded it.
TEST(Driver, PreloadedStoreProfilesIdentically) {
  for (const auto& name : AllAppNames()) {
    auto app = MakeApp(name, AppScale::kTiny);
    const auto fresh = ProfileApp(*app, Cfg());
    const auto loaded = ProfileApp(
        *app, Cfg(), {},
        trace::LoadTraceFromString(trace::SaveTraceToString(
            *fresh.trace_store)));
    EXPECT_TRUE(*loaded.trace_store == *fresh.trace_store) << name;

    const auto& fb = fresh.profiler.blocks();
    const auto& lb = loaded.profiler.blocks();
    ASSERT_EQ(fb.size(), lb.size()) << name;
    for (const auto& [block, f] : fb) {
      const auto it = lb.find(block);
      ASSERT_NE(it, lb.end()) << name << " block " << block;
      const core::BlockProfile& l = it->second;
      EXPECT_EQ(f.reads, l.reads) << name << " block " << block;
      EXPECT_EQ(f.writes, l.writes) << name << " block " << block;
      EXPECT_EQ(f.txns, l.txns) << name << " block " << block;
      EXPECT_EQ(f.warp_share, l.warp_share) << name << " block " << block;
      EXPECT_EQ(f.l1_misses, l.l1_misses) << name << " block " << block;
    }

    const auto& fp = fresh.profiler.pc_stats();
    const auto& lp = loaded.profiler.pc_stats();
    ASSERT_EQ(fp.size(), lp.size()) << name;
    for (const auto& [pc, f] : fp) {
      const auto it = lp.find(pc);
      ASSERT_NE(it, lp.end()) << name << " pc " << pc;
      EXPECT_EQ(f.accesses, it->second.accesses) << name << " pc " << pc;
      EXPECT_EQ(f.per_object, it->second.per_object) << name << " pc " << pc;
    }

    EXPECT_EQ(fresh.hot.has_hot_pattern, loaded.hot.has_hot_pattern) << name;
    EXPECT_EQ(fresh.hot.max_median_ratio, loaded.hot.max_median_ratio)
        << name;
    EXPECT_EQ(fresh.hot.hot_footprint, loaded.hot.hot_footprint) << name;
    EXPECT_EQ(fresh.hot.hot_access_share, loaded.hot.hot_access_share)
        << name;
    ExpectSameObjects(fresh.hot.hot_objects, loaded.hot.hot_objects, name);
    ExpectSameObjects(fresh.hot.coverage_order, loaded.hot.coverage_order,
                      name);
    EXPECT_EQ(fresh.golden, loaded.golden) << name;
    EXPECT_EQ(fresh.timing_baseline.cycles, loaded.timing_baseline.cycles)
        << name;
  }
}

}  // namespace
}  // namespace dcrm::apps
