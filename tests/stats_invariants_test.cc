// Cross-cutting conservation invariants of the timing simulator,
// checked over every application at tiny scale and over the three
// protection configurations.
#include <gtest/gtest.h>

#include <ostream>

#include "apps/driver.h"
#include "apps/registry.h"

namespace dcrm {
namespace {

struct Case {
  std::string app;
  sim::Scheme scheme;
  unsigned cover;
};

// Names the case in `ctest -N` instead of dumping its bytes, which
// would embed pointer values and change from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.app << '/' << sim::SchemeName(c.scheme);
}

class StatsInvariants : public ::testing::TestWithParam<Case> {};

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  for (const auto& name : apps::AllAppNames()) {
    cases.push_back({name, sim::Scheme::kNone, 0});
  }
  // Protection variants for a representative subset.
  for (const char* name : {"P-BICG", "A-Laplacian", "C-NN"}) {
    cases.push_back({name, sim::Scheme::kDetectOnly, 1});
    cases.push_back({name, sim::Scheme::kDetectCorrect, 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, StatsInvariants,
                         ::testing::ValuesIn(MakeCases()),
                         [](const auto& info) {
                           std::string n = info.param.app + "_" +
                                           sim::SchemeName(info.param.scheme);
                           for (auto& c : n) {
                             if (c == '-' || c == '+' || c == ' ') c = '_';
                           }
                           return n;
                         });

TEST_P(StatsInvariants, ConservationLawsHold) {
  const auto& param = GetParam();
  auto app = apps::MakeApp(param.app, apps::AppScale::kTiny);
  const sim::GpuConfig cfg;
  const auto profile = apps::ProfileApp(*app, cfg);
  const auto setup = apps::MakeProtectionSetup(*app, profile, param.scheme,
                                               param.cover);
  const auto s = apps::RunTiming(*app, profile, cfg, setup.plan);

  // Every load access is a hit, a pending hit, or a miss.
  EXPECT_EQ(s.l1_accesses, s.l1_hits + s.l1_pending_hits + s.l1_misses);
  // L2 sees exactly the L1 misses + replica traffic + store
  // transactions (write-through forwards every store). Store
  // transactions are the primary transactions that were not loads.
  const std::uint64_t store_txns = s.transactions - s.l1_accesses;
  EXPECT_EQ(s.l2_accesses,
            s.l1_misses + s.replica_transactions + store_txns);
  EXPECT_EQ(s.l2_accesses, s.l2_hits + s.l2_misses);
  // DRAM reads cannot exceed L2 read misses.
  EXPECT_LE(s.dram_reads, s.l2_misses);
  // All issued transactions were eventually consumed as L1 accesses
  // or stores.
  EXPECT_GT(s.transactions, 0u);
  EXPECT_GT(s.cycles, 0u);
  // Replica traffic only exists under protection.
  if (param.scheme == sim::Scheme::kNone) {
    EXPECT_EQ(s.replica_transactions, 0u);
    EXPECT_EQ(s.comparisons, 0u);
  } else {
    EXPECT_GT(s.replica_transactions, 0u);
    if (param.scheme == sim::Scheme::kDetectOnly) {
      EXPECT_EQ(s.comparisons, s.replica_transactions);
    } else {
      EXPECT_EQ(s.comparisons, 0u);  // correction blocks instead
    }
  }
  // The Fig. 8 block-miss profile was collected during profiling and
  // sums to the run's miss count.
  std::uint64_t profile_misses = 0;
  for (const auto& [b, n] : profile.timing_baseline.block_misses) {
    profile_misses += n;
  }
  EXPECT_EQ(profile_misses, profile.timing_baseline.l1_misses);
}

}  // namespace
}  // namespace dcrm
