// Differential oracle for replica-read elision (label `elide`).
//
// core::ProtectedDataPlane skips the replica reads, the compare and
// the vote of a load whose block provably reads the same bytes from
// every copy (BeginRun). Each case here drives one plane twice from
// the same store image under the same fault set: first unarmed, which
// is the full path on every load, then armed. Elision is exact only if
// both runs leave the same stored bytes, observe the same values, end
// the same way (a completed run, or the same exception at the same
// address) and count the same detections, corrections and ECC events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "common/rng.h"
#include "core/protection.h"
#include "core/replication.h"
#include "fault/fault_shapes.h"
#include "sim/request.h"

namespace dcrm {
namespace {

// Everything one run leaves behind that elision must not change.
struct RunRecord {
  std::vector<std::byte> store;
  std::vector<std::uint8_t> observed;
  std::string end;  // how the run ended, with the faulting address
  std::uint64_t detections = 0;
  std::uint64_t corrections = 0;
  mem::EccCounters ecc;
};

using Body = std::function<std::vector<std::uint8_t>()>;

// Restores `image`, arms the plane when `arm` is set, and runs `body`.
RunRecord Drive(mem::DeviceMemory& dev, core::ProtectedDataPlane& plane,
                const std::vector<std::byte>& image, bool arm,
                const Body& body) {
  std::memcpy(dev.space().Data(), image.data(), image.size());
  dev.ResetEccCounters();
  if (arm) plane.BeginRun();
  const std::uint64_t detections = plane.detections();
  const std::uint64_t corrections = plane.corrections();
  RunRecord r;
  try {
    r.observed = body();
    r.end = "completed";
  } catch (const core::DetectionTerminated& e) {
    r.end = "detected pc=" + std::to_string(e.pc()) +
            " addr=" + std::to_string(e.addr());
  } catch (const mem::DueError& e) {
    r.end = "due addr=" + std::to_string(e.addr());
  } catch (const std::exception& e) {
    r.end = std::string("exception: ") + e.what();
  }
  r.store.assign(dev.space().Data(),
                 dev.space().Data() + dev.space().StoreSize());
  r.detections = plane.detections() - detections;
  r.corrections = plane.corrections() - corrections;
  r.ecc = dev.ecc_counters();
  return r;
}

// Runs `body` unarmed, then armed, on a fresh plane over `plan`, and
// asserts the two runs are indistinguishable. Returns the full-path
// record so callers can check the case exercised what it meant to.
RunRecord ExpectElisionExact(mem::DeviceMemory& dev,
                             const sim::ProtectionPlan& plan,
                             const std::vector<std::byte>& image,
                             const std::function<Body(
                                 core::ProtectedDataPlane&)>& make_body) {
  core::ProtectedDataPlane plane(dev, plan);
  const Body body = make_body(plane);
  const RunRecord full = Drive(dev, plane, image, /*arm=*/false, body);
  const RunRecord elided = Drive(dev, plane, image, /*arm=*/true, body);
  EXPECT_EQ(full.end, elided.end);
  EXPECT_TRUE(full.store == elided.store) << "stored bytes differ";
  EXPECT_TRUE(full.observed == elided.observed) << "observed values differ";
  EXPECT_EQ(full.detections, elided.detections);
  EXPECT_EQ(full.corrections, elided.corrections);
  EXPECT_EQ(full.ecc.corrected, elided.ecc.corrected);
  EXPECT_EQ(full.ecc.miscorrected, elided.ecc.miscorrected);
  EXPECT_EQ(full.ecc.detected_due, elided.ecc.detected_due);
  EXPECT_EQ(full.ecc.escaped, elided.ecc.escaped);
  return full;
}

// ---------------------------------------------------------------------------
// Whole applications.

// Fault sets: the campaign shapes on blocks drawn from the
// miss-weighted table, plus word faults moved into one copy or every
// copy of a covered block (what the replica-side marking must catch).
enum class FaultSet { kWord1x2, kWord5x4, kColumn, kDramRow, kOneCopy,
                      kEveryCopy };
constexpr FaultSet kFaultSets[] = {FaultSet::kWord1x2, FaultSet::kWord5x4,
                                   FaultSet::kColumn,  FaultSet::kDramRow,
                                   FaultSet::kOneCopy, FaultSet::kEveryCopy};

const char* FaultSetName(FaultSet f) {
  switch (f) {
    case FaultSet::kWord1x2:
      return "word1x2";
    case FaultSet::kWord5x4:
      return "word5x4";
    case FaultSet::kColumn:
      return "column";
    case FaultSet::kDramRow:
      return "dram-row";
    case FaultSet::kOneCopy:
      return "one-copy";
    case FaultSet::kEveryCopy:
      return "every-copy";
  }
  return "?";
}

// Distinct blocks drawn by L2/DRAM exposure, as the campaign's miss
// target draws them.
std::vector<std::uint64_t> DrawBlocks(const analysis::WeightedUniverse& u,
                                      unsigned count, Rng& rng) {
  std::vector<std::uint64_t> out;
  count = static_cast<unsigned>(std::min<std::size_t>(count, u.blocks.size()));
  while (out.size() < count) {
    const std::uint64_t r = rng.Below(u.weight_prefix.back());
    const auto it =
        std::upper_bound(u.weight_prefix.begin(), u.weight_prefix.end(), r);
    const std::uint64_t b =
        u.blocks[static_cast<std::size_t>(it - u.weight_prefix.begin())];
    if (std::find(out.begin(), out.end(), b) == out.end()) out.push_back(b);
  }
  return out;
}

// The application bytes of `block`: its owner's part, as trials fault.
std::pair<Addr, Addr> BlockBytes(const mem::AddressSpace& space,
                                 std::uint64_t block) {
  const Addr base = block * kBlockSize;
  Addr hi = base + kBlockSize;
  if (const auto owner = space.OwnerOf(base)) {
    hi = std::min<Addr>(hi, space.Object(*owner).end());
  }
  return {base, hi};
}

std::vector<mem::StuckAtFault> MakeFaults(FaultSet set,
                                          const analysis::WeightedUniverse& u,
                                          const mem::AddressSpace& space,
                                          const sim::ProtectionPlan& plan,
                                          Rng& rng) {
  std::vector<mem::StuckAtFault> out;
  const auto append = [&](const std::vector<mem::StuckAtFault>& fs) {
    out.insert(out.end(), fs.begin(), fs.end());
  };
  switch (set) {
    case FaultSet::kWord1x2:
    case FaultSet::kWord5x4: {
      const bool five = set == FaultSet::kWord5x4;
      for (std::uint64_t b : DrawBlocks(u, five ? 5 : 1, rng)) {
        const auto [lo, hi] = BlockBytes(space, b);
        append(mem::MakeWordFaultsInRange(lo, hi, five ? 4 : 2, rng));
      }
      break;
    }
    case FaultSet::kColumn:
      for (std::uint64_t b : DrawBlocks(u, 1, rng)) {
        const auto [lo, hi] = BlockBytes(space, b);
        append(fault::MakeColumnFaults(lo, hi, rng));
      }
      break;
    case FaultSet::kDramRow: {
      const sim::GpuConfig gc;
      const sim::AddrMap map{gc.num_partitions, gc.dram_banks,
                             gc.BlocksPerRow()};
      for (std::uint64_t b : DrawBlocks(u, 1, rng)) {
        append(fault::MakeDramRowFaults(b, map, space.StoreSize(), rng));
      }
      break;
    }
    case FaultSet::kOneCopy:
    case FaultSet::kEveryCopy: {
      if (plan.ranges.empty()) break;
      const sim::ProtectedRange& r =
          plan.ranges[rng.Below(plan.ranges.size())];
      const Addr lo = r.base + rng.Below(r.size) / kBlockSize * kBlockSize;
      const Addr hi = std::min<Addr>(lo + kBlockSize, r.base + r.size);
      const unsigned copies =
          set == FaultSet::kOneCopy ? 1 : plan.CopiesFor(r);
      for (const mem::StuckAtFault& f :
           mem::MakeWordFaultsInRange(lo, hi, 2, rng)) {
        for (unsigned c = 0; c < copies; ++c) {
          mem::StuckAtFault moved = f;
          moved.byte_addr = r.ReplicaAddr(c, f.byte_addr);
          out.push_back(moved);
        }
      }
      break;
    }
  }
  return out;
}

// Profiles are deterministic and read-only here: one per app.
const apps::ProfileResult& ProfileOf(const std::string& name) {
  static std::map<std::string, apps::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    it = cache.emplace(name, apps::ProfileApp(*app, sim::GpuConfig{})).first;
  }
  return it->second;
}

// The observed outputs as the campaign reads them: through the plane
// when stores propagate (the writable extension), raw otherwise.
std::vector<std::uint8_t> ObservedOutputs(apps::App& app,
                                          const mem::DeviceMemory& dev,
                                          core::ProtectedDataPlane& plane) {
  std::vector<float> out;
  if (!plane.plan().propagate_stores) {
    out = apps::ReadOutputs(app, dev);
  } else {
    for (const std::string& name : app.OutputObjects()) {
      const auto& obj = dev.space().Object(*dev.space().FindByName(name));
      for (Addr a = obj.base; a + sizeof(float) <= obj.end();
           a += sizeof(float)) {
        float v = 0;
        plane.Load(/*pc=*/0, a, &v, sizeof(float));
        out.push_back(v);
      }
    }
  }
  std::vector<std::uint8_t> bytes(out.size() * sizeof(float));
  std::memcpy(bytes.data(), out.data(), bytes.size());
  return bytes;
}

struct AppCase {
  std::string app;
  sim::Scheme scheme;
  std::vector<std::string> objects;  // empty: the hot-object cover
  bool unpropagated = false;         // force the read-only store path
};

// Every fault set x ECC mode x seed of one app and cover. Returns the
// number of full-path runs that ended in a detection.
unsigned RunAppCase(const AppCase& c) {
  const apps::ProfileResult& profile = ProfileOf(c.app);
  auto app = apps::MakeApp(c.app, apps::AppScale::kTiny);
  apps::ProtectionSetup setup = apps::BuildProtection(
      *app, apps::ResolveCover(profile, c.scheme, std::nullopt, c.objects));
  if (c.unpropagated) setup.plan.propagate_stores = false;
  mem::DeviceMemory& dev = *setup.dev;
  const std::vector<std::byte> image(
      dev.space().Data(), dev.space().Data() + dev.space().StoreSize());
  const auto universe = analysis::BuildExposureUniverse(profile.profiler);
  unsigned detected = 0;
  for (const std::uint64_t seed : {1u, 7919u, 3u}) {
    for (const FaultSet set : kFaultSets) {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(set));
      const auto faults = MakeFaults(set, universe, dev.space(), setup.plan,
                                     rng);
      for (const mem::EccMode ecc :
           {mem::EccMode::kNone, mem::EccMode::kSecded}) {
        SCOPED_TRACE(c.app + " " + sim::SchemeName(c.scheme) + " seed " +
                     std::to_string(seed) + " " + FaultSetName(set) +
                     (ecc == mem::EccMode::kSecded ? " secded" : " no-ecc"));
        dev.faults().Clear();
        for (const auto& f : faults) dev.faults().Add(f);
        dev.set_ecc_mode(ecc);
        const RunRecord full = ExpectElisionExact(
            dev, setup.plan, image, [&](core::ProtectedDataPlane& plane) {
              return Body([&] {
                apps::RunKernels(*app, plane, nullptr);
                return ObservedOutputs(*app, dev, plane);
              });
            });
        if (full.detections > 0) ++detected;
      }
    }
  }
  dev.faults().Clear();
  return detected;
}

// Parameters are (app, scheme spelling): plain strings print as
// themselves, so the test names stay stable from build to build.
class ElideApps : public ::testing::TestWithParam<
                      std::tuple<std::string, std::string>> {};

TEST_P(ElideApps, ArmedRunMatchesFullPath) {
  const auto& [name, scheme] = GetParam();
  RunAppCase({name, *ValueOf(sim::kSchemeNames, scheme), {}, false});
}

std::string AppCaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
        info) {
  std::string s = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ElideApps,
    ::testing::Combine(::testing::ValuesIn(apps::AllAppNames()),
                       ::testing::Values("detect", "correct")),
    AppCaseName);

// Covered objects the kernels store to. As built, the stores propagate
// to every copy; with propagation off (the paper's read-only scheme
// forced onto writable data, as --allow-unsound runs it) every such
// store leaves the copies behind, and the full path detects it.
TEST(ElideNamedCovers, UnpropagatedStoresMatchFullPath) {
  const std::vector<std::string> aqr = {"A", "Q", "R"};
  EXPECT_GT(RunAppCase({"P-GRAMSCHM", sim::Scheme::kDetectOnly, aqr, true}),
            0u);
  RunAppCase({"P-GRAMSCHM", sim::Scheme::kDetectCorrect, aqr, true});
}

TEST(ElideNamedCovers, PropagatedStoresMatchFullPath) {
  const std::vector<std::string> aqr = {"A", "Q", "R"};
  const std::vector<std::string> mvt = {"y1", "y2", "x1", "x2"};
  for (const sim::Scheme s :
       {sim::Scheme::kDetectOnly, sim::Scheme::kDetectCorrect}) {
    RunAppCase({"P-GRAMSCHM", s, aqr, false});
    RunAppCase({"P-MVT", s, mvt, false});
  }
}

// ---------------------------------------------------------------------------
// Hand-built planes: the edges no application load reaches.

// A device with one protected 256-byte object `w` (two blocks) of
// distinct words, replicated `copies` times.
struct Synthetic {
  mem::DeviceMemory dev;
  sim::ProtectionPlan plan;
  std::vector<std::byte> image;

  Synthetic(unsigned copies, bool propagate) {
    const auto id = dev.space().Allocate("w", 2 * kBlockSize, true);
    for (Addr a = 0; a < 2 * kBlockSize; a += 4) {
      dev.Write<std::uint32_t>(a, static_cast<std::uint32_t>(a * 2654435761u));
    }
    dev.space().Allocate("out", kBlockSize, false);
    const auto infos = core::ReplicateObjects(
        dev, std::vector<mem::ObjectId>{id}, copies);
    plan = core::MakeProtectionPlan(
        dev.space(), infos,
        copies == 1 ? sim::Scheme::kDetectOnly : sim::Scheme::kDetectCorrect,
        /*lazy_compare=*/true, propagate);
    image.assign(dev.space().Data(),
                 dev.space().Data() + dev.space().StoreSize());
  }
  Addr Replica(unsigned c, Addr a) const {
    return plan.ranges[0].ReplicaAddr(c, a);
  }
  // A fault that inverts bit `bit` of the stored byte at `a`.
  void Flip(Addr a, std::uint8_t bit) {
    const auto stored = static_cast<std::uint8_t>(image[a]);
    dev.faults().Add({.byte_addr = a,
                      .bit = bit,
                      .stuck_value = ((stored >> bit) & 1) == 0});
  }
};

// Loads every aligned `width`-byte word of `w`, then the unaligned
// 16-byte loads that cross its block boundary.
Body LoadAll(core::ProtectedDataPlane& plane, std::uint32_t width) {
  return [&plane, width] {
    std::vector<std::uint8_t> seen;
    const auto load = [&](Addr a, std::uint32_t n) {
      std::uint8_t buf[16];
      plane.Load(/*pc=*/1, a, buf, n);
      seen.insert(seen.end(), buf, buf + n);
    };
    for (Addr a = 0; a < 2 * kBlockSize; a += width) load(a, width);
    for (Addr a = kBlockSize - 15; a < kBlockSize; ++a) load(a, 16);
    return seen;
  };
}

TEST(ElideSynthetic, FaultOnlyInOneCopy) {
  for (const unsigned copies : {1u, 2u}) {
    for (const Addr at : {Addr{5}, Addr{kBlockSize + 9}}) {
      Synthetic s(copies, false);
      s.Flip(s.Replica(0, at), 2);
      for (const std::uint32_t width : {4u, 16u}) {
        const RunRecord full = ExpectElisionExact(
            s.dev, s.plan, s.image,
            [&](core::ProtectedDataPlane& p) { return LoadAll(p, width); });
        EXPECT_EQ(full.detections, copies == 1 ? 1u : 0u);
      }
    }
  }
}

TEST(ElideSynthetic, SameFaultInEveryCopyWinsTheVote) {
  Synthetic s(2, false);
  for (unsigned c = 0; c < 2; ++c) s.Flip(s.Replica(c, 130), 7);
  const RunRecord full = ExpectElisionExact(
      s.dev, s.plan, s.image,
      [&](core::ProtectedDataPlane& p) { return LoadAll(p, 4); });
  EXPECT_GT(full.corrections, 0u);
}

TEST(ElideSynthetic, FaultOnlyInTheSecondBlockOfAStraddlingLoad) {
  for (const bool in_replica : {false, true}) {
    Synthetic s(1, false);
    const Addr at = kBlockSize + 2;
    s.Flip(in_replica ? s.Replica(0, at) : at, 0);
    const RunRecord full = ExpectElisionExact(
        s.dev, s.plan, s.image, [&](core::ProtectedDataPlane& p) {
          return Body([&p] {
            std::uint8_t buf[16];
            p.Load(/*pc=*/1, kBlockSize - 8, buf, 16);
            return std::vector<std::uint8_t>(buf, buf + 16);
          });
        });
    EXPECT_EQ(full.detections, 1u);
  }
}

// Stores, then loads everything back: an unpropagated store into the
// covered object, a propagated one, a store that straddles the block
// boundary, and a corrupted-index store into replica space.
TEST(ElideSynthetic, StoresThatReachOnlySomeCopies) {
  const std::uint8_t value[16] = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4,
                                  5,    6,    7,    8,    9, 10, 11, 12};
  struct StoreCase {
    const char* what;
    bool propagate;
    bool replica;  // store to the copy instead of the primary
    Addr at;
    std::uint32_t size;
  };
  const StoreCase cases[] = {
      {"unpropagated", false, false, 8, 4},
      {"propagated", true, false, 8, 4},
      {"unpropagated straddle", false, false, kBlockSize - 4, 8},
      {"propagated straddle", true, false, kBlockSize - 4, 8},
      {"into replica space", false, true, kBlockSize + 12, 4},
      {"into replica space, straddle", true, true, kBlockSize - 2, 4},
  };
  for (const StoreCase& sc : cases) {
    for (const unsigned copies : {1u, 2u}) {
      SCOPED_TRACE(std::string(sc.what) + " copies " +
                   std::to_string(copies));
      Synthetic s(copies, sc.propagate);
      const Addr at = sc.replica ? s.Replica(copies - 1, sc.at) : sc.at;
      ExpectElisionExact(s.dev, s.plan, s.image,
                         [&](core::ProtectedDataPlane& p) {
                           const Body loads = LoadAll(p, 4);
                           return Body([&p, loads, at, &sc, &value] {
                             p.Store(/*pc=*/2, at, value, sc.size);
                             return loads();
                           });
                         });
    }
  }
}

// A propagated store that runs past its range's end writes the bytes
// beyond it into whatever follows the replica: here the copy of `b`,
// whose primary sits elsewhere.
TEST(ElideSynthetic, PropagatedStorePastTheRangeEnd) {
  mem::DeviceMemory dev;
  const auto a = dev.space().Allocate("a", kBlockSize, false);
  dev.space().Allocate("gap", kBlockSize, false);
  const auto b = dev.space().Allocate("b", kBlockSize, true);
  const auto infos = core::ReplicateObjects(
      dev, std::vector<mem::ObjectId>{a, b}, 1,
      core::ReplicaPlacement::kDefault, 6, /*allow_writable=*/true);
  const sim::ProtectionPlan plan =
      core::MakeProtectionPlan(dev.space(), infos, sim::Scheme::kDetectOnly,
                               /*lazy_compare=*/true, /*propagate=*/true);
  const std::vector<std::byte> image(
      dev.space().Data(), dev.space().Data() + dev.space().StoreSize());
  const Addr b_base = dev.space().Object(b).base;
  const std::uint8_t value[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const RunRecord full = ExpectElisionExact(
      dev, plan, image, [&](core::ProtectedDataPlane& p) {
        return Body([&p, b_base, &value] {
          p.Store(/*pc=*/2, kBlockSize - 4, value, 8);
          std::uint8_t buf[4];
          p.Load(/*pc=*/1, b_base, buf, 4);
          return std::vector<std::uint8_t>(buf, buf + 4);
        });
      });
  EXPECT_EQ(full.detections, 1u);
}

// A range whose head and tail share blocks with unprotected bytes of
// its object: an unpropagated store outside the range changes bytes a
// load from inside it compares, without crossing a block boundary.
TEST(ElideSynthetic, RangeNotBlockAligned) {
  Synthetic s(1, false);
  sim::ProtectionPlan plan = s.plan;
  sim::ProtectedRange& r = plan.ranges[0];
  r.base = 16;
  r.size = 2 * kBlockSize - 40;  // ends at 232
  r.replica_base[0] += 16;
  const std::uint8_t value[4] = {1, 2, 3, 4};
  struct Access {
    Addr store;
    Addr load;
    std::uint32_t load_size;
  };
  for (const Access& a : {Access{14, 16, 4}, Access{232, 228, 8}}) {
    const RunRecord full = ExpectElisionExact(
        s.dev, plan, s.image, [&](core::ProtectedDataPlane& p) {
          return Body([&p, a, &value] {
            p.Store(/*pc=*/2, a.store, value, 4);
            std::uint8_t buf[8];
            p.Load(/*pc=*/1, a.load, buf, a.load_size);
            return std::vector<std::uint8_t>(buf, buf + a.load_size);
          });
        });
    EXPECT_EQ(full.detections, 1u);
  }
}

}  // namespace
}  // namespace dcrm
