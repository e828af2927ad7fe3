// Differential oracle for replica-read elision and the inline fast
// load (label `elide`).
//
// core::ProtectedDataPlane skips the replica reads, the compare and
// the vote of a load whose block provably reads the same bytes from
// every copy (BeginRun), and while armed publishes that block state as
// its LoadView, so exec::ThreadCtx::Ld reads such a load straight from
// the store without calling Load. Each case here drives one plane
// three times from the same store image under the same fault set,
// with every load through ThreadCtx: unarmed, which is the full path
// on every load; armed behind a forwarding plane that publishes no
// view, so every load reaches the plane's Load; and armed with its
// view. Elision and the fast load are exact only if all three runs
// leave the same stored bytes, observe the same values, end the same
// way (a completed run, or the same exception at the same address) and
// count the same detections, corrections and ECC events. The
// exec::DirectDataPlane cases compare its view against the same plane
// behind the forwarding wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "common/rng.h"
#include "core/protection.h"
#include "core/recovery.h"
#include "core/replication.h"
#include "exec/kernel.h"
#include "fault/fault_shapes.h"
#include "sim/request.h"

namespace dcrm {
namespace {

// Passes every access on to `inner` and publishes no view, so
// ThreadCtx::Ld sends every load through the inner plane's Load.
class ForwardingPlane final : public exec::DataPlane {
 public:
  explicit ForwardingPlane(exec::DataPlane& inner) : inner_(inner) {}

  void Load(Pc pc, Addr addr, void* out, std::uint32_t size) override {
    inner_.Load(pc, addr, out, size);
  }
  void Store(Pc pc, Addr addr, const void* in, std::uint32_t size) override {
    inner_.Store(pc, addr, in, size);
  }

 private:
  exec::DataPlane& inner_;
};

template <std::size_t N>
struct Bytes {
  std::uint8_t b[N];
};

template <std::size_t N>
void LoadN(exec::ThreadCtx& ctx, Pc pc, Addr a, std::uint8_t* out) {
  const Bytes<N> v = ctx.Ld<Bytes<N>>(pc, a);
  std::memcpy(out, v.b, N);
}

const exec::LaunchConfig kOneThread{{1, 1, 1}, {1, 1, 1}};

// Loads `n` bytes the way a kernel thread does, through
// exec::ThreadCtx::Ld: from the plane's view when it publishes one and
// the load qualifies, through Load otherwise.
void ThreadLoad(exec::DataPlane& plane, Pc pc, Addr a, std::uint8_t* out,
                std::uint32_t n) {
  exec::ThreadCtx ctx(exec::ThreadCoord{}, kOneThread, plane, nullptr);
  switch (n) {
    case 1:
      return LoadN<1>(ctx, pc, a, out);
    case 2:
      return LoadN<2>(ctx, pc, a, out);
    case 4:
      return LoadN<4>(ctx, pc, a, out);
    case 8:
      return LoadN<8>(ctx, pc, a, out);
    case 16:
      return LoadN<16>(ctx, pc, a, out);
    default:
      throw std::invalid_argument("no load of that width");
  }
}

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

// Restores `image` and runs `body`, recording how it ended.
RunRecord RunFrom(mem::DeviceMemory& dev, const std::vector<std::byte>& image,
              const Body& body) {
  std::memcpy(dev.space().Data(), image.data(), image.size());
  dev.ResetEccCounters();
  RunRecord r;
  try {
    r.observed = body();
    r.end = "completed";
  } catch (const core::DetectionTerminated& e) {
    r.end = "detected pc=" + std::to_string(e.pc()) +
            " addr=" + std::to_string(e.addr());
  } catch (const mem::DueError& e) {
    r.end = "due addr=" + std::to_string(e.addr());
  } catch (const std::out_of_range& e) {
    r.end = std::string("out_of_range: ") + e.what();
  } catch (const std::exception& e) {
    r.end = std::string("exception: ") + e.what();
  }
  r.store.assign(dev.space().Data(),
                 dev.space().Data() + dev.space().StoreSize());
  r.ecc = dev.ecc_counters();
  return r;
}

// Arms `plane` when `arm` is set and runs `body`, which drives the
// plane itself or a wrapper around it.
RunRecord Drive(mem::DeviceMemory& dev, core::ProtectedDataPlane& plane,
                const std::vector<std::byte>& image, bool arm,
                const Body& body) {
  const std::uint64_t detections = plane.detections();
  const std::uint64_t corrections = plane.corrections();
  RunRecord r = RunFrom(dev, image, [&] {
    if (arm) plane.BeginRun();
    return body();
  });
  r.detections = plane.detections() - detections;
  r.corrections = plane.corrections() - corrections;
  return r;
}

void ExpectSameRun(const RunRecord& want, const RunRecord& got) {
  EXPECT_EQ(want.end, got.end);
  EXPECT_TRUE(want.store == got.store) << "stored bytes differ";
  EXPECT_TRUE(want.observed == got.observed) << "observed values differ";
  EXPECT_EQ(want.detections, got.detections);
  EXPECT_EQ(want.corrections, got.corrections);
  EXPECT_EQ(want.ecc.corrected, got.ecc.corrected);
  EXPECT_EQ(want.ecc.miscorrected, got.ecc.miscorrected);
  EXPECT_EQ(want.ecc.detected_due, got.ecc.detected_due);
  EXPECT_EQ(want.ecc.escaped, got.ecc.escaped);
}

// Runs `body` unarmed, armed without a view and armed with one on a
// fresh plane over `plan`, and asserts the three runs are
// indistinguishable. Returns the full-path record so callers can check
// the case exercised what it meant to.
RunRecord ExpectElisionExact(mem::DeviceMemory& dev,
                             const sim::ProtectionPlan& plan,
                             const std::vector<std::byte>& image,
                             const std::function<Body(exec::DataPlane&)>&
                                 make_body) {
  core::ProtectedDataPlane plane(dev, plan);
  ForwardingPlane forwarded(plane);
  const Body body = make_body(plane);
  const Body forwarded_body = make_body(forwarded);
  const RunRecord full = Drive(dev, plane, image, /*arm=*/false, body);
  {
    SCOPED_TRACE("armed, no view");
    ExpectSameRun(full,
                  Drive(dev, plane, image, /*arm=*/true, forwarded_body));
  }
  {
    SCOPED_TRACE("armed, with view");
    ExpectSameRun(full, Drive(dev, plane, image, /*arm=*/true, body));
  }
  return full;
}

// Runs `body` over an exec::DirectDataPlane, which publishes the fault
// map's bitmap as its view, and over the same plane behind the
// forwarding wrapper, and asserts the two runs are indistinguishable.
RunRecord ExpectDirectViewExact(mem::DeviceMemory& dev,
                                const std::vector<std::byte>& image,
                                const std::function<Body(exec::DataPlane&)>&
                                    make_body) {
  exec::DirectDataPlane direct(dev);
  ForwardingPlane forwarded(direct);
  EXPECT_GT(direct.view().blocks, 0u);
  const RunRecord full = RunFrom(dev, image, make_body(forwarded));
  ExpectSameRun(full, RunFrom(dev, image, make_body(direct)));
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
                                          const sim::ProtectionPlan& plan,
                                          exec::DataPlane& plane) {
  std::vector<float> out;
  if (!plan.propagate_stores) {
    out = apps::ReadOutputs(app, dev);
  } else {
    for (const std::string& name : app.OutputObjects()) {
      const auto& obj = dev.space().Object(*dev.space().FindByName(name));
      for (Addr a = obj.base; a + sizeof(float) <= obj.end();
           a += sizeof(float)) {
        float v = 0;
        ThreadLoad(plane, /*pc=*/0, a, reinterpret_cast<std::uint8_t*>(&v),
                   sizeof(float));
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
            dev, setup.plan, image, [&](exec::DataPlane& plane) {
              return Body([&] {
                apps::RunKernels(*app, plane, nullptr);
                return ObservedOutputs(*app, dev, setup.plan, plane);
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
Body LoadAll(exec::DataPlane& plane, std::uint32_t width) {
  return [&plane, width] {
    std::vector<std::uint8_t> seen;
    const auto load = [&](Addr a, std::uint32_t n) {
      std::uint8_t buf[16];
      ThreadLoad(plane, /*pc=*/1, a, buf, n);
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
            [&](exec::DataPlane& p) { return LoadAll(p, width); });
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
      [&](exec::DataPlane& p) { return LoadAll(p, 4); });
  EXPECT_GT(full.corrections, 0u);
}

TEST(ElideSynthetic, FaultOnlyInTheSecondBlockOfAStraddlingLoad) {
  for (const bool in_replica : {false, true}) {
    Synthetic s(1, false);
    const Addr at = kBlockSize + 2;
    s.Flip(in_replica ? s.Replica(0, at) : at, 0);
    const RunRecord full = ExpectElisionExact(
        s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
          return Body([&p] {
            std::uint8_t buf[16];
            ThreadLoad(p, /*pc=*/1, kBlockSize - 8, buf, 16);
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
                         [&](exec::DataPlane& p) {
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
      dev, plan, image, [&](exec::DataPlane& p) {
        return Body([&p, b_base, &value] {
          p.Store(/*pc=*/2, kBlockSize - 4, value, 8);
          std::uint8_t buf[4];
          ThreadLoad(p, /*pc=*/1, b_base, buf, 4);
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
        s.dev, plan, s.image, [&](exec::DataPlane& p) {
          return Body([&p, a, &value] {
            p.Store(/*pc=*/2, a.store, value, 4);
            std::uint8_t buf[8];
            ThreadLoad(p, /*pc=*/1, a.load, buf, a.load_size);
            return std::vector<std::uint8_t>(buf, buf + a.load_size);
          });
        });
    EXPECT_EQ(full.detections, 1u);
  }
}

// Loads of every width up to 16 bytes that reach across the block
// boundary of `w`, with the only fault in its second block (primary or
// copy): no such load may be read from the clean first block alone,
// so the first one detects.
TEST(ElideSynthetic, StraddlingLoadsOfEveryWidth) {
  for (const bool in_replica : {false, true}) {
    Synthetic s(1, false);
    const Addr at = kBlockSize;
    s.Flip(in_replica ? s.Replica(0, at) : at, 3);
    for (const std::uint32_t width : {2u, 4u, 8u, 16u}) {
      const RunRecord full = ExpectElisionExact(
          s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
            return Body([&p, width] {
              std::vector<std::uint8_t> seen;
              for (Addr a = kBlockSize - width + 1; a < kBlockSize; ++a) {
                std::uint8_t buf[16];
                ThreadLoad(p, /*pc=*/1, a, buf, width);
                seen.insert(seen.end(), buf, buf + width);
              }
              return seen;
            });
          });
      EXPECT_EQ(full.end, "detected pc=1 addr=" +
                              std::to_string(kBlockSize - width + 1));
    }
  }
}

// The last block of the store, with and without a fault in it, read to
// its very last byte; then loads that run past the end.
TEST(ElideSynthetic, LoadsAtTheEndOfTheStore) {
  for (const bool faulty : {false, true}) {
    Synthetic s(1, false);
    const Addr end = s.dev.space().StoreSize();
    if (faulty) s.Flip(end - 3, 5);
    for (const std::uint32_t width : {1u, 4u, 16u}) {
      const RunRecord full = ExpectElisionExact(
          s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
            return Body([&p, end, width] {
              std::vector<std::uint8_t> seen;
              for (Addr a = end - kBlockSize; a + width <= end; a += width) {
                std::uint8_t buf[16];
                ThreadLoad(p, /*pc=*/1, a, buf, width);
                seen.insert(seen.end(), buf, buf + width);
              }
              return seen;
            });
          });
      EXPECT_EQ(full.end, "completed");
    }
  }
}

// Loads past the end of the store, or that cross it, throw the same
// std::out_of_range whether or not the plane publishes a view.
TEST(ElideSynthetic, OutOfRangeLoadsThrowTheSameError) {
  Synthetic s(1, false);
  const Addr end = s.dev.space().StoreSize();
  for (const Addr at : {end - 2, end, end + 5 * kBlockSize, ~Addr{0} - 2}) {
    const RunRecord full = ExpectElisionExact(
        s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
          return Body([&p, at] {
            std::uint8_t buf[4];
            ThreadLoad(p, /*pc=*/1, at, buf, 4);
            return std::vector<std::uint8_t>(buf, buf + 4);
          });
        });
    EXPECT_EQ(full.end.rfind("out_of_range: ", 0), 0u) << full.end;
  }
}

// A load wider than 16 bytes never takes the fast path: from a
// protected block the full path refuses it.
TEST(ElideSynthetic, LoadsWiderThanSixteenBytes) {
  Synthetic s(1, false);
  const RunRecord full = ExpectElisionExact(
      s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
        return Body([&p] {
          exec::ThreadCtx ctx(exec::ThreadCoord{}, kOneThread, p, nullptr);
          const Bytes<32> v = ctx.Ld<Bytes<32>>(/*pc=*/1, 0);
          return std::vector<std::uint8_t>(v.b, v.b + 32);
        });
      });
  EXPECT_EQ(full.end, "exception: protected load wider than 16 bytes");
}

// An unpropagated store, then loads of the block it landed in within
// the same run: the store must send the block to the full path at once.
TEST(ElideSynthetic, UnpropagatedStoreThenLoadOfTheSameBlock) {
  const std::uint8_t value[4] = {0x5a, 0xa5, 0x0f, 0xf0};
  for (const unsigned copies : {1u, 2u}) {
    Synthetic s(copies, false);
    const RunRecord full = ExpectElisionExact(
        s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
          return Body([&p, &value] {
            std::vector<std::uint8_t> seen;
            std::uint8_t buf[4];
            ThreadLoad(p, /*pc=*/1, 8, buf, 4);
            seen.insert(seen.end(), buf, buf + 4);
            p.Store(/*pc=*/2, 8, value, 4);
            for (const Addr a : {Addr{12}, Addr{8}}) {
              ThreadLoad(p, /*pc=*/1, a, buf, 4);
              seen.insert(seen.end(), buf, buf + 4);
            }
            return seen;
          });
        });
    EXPECT_EQ(full.detections, copies == 1 ? 1u : 0u);
    EXPECT_EQ(full.corrections, copies == 1 ? 0u : 1u);
  }
}

// SECDED on with a fault present: a single stuck bit the code corrects
// and a double one it flags, in a protected block and in an
// unprotected one.
TEST(ElideSynthetic, SecdedWithAFaultPresent) {
  for (const unsigned bits : {1u, 2u}) {
    for (const bool in_protected : {true, false}) {
      SCOPED_TRACE(std::to_string(bits) + " bit(s), " +
                   (in_protected ? "protected" : "unprotected"));
      Synthetic s(1, false);
      s.dev.set_ecc_mode(mem::EccMode::kSecded);
      const Addr out = s.dev.space().Object(1).base;
      const Addr at = in_protected ? Addr{kBlockSize + 20} : out + 20;
      for (std::uint8_t b = 0; b < bits; ++b) s.Flip(at, b);
      const RunRecord full = ExpectElisionExact(
          s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
            const Body loads = LoadAll(p, 4);
            return Body([&p, loads, out] {
              std::vector<std::uint8_t> seen = loads();
              for (Addr a = out; a < out + kBlockSize; a += 8) {
                std::uint8_t buf[8];
                ThreadLoad(p, /*pc=*/1, a, buf, 8);
                seen.insert(seen.end(), buf, buf + 8);
              }
              return seen;
            });
          });
      EXPECT_EQ(full.ecc.corrected > 0, bits == 1);
      EXPECT_EQ(full.ecc.detected_due, bits == 1 ? 0u : 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// A view must never outlive what it describes.

// Armed, then the store grows (and reallocates) before the loads: the
// view still reads the live store, and the new blocks take Load.
TEST(ElideLifetime, AllocationAfterBeginRun) {
  Synthetic s(1, false);
  s.Flip(kBlockSize + 9, 1);
  const auto body = [&](exec::DataPlane& p, Addr grown) {
    std::vector<std::uint8_t> seen = LoadAll(p, 4)();
    for (Addr a = grown; a < grown + 2 * kBlockSize; a += 4) {
      std::uint8_t buf[4];
      ThreadLoad(p, /*pc=*/1, a, buf, 4);
      seen.insert(seen.end(), buf, buf + 4);
    }
    return seen;
  };
  // Full path: a plane never armed.
  Synthetic ref(1, false);
  ref.Flip(kBlockSize + 9, 1);
  core::ProtectedDataPlane full_plane(ref.dev, ref.plan);
  const Addr ref_grown = ref.dev.space().AllocateRaw(1 << 20);
  const RunRecord full =
      RunFrom(ref.dev, ref.image, [&] { return body(full_plane, ref_grown); });

  core::ProtectedDataPlane plane(s.dev, s.plan);
  const RunRecord armed = RunFrom(s.dev, s.image, [&] {
    plane.BeginRun();
    EXPECT_GT(plane.view().blocks, 0u);
    const Addr grown = s.dev.space().AllocateRaw(1 << 20);
    EXPECT_EQ(grown, ref_grown);
    return body(plane, grown);
  });
  EXPECT_EQ(full.end, "detected pc=1 addr=" + std::to_string(kBlockSize + 8));
  ExpectSameRun(full, armed);
}

// A direct plane's view, then a fault far past the bitmap it covers
// (which grows the bitmap) and a store that grows too.
TEST(ElideLifetime, FaultAddedPastTheDirectViewsBitmap) {
  Synthetic s(1, false);
  exec::DirectDataPlane direct(s.dev);
  ASSERT_GT(direct.view().blocks, 0u);
  const Addr grown = s.dev.space().AllocateRaw(1 << 20);
  const Addr far = grown + (1 << 20) - 3;
  s.dev.faults().Add({.byte_addr = far, .bit = 0, .stuck_value = true});
  s.dev.faults().Add({.byte_addr = 6, .bit = 2, .stuck_value = true});
  const auto body = [&](exec::DataPlane& p) {
    return Body([&p, far] {
      std::vector<std::uint8_t> seen;
      for (const Addr a : {Addr{4}, far - 1, Addr{kBlockSize}}) {
        std::uint8_t buf[4];
        ThreadLoad(p, /*pc=*/1, a, buf, 4);
        seen.insert(seen.end(), buf, buf + 4);
      }
      return seen;
    });
  };
  ForwardingPlane forwarded(direct);
  const std::vector<std::byte> image(
      s.dev.space().Data(), s.dev.space().Data() + s.dev.space().StoreSize());
  const RunRecord full = RunFrom(s.dev, image, body(forwarded));
  ExpectSameRun(full, RunFrom(s.dev, image, body(direct)));
  EXPECT_EQ(full.observed[2], 0x04 | static_cast<std::uint8_t>(image[6]));
  EXPECT_EQ(full.observed[5], 0x01 | static_cast<std::uint8_t>(image[far]));
}

// A plane armed before a RecoveryManager is attached: attaching must
// withdraw the view and disarm it, for the run that follows and after
// a BeginRun that recovery leaves unarmed, so the run matches a plane
// that had recovery from the start (recovery counters included).
TEST(ElideLifetime, RecoveryAttachedAfterBeginRun) {
  for (const bool begin_again : {false, true}) {
    for (const bool faults_first : {false, true}) {
      SCOPED_TRACE(std::string(begin_again ? "BeginRun again" : "no BeginRun") +
                   (faults_first ? ", faults set before" : ", faults set after"));
      Synthetic s(1, false);
      core::RecoveryConfig cfg;
      cfg.enabled = true;
      core::RecoveryManager rm(s.dev, cfg);
      rm.SetSnapshot(s.image);
      const std::vector<std::byte> image(
          s.dev.space().Data(),
          s.dev.space().Data() + s.dev.space().StoreSize());
      const auto add_faults = [&] {
        s.dev.faults().Clear();
        // Mismatches the SECDED probe arbitrates: the primary loses.
        s.Flip(kBlockSize + 20, 0);
        s.Flip(40, 1);
        s.Flip(40, 2);
      };
      const auto run = [&](core::ProtectedDataPlane& plane, bool late) {
        const core::RecoveryStats before = rm.stats();
        rm.BeginRun();  // undoes the previous run's retirements
        if (late) {
          if (faults_first) add_faults();
          plane.BeginRun();
          EXPECT_GT(plane.view().blocks, 0u);
          plane.AttachRecovery(&rm);
          if (!faults_first) add_faults();
          if (begin_again) plane.BeginRun();
          EXPECT_EQ(plane.view().blocks, 0u);
        } else {
          plane.AttachRecovery(&rm);
          add_faults();
        }
        rm.AttachPlane(&plane);
        const RunRecord r =
            Drive(s.dev, plane, image, /*arm=*/false, LoadAll(plane, 4));
        const core::RecoveryStats& after = rm.stats();
        EXPECT_GT(after.arbitrations, before.arbitrations);
        const std::vector<std::uint64_t> recovery = {
            after.scrubs - before.scrubs,
            after.scrub_sticks - before.scrub_sticks,
            after.arbitrations - before.arbitrations,
            after.retired_blocks - before.retired_blocks,
            after.exhausted_runs - before.exhausted_runs};
        return std::make_pair(r, recovery);
      };
      core::ProtectedDataPlane from_start(s.dev, s.plan);
      const auto [full, full_recovery] = run(from_start, false);
      core::ProtectedDataPlane late(s.dev, s.plan);
      const auto [got, got_recovery] = run(late, true);
      ExpectSameRun(full, got);
      EXPECT_EQ(full_recovery, got_recovery);
    }
  }
}

// Armed for one run, then a block is retired: the next BeginRun leaves
// the plane unarmed and must withdraw its view, since loads of the
// retired block read its spare.
TEST(ElideLifetime, RetirementAfterAnArmedRun) {
  const std::uint8_t value[4] = {9, 8, 7, 6};
  const auto run = [&](bool armed_before) {
    Synthetic s(1, false);
    const Addr out = s.dev.space().Object(1).base;
    const Addr spare = s.dev.space().AllocateRaw(kBlockSize);
    core::ProtectedDataPlane plane(s.dev, s.plan);
    if (armed_before) {
      plane.BeginRun();
      EXPECT_GT(plane.view().blocks, 0u);
    }
    s.dev.retired().Map(out / kBlockSize, spare / kBlockSize);
    const std::vector<std::byte> image(
        s.dev.space().Data(),
        s.dev.space().Data() + s.dev.space().StoreSize());
    return Drive(s.dev, plane, image, /*arm=*/true, [&plane, out, &value] {
      EXPECT_EQ(plane.view().blocks, 0u);
      plane.Store(/*pc=*/2, out + 8, value, 4);
      std::vector<std::uint8_t> seen;
      for (Addr a = out; a < out + kBlockSize; a += 4) {
        std::uint8_t buf[4];
        ThreadLoad(plane, /*pc=*/1, a, buf, 4);
        seen.insert(seen.end(), buf, buf + 4);
      }
      return seen;
    });
  };
  ExpectSameRun(run(false), run(true));
}

// A direct plane built over a device with a retired block publishes
// no view: loads of that block read its spare.
TEST(ElideLifetime, DirectPlaneOverRetiredBlocks) {
  Synthetic s(1, false);
  const Addr out = s.dev.space().Object(1).base;
  const Addr spare = s.dev.space().AllocateRaw(kBlockSize);
  s.dev.retired().Map(out / kBlockSize, spare / kBlockSize);
  const std::vector<std::byte> image(
      s.dev.space().Data(), s.dev.space().Data() + s.dev.space().StoreSize());
  exec::DirectDataPlane direct(s.dev);
  EXPECT_EQ(direct.view().blocks, 0u);
  ForwardingPlane forwarded(direct);
  const std::uint8_t value[4] = {9, 8, 7, 6};
  const auto body = [&](exec::DataPlane& p) {
    return Body([&p, out, &value] {
      p.Store(/*pc=*/2, out + 8, value, 4);
      std::vector<std::uint8_t> seen;
      for (Addr a = out; a < out + kBlockSize; a += 4) {
        std::uint8_t buf[4];
        ThreadLoad(p, /*pc=*/1, a, buf, 4);
        seen.insert(seen.end(), buf, buf + 4);
      }
      return seen;
    });
  };
  const RunRecord full = RunFrom(s.dev, image, body(forwarded));
  EXPECT_EQ(full.observed[8], 9);
  ExpectSameRun(full, RunFrom(s.dev, image, body(direct)));
}

// Armed, then the plan is changed in place (as Tier-2 escalation does):
// the plane must fall back to the full path against the new plan.
TEST(ElideLifetime, PlanMutatedAfterBeginRun) {
  const auto run = [](bool armed_before) {
    Synthetic s(1, false);
    // A second copy of `w` whose first word differs from the primary.
    const Addr moved = s.dev.space().AllocateRaw(2 * kBlockSize);
    std::memcpy(s.dev.space().Data() + moved, s.dev.space().Data(),
                2 * kBlockSize);
    s.dev.space().Data()[moved] ^= std::byte{1};
    const std::vector<std::byte> image(
        s.dev.space().Data(),
        s.dev.space().Data() + s.dev.space().StoreSize());
    core::ProtectedDataPlane plane(s.dev, s.plan);
    if (armed_before) plane.BeginRun();
    plane.mutable_plan().ranges[0].replica_base[0] = moved;
    EXPECT_EQ(plane.view().blocks, 0u);
    return Drive(s.dev, plane, image, /*arm=*/false, LoadAll(plane, 4));
  };
  const RunRecord full = run(false);
  EXPECT_EQ(full.end, "detected pc=1 addr=0");
  ExpectSameRun(full, run(true));
}

// ---------------------------------------------------------------------------
// The direct plane's view against the same plane with no view, over
// every app's kernels under the campaign fault shapes.

class ElideDirect : public ::testing::TestWithParam<std::string> {};

TEST_P(ElideDirect, ViewMatchesForwardedPlane) {
  const std::string& name = GetParam();
  const apps::ProfileResult& profile = ProfileOf(name);
  auto app = apps::MakeApp(name, apps::AppScale::kTiny);
  apps::ProtectionSetup setup = apps::BuildProtection(*app, apps::Cover{});
  mem::DeviceMemory& dev = *setup.dev;
  const std::vector<std::byte> image(
      dev.space().Data(), dev.space().Data() + dev.space().StoreSize());
  const auto universe = analysis::BuildExposureUniverse(profile.profiler);
  for (const std::uint64_t seed : {1u, 7919u, 3u}) {
    for (const FaultSet set : {FaultSet::kWord1x2, FaultSet::kWord5x4,
                               FaultSet::kColumn, FaultSet::kDramRow}) {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(set));
      const auto faults =
          MakeFaults(set, universe, dev.space(), setup.plan, rng);
      for (const mem::EccMode ecc :
           {mem::EccMode::kNone, mem::EccMode::kSecded}) {
        SCOPED_TRACE(name + " seed " + std::to_string(seed) + " " +
                     FaultSetName(set) +
                     (ecc == mem::EccMode::kSecded ? " secded" : " no-ecc"));
        dev.faults().Clear();
        for (const auto& f : faults) dev.faults().Add(f);
        dev.set_ecc_mode(ecc);
        ExpectDirectViewExact(dev, image, [&](exec::DataPlane& plane) {
          return Body([&] {
            apps::RunKernels(*app, plane, nullptr);
            return ObservedOutputs(*app, dev, setup.plan, plane);
          });
        });
      }
    }
  }
  dev.faults().Clear();
}

std::string DirectCaseName(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllApps, ElideDirect,
                         ::testing::ValuesIn(apps::AllAppNames()),
                         DirectCaseName);

// The direct plane's view at block edges: loads straddling into the
// faulty block, and the end of the store.
TEST(ElideDirectSynthetic, StraddlingAndEndOfStoreLoads) {
  for (const mem::EccMode ecc : {mem::EccMode::kNone, mem::EccMode::kSecded}) {
    Synthetic s(1, false);
    s.dev.set_ecc_mode(ecc);
    const Addr end = s.dev.space().StoreSize();
    s.Flip(kBlockSize + 1, 3);
    s.Flip(end - 2, 6);
    const RunRecord full =
        ExpectDirectViewExact(s.dev, s.image, [&](exec::DataPlane& p) {
          return Body([&p, end] {
            std::vector<std::uint8_t> seen;
            for (const std::uint32_t width : {2u, 4u, 8u, 16u}) {
              for (Addr a = kBlockSize - width + 1; a <= kBlockSize; ++a) {
                std::uint8_t buf[16];
                ThreadLoad(p, /*pc=*/1, a, buf, width);
                seen.insert(seen.end(), buf, buf + width);
              }
              for (Addr a = end - 2 * kBlockSize; a + width <= end;
                   a += width) {
                std::uint8_t buf[16];
                ThreadLoad(p, /*pc=*/1, a, buf, width);
                seen.insert(seen.end(), buf, buf + width);
              }
            }
            std::uint8_t buf[4];
            ThreadLoad(p, /*pc=*/1, end - 2, buf, 4);  // throws
            return seen;
          });
        });
    EXPECT_EQ(full.end, "out_of_range: device memory access out of range");
  }
}

}  // namespace
}  // namespace dcrm
