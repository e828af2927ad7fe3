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
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "common/binio.h"
#include "common/rng.h"
#include "core/protection.h"
#include "core/recovery.h"
#include "core/replication.h"
#include "exec/kernel.h"
#include "fault/campaign.h"
#include "fault/fault_shapes.h"
#include "fault/parallel_campaign.h"
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
  std::optional<Addr> failed_at;  // the address of a detection or a DUE
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
    r.failed_at = e.addr();
  } catch (const mem::DueError& e) {
    r.end = "due addr=" + std::to_string(e.addr());
    r.failed_at = e.addr();
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
// copy of a covered block (what the replica-side marking must catch),
// or flipping the same word of the primary and, one bit over, of every
// copy (a mismatch no SECDED probe arbitrates, which recovery answers
// by retiring and re-executing).
enum class FaultSet { kWord1x2, kWord5x4, kColumn, kDramRow, kOneCopy,
                      kEveryCopy, kPrimaryAndCopies };
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
    case FaultSet::kPrimaryAndCopies:
      return "primary-and-copies";
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
    case FaultSet::kEveryCopy:
    case FaultSet::kPrimaryAndCopies: {
      if (plan.ranges.empty()) break;
      const sim::ProtectedRange& r =
          plan.ranges[rng.Below(plan.ranges.size())];
      const Addr lo = r.base + rng.Below(r.size) / kBlockSize * kBlockSize;
      const Addr hi = std::min<Addr>(lo + kBlockSize, r.base + r.size);
      const unsigned copies =
          set == FaultSet::kOneCopy ? 1 : plan.CopiesFor(r);
      const auto flip = [&space](Addr a, std::uint8_t bit) {
        const auto stored = static_cast<std::uint8_t>(space.Data()[a]);
        return mem::StuckAtFault{.byte_addr = a,
                                 .bit = bit,
                                 .stuck_value = ((stored >> bit) & 1) == 0};
      };
      for (const mem::StuckAtFault& f :
           mem::MakeWordFaultsInRange(lo, hi, 2, rng)) {
        if (set == FaultSet::kPrimaryAndCopies) {
          out.push_back(flip(f.byte_addr, f.bit));
          for (unsigned c = 0; c < copies; ++c) {
            out.push_back(flip(r.ReplicaAddr(c, f.byte_addr),
                               static_cast<std::uint8_t>((f.bit + 1) % 8)));
          }
          continue;
        }
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

// A device with one protected object `w` of distinct words (256 bytes,
// two blocks, unless `size` says otherwise), replicated `copies` times.
struct Synthetic {
  mem::DeviceMemory dev;
  sim::ProtectionPlan plan;
  std::vector<std::byte> image;

  Synthetic(unsigned copies, bool propagate,
            std::uint64_t size = 2 * kBlockSize) {
    const auto id = dev.space().Allocate("w", size, true);
    for (Addr a = 0; a < size; a += 4) {
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

// True when the view sends `block` to the full path.
bool ViewBit(const exec::LoadView& view, std::uint64_t block) {
  return ((*view.slow)[block / 64] >> (block % 64)) & 1;
}

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
// withdraw the view, so the run that follows takes the full path,
// while a BeginRun after the attach publishes it again over the faults
// then set; either way the run matches a plane that had recovery from
// the start (recovery counters included).
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
          EXPECT_EQ(plane.view().blocks != 0, begin_again);
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

// Armed for one run, then a block is retired: the next BeginRun
// publishes the view with the retired block's bit set, since loads of
// that block read its spare.
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
      EXPECT_GT(plane.view().blocks, BlockOf(out));
      EXPECT_TRUE(ViewBit(plane.view(), BlockOf(out)));
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

// ---------------------------------------------------------------------------
// Recovery and sub-block padding (suite ElideRecovery): the view stays
// published while a RecoveryManager scrubs, retires and re-executes,
// and the tail block of a sub-block range is no longer pre-marked.

// The campaign-recovery workload's apps.
const std::vector<std::string> kRecoveryApps = {
    "P-BICG",       "P-GESUMMV", "P-MVT", "A-Laplacian",
    "A-Meanfilter", "A-Sobel",   "A-SRAD"};

// Appends every field of one trial's result to `out`.
void AppendTrial(std::string& out, const fault::TrialResult& r) {
  const core::RecoveryStats& s = r.recovery;
  bin::PutU32(out, static_cast<std::uint32_t>(r.outcome));
  for (const std::uint64_t v :
       {r.corrections, s.scrubs, s.scrub_sticks, s.arbitrations,
        s.retired_blocks, s.retries, s.backoff_units, s.escalations,
        s.exhausted_runs}) {
    bin::PutU64(out, v);
  }
  bin::PutU32(out, static_cast<std::uint32_t>(r.offenses.size()));
  for (const mem::ObjectId id : r.offenses) bin::PutU32(out, id);
}

// 64 trials of `app` as the campaign-recovery workload configures them
// (detect-only over the hot cover, miss-weighted 5 blocks x 4 bits),
// at the tiny scale, with recovery off and on (budget 3, Tier-2 epoch
// 16). Runs them trial by trial on one campaign, applying escalations
// at the engine's epoch boundaries, and returns the FNV-1a digest of
// every TrialResult and escalation count. ParallelCampaign at jobs 1
// and 2 must reach the same totals and ledger at every epoch.
std::uint64_t CampaignTrialsDigest(const std::string& name) {
  const apps::ProfileResult& profile = ProfileOf(name);
  const auto cover = static_cast<unsigned>(profile.hot.hot_objects.size());
  std::string record;
  for (const bool recovery : {false, true}) {
    SCOPED_TRACE(name + (recovery ? " recovery" : " no recovery"));
    fault::CampaignConfig cfg;
    cfg.target = fault::Target::kMissWeighted;
    cfg.faulty_blocks = 5;
    cfg.bits_per_block = 4;
    cfg.runs = 64;
    cfg.seed = 1;
    cfg.recovery.enabled = recovery;
    cfg.recovery.max_retries = 3;
    cfg.escalation_epoch = 16;
    const std::vector<unsigned> ends = {16, 32, 48, 64};

    auto app = apps::MakeApp(name, apps::AppScale::kTiny);
    fault::FaultCampaign campaign(*app, profile, sim::Scheme::kDetectOnly,
                                  cover);
    if (recovery) campaign.EnableRecovery(cfg.recovery);
    core::EscalationLedger ledger;
    fault::CampaignCounts counts;
    std::vector<fault::PrefixCounts> want;
    for (unsigned t = 0; t < cfg.runs; ++t) {
      if (recovery && t % cfg.escalation_epoch == 0) {
        const unsigned applied = campaign.ApplyEscalations(ledger);
        counts.recovery.escalations += applied;
        bin::PutU32(record, applied);
      }
      const fault::TrialResult r = campaign.RunTrial(cfg, t);
      AppendTrial(record, r);
      fault::MergeTrialResult(counts, r);
      ledger.Merge(r.offenses);
      if (std::find(ends.begin(), ends.end(), t + 1) != ends.end()) {
        want.push_back({t + 1, counts, ledger});
      }
    }
    for (const unsigned jobs : {1u, 2u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      fault::CampaignSpec spec;
      spec.make_app = [name] {
        return apps::MakeApp(name, apps::AppScale::kTiny);
      };
      spec.profile = &profile;
      spec.scheme = sim::Scheme::kDetectOnly;
      spec.cover_objects = cover;
      fault::ParallelCampaign parallel(spec, jobs);
      const std::vector<fault::PrefixCounts> got =
          parallel.RunPrefixes(cfg, ends, fault::EngineOptions{});
      EXPECT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_EQ(got[i].end, want[i].end);
        EXPECT_TRUE(got[i].counts == want[i].counts) << "prefix " << i;
        EXPECT_TRUE(got[i].ledger == want[i].ledger) << "prefix " << i;
      }
    }
  }
  return bin::Fnv1a(record);
}

// Per-app digests of the trials above, as they were while an attached
// RecoveryManager kept every load on the full path.
const std::map<std::string, std::uint64_t> kCampaignDigests = {
    {"P-BICG", 0x79db4fb7dd1ed9d4},       {"P-GESUMMV", 0xeee7146907f24d54},
    {"P-MVT", 0x224f679ba2f5d993},        {"A-Laplacian", 0x55772de7a769ec05},
    {"A-Meanfilter", 0x941b8f5ab6d2b7f5}, {"A-Sobel", 0x2ca04fe4d04e8d76},
    {"A-SRAD", 0x603231dfdf2ac240},
};

class ElideRecoveryCampaign : public ::testing::TestWithParam<std::string> {};

TEST_P(ElideRecoveryCampaign, TrialResultsMatchThePinnedDigest) {
  const std::string& name = GetParam();
  const std::uint64_t digest = CampaignTrialsDigest(name);
  EXPECT_EQ(digest, kCampaignDigests.at(name))
      << name << " digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(ElideRecovery, ElideRecoveryCampaign,
                         ::testing::ValuesIn(kRecoveryApps), DirectCaseName);

// One recovery trial as the campaign runs it: the last attempt's run
// record (detections and corrections summed over every attempt) and
// what the manager did.
struct RecoveryRecord {
  RunRecord run;
  core::RecoveryStats stats;
  std::vector<mem::ObjectId> offenses;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> retired;
  unsigned attempts = 0;
};

// FaultCampaign::RunOnce's attempt loop, with `rm` attached to `plane`:
// restore `image`, refill the retired blocks, arm the plane and run
// `body`; a detection or a DUE is offered to the manager, which
// retires and re-executes while its budget lasts.
RecoveryRecord RunWithRecovery(mem::DeviceMemory& dev,
                               core::ProtectedDataPlane& plane,
                               core::RecoveryManager& rm,
                               const std::vector<std::byte>& image,
                               const Body& body) {
  const core::RecoveryStats before = rm.stats();
  const std::uint64_t detections = plane.detections();
  const std::uint64_t corrections = plane.corrections();
  rm.BeginRun();
  RecoveryRecord rec;
  for (;;) {
    ++rec.attempts;
    rec.run = RunFrom(dev, image, [&] {
      rm.RefreshRetiredFromSnapshot();
      plane.BeginRun();
      EXPECT_GT(plane.view().blocks, 0u);
      return body();
    });
    if (!rec.run.failed_at || !rm.OnRunFailure(*rec.run.failed_at)) break;
  }
  rec.run.detections = plane.detections() - detections;
  rec.run.corrections = plane.corrections() - corrections;
  rec.stats = core::StatsDelta(rm.stats(), before);
  rec.offenses = rm.trial_offenses();
  rec.retired.assign(dev.retired().Entries().begin(),
                     dev.retired().Entries().end());
  std::sort(rec.retired.begin(), rec.retired.end());
  return rec;
}

void ExpectSameRecovery(const RecoveryRecord& want,
                        const RecoveryRecord& got) {
  ExpectSameRun(want.run, got.run);
  EXPECT_TRUE(want.stats == got.stats) << "recovery stats differ";
  EXPECT_EQ(want.offenses, got.offenses);
  EXPECT_EQ(want.retired, got.retired);
  EXPECT_EQ(want.attempts, got.attempts);
}

// A manager (budget 3 unless `cfg` says otherwise) attached to a
// plane over `plan`. Each trial runs twice through exec::ThreadCtx:
// behind the forwarding plane, so every load takes the full path, and
// with the plane's view; both must end alike. Trials run in sequence
// on the one manager, and Tier-2 escalation applies after each, as a
// campaign epoch would.
struct RecoveryRig {
  mem::DeviceMemory& dev;
  core::ProtectedDataPlane plane;
  core::RecoveryManager rm;
  std::vector<std::byte> image;  // taken after the spare pool exists
  core::EscalationLedger ledger;

  RecoveryRig(mem::DeviceMemory& d, const sim::ProtectionPlan& plan,
              const core::RecoveryConfig& cfg = Budget3())
      : dev(d), plane(d, plan), rm(d, cfg) {
    image.assign(dev.space().Data(),
                 dev.space().Data() + dev.space().StoreSize());
    rm.SetSnapshot(image);
    rm.AttachPlane(&plane);
    plane.AttachRecovery(&rm);
  }
  RecoveryRig(const RecoveryRig&) = delete;
  RecoveryRig& operator=(const RecoveryRig&) = delete;

  static core::RecoveryConfig Budget3() {
    core::RecoveryConfig cfg;
    cfg.enabled = true;
    cfg.max_retries = 3;
    return cfg;
  }

  // Returns the full-path record.
  RecoveryRecord Trial(
      const std::function<Body(exec::DataPlane&)>& make_body) {
    ForwardingPlane forwarded(plane);
    const RecoveryRecord full =
        RunWithRecovery(dev, plane, rm, image, make_body(forwarded));
    {
      SCOPED_TRACE("armed, with view");
      ExpectSameRecovery(full, RunWithRecovery(dev, plane, rm, image,
                                               make_body(plane)));
    }
    ledger.Merge(full.offenses);
    rm.ApplyEscalations(ledger);
    return full;
  }
};

// An app's hot cover under detect-only, on a RecoveryRig.
struct AppRecoveryRig {
  std::unique_ptr<apps::App> app;
  apps::ProtectionSetup setup;
  RecoveryRig rig;

  explicit AppRecoveryRig(const std::string& name)
      : app(apps::MakeApp(name, apps::AppScale::kTiny)),
        setup(apps::BuildProtection(
            *app, apps::ResolveCover(ProfileOf(name),
                                     sim::Scheme::kDetectOnly, std::nullopt,
                                     {}))),
        rig(*setup.dev, setup.plan) {}

  RecoveryRecord Trial(const std::vector<mem::StuckAtFault>& faults) {
    mem::DeviceMemory& dev = *setup.dev;
    dev.faults().Clear();
    for (const auto& f : faults) dev.faults().Add(f);
    return rig.Trial([&](exec::DataPlane& p) {
      return Body([&] {
        apps::RunKernels(*app, p, nullptr);
        return ObservedOutputs(*app, dev, setup.plan, p);
      });
    });
  }
};

class ElideRecoveryPlane : public ::testing::TestWithParam<std::string> {};

TEST_P(ElideRecoveryPlane, ArmedAttemptsMatchFullPath) {
  const std::string& name = GetParam();
  AppRecoveryRig rig(name);
  const auto universe =
      analysis::BuildExposureUniverse(ProfileOf(name).profiler);
  core::RecoveryStats total;
  for (const std::uint64_t seed : {1u, 7919u, 3u}) {
    for (const FaultSet set :
         {FaultSet::kWord5x4, FaultSet::kPrimaryAndCopies}) {
      SCOPED_TRACE(name + " seed " + std::to_string(seed) + " " +
                   FaultSetName(set));
      Rng rng(seed * 131 + static_cast<std::uint64_t>(set));
      const auto faults = MakeFaults(set, universe, rig.setup.dev->space(),
                                     rig.setup.plan, rng);
      total += rig.Trial(faults).stats;
    }
  }
  // The trials reached every tier the view must stay exact through.
  EXPECT_GT(rig.rig.rm.stats().escalations, 0u);
  EXPECT_GT(total.arbitrations, 0u);
  EXPECT_GT(total.retired_blocks, 0u);
  EXPECT_GT(total.retries, 0u);
}

std::vector<std::string> RecoveryPlaneApps() {
  std::vector<std::string> names = kRecoveryApps;
  names.push_back("C-ConvRows");
  return names;
}

INSTANTIATE_TEST_SUITE_P(ElideRecovery, ElideRecoveryPlane,
                         ::testing::ValuesIn(RecoveryPlaneApps()),
                         DirectCaseName);

// Sub-block ranges, as the hot arrays of A-Laplacian (36 B), C-ConvRows
// (68 B), A-Sobel (72 B) and the 4-byte scalars allocate them:
// block-aligned, padded to the block's end.
constexpr std::uint64_t kSubBlockSizes[] = {4, 36, 68, 72};

// Loads every aligned word of a `size`-byte `w`, then the 8 bytes that
// cross its end into the padding.
Body LoadsAcrossTheEnd(exec::DataPlane& plane, std::uint64_t size) {
  return [&plane, size] {
    std::vector<std::uint8_t> seen;
    const auto load = [&](Addr a, std::uint32_t n) {
      std::uint8_t buf[8];
      ThreadLoad(plane, /*pc=*/1, a, buf, n);
      seen.insert(seen.end(), buf, buf + n);
    };
    for (Addr a = 0; a < size; a += 4) load(a, 4);
    load(size - 4, 8);
    return seen;
  };
}

// A clean sub-block range leaves its tail block off the bitmap, and the
// loads that cross its end still match the full path. Padding that
// differs between the primary and a copy when the run starts (a stray
// store no restore resets) keeps the tail block on the full path.
TEST(ElideRecovery, SubBlockRangesLeaveTheirTailBlockClear) {
  for (const std::uint64_t size : kSubBlockSizes) {
    for (const unsigned copies : {1u, 2u}) {
      for (const bool stale_padding : {false, true}) {
        SCOPED_TRACE(std::to_string(size) + " B, copies " +
                     std::to_string(copies) +
                     (stale_padding ? ", stale padding" : ""));
        Synthetic s(copies, false, size);
        if (stale_padding) {
          s.image[s.Replica(copies - 1, size + 2)] ^= std::byte{0x10};
        }
        std::memcpy(s.dev.space().Data(), s.image.data(), s.image.size());
        core::ProtectedDataPlane plane(s.dev, s.plan);
        plane.BeginRun();
        EXPECT_EQ(ViewBit(plane.view(), 0), stale_padding);
        const RunRecord full = ExpectElisionExact(
            s.dev, s.plan, s.image,
            [&](exec::DataPlane& p) { return LoadsAcrossTheEnd(p, size); });
        EXPECT_EQ(full.detections, stale_padding && copies == 1 ? 1u : 0u);
      }
    }
  }
}

// An unpropagated store just past the range's end lands in its padding:
// a load crossing the end then compares bytes the copies never got.
TEST(ElideRecovery, StoreIntoTailPaddingThenStraddlingLoad) {
  const std::uint8_t value[4] = {0x11, 0x22, 0x33, 0x44};
  for (const std::uint64_t size : kSubBlockSizes) {
    for (const unsigned copies : {1u, 2u}) {
      SCOPED_TRACE(std::to_string(size) + " B, copies " +
                   std::to_string(copies));
      Synthetic s(copies, false, size);
      const RunRecord full = ExpectElisionExact(
          s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
            const Body loads = LoadsAcrossTheEnd(p, size);
            return Body([&p, loads, size, &value] {
              p.Store(/*pc=*/2, size, value, 4);
              return loads();
            });
          });
      EXPECT_EQ(full.detections, copies == 1 ? 1u : 0u);
      EXPECT_EQ(full.corrections, copies == 1 ? 0u : 1u);
    }
  }
}

// The only fault sits in a copy's padding, where only a load crossing
// the range's end reads it; and a stray store into that padding.
TEST(ElideRecovery, FaultOrStoreOnlyInAReplicasPadding) {
  const std::uint8_t value[4] = {0x5a, 0x5a, 0x5a, 0x5a};
  for (const std::uint64_t size : kSubBlockSizes) {
    for (const bool store : {false, true}) {
      SCOPED_TRACE(std::to_string(size) + " B, " +
                   (store ? "store" : "fault"));
      Synthetic s(1, false, size);
      const Addr at = s.Replica(0, size);
      if (!store) s.Flip(at + 1, 3);
      const RunRecord full = ExpectElisionExact(
          s.dev, s.plan, s.image, [&](exec::DataPlane& p) {
            const Body loads = LoadsAcrossTheEnd(p, size);
            return Body([&p, loads, store, at, &value] {
              if (store) p.Store(/*pc=*/2, at, value, 4);
              return loads();
            });
          });
      EXPECT_EQ(full.detections, 1u);
    }
  }
}

// A vote (or an arbitration) corrects a load that crosses into a block
// whose stuck cells the write-back cannot fix; that block's verify read
// fails and the manager retires it (block 1, not the load's first
// block). A propagated store into that block then lands in the spare,
// and loads of it must read the spare.
TEST(ElideRecovery, ScrubThenLoadOfTheScrubbedBlock) {
  const std::uint8_t value[4] = {1, 2, 3, 4};
  for (const unsigned copies : {1u, 2u}) {
    SCOPED_TRACE("copies " + std::to_string(copies));
    Synthetic s(copies, true);
    // Two stuck bits: a SECDED probe ranks the primary below its copy.
    s.Flip(kBlockSize, 0);
    s.Flip(kBlockSize, 1);
    RecoveryRig rig(s.dev, s.plan);
    const RecoveryRecord full = rig.Trial([&](exec::DataPlane& p) {
      return Body([&p, &value] {
        std::vector<std::uint8_t> seen;
        std::uint8_t buf[8];
        ThreadLoad(p, /*pc=*/1, kBlockSize - 4, buf, 8);
        seen.insert(seen.end(), buf, buf + 8);
        p.Store(/*pc=*/2, kBlockSize + 8, value, 4);
        for (Addr a = kBlockSize; a < 2 * kBlockSize; a += 4) {
          ThreadLoad(p, /*pc=*/1, a, buf, 4);
          seen.insert(seen.end(), buf, buf + 4);
        }
        return seen;
      });
    });
    EXPECT_EQ(full.run.end, "completed");
    EXPECT_GT(full.stats.scrubs, 0u);
    ASSERT_EQ(full.retired.size(), 1u);
    EXPECT_EQ(full.retired[0].first, 1u);
    EXPECT_EQ(full.run.observed[8 + 8], 1);
  }
}

// The same word flipped in the primary and, one bit over, in the copy:
// no SECDED probe arbitrates, so the attempt ends in a detection, the
// manager retires the primary block and re-executes; the copy still
// mismatches, and the manager retires it too (by arbitrating its
// scrub, or, with arbitration off, on the next failed attempt).
TEST(ElideRecovery, UnarbitrableMismatchRetiresAndReexecutes) {
  for (const bool arbitrate : {true, false}) {
    SCOPED_TRACE(arbitrate ? "arbitration on" : "arbitration off");
    Synthetic s(1, false);
    for (const std::uint8_t bit : {1, 2}) {
      s.Flip(40, bit);
      s.Flip(s.Replica(0, 40), static_cast<std::uint8_t>(bit + 1));
    }
    core::RecoveryConfig cfg = RecoveryRig::Budget3();
    cfg.arbitrate = arbitrate;
    RecoveryRig rig(s.dev, s.plan, cfg);
    const RecoveryRecord full =
        rig.Trial([&](exec::DataPlane& p) { return LoadAll(p, 4); });
    EXPECT_EQ(full.run.end, "completed");
    EXPECT_EQ(full.stats.retries, arbitrate ? 1u : 2u);
    ASSERT_EQ(full.retired.size(), 2u);
    EXPECT_EQ(full.retired[0].first, 0u);
    EXPECT_EQ(full.retired[1].first, BlockOf(s.Replica(0, 40)));
  }
}

// Offenses in one trial escalate `w` to a second replica, allocated
// past the store image; the next trial's armed run votes over three
// copies, across the range's end too.
TEST(ElideRecovery, EscalationBetweenTwoTrialsThenAnArmedRun) {
  for (const std::uint64_t size : kSubBlockSizes) {
    SCOPED_TRACE(std::to_string(size) + " B");
    Synthetic s(1, false, size);
    core::RecoveryConfig cfg = RecoveryRig::Budget3();
    cfg.escalate_threshold = 1;
    RecoveryRig rig(s.dev, s.plan, cfg);
    const auto loads = [&](exec::DataPlane& p) {
      return LoadsAcrossTheEnd(p, size);
    };
    // The copy loses the arbitration: one offense.
    s.Flip(s.Replica(0, 0), 0);
    s.Flip(s.Replica(0, 0), 1);
    EXPECT_EQ(rig.Trial(loads).stats.arbitrations, 1u);
    ASSERT_EQ(rig.plane.plan().ranges[0].copies, 2u);
    EXPECT_EQ(rig.rm.stats().escalations, 1u);
    s.dev.faults().Clear();
    s.Flip(0, 5);
    const RecoveryRecord second = rig.Trial(loads);
    EXPECT_EQ(second.run.end, "completed");
    EXPECT_EQ(second.run.corrections, 1u);
  }
}

// A block retired while the run goes on (here by a failure report in
// the middle of the run, on a clean block nothing else marks): a store
// to it lands in the spare, and its loads must read the spare at once.
TEST(ElideRecovery, RetirementDuringARunIsReadFromTheSpare) {
  const std::uint8_t value[4] = {9, 8, 7, 6};
  Synthetic s(1, false);
  const Addr out = s.dev.space().Object(1).base;
  RecoveryRig rig(s.dev, s.plan);
  const RecoveryRecord full = rig.Trial([&](exec::DataPlane& p) {
    return Body([&] {
      std::vector<std::uint8_t> seen;
      std::uint8_t buf[4];
      ThreadLoad(p, /*pc=*/1, out + 8, buf, 4);
      seen.insert(seen.end(), buf, buf + 4);
      EXPECT_TRUE(rig.rm.OnRunFailure(out));
      p.Store(/*pc=*/2, out + 8, value, 4);
      ThreadLoad(p, /*pc=*/1, out + 8, buf, 4);
      seen.insert(seen.end(), buf, buf + 4);
      return seen;
    });
  });
  ASSERT_EQ(full.retired.size(), 1u);
  EXPECT_EQ(full.run.observed[4], 9);
}

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
