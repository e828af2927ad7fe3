// Property-based tests: invariants checked over randomized inputs and
// parameterized sweeps (TEST_P), per the framework's reliability
// claims rather than fixed examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/protection.h"
#include "core/replication.h"
#include "mem/device_memory.h"
#include "mem/secded.h"
#include "sim/tag_array.h"
#include "trace/trace_builder.h"

namespace dcrm {
namespace {

// ---------------------------------------------------------------- //
// SECDED: parameterized over the number of raw bit errors.

class SecdedErrorSweep : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(BitCounts, SecdedErrorSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST_P(SecdedErrorSweep, GuaranteesHoldForRandomWords) {
  const unsigned k = GetParam();
  Rng rng(1000 + k);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t d = rng.Next64();
    mem::EccWord w = mem::Secded72::Encode(d);
    std::vector<unsigned> bits;
    while (bits.size() < k) {
      const auto b = static_cast<unsigned>(rng.Below(64));
      if (std::find(bits.begin(), bits.end(), b) == bits.end()) {
        bits.push_back(b);
      }
    }
    for (unsigned b : bits) w.data = FlipBit(w.data, b);
    const auto r = mem::Secded72::Decode(w);
    if (k == 1) {
      // Guaranteed correction.
      ASSERT_EQ(r.status, mem::EccStatus::kCorrectedSingle);
      ASSERT_EQ(r.data, d);
    } else if (k == 2) {
      // Guaranteed detection, never a silent pass.
      ASSERT_TRUE(r.status == mem::EccStatus::kDetectedDouble ||
                  r.status == mem::EccStatus::kDetectedInvalid);
    } else {
      // >= 3 errors: the code gives no guarantee, but it must never
      // return the original data while claiming kOk (distance 4).
      if (r.status == mem::EccStatus::kOk) {
        ASSERT_NE(r.data, d);
      }
      if (r.status == mem::EccStatus::kCorrectedSingle && k == 3) {
        // An odd error count can only land back on the original by
        // flipping >= distance bits; with 3 errors + 1 "correction"
        // that is impossible.
        ASSERT_NE(r.data, d);
      }
    }
  }
}

// ---------------------------------------------------------------- //
// Fault model: permanence and idempotence.

TEST(FaultProperty, ApplicationIsIdempotent) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    mem::FaultMap fm;
    const unsigned n = 1 + static_cast<unsigned>(rng.Below(6));
    for (unsigned i = 0; i < n; ++i) {
      fm.Add({.byte_addr = rng.Below(64),
              .bit = static_cast<std::uint8_t>(rng.Below(8)),
              .stuck_value = rng.Bernoulli(0.5)});
    }
    std::uint8_t buf[64];
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Below(256));
    std::uint8_t once[64];
    std::memcpy(once, buf, 64);
    fm.Apply(0, once, 64);
    std::uint8_t twice[64];
    std::memcpy(twice, once, 64);
    fm.Apply(0, twice, 64);
    ASSERT_EQ(std::memcmp(once, twice, 64), 0);
  }
}

TEST(FaultProperty, LastFaultWinsPerBit) {
  mem::FaultMap fm;
  fm.Add({.byte_addr = 0, .bit = 3, .stuck_value = true});
  fm.Add({.byte_addr = 0, .bit = 3, .stuck_value = false});
  EXPECT_EQ(fm.ApplyByte(0, 0xFF), 0xF7);  // stuck-at-0 wins (re-added)
}

TEST(FaultProperty, WordFaultsCoverRequestedBitCountExactly) {
  Rng rng(88);
  for (unsigned bits = 1; bits <= 8; ++bits) {
    const auto fs = mem::MakeWordFaults(1024, bits, rng);
    ASSERT_EQ(fs.size(), bits);
  }
}

// ---------------------------------------------------------------- //
// Majority vote: any fault pattern confined to one copy is corrected.

class VoteProperty : public ::testing::TestWithParam<unsigned> {};
INSTANTIATE_TEST_SUITE_P(FaultyCopy, VoteProperty,
                         ::testing::Values(0u, 1u, 2u));

TEST_P(VoteProperty, SingleFaultyCopyAlwaysOutvoted) {
  const unsigned faulty_copy = GetParam();
  Rng rng(99 + faulty_copy);
  for (int trial = 0; trial < 60; ++trial) {
    mem::DeviceMemory dev;
    const auto id = dev.space().Allocate("w", 256, true);
    for (Addr a = 0; a < 256; a += 8) {
      dev.Write<std::uint64_t>(a, rng.Next64());
    }
    const auto infos =
        core::ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 2);
    auto plan = core::MakeProtectionPlan(dev.space(), infos,
                                         sim::Scheme::kDetectCorrect);
    // Arbitrary multi-bit faults, all within the chosen copy.
    const Addr base = faulty_copy == 0 ? dev.space().Object(id).base
                                       : infos[0].replica_base[faulty_copy - 1];
    const unsigned nfaults = 1 + static_cast<unsigned>(rng.Below(8));
    for (unsigned i = 0; i < nfaults; ++i) {
      dev.faults().Add({.byte_addr = base + rng.Below(256),
                        .bit = static_cast<std::uint8_t>(rng.Below(8)),
                        .stuck_value = rng.Bernoulli(0.5)});
    }
    core::ProtectedDataPlane plane(dev, plan);
    for (Addr off = 0; off < 256; off += 8) {
      std::uint64_t v = 0;
      plane.Load(1, dev.space().Object(id).base + off, &v, 8);
      ASSERT_EQ(v, dev.ReadGoldenTyped<std::uint64_t>(
                       dev.space().Object(id).base + off));
    }
  }
}

TEST(VoteProperty, DetectionCatchesAnyPrimaryReplicaDivergence) {
  Rng rng(123);
  for (int trial = 0; trial < 60; ++trial) {
    mem::DeviceMemory dev;
    const auto id = dev.space().Allocate("w", 128, true);
    for (Addr a = 0; a < 128; a += 8) {
      dev.Write<std::uint64_t>(a, rng.Next64());
    }
    const auto infos =
        core::ReplicateObjects(dev, std::vector<mem::ObjectId>{id}, 1);
    auto plan = core::MakeProtectionPlan(dev.space(), infos,
                                         sim::Scheme::kDetectOnly);
    const bool fault_primary = rng.Bernoulli(0.5);
    const Addr base =
        fault_primary ? dev.space().Object(id).base : infos[0].replica_base[0];
    const Addr victim = base + rng.Below(128);
    // Ensure the stuck value actually differs from the stored bit.
    const std::uint8_t stored = dev.ReadGoldenTyped<std::uint8_t>(victim);
    const auto bit = static_cast<std::uint8_t>(rng.Below(8));
    dev.faults().Add(
        {.byte_addr = victim, .bit = bit, .stuck_value = !((stored >> bit) & 1)});
    core::ProtectedDataPlane plane(dev, plan);
    bool detected = false;
    try {
      for (Addr off = 0; off < 128; off += 8) {
        std::uint64_t v;
        plane.Load(1, dev.space().Object(id).base + off, &v, 8);
      }
    } catch (const core::DetectionTerminated&) {
      detected = true;
    }
    ASSERT_TRUE(detected);
  }
}

// ---------------------------------------------------------------- //
// Coalescer invariants over random lane address patterns.

TEST(CoalescerProperty, InvariantsOverRandomPatterns) {
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<exec::AccessRecord> step;
    const unsigned lanes = 1 + static_cast<unsigned>(rng.Below(32));
    for (unsigned l = 0; l < lanes; ++l) {
      step.push_back({static_cast<Pc>(1 + rng.Below(2)),
                      rng.Below(1 << 20) * 4, 4, AccessType::kLoad});
    }
    // Record the step as lanes 0.. of warp 0 and read the coalesced
    // instructions back.
    trace::TraceBuilder recorder;
    recorder.BeginKernel(exec::LaunchConfig{{1, 1, 1}, {kWarpSize, 1, 1}});
    for (unsigned l = 0; l < lanes; ++l) {
      exec::ThreadCoord who;
      who.lane = static_cast<std::uint8_t>(l);
      recorder.OnAccess(who, step[l]);
    }
    recorder.EndKernel();
    const auto insts =
        trace::ToKernelTraces(*recorder.Finish())[0].warps[0].insts;
    unsigned total_lanes = 0;
    std::size_t total_blocks = 0;
    for (const auto& m : insts) {
      total_lanes += m.active_lanes;
      total_blocks += m.blocks.size();
      ASSERT_LE(m.blocks.size(), m.active_lanes);
      for (Addr b : m.blocks) ASSERT_EQ(b % kBlockSize, 0u);
      // No duplicate transactions within an instruction.
      auto sorted = m.blocks;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end());
    }
    ASSERT_EQ(total_lanes, lanes);
    // Every record's block appears in some instruction with its pc.
    for (const auto& rec : step) {
      const bool found = std::any_of(
          insts.begin(), insts.end(), [&](const trace::WarpMemInst& m) {
            return m.pc == rec.pc &&
                   std::find(m.blocks.begin(), m.blocks.end(),
                             BlockBase(rec.addr)) != m.blocks.end();
          });
      ASSERT_TRUE(found);
    }
  }
}

// ---------------------------------------------------------------- //
// Tag array: a working set within capacity never misses after warmup.

class TagArraySweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArraySweep,
    ::testing::Values(std::make_pair(32u, 4u), std::make_pair(128u, 16u),
                      std::make_pair(1u, 8u), std::make_pair(64u, 1u)));

TEST_P(TagArraySweep, ResidentWorkingSetAlwaysHits) {
  const auto [sets, ways] = GetParam();
  sim::TagArray tags(sets, ways);
  const unsigned capacity = sets * ways;
  std::vector<Addr> ws;
  // Sequential blocks spread evenly over the sets.
  for (unsigned i = 0; i < capacity; ++i) {
    ws.push_back(static_cast<Addr>(i) * kBlockSize);
  }
  for (Addr b : ws) tags.Access(b);  // warmup
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tags.Access(ws[rng.Below(ws.size())]));
  }
}

TEST(TagArrayProperty, OverCapacitySetAlwaysEvicts) {
  sim::TagArray tags(1, 4);
  for (int round = 0; round < 5; ++round) {
    for (Addr b = 0; b < 5; ++b) {
      // 5 blocks through a 4-way set in LRU order: every access misses.
      ASSERT_FALSE(tags.Access(b * kBlockSize)) << round << "," << b;
    }
  }
}

}  // namespace
}  // namespace dcrm
