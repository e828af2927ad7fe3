// TraceStore tests: the profiling recorder's store against its AoS
// form on all fifteen applications, cursor iteration order, FindWarp
// semantics, cached totals, binary serialization round trips,
// malformed-file rejection, and the columnar footprint win.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "common/file_util.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace dcrm {
namespace {

// The store the profiling driver records for `name` at tiny scale.
std::shared_ptr<const trace::TraceStore> Recorded(const std::string& name) {
  auto app = apps::MakeApp(name, apps::AppScale::kTiny);
  return apps::ProfileApp(*app, sim::GpuConfig{}).trace_store;
}

// Field-by-field equality of a store against the legacy traces it was
// built from — the walk mirrors how every consumer iterates — and of
// its cached per-kernel and whole-store totals against counts taken
// from the legacy traces.
void ExpectEquivalent(const trace::TraceStore& store,
                      const std::vector<trace::KernelTrace>& legacy,
                      const std::string& context) {
  ASSERT_EQ(store.NumKernels(), legacy.size()) << context;
  std::uint64_t all_insts = 0, all_txns = 0, all_stores = 0;
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    const trace::KernelView kv = store.Kernel(k);
    const trace::KernelTrace& kt = legacy[k];
    EXPECT_EQ(kv.name(), kt.name) << context;
    EXPECT_EQ(kv.cfg().grid, kt.cfg.grid) << context;
    EXPECT_EQ(kv.cfg().block, kt.cfg.block) << context;
    std::uint64_t insts = 0, txns = 0, stores = 0;
    for (const trace::WarpTrace& wt : kt.warps) {
      insts += wt.insts.size();
      for (const trace::WarpMemInst& inst : wt.insts) {
        txns += inst.blocks.size();
        if (inst.type == AccessType::kStore) stores += inst.blocks.size();
      }
    }
    EXPECT_EQ(kv.TotalMemInsts(), insts) << context;
    EXPECT_EQ(kv.TotalTransactions(), txns) << context;
    EXPECT_EQ(kv.TotalStoreTransactions(), stores) << context;
    all_insts += insts;
    all_txns += txns;
    all_stores += stores;
    ASSERT_EQ(kv.NumWarps(), kt.warps.size()) << context;
    for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
      const trace::WarpSlice ws = kv.Warp(w);
      const trace::WarpTrace& wt = kt.warps[w];
      EXPECT_EQ(ws.warp(), wt.warp) << context;
      EXPECT_EQ(ws.cta(), wt.cta) << context;
      ASSERT_EQ(ws.NumInsts(), wt.insts.size()) << context;
      for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
        const trace::InstView iv = ws.Inst(i);
        const trace::WarpMemInst& inst = wt.insts[i];
        EXPECT_EQ(iv.pc, inst.pc) << context;
        EXPECT_EQ(iv.type, inst.type) << context;
        EXPECT_EQ(iv.active_lanes, inst.active_lanes) << context;
        ASSERT_EQ(iv.blocks.size(), inst.blocks.size()) << context;
        for (std::size_t b = 0; b < iv.blocks.size(); ++b) {
          EXPECT_EQ(iv.blocks[b], inst.blocks[b]) << context;
        }
      }
    }
  }
  EXPECT_EQ(store.TotalMemInsts(), all_insts) << context;
  EXPECT_EQ(store.TotalTransactions(), all_txns) << context;
  EXPECT_EQ(store.TotalStoreTransactions(), all_stores) << context;
}

trace::WarpTrace MakeWarp(WarpId warp, std::uint32_t cta,
                          std::initializer_list<trace::WarpMemInst> insts) {
  trace::WarpTrace wt;
  wt.warp = warp;
  wt.cta = cta;
  wt.insts = insts;
  return wt;
}

TEST(TraceStoreBuild, EquivalentToLegacyOnAllApps) {
  for (const auto& name : apps::AllAppNames()) {
    const auto recorded = Recorded(name);
    const auto legacy = trace::ToKernelTraces(*recorded);
    const auto store = trace::BuildStore(legacy, recorded->columns().edges);
    ExpectEquivalent(*store, legacy, name);
    // Flattening the AoS form reproduces the recorder's columns.
    EXPECT_TRUE(*store == *recorded) << name;

    // ToKernelTraces is the exact inverse of BuildStore.
    const auto round = trace::ToKernelTraces(*store);
    ExpectEquivalent(*trace::BuildStore(round), legacy, name + " (inverse)");
  }
}

TEST(TraceStoreCursor, IterationPreservesRecordedOrder) {
  trace::KernelTrace k1;
  k1.name = "first";
  k1.warps.push_back(MakeWarp(0, 0, {{1, AccessType::kLoad, 32, {0, 128}},
                                     {2, AccessType::kStore, 16, {256}}}));
  k1.warps.push_back(MakeWarp(3, 1, {{4, AccessType::kLoad, 32, {384}}}));
  trace::KernelTrace k2;
  k2.name = "second";
  k2.warps.push_back(MakeWarp(7, 2, {{9, AccessType::kLoad, 8, {512, 640}}}));
  const auto store = trace::BuildStore({k1, k2});

  ASSERT_EQ(store->NumKernels(), 2u);
  EXPECT_EQ(store->NumWarps(), 3u);
  EXPECT_EQ(store->NumInsts(), 4u);
  EXPECT_EQ(store->NumBlockAddrs(), 6u);

  std::vector<Addr> walked;
  std::vector<Pc> pcs;
  for (std::uint32_t k = 0; k < store->NumKernels(); ++k) {
    const trace::KernelView kv = store->Kernel(k);
    for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
      const trace::WarpSlice ws = kv.Warp(w);
      for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
        const trace::InstView iv = ws.Inst(i);
        pcs.push_back(iv.pc);
        walked.insert(walked.end(), iv.blocks.begin(), iv.blocks.end());
      }
    }
  }
  EXPECT_EQ(pcs, (std::vector<Pc>{1, 2, 4, 9}));
  EXPECT_EQ(walked, (std::vector<Addr>{0, 128, 256, 384, 512, 640}));

  EXPECT_EQ(store->Kernel(0).name(), "first");
  EXPECT_EQ(store->Kernel(1).name(), "second");
  EXPECT_EQ(store->Kernel(0).TotalStoreTransactions(), 1u);
  EXPECT_EQ(store->Kernel(1).TotalStoreTransactions(), 0u);
}

TEST(TraceStoreCursor, FindWarpSortedAndUnsorted) {
  // Sorted warp ids (the builder's invariant): binary-search path.
  trace::KernelTrace sorted;
  sorted.warps.push_back(MakeWarp(2, 0, {{1, AccessType::kLoad, 32, {0}}}));
  sorted.warps.push_back(MakeWarp(5, 1, {{2, AccessType::kLoad, 32, {128}}}));
  sorted.warps.push_back(MakeWarp(9, 2, {{3, AccessType::kLoad, 32, {256}}}));
  // Unsorted ids (hand-built): linear fallback.
  trace::KernelTrace unsorted;
  unsorted.warps.push_back(MakeWarp(8, 0, {{4, AccessType::kLoad, 32, {0}}}));
  unsorted.warps.push_back(MakeWarp(1, 1, {{5, AccessType::kLoad, 32, {128}}}));
  const auto store = trace::BuildStore({sorted, unsorted});

  const trace::KernelView kv0 = store->Kernel(0);
  EXPECT_EQ(kv0.FindWarp(5).Inst(0).pc, 2u);
  EXPECT_EQ(kv0.FindWarp(9).cta(), 2u);
  EXPECT_TRUE(kv0.FindWarp(3).Empty());   // absent id
  EXPECT_TRUE(kv0.FindWarp(100).Empty());

  const trace::KernelView kv1 = store->Kernel(1);
  EXPECT_EQ(kv1.FindWarp(1).Inst(0).pc, 5u);
  EXPECT_EQ(kv1.FindWarp(8).Inst(0).pc, 4u);
  EXPECT_TRUE(kv1.FindWarp(2).Empty());

  // A default WarpSlice is an empty warp — the replay's placeholder.
  const trace::WarpSlice empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.NumInsts(), 0u);
}

TEST(TraceStoreIo, RoundTripIsIdentical) {
  const auto store = Recorded("P-BICG");

  const std::string bytes = trace::SaveTraceToString(*store);
  const auto loaded = trace::LoadTraceFromString(bytes);
  EXPECT_TRUE(*loaded == *store);

  // Stream variants agree with the string variants.
  std::ostringstream os;
  trace::SaveTrace(*store, os);
  EXPECT_EQ(os.str(), bytes);
  std::istringstream is(os.str());
  EXPECT_TRUE(*trace::LoadTrace(is) == *store);

  // The varint-delta encoding beats both raw columns and the legacy
  // AoS form on disk.
  EXPECT_LT(bytes.size(), store->FootprintBytes());
}

TEST(TraceStoreIo, EmptyAndHandBuiltStoresRoundTrip) {
  const auto empty = trace::BuildStore(std::vector<trace::KernelTrace>{});
  EXPECT_TRUE(*trace::LoadTraceFromString(trace::SaveTraceToString(*empty)) ==
              *empty);

  // Unaligned hand-built addresses survive losslessly (the format
  // encodes raw address deltas, not block indices).
  trace::KernelTrace kt;
  kt.name = "odd";
  kt.warps.push_back(MakeWarp(0, 0, {{1, AccessType::kStore, 7, {3, 1}}}));
  const auto store = trace::BuildStore({kt});
  EXPECT_TRUE(*trace::LoadTraceFromString(trace::SaveTraceToString(*store)) ==
              *store);
}

TEST(TraceStoreIo, RejectsMalformedFiles) {
  const auto store = Recorded("P-MVT");
  const std::string good = trace::SaveTraceToString(*store);

  // Bad magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(trace::LoadTraceFromString(bad_magic), std::runtime_error);

  // Unknown version.
  std::string bad_version = good;
  bad_version[8] = 99;
  EXPECT_THROW(trace::LoadTraceFromString(bad_version), std::runtime_error);

  // Truncation at every interesting boundary.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, good.size() / 2,
        good.size() - 1}) {
    EXPECT_THROW(trace::LoadTraceFromString(good.substr(0, n)),
                 std::runtime_error)
        << "truncated to " << n << " bytes";
  }

  // A flipped payload byte fails the checksum.
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 0x40;
  EXPECT_THROW(trace::LoadTraceFromString(corrupt), std::runtime_error);

  // Trailing garbage after the checksum.
  EXPECT_THROW(trace::LoadTraceFromString(good + "x"), std::runtime_error);
}

// Regression for the crash-tolerance contract: a trace file cut short
// at ANY point — here every 1KiB boundary, the granularity a torn
// write or partial copy actually produces — must be rejected whole,
// never partially loaded. (Historically only a handful of hand-picked
// prefixes were checked.)
TEST(TraceStoreIo, RejectsTruncationAtEveryKibibyteBoundary) {
  const auto store = Recorded("P-MVT");
  const std::string good = trace::SaveTraceToString(*store);
  ASSERT_GT(good.size(), 4096u)
      << "trace too small to exercise multiple 1KiB cuts";
  for (std::size_t n = 0; n < good.size(); n += 1024) {
    EXPECT_THROW(trace::LoadTraceFromString(good.substr(0, n)),
                 std::runtime_error)
        << "truncated to " << n << " of " << good.size() << " bytes";
  }
  // And the last byte, the checksum's final line of defence.
  EXPECT_THROW(trace::LoadTraceFromString(good.substr(0, good.size() - 1)),
               std::runtime_error);
}

// SaveTraceFile publishes atomically (temp + rename): the round trip
// is exact, no temp sibling survives, and a file that *was* torn on
// disk is rejected by the loader.
TEST(TraceStoreIo, FileSaveIsAtomicAndTornFilesAreRejected) {
  const auto store = Recorded("P-BICG");
  const std::string dir = ::testing::TempDir() + "dcrm_trace_atomic";
  EnsureDir(dir);
  const std::string path = dir + "/trace.bin";

  trace::SaveTraceFile(*store, path);
  EXPECT_TRUE(*trace::LoadTraceFile(path) == *store);
  for (const std::string& name : ListDir(dir)) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos)
        << "orphaned temp file: " << name;
  }

  const std::string good = ReadFileToString(path);
  WriteFileAtomic(path, good.substr(0, good.size() / 2));
  EXPECT_THROW(trace::LoadTraceFile(path), std::runtime_error);

  // Overwriting heals it — rename replaces the torn file in one step.
  trace::SaveTraceFile(*store, path);
  EXPECT_TRUE(*trace::LoadTraceFile(path) == *store);
}

TEST(TraceStoreFootprint, ColumnarHalvesTheLegacyBytes) {
  // Streaming apps coalesce nearly every load into one transaction, so
  // the legacy 40-byte WarpMemInst + heap vector per instruction is
  // dominated by overhead the columns do not pay.
  const auto store = Recorded("P-BICG");
  const auto legacy = trace::ToKernelTraces(*store);
  const std::uint64_t aos = trace::LegacyFootprintBytes(legacy);
  EXPECT_GE(aos, 2 * store->FootprintBytes())
      << "AoS " << aos << "B vs columnar " << store->FootprintBytes() << "B";
}

TEST(TraceStoreValidation, FromColumnsRejectsRaggedColumns) {
  trace::KernelTrace kt;
  kt.warps.push_back(MakeWarp(0, 0, {{1, AccessType::kLoad, 32, {0}}}));
  const auto store = trace::BuildStore({kt});

  // Prefix array not ending at the pool size.
  auto cols = store->columns();
  cols.inst_block_begin.back() += 1;
  EXPECT_THROW(trace::TraceStore::FromColumns(cols), std::invalid_argument);

  // Kernel warp ranges must tile the warp columns.
  cols = store->columns();
  cols.kernels[0].warp_end = 0;
  EXPECT_THROW(trace::TraceStore::FromColumns(cols), std::invalid_argument);

  // Mismatched per-inst column lengths.
  cols = store->columns();
  cols.inst_lanes.push_back(1);
  EXPECT_THROW(trace::TraceStore::FromColumns(cols), std::invalid_argument);
}

}  // namespace
}  // namespace dcrm
