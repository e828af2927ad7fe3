// TraceStore tests: the profiling recorder's cached totals against a
// cursor walk on all fifteen applications, cursor iteration order,
// FindWarp semantics, binary serialization round trips,
// malformed-file rejection, and the columnar footprint win.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "common/binio.h"
#include "common/file_util.h"
#include "hand_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace dcrm {
namespace {

// The store the profiling driver records for `name` at tiny scale.
std::shared_ptr<const trace::TraceStore> Recorded(const std::string& name) {
  auto app = apps::MakeApp(name, apps::AppScale::kTiny);
  return apps::ProfileApp(*app, sim::GpuConfig{}).trace_store;
}

// The store's cached per-kernel and whole-store totals against counts
// taken by walking it the way every consumer iterates.
void ExpectTotalsMatchWalk(const trace::TraceStore& store,
                           const std::string& context) {
  std::uint64_t all_insts = 0, all_txns = 0, all_stores = 0;
  std::uint64_t all_warps = 0;
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    const trace::KernelView kv = store.Kernel(k);
    std::uint64_t insts = 0, txns = 0, stores = 0;
    for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
      const trace::WarpSlice ws = kv.Warp(w);
      EXPECT_EQ(kv.FindWarp(ws.warp()).warp(), ws.warp()) << context;
      insts += ws.NumInsts();
      for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
        const trace::InstView iv = ws.Inst(i);
        txns += iv.blocks.size();
        if (iv.type == AccessType::kStore) stores += iv.blocks.size();
      }
    }
    EXPECT_EQ(kv.TotalMemInsts(), insts) << context;
    EXPECT_EQ(kv.TotalTransactions(), txns) << context;
    EXPECT_EQ(kv.TotalStoreTransactions(), stores) << context;
    all_insts += insts;
    all_txns += txns;
    all_stores += stores;
    all_warps += kv.NumWarps();
  }
  EXPECT_EQ(store.NumWarps(), all_warps) << context;
  EXPECT_EQ(store.NumInsts(), all_insts) << context;
  EXPECT_EQ(store.NumBlockAddrs(), all_txns) << context;
  EXPECT_EQ(store.TotalMemInsts(), all_insts) << context;
  EXPECT_EQ(store.TotalTransactions(), all_txns) << context;
  EXPECT_EQ(store.TotalStoreTransactions(), all_stores) << context;
}

TEST(TraceStoreBuild, EquivalentToLegacyOnAllApps) {
  for (const auto& name : apps::AllAppNames()) {
    const auto recorded = Recorded(name);
    ExpectTotalsMatchWalk(*recorded, name);
    EXPECT_TRUE(*trace::LoadTraceFromString(
                    trace::SaveTraceToString(*recorded)) == *recorded)
        << name;
  }
}

TEST(TraceStoreCursor, IterationPreservesRecordedOrder) {
  const auto store = test::HandTrace()
                         .Kernel({}, "first")
                         .Warp(0, 0)
                         .Inst(1, AccessType::kLoad, 32, {0, 128})
                         .Inst(2, AccessType::kStore, 16, {256})
                         .Warp(3, 1)
                         .Inst(4, AccessType::kLoad, 32, {384})
                         .Kernel({}, "second")
                         .Warp(7, 2)
                         .Inst(9, AccessType::kLoad, 8, {512, 640})
                         .Build();

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
  // Ascending warp ids (every store's invariant): binary search.
  const auto store = test::HandTrace()
                         .Kernel()
                         .Warp(2, 0).Load(1, {0})
                         .Warp(5, 1).Load(2, {128})
                         .Warp(9, 2).Load(3, {256})
                         .Build();
  const trace::KernelView kv0 = store->Kernel(0);
  EXPECT_EQ(kv0.FindWarp(5).Inst(0).pc, 2u);
  EXPECT_EQ(kv0.FindWarp(9).cta(), 2u);
  EXPECT_TRUE(kv0.FindWarp(3).Empty());   // absent id
  EXPECT_TRUE(kv0.FindWarp(100).Empty());

  // Descending or repeated ids within a kernel are refused; the same
  // id in two kernels is fine.
  test::HandTrace unsorted;
  unsorted.Kernel().Warp(8, 0).Load(4, {0}).Warp(1, 1).Load(5, {128});
  EXPECT_THROW(unsorted.Build(), std::invalid_argument);
  test::HandTrace repeated;
  repeated.Kernel().Warp(1, 0).Load(4, {0}).Warp(1, 0).Load(5, {128});
  EXPECT_THROW(repeated.Build(), std::invalid_argument);
  const auto two = test::HandTrace()
                       .Kernel().Warp(1).Load(4, {0})
                       .Kernel().Warp(1).Load(5, {128})
                       .Build();
  EXPECT_EQ(two->Kernel(1).FindWarp(1).Inst(0).pc, 5u);

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

  // The varint-delta encoding beats the raw columns on disk.
  EXPECT_LT(bytes.size(), store->FootprintBytes());
}

TEST(TraceStoreIo, EmptyAndHandBuiltStoresRoundTrip) {
  const auto empty = test::HandTrace().Build();
  EXPECT_TRUE(*trace::LoadTraceFromString(trace::SaveTraceToString(*empty)) ==
              *empty);

  const auto store = test::HandTrace()
                         .Kernel({}, "odd")
                         .Warp(0)
                         .Inst(1, AccessType::kStore, 7, {384})
                         .Inst(2, AccessType::kLoad, 3, {384})
                         .Build();
  const std::string bytes = trace::SaveTraceToString(*store);
  EXPECT_TRUE(*trace::LoadTraceFromString(bytes) == *store);

  // The pool holds 32-bit block indices: an unaligned address, or one
  // whose index needs more than 32 bits, is refused on the way in.
  trace::TraceStore::Columns cols;
  EXPECT_THROW(cols.PushBlock(3), std::invalid_argument);
  EXPECT_THROW(cols.PushBlock(kBlockSize + 1), std::invalid_argument);
  EXPECT_THROW(cols.PushBlock((Addr{1} << 32) * kBlockSize),
               std::invalid_argument);
  EXPECT_TRUE(cols.blocks.empty());

  // The file format still carries raw address deltas, so a file can
  // name an unaligned address; the loader refuses it. The pool is the
  // last section of a version-1 file: its final delta (384 -> 384, one
  // zero byte) becomes 384 -> 387.
  std::string body = bytes.substr(0, bytes.size() - 8);
  ASSERT_EQ(body.back(), '\0');
  body.pop_back();
  bin::PutVarint(body, bin::ZigZag(3));
  bin::AppendChecksum(body);
  EXPECT_THROW(trace::LoadTraceFromString(body), std::runtime_error);
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
  // a nested-AoS layout's 40-byte instruction struct with its own heap
  // vector is dominated by overhead the columns do not pay.
  const auto store = Recorded("P-BICG");
  const std::uint64_t aos = trace::LegacyFootprintBytes(*store);
  EXPECT_GE(aos, 2 * store->FootprintBytes())
      << "AoS " << aos << "B vs columnar " << store->FootprintBytes() << "B";
  // The closed form: 88 B + name per kernel, 32 B per warp, 40 B per
  // instruction, 8 B per block address.
  const auto hand = test::HandTrace()
                        .Kernel({}, "abc")
                        .Warp(0).Load(1, {0, 128}).Store(2, {256})
                        .Warp(1).Load(3, {384})
                        .Kernel()
                        .Build();
  EXPECT_EQ(trace::LegacyFootprintBytes(*hand),
            2 * 88u + 3 + 2 * 32u + 3 * 40u + 4 * 8u);
}

TEST(TraceStoreValidation, FromColumnsRejectsRaggedColumns) {
  const auto store = test::HandTrace().Kernel().Warp(0).Load(1, {0}).Build();

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
