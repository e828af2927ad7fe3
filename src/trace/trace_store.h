// Columnar, immutable trace artifact shared by every trace consumer.
//
// Profiling records straight into these columns (trace_builder.h).
// The nested-AoS trace::KernelTrace (trace.h) remains for hand-built
// traces, the RMT baseline and the benches, which convert with
// BuildStore / ToKernelTraces. It is a poor shape to hand around:
// every consumer (timing replay, static analyzer, access profiling,
// fault campaigns) would re-walk it with three pointer indirections
// per instruction, and a parallel campaign's workers would each keep
// a full copy alive. The store's structure-of-arrays columns:
//
//   kernels:  name, launch config, [warp_begin, warp_end) range
//   warps:    id, cta, inst_begin prefix array (size NumWarps()+1)
//   insts:    pc, type, active lanes, block_begin prefix array
//   blocks:   one contiguous pool of transaction addresses, stored as
//             32-bit block indices (address / 128) whenever every
//             address is 128B-aligned — coalescing guarantees that,
//             so recorded traces always pack; BlockSpan decodes back
//             to Addr on the fly
//
// A store is built once (TraceBuilder, BuildStore or
// trace_io::LoadTrace), is immutable afterwards, and is passed around
// as std::shared_ptr<const TraceStore> — parallel campaign workers all
// read the same bytes, which is safe precisely because nothing can
// write them (the determinism contract of fault/parallel_campaign.h
// needs every worker to see identical traces; sharing one immutable
// object makes that true by construction instead of by copy).
//
// Iteration order is recorded order — kernels in launch order, warps
// in ascending id order, instructions and blocks in lockstep order —
// so replay schedules, analyzer findings and campaign statistics are
// identical whichever way a store was made.
//
// Consumers iterate through the zero-allocation cursor API
// (KernelView -> WarpSlice -> InstView); no per-step heap traffic, and
// an instruction's blocks come back as a span into the shared pool.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "exec/kernel.h"
#include "trace/trace.h"

namespace dcrm::trace {

class TraceStore;
class KernelView;

// Read-only view over one instruction's slice of the block pool.
// The pool stores 32-bit block indices (address / 128) whenever every
// address is 128B-aligned — the coalescer's invariant, so effectively
// always — halving the dominant column; unaligned hand-built traces
// fall back to raw 64-bit addresses. The view decodes on the fly, so
// consumers still iterate plain Addr values.
class BlockSpan {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Addr;
    using difference_type = std::ptrdiff_t;
    using pointer = const Addr*;
    using reference = Addr;

    iterator() = default;
    Addr operator*() const {
      return packed_ != nullptr
                 ? static_cast<Addr>(packed_[i_]) * kBlockSize
                 : wide_[i_];
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class BlockSpan;
    iterator(const std::uint32_t* packed, const Addr* wide, std::size_t i)
        : packed_(packed), wide_(wide), i_(i) {}

    const std::uint32_t* packed_ = nullptr;
    const Addr* wide_ = nullptr;
    std::size_t i_ = 0;
  };

  BlockSpan() = default;

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  Addr operator[](std::size_t i) const {
    return packed_ != nullptr ? static_cast<Addr>(packed_[i]) * kBlockSize
                              : wide_[i];
  }
  Addr front() const { return (*this)[0]; }
  iterator begin() const { return iterator(packed_, wide_, 0); }
  iterator end() const { return iterator(packed_, wide_, n_); }

 private:
  friend class WarpSlice;
  BlockSpan(const std::uint32_t* packed, const Addr* wide, std::size_t n)
      : packed_(packed), wide_(wide), n_(n) {}

  const std::uint32_t* packed_ = nullptr;
  const Addr* wide_ = nullptr;
  std::size_t n_ = 0;
};

// One warp-level memory instruction, viewed in place.
struct InstView {
  Pc pc = 0;
  AccessType type = AccessType::kLoad;
  std::uint32_t active_lanes = 0;
  // Unique 128B-aligned transaction addresses, in recorded (first
  // touch) order — a window into the store's block pool.
  BlockSpan blocks;
};

// Cursor over one warp's instruction range. Default-constructed, it is
// a warp with no memory instructions — the timing simulator uses that
// for warp slots the trace never recorded (they occupy occupancy but
// issue nothing), replacing the old side-allocated empty WarpTraces.
class WarpSlice {
 public:
  WarpSlice() = default;

  WarpId warp() const { return warp_; }
  std::uint32_t cta() const { return cta_; }
  std::uint32_t NumInsts() const { return inst_end_ - inst_begin_; }
  bool Empty() const { return inst_begin_ == inst_end_; }
  InstView Inst(std::uint32_t i) const;  // i < NumInsts()

 private:
  friend class KernelView;

  WarpSlice(const TraceStore* store, std::uint32_t warp_index);

  const TraceStore* store_ = nullptr;
  std::uint32_t inst_begin_ = 0;
  std::uint32_t inst_end_ = 0;
  WarpId warp_ = 0;
  std::uint32_t cta_ = 0;
};

// Cursor over one kernel: its traced warps and build-time cached
// totals (the analyzer and the benches query totals repeatedly; a
// store never re-scans to answer them).
class KernelView {
 public:
  const std::string& name() const;
  const exec::LaunchConfig& cfg() const;
  std::uint32_t index() const { return index_; }

  std::uint32_t NumWarps() const;
  WarpSlice Warp(std::uint32_t i) const;  // i-th traced warp
  // Warp with the given grid-global id; empty slice if the warp never
  // touched memory. Binary search when warp ids ascend (every
  // recorded trace), linear otherwise (hand-built stores).
  WarpSlice FindWarp(WarpId id) const;

  std::uint64_t TotalMemInsts() const;
  std::uint64_t TotalTransactions() const;
  std::uint64_t TotalStoreTransactions() const;

 private:
  friend class TraceStore;

  KernelView(const TraceStore* store, std::uint32_t index)
      : store_(store), index_(index) {}

  const TraceStore* store_;
  std::uint32_t index_;
};

class TraceStore {
 public:
  struct KernelMeta {
    std::string name;
    exec::LaunchConfig cfg;
    // Range into the warp columns.
    std::uint32_t warp_begin = 0;
    std::uint32_t warp_end = 0;
    // Kernel-graph node id of this launch. Equal to the kernel's index
    // for chain apps and hand-built traces; may
    // differ when a DAG's topological order departs from node ids.
    std::uint32_t node_id = 0;

    friend bool operator==(const KernelMeta& a, const KernelMeta& b) {
      return a.name == b.name && a.cfg.grid == b.cfg.grid &&
             a.cfg.block == b.cfg.block && a.warp_begin == b.warp_begin &&
             a.warp_end == b.warp_end && a.node_id == b.node_id;
    }
  };

  // One producer → consumer data dependency between two store kernels
  // (indices into the kernels column), labeled with the object that
  // flows along it. A chain's ordering edges are NOT recorded — only
  // genuine data edges — so chain apps' stores carry none and their
  // serialized bytes (and campaign fingerprints) are unchanged.
  struct TraceEdge {
    std::uint32_t producer = 0;
    std::uint32_t consumer = 0;
    std::string object;

    // Ordered by (producer, consumer, object), the order stores keep.
    friend auto operator<=>(const TraceEdge&, const TraceEdge&) = default;
  };

  // The raw columns. The only way to make a store is to hand a filled
  // Columns to FromColumns, which validates the cross-column indices
  // and computes the cached totals; there are no mutators afterwards.
  struct Columns {
    std::vector<KernelMeta> kernels;
    // Per-warp columns (size NumWarps(); inst_begin starts with a
    // sentinel 0 so warp w's instructions are
    // [inst_begin[w], inst_begin[w+1])).
    std::vector<WarpId> warp_id;
    std::vector<std::uint32_t> warp_cta;
    std::vector<std::uint32_t> warp_inst_begin = {0};
    // Per-instruction columns (block_begin carries the same sentinel).
    std::vector<Pc> inst_pc;
    std::vector<std::uint8_t> inst_is_store;
    std::vector<std::uint32_t> inst_lanes;
    std::vector<std::uint32_t> inst_block_begin = {0};
    // One contiguous transaction-address pool. At most one of the two
    // vectors is non-empty: packed 32-bit block indices when every
    // address is 128B-aligned and its index fits 32 bits (true for all
    // recorded traces), raw 64-bit addresses otherwise. Fill through
    // PushBlock; read through NumBlocks()/BlockAt().
    std::vector<std::uint32_t> blocks_packed;
    std::vector<Addr> blocks_wide;
    // Producer → consumer data edges, sorted (producer, consumer,
    // object). Empty for chain apps and hand-built traces.
    std::vector<TraceEdge> edges;

    std::size_t NumBlocks() const {
      return blocks_packed.empty() ? blocks_wide.size()
                                   : blocks_packed.size();
    }
    Addr BlockAt(std::size_t i) const {
      return blocks_packed.empty()
                 ? blocks_wide[i]
                 : static_cast<Addr>(blocks_packed[i]) * kBlockSize;
    }
    // Appends one address to the pool: packed while every address so
    // far packs, all of them raw from the first one that does not.
    void PushBlock(Addr a);

    friend bool operator==(const Columns&, const Columns&) = default;
  };

  // Validates and freezes the columns. Throws std::invalid_argument on
  // any cross-column inconsistency (ragged prefix arrays, kernel warp
  // ranges that do not tile the warp columns, counts past 2^32-1).
  static std::shared_ptr<const TraceStore> FromColumns(Columns cols);

  std::uint32_t NumKernels() const {
    return static_cast<std::uint32_t>(cols_.kernels.size());
  }
  KernelView Kernel(std::uint32_t k) const { return KernelView(this, k); }

  std::uint32_t NumWarps() const {
    return static_cast<std::uint32_t>(cols_.warp_id.size());
  }
  std::uint32_t NumInsts() const {
    return static_cast<std::uint32_t>(cols_.inst_pc.size());
  }
  std::uint32_t NumBlockAddrs() const {
    return static_cast<std::uint32_t>(cols_.NumBlocks());
  }

  // Whole-store totals, cached at build time.
  std::uint64_t TotalMemInsts() const { return total_insts_; }
  std::uint64_t TotalTransactions() const { return total_txns_; }
  std::uint64_t TotalStoreTransactions() const { return total_store_txns_; }

  // Bytes of the columnar payload (arrays + kernel metadata). The
  // apples-to-apples legacy number is LegacyFootprintBytes below.
  std::uint64_t FootprintBytes() const;

  const Columns& columns() const { return cols_; }

  friend bool operator==(const TraceStore& a, const TraceStore& b) {
    return a.cols_ == b.cols_;
  }

 private:
  friend class WarpSlice;
  friend class KernelView;

  struct KernelTotals {
    std::uint64_t mem_insts = 0;
    std::uint64_t transactions = 0;
    std::uint64_t store_transactions = 0;
    bool warps_sorted = true;  // enables binary-search FindWarp
  };

  explicit TraceStore(Columns cols);

  Columns cols_;
  std::vector<KernelTotals> kernel_totals_;
  std::uint64_t total_insts_ = 0;
  std::uint64_t total_txns_ = 0;
  std::uint64_t total_store_txns_ = 0;
};

// Flattens hand-built kernel traces into a store, preserving
// kernel, warp, instruction and block order exactly. A trace with
// node == kNoNode gets its kernel index as node_id. `edges` carries
// the graph's data edges (kernel indices), if any.
std::shared_ptr<const TraceStore> BuildStore(
    std::span<const KernelTrace> kernels,
    std::vector<TraceStore::TraceEdge> edges = {});
std::shared_ptr<const TraceStore> BuildStore(
    const std::vector<KernelTrace>& kernels,
    std::vector<TraceStore::TraceEdge> edges = {});

// Reconstructs the AoS representation (round-trip inverse of
// BuildStore); used by the RMT baseline transform, the benches and
// equivalence tests.
std::vector<KernelTrace> ToKernelTraces(const TraceStore& store);

// In-memory bytes of the legacy AoS representation (struct sizes plus
// owned heap buffers, counted at size, not capacity — a conservative
// lower bound that ignores per-vector allocator overhead).
std::uint64_t LegacyFootprintBytes(std::span<const KernelTrace> kernels);

// Per-kernel statistics from the cached totals — the one shared helper
// behind `dcrm analyze` (text + CSV) and campaign result reporting.
// Rows are keyed on (graph node id, launch name): a name that appears
// on several launches (chunked GEMMs) is disambiguated as "name@node",
// so repeated kernels never collide into one indistinguishable row;
// unique names keep their bare label (legacy output unchanged).
struct KernelStats {
  std::string label;  // name, "name@node" when repeated, "kernel#N" unnamed
  std::uint32_t node = 0;  // graph node id
  std::uint32_t warps = 0;
  std::uint64_t mem_insts = 0;
  std::uint64_t transactions = 0;
  std::uint64_t store_transactions = 0;
};
std::vector<KernelStats> PerKernelStats(const TraceStore& store);
// Shared labeling rule (also used by the vulnerability per-kernel
// rollup): bare name when unique in the store, "name@node" when the
// name repeats, "kernel#index" when unnamed.
std::string KernelStatsLabel(const TraceStore& store, std::uint32_t kernel);
void WriteKernelStatsText(const TraceStore& store, std::ostream& os);
// CSV header: kernel,node,warps,mem_insts,transactions,store_transactions
void WriteKernelStatsCsv(const TraceStore& store, std::ostream& os);

// ---- inline cursor implementations (the replay hot path) ----

inline WarpSlice::WarpSlice(const TraceStore* store, std::uint32_t warp_index)
    : store_(store),
      inst_begin_(store->cols_.warp_inst_begin[warp_index]),
      inst_end_(store->cols_.warp_inst_begin[warp_index + 1]),
      warp_(store->cols_.warp_id[warp_index]),
      cta_(store->cols_.warp_cta[warp_index]) {}

inline InstView WarpSlice::Inst(std::uint32_t i) const {
  const TraceStore::Columns& c = store_->cols_;
  const std::uint32_t idx = inst_begin_ + i;
  InstView v;
  v.pc = c.inst_pc[idx];
  v.type = c.inst_is_store[idx] != 0 ? AccessType::kStore : AccessType::kLoad;
  v.active_lanes = c.inst_lanes[idx];
  const std::uint32_t b0 = c.inst_block_begin[idx];
  const std::uint32_t b1 = c.inst_block_begin[idx + 1];
  v.blocks = c.blocks_packed.empty()
                 ? BlockSpan(nullptr, c.blocks_wide.data() + b0, b1 - b0)
                 : BlockSpan(c.blocks_packed.data() + b0, nullptr, b1 - b0);
  return v;
}

inline const std::string& KernelView::name() const {
  return store_->cols_.kernels[index_].name;
}
inline const exec::LaunchConfig& KernelView::cfg() const {
  return store_->cols_.kernels[index_].cfg;
}
inline std::uint32_t KernelView::NumWarps() const {
  const auto& m = store_->cols_.kernels[index_];
  return m.warp_end - m.warp_begin;
}
inline WarpSlice KernelView::Warp(std::uint32_t i) const {
  return WarpSlice(store_, store_->cols_.kernels[index_].warp_begin + i);
}
inline std::uint64_t KernelView::TotalMemInsts() const {
  return store_->kernel_totals_[index_].mem_insts;
}
inline std::uint64_t KernelView::TotalTransactions() const {
  return store_->kernel_totals_[index_].transactions;
}
inline std::uint64_t KernelView::TotalStoreTransactions() const {
  return store_->kernel_totals_[index_].store_transactions;
}

}  // namespace dcrm::trace
