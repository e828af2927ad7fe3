#include "trace/trace_store.h"

#include <algorithm>
#include <limits>
#include <string>
#include <stdexcept>

namespace dcrm::trace {

namespace {

[[noreturn]] void Malformed(const std::string& what) {
  throw std::invalid_argument("TraceStore: " + what);
}

// A prefix array must start at 0, end at the column it indexes, and
// never step backwards.
void CheckPrefix(const std::vector<std::uint32_t>& prefix,
                 std::size_t owners, std::size_t indexed,
                 const char* name) {
  if (prefix.size() != owners + 1) {
    Malformed(std::string(name) + " prefix size mismatch");
  }
  if (prefix.front() != 0 || prefix.back() != indexed) {
    Malformed(std::string(name) + " prefix does not span the column");
  }
  for (std::size_t i = 0; i + 1 < prefix.size(); ++i) {
    if (prefix[i] > prefix[i + 1]) {
      Malformed(std::string(name) + " prefix decreases");
    }
  }
}

}  // namespace

TraceStore::TraceStore(Columns cols) : cols_(std::move(cols)) {
  kernel_totals_.resize(cols_.kernels.size());
  for (std::size_t k = 0; k < cols_.kernels.size(); ++k) {
    const KernelMeta& m = cols_.kernels[k];
    KernelTotals& t = kernel_totals_[k];
    for (std::uint32_t w = m.warp_begin; w < m.warp_end; ++w) {
      const std::uint32_t i0 = cols_.warp_inst_begin[w];
      const std::uint32_t i1 = cols_.warp_inst_begin[w + 1];
      t.mem_insts += i1 - i0;
      for (std::uint32_t i = i0; i < i1; ++i) {
        const std::uint64_t txns =
            cols_.inst_block_begin[i + 1] - cols_.inst_block_begin[i];
        t.transactions += txns;
        if (cols_.inst_is_store[i] != 0) t.store_transactions += txns;
      }
    }
    total_insts_ += t.mem_insts;
    total_txns_ += t.transactions;
    total_store_txns_ += t.store_transactions;
  }
}

std::shared_ptr<const TraceStore> TraceStore::FromColumns(Columns cols) {
  const std::size_t warps = cols.warp_id.size();
  const std::size_t insts = cols.inst_pc.size();
  const std::size_t blocks = cols.blocks.size();
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (warps >= kMax || insts >= kMax || blocks >= kMax) {
    Malformed("column exceeds 32-bit index range");
  }
  if (cols.warp_cta.size() != warps) Malformed("warp_cta size mismatch");
  if (cols.inst_is_store.size() != insts || cols.inst_lanes.size() != insts) {
    Malformed("instruction column size mismatch");
  }
  CheckPrefix(cols.warp_inst_begin, warps, insts, "warp_inst_begin");
  CheckPrefix(cols.inst_block_begin, insts, blocks, "inst_block_begin");
  // Kernel warp ranges must tile [0, warps) in order: consumers rely
  // on kernel k's warps being exactly its contiguous slice, found by
  // binary search over its ascending ids.
  std::uint32_t expect = 0;
  for (const KernelMeta& m : cols.kernels) {
    if (m.warp_begin != expect || m.warp_end < m.warp_begin ||
        m.warp_end > warps) {
      Malformed("kernel warp ranges do not tile the warp column");
    }
    for (std::uint32_t w = m.warp_begin + 1; w < m.warp_end; ++w) {
      if (cols.warp_id[w] <= cols.warp_id[w - 1]) {
        Malformed("warp ids do not strictly ascend within a kernel");
      }
    }
    expect = m.warp_end;
  }
  if (expect != warps) {
    Malformed("kernel warp ranges do not cover the warp column");
  }
  for (const TraceEdge& e : cols.edges) {
    if (e.producer >= cols.kernels.size() ||
        e.consumer >= cols.kernels.size()) {
      Malformed("edge endpoint out of kernel range");
    }
    if (e.producer == e.consumer) Malformed("self-edge");
    if (e.object.empty()) Malformed("edge without an object");
  }
  return std::shared_ptr<const TraceStore>(new TraceStore(std::move(cols)));
}

std::uint64_t TraceStore::FootprintBytes() const {
  std::uint64_t bytes = 0;
  for (const KernelMeta& m : cols_.kernels) {
    bytes += sizeof(KernelMeta) + m.name.size();
  }
  bytes += cols_.warp_id.size() * sizeof(WarpId);
  bytes += cols_.warp_cta.size() * sizeof(std::uint32_t);
  bytes += cols_.warp_inst_begin.size() * sizeof(std::uint32_t);
  bytes += cols_.inst_pc.size() * sizeof(Pc);
  bytes += cols_.inst_is_store.size() * sizeof(std::uint8_t);
  bytes += cols_.inst_lanes.size() * sizeof(std::uint32_t);
  bytes += cols_.inst_block_begin.size() * sizeof(std::uint32_t);
  bytes += cols_.blocks.size() * sizeof(std::uint32_t);
  for (const TraceEdge& e : cols_.edges) {
    bytes += sizeof(TraceEdge) + e.object.size();
  }
  return bytes;
}

WarpSlice KernelView::FindWarp(WarpId id) const {
  const TraceStore::Columns& c = store_->cols_;
  const TraceStore::KernelMeta& m = c.kernels[index_];
  const auto end = c.warp_id.begin() + m.warp_end;
  const auto it = std::lower_bound(c.warp_id.begin() + m.warp_begin, end, id);
  if (it == end || *it != id) return WarpSlice{};
  return WarpSlice(store_, static_cast<std::uint32_t>(it - c.warp_id.begin()));
}

void TraceStore::Columns::PushBlock(Addr a) {
  if (a % kBlockSize != 0 ||
      a / kBlockSize > std::numeric_limits<std::uint32_t>::max()) {
    Malformed("block address " + std::to_string(a) +
              " is not a 128B-aligned 32-bit block index");
  }
  blocks.push_back(static_cast<std::uint32_t>(a / kBlockSize));
}

std::uint64_t LegacyFootprintBytes(const TraceStore& store) {
  // sizeof of {name string, node id, launch config, warp vector},
  // {warp id, cta, instruction vector} and {pc, type, active lanes,
  // block vector} under gcc on x86-64.
  constexpr std::uint64_t kKernelBytes = 88;
  constexpr std::uint64_t kWarpBytes = 32;
  constexpr std::uint64_t kInstBytes = 40;
  std::uint64_t bytes = 0;
  for (const TraceStore::KernelMeta& m : store.columns().kernels) {
    bytes += kKernelBytes + m.name.size();
  }
  return bytes + kWarpBytes * store.NumWarps() +
         kInstBytes * store.NumInsts() +
         sizeof(Addr) * std::uint64_t{store.NumBlockAddrs()};
}

std::string KernelStatsLabel(const TraceStore& store, std::uint32_t kernel) {
  const KernelView kv = store.Kernel(kernel);
  if (kv.name().empty()) return "kernel#" + std::to_string(kernel);
  // A launch name reused by several nodes (chunked GEMMs of a graph
  // app) is keyed by its graph node id so the rows stay distinct;
  // unique names keep the bare label legacy consumers expect.
  std::uint32_t with_name = 0;
  for (std::uint32_t j = 0; j < store.NumKernels(); ++j) {
    if (store.Kernel(j).name() == kv.name()) ++with_name;
  }
  if (with_name <= 1) return kv.name();
  return kv.name() + "@" +
         std::to_string(store.columns().kernels[kernel].node_id);
}

std::vector<KernelStats> PerKernelStats(const TraceStore& store) {
  std::vector<KernelStats> out;
  out.reserve(store.NumKernels());
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    const KernelView kv = store.Kernel(k);
    KernelStats s;
    s.label = KernelStatsLabel(store, k);
    s.node = store.columns().kernels[k].node_id;
    s.warps = kv.NumWarps();
    s.mem_insts = kv.TotalMemInsts();
    s.transactions = kv.TotalTransactions();
    s.store_transactions = kv.TotalStoreTransactions();
    out.push_back(std::move(s));
  }
  return out;
}

void WriteKernelStatsText(const TraceStore& store, std::ostream& os) {
  for (const KernelStats& s : PerKernelStats(store)) {
    os << "  kernel " << s.label << ": warps " << s.warps << ", mem insts "
       << s.mem_insts << ", txns " << s.transactions << " ("
       << s.store_transactions << " stores)\n";
  }
}

void WriteKernelStatsCsv(const TraceStore& store, std::ostream& os) {
  os << "kernel,node,warps,mem_insts,transactions,store_transactions\n";
  for (const KernelStats& s : PerKernelStats(store)) {
    os << s.label << ',' << s.node << ',' << s.warps << ',' << s.mem_insts
       << ',' << s.transactions << ',' << s.store_transactions << '\n';
  }
}

}  // namespace dcrm::trace
