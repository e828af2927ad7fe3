#include "trace/graph_stats.h"

#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace dcrm::trace {

namespace {

// Block sets of one kernel, split by access direction. Built lazily:
// only kernels that appear on an edge pay the walk.
struct KernelBlocks {
  std::unordered_set<Addr> stored;
  std::unordered_set<Addr> loaded;
};

KernelBlocks CollectBlocks(const TraceStore& store, std::uint32_t kernel) {
  KernelBlocks out;
  const KernelView kv = store.Kernel(kernel);
  for (std::uint32_t w = 0; w < kv.NumWarps(); ++w) {
    const WarpSlice ws = kv.Warp(w);
    for (std::uint32_t i = 0; i < ws.NumInsts(); ++i) {
      const InstView inst = ws.Inst(i);
      auto& set =
          inst.type == AccessType::kStore ? out.stored : out.loaded;
      for (const Addr a : inst.blocks) set.insert(a);
    }
  }
  return out;
}

}  // namespace

std::vector<EdgeReuse> ComputeEdgeReuse(const TraceStore& store) {
  std::vector<EdgeReuse> out;
  const auto& edges = store.columns().edges;
  if (edges.empty()) return out;
  out.reserve(edges.size());

  std::unordered_map<std::uint32_t, KernelBlocks> cache;
  const auto blocks_of = [&](std::uint32_t k) -> const KernelBlocks& {
    auto it = cache.find(k);
    if (it == cache.end()) {
      it = cache.emplace(k, CollectBlocks(store, k)).first;
    }
    return it->second;
  };

  for (const TraceStore::TraceEdge& e : edges) {
    EdgeReuse r;
    r.producer = e.producer;
    r.consumer = e.consumer;
    r.producer_label = KernelStatsLabel(store, e.producer);
    r.consumer_label = KernelStatsLabel(store, e.consumer);
    r.object = e.object;
    const KernelBlocks& prod = blocks_of(e.producer);
    const KernelBlocks& cons = blocks_of(e.consumer);
    // Iterate the smaller set against the larger.
    const auto& small =
        prod.stored.size() <= cons.loaded.size() ? prod.stored : cons.loaded;
    const auto& large =
        prod.stored.size() <= cons.loaded.size() ? cons.loaded : prod.stored;
    for (const Addr a : small) {
      if (large.contains(a)) ++r.reused_blocks;
    }
    r.reused_bytes = r.reused_blocks * kBlockSize;
    out.push_back(std::move(r));
  }
  return out;
}

void WriteGraphText(const TraceStore& store, std::ostream& os) {
  const auto reuse = ComputeEdgeReuse(store);
  os << "kernel graph: " << store.NumKernels() << " kernels, "
     << reuse.size() << " data edges\n";
  for (std::uint32_t k = 0; k < store.NumKernels(); ++k) {
    os << "  node " << store.columns().kernels[k].node_id << "  "
       << KernelStatsLabel(store, k) << "  warps="
       << store.Kernel(k).NumWarps() << "\n";
  }
  if (reuse.empty()) {
    os << "  (no data edges: single-kernel or chain app)\n";
    return;
  }
  for (const EdgeReuse& r : reuse) {
    os << "  " << r.producer_label << " -> " << r.consumer_label << "  ["
       << r.object << "]  reused_blocks=" << r.reused_blocks
       << " reused_bytes=" << r.reused_bytes << "\n";
  }
}

void WriteGraphCsv(const TraceStore& store, std::ostream& os) {
  os << "producer,consumer,object,reused_blocks,reused_bytes\n";
  for (const EdgeReuse& r : ComputeEdgeReuse(store)) {
    os << r.producer_label << ',' << r.consumer_label << ',' << r.object
       << ',' << r.reused_blocks << ',' << r.reused_bytes << '\n';
  }
}

}  // namespace dcrm::trace
