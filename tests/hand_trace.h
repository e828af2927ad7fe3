// Hand-built traces for tests: appends kernels, warps and warp-level
// memory instructions straight into TraceStore columns and freezes
// them with TraceStore::FromColumns.
//
//   const auto store = test::HandTrace()
//                          .Kernel(cfg, "k")
//                          .Warp(0).Load(1, {0, kBlockSize})
//                          .Warp(1).Store(2, {0})
//                          .Build();
//
// Each Warp() opens a warp of the last kernel and each Inst() appends
// to the last warp, so calls read in recorded order. Warp ids must
// ascend within a kernel and block addresses must be 128B-aligned, as
// in every recorded trace; Build() and Inst() throw otherwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_builder.h"
#include "trace/trace_store.h"

namespace dcrm::test {

class HandTrace {
 public:
  // Opens the next kernel. A kernel with node == kNoNode gets its
  // kernel index as graph node id.
  HandTrace& Kernel(const exec::LaunchConfig& cfg = {}, std::string name = {},
                    std::uint32_t node = trace::kNoNode) {
    trace::TraceStore::KernelMeta meta;
    meta.name = std::move(name);
    meta.cfg = cfg;
    meta.node_id = node == trace::kNoNode
                       ? static_cast<std::uint32_t>(cols_.kernels.size())
                       : node;
    meta.warp_begin = static_cast<std::uint32_t>(cols_.warp_id.size());
    meta.warp_end = meta.warp_begin;
    cols_.kernels.push_back(std::move(meta));
    return *this;
  }

  HandTrace& Warp(WarpId id, std::uint32_t cta = 0) {
    cols_.warp_id.push_back(id);
    cols_.warp_cta.push_back(cta);
    cols_.warp_inst_begin.push_back(cols_.warp_inst_begin.back());
    ++cols_.kernels.back().warp_end;
    return *this;
  }

  HandTrace& Inst(Pc pc, AccessType type, std::uint32_t lanes,
                  const std::vector<Addr>& blocks) {
    cols_.inst_pc.push_back(pc);
    cols_.inst_is_store.push_back(type == AccessType::kStore ? 1 : 0);
    cols_.inst_lanes.push_back(lanes);
    for (const Addr a : blocks) cols_.PushBlock(a);
    cols_.inst_block_begin.push_back(
        static_cast<std::uint32_t>(cols_.blocks.size()));
    ++cols_.warp_inst_begin.back();
    return *this;
  }
  // Full-warp shorthands.
  HandTrace& Load(Pc pc, const std::vector<Addr>& blocks) {
    return Inst(pc, AccessType::kLoad, kWarpSize, blocks);
  }
  HandTrace& Store(Pc pc, const std::vector<Addr>& blocks) {
    return Inst(pc, AccessType::kStore, kWarpSize, blocks);
  }

  // One kernel of `ctas` one-dimensional CTAs of `warps_per_cta` full
  // warps; `gen` appends warp `id`'s instructions.
  HandTrace& Grid(std::uint32_t ctas, std::uint32_t warps_per_cta,
                  const std::function<void(HandTrace&, WarpId)>& gen) {
    exec::LaunchConfig cfg;
    cfg.grid = {ctas, 1, 1};
    cfg.block = {warps_per_cta * kWarpSize, 1, 1};
    Kernel(cfg);
    for (std::uint32_t c = 0; c < ctas; ++c) {
      for (std::uint32_t w = 0; w < warps_per_cta; ++w) {
        const WarpId id = c * warps_per_cta + w;
        Warp(id, c);
        gen(*this, id);
      }
    }
    return *this;
  }

  // Freezes a copy of the columns, with the graph's data edges sorted
  // by (producer, consumer, object).
  std::shared_ptr<const trace::TraceStore> Build(
      std::vector<trace::TraceStore::TraceEdge> edges = {}) const {
    std::sort(edges.begin(), edges.end());
    trace::TraceStore::Columns cols = cols_;
    cols.edges = std::move(edges);
    return trace::TraceStore::FromColumns(std::move(cols));
  }

 private:
  trace::TraceStore::Columns cols_;
};

}  // namespace dcrm::test
