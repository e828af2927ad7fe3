#include "trace/trace_builder.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace dcrm::trace {

void TraceBuilder::BeginKernel(const exec::LaunchConfig& cfg,
                               std::string name, std::uint32_t node) {
  TraceStore::KernelMeta meta;
  meta.name = std::move(name);
  meta.cfg = cfg;
  meta.node_id = node == kNoNode
                     ? static_cast<std::uint32_t>(cols_.kernels.size())
                     : node;
  meta.warp_begin = static_cast<std::uint32_t>(cols_.warp_id.size());
  meta.warp_end = meta.warp_begin;
  cols_.kernels.push_back(std::move(meta));
}

void TraceBuilder::OnAccess(const exec::ThreadCoord& who,
                            const exec::AccessRecord& what) {
  if (!warp_open_ || who.warp_global != warp_) {
    if (warp_open_ && who.warp_global < warp_) {
      throw std::logic_error("TraceBuilder: warp id went backwards");
    }
    FlushWarp();
    warp_open_ = true;
    warp_ = who.warp_global;
    cta_ = who.cta_linear;
  }
  lanes_[who.lane].push_back(what);
}

void TraceBuilder::EndKernel() {
  FlushWarp();
  cols_.kernels.back().warp_end =
      static_cast<std::uint32_t>(cols_.warp_id.size());
}

std::shared_ptr<const TraceStore> TraceBuilder::Finish(
    std::vector<TraceStore::TraceEdge> edges) {
  std::sort(edges.begin(), edges.end());
  cols_.edges = std::move(edges);
  return TraceStore::FromColumns(std::exchange(cols_, {}));
}

void TraceBuilder::FlushWarp() {
  if (!warp_open_) return;
  warp_open_ = false;
  cols_.warp_id.push_back(warp_);
  cols_.warp_cta.push_back(cta_);
  std::size_t steps = 0;
  for (const auto& lane : lanes_) steps = std::max(steps, lane.size());
  for (std::size_t k = 0; k < steps; ++k) CoalesceStep(k);
  cols_.warp_inst_begin.push_back(
      static_cast<std::uint32_t>(cols_.inst_pc.size()));
  for (auto& lane : lanes_) lane.clear();
}

// Threads of a warp execute in lockstep, so the step-th access of each
// lane belongs to the same warp-level instruction. Lanes whose records
// differ in (pc, type) diverged and form separate instructions, in
// order of their lowest lane; each instruction's lane addresses merge
// into unique 128B-block transactions in first-touch order.
void TraceBuilder::CoalesceStep(std::size_t step) {
  std::uint32_t pending = 0;  // lanes whose step-th record is unmerged
  for (std::uint32_t l = 0; l < kWarpSize; ++l) {
    if (step < lanes_[l].size()) pending |= 1u << l;
  }
  while (pending != 0) {
    const exec::AccessRecord& head =
        lanes_[std::countr_zero(pending)][step];
    Addr blocks[kWarpSize];
    std::uint32_t num_blocks = 0;
    std::uint32_t active = 0;
    for (std::uint32_t m = pending; m != 0; m &= m - 1) {
      const std::uint32_t l = std::countr_zero(m);
      const exec::AccessRecord& rec = lanes_[l][step];
      if (rec.pc != head.pc || rec.type != head.type) continue;
      pending &= ~(1u << l);
      ++active;
      const Addr block = BlockBase(rec.addr);
      if (std::find(blocks, blocks + num_blocks, block) ==
          blocks + num_blocks) {
        blocks[num_blocks++] = block;
      }
    }
    cols_.inst_pc.push_back(head.pc);
    cols_.inst_is_store.push_back(head.type == AccessType::kStore ? 1 : 0);
    cols_.inst_lanes.push_back(active);
    for (std::uint32_t b = 0; b < num_blocks; ++b) cols_.PushBlock(blocks[b]);
    cols_.inst_block_begin.push_back(
        static_cast<std::uint32_t>(cols_.blocks.size()));
  }
}

}  // namespace dcrm::trace
