// Streaming trace recorder: an AccessSink that coalesces each warp's
// per-lane access streams into warp-level memory instructions and
// appends them straight into TraceStore columns, the one trace
// representation (trace_store.h).
//
// Threads of a warp execute in lockstep, so the i-th global-memory
// access of each lane belongs to the same warp-level memory
// instruction; coalescing merges its lane addresses into unique
// 128B-block transactions, exactly the unit the L1 sees.
//
// exec::LaunchKernel runs a warp's lanes one after another and visits
// warps in ascending id order, so only the current warp's 32 lane
// streams are buffered (their capacity is reused from warp to warp).
// When the warp id changes or the kernel ends, the warp is coalesced
// and appended; a warp that made no access never appears. A warp id
// that goes backwards within a kernel throws std::logic_error.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_store.h"

namespace dcrm::trace {

// Node id meaning "none assigned": the kernel gets its index, which is
// what every chain app's launches get.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

class TraceBuilder final : public exec::AccessSink {
 public:
  // Opens the next kernel's rows. A kernel with node == kNoNode gets
  // its kernel index as graph node id.
  void BeginKernel(const exec::LaunchConfig& cfg, std::string name = {},
                   std::uint32_t node = kNoNode);
  void OnAccess(const exec::ThreadCoord& who,
                const exec::AccessRecord& what) override;
  // Coalesces the kernel's last warp and closes its rows.
  void EndKernel();

  // Freezes everything recorded into a store, with the graph's data
  // edges (kernel indices) sorted by (producer, consumer, object).
  // Leaves the recorder empty.
  std::shared_ptr<const TraceStore> Finish(
      std::vector<TraceStore::TraceEdge> edges = {});

 private:
  void FlushWarp();
  void CoalesceStep(std::size_t step);

  TraceStore::Columns cols_;
  std::array<std::vector<exec::AccessRecord>, kWarpSize> lanes_;
  bool warp_open_ = false;
  WarpId warp_ = 0;
  std::uint32_t cta_ = 0;
};

}  // namespace dcrm::trace
