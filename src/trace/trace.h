// Nested-AoS warp-level memory traces: the shape of hand-built traces
// (tests, benches) and of the RMT baseline transform. Profiling
// records straight into TraceStore columns (trace_builder.h), and
// BuildStore / ToKernelTraces convert between the two shapes.
//
// Threads of a warp execute in lockstep, so the i-th global-memory
// access of each lane belongs to the same warp-level memory
// instruction; coalescing merges its lane addresses into unique
// 128B-block transactions, exactly the unit the L1 sees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "exec/kernel.h"

namespace dcrm::trace {

// One warp-level memory instruction after coalescing.
struct WarpMemInst {
  Pc pc = 0;
  AccessType type = AccessType::kLoad;
  std::uint32_t active_lanes = 0;
  // Unique 128B-aligned transaction addresses (1..32 entries).
  std::vector<Addr> blocks;
};

struct WarpTrace {
  WarpId warp = 0;
  std::uint32_t cta = 0;
  std::vector<WarpMemInst> insts;
};

// Sentinel for KernelTrace::node: "no graph node assigned"; BuildStore
// substitutes the kernel's index, which is what every chain app's
// launches get.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

struct KernelTrace {
  // Launch name (e.g. "bicg_kernel1"), carried so downstream consumers
  // — the static analyzer in particular — can attribute findings to a
  // kernel. Empty for hand-built traces.
  std::string name;
  // Kernel-graph node id of the launch (repeated launch names stay
  // distinguishable by it). kNoNode for hand-built or legacy traces.
  std::uint32_t node = kNoNode;
  exec::LaunchConfig cfg;
  std::vector<WarpTrace> warps;  // sorted by warp id
};

}  // namespace dcrm::trace
