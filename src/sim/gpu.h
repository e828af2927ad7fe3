// Top-level timing simulator: SMs + interconnect + memory partitions,
// replaying kernel traces to completion. Kernels run back-to-back
// (caches stay warm across kernels of one application, as on hardware).
//
// Two interchangeable replay engines (GpuConfig::engine):
//   - cycle-stepped (reference): dispatch + tick every component every
//     cycle, the original loop.
//   - event-driven: each component reports a conservative next-wakeup
//     cycle into an EventQueue and only ticks when due; idle spans are
//     skipped in one O(log n) queue advance. Because a component whose
//     wakeup has not arrived would tick as a pure no-op (no state or
//     stat change), the two engines are bit-identical in cycle counts
//     and all statistics except GpuStats::sim_ticks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.h"
#include "sim/interconnect.h"
#include "sim/partition.h"
#include "sim/replication.h"
#include "sim/sm.h"
#include "sim/stats.h"
#include "trace/trace_store.h"

namespace dcrm::sim {

class Gpu {
 public:
  Gpu(const GpuConfig& cfg, ProtectionPlan plan);

  // Simulates the store's kernels in order; returns accumulated
  // statistics. Throws std::runtime_error if the simulation exceeds
  // `max_cycles` (deadlock guard).
  GpuStats Run(const trace::TraceStore& store,
               std::uint64_t max_cycles = 2'000'000'000ULL);

  const ProtectionPlan& plan() const { return plan_; }

  // Per-component statistics from the last Run (index = SM id /
  // partition id; cycles stays zero on the per-component records).
  // Both engines fill these identically except sim_ticks, which counts
  // how often the engine ticked that component — every cycle for the
  // cycle-stepped engine, only due cycles for the event engine.
  const std::vector<GpuStats>& PerSmStats() const { return sm_stats_; }
  const std::vector<GpuStats>& PerPartitionStats() const {
    return part_stats_;
  }

 private:
  using CtaList = std::vector<std::vector<trace::WarpSlice>>;

  void RunKernel(const trace::KernelView& kernel, std::uint64_t max_cycles);
  void RunKernelCycleStepped(const CtaList& ctas,
                             std::uint32_t warps_per_cta,
                             std::uint64_t max_cycles);
  void RunKernelEventDriven(const CtaList& ctas,
                            std::uint32_t warps_per_cta,
                            std::uint64_t max_cycles);
  bool AnyBusy() const;

  GpuConfig cfg_;
  ProtectionPlan plan_;
  AddrMap map_;
  Interconnect icnt_;
  std::vector<std::unique_ptr<SmCore>> sms_;
  std::vector<std::unique_ptr<MemPartition>> partitions_;
  std::vector<GpuStats> sm_stats_;
  std::vector<GpuStats> part_stats_;
  std::uint64_t cycle_ = 0;
  std::uint64_t ticks_ = 0;  // engine rounds (GpuStats::sim_ticks)
};

}  // namespace dcrm::sim
