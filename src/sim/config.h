// Timing-model configuration. Defaults follow Table I of the paper
// (GPGPU-Sim GTX480-like): 15 SMs, 16KB 4-way L1 per SM, 6 memory
// partitions with 256KB 16-way L2 each, 128B lines, FR-FCFS GDDR5
// with 16 banks per channel.
//
// Everything is expressed in core-clock cycles. (The paper's config
// has separate 1400MHz core / 924MHz memory clocks; we fold the ratio
// into the DRAM timing parameters, which is sufficient because every
// result in the paper is reported *normalized* to a baseline run of
// the same configuration.)
#pragma once

#include <cstdint>

#include "common/enum_names.h"
#include "common/types.h"

namespace dcrm::sim {

// Warp scheduling policy. kGto (greedy-then-oldest, GPGPU-Sim's usual
// default) keeps one warp running until it stalls, which preserves
// intra-warp locality; kLrr is loose round-robin.
enum class SchedPolicy : std::uint8_t { kGto, kLrr };

// Replay engine. kCycleStepped is the reference model: every
// component ticks every cycle. kEventDriven ticks a component only
// when its reported next-wakeup cycle is due, skipping idle spans in
// O(log n) queue operations; it is bit-identical to the reference in
// cycle counts and statistics (tests/sim_event_test.cc holds it to
// that) and several times faster on the replay hot path.
enum class SimEngine : std::uint8_t { kCycleStepped, kEventDriven };

inline constexpr EnumName<SimEngine> kEngineNames[] = {
    {"cycle", SimEngine::kCycleStepped},
    {"event", SimEngine::kEventDriven},
};

struct GpuConfig {
  // Replay engine; both produce bit-identical cycle counts and stats.
  SimEngine engine = SimEngine::kEventDriven;

  // Cores ("SMs").
  std::uint32_t num_sms = 15;
  std::uint32_t max_ctas_per_sm = 8;
  std::uint32_t max_warps_per_sm = 48;
  std::uint32_t issue_width = 2;  // warp instructions issued / SM / cycle
  SchedPolicy sched_policy = SchedPolicy::kGto;
  // Consecutive *independent* memory instructions a warp may have in
  // flight before it must block on the data (adjacent loads feeding
  // one arithmetic op, e.g. A[i*N+j] and x[j], overlap on real GPUs).
  std::uint32_t max_warp_mlp = 2;
  // Modeled arithmetic work between consecutive memory instructions of
  // a warp; applications override via App::AluCyclesPerMem().
  std::uint32_t alu_cycles_per_mem = 8;
  // Record per-block L1 miss counts in GpuStats::block_misses (the
  // Fig. 8 fault-site weighting uses this profile).
  bool collect_block_misses = false;

  // L1 data cache, per SM (write-through, no write-allocate).
  std::uint32_t l1_size_bytes = 16 * 1024;
  std::uint32_t l1_ways = 4;
  std::uint32_t l1_latency = 28;
  std::uint32_t l1_mshrs = 32;
  // LD/ST unit: transactions consumed per cycle.
  std::uint32_t ldst_throughput = 1;

  // Interconnect.
  std::uint32_t icnt_latency = 40;                 // one-way, cycles
  std::uint32_t icnt_resp_bytes_per_cycle = 32;    // per partition port

  // L2, per memory partition (write-back).
  std::uint32_t num_partitions = 6;
  std::uint32_t l2_size_bytes = 256 * 1024;
  std::uint32_t l2_ways = 16;
  std::uint32_t l2_latency = 30;
  std::uint32_t l2_mshrs = 64;
  std::uint32_t l2_input_queue = 16;

  // GDDR5 channel timing (core cycles; 924MHz memory clock folded in).
  std::uint32_t dram_banks = 16;
  std::uint32_t t_rcd = 18;
  std::uint32_t t_rp = 18;
  std::uint32_t t_cl = 18;
  std::uint32_t burst_cycles = 6;  // 128B transfer
  std::uint32_t row_bytes = 2048;
  std::uint32_t dram_queue = 32;

  // Replication hardware (Section IV-C of the paper).
  std::uint32_t replica_addr_table_bytes = 128;  // start-address storage
  std::uint32_t pc_table_entries = 32;           // tracked load instructions
  std::uint32_t compare_queue_entries = 32;      // lazy-compare buffer
  std::uint32_t comparator_bytes_per_cycle = 32; // 256-bit comparator

  // Recovery subsystem (detection-to-recovery extension): base penalty
  // charged before re-execution attempt k, scaled by 2^(k-1) — the
  // exponential backoff that drains in-flight traffic and reprograms
  // the retirement/remap tables before the kernel is relaunched.
  std::uint32_t recovery_backoff_cycles = 600;

  std::uint32_t L1Sets() const {
    return l1_size_bytes / kBlockSize / l1_ways;
  }
  std::uint32_t L2Sets() const {
    return l2_size_bytes / kBlockSize / l2_ways;
  }
  std::uint32_t BlocksPerRow() const { return row_bytes / kBlockSize; }
  // Cycles the comparator needs for one 128B block comparison.
  std::uint32_t CompareCycles() const {
    return kBlockSize / comparator_bytes_per_cycle;
  }
  // Max protectable objects given the 128B start-address storage
  // (32-bit addresses): 32 for one replica, 16 for two (Section IV-C).
  std::uint32_t MaxProtectedObjects(bool two_replicas) const {
    const std::uint32_t per_obj = two_replicas ? 8 : 4;  // bytes
    return replica_addr_table_bytes / per_obj;
  }
};

}  // namespace dcrm::sim
