// Application access-pattern profiling (Section III-B of the paper):
// per-128B-block read/write counts, warp sharing, and L1-miss counts,
// plus per-data-object aggregation — the raw material for Fig. 3,
// Fig. 4, Table III, and for hot-data identification.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/kernel.h"
#include "mem/address_space.h"
#include "trace/trace_store.h"

namespace dcrm::core {

struct BlockProfile {
  std::uint64_t reads = 0;   // thread-level RD accesses
  std::uint64_t writes = 0;  // thread-level WR accesses
  // Warp-level coalesced load transactions to this block — what the
  // memory system actually sees. This is the unit behind the paper's
  // Table III access shares (e.g. P-BICG's 5.7%) and its Fig. 8
  // fault-site weighting: each transaction is one L2/DRAM-visible
  // request that a memory fault can corrupt.
  std::uint64_t txns = 0;
  // Max over kernels of (distinct warps touching this block) /
  // (warps launched by that kernel) — Fig. 4's y-axis.
  double warp_share = 0.0;
  std::uint64_t l1_misses = 0;  // filled by AttachMissProfile
};

// Per static-load-site statistics: which data objects a PC touches,
// and how often. This automates the paper's Section IV-A source/PTX
// analysis ("store the addresses of load instructions to the
// corresponding data objects") and feeds the LD/ST unit's 32-entry
// PC table.
struct PcStats {
  std::uint64_t accesses = 0;
  // Accesses per owning object (kInvalidObject = replica/unknown).
  std::map<mem::ObjectId, std::uint64_t> per_object;
};

// AccessSink recording per-block statistics. Kernel launches are
// bracketed with BeginKernel/EndKernel so warp sharing is computed
// relative to each kernel's own active warp count.
class AccessProfiler final : public exec::AccessSink {
 public:
  void BeginKernel(const exec::LaunchConfig& cfg);
  void EndKernel();

  // Enables PC -> data-object attribution (needs the address space to
  // resolve owners). Optional; without it only block stats are kept.
  void AttachSpace(const mem::AddressSpace* space) { space_ = space; }

  void OnAccess(const exec::ThreadCoord& who,
                const exec::AccessRecord& what) override;

  const std::map<Pc, PcStats>& pc_stats() const { return pcs_; }

  // Static load/store sites touching any of the given objects — the
  // contents of the LD/ST unit's PC tracking table for that cover.
  std::unordered_set<Pc> PcsTouching(
      std::span<const mem::ObjectId> objects) const;

  const std::unordered_map<std::uint64_t, BlockProfile>& blocks() const {
    return blocks_;
  }
  // Thread-level read counts per object, split by kernel epoch (the
  // i-th entry is reads during the i-th BeginKernel/EndKernel
  // bracket). Needs AttachSpace; feeds the cross-kernel hotness view
  // (ObjectProfile::kernels_reading / max_kernel_reads).
  const std::unordered_map<mem::ObjectId, std::vector<std::uint64_t>>&
  object_kernel_reads() const {
    return obj_kernel_reads_;
  }
  std::uint64_t TotalReads() const { return total_reads_; }
  std::uint64_t TotalAccesses() const { return total_reads_ + total_writes_; }

  // Blocks sorted by read count ascending — exactly the Fig. 3 series.
  std::vector<std::pair<std::uint64_t, BlockProfile>> SortedByReads() const;

  // Adds per-block L1-miss counts obtained from a functional replay
  // (see ReplayL1Misses).
  void AttachMissProfile(
      const std::unordered_map<std::uint64_t, std::uint64_t>& misses);

  // Adds per-block coalesced-load-transaction counts (from the traces).
  void AttachTxnProfile(
      const std::unordered_map<std::uint64_t, std::uint64_t>& txns);

 private:
  std::unordered_map<std::uint64_t, BlockProfile> blocks_;
  std::unordered_map<std::uint64_t, std::unordered_set<WarpId>> epoch_warps_;
  std::uint64_t epoch_total_warps_ = 0;
  bool in_kernel_ = false;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
  const mem::AddressSpace* space_ = nullptr;
  std::map<Pc, PcStats> pcs_;
  // Fast path for attribution: a PC almost always touches one object.
  std::unordered_map<Pc, mem::ObjectId> pc_last_owner_;
  // Index of the current kernel epoch; advanced by EndKernel.
  std::uint32_t kernel_epoch_ = 0;
  std::unordered_map<mem::ObjectId, std::vector<std::uint64_t>>
      obj_kernel_reads_;
};

// Per-object aggregation (Table III rows).
struct ObjectProfile {
  mem::ObjectId id = mem::kInvalidObject;
  std::string name;
  bool read_only = false;
  std::uint64_t size_bytes = 0;
  std::uint64_t num_blocks = 0;
  std::uint64_t reads = 0;            // thread-level RD accesses
  std::uint64_t txns = 0;             // coalesced load transactions
  double reads_per_block = 0.0;       // hotness intensity
  double mean_warp_share = 0.0;       // mean over the object's blocks
  std::uint64_t l1_misses = 0;
  // Cross-kernel view: how many kernel launches read this object, and
  // the largest single-launch read count. A shared weight tensor in a
  // multi-kernel graph shows kernels_reading > 1 with total reads well
  // above max_kernel_reads — hotness no per-launch profile would rank
  // as high. Zero when the profiler had no attached space (or the
  // profile was restored from disk).
  std::uint32_t kernels_reading = 0;
  std::uint64_t max_kernel_reads = 0;
};

// Aggregates the block profile over the named data objects, sorted by
// total reads, highest first (Table III's ordering).
std::vector<ObjectProfile> AggregateByObject(const AccessProfiler& prof,
                                             const mem::AddressSpace& space);

// Per-block coalesced load-transaction counts from the trace store.
std::unordered_map<std::uint64_t, std::uint64_t> CountLoadTransactions(
    const trace::TraceStore& store);

// Functional L1 replay: runs the coalesced traces through per-SM L1
// tag arrays (CTAs round-robin across SMs, warps round-robin within an
// SM) and returns per-block miss counts. A fast approximation of the
// timing simulator's miss profile (its in-phase warp interleaving
// understates hot-block misses; the fault-exposure weighting uses
// CountLoadTransactions instead — see fault/campaign.cc).
std::unordered_map<std::uint64_t, std::uint64_t> ReplayL1Misses(
    const trace::TraceStore& store, std::uint32_t num_sms,
    std::uint32_t l1_sets, std::uint32_t l1_ways);

}  // namespace dcrm::core
