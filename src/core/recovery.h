// Detection-to-recovery pipeline: what happens *after* the paper's
// duplication/triplication schemes notice a fault. The paper stops at
// detection (terminate-and-rerun is left to the user); production
// reliability stacks must recover. RecoveryManager implements a tiered
// policy:
//
//  Tier 0 — in-place repair. Majority-vote corrections are scrubbed
//    back to the primary location instead of being recomputed on every
//    access; a duplication mismatch is arbitrated by an out-of-band
//    SECDED probe of each copy (the code can't *correct* the paper's
//    multi-bit faults, but it reliably identifies which copy sits on
//    bad cells), the winning value is returned and scrubbed. A scrub
//    whose verify read still mismatches sits on permanently stuck
//    cells, so its 128B block is retired (quarantined and remapped to
//    a spare region — mem::BlockRemapTable).
//
//  Tier 1 — bounded re-execution. An unarbitrable mismatch or a
//    SECDED DUE terminates the attempt; the offending block is
//    retired, the pristine input snapshot is restored, and the kernel
//    is re-run — up to max_retries attempts, each charged an
//    exponentially growing backoff penalty in the timing model.
//
//  Tier 2 — graceful degradation. Objects that keep offending across
//    runs are escalated from detect-only to a full majority vote by
//    allocating a second replica, so future faults are corrected
//    without re-execution. Only when the retry budget or the spare
//    pool is exhausted does the terminal kDetected/kDue surface.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/protection.h"
#include "mem/device_memory.h"
#include "sim/config.h"

namespace dcrm::core {

// Campaign-lifetime repeat-offender memory: per-object offense counts
// accumulated across trials. This is deliberately *not* owned by the
// RecoveryManager — a manager holds per-trial state only (retirements,
// attempt budget, trial offense events), so independent per-worker
// managers can run trials concurrently while the campaign engine
// merges their offense events into one ledger at deterministic epoch
// boundaries (trial-index order, never scheduling order).
class EscalationLedger {
 public:
  void Record(mem::ObjectId id, unsigned n = 1) { counts_[id] += n; }
  void Merge(std::span<const mem::ObjectId> events) {
    for (const mem::ObjectId id : events) ++counts_[id];
  }
  // Merges another ledger's counts (shard results, epoch deltas).
  void Merge(const EscalationLedger& o) {
    for (const auto& [id, n] : o.counts_) counts_[id] += n;
  }
  unsigned OffenseCount(mem::ObjectId id) const {
    const auto it = counts_.find(id);
    return it == counts_.end() ? 0u : it->second;
  }
  const std::unordered_map<mem::ObjectId, unsigned>& counts() const {
    return counts_;
  }
  void Clear() { counts_.clear(); }
  bool operator==(const EscalationLedger&) const = default;

 private:
  std::unordered_map<mem::ObjectId, unsigned> counts_;
};

// Offense events recorded between two snapshots of one monotonically
// growing ledger (`after` extends `before`). Shard workers report one
// delta per escalation epoch; the coordinator rebuilds the campaign
// ledger — and the escalation replay schedule — by merging them back
// in epoch order.
inline EscalationLedger LedgerDelta(const EscalationLedger& after,
                                    const EscalationLedger& before) {
  EscalationLedger d;
  for (const auto& [id, n] : after.counts()) {
    const unsigned prior = before.OffenseCount(id);
    if (n > prior) d.Record(id, n - prior);
  }
  return d;
}

struct RecoveryConfig {
  bool enabled = false;
  // Tier 0.
  bool scrub = true;      // persist repaired values back to the store
  bool arbitrate = true;  // settle duplication mismatches by SECDED probe
  // Tier 1.
  bool retire = true;        // quarantine + remap faulty 128B blocks
  unsigned max_retries = 3;  // re-execution budget per run
  unsigned spare_blocks = 32;
  // Tier 2.
  bool escalate = true;
  unsigned escalate_threshold = 2;  // offenses before detect-only -> vote
};

struct RecoveryStats {
  std::uint64_t scrubs = 0;          // tier-0 write-backs issued
  std::uint64_t scrub_sticks = 0;    // write-backs whose verify read passed
  std::uint64_t arbitrations = 0;    // mismatches settled by SECDED probe
  std::uint64_t retired_blocks = 0;  // blocks quarantined + remapped
  std::uint64_t retries = 0;         // kernel re-executions
  std::uint64_t backoff_units = 0;   // sum over retries of 2^(attempt-1)
  std::uint64_t escalations = 0;     // tier-2 detect-only -> vote upgrades
  std::uint64_t exhausted_runs = 0;  // retry budget / spare pool ran out

  // Element-wise sum; campaign engines merge per-trial deltas with it.
  RecoveryStats& operator+=(const RecoveryStats& o) {
    scrubs += o.scrubs;
    scrub_sticks += o.scrub_sticks;
    arbitrations += o.arbitrations;
    retired_blocks += o.retired_blocks;
    retries += o.retries;
    backoff_units += o.backoff_units;
    escalations += o.escalations;
    exhausted_runs += o.exhausted_runs;
    return *this;
  }

  bool operator==(const RecoveryStats&) const = default;
};

// Element-wise difference of two monotone counter snapshots
// (`after - before`): the work done between them.
inline RecoveryStats StatsDelta(const RecoveryStats& after,
                                const RecoveryStats& before) {
  RecoveryStats d;
  d.scrubs = after.scrubs - before.scrubs;
  d.scrub_sticks = after.scrub_sticks - before.scrub_sticks;
  d.arbitrations = after.arbitrations - before.arbitrations;
  d.retired_blocks = after.retired_blocks - before.retired_blocks;
  d.retries = after.retries - before.retries;
  d.backoff_units = after.backoff_units - before.backoff_units;
  d.escalations = after.escalations - before.escalations;
  d.exhausted_runs = after.exhausted_runs - before.exhausted_runs;
  return d;
}

// Cycle cost of the recovery actions, so the paper's "replication is
// cheap" claim can be re-evaluated with recovery included. All values
// are core-clock cycles over the whole campaign; `per_run_overhead` is
// the added fraction of one protected execution, amortized over runs.
struct RecoveryCost {
  double scrub_cycles = 0;    // write-back + verify read per scrub
  double retire_cycles = 0;   // 128B copy-out/copy-in + table update
  double reexec_cycles = 0;   // full re-executions (retries * run)
  double backoff_cycles = 0;  // exponential pre-retry backoff
  double total_cycles = 0;
  double per_run_overhead = 0;
};

RecoveryCost ChargeRecovery(const RecoveryStats& s, unsigned runs,
                            std::uint64_t run_cycles,
                            const sim::GpuConfig& cfg);

class RecoveryManager {
 public:
  RecoveryManager(mem::DeviceMemory& dev, const RecoveryConfig& cfg);

  // The pristine store image used to refill retired blocks and to seed
  // escalation replicas. Must outlive the manager (the campaign owns
  // both).
  void SetSnapshot(std::span<const std::byte> snapshot);

  // Attaches the protected plane so Tier 2 can mutate its plan; also
  // call plane->AttachRecovery(this) to receive Tier-0 callbacks.
  void AttachPlane(ProtectedDataPlane* plane) { plane_ = plane; }

  // Per-run (per-trial) lifecycle: resets attempt state, clears the
  // retirement table and the trial's offense events (each campaign run
  // is an independent fault scenario), and re-seeds previously
  // escalated replicas from the snapshot. Escalation is *not* applied
  // here: the campaign engine merges trial offense events into its
  // EscalationLedger and calls ApplyEscalations at deterministic epoch
  // boundaries.
  void BeginRun();

  // Tier-2 escalation against the campaign's ledger: every detect-only
  // range whose owning object has reached escalate_threshold offenses
  // gains a second replica (detect-only -> vote). Iterates plan ranges
  // in plan order, so replica allocation is deterministic. Returns the
  // number of ranges newly escalated by this call.
  unsigned ApplyEscalations(const EscalationLedger& ledger);

  // Offense events recorded during the current trial (since the last
  // BeginRun), in occurrence order, attributed to owning objects.
  const std::vector<mem::ObjectId>& trial_offenses() const {
    return trial_offenses_;
  }

  // True when this run completed only through recovery actions
  // (arbitration, escalated-range correction, or re-execution) — the
  // campaign classifies such runs kRecovered instead of kMasked.
  bool RunUsedRecovery() const { return run_used_recovery_; }
  unsigned attempt() const { return attempt_; }

  // Called by the campaign when an attempt terminated with a detection
  // or DUE at `addr`. Retires the offending block (on a repeat offense
  // at an already-retired block, the replica blocks) and decides
  // whether a bounded re-execution attempt remains. Returns false when
  // the outcome is terminal.
  bool OnRunFailure(Addr addr);

  // The campaign restores its pristine snapshot by writing the
  // *original* store locations; retired blocks read from their spares,
  // so those must be refilled from the snapshot too. Call after every
  // snapshot restore, before the plane's BeginRun.
  void RefreshRetiredFromSnapshot();

  // Tier-0 plane callbacks.
  bool ArbitrateMismatch(Addr addr, const sim::ProtectedRange& range,
                         std::uint8_t* primary, const std::uint8_t* copy0,
                         std::uint32_t size);
  void OnVoteCorrected(Addr addr, const std::uint8_t* voted,
                       std::uint32_t size, bool escalated_range);

  const RecoveryConfig& config() const { return cfg_; }
  const RecoveryStats& stats() const { return stats_; }
  std::uint64_t spare_blocks_used() const { return spare_used_; }

 private:
  // Escalation replicas allocated so far: {replica_base, primary_base,
  // size}, re-seeded from the snapshot at every BeginRun.
  struct EscalatedReplica {
    Addr replica_base = 0;
    Addr primary_base = 0;
    std::uint64_t size = 0;
  };

  // Writes `good` back to `addr`, verifies it sticks in each block it
  // touches, and retires each block where it does not. Returns true if
  // the location now reads back clean. Marks the written bytes through
  // the plane (ProtectedDataPlane::NoteChanged), so an armed plane
  // sends their blocks to the full path.
  bool Scrub(Addr addr, const std::uint8_t* good, std::uint32_t size);
  // Remaps `block` to the next spare and marks it through the plane:
  // from then on its loads read the spare.
  bool RetireBlock(std::uint64_t block);
  void RecordOffense(Addr addr);
  void SeedEscalated(const EscalatedReplica& e);

  mem::DeviceMemory* dev_;
  RecoveryConfig cfg_;
  RecoveryStats stats_;
  ProtectedDataPlane* plane_ = nullptr;
  std::span<const std::byte> snapshot_;

  Addr spare_base_ = 0;
  std::uint64_t spare_used_ = 0;
  unsigned attempt_ = 0;
  bool run_used_recovery_ = false;

  // Offense events of the current trial only, in occurrence order. The
  // campaign-lifetime offense memory lives in the engine's
  // EscalationLedger.
  std::vector<mem::ObjectId> trial_offenses_;
  std::vector<EscalatedReplica> escalated_;
};

}  // namespace dcrm::core
