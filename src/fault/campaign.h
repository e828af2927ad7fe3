// Fault-injection campaigns (Sections II-C, III-C and V-B):
// repeatedly run an application with permanent stuck-at multi-bit
// faults injected into selected 128B data memory blocks and classify
// each run's outcome.
//
// Block selection targets:
//  - kHotBlocks / kRestBlocks: uniform over the hot / non-hot touched
//    blocks (the Fig. 5 -> Fig. 6 experiment);
//  - kMissWeighted: over the whole application space with probability
//    proportional to each block's L1-missed accesses (the Fig. 8 ->
//    Fig. 9 experiment — misses are what L2/DRAM faults can reach).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/driver.h"
#include "common/enum_names.h"
#include "common/stats.h"
#include "core/protection.h"
#include "core/recovery.h"
#include "sim/replication.h"

namespace dcrm::analysis {
class VulnerabilityMap;
}  // namespace dcrm::analysis

namespace dcrm::fault {

enum class Outcome : std::uint8_t {
  kMasked,     // output identical (within the app's metric threshold)
  kSdc,        // silent data corruption: output differs, nothing noticed
  kDetected,   // detection raised terminate and recovery was off/exhausted
  kDue,        // SECDED DUE and recovery was off/exhausted
  kCrash,      // faulted index arithmetic left the address space
  kRecovered,  // completed correctly only through recovery actions
               // (arbitration, escalated vote, or re-execution)
};

inline const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kMasked:
      return "masked";
    case Outcome::kSdc:
      return "sdc";
    case Outcome::kDetected:
      return "detected";
    case Outcome::kDue:
      return "due";
    case Outcome::kCrash:
      return "crash";
    case Outcome::kRecovered:
      return "recovered";
  }
  return "?";
}

enum class Target : std::uint8_t { kHotBlocks, kRestBlocks, kMissWeighted };

inline constexpr EnumName<Target> kTargetNames[] = {
    {"hot", Target::kHotBlocks},
    {"rest", Target::kRestBlocks},
    {"miss", Target::kMissWeighted},
};

// Spatial fault footprint (see fault/fault_shapes.h). kWordBits is the
// paper's recipe; kColumn and kDramRow model the column/row failure
// modes of the DRAM field studies the paper cites.
enum class FaultShape : std::uint8_t { kWordBits, kColumn, kDramRow };

struct CampaignConfig {
  Target target = Target::kMissWeighted;
  FaultShape shape = FaultShape::kWordBits;
  unsigned faulty_blocks = 1;   // 1 or 5 in the paper
  unsigned bits_per_block = 2;  // 2, 3 or 4 in the paper (kWordBits)
  unsigned runs = 1000;
  std::uint64_t seed = 1;
  // Detect-to-recover pipeline (core/recovery.h). Disabled by default:
  // the paper's detect-and-die behaviour.
  core::RecoveryConfig recovery;
  // Trials per escalation epoch. Tier-2 repeat-offender escalation is
  // the only cross-trial coupling in a campaign; applying it after
  // every trial would serialize the engine. Instead, offense events
  // are merged into the campaign ledger and escalations applied at
  // fixed trial-index boundaries (every `escalation_epoch` trials), so
  // the schedule is a pure function of the config — identical at any
  // worker count. Ignored unless recovery escalation is active.
  unsigned escalation_epoch = 16;
  // Importance sampling: restrict block selection to the statically
  // SDC-reachable blocks (consumed and not fully checked by the plan —
  // analysis::SdcPossible). The SDC estimate stays unbiased by scaling
  // the conditional rate with the reachable weight share
  // (FaultCampaign::SamplingShare); trials stop being wasted on blocks
  // the static analysis proves harmless. Requires faulty_blocks == 1
  // and an in-block fault shape. Off by default — and when off, block
  // selection is bit-identical to campaigns that predate the flag.
  bool importance_sampling = false;
};

// Counter-based per-trial RNG stream seed: a splitmix64-style mix of
// (campaign_seed, trial_index). Every trial draws from its own stream,
// so trial T's faults do not depend on how many trials ran before it
// or on which worker runs it — the property the parallel engine's
// bit-for-bit determinism rests on.
std::uint64_t TrialSeed(std::uint64_t campaign_seed, std::uint64_t trial);

struct CampaignCounts {
  unsigned runs = 0;
  unsigned masked = 0;
  unsigned sdc = 0;
  unsigned detected = 0;
  unsigned due = 0;
  unsigned crash = 0;
  unsigned recovered = 0;
  std::uint64_t corrections = 0;  // majority-vote fixes performed
  // Per-tier recovery work done during this Run call (all zero when
  // recovery is disabled).
  core::RecoveryStats recovery;

  ProportionCi SdcCi(double confidence = 0.95) const {
    return BinomialCi(sdc, runs, confidence);
  }

  // Element-wise sum: trial merging is pure addition, so a campaign's
  // totals are the sum of any disjoint partition of its trials — the
  // property shard merging rests on.
  CampaignCounts& operator+=(const CampaignCounts& o) {
    runs += o.runs;
    masked += o.masked;
    sdc += o.sdc;
    detected += o.detected;
    due += o.due;
    crash += o.crash;
    recovered += o.recovered;
    corrections += o.corrections;
    recovery += o.recovery;
    return *this;
  }

  bool operator==(const CampaignCounts&) const = default;
};

// Everything one trial produces, self-contained so trials can run on
// any worker and merge in trial-index order: the outcome, this trial's
// vote-correction and recovery-stat deltas, and the offense events to
// feed the campaign's EscalationLedger.
struct TrialResult {
  Outcome outcome = Outcome::kMasked;
  std::uint64_t corrections = 0;
  core::RecoveryStats recovery;
  std::vector<mem::ObjectId> offenses;
};

// Merges one trial into the campaign totals. Pure addition, so the
// merged counts are independent of trial execution order.
void MergeTrialResult(CampaignCounts& counts, const TrialResult& r);

// Campaign-lifetime immutable tables, derived once from (profile,
// device layout) and shared read-only by every worker of a parallel
// campaign: the pristine store image trials restore from, the
// hot/rest block split, and the exposure-weighted sampling tables.
// Per-worker mutable state shrinks to the device, the data plane and
// the RecoveryManager.
struct CampaignTables {
  std::vector<std::byte> snapshot;  // pristine store image
  core::BlockSplit split;           // hot / rest block lists
  std::vector<std::uint64_t> weighted_blocks;
  std::vector<std::uint64_t> weight_prefix;  // cumulative txn weights

  // Static block-liveness map over the same traces (built once per
  // campaign, shared with the workers like everything else here) and
  // the SDC-reachable restriction of each sampling target that
  // importance sampling draws from. share[t] is the reachable fraction
  // of target t's selection probability mass — the unbiasing constant.
  std::shared_ptr<const analysis::VulnerabilityMap> vulnerability;
  std::vector<std::uint64_t> reachable_hot;
  std::vector<std::uint64_t> reachable_rest;
  std::vector<std::uint64_t> reachable_weighted;
  std::vector<std::uint64_t> reachable_weight_prefix;
  std::array<double, 3> reachable_share = {1.0, 1.0, 1.0};
};

// One campaign instance: the application with a fixed protection
// configuration. Reuses a single device via store snapshot/restore so
// a 1000-run campaign costs 1000 kernel executions, not 1000 setups.
class FaultCampaign {
 public:
  // Runs `app` under the plan apps::BuildProtection builds for
  // `cover`, on that builder's device. `profile` must come from
  // ProfileApp on this same app (same scale).
  //
  // Launch gate: before any run, the static analyzer (src/analysis)
  // certifies the plan against the recorded access streams. Blocking
  // violations — a covered object the traces store to, replica
  // aliasing, LD/ST-table overflow — throw analysis::UnsoundPlanError
  // unless `allow_unsound` is set, so an unsound campaign cannot
  // silently produce garbage statistics. Read-only/race violations
  // that store propagation soundly mitigates (a named cover with
  // writable objects) are downgraded, not blocking.
  // `shared_tables` (optional) reuses another identically-configured
  // campaign's immutable tables instead of rebuilding them — the
  // parallel engine passes worker 0's tables to workers 1..N-1.
  FaultCampaign(apps::App& app, const apps::ProfileResult& profile,
                const apps::Cover& cover,
                mem::EccMode ecc = mem::EccMode::kNone,
                bool allow_unsound = false,
                std::shared_ptr<const CampaignTables> shared_tables = nullptr);

  // The first `cover_objects` objects of the Table III coverage order
  // under `scheme`; 0 or Scheme::kNone leaves the app unprotected.
  FaultCampaign(apps::App& app, const apps::ProfileResult& profile,
                sim::Scheme scheme, unsigned cover_objects,
                mem::EccMode ecc = mem::EccMode::kNone,
                bool allow_unsound = false,
                std::shared_ptr<const CampaignTables> shared_tables = nullptr);

  // Extension: protect an explicit set of objects by name, including
  // writable ones (store propagation keeps the copies coherent, and
  // the host reads protected outputs through the voting plane).
  FaultCampaign(apps::App& app, const apps::ProfileResult& profile,
                sim::Scheme scheme,
                const std::vector<std::string>& object_names,
                mem::EccMode ecc = mem::EccMode::kNone,
                bool allow_unsound = false,
                std::shared_ptr<const CampaignTables> shared_tables = nullptr);

  // Runs the whole campaign serially: a thin jobs=1 call into the same
  // trial/merge engine the parallel campaign uses (see
  // fault/parallel_campaign.h), so serial and parallel results are
  // bit-identical by construction.
  CampaignCounts Run(const CampaignConfig& cfg);

  // Runs exactly one trial: builds that trial's faults from its own
  // counter-based RNG stream (TrialSeed(cfg.seed, trial)) and executes
  // it against this campaign's device. Touches per-trial state only —
  // the campaign-lifetime ledger is updated by the engine, never here.
  // An exception the run maps to no outcome is rethrown as
  // std::runtime_error("trial <t> (seed <s>): <what>").
  TrialResult RunTrial(const CampaignConfig& cfg, std::uint64_t trial);

  // Runs once with the given pre-selected faults (exposed for tests).
  // With recovery enabled this is the full tiered pipeline: scrub /
  // arbitrate in place, retire + re-execute up to the retry budget.
  // Tier-2 escalation is *not* applied here: merge the trial's offense
  // events into ledger() and call ApplyEscalations().
  Outcome RunOnce(const std::vector<mem::StuckAtFault>& faults);

  // Campaign-lifetime repeat-offender memory for serial Run() calls.
  // (A ParallelCampaign owns one shared ledger for all its workers.)
  core::EscalationLedger& ledger() { return ledger_; }
  const core::EscalationLedger& ledger() const { return ledger_; }

  // Applies Tier-2 escalations pending in `ledger` (default: this
  // campaign's own ledger) to this campaign's plan. Returns the number
  // of ranges newly escalated. No-op until recovery is enabled.
  unsigned ApplyEscalations() { return ApplyEscalations(ledger_); }
  unsigned ApplyEscalations(const core::EscalationLedger& ledger);

  // Turns on the detect-to-recover pipeline for subsequent runs.
  // Offense counts and escalations persist across runs of this
  // campaign (the repeat-offender memory). Run() calls this
  // automatically when cfg.recovery.enabled is set.
  void EnableRecovery(const core::RecoveryConfig& cfg);

  const core::RecoveryManager* recovery() const { return recovery_.get(); }

  const sim::ProtectionPlan& plan() const { return plan_; }

  // The campaign's immutable tables, shareable with fan-out replicas.
  std::shared_ptr<const CampaignTables> tables() const { return tables_; }

  // The static liveness map behind the tables (null only for profiles
  // without a trace store) and this device's ECC mode — what the
  // cross-check gate needs to re-derive the campaign's outcome bounds.
  const analysis::VulnerabilityMap* vulnerability() const {
    return tables_->vulnerability.get();
  }
  mem::EccMode ecc_mode() const { return dev_->ecc_mode(); }

  // Importance-sampling share for a target: the fraction of the
  // target's selection probability mass on SDC-reachable blocks. The
  // unbiased SDC estimate from an importance-sampled campaign is
  // share * (sdc / runs); 0 means SDC is statically impossible.
  double SamplingShare(Target target) const {
    return tables_->reachable_share[static_cast<std::size_t>(target)];
  }

 private:
  std::vector<float> ReadObservedOutputs() const;
  std::vector<std::uint64_t> SelectBlocks(const CampaignConfig& cfg,
                                          Rng& rng) const;

  apps::App* app_;
  const apps::ProfileResult* profile_;
  std::unique_ptr<mem::DeviceMemory> dev_;  // the builder's device
  sim::ProtectionPlan plan_;
  std::unique_ptr<core::ProtectedDataPlane> protected_plane_;
  std::unique_ptr<core::RecoveryManager> recovery_;
  // Immutable after construction; shared across parallel workers.
  std::shared_ptr<const CampaignTables> tables_;
  std::uint64_t last_corrections_ = 0;
  core::EscalationLedger ledger_;
};

}  // namespace dcrm::fault
