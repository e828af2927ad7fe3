// Deterministic parallel fault-campaign engine.
//
// A fault campaign is embarrassingly parallel — trials are independent
// kernel executions — except for two things the serial engine used to
// hide: (a) every trial drew from one shared RNG, so trial T's faults
// depended on all earlier trials, and (b) Tier-2 repeat-offender
// escalation mutates the protection plan between trials. The engine
// here removes both couplings without changing what a campaign means:
//
//  * every trial seeds its own counter-based RNG stream from
//    TrialSeed(campaign_seed, trial_index);
//  * trials are chunked by trial index across `jobs` workers, each a
//    fully isolated campaign instance (own App, own DeviceMemory and
//    snapshot, own ProtectedDataPlane, own RecoveryManager);
//  * offense events merge into one EscalationLedger in trial-index
//    order at fixed epoch boundaries (CampaignConfig::escalation_epoch),
//    where every worker applies the same escalations in plan order.
//
// Consequence: CampaignCounts, per-tier recovery stats and the
// repeat-offender ledger are a pure function of (config, seed) —
// bit-identical at any worker count or scheduling, and
// FaultCampaign::Run is literally this engine at jobs=1.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "fault/campaign.h"

namespace dcrm::fault {

// Optional controls over one engine call. Defaults reproduce the
// classic whole-campaign run.
struct EngineOptions {
  // Global trial range [begin, end) to execute; kToEnd clamps to
  // cfg.runs. Trial indices, RNG streams and escalation-epoch
  // boundaries stay GLOBAL (multiples of cfg.escalation_epoch from
  // trial 0), so running a campaign as several range calls — on one
  // process or many — merges bit-identically to one whole-range call.
  static constexpr unsigned kToEnd = ~0u;
  unsigned begin = 0;
  unsigned end = kToEnd;

  // Checked at every wave boundary: when set, the engine stops
  // dispatching further trials and returns the counts merged so far
  // (always a whole number of waves — resumable at the next epoch
  // boundary). This is how SIGINT/SIGTERM drain without losing work.
  const std::atomic<bool>* stop = nullptr;

  // Caps the fan-out wave size when the campaign has no cross-trial
  // escalation coupling (otherwise the wave is pinned to the
  // escalation epoch). Purely a latency knob for the stop flag — wave
  // splits never change results. 0 = unbounded.
  unsigned max_wave = 0;

  // Invoked after every completed trial, possibly concurrently from
  // pool threads (the worker self-fault-injection hook).
  const std::function<void(unsigned trial)>* after_trial = nullptr;
};

// Shared trial/merge engine. Runs cfg.runs trials chunked across
// `workers` (all constructed identically), merging results in
// trial-index order into the returned counts and offense events into
// `ledger`. With a null `pool` or a single worker the loop runs inline
// on the calling thread — the serial path.
CampaignCounts RunCampaignTrials(std::span<FaultCampaign* const> workers,
                                 core::EscalationLedger& ledger,
                                 ThreadPool* pool, const CampaignConfig& cfg);
CampaignCounts RunCampaignTrials(std::span<FaultCampaign* const> workers,
                                 core::EscalationLedger& ledger,
                                 ThreadPool* pool, const CampaignConfig& cfg,
                                 const EngineOptions& opts);

// One prefix of a batched campaign: the totals and the ledger state
// after trials [0, end) — exactly what a standalone run with
// cfg.runs = end would have produced.
struct PrefixCounts {
  unsigned end = 0;  // the prefix boundary this snapshot belongs to
  CampaignCounts counts;
  core::EscalationLedger ledger;
};

// Batched-request execution (the service's coalescing primitive): runs
// trials [0, ends.back()) ONCE as successive range calls and snapshots
// the accumulated counts + ledger at every boundary in `ends`. Because
// trial results are a pure function of (config, seed, trial index) and
// range calls merge bit-identically to one whole-range call (the
// EngineOptions contract above), prefix i is bit-identical to a
// standalone run with cfg.runs = ends[i] — so N coalesced requests
// cost ends.back() trials instead of sum(ends).
//
// `ends` must be strictly ascending, nonzero, with ends.back() <=
// cfg.runs. Campaigns with cross-trial Tier-2 coupling additionally
// require every non-final boundary to be escalation-epoch-aligned: a
// mid-epoch range start applies pending escalations early, diverging
// from the single-run schedule (the scheduler never batches coupled
// campaigns, but the engine enforces it regardless). opts.begin/end
// are overridden per segment. If opts.stop drains a segment early,
// the remaining prefixes repeat the partial totals (counts.runs <
// end marks them incomplete).
std::vector<PrefixCounts> RunCampaignPrefixes(
    std::span<FaultCampaign* const> workers, core::EscalationLedger& ledger,
    ThreadPool* pool, const CampaignConfig& cfg,
    std::span<const unsigned> ends, const EngineOptions& opts);

// Everything one worker needs to build its private campaign instance.
// `make_app` must return a fresh App each call (apps deterministically
// initialize their objects, so every worker sees an identical address
//-space layout).
struct CampaignSpec {
  std::function<std::unique_ptr<apps::App>()> make_app;
  const apps::ProfileResult* profile = nullptr;
  // The cover, resolved once by apps::ResolveCover: `object_names`
  // when non-empty (the writable extension), else the first
  // `cover_objects` of the coverage order (nullopt: the hot objects).
  sim::Scheme scheme = sim::Scheme::kNone;
  std::optional<unsigned> cover_objects;
  std::vector<std::string> object_names;
  bool allow_unsound = false;
  // When set, worker 0 adopts these immutable tables instead of
  // rebuilding them (the service's content-addressed table cache).
  // The analyzer launch gate still runs on worker 0 regardless — table
  // reuse is a pure construction-cost optimization, never a soundness
  // shortcut.
  std::shared_ptr<const CampaignTables> shared_tables;
};

// N-worker front end over RunCampaignTrials. Construction builds the
// workers (the analyzer launch gate runs exactly once, on the first
// worker — fan-out replicas skip it) and the thread pool; Run fans the
// campaign out and merges. The ledger persists across Run calls, like
// the serial campaign's repeat-offender memory.
class ParallelCampaign {
 public:
  ParallelCampaign(CampaignSpec spec, unsigned jobs);
  ~ParallelCampaign();

  // Movable (worker pointers target heap-owned campaigns, so they
  // survive the move); not copyable.
  ParallelCampaign(ParallelCampaign&&) = default;
  ParallelCampaign& operator=(ParallelCampaign&&) = default;

  CampaignCounts Run(const CampaignConfig& cfg);
  CampaignCounts Run(const CampaignConfig& cfg, const EngineOptions& opts);

  // See RunCampaignPrefixes. The persistent ledger makes this suitable
  // only for a fresh instance (the service constructs one per batch).
  std::vector<PrefixCounts> RunPrefixes(const CampaignConfig& cfg,
                                        std::span<const unsigned> ends,
                                        const EngineOptions& opts);

  // Shard-worker catch-up: re-applies the escalation history of epochs
  // this process never ran. Each delta is one earlier epoch's offense
  // events (in epoch order); for each, every worker's plan applies the
  // pending escalations *before* the delta merges — exactly the
  // prologue/epilogue sequence the in-process engine performed — so
  // replica allocation order, and hence all downstream trial results,
  // are bit-identical to a single-process run. Replayed escalations
  // are not counted (the shards that earned them already counted them).
  void ReplayEscalations(std::span<const core::EscalationLedger> deltas,
                         const core::RecoveryConfig& rc);

  unsigned jobs() const { return static_cast<unsigned>(workers_.size()); }
  const core::EscalationLedger& ledger() const { return ledger_; }
  core::EscalationLedger& mutable_ledger() { return ledger_; }
  // The first worker (the one the launch gate certified).
  const FaultCampaign& front() const { return *workers_.front(); }

 private:
  struct Worker {
    std::unique_ptr<apps::App> app;
    std::unique_ptr<FaultCampaign> campaign;
  };

  std::vector<Worker> instances_;
  std::vector<FaultCampaign*> workers_;
  core::EscalationLedger ledger_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dcrm::fault
