#include "fault/parallel_campaign.h"

#include <algorithm>
#include <stdexcept>

namespace dcrm::fault {

CampaignCounts RunCampaignTrials(std::span<FaultCampaign* const> workers,
                                 core::EscalationLedger& ledger,
                                 ThreadPool* pool,
                                 const CampaignConfig& cfg) {
  return RunCampaignTrials(workers, ledger, pool, cfg, EngineOptions{});
}

CampaignCounts RunCampaignTrials(std::span<FaultCampaign* const> workers,
                                 core::EscalationLedger& ledger,
                                 ThreadPool* pool, const CampaignConfig& cfg,
                                 const EngineOptions& opts) {
  if (workers.empty()) {
    throw std::invalid_argument("campaign engine needs at least one worker");
  }
  if (cfg.importance_sampling) {
    // The reweighting math (SamplingShare) assumes the trial's outcome
    // is attributable to the one selected block, and that faults stay
    // inside it: multi-block trials and the row shape (which spreads
    // across unselected blocks) would bias the scaled estimate.
    if (cfg.faulty_blocks != 1) {
      throw std::invalid_argument(
          "importance sampling requires faulty_blocks == 1");
    }
    if (cfg.shape == FaultShape::kDramRow) {
      throw std::invalid_argument(
          "importance sampling requires an in-block fault shape");
    }
    for (FaultCampaign* w : workers) {
      if (w->vulnerability() == nullptr) {
        throw std::invalid_argument(
            "importance sampling needs a trace-backed profile "
            "(no vulnerability map available)");
      }
    }
  }
  const unsigned range_begin = std::min(opts.begin, cfg.runs);
  const unsigned range_end = std::min(opts.end, cfg.runs);
  if (range_begin > range_end) {
    throw std::invalid_argument("campaign engine trial range is inverted");
  }
  // Enable recovery on every worker up front (not lazily inside a
  // trial): all workers must allocate their spare pools at the same
  // point in their address-space lifetime so their layouts stay
  // identical, wave after wave.
  if (cfg.recovery.enabled) {
    for (FaultCampaign* w : workers) {
      if (w->recovery() == nullptr) w->EnableRecovery(cfg.recovery);
    }
  }

  // Tier-2 escalation is the only cross-trial coupling; without it the
  // whole campaign is one epoch. Coupled campaigns must pin the wave
  // to the escalation epoch (the prologue runs at wave boundaries);
  // uncoupled ones may shorten it for stop-flag latency — a pure
  // scheduling split that cannot change any per-trial result.
  const bool cross_trial = cfg.recovery.enabled && cfg.recovery.escalate;
  unsigned wave = cross_trial && cfg.escalation_epoch > 0
                      ? cfg.escalation_epoch
                      : std::max(cfg.runs, 1u);
  if (!cross_trial && opts.max_wave > 0) wave = std::min(wave, opts.max_wave);

  CampaignCounts counts;
  std::vector<TrialResult> results(range_end - range_begin);
  unsigned begin = range_begin;
  while (begin < range_end) {
    // Graceful stop: finish only whole waves, so a drained run is
    // resumable at the next globally-aligned boundary.
    if (opts.stop != nullptr &&
        opts.stop->load(std::memory_order_relaxed)) {
      break;
    }
    // Wave boundaries are GLOBAL multiples of `wave` counted from
    // trial 0, not from range_begin — so a range call entered
    // mid-campaign sees exactly the epoch grid the whole-campaign run
    // would.
    const unsigned end = static_cast<unsigned>(std::min<std::uint64_t>(
        range_end,
        (static_cast<std::uint64_t>(begin) / wave + 1) * wave));
    // Epoch prologue: bring every worker's plan up to date with the
    // ledger — escalations earned in earlier epochs (or earlier Run
    // calls) apply here, identically on each worker, in plan order.
    // Escalation work is campaign-level, so it is counted once (every
    // worker necessarily applies the same set), not summed over
    // workers.
    if (cross_trial) {
      unsigned applied_first = 0;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        const unsigned applied = workers[w]->ApplyEscalations(ledger);
        if (w == 0) applied_first = applied;
      }
      counts.recovery.escalations += applied_first;
    }

    // Chunked fan-out: worker w owns the contiguous trial range
    // [begin + w*chunk, begin + (w+1)*chunk) — a pure function of the
    // config, never of scheduling.
    const unsigned span_n = end - begin;
    const unsigned lanes =
        std::min<unsigned>(static_cast<unsigned>(workers.size()), span_n);
    const unsigned chunk = (span_n + lanes - 1) / lanes;
    const auto run_lane = [&](unsigned w) {
      const unsigned lo = begin + w * chunk;
      const unsigned hi = std::min(end, lo + chunk);
      for (unsigned t = lo; t < hi; ++t) {
        results[t - range_begin] = workers[w]->RunTrial(cfg, t);
        if (opts.after_trial != nullptr) (*opts.after_trial)(t);
      }
    };
    if (pool != nullptr && lanes > 1) {
      pool->Dispatch(lanes, run_lane);
    } else {
      for (unsigned w = 0; w < lanes; ++w) run_lane(w);
    }

    // Epoch epilogue: merge in trial-index order. The sums are
    // order-independent, but merging in index order keeps the ledger's
    // evolution identical to the serial engine's by inspection.
    for (unsigned t = begin; t < end; ++t) {
      MergeTrialResult(counts, results[t - range_begin]);
      ledger.Merge(results[t - range_begin].offenses);
    }
    begin = end;
  }
  return counts;
}

std::vector<PrefixCounts> RunCampaignPrefixes(
    std::span<FaultCampaign* const> workers, core::EscalationLedger& ledger,
    ThreadPool* pool, const CampaignConfig& cfg,
    std::span<const unsigned> ends, const EngineOptions& opts) {
  if (ends.empty()) {
    throw std::invalid_argument("campaign prefixes need at least one end");
  }
  unsigned prev = 0;
  for (const unsigned e : ends) {
    if (e <= prev) {
      throw std::invalid_argument(
          "campaign prefix ends must be strictly ascending and nonzero");
    }
    prev = e;
  }
  if (ends.back() > cfg.runs) {
    throw std::invalid_argument("campaign prefix end exceeds cfg.runs");
  }
  const bool cross_trial = cfg.recovery.enabled && cfg.recovery.escalate;
  if (cross_trial) {
    const unsigned epoch = cfg.escalation_epoch;
    for (std::size_t i = 0; i + 1 < ends.size(); ++i) {
      if (epoch == 0 || ends[i] % epoch != 0) {
        throw std::invalid_argument(
            "coupled campaign prefix boundaries must be "
            "escalation-epoch-aligned");
      }
    }
  }

  std::vector<PrefixCounts> out;
  out.reserve(ends.size());
  CampaignCounts acc;
  unsigned begin = 0;
  for (const unsigned end : ends) {
    EngineOptions seg = opts;
    seg.begin = begin;
    seg.end = end;
    acc += RunCampaignTrials(workers, ledger, pool, cfg, seg);
    PrefixCounts p;
    p.end = end;
    p.counts = acc;
    p.ledger = ledger;  // snapshot: the state a cfg.runs==end run ends with
    out.push_back(std::move(p));
    begin = end;
    // A stop request drains the current segment at a wave boundary;
    // later prefixes would start mid-range relative to what actually
    // ran, so repeat the partial totals instead of fabricating them.
    if (opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed) &&
        acc.runs < end) {
      while (out.size() < ends.size()) {
        PrefixCounts tail = out.back();
        tail.end = ends[out.size()];
        out.push_back(std::move(tail));
      }
      break;
    }
  }
  return out;
}

ParallelCampaign::ParallelCampaign(CampaignSpec spec, unsigned jobs) {
  if (!spec.make_app || spec.profile == nullptr) {
    throw std::invalid_argument(
        "ParallelCampaign needs an app factory and a profile");
  }
  jobs = std::max(jobs, 1u);
  const apps::Cover cover = apps::ResolveCover(
      *spec.profile, spec.scheme, spec.cover_objects, spec.object_names);
  instances_.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) {
    Worker inst;
    inst.app = spec.make_app();
    if (inst.app == nullptr) {
      throw std::invalid_argument("CampaignSpec::make_app returned null");
    }
    // The analyzer launch gate certifies the plan once, on the first
    // worker; the remaining workers are byte-identical replicas of a
    // plan already proven sound, so re-analyzing per worker (let alone
    // per trial) would only burn setup time. The replicas likewise
    // reuse worker 0's immutable tables (snapshot, block split,
    // sampling weights) instead of rebuilding them N times.
    const bool allow_unsound = w == 0 ? spec.allow_unsound : true;
    const std::shared_ptr<const CampaignTables> shared =
        w == 0 ? spec.shared_tables : instances_.front().campaign->tables();
    inst.campaign = std::make_unique<FaultCampaign>(
        *inst.app, *spec.profile, cover, mem::EccMode::kNone, allow_unsound,
        shared);
    instances_.push_back(std::move(inst));
  }
  workers_.reserve(instances_.size());
  for (auto& inst : instances_) workers_.push_back(inst.campaign.get());
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
}

ParallelCampaign::~ParallelCampaign() = default;

CampaignCounts ParallelCampaign::Run(const CampaignConfig& cfg) {
  return RunCampaignTrials(workers_, ledger_, pool_.get(), cfg);
}

CampaignCounts ParallelCampaign::Run(const CampaignConfig& cfg,
                                     const EngineOptions& opts) {
  return RunCampaignTrials(workers_, ledger_, pool_.get(), cfg, opts);
}

std::vector<PrefixCounts> ParallelCampaign::RunPrefixes(
    const CampaignConfig& cfg, std::span<const unsigned> ends,
    const EngineOptions& opts) {
  return RunCampaignPrefixes(workers_, ledger_, pool_.get(), cfg, ends, opts);
}

void ParallelCampaign::ReplayEscalations(
    std::span<const core::EscalationLedger> deltas,
    const core::RecoveryConfig& rc) {
  if (rc.enabled) {
    for (FaultCampaign* w : workers_) {
      if (w->recovery() == nullptr) w->EnableRecovery(rc);
    }
  }
  const bool cross_trial = rc.enabled && rc.escalate;
  for (const core::EscalationLedger& delta : deltas) {
    // Mirror one in-process epoch boundary: the prologue applies
    // escalations earned *before* this epoch, then the epoch's offense
    // events merge in. Replayed applications are deliberately not
    // counted — the shards that originally earned them already did.
    if (cross_trial) {
      for (FaultCampaign* w : workers_) w->ApplyEscalations(ledger_);
    }
    ledger_.Merge(delta);
  }
}

}  // namespace dcrm::fault
