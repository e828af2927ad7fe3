#include "fault/campaign.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/analysis.h"
#include "analysis/vulnerability.h"
#include "exec/launcher.h"
#include "fault/fault_shapes.h"
#include "fault/parallel_campaign.h"

namespace dcrm::fault {

std::uint64_t TrialSeed(std::uint64_t campaign_seed, std::uint64_t trial) {
  // splitmix64 finalizer over the (seed, counter) pair. Rng::Seed runs
  // its own splitmix rounds on top, so adjacent trials get
  // uncorrelated xoshiro streams.
  std::uint64_t z = campaign_seed + 0x9e3779b97f4a7c15ULL * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FaultCampaign::FaultCampaign(apps::App& app,
                             const apps::ProfileResult& profile,
                             sim::Scheme scheme, unsigned cover_objects,
                             mem::EccMode ecc, bool allow_unsound,
                             std::shared_ptr<const CampaignTables> shared_tables)
    : FaultCampaign(app, profile,
                    apps::ResolveCover(profile, scheme, cover_objects), ecc,
                    allow_unsound, std::move(shared_tables)) {}

FaultCampaign::FaultCampaign(apps::App& app,
                             const apps::ProfileResult& profile,
                             sim::Scheme scheme,
                             const std::vector<std::string>& object_names,
                             mem::EccMode ecc, bool allow_unsound,
                             std::shared_ptr<const CampaignTables> shared_tables)
    : FaultCampaign(app, profile, apps::Cover{scheme, object_names, {}}, ecc,
                    allow_unsound, std::move(shared_tables)) {}

FaultCampaign::FaultCampaign(apps::App& app,
                             const apps::ProfileResult& profile,
                             const apps::Cover& cover, mem::EccMode ecc,
                             bool allow_unsound,
                             std::shared_ptr<const CampaignTables> shared_tables)
    : app_(&app), profile_(&profile) {
  apps::ProtectionSetup setup = apps::BuildProtection(app, cover);
  dev_ = std::move(setup.dev);
  plan_ = std::move(setup.plan);
  // ECC only changes how faulty reads resolve, so setting it after
  // replication leaves the image and the plan as built.
  dev_->set_ecc_mode(ecc);
  if (plan_.scheme != sim::Scheme::kNone) {
    protected_plane_ = std::make_unique<core::ProtectedDataPlane>(*dev_, plan_);
  }

  // Campaign-launch gate: certify the plan against the recorded access
  // streams before a single fault is injected. A campaign over an
  // unsound configuration does not fail loudly on its own — it just
  // reports garbage outcome statistics — so blocking violations refuse
  // the launch unless the caller explicitly opted out.
  if (!allow_unsound && plan_.scheme != sim::Scheme::kNone) {
    analysis::AnalyzerInput in;
    in.traces = profile.trace_store.get();
    in.space = &dev_->space();
    in.plan = &plan_;
    const analysis::Report report = analysis::Analyze(in);
    const auto blocking = analysis::BlockingFindings(report, plan_);
    if (!blocking.empty()) {
      std::ostringstream os;
      os << "campaign refused: protection plan is unsound ("
         << blocking.size() << " blocking violation(s); pass "
         << "allow_unsound / --allow-unsound to override). First: "
         << analysis::CheckName(blocking.front()->check) << " on "
         << blocking.front()->subject << ": " << blocking.front()->detail;
      throw analysis::UnsoundPlanError(os.str(), report);
    }
  }
  if (shared_tables != nullptr) {
    // Fan-out replica of an identically-configured campaign: reuse its
    // immutable tables. Apps initialize deterministically, so the only
    // thing worth validating is that the store layouts agree.
    if (shared_tables->snapshot.size() != dev_->space().StoreSize()) {
      throw std::invalid_argument(
          "shared campaign tables disagree with this device's store size");
    }
    tables_ = std::move(shared_tables);
    return;
  }

  auto tables = std::make_shared<CampaignTables>();
  tables->snapshot.assign(dev_->space().Data(),
                          dev_->space().Data() + dev_->space().StoreSize());

  tables->split = core::SplitBlocks(profile.hot, profile.profiler,
                                    dev_->space());

  // Exposure-weighted sampling tables (the Fig. 8 selection step).
  // The weight of a block is its count of L2/DRAM-visible load
  // transactions — the accesses a fault in L2/DRAM can corrupt. See
  // BuildExposureUniverse for why transaction counting is the primary
  // weight and the L1-miss profile only a fallback.
  {
    auto universe = analysis::BuildExposureUniverse(profile.profiler);
    tables->weighted_blocks = std::move(universe.blocks);
    tables->weight_prefix = std::move(universe.weight_prefix);
  }

  // Static liveness map + the SDC-reachable restriction of each target
  // (what --importance-sampling draws from). The restriction is purely
  // plan-based (analysis::SdcPossible) — a superset of the truly
  // SDC-reachable set under any ECC mode or recovery tier — so the
  // reweighted estimator stays unbiased no matter how the trial ends.
  if (profile.trace_store != nullptr) {
    auto vuln = std::make_shared<analysis::VulnerabilityMap>(
        analysis::AnalyzeVulnerability(*profile.trace_store, dev_->space(),
                                       app_->OutputObjects()));
    const auto reachable = [&](std::uint64_t block) {
      const analysis::BlockLiveness* b = vuln->Find(block);
      // Blocks outside the map (no named owner and never traced) are
      // treated as reachable: the analysis proves nothing about them.
      return b == nullptr || analysis::SdcPossible(*b, plan_);
    };
    for (std::uint64_t b : tables->split.hot) {
      if (reachable(b)) tables->reachable_hot.push_back(b);
    }
    for (std::uint64_t b : tables->split.rest) {
      if (reachable(b)) tables->reachable_rest.push_back(b);
    }
    std::uint64_t racc = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < tables->weighted_blocks.size(); ++i) {
      const std::uint64_t w = tables->weight_prefix[i] - prev;
      prev = tables->weight_prefix[i];
      if (!reachable(tables->weighted_blocks[i])) continue;
      tables->reachable_weighted.push_back(tables->weighted_blocks[i]);
      racc += w;
      tables->reachable_weight_prefix.push_back(racc);
    }
    const auto share = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    tables->reachable_share = {
        share(tables->reachable_hot.size(), tables->split.hot.size()),
        share(tables->reachable_rest.size(), tables->split.rest.size()),
        share(tables->reachable_weight_prefix.empty()
                  ? 0
                  : tables->reachable_weight_prefix.back(),
              tables->weight_prefix.empty() ? 0
                                            : tables->weight_prefix.back())};
    tables->vulnerability = std::move(vuln);
  }
  tables_ = std::move(tables);
}

std::vector<float> FaultCampaign::ReadObservedOutputs() const {
  // With the writable-object extension the runtime copies results back
  // through the reliability layer: protected output reads are voted /
  // compared instead of trusting a possibly-faulty primary cell.
  if (protected_plane_ == nullptr || !plan_.propagate_stores) {
    return apps::ReadOutputs(*app_, *dev_);
  }
  std::vector<float> out;
  auto& plane = *protected_plane_;
  for (const std::string& name : app_->OutputObjects()) {
    const auto id = dev_->space().FindByName(name);
    if (!id) throw std::logic_error("unknown output object: " + name);
    const auto& obj = dev_->space().Object(*id);
    const std::size_t n = obj.size_bytes / sizeof(float);
    for (std::size_t i = 0; i < n; ++i) {
      float v = 0;
      // const_cast: Load mutates only the plane's counters.
      const_cast<core::ProtectedDataPlane&>(plane).Load(
          /*pc=*/0, obj.base + i * sizeof(float), &v, sizeof(float));
      out.push_back(v);
    }
  }
  return out;
}

std::vector<std::uint64_t> FaultCampaign::SelectBlocks(
    const CampaignConfig& cfg, Rng& rng) const {
  // An app's hot set can be smaller than the requested block count
  // (A-Laplacian's hot objects span 3 blocks); inject into all of it.
  // Under importance sampling, selection draws from the SDC-reachable
  // restriction of the same distribution; everything else — the RNG,
  // the rejection loop, the within-list weights — is untouched, so the
  // flag off reproduces the historical streams bit for bit.
  const Target target = cfg.target;
  unsigned count = cfg.faulty_blocks;
  const CampaignTables& t = *tables_;
  const bool is = cfg.importance_sampling;
  const auto& hot = is ? t.reachable_hot : t.split.hot;
  const auto& rest = is ? t.reachable_rest : t.split.rest;
  const auto& weighted = is ? t.reachable_weighted : t.weighted_blocks;
  const auto& prefix = is ? t.reachable_weight_prefix : t.weight_prefix;
  const std::size_t available = target == Target::kHotBlocks
                                    ? hot.size()
                                    : target == Target::kRestBlocks
                                          ? rest.size()
                                          : weighted.size();
  if (available == 0) {
    throw std::invalid_argument(
        is ? "importance sampling: no SDC-reachable blocks in the target "
             "set (the static analysis proves the SDC rate is zero)"
           : "no blocks in the requested target set");
  }
  count = static_cast<unsigned>(
      std::min<std::size_t>(count, available));

  std::vector<std::uint64_t> chosen;
  chosen.reserve(count);
  unsigned guard = 0;
  while (chosen.size() < count) {
    if (++guard > 100000) {
      throw std::runtime_error("cannot select enough distinct blocks");
    }
    std::uint64_t block = 0;
    switch (target) {
      case Target::kHotBlocks:
      case Target::kRestBlocks: {
        const auto& list = target == Target::kHotBlocks ? hot : rest;
        block = list[rng.Below(list.size())];
        break;
      }
      case Target::kMissWeighted: {
        if (weighted.empty()) {
          throw std::invalid_argument("no L1-miss profile available");
        }
        const std::uint64_t r = rng.Below(prefix.back());
        const auto it = std::upper_bound(prefix.begin(), prefix.end(), r);
        block = weighted[static_cast<std::size_t>(it - prefix.begin())];
        break;
      }
    }
    if (std::find(chosen.begin(), chosen.end(), block) == chosen.end()) {
      chosen.push_back(block);
    }
  }
  return chosen;
}

void FaultCampaign::EnableRecovery(const core::RecoveryConfig& cfg) {
  recovery_ = std::make_unique<core::RecoveryManager>(*dev_, cfg);
  recovery_->SetSnapshot(tables_->snapshot);
  if (protected_plane_) {
    recovery_->AttachPlane(protected_plane_.get());
    protected_plane_->AttachRecovery(recovery_.get());
  }
}

Outcome FaultCampaign::RunOnce(const std::vector<mem::StuckAtFault>& faults) {
  dev_->faults().Clear();
  for (const auto& f : faults) dev_->faults().Add(f);
  if (recovery_) recovery_->BeginRun();

  const std::uint64_t corrections_before =
      protected_plane_ ? protected_plane_->corrections() : 0;
  // With recovery enabled, each iteration is one bounded re-execution
  // attempt from the pristine snapshot; without it, the loop runs once
  // and reproduces the paper's detect-and-die behaviour.
  for (;;) {
    // Restore the pristine store (inputs, zeroed outputs, replicas).
    const std::vector<std::byte>& snapshot = tables_->snapshot;
    std::memcpy(dev_->space().Data(), snapshot.data(), snapshot.size());
    if (recovery_) recovery_->RefreshRetiredFromSnapshot();
    // Every copy equals its primary again: arm replica-read elision
    // (a no-op while recovery is attached).
    if (protected_plane_) protected_plane_->BeginRun();
    // Built per attempt: its view is valid only while the retirement
    // table stays as it was built over.
    exec::DirectDataPlane direct(*dev_);
    exec::DataPlane& plane =
        protected_plane_ ? static_cast<exec::DataPlane&>(*protected_plane_)
                         : direct;
    dev_->ResetEccCounters();
    try {
      apps::RunKernels(*app_, plane, nullptr);
      const std::vector<float> observed = ReadObservedOutputs();
      last_corrections_ =
          (protected_plane_ ? protected_plane_->corrections() : 0) -
          corrections_before;
      const double err = app_->OutputError(profile_->golden, observed);
      if (err > app_->SdcThreshold()) return Outcome::kSdc;
      return recovery_ && recovery_->RunUsedRecovery() ? Outcome::kRecovered
                                                       : Outcome::kMasked;
    } catch (const core::DetectionTerminated& e) {
      if (recovery_ && recovery_->OnRunFailure(e.addr())) continue;
      return Outcome::kDetected;
    } catch (const mem::DueError& e) {
      if (recovery_ && recovery_->OnRunFailure(e.addr())) continue;
      return Outcome::kDue;
    } catch (const std::out_of_range&) {
      // No fault address to retire: a corrupted index escaped the
      // address space. Terminal even with recovery enabled.
      return Outcome::kCrash;
    }
  }
}

TrialResult FaultCampaign::RunTrial(const CampaignConfig& cfg,
                                    std::uint64_t trial) {
  // The trial's own counter-based stream: its faults depend only on
  // (cfg.seed, trial), never on which trials ran before it.
  Rng rng(TrialSeed(cfg.seed, trial));
  const auto blocks = SelectBlocks(cfg, rng);
  std::vector<mem::StuckAtFault> faults;
  for (std::uint64_t block : blocks) {
    // Restrict the target word to the owning object's bytes within
    // the block: the allocator's tail padding is not application
    // address space (matters for sub-block objects like a 36B
    // filter or a 4B width scalar).
    const Addr base = block * kBlockSize;
    Addr hi = base + kBlockSize;
    if (const auto owner = dev_->space().OwnerOf(base)) {
      hi = std::min<Addr>(hi, dev_->space().Object(*owner).end());
    }
    std::vector<mem::StuckAtFault> fs;
    switch (cfg.shape) {
      case FaultShape::kWordBits:
        fs = mem::MakeWordFaultsInRange(base, hi, cfg.bits_per_block, rng);
        break;
      case FaultShape::kColumn:
        fs = MakeColumnFaults(base, hi, rng);
        break;
      case FaultShape::kDramRow: {
        const sim::GpuConfig gc;
        const sim::AddrMap map{gc.num_partitions, gc.dram_banks,
                               gc.BlocksPerRow()};
        fs = MakeDramRowFaults(block, map, dev_->space().StoreSize(), rng);
        break;
      }
    }
    faults.insert(faults.end(), fs.begin(), fs.end());
  }

  TrialResult result;
  const core::RecoveryStats before =
      recovery_ ? recovery_->stats() : core::RecoveryStats{};
  last_corrections_ = 0;
  try {
    result.outcome = RunOnce(faults);
  } catch (const std::exception& e) {
    // RunOnce maps every fault-reachable failure to an outcome; anything
    // else is a defect, reported with the trial that reproduces it.
    throw std::runtime_error("trial " + std::to_string(trial) + " (seed " +
                             std::to_string(cfg.seed) + "): " + e.what());
  }
  result.corrections = last_corrections_;
  if (recovery_) {
    result.recovery = core::StatsDelta(recovery_->stats(), before);
    result.offenses = recovery_->trial_offenses();
  }
  return result;
}

unsigned FaultCampaign::ApplyEscalations(
    const core::EscalationLedger& ledger) {
  return recovery_ ? recovery_->ApplyEscalations(ledger) : 0;
}

void MergeTrialResult(CampaignCounts& counts, const TrialResult& r) {
  ++counts.runs;
  counts.corrections += r.corrections;
  counts.recovery += r.recovery;
  switch (r.outcome) {
    case Outcome::kMasked:
      ++counts.masked;
      break;
    case Outcome::kSdc:
      ++counts.sdc;
      break;
    case Outcome::kDetected:
      ++counts.detected;
      break;
    case Outcome::kDue:
      ++counts.due;
      break;
    case Outcome::kCrash:
      ++counts.crash;
      break;
    case Outcome::kRecovered:
      ++counts.recovered;
      break;
  }
}

CampaignCounts FaultCampaign::Run(const CampaignConfig& cfg) {
  FaultCampaign* self = this;
  return RunCampaignTrials({&self, 1}, ledger_, nullptr, cfg);
}

}  // namespace dcrm::fault
