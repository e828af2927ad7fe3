#include "service/handlers.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/analysis.h"
#include "analysis/vulnerability.h"
#include "apps/driver.h"
#include "apps/registry.h"
#include "common/binio.h"
#include "core/protection.h"
#include "core/recovery.h"
#include "fault/cross_check.h"
#include "fault/parallel_campaign.h"
#include "fault/shard_io.h"
#include "mem/device_memory.h"
#include "sim/config_io.h"
#include "trace/graph_stats.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace dcrm::service {

namespace {

std::string CoverMark(const std::optional<unsigned>& cover) {
  return cover.has_value() ? std::to_string(*cover) : "auto";
}

std::string ObjectsMark(const std::vector<std::string>& objects) {
  std::string s;
  for (const std::string& o : objects) {
    s += o;
    s += ',';
  }
  return s;
}

// The trace artifact's stored tail checksum (an O(1) probe), 0 when
// the app is profiled in process. Throws on an unreadable artifact.
std::uint64_t TraceChecksum(const RequestSpec& req) {
  return req.trace_path.empty()
             ? 0
             : trace::ProbeTraceTail(req.trace_path).checksum;
}

// The request's trace identity: the artifact's checksum, or "self" for
// in-process profiles, which are deterministic per (app, scale, gpu)
// and therefore content-stable without a checksum.
std::string TraceMark(const RequestSpec& req) {
  if (req.trace_path.empty()) return "self";
  return std::to_string(TraceChecksum(req));
}

std::uint64_t TablesBytes(const fault::CampaignTables& t) {
  const std::uint64_t vec_words =
      t.split.hot.size() + t.split.rest.size() + t.weighted_blocks.size() +
      t.weight_prefix.size() + t.reachable_hot.size() +
      t.reachable_rest.size() + t.reachable_weighted.size() +
      t.reachable_weight_prefix.size();
  return t.snapshot.size() + vec_words * sizeof(std::uint64_t) + 4096;
}

std::uint64_t ProfileBytes(const ProfileArtifact& art) {
  const apps::ProfileResult& p = art.profile;
  std::uint64_t bytes = p.golden.size() * sizeof(float) + (1u << 20);
  if (p.trace_store != nullptr) bytes += p.trace_store->FootprintBytes();
  return bytes;
}

std::uint64_t ResultBytes(const ServedResult& r) {
  return r.text.size() + r.csv.size() + r.error.size() + 512;
}

sim::GpuConfig EffectiveGpu(const ExecOptions& opts, const RequestSpec& req) {
  sim::GpuConfig gpu = opts.gpu;
  if (req.engine.has_value()) gpu.engine = *req.engine;
  return gpu;
}

// "app=..|scale=..|gpu=<hash>|trace=<mark>" — everything upstream of
// the per-type parameters. The gpu hash is FNV-1a over the full
// DumpGpuConfig dump, so any config difference (including the engine
// line) separates cache identities automatically.
std::string BaseKey(const ExecOptions& opts, const RequestSpec& req) {
  const fault::ShardCampaignSpec& c = req.campaign;
  const std::string gpu = sim::DumpGpuConfig(EffectiveGpu(opts, req));
  return "app=" + c.app + "|scale=" + NameOf(apps::kScaleNames, c.scale) +
         "|gpu=" + std::to_string(bin::Fnv1a(gpu)) +
         "|trace=" + TraceMark(req);
}

std::string PlanParams(const fault::ShardCampaignSpec& c) {
  return std::string("scheme=") + NameOf(sim::kSchemeNames, c.scheme) +
         "|cover=" + CoverMark(c.cover) + "|objects=" +
         ObjectsMark(c.objects) + "|unsound=" + (c.allow_unsound ? "1" : "0");
}

// The key of a finished campaign result. A cross-checked result
// carries the gate's verdict too, so it gets its own key; a plain one
// keeps the key it always had.
std::string CampaignKey(std::uint64_t fingerprint, const RequestSpec& req) {
  return "campaign|" + std::to_string(fingerprint) +
         "|is=" + (req.importance_sampling ? "1" : "0") +
         (req.cross_check ? "|xc=1" : "");
}

// The campaign's fingerprint under this context's gpu.
std::uint64_t Fingerprint(const ExecOptions& opts, const RequestSpec& req,
                          std::uint64_t trace_checksum) {
  fault::ShardCampaignSpec eff = req.campaign;
  eff.gpu = EffectiveGpu(opts, req);
  return fault::CampaignFingerprint(eff, trace_checksum);
}

// The cache key of a request's finished result. Throws on an
// unreadable trace artifact (TryCached swallows that; the slow path
// reports it).
std::string ResultKey(const ExecOptions& opts, const RequestSpec& req) {
  const fault::ShardCampaignSpec& c = req.campaign;
  if (req.type == RequestType::kCampaign) {
    return CampaignKey(Fingerprint(opts, req, TraceChecksum(req)), req);
  }
  const std::string base = BaseKey(opts, req);
  switch (req.type) {
    case RequestType::kProfile:
      return "result|profile|" + base + (req.graph ? "|graph=1" : "");
    case RequestType::kTiming:
      return "result|timing|" + base + "|scheme=" +
             NameOf(sim::kSchemeNames, c.scheme) + "|cover=" +
             CoverMark(c.cover) +
             (c.objects.empty() ? "" : "|objects=" + ObjectsMark(c.objects));
    case RequestType::kAnalyze:
      return "result|analyze|" + base + "|" + PlanParams(c);
    case RequestType::kAvf:
      return "result|avf|" + base + "|" + PlanParams(c) +
             "|blocks=" + std::to_string(c.faulty_blocks) +
             "|bits=" + std::to_string(c.bits_per_block);
    default:
      throw std::invalid_argument("request type has no result key");
  }
}

// The `dcrm timing --csv` artifact: per-component statistics, one row
// per component. Engine name and sim_ticks are deliberately omitted so
// the CSVs of the two engines diff clean when (and only when) they are
// bit-identical; cycles are global, so they appear on the total row
// only.
std::string TimingCsv(const apps::TimingDetail& d) {
  std::ostringstream os;
  os << "component,cycles,warp_insts_issued,mem_insts,transactions,"
        "replica_transactions,l1_accesses,l1_hits,l1_pending_hits,"
        "l1_misses,l2_accesses,l2_hits,l2_misses,replica_l2_hits,"
        "replica_l2_misses,dram_reads,dram_writes,dram_row_hits,"
        "mshr_stalls,compare_queue_stalls,comparisons\n";
  const auto row = [&os](const std::string& name, const sim::GpuStats& s,
                         std::uint64_t cycles) {
    os << name << ',' << cycles << ',' << s.warp_insts_issued << ','
       << s.mem_insts << ',' << s.transactions << ','
       << s.replica_transactions << ',' << s.l1_accesses << ',' << s.l1_hits
       << ',' << s.l1_pending_hits << ',' << s.l1_misses << ','
       << s.l2_accesses << ',' << s.l2_hits << ',' << s.l2_misses << ','
       << s.replica_l2_hits << ',' << s.replica_l2_misses << ','
       << s.dram_reads << ',' << s.dram_writes << ',' << s.dram_row_hits
       << ',' << s.mshr_stalls << ',' << s.compare_queue_stalls << ','
       << s.comparisons << '\n';
  };
  row("total", d.total, d.total.cycles);
  for (std::size_t i = 0; i < d.per_sm.size(); ++i) {
    row("sm" + std::to_string(i), d.per_sm[i], 0);
  }
  for (std::size_t i = 0; i < d.per_partition.size(); ++i) {
    row("partition" + std::to_string(i), d.per_partition[i], 0);
  }
  return os.str();
}

// The campaign summary block: the header/counts lines, the
// importance-sampling rescale line (when enabled and trials ran), and
// the recovery line (when recovery is enabled). `cover` is how many
// objects the plan protects; `sampling_share` is
// FaultCampaign::SamplingShare for the configured target.
std::string CampaignSummary(const fault::ShardCampaignSpec& c,
                            std::size_t cover,
                            const fault::CampaignConfig& cc,
                            const fault::CampaignCounts& counts,
                            unsigned jobs, double sampling_share) {
  std::ostringstream os;
  const auto ci = counts.SdcCi();
  os << c.app << " scheme=" << sim::SchemeName(c.scheme) << " cover=" << cover
     << " blocks=" << cc.faulty_blocks << " bits=" << cc.bits_per_block
     << " runs=" << counts.runs << " jobs=" << jobs << "\nSDC " << counts.sdc
     << " (" << 100 * ci.p << "% +/- " << 100 * ci.margin << "%), detected "
     << counts.detected << ", due " << counts.due << ", crash "
     << counts.crash << ", masked " << counts.masked << ", corrections "
     << counts.corrections << "\n";
  if (cc.importance_sampling && counts.runs > 0) {
    // Rates above are conditional on hitting an SDC-reachable block;
    // the unconditional estimate rescales by the reachable share.
    os << "importance sampling: reachable share " << sampling_share
       << ", unconditional SDC estimate " << 100 * sampling_share * ci.p
       << "% +/- " << 100 * sampling_share * ci.margin << "%\n";
  }
  if (cc.recovery.enabled) {
    os << "recovered " << counts.recovered << ", reexec "
       << counts.recovery.retries << ", retired "
       << counts.recovery.retired_blocks << ", escalations "
       << counts.recovery.escalations << "\n";
  }
  return os.str();
}

// ---- Per-type handlers.

ServedResult DoProfile(const RequestSpec& req, const ProfileArtifact& art) {
  const apps::ProfileResult& profile = art.profile;
  std::ostringstream os;
  os << req.campaign.app << ": knee ratio " << profile.hot.max_median_ratio
     << "x, hot pattern " << (profile.hot.has_hot_pattern ? "yes" : "no")
     << "\n";
  for (const auto& op : profile.hot.coverage_order) {
    const bool hot = std::any_of(
        profile.hot.hot_objects.begin(), profile.hot.hot_objects.end(),
        [&](const auto& h) { return h.id == op.id; });
    os << "  " << (hot ? "*" : " ") << op.name << "  reads/block "
       << static_cast<std::uint64_t>(op.reads_per_block) << "  warp-share "
       << static_cast<int>(100 * op.mean_warp_share) << "%\n";
  }
  os << "hot footprint " << 100 * profile.hot.hot_footprint
     << "% of application memory, " << 100 * profile.hot.hot_access_share
     << "% of memory transactions\n";
  ServedResult r;
  if (req.graph) {
    trace::WriteGraphText(*profile.trace_store, os);
    std::ostringstream csv;
    trace::WriteGraphCsv(*profile.trace_store, csv);
    r.csv = csv.str();
  }
  r.text = os.str();
  return r;
}

// The plan a request asks for, built on a fresh device of its app.
apps::ProtectionSetup BuildPlan(const RequestSpec& req,
                                const ProfileArtifact& art) {
  const fault::ShardCampaignSpec& c = req.campaign;
  return apps::BuildProtection(
      *art.app, apps::ResolveCover(art.profile, c.scheme, c.cover, c.objects));
}

ServedResult DoTiming(const RequestSpec& req, const ProfileArtifact& art,
                      const sim::GpuConfig& gpu) {
  apps::App& app = *art.app;
  const apps::ProfileResult& profile = art.profile;
  const auto base_stats =
      apps::RunTiming(app, profile, gpu, sim::ProtectionPlan{});
  const apps::ProtectionSetup setup = BuildPlan(req, art);
  const auto detail = apps::RunTimingDetailed(app, profile, gpu, setup.plan);
  const auto& stats = detail.total;
  std::ostringstream os;
  os << req.campaign.app
     << " scheme=" << sim::SchemeName(req.campaign.scheme)
     << " cover=" << setup.plan.ranges.size()
     << " engine=" << NameOf(sim::kEngineNames, gpu.engine) << "\n"
     << "cycles " << stats.cycles << " (baseline " << base_stats.cycles
     << ", overhead "
     << 100.0 * (static_cast<double>(stats.cycles) /
                     static_cast<double>(base_stats.cycles) -
                 1.0)
     << "%)\n"
     << "L1 " << stats.l1_hits << " hits / " << stats.l1_pending_hits
     << " pending / " << stats.l1_misses << " misses; replica txns "
     << stats.replica_transactions << "; L2 hits " << stats.l2_hits << "/"
     << stats.l2_accesses << "; DRAM reads " << stats.dram_reads
     << " (row hits " << stats.dram_row_hits << ")\n";
  ServedResult r;
  r.text = os.str();
  r.csv = TimingCsv(detail);
  return r;
}

ServedResult DoAnalyze(const RequestSpec& req, const ProfileArtifact& art,
                       const sim::GpuConfig& gpu) {
  const apps::ProfileResult& profile = art.profile;
  const apps::ProtectionSetup setup = BuildPlan(req, art);
  analysis::AnalyzerInput in;
  in.traces = profile.trace_store.get();
  in.space = &setup.dev->space();
  in.plan = &setup.plan;
  in.cfg = gpu;
  // The Tier-1 spare pool a default-configured RecoveryManager would
  // carve out next, so replica-vs-spare aliasing is checked for the
  // layout a recovering campaign will actually run with.
  const core::RecoveryConfig rc;
  in.spare = analysis::SpareRegion{
      setup.dev->space().Brk(),
      std::uint64_t{rc.spare_blocks} * kBlockSize};
  analysis::Report report = analysis::Analyze(in);
  report.Append(analysis::CrossCheckHotClaims(*profile.trace_store,
                                              setup.dev->space(),
                                              profile.hot));
  std::ostringstream os;
  os << req.campaign.app
     << " scheme=" << sim::SchemeName(req.campaign.scheme)
     << " ranges=" << setup.plan.ranges.size()
     << " pcs=" << setup.plan.pcs.size() << "\n";
  trace::WriteKernelStatsText(*profile.trace_store, os);
  analysis::WriteText(report, os);
  std::ostringstream csv;
  analysis::WriteCsv(report, csv);
  trace::WriteKernelStatsCsv(*profile.trace_store, csv);
  ServedResult r;
  r.text = os.str();
  r.csv = csv.str();
  r.exit_code = report.ExitCode();
  return r;
}

ServedResult DoAvf(const RequestSpec& req, const ProfileArtifact& art) {
  const apps::ProfileResult& profile = art.profile;
  const apps::ProtectionSetup setup = BuildPlan(req, art);
  const auto map = analysis::AnalyzeVulnerability(
      *profile.trace_store, setup.dev->space(), art.app->OutputObjects());
  std::ostringstream os;
  os << req.campaign.app
     << " scheme=" << sim::SchemeName(req.campaign.scheme)
     << " ranges=" << setup.plan.ranges.size()
     << " pcs=" << setup.plan.pcs.size() << "\n";
  analysis::WriteVulnerabilityText(map, setup.plan, os);

  // Outcome bounds a campaign with these flags would be held to, over
  // the default exposure-weighted universe.
  const auto universe = analysis::BuildExposureUniverse(profile.profiler);
  analysis::BoundsSpec spec;
  spec.faulty_blocks = req.campaign.faulty_blocks;
  spec.multi_bit_words = req.campaign.bits_per_block >= 3;
  spec.due_capable_words = req.campaign.bits_per_block >= 2;
  const auto bounds = analysis::DeriveOutcomeBounds(
      map, setup.plan,
      analysis::TargetUniverse{universe.blocks, universe.weight_prefix},
      spec);
  os << "campaign bounds (miss-weighted, blocks="
     << req.campaign.faulty_blocks << " bits=" << req.campaign.bits_per_block
     << "): sdc<=" << bounds.sdc_max << " masked>=" << bounds.masked_min
     << " over " << bounds.universe_blocks << " blocks ("
     << bounds.sdc_blocks << " SDC-reachable, " << bounds.inert_blocks
     << " inert, reachable weight share " << bounds.sdc_weight_share << ")\n";

  analysis::Report report;
  report.Append(
      analysis::AuditVulnerability(map, setup.dev->space(), setup.plan));
  analysis::WriteText(report, os);
  std::ostringstream csv;
  analysis::WriteVulnerabilityCsv(map, setup.plan, csv);
  ServedResult r;
  r.text = os.str();
  r.csv = csv.str();
  r.exit_code = report.ExitCode();
  return r;
}

}  // namespace

ServedResult ErrorResult(const std::exception& e) {
  ServedResult r;
  r.ok = false;
  if (const auto* u = dynamic_cast<const analysis::UnsoundPlanError*>(&e)) {
    std::ostringstream os;
    os << "error: " << u->what() << '\n';
    analysis::WriteText(u->report(), os);
    r.error = os.str();
    r.exit_code = analysis::kExitViolations;
    return r;
  }
  if (const auto* d = dynamic_cast<const core::DetectionTerminated*>(&e)) {
    std::ostringstream os;
    os << "reliability: detection terminated the run (pc=" << d->pc()
       << ", addr=0x" << std::hex << d->addr() << std::dec << ")";
    r.error = os.str();
    r.exit_code = 3;
    return r;
  }
  if (const auto* d = dynamic_cast<const mem::DueError*>(&e)) {
    std::ostringstream os;
    os << "reliability: SECDED uncorrectable error (addr=0x" << std::hex
       << d->addr() << std::dec << ")";
    r.error = os.str();
    r.exit_code = 4;
    return r;
  }
  r.error = std::string("error: ") + e.what();
  r.exit_code = 1;
  return r;
}

ExecContext::ExecContext(ExecOptions opts)
    : opts_(opts), cache_(opts.cache_bytes) {}

BatchStats ExecContext::batch_stats() const {
  BatchStats s;
  s.groups = groups_.load(std::memory_order_relaxed);
  s.grouped_requests = grouped_requests_.load(std::memory_order_relaxed);
  s.trials_saved = trials_saved_.load(std::memory_order_relaxed);
  return s;
}

// Trace-backed requests go through the "trace|<checksum>" store cache:
// the O(1) tail probe decides identity, and the full
// checksum-validating LoadTraceFile runs only on the first touch of
// each distinct artifact.
std::shared_ptr<const ProfileArtifact> ExecContext::ResolveProfile(
    const RequestSpec& req) {
  const std::string key = "profile|" + BaseKey(opts_, req);
  if (auto hit = cache_.Get<ProfileArtifact>(key)) return hit;

  std::shared_ptr<const trace::TraceStore> preloaded;
  const std::uint64_t file_ck = TraceChecksum(req);
  if (!req.trace_path.empty()) {
    const std::string trace_key = "trace|" + std::to_string(file_ck);
    preloaded = cache_.Get<trace::TraceStore>(trace_key);
    if (preloaded == nullptr) {
      preloaded = trace::LoadTraceFile(req.trace_path);
      cache_.Put(trace_key, preloaded, preloaded->FootprintBytes());
    }
  }

  auto art = std::make_shared<ProfileArtifact>();
  art->app = apps::MakeApp(req.campaign.app, req.campaign.scale);
  art->profile = apps::ProfileApp(*art->app, EffectiveGpu(opts_, req), {},
                                  std::move(preloaded));
  if (req.trace_path.empty()) {
    // Publish the self-profiled store under its content-true identity
    // too, so a later request replaying a --save-trace artifact of
    // this same profile hits the cache instead of re-loading.
    const std::string bytes =
        trace::SaveTraceToString(*art->profile.trace_store);
    art->trace_checksum = fault::TraceTailChecksum(bytes);
    cache_.Put("trace|" + std::to_string(art->trace_checksum),
               art->profile.trace_store,
               art->profile.trace_store->FootprintBytes());
  } else {
    art->trace_checksum = file_ck;
  }
  cache_.Put(key, std::static_pointer_cast<const ProfileArtifact>(art),
             ProfileBytes(*art));
  return art;
}

std::uint64_t ExecContext::BatchKey(const RequestSpec& req) const {
  if (req.type != RequestType::kCampaign) return 0;
  // Tier-2 escalation couples trials: a prefix boundary inside a
  // coupled campaign changes when escalations apply. Never merge.
  if (req.campaign.recovery_retries > 0) return 0;
  try {
    RequestSpec any_runs = req;  // requests differing only in runs merge
    any_runs.campaign.runs = 0;
    std::uint64_t key = Fingerprint(opts_, any_runs, TraceChecksum(req));
    if (req.importance_sampling) key ^= 0x9e3779b97f4a7c15ull;
    return key == 0 ? 1 : key;
  } catch (const std::exception&) {
    return 0;  // unreadable trace: let Execute report it, unmerged
  }
}

std::optional<ServedResult> ExecContext::CachedResult(const std::string& key) {
  const auto hit = cache_.Get<ServedResult>(key);
  if (hit == nullptr) return std::nullopt;
  ServedResult copy = *hit;
  copy.cached = true;
  return copy;
}

std::optional<ServedResult> ExecContext::TryCached(const RequestSpec& req) {
  if (!RunsApp(req.type)) return std::nullopt;
  try {
    return CachedResult(ResultKey(opts_, req));
  } catch (const std::exception&) {
    // Probe failures (e.g. unreadable trace) fall through to the slow
    // path, which reports them properly.
  }
  return std::nullopt;
}

ServedResult ExecContext::Execute(const RequestSpec& req) {
  if (req.type == RequestType::kCampaign) {
    const RequestSpec reqs[1] = {req};
    return ExecuteCampaignBatch(reqs)[0];
  }
  try {
    // Re-probe under the executor: an identical request may have
    // filled the cache between the connection thread's probe and now.
    const std::string key = ResultKey(opts_, req);
    if (auto hit = CachedResult(key)) return *hit;
    const auto art = ResolveProfile(req);
    ServedResult r;
    switch (req.type) {
      case RequestType::kProfile:
        r = DoProfile(req, *art);
        break;
      case RequestType::kTiming:
        r = DoTiming(req, *art, EffectiveGpu(opts_, req));
        break;
      case RequestType::kAnalyze:
        r = DoAnalyze(req, *art, EffectiveGpu(opts_, req));
        break;
      case RequestType::kAvf:
        r = DoAvf(req, *art);
        break;
      default:
        throw std::invalid_argument("request type is not executable");
    }
    cache_.Put(key, std::make_shared<const ServedResult>(r), ResultBytes(r));
    return r;
  } catch (const std::exception& e) {
    return ErrorResult(e);
  }
}

std::vector<ServedResult> ExecContext::ExecuteCampaignBatch(
    std::span<const RequestSpec> reqs) {
  std::vector<ServedResult> out(reqs.size());
  std::vector<std::size_t> miss;
  std::vector<std::string> keys(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    try {
      keys[i] = ResultKey(opts_, reqs[i]);
    } catch (const std::exception& e) {
      out[i] = ErrorResult(e);
      continue;
    }
    if (auto hit = CachedResult(keys[i])) {
      out[i] = *hit;
    } else {
      miss.push_back(i);
    }
  }
  if (miss.empty()) return out;

  // All members share one BatchKey, hence one campaign definition
  // modulo trial count; the first miss supplies it.
  const RequestSpec& lead = reqs[miss.front()];
  const bool merged = miss.size() > 1;
  try {
    const auto art = ResolveProfile(lead);
    const apps::ProfileResult& profile = art->profile;
    fault::CampaignSpec spec = fault::MakeCampaignSpec(lead.campaign, profile);

    const std::string tables_key =
        "tables|" + BaseKey(opts_, lead) + "|" + PlanParams(lead.campaign);
    spec.shared_tables = cache_.Get<fault::CampaignTables>(tables_key);
    const bool had_tables = spec.shared_tables != nullptr;
    fault::ParallelCampaign campaign(std::move(spec), opts_.jobs);
    const std::size_t cover = campaign.front().plan().ranges.size();
    if (!had_tables) {
      auto tables = campaign.front().tables();
      cache_.Put(tables_key, tables, TablesBytes(*tables));
    }

    fault::CampaignConfig cc = fault::MakeCampaignConfig(lead.campaign);
    cc.importance_sampling = lead.importance_sampling;

    // The content-true secondary key for self-profiled runs: the
    // fingerprint a request replaying this profile's --save-trace
    // artifact would compute.
    const auto alt_key = [&](const RequestSpec& req) -> std::string {
      if (!req.trace_path.empty()) return {};
      return CampaignKey(Fingerprint(opts_, req, art->trace_checksum), req);
    };
    const auto publish = [&](std::size_t i, const ServedResult& r) {
      auto entry = std::make_shared<const ServedResult>(r);
      cache_.Put(keys[i], entry, ResultBytes(r));
      const std::string alt = alt_key(reqs[i]);
      if (!alt.empty() && alt != keys[i]) {
        cache_.Put(alt, entry, ResultBytes(r));
      }
    };

    if (cc.importance_sampling &&
        campaign.front().SamplingShare(cc.target) == 0.0) {
      // The static analysis proves every selectable block is either
      // never consumed or fully checked: the SDC rate is exactly zero,
      // no trials required.
      for (const std::size_t i : miss) {
        std::ostringstream os;
        os << reqs[i].campaign.app
           << " scheme=" << sim::SchemeName(reqs[i].campaign.scheme)
           << " cover=" << cover
           << ": importance sampling found no SDC-reachable blocks "
              "in the target set — SDC rate is statically 0, skipping "
           << reqs[i].campaign.runs << " trials\n";
        ServedResult r;
        r.text = os.str();
        out[i] = r;
        publish(i, r);
      }
      return out;
    }

    std::vector<unsigned> ends;
    ends.reserve(miss.size());
    std::uint64_t runs_sum = 0;
    for (const std::size_t i : miss) {
      ends.push_back(reqs[i].campaign.runs);
      runs_sum += reqs[i].campaign.runs;
    }
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
    cc.runs = ends.back();

    fault::EngineOptions eo;
    eo.max_wave = 512;
    eo.stop = opts_.stop;
    const auto prefixes = campaign.RunPrefixes(cc, ends, eo);

    const double share = cc.importance_sampling
                             ? campaign.front().SamplingShare(cc.target)
                             : 0.0;
    std::ostringstream kernel_stats;
    trace::WriteKernelStatsText(*profile.trace_store, kernel_stats);
    for (const std::size_t i : miss) {
      const RequestSpec& req = reqs[i];
      const auto it =
          std::find_if(prefixes.begin(), prefixes.end(), [&](const auto& p) {
            return p.end == req.campaign.runs;
          });
      fault::CampaignConfig own = cc;
      own.runs = req.campaign.runs;
      ServedResult r;
      r.batched = merged;
      r.text = CampaignSummary(req.campaign, cover, own, it->counts,
                               campaign.jobs(), share) +
               kernel_stats.str();
      std::ostringstream csv;
      fault::WriteCountsCsv(it->counts, it->ledger, csv);
      r.csv = csv.str();
      if (it->counts.runs < own.runs) {
        // Stopped at a wave boundary: whole epochs only, never cached.
        r.ok = false;
        r.exit_code = fault::kExitInterrupted;
        r.error = "interrupted: " + std::to_string(it->counts.runs) + "/" +
                  std::to_string(own.runs) +
                  " trials completed (counts above are the partial totals)";
        out[i] = r;
        continue;
      }
      if (req.cross_check) {
        const auto check =
            fault::CrossCheckCounts(campaign.front(), own, it->counts);
        std::ostringstream os;
        fault::WriteCrossCheckText(check, os);
        r.text += os.str();
        if (!check.Pass()) r.exit_code = fault::kExitBoundsViolated;
      }
      out[i] = r;
      ServedResult stored = r;
      stored.batched = false;  // identity is content, not how it ran
      publish(i, stored);
    }
    if (merged) {
      groups_.fetch_add(1, std::memory_order_relaxed);
      grouped_requests_.fetch_add(miss.size(), std::memory_order_relaxed);
      trials_saved_.fetch_add(runs_sum - ends.back(),
                              std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    // One shared campaign definition, one shared failure.
    for (const std::size_t i : miss) out[i] = ErrorResult(e);
  }
  return out;
}

}  // namespace dcrm::service
