#include "fault/shard_coordinator.h"

#include <csignal>
#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "apps/driver.h"
#include "common/binio.h"
#include "common/file_util.h"
#include "common/subprocess.h"
#include "fault/parallel_campaign.h"
#include "fault/request_fields.h"
#include "fault/shard_io.h"
#include "sim/config_io.h"
#include "trace/trace_io.h"

namespace dcrm::fault {

namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

std::string ResultPath(const std::string& dir, unsigned s) {
  return JoinPath(dir, "result-" + std::to_string(s) + ".bin");
}
std::string HandoffPath(const std::string& dir, unsigned s) {
  return JoinPath(dir, "ledger-" + std::to_string(s) + ".bin");
}
std::string LogPath(const std::string& dir, unsigned s) {
  return JoinPath(dir, "shard-" + std::to_string(s) + ".log");
}

void Log(const CoordinatorOptions& opts, const std::string& msg) {
  if (opts.log != nullptr) *opts.log << "[shard] " << msg << std::endl;
}

// Shards are whole escalation epochs when trials are coupled, so a
// shard boundary is always a legal checkpoint/hand-off point.
unsigned PlanShardSize(const ShardCampaignSpec& spec, unsigned shards) {
  shards = std::max(shards, 1u);
  unsigned size = (spec.runs + shards - 1) / shards;
  if (CoupledAcrossTrials(spec) && spec.escalation_epoch > 0) {
    const unsigned e = spec.escalation_epoch;
    size = (size + e - 1) / e * e;
  }
  return std::max(size, 1u);
}

struct ShardPlan {
  unsigned shard_size = 0;
  unsigned num_shards = 0;
  unsigned Begin(unsigned s) const { return s * shard_size; }
  unsigned End(unsigned s, unsigned runs) const {
    return std::min(runs, (s + 1) * shard_size);
  }
};

ShardPlan MakePlan(const ShardCampaignSpec& spec, unsigned shards) {
  ShardPlan p;
  p.shard_size = PlanShardSize(spec, shards);
  p.num_shards = (spec.runs + p.shard_size - 1) / p.shard_size;
  p.num_shards = std::max(p.num_shards, 1u);
  return p;
}

// Validates a result file against the plan; a std::nullopt means the
// artifact is missing/corrupt/mismatched and the shard must re-run.
std::optional<ShardResult> TryLoadResult(const std::string& path,
                                         std::uint64_t fingerprint,
                                         unsigned shard, unsigned begin,
                                         unsigned end, std::string* why) {
  try {
    ShardResult r = DecodeShardResult(ReadFileToString(path));
    if (r.fingerprint != fingerprint) throw std::runtime_error(
        "fingerprint mismatch");
    if (r.shard_index != shard || r.trial_begin != begin ||
        r.trial_end != end) {
      throw std::runtime_error("trial range mismatch");
    }
    if (r.counts.runs != end - begin) {
      throw std::runtime_error("incomplete trial count");
    }
    return r;
  } catch (const std::exception& e) {
    if (why != nullptr) *why = e.what();
    return std::nullopt;
  }
}

void SweepTempFiles(const std::string& dir) {
  for (const std::string& name : ListDir(dir)) {
    if (name.find(".tmp.") != std::string::npos) {
      RemoveFileIfExists(JoinPath(dir, name));
    }
  }
}

}  // namespace

bool CoupledAcrossTrials(const ShardCampaignSpec& spec) {
  const CampaignConfig cc = MakeCampaignConfig(spec);
  return cc.recovery.enabled && cc.recovery.escalate;
}

CampaignConfig MakeCampaignConfig(const ShardCampaignSpec& spec) {
  CampaignConfig cc;
  cc.target = spec.target;
  cc.faulty_blocks = spec.faulty_blocks;
  cc.bits_per_block = spec.bits_per_block;
  cc.runs = spec.runs;
  cc.seed = spec.seed;
  cc.recovery.enabled = spec.recovery_retries > 0;
  cc.recovery.max_retries = spec.recovery_retries;
  cc.escalation_epoch = spec.escalation_epoch;
  return cc;
}

CampaignSpec MakeCampaignSpec(const ShardCampaignSpec& spec,
                              const apps::ProfileResult& profile) {
  CampaignSpec cs;
  cs.make_app = [app = spec.app, scale = spec.scale] {
    return apps::MakeApp(app, scale);
  };
  cs.profile = &profile;
  cs.scheme = spec.scheme;
  cs.cover_objects = spec.cover;
  cs.object_names = spec.objects;
  cs.allow_unsound = spec.allow_unsound;
  return cs;
}

std::uint64_t CampaignFingerprint(const ShardCampaignSpec& spec,
                                  std::uint64_t trace_checksum) {
  std::ostringstream os;
  os << "app=" << spec.app
     << "|scale=" << NameOf(apps::kScaleNames, spec.scale)
     << "|scheme=" << NameOf(sim::kSchemeNames, spec.scheme) << "|cover=";
  if (spec.cover.has_value()) {
    os << *spec.cover;
  } else {
    os << "auto";
  }
  os << "|objects=";
  for (const std::string& o : spec.objects) os << o << ',';
  os << "|unsound=" << (spec.allow_unsound ? 1 : 0)
     << "|target=" << NameOf(kTargetNames, spec.target)
     << "|blocks=" << spec.faulty_blocks << "|bits=" << spec.bits_per_block
     << "|runs=" << spec.runs << "|seed=" << spec.seed
     << "|retries=" << spec.recovery_retries
     << "|epoch=" << spec.escalation_epoch << "|trace=" << trace_checksum
     << "|gpu=" << sim::DumpGpuConfig(spec.gpu);
  return bin::Fnv1a(os.str());
}

std::uint64_t TraceTailChecksum(const std::string& trace_bytes) {
  if (trace_bytes.size() < 8) {
    throw std::runtime_error("trace artifact too short for a checksum");
  }
  bin::Reader r(trace_bytes, "trace artifact");
  r.Skip(trace_bytes.size() - 8);
  return r.U64();
}

namespace {

// One worker process in flight.
struct Inflight {
  unsigned shard = 0;
  Subprocess proc;
  std::uint64_t started_ms = 0;
};

struct ShardState {
  unsigned attempts = 0;          // dispatches so far
  std::uint64_t eligible_ms = 0;  // backoff gate for the next dispatch
};

class Coordinator {
 public:
  Coordinator(const ShardCampaignSpec& spec, const CoordinatorOptions& opts)
      : spec_(spec), opts_(opts), plan_(MakePlan(spec, opts.shards)) {}

  ShardCampaignOutcome Run();

 private:
  bool Done(unsigned s) const { return results_.count(s) != 0; }
  unsigned NumDone() const {
    return static_cast<unsigned>(results_.size());
  }
  bool StopRequested() const {
    return opts_.stop != nullptr &&
           opts_.stop->load(std::memory_order_relaxed);
  }

  void PrepareTrace();
  void LoadOrInitManifest();
  void CheckpointManifest();
  void WriteHandoff(unsigned s);
  void Dispatch(unsigned s);
  // Returns false when the shard's retry budget is exhausted.
  bool RecordFailure(unsigned s, const std::string& why);
  void ReapAndTimeout();
  void DrainFleet();
  ShardCampaignOutcome Finish(int exit_code);

  const ShardCampaignSpec& spec_;
  const CoordinatorOptions& opts_;
  ShardPlan plan_;
  std::string trace_path_;
  std::string gpu_conf_path_;
  std::uint64_t fingerprint_ = 0;
  std::map<unsigned, ShardResult> results_;  // merged shards, by index
  std::vector<ShardState> state_;
  std::vector<Inflight> fleet_;
  unsigned redispatches_ = 0;
  bool budget_exhausted_ = false;
};

void Coordinator::PrepareTrace() {
  trace_path_ = opts_.trace_path.empty() ? JoinPath(opts_.workdir, "trace.bin")
                                         : opts_.trace_path;
  if (!FileExists(trace_path_)) {
    if (!opts_.trace_path.empty()) {
      throw std::runtime_error("trace artifact not found: " + trace_path_);
    }
    if (opts_.resume) {
      throw std::runtime_error(
          "cannot resume: trace artifact missing from " + opts_.workdir);
    }
    Log(opts_, "profiling " + spec_.app + " to record the trace artifact");
    auto app = apps::MakeApp(spec_.app, spec_.scale);
    const auto profile = apps::ProfileApp(*app, spec_.gpu);
    trace::SaveTraceFile(*profile.trace_store, trace_path_);
  }
  const std::string bytes = ReadFileToString(trace_path_);
  // Reject a corrupt artifact up front, before fanning it out to every
  // worker.
  trace::LoadTraceFromString(bytes);
  fingerprint_ = CampaignFingerprint(spec_, TraceTailChecksum(bytes));
}

void Coordinator::LoadOrInitManifest() {
  const std::string manifest_path = JoinPath(opts_.workdir, "manifest.bin");
  state_.assign(plan_.num_shards, ShardState{});
  if (opts_.resume && FileExists(manifest_path)) {
    const ShardManifest m =
        DecodeShardManifest(ReadFileToString(manifest_path));
    if (m.fingerprint != fingerprint_) {
      throw std::runtime_error(
          "cannot resume: manifest fingerprint does not match this "
          "campaign (different app, flags, config or trace)");
    }
    if (m.total_runs != spec_.runs || m.shard_size != plan_.shard_size ||
        m.num_shards != plan_.num_shards) {
      throw std::runtime_error(
          "cannot resume: manifest shard geometry does not match "
          "(--runs/--shards changed)");
    }
    for (const std::uint32_t s : m.done) {
      std::string why;
      auto r = TryLoadResult(ResultPath(opts_.workdir, s), fingerprint_, s,
                             plan_.Begin(s), plan_.End(s, spec_.runs), &why);
      if (r.has_value()) {
        results_.emplace(s, std::move(*r));
      } else {
        // The manifest says merged but the artifact is gone or bad —
        // demote to pending rather than trusting a half-truth.
        Log(opts_, "shard " + std::to_string(s) +
                       " result invalid on resume (" + why + "); re-running");
      }
    }
    Log(opts_, "resuming: " + std::to_string(NumDone()) + "/" +
                   std::to_string(plan_.num_shards) + " shards already done");
  } else if (opts_.resume) {
    Log(opts_, "resume requested but no manifest found; starting fresh");
  } else {
    // Fresh start: stale artifacts from an earlier campaign in the
    // same workdir must not be mistaken for this one's.
    RemoveFileIfExists(manifest_path);
    for (unsigned s = 0; s < plan_.num_shards; ++s) {
      RemoveFileIfExists(ResultPath(opts_.workdir, s));
      RemoveFileIfExists(HandoffPath(opts_.workdir, s));
      RemoveFileIfExists(LogPath(opts_.workdir, s));
    }
  }
  SweepTempFiles(opts_.workdir);
}

void Coordinator::CheckpointManifest() {
  ShardManifest m;
  m.fingerprint = fingerprint_;
  m.total_runs = spec_.runs;
  m.shard_size = plan_.shard_size;
  m.num_shards = plan_.num_shards;
  for (const auto& [s, r] : results_) m.done.push_back(s);
  WriteFileAtomic(JoinPath(opts_.workdir, "manifest.bin"),
                  EncodeShardManifest(m));
}

void Coordinator::WriteHandoff(unsigned s) {
  LedgerHandoff h;
  h.fingerprint = fingerprint_;
  for (unsigned p = 0; p < s; ++p) {
    const ShardResult& r = results_.at(p);
    h.epoch_deltas.insert(h.epoch_deltas.end(), r.offense_deltas.begin(),
                          r.offense_deltas.end());
  }
  WriteFileAtomic(HandoffPath(opts_.workdir, s), EncodeLedgerHandoff(h));
}

void Coordinator::Dispatch(unsigned s) {
  const bool coupled = CoupledAcrossTrials(spec_);
  if (coupled && s > 0) WriteHandoff(s);
  const bool first_attempt = state_[s].attempts == 0;
  // The worker re-derives the campaign from these flags, written by
  // the same field tables its command line is parsed with.
  RequestParams params;
  params.campaign = spec_;
  params.config_path = gpu_conf_path_;
  params.trace_path = trace_path_;
  WorkerOptions w;
  w.shard_index = s;
  w.trial_begin = plan_.Begin(s);
  w.trial_end = plan_.End(s, spec_.runs);
  w.fingerprint = fingerprint_;
  w.out_path = ResultPath(opts_.workdir, s);
  if (coupled && s > 0) w.ledger_in = HandoffPath(opts_.workdir, s);
  if (first_attempt && opts_.kill_shard >= 0 &&
      static_cast<unsigned>(opts_.kill_shard) == s) {
    w.kill_after = opts_.kill_after;
  }
  if (first_attempt && opts_.hang_shard >= 0 &&
      static_cast<unsigned>(opts_.hang_shard) == s) {
    w.hang_after = opts_.hang_after;
  }
  std::vector<std::string> argv = {opts_.dcrm_binary, "shard-worker",
                                   spec_.app};
  AppendArgs(kRequestFields, params, argv);
  AppendArgs(kWorkerFields, w, argv);
  Inflight f;
  f.shard = s;
  const std::string log = LogPath(opts_.workdir, s);
  f.proc = Subprocess::Spawn(argv, log, log);
  f.started_ms = MonotonicMs();
  ++state_[s].attempts;
  Log(opts_, "dispatched shard " + std::to_string(s) + " [" +
                 std::to_string(plan_.Begin(s)) + "," +
                 std::to_string(plan_.End(s, spec_.runs)) + ") attempt " +
                 std::to_string(state_[s].attempts) + " pid " +
                 std::to_string(f.proc.pid()));
  fleet_.push_back(std::move(f));
}

bool Coordinator::RecordFailure(unsigned s, const std::string& why) {
  RemoveFileIfExists(ResultPath(opts_.workdir, s));
  if (state_[s].attempts > opts_.max_retries) {
    Log(opts_, "shard " + std::to_string(s) + " failed (" + why +
                   "); retry budget exhausted after " +
                   std::to_string(state_[s].attempts) + " attempts");
    return false;
  }
  // Exponential backoff: 1x, 2x, 4x ... of backoff_ms per consecutive
  // failure of this shard.
  const std::uint64_t delay = opts_.backoff_ms
                              << std::min(state_[s].attempts - 1, 20u);
  state_[s].eligible_ms = MonotonicMs() + delay;
  ++redispatches_;
  Log(opts_, "shard " + std::to_string(s) + " failed (" + why +
                 "); re-dispatching in " + std::to_string(delay) + "ms");
  return true;
}

void Coordinator::ReapAndTimeout() {
  const std::uint64_t now = MonotonicMs();
  for (std::size_t i = 0; i < fleet_.size();) {
    Inflight& f = fleet_[i];
    std::optional<ExitStatus> status = f.proc.Poll();
    if (!status.has_value() && opts_.shard_timeout_ms > 0 &&
        now - f.started_ms > opts_.shard_timeout_ms) {
      // Hung worker: SIGKILL is the only signal a wedged process is
      // guaranteed to honour.
      f.proc.Kill(SIGKILL);
      status = f.proc.Wait();
      status->signaled = true;
      status->code = SIGKILL;
      Log(opts_, "shard " + std::to_string(f.shard) + " timed out after " +
                     std::to_string(opts_.shard_timeout_ms) + "ms");
    }
    if (!status.has_value()) {
      ++i;
      continue;
    }
    const unsigned s = f.shard;
    fleet_.erase(fleet_.begin() + static_cast<std::ptrdiff_t>(i));
    std::string why;
    if (status->ok()) {
      auto r = TryLoadResult(ResultPath(opts_.workdir, s), fingerprint_, s,
                             plan_.Begin(s), plan_.End(s, spec_.runs), &why);
      if (r.has_value()) {
        results_.emplace(s, std::move(*r));
        CheckpointManifest();
        Log(opts_, "shard " + std::to_string(s) + " merged (" +
                       std::to_string(NumDone()) + "/" +
                       std::to_string(plan_.num_shards) + ")");
        continue;
      }
      why = "result " + why;
    } else {
      why = status->Describe();
    }
    if (!RecordFailure(s, why)) budget_exhausted_ = true;
  }
}

void Coordinator::DrainFleet() {
  if (fleet_.empty()) return;
  for (Inflight& f : fleet_) f.proc.Kill(SIGTERM);
  const std::uint64_t deadline = MonotonicMs() + 2000;
  for (Inflight& f : fleet_) {
    while (f.proc.running() && MonotonicMs() < deadline) SleepMs(20);
    if (f.proc.running()) f.proc.Kill(SIGKILL);
    f.proc.Wait();
  }
  fleet_.clear();
}

ShardCampaignOutcome Coordinator::Finish(int exit_code) {
  DrainFleet();
  CheckpointManifest();
  SweepTempFiles(opts_.workdir);
  ShardCampaignOutcome out;
  out.exit_code = exit_code;
  out.shards_done = NumDone();
  out.shards_total = plan_.num_shards;
  out.redispatches = redispatches_;
  // Deterministic merge: ascending shard order, counts by element-wise
  // sum, the ledger by replaying every epoch delta — the same additions
  // the in-process engine performed, in the same order.
  for (const auto& [s, r] : results_) {
    out.counts += r.counts;
    for (const core::EscalationLedger& d : r.offense_deltas) {
      out.ledger.Merge(d);
    }
  }
  if (exit_code == kExitOk && !opts_.csv_path.empty()) {
    std::ofstream os(opts_.csv_path);
    if (!os) throw std::runtime_error("cannot write " + opts_.csv_path);
    WriteCountsCsv(out.counts, out.ledger, os);
  }
  return out;
}

ShardCampaignOutcome Coordinator::Run() {
  EnsureDir(opts_.workdir);
  // Workers must simulate the exact hardware config the fingerprint
  // was computed over, so the coordinator publishes it as an artifact
  // instead of trusting the user's --config to reach every child.
  gpu_conf_path_ = JoinPath(opts_.workdir, "gpu.conf");
  WriteFileAtomic(gpu_conf_path_, sim::DumpGpuConfig(spec_.gpu));
  PrepareTrace();
  LoadOrInitManifest();
  const bool coupled = CoupledAcrossTrials(spec_);
  // Tier-2 escalation makes shard N's plan depend on the offense
  // history of shards 0..N-1, so coupled campaigns dispatch strictly
  // in order, one at a time (parallelism comes from --jobs inside the
  // worker). Independent campaigns fan out across the fleet.
  const unsigned fleet_cap = coupled ? 1 : std::max(opts_.workers, 1u);
  Log(opts_, "campaign " + spec_.app + ": " + std::to_string(spec_.runs) +
                 " trials, " + std::to_string(plan_.num_shards) +
                 " shards of " + std::to_string(plan_.shard_size) +
                 (coupled ? " (coupled: sequential dispatch)" : "") +
                 ", fingerprint " + std::to_string(fingerprint_));

  while (NumDone() < plan_.num_shards) {
    if (StopRequested()) {
      Log(opts_, "stop requested; draining fleet and checkpointing");
      return Finish(kExitInterrupted);
    }
    if (opts_.stop_after_shards >= 0 &&
        NumDone() >= static_cast<unsigned>(opts_.stop_after_shards)) {
      Log(opts_, "injected preemption after " + std::to_string(NumDone()) +
                     " shards; checkpointing");
      return Finish(kExitInterrupted);
    }
    ReapAndTimeout();
    if (budget_exhausted_) return Finish(kExitRetriesExhausted);
    const std::uint64_t now = MonotonicMs();
    for (unsigned s = 0; s < plan_.num_shards && fleet_.size() < fleet_cap;
         ++s) {
      if (Done(s)) continue;
      const bool running = std::any_of(
          fleet_.begin(), fleet_.end(),
          [&](const Inflight& f) { return f.shard == s; });
      if (running) continue;
      // A coupled shard may not start before every predecessor merged.
      if (coupled && (s > 0 && !Done(s - 1))) break;
      if (now < state_[s].eligible_ms) continue;
      Dispatch(s);
    }
    if (NumDone() < plan_.num_shards) SleepMs(20);
  }
  return Finish(kExitOk);
}

}  // namespace

ShardCampaignOutcome RunShardCoordinator(const ShardCampaignSpec& spec,
                                         const CoordinatorOptions& opts) {
  if (opts.dcrm_binary.empty()) {
    throw std::runtime_error("shard coordinator needs the dcrm binary path");
  }
  Coordinator c(spec, opts);
  return c.Run();
}

int RunShardWorker(const ShardCampaignSpec& spec, const WorkerOptions& opts) {
  if (opts.trial_begin > opts.trial_end || opts.trial_end > spec.runs) {
    throw std::runtime_error("shard worker: trial range out of bounds");
  }
  const std::string trace_bytes = ReadFileToString(opts.trace_path);
  const std::uint64_t fp =
      CampaignFingerprint(spec, TraceTailChecksum(trace_bytes));
  if (opts.fingerprint != 0 && fp != opts.fingerprint) {
    throw std::runtime_error(
        "shard worker: campaign fingerprint mismatch — worker flags or "
        "trace artifact differ from the coordinator's");
  }
  const auto trace = trace::LoadTraceFromString(trace_bytes);
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu, {}, trace);
  // Cover resolution is deterministic because every worker derives it
  // from the same trace artifact.
  ParallelCampaign campaign(MakeCampaignSpec(spec, profile),
                            std::max(spec.jobs, 1u));

  const CampaignConfig cc = MakeCampaignConfig(spec);
  const bool coupled = cc.recovery.enabled && cc.recovery.escalate;
  const unsigned epoch =
      coupled && cc.escalation_epoch > 0 ? cc.escalation_epoch : 0;
  std::uint32_t first_epoch = 0;
  if (coupled && epoch > 0) {
    if (opts.trial_begin % epoch != 0) {
      throw std::runtime_error(
          "shard worker: coupled shard must start on an escalation-epoch "
          "boundary");
    }
    first_epoch = opts.trial_begin / epoch;
  }

  // Catch-up: replay the escalation history of the epochs earlier
  // shards ran, so this process's plan (and replica allocation order)
  // is exactly what the in-process engine would have at trial_begin.
  if (!opts.ledger_in.empty()) {
    const LedgerHandoff h =
        DecodeLedgerHandoff(ReadFileToString(opts.ledger_in));
    if (h.fingerprint != fp) {
      throw std::runtime_error("shard worker: ledger handoff fingerprint "
                               "mismatch");
    }
    if (coupled && h.epoch_deltas.size() != first_epoch) {
      throw std::runtime_error(
          "shard worker: ledger handoff covers " +
          std::to_string(h.epoch_deltas.size()) + " epochs, expected " +
          std::to_string(first_epoch));
    }
    campaign.ReplayEscalations(h.epoch_deltas, cc.recovery);
  } else if (coupled && first_epoch != 0) {
    throw std::runtime_error(
        "shard worker: coupled shard needs an escalation-ledger handoff");
  }

  // Deterministic self-fault injection: the Kth completed trial in
  // this process pulls the trigger. SIGKILL is unmaskable — the test
  // double for a machine losing a worker mid-shard; the hang models a
  // wedged process and exercises the coordinator's timeout path.
  std::atomic<unsigned> completed{0};
  const std::function<void(unsigned)> after_trial = [&](unsigned) {
    const unsigned n = ++completed;
    if (opts.kill_after > 0 && n == opts.kill_after) raise(SIGKILL);
    if (opts.hang_after > 0 && n == opts.hang_after) {
      for (;;) SleepMs(1000);
    }
  };
  const bool inject = opts.kill_after > 0 || opts.hang_after > 0;

  CampaignCounts counts;
  std::vector<core::EscalationLedger> deltas;
  if (coupled && epoch > 0) {
    // One engine call per escalation epoch, snapshotting the ledger
    // around each so the result carries per-epoch offense deltas — the
    // granularity successor shards must replay at.
    for (unsigned lo = opts.trial_begin; lo < opts.trial_end;) {
      if (opts.stop != nullptr &&
          opts.stop->load(std::memory_order_relaxed)) {
        break;
      }
      const unsigned hi = std::min(opts.trial_end, lo + epoch);
      EngineOptions eo;
      eo.begin = lo;
      eo.end = hi;
      eo.stop = opts.stop;
      if (inject) eo.after_trial = &after_trial;
      const core::EscalationLedger before = campaign.ledger();
      const CampaignCounts c = campaign.Run(cc, eo);
      counts += c;
      if (c.runs < hi - lo) break;  // interrupted mid-epoch
      deltas.push_back(core::LedgerDelta(campaign.ledger(), before));
      lo = hi;
    }
  } else {
    EngineOptions eo;
    eo.begin = opts.trial_begin;
    eo.end = opts.trial_end;
    eo.stop = opts.stop;
    eo.max_wave = 512;  // stop-flag latency; never changes results
    if (inject) eo.after_trial = &after_trial;
    counts = campaign.Run(cc, eo);
    const core::EscalationLedger& after = campaign.ledger();
    if (!after.counts().empty()) deltas.push_back(after);
  }

  if (counts.runs < opts.trial_end - opts.trial_begin) {
    // Interrupted: shard results are all-or-nothing, so publish
    // nothing and exit resumable — the coordinator (or a resume) will
    // re-run the whole shard.
    return kExitInterrupted;
  }

  ShardResult result;
  result.fingerprint = fp;
  result.shard_index = opts.shard_index;
  result.trial_begin = opts.trial_begin;
  result.trial_end = opts.trial_end;
  result.first_epoch = first_epoch;
  result.counts = counts;
  result.offense_deltas = std::move(deltas);
  WriteFileAtomic(opts.out_path, EncodeShardResult(result));
  return kExitOk;
}

}  // namespace dcrm::fault
