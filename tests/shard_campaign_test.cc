// Crash-tolerant sharded campaign tests (DESIGN.md §11).
//
// The property under test everywhere: CampaignCounts and the
// escalation ledger are a pure function of (campaign spec, seed) —
// bit-identical whether the campaign runs in one process with
// --jobs=N, split across M worker processes, or killed partway and
// resumed. The coordinator tests spawn real `dcrm shard-worker`
// subprocesses (DCRM_BIN) and inject real failures: SIGKILL
// mid-shard, a wedged worker that must be timed out, an exhausted
// retry budget, a preempted coordinator that resumes.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "common/file_util.h"
#include "common/subprocess.h"
#include "fault/parallel_campaign.h"
#include "fault/shard_coordinator.h"
#include "fault/shard_io.h"
#include "trace/trace_io.h"

namespace {

using namespace dcrm;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dcrm_shard_" + name;
  EnsureDir(dir);
  return dir;
}

fault::ShardCampaignSpec BaseSpec(unsigned runs, unsigned recovery_retries,
                                  std::uint64_t seed = 1) {
  fault::ShardCampaignSpec spec;
  spec.app = "P-ATAX";
  spec.scale = apps::AppScale::kTiny;
  spec.scheme = sim::Scheme::kDetectOnly;
  spec.runs = runs;
  spec.seed = seed;
  spec.recovery_retries = recovery_retries;
  spec.escalation_epoch = 8;
  spec.jobs = 1;
  return spec;
}

fault::CoordinatorOptions BaseOpts(const std::string& workdir) {
  fault::CoordinatorOptions opts;
  opts.dcrm_binary = DCRM_BIN;
  opts.workdir = workdir;
  opts.shards = 2;
  opts.workers = 2;
  opts.backoff_ms = 10;  // keep retry tests fast
  return opts;
}

struct Reference {
  fault::CampaignCounts counts;
  core::EscalationLedger ledger;
};

// The single-process ground truth: the same campaign through the
// in-process parallel engine.
Reference InProcess(const fault::ShardCampaignSpec& spec, unsigned jobs) {
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  unsigned cover = spec.cover.value_or(
      static_cast<unsigned>(profile.hot.hot_objects.size()));
  if (spec.scheme == sim::Scheme::kNone) cover = 0;
  fault::CampaignSpec cs;
  cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
  cs.profile = &profile;
  cs.scheme = spec.scheme;
  cs.cover_objects = cover;
  cs.object_names = spec.objects;
  cs.allow_unsound = spec.allow_unsound;
  fault::ParallelCampaign campaign(std::move(cs), jobs);
  Reference ref;
  ref.counts = campaign.Run(fault::MakeCampaignConfig(spec));
  ref.ledger = campaign.ledger();
  return ref;
}

void ExpectMatches(const fault::ShardCampaignOutcome& outcome,
                   const Reference& ref) {
  EXPECT_EQ(outcome.counts, ref.counts);
  EXPECT_EQ(outcome.ledger, ref.ledger);
}

fault::ShardResult SampleResult() {
  fault::ShardResult r;
  r.fingerprint = 0x1234abcd5678ef90ULL;
  r.shard_index = 3;
  r.trial_begin = 48;
  r.trial_end = 64;
  r.first_epoch = 6;
  r.counts.runs = 16;
  r.counts.sdc = 5;
  r.counts.masked = 9;
  r.counts.recovered = 2;
  r.counts.corrections = 7;
  r.counts.recovery.retries = 3;
  r.counts.recovery.escalations = 1;
  core::EscalationLedger d0;
  d0.Record(2, 1);
  d0.Record(5, 3);
  core::EscalationLedger d1;
  d1.Record(2, 2);
  r.offense_deltas = {d0, d1};
  return r;
}

// ---------------------------------------------------------------------------
// Wire formats.

TEST(ShardIo, ResultRoundTrips) {
  const fault::ShardResult r = SampleResult();
  EXPECT_EQ(fault::DecodeShardResult(fault::EncodeShardResult(r)), r);
}

TEST(ShardIo, ManifestRoundTrips) {
  fault::ShardManifest m;
  m.fingerprint = 99;
  m.total_runs = 1000;
  m.shard_size = 128;
  m.num_shards = 8;
  m.done = {0, 2, 3, 7};
  EXPECT_EQ(fault::DecodeShardManifest(fault::EncodeShardManifest(m)), m);
}

TEST(ShardIo, HandoffRoundTrips) {
  fault::LedgerHandoff h;
  h.fingerprint = 7;
  core::EscalationLedger d;
  d.Record(1, 4);
  h.epoch_deltas = {core::EscalationLedger{}, d};
  EXPECT_EQ(fault::DecodeLedgerHandoff(fault::EncodeLedgerHandoff(h)), h);
}

// Crash tolerance at the byte level: any prefix and any single-byte
// corruption of an artifact is rejected whole — a half-written file
// can never smuggle bad data into the merge.
TEST(ShardIo, RejectsEveryTruncationAndByteFlip) {
  const std::string good = fault::EncodeShardResult(SampleResult());
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(fault::DecodeShardResult(good.substr(0, n)),
                 std::runtime_error)
        << "truncated to " << n << " of " << good.size() << " bytes";
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    EXPECT_THROW(fault::DecodeShardResult(bad), std::runtime_error)
        << "flipped byte " << i;
  }
  EXPECT_THROW(fault::DecodeShardResult(good + "x"), std::runtime_error);
  const std::string manifest =
      fault::EncodeShardManifest(fault::ShardManifest{1, 10, 5, 2, {0}});
  EXPECT_THROW(fault::DecodeShardResult(manifest), std::runtime_error)
      << "wrong artifact type must be rejected by magic";
}

TEST(ShardIo, CountsCsvIsCanonical) {
  fault::CampaignCounts c;
  c.runs = 10;
  c.sdc = 2;
  core::EscalationLedger ledger;
  ledger.Record(5, 1);
  ledger.Record(2, 3);
  std::ostringstream a;
  fault::WriteCountsCsv(c, ledger, a);
  // Ledger rows come out in object-id order regardless of insertion
  // order (hash-map iteration must never leak into artifacts).
  core::EscalationLedger reordered;
  reordered.Record(2, 3);
  reordered.Record(5, 1);
  std::ostringstream b;
  fault::WriteCountsCsv(c, reordered, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("offense,2,3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine range calls (the worker's building block, in-process).

TEST(ShardEngine, RangeSplitsMergeToWholeRun) {
  const auto spec = BaseSpec(32, /*recovery_retries=*/1);
  const Reference whole = InProcess(spec, 1);

  // Same campaign as four range calls on one instance: counts sum and
  // the ledger evolves identically.
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  fault::CampaignSpec cs;
  cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
  cs.profile = &profile;
  cs.scheme = spec.scheme;
  cs.cover_objects =
      static_cast<unsigned>(profile.hot.hot_objects.size());
  fault::ParallelCampaign split(std::move(cs), 1);
  const fault::CampaignConfig cc = fault::MakeCampaignConfig(spec);
  fault::CampaignCounts sum;
  for (unsigned lo = 0; lo < spec.runs; lo += 8) {
    fault::EngineOptions eo;
    eo.begin = lo;
    eo.end = lo + 8;
    sum += split.Run(cc, eo);
  }
  EXPECT_EQ(sum, whole.counts);
  EXPECT_EQ(split.ledger(), whole.ledger);
}

// The full cross-process hand-off protocol, in-process: a fresh
// campaign instance that replays the first half's per-epoch offense
// deltas must continue bit-identically — including escalation replica
// allocation order, the subtle part.
TEST(ShardEngine, ReplayedHandoffContinuesBitIdentically) {
  const auto spec = BaseSpec(48, /*recovery_retries=*/2);
  const fault::CampaignConfig cc = fault::MakeCampaignConfig(spec);
  const Reference whole = InProcess(spec, 1);

  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  const auto make_campaign = [&] {
    fault::CampaignSpec cs;
    cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
    cs.profile = &profile;
    cs.scheme = spec.scheme;
    cs.cover_objects =
        static_cast<unsigned>(profile.hot.hot_objects.size());
    return fault::ParallelCampaign(std::move(cs), 1);
  };

  // "Shard 0": epochs 0..2, one engine call per epoch, snapshotting
  // per-epoch offense deltas exactly as RunShardWorker does.
  auto first = make_campaign();
  fault::CampaignCounts counts;
  std::vector<core::EscalationLedger> deltas;
  for (unsigned lo = 0; lo < 24; lo += 8) {
    fault::EngineOptions eo;
    eo.begin = lo;
    eo.end = lo + 8;
    const core::EscalationLedger before = first.ledger();
    counts += first.Run(cc, eo);
    deltas.push_back(core::LedgerDelta(first.ledger(), before));
  }

  // "Shard 1": a brand-new process-equivalent instance catches up by
  // replaying the deltas, then runs trials 24..48.
  auto second = make_campaign();
  second.ReplayEscalations(deltas, cc.recovery);
  fault::EngineOptions eo;
  eo.begin = 24;
  eo.end = 48;
  for (unsigned lo = 24; lo < 48; lo += 8) {
    fault::EngineOptions step;
    step.begin = lo;
    step.end = lo + 8;
    counts += second.Run(cc, step);
  }
  EXPECT_EQ(counts, whole.counts);

  core::EscalationLedger merged = first.ledger();
  merged.Merge(core::LedgerDelta(second.ledger(), [&] {
    core::EscalationLedger handed;
    for (const auto& d : deltas) handed.Merge(d);
    return handed;
  }()));
  EXPECT_EQ(merged, whole.ledger);
}

TEST(ShardEngine, StopFlagDrainsAtWaveBoundary) {
  const auto spec = BaseSpec(32, 0);
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  fault::CampaignSpec cs;
  cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
  cs.profile = &profile;
  cs.scheme = spec.scheme;
  cs.cover_objects =
      static_cast<unsigned>(profile.hot.hot_objects.size());
  fault::ParallelCampaign campaign(std::move(cs), 1);
  fault::CampaignConfig cc = fault::MakeCampaignConfig(spec);

  std::atomic<bool> stop{false};
  std::atomic<unsigned> done{0};
  const std::function<void(unsigned)> hook = [&](unsigned) {
    if (++done == 4) stop.store(true);
  };
  fault::EngineOptions eo;
  eo.stop = &stop;
  eo.max_wave = 8;
  eo.after_trial = &hook;
  const auto counts = campaign.Run(cc, eo);
  // The stop landed mid-wave 0; the engine finishes that whole wave
  // and stops at the boundary: a whole number of waves, short of the
  // full campaign.
  EXPECT_EQ(counts.runs % 8, 0u);
  EXPECT_LT(counts.runs, spec.runs);
  EXPECT_GE(counts.runs, 8u);
}

// ---------------------------------------------------------------------------
// Coordinator + real worker processes.

TEST(ShardCoordinator, MatchesInProcessWithoutRecovery) {
  const auto spec = BaseSpec(30, 0);
  auto opts = BaseOpts(TestDir("plain"));
  opts.shards = 3;
  const auto outcome = fault::RunShardCoordinator(spec, opts);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  EXPECT_EQ(outcome.shards_done, 3u);
  EXPECT_EQ(outcome.redispatches, 0u);
  ExpectMatches(outcome, InProcess(spec, 2));
}

TEST(ShardCoordinator, MatchesInProcessWithEscalationChain) {
  // Coupled mode: recovery with Tier-2 escalation forces sequential
  // dispatch with per-epoch ledger hand-off between shards. 64 trials
  // at seed 1 are known to cross the escalation threshold, so the
  // hand-off is genuinely exercised.
  const auto spec = BaseSpec(64, 2);
  auto opts = BaseOpts(TestDir("coupled"));
  opts.shards = 4;
  const auto outcome = fault::RunShardCoordinator(spec, opts);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  const Reference ref = InProcess(spec, 2);
  ExpectMatches(outcome, ref);
  // The scenario must actually exercise escalation or it proves
  // nothing about the hand-off.
  EXPECT_GT(ref.counts.recovery.escalations, 0u);
}

TEST(ShardCoordinator, KilledWorkerAndResumeStayBitIdentical) {
  // The acceptance matrix: seeds x shard counts, each cell SIGKILLs a
  // worker mid-shard, preempts the coordinator after one merge, then
  // resumes — and must still match the uninterrupted in-process run.
  const std::string trace_dir = TestDir("matrix_trace");
  const std::string trace_path = trace_dir + "/trace.bin";
  {
    auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
    trace::SaveTraceFile(*profile.trace_store, trace_path);
  }
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    for (const unsigned shards : {2u, 4u}) {
      const auto spec = BaseSpec(32, 1, seed);
      const std::string dir = TestDir(
          "matrix_" + std::to_string(seed) + "_" + std::to_string(shards));
      auto opts = BaseOpts(dir);
      opts.trace_path = trace_path;
      opts.shards = shards;
      opts.kill_shard = 1;
      opts.kill_after = 3;
      opts.stop_after_shards = 1;
      const auto first = fault::RunShardCoordinator(spec, opts);
      EXPECT_EQ(first.exit_code, fault::kExitInterrupted)
          << "seed " << seed << " shards " << shards;

      auto resume = BaseOpts(dir);
      resume.trace_path = trace_path;
      resume.shards = shards;
      resume.resume = true;
      const auto outcome = fault::RunShardCoordinator(spec, resume);
      EXPECT_EQ(outcome.exit_code, fault::kExitOk)
          << "seed " << seed << " shards " << shards;
      ExpectMatches(outcome, InProcess(spec, 2));
    }
  }
}

TEST(ShardCoordinator, HungWorkerIsTimedOutAndRedispatched) {
  const auto spec = BaseSpec(16, 1);
  auto opts = BaseOpts(TestDir("hung"));
  opts.shards = 2;
  opts.hang_shard = 0;
  opts.hang_after = 2;
  opts.shard_timeout_ms = 3000;
  opts.max_retries = 2;
  const auto outcome = fault::RunShardCoordinator(spec, opts);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  EXPECT_GE(outcome.redispatches, 1u);
  ExpectMatches(outcome, InProcess(spec, 1));
}

TEST(ShardCoordinator, RetryBudgetExhaustionIsResumable) {
  const auto spec = BaseSpec(16, 0);
  const std::string dir = TestDir("budget");
  auto opts = BaseOpts(dir);
  opts.shards = 2;
  opts.kill_shard = 0;
  opts.kill_after = 1;
  opts.max_retries = 0;  // first failure exhausts the budget
  const auto first = fault::RunShardCoordinator(spec, opts);
  EXPECT_EQ(first.exit_code, fault::kExitRetriesExhausted);
  EXPECT_LT(first.shards_done, 2u);

  auto resume = BaseOpts(dir);
  resume.shards = 2;
  resume.resume = true;
  const auto outcome = fault::RunShardCoordinator(spec, resume);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  ExpectMatches(outcome, InProcess(spec, 2));
}

TEST(ShardCoordinator, ResumeRefusesMismatchedManifest) {
  const auto spec = BaseSpec(16, 0);
  const std::string dir = TestDir("mismatch");
  auto opts = BaseOpts(dir);
  ASSERT_EQ(fault::RunShardCoordinator(spec, opts).exit_code,
            fault::kExitOk);

  // Different seed -> different fingerprint: merging old results into
  // the new campaign would be silent corruption, so it must throw.
  auto other = BaseSpec(16, 0, /*seed=*/99);
  auto resume = BaseOpts(dir);
  resume.resume = true;
  EXPECT_THROW(fault::RunShardCoordinator(other, resume),
               std::runtime_error);

  // Same campaign, different shard geometry: also refused.
  auto regeo = BaseOpts(dir);
  regeo.resume = true;
  regeo.shards = 4;
  EXPECT_THROW(fault::RunShardCoordinator(spec, regeo),
               std::runtime_error);
}

TEST(ShardCoordinator, CorruptResultFileIsReRunOnResume) {
  const auto spec = BaseSpec(16, 0);
  const std::string dir = TestDir("corrupt_result");
  auto opts = BaseOpts(dir);
  ASSERT_EQ(fault::RunShardCoordinator(spec, opts).exit_code,
            fault::kExitOk);

  // Truncate shard 1's result behind the manifest's back (a torn disk,
  // a partial copy). Resume must detect it, demote the shard to
  // pending, re-run it, and still converge to the same totals.
  const std::string victim = dir + "/result-1.bin";
  const std::string bytes = ReadFileToString(victim);
  WriteFileAtomic(victim, bytes.substr(0, bytes.size() / 2));

  auto resume = BaseOpts(dir);
  resume.resume = true;
  const auto outcome = fault::RunShardCoordinator(spec, resume);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  ExpectMatches(outcome, InProcess(spec, 2));
}

TEST(ShardCoordinator, LeavesNoTempFilesBehind) {
  const auto spec = BaseSpec(16, 1);
  const std::string dir = TestDir("no_temps");
  auto opts = BaseOpts(dir);
  opts.kill_shard = 0;
  opts.kill_after = 1;  // a SIGKILLed writer may orphan a temp file
  const auto outcome = fault::RunShardCoordinator(spec, opts);
  EXPECT_EQ(outcome.exit_code, fault::kExitOk);
  for (const std::string& name : ListDir(dir)) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos)
        << "orphaned temp file: " << name;
  }
}

// ---------------------------------------------------------------------------
// CLI surface.

TEST(ShardCli, SigintDrainsCampaignWithExitCode7) {
  const std::string dir = TestDir("sigint");
  auto proc = Subprocess::Spawn(
      {DCRM_BIN, "campaign", "P-ATAX", "--scale=tiny", "--runs=200000",
       "--scheme=detect"},
      dir + "/out.log", dir + "/err.log");
  // Let it get past flag parsing and profiling into the trial loop,
  // then interrupt. The handler drains at the next wave boundary and
  // reports partial counts with the resumable exit code.
  SleepMs(1500);
  proc.Kill(SIGINT);
  const ExitStatus status = proc.Wait();
  EXPECT_FALSE(status.signaled);
  EXPECT_EQ(status.code, fault::kExitInterrupted);
  const std::string err = ReadFileToString(dir + "/err.log");
  EXPECT_NE(err.find("interrupted"), std::string::npos);
}

// Malformed and out-of-range numbers are usage errors, checked by the
// same field table the daemon's decoder uses. The cheap cases come
// first: an older binary that ran `--runs=12abc` as 12 trials fails
// there, before `--runs=-1` would try to allocate 2^32 trials.
TEST(ShardCli, MalformedNumbersAreUsageErrors) {
  const std::string dir = TestDir("cli_flags");
  const std::vector<std::vector<std::string>> cases = {
      {"--runs=12abc"},
      {"--blocks=0"},
      {"--epoch=0", "--recovery=2"},
      {"--runs=-1"},
  };
  for (const auto& flags : cases) {
    std::vector<std::string> argv = {DCRM_BIN, "campaign", "P-ATAX",
                                     "--scale=tiny", "--scheme=detect"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    RemoveFileIfExists(dir + "/err.log");
    const ExitStatus status =
        Subprocess::Spawn(argv, dir + "/out.log", dir + "/err.log").Wait();
    ASSERT_FALSE(status.signaled) << flags.front();
    ASSERT_EQ(status.code, 2) << flags.front();
    EXPECT_NE(ReadFileToString(dir + "/err.log").find("bad flag"),
              std::string::npos)
        << flags.front();
  }
}

TEST(ShardCli, WorkerRefusesFingerprintMismatch) {
  const std::string dir = TestDir("cli_fp");
  {
    auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
    const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
    trace::SaveTraceFile(*profile.trace_store, dir + "/trace.bin");
  }
  auto proc = Subprocess::Spawn(
      {DCRM_BIN, "shard-worker", "P-ATAX", "--scale=tiny", "--runs=16",
       "--scheme=detect", "--load-trace=" + dir + "/trace.bin",
       "--trial-begin=0", "--trial-end=8", "--shard-index=0",
       "--fingerprint=12345", "--out=" + dir + "/result-0.bin"},
      dir + "/out.log", dir + "/err.log");
  const ExitStatus status = proc.Wait();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(FileExists(dir + "/result-0.bin"));
  const std::string err = ReadFileToString(dir + "/err.log");
  EXPECT_NE(err.find("fingerprint"), std::string::npos);
}

}  // namespace
