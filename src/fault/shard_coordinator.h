// Crash-tolerant multi-process campaign sharding (DESIGN.md §11).
//
// The coordinator splits a campaign's trial range into epoch-aligned
// shards, dispatches each to a `dcrm shard-worker` child process fed
// the campaign plan plus a shared trace artifact, and merges the
// validated per-shard results — CampaignCounts and offense-event
// ledger epochs — deterministically, bit-identical to the in-process
// `--jobs=N` engine. Crash tolerance is checkpoint/resume at shard
// granularity:
//
//  * after every merge the coordinator atomically rewrites a
//    checksummed manifest naming the shards already merged, so a
//    killed coordinator resumes by re-running only what is missing;
//  * a dead worker (nonzero exit, signal), a hung worker (timeout →
//    SIGKILL) or a truncated/corrupt result file is re-dispatched with
//    exponential backoff up to a retry budget;
//  * SIGINT/SIGTERM (or a preemption injection) drains the fleet and
//    flushes a final checkpoint, exiting with the resumable code 7.
//
// Determinism across process boundaries: every worker re-derives the
// identical campaign from (spec, trace artifact) — verified by a
// fingerprint over both — and trials draw from counter-based per-trial
// RNG streams, so a trial's result does not depend on which process
// runs it or after how many crashes. Cross-trial Tier-2 escalation is
// handled by dispatching coupled campaigns sequentially and handing
// each shard the per-epoch offense history of its predecessors to
// replay (fault/parallel_campaign.h: ReplayEscalations).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "core/recovery.h"
#include "fault/campaign.h"
#include "sim/config.h"

namespace dcrm::fault {

struct CampaignSpec;

// The full campaign definition both sides of the process boundary
// share. Everything that influences a trial's result is in here (or in
// the trace artifact); the fingerprint covers both.
struct ShardCampaignSpec {
  std::string app;
  apps::AppScale scale = apps::AppScale::kSmall;
  sim::Scheme scheme = sim::Scheme::kNone;
  std::optional<unsigned> cover;     // nullopt = all hot objects
  std::vector<std::string> objects;  // explicit cover, may be writable
  bool allow_unsound = false;
  Target target = Target::kMissWeighted;
  unsigned faulty_blocks = 1;
  unsigned bits_per_block = 2;
  unsigned runs = 1000;
  std::uint64_t seed = 1;
  // 0 = no recovery (the paper's detect-and-die); >0 enables the
  // tiered pipeline with this re-execution budget, which also turns on
  // Tier-2 escalation — the cross-trial coupling that forces
  // sequential shard dispatch.
  unsigned recovery_retries = 0;
  unsigned escalation_epoch = 16;
  unsigned jobs = 1;  // in-process lanes per worker
  sim::GpuConfig gpu;
};

// True when Tier-2 escalation couples trials across shards, forcing
// sequential dispatch with ledger hand-off.
bool CoupledAcrossTrials(const ShardCampaignSpec& spec);

CampaignConfig MakeCampaignConfig(const ShardCampaignSpec& spec);

// The engine-side spec of this campaign over `profile`; the engine
// resolves its cover with apps::ResolveCover.
CampaignSpec MakeCampaignSpec(const ShardCampaignSpec& spec,
                              const apps::ProfileResult& profile);

// FNV-1a over the canonical parameter string plus the trace artifact's
// own trailing checksum: two processes agree on the fingerprint iff
// they will run the same campaign on the same recorded traces.
// Deliberately excludes jobs/shards/workers — scheduling must not
// change results, so it must not change identity either.
std::uint64_t CampaignFingerprint(const ShardCampaignSpec& spec,
                                  std::uint64_t trace_checksum);

// The trailing 8-byte FNV-1a checksum of a saved trace artifact.
// Throws std::runtime_error when the file is unreadable or too short.
std::uint64_t TraceTailChecksum(const std::string& trace_bytes);

struct CoordinatorOptions {
  std::string dcrm_binary;  // path to the dcrm executable to spawn
  std::string workdir = "dcrm_shard_work";
  // Existing trace artifact to share with workers; empty = profile the
  // app once and save <workdir>/trace.bin.
  std::string trace_path;
  unsigned shards = 4;
  unsigned workers = 2;  // concurrent worker processes (coupled: 1)
  // 0 = no timeout. A worker exceeding it is SIGKILLed and
  // re-dispatched (the hung-worker path).
  std::uint64_t shard_timeout_ms = 0;
  unsigned max_retries = 3;   // re-dispatch budget per shard
  std::uint64_t backoff_ms = 500;  // doubled per consecutive failure
  bool resume = false;
  // Deterministic self-fault-injection, applied to a shard's first
  // dispatch only (retries run clean — the recovery path under test):
  // kill_shard's worker SIGKILLs itself after kill_after trials;
  // hang_shard's worker sleeps forever after hang_after trials.
  int kill_shard = -1;
  unsigned kill_after = 0;
  int hang_shard = -1;
  unsigned hang_after = 0;
  // Preemption injection: drain + checkpoint + exit 7 after this many
  // shards have merged (-1 = never). Exercises the resume path without
  // real signals.
  int stop_after_shards = -1;
  std::string csv_path;  // merged counts+ledger CSV on success
  const std::atomic<bool>* stop = nullptr;  // SIGINT/SIGTERM flag
  std::ostream* log = nullptr;  // progress log (null = silent)
};

// Exit codes shared by the coordinator, the CLI and the campaign
// engine's interrupt path (the authoritative table lives in
// README.md).
inline constexpr int kExitOk = 0;
inline constexpr int kExitInterrupted = 7;      // resumable: drained
inline constexpr int kExitRetriesExhausted = 8; // resumable: gave up

struct ShardCampaignOutcome {
  int exit_code = kExitOk;
  // Merged totals over the shards done so far (all shards when
  // exit_code == 0).
  CampaignCounts counts;
  core::EscalationLedger ledger;
  unsigned shards_done = 0;
  unsigned shards_total = 0;
  unsigned redispatches = 0;  // worker failures that were retried
};

// Runs the whole sharded campaign (or resumes one). Throws
// std::runtime_error on unrecoverable setup errors — unreadable or
// corrupt trace artifact, a resume manifest whose fingerprint or shard
// geometry does not match this invocation.
ShardCampaignOutcome RunShardCoordinator(const ShardCampaignSpec& spec,
                                         const CoordinatorOptions& opts);

struct WorkerOptions {
  unsigned shard_index = 0;
  unsigned trial_begin = 0;
  unsigned trial_end = 0;
  // Expected campaign fingerprint (0 = skip the check); the worker
  // refuses to run a plan that does not match the coordinator's.
  std::uint64_t fingerprint = 0;
  std::string trace_path;
  std::string out_path;
  std::string ledger_in;  // escalation history to replay (coupled)
  // Self-fault injection (see CoordinatorOptions).
  unsigned kill_after = 0;
  unsigned hang_after = 0;
  const std::atomic<bool>* stop = nullptr;
};

// Runs one shard in this process and atomically publishes its result
// file. Returns kExitOk, or kExitInterrupted when stopped before the
// shard completed (no result is written — shard results are
// all-or-nothing). Throws std::runtime_error on setup/validation
// failure.
int RunShardWorker(const ShardCampaignSpec& spec, const WorkerOptions& opts);

}  // namespace dcrm::fault
