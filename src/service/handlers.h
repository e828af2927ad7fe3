// Request execution (DESIGN.md §14): the one implementation of
// profile, timing, analyze, avf and campaign.
//
// ExecContext owns the content-addressed ArtifactCache and runs every
// request type. The daemon calls it from its scheduler's executor
// thread; `dcrm profile|timing|analyze|avf|campaign` build one in
// process and print its result. A served response is therefore
// bit-identical to the standalone command's stdout and CSV: both are
// the same code.
//
// Two layers of reuse:
//  * TryCached is the connection-thread fast path: a pure cache probe
//    (trace identity via the O(1) checksum-tail probe, campaign
//    identity via CampaignFingerprint) that never executes anything
//    and never throws.
//  * ExecuteCampaignBatch is the scheduler's coalescing primitive:
//    requests for the SAME campaign fingerprint (modulo trial count)
//    run as ONE engine invocation over the longest requested trial
//    range, split back per request through RunCampaignPrefixes —
//    bit-identical to each request running standalone, at the cost of
//    max(runs) trials instead of sum(runs).
//
// Threading contract: TryCached / BatchKey / stats accessors are safe
// from any thread (the cache has its own lock); Execute,
// ExecuteCampaignBatch and ResolveProfile must run on a single
// executor thread (the RequestScheduler's), because cached profile
// artifacts hold live App instances that the driver mutates during
// runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/driver.h"
#include "service/artifact_cache.h"
#include "service/proto.h"

namespace dcrm::service {

// One executed request: the standalone command's exit code, stdout
// text and --csv artifact, plus the service-path markers.
struct ServedResult {
  bool ok = true;
  std::string error;  // set when !ok: what the command prints to stderr
  int exit_code = 0;
  bool cached = false;   // served from the artifact cache
  bool batched = false;  // coalesced into a merged campaign run
  std::string text;
  std::string csv;
};

struct ExecOptions {
  std::uint64_t cache_bytes = 256ull * 1024 * 1024;
  sim::GpuConfig gpu;  // base config; a request may override the engine
  // In-process campaign lanes. Results are bit-identical at any value;
  // it only shows in the summary's "jobs=" field.
  unsigned jobs = 1;
  // Campaign engine stop flag (fault::EngineOptions::stop). A set flag
  // drains the campaign at the next wave boundary; the result is the
  // partial counts with exit code 7, and it is never cached. The CLI
  // passes its SIGINT flag; the daemon drains by finishing its queue
  // instead and passes null.
  const std::atomic<bool>* stop = nullptr;
};

// Coalescing counters (the bench's merge-efficiency numbers).
struct BatchStats {
  std::uint64_t groups = 0;            // merged groups executed
  std::uint64_t grouped_requests = 0;  // requests served via a merge
  std::uint64_t trials_saved = 0;      // sum(runs) - max(runs), summed
};

// A profiled application pinned in the cache: the App instance must
// stay alive (and is mutated by driver runs, hence the single-executor
// contract) alongside its ProfileResult.
struct ProfileArtifact {
  std::unique_ptr<apps::App> app;
  apps::ProfileResult profile;
  // Content checksum of the serialized trace store — the same value a
  // --save-trace artifact of this profile would carry in its tail, so
  // self-profiled and trace-backed requests meet at one identity.
  std::uint64_t trace_checksum = 0;
};

// The CLI's exit-code mapping of a failure, as an ok=false result:
// 6 for a refused unsound plan (with the analyzer report), 3 for a
// detection-terminated run, 4 for a SECDED DUE, 1 otherwise.
ServedResult ErrorResult(const std::exception& e);

class ExecContext {
 public:
  explicit ExecContext(ExecOptions opts);

  // Scheduler grouping key: equal nonzero keys may coalesce into one
  // ExecuteCampaignBatch call. Zero = not batchable (non-campaign
  // types; coupled Tier-2 campaigns, whose cross-trial ledger coupling
  // forbids prefix splitting; unreadable trace artifacts). Built from
  // CampaignFingerprint with the trial count zeroed out — requests
  // differing only in `runs` share a key — plus the
  // importance-sampling flag, which the fingerprint predates.
  std::uint64_t BatchKey(const RequestSpec& req) const;

  // Cache-only fast path; never executes, never throws. nullopt on a
  // miss or any probe failure (the slow path will surface the error).
  std::optional<ServedResult> TryCached(const RequestSpec& req);

  // Runs one request end to end (campaigns go through a singleton
  // batch). Never throws: failures come back as ErrorResult.
  ServedResult Execute(const RequestSpec& req);

  // Runs a group of campaign requests with identical BatchKey as one
  // merged engine invocation. Results are positionally matched to
  // `reqs` and marked batched when the group actually merged (>1
  // uncached member).
  std::vector<ServedResult> ExecuteCampaignBatch(
      std::span<const RequestSpec> reqs);

  // Loads or profiles the request's application, cached under its
  // (app, scale, gpu, trace) identity. Throws on failure. `dcrm
  // profile --save/--save-trace` read the profile through this.
  std::shared_ptr<const ProfileArtifact> ResolveProfile(
      const RequestSpec& req);

  ArtifactCache& cache() { return cache_; }
  BatchStats batch_stats() const;

 private:
  // The cached result under `key`, marked cached.
  std::optional<ServedResult> CachedResult(const std::string& key);

  ExecOptions opts_;
  ArtifactCache cache_;
  std::atomic<std::uint64_t> groups_{0};
  std::atomic<std::uint64_t> grouped_requests_{0};
  std::atomic<std::uint64_t> trials_saved_{0};
};

}  // namespace dcrm::service
