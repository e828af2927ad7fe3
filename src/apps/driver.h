// High-level driver: runs an application once fault-free while
// collecting everything the reliability framework needs — access
// profile, warp traces, L1-miss profile, hot classification, golden
// outputs. This is the paper's "one-time offline profiling" step.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/app.h"
#include "core/access_profile.h"
#include "core/hot_classifier.h"
#include "core/replication.h"
#include "sim/config.h"
#include "sim/gpu.h"
#include "sim/stats.h"
#include "trace/trace_store.h"

namespace dcrm::apps {

struct ProfileResult {
  std::unique_ptr<mem::DeviceMemory> dev;  // populated, fault-free state
  core::AccessProfiler profiler;
  // Immutable columnar trace artifact, shared by every downstream layer
  // (timing replay, analyzer, campaign workers) without copying.
  std::shared_ptr<const trace::TraceStore> trace_store;
  core::HotClassification hot;
  // Baseline timing-simulation stats (also the Fig. 8 miss profile).
  sim::GpuStats timing_baseline;
  std::vector<float> golden;  // fault-free outputs
};

// Runs `app` fault-free once, profiling every access and recording
// the trace in the same pass, then runs the baseline timing replay
// (the miss profile) and hot classification. When `preloaded` is
// non-null (a store read back via trace::LoadTrace), the functional
// pass still runs — the profiler and golden outputs need it — but
// records no trace; the loaded store is used for the miss replay,
// transaction counts, and everything downstream.
ProfileResult ProfileApp(App& app, const sim::GpuConfig& cfg,
                         const core::HotConfig& hot_cfg = {},
                         std::shared_ptr<const trace::TraceStore> preloaded =
                             nullptr);

// What a protection plan replicates: `objects`, in this order, under
// `scheme`. `pcs` fills the LD/ST unit's PC table; empty means the
// address-range check alone decides (what a named cover uses, since
// its store sites must be tracked too). No objects, or Scheme::kNone,
// leaves the app unprotected.
struct Cover {
  sim::Scheme scheme = sim::Scheme::kNone;
  std::vector<std::string> objects;
  std::unordered_set<Pc> pcs;
};

// Resolves a request's cover against `profile` — the one place the
// default lives. Scheme::kNone is unprotected. Non-empty `objects`
// names the set, which may include writable objects. Otherwise the
// first `count` objects of the Table III coverage order are covered
// (default: the hot-object count), with the load sites that touch
// them in the PC table (Section IV-C). Throws std::invalid_argument
// when `count` exceeds the coverage order.
Cover ResolveCover(const ProfileResult& profile, sim::Scheme scheme,
                   std::optional<unsigned> count,
                   std::span<const std::string> objects = {});

// Builds the plan for `cover` on a fresh device of `app`, with the
// replicas actually allocated (so replica addresses are realistic for
// the timing model's channel mapping). Store propagation turns on
// when a covered object is read-write (the paper's schemes cover
// read-only inputs only; see ProtectionPlan::propagate_stores). Throws
// std::invalid_argument on an object name the app does not have.
struct ProtectionSetup {
  std::unique_ptr<mem::DeviceMemory> dev;
  sim::ProtectionPlan plan;
};
ProtectionSetup BuildProtection(
    App& app, const Cover& cover, bool lazy_compare = true,
    core::ReplicaPlacement placement = core::ReplicaPlacement::kDefault);

// The first `cover_objects` entries of the coverage order; 0 or
// Scheme::kNone leaves the app unprotected.
ProtectionSetup MakeProtectionSetup(
    App& app, const ProfileResult& profile, sim::Scheme scheme,
    unsigned cover_objects, bool lazy_compare = true,
    core::ReplicaPlacement placement = core::ReplicaPlacement::kDefault);

// Replays the profiled traces through the cycle-level simulator under
// `plan`, with the app's arithmetic intensity.
sim::GpuStats RunTiming(const App& app, const ProfileResult& profile,
                        sim::GpuConfig cfg, const sim::ProtectionPlan& plan);

// RunTiming plus the per-SM / per-partition statistics breakdown —
// what the engine differential harness (and `dcrm timing --csv`)
// compares bit-for-bit between the cycle-stepped and event-driven
// engines.
struct TimingDetail {
  sim::GpuStats total;
  std::vector<sim::GpuStats> per_sm;
  std::vector<sim::GpuStats> per_partition;
};
TimingDetail RunTimingDetailed(const App& app, const ProfileResult& profile,
                               sim::GpuConfig cfg,
                               const sim::ProtectionPlan& plan);

}  // namespace dcrm::apps
