// Reliability-service tests (DESIGN.md §14).
//
// The property under test everywhere: a served response is
// bit-identical to the standalone `dcrm` command — whether it came off
// a cold execution, the content-addressed cache, or a coalesced
// campaign batch. The server tests drive a real Unix-domain socket
// with concurrent clients; the SIGTERM test drains a real `dcrm serve`
// subprocess (DCRM_BIN).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/driver.h"
#include "apps/registry.h"
#include "common/file_util.h"
#include "common/socket.h"
#include "common/subprocess.h"
#include "fault/parallel_campaign.h"
#include "fault/request_fields.h"
#include "fault/shard_coordinator.h"
#include "fault/shard_io.h"
#include "service/artifact_cache.h"
#include "service/client.h"
#include "service/handlers.h"
#include "service/proto.h"
#include "service/server.h"
#include "trace/trace_io.h"

namespace {

using namespace dcrm;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dcrm_service_" + name;
  EnsureDir(dir);
  return dir;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

fault::ShardCampaignSpec BaseSpec(unsigned runs, std::uint64_t seed = 1) {
  fault::ShardCampaignSpec spec;
  spec.app = "P-ATAX";
  spec.scale = apps::AppScale::kTiny;
  spec.scheme = sim::Scheme::kDetectOnly;
  spec.runs = runs;
  spec.seed = seed;
  return spec;
}

service::RequestSpec CampaignReq(unsigned runs, std::uint64_t seed = 1) {
  service::RequestSpec req;
  req.type = service::RequestType::kCampaign;
  req.campaign = BaseSpec(runs, seed);
  return req;
}

struct Standalone {
  fault::CampaignCounts counts;
  std::string csv;
};

// Ground truth: the same campaign through the plain in-process engine,
// exactly as `dcrm campaign --csv` runs it.
Standalone RunStandalone(const fault::ShardCampaignSpec& spec) {
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
  fault::ParallelCampaign campaign(std::move(cs), 1);
  Standalone ref;
  ref.counts = campaign.Run(fault::MakeCampaignConfig(spec));
  std::ostringstream os;
  fault::WriteCountsCsv(ref.counts, campaign.ledger(), os);
  ref.csv = os.str();
  return ref;
}

// ---------------------------------------------------------------------------
// Checksum-tail probe (the LoadTrace fast path)

TEST(ServiceTraceProbeTest, ProbeMatchesSavedArtifact) {
  const std::string dir = TestDir("probe");
  auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  ASSERT_NE(profile.trace_store, nullptr);

  const std::string bytes = trace::SaveTraceToString(*profile.trace_store);
  const auto mem = trace::ProbeTraceTailBytes(bytes);
  EXPECT_EQ(mem.version, 1u);

  const std::string path = dir + "/atax.trace";
  trace::SaveTraceFile(*profile.trace_store, path);
  const auto file = trace::ProbeTraceTail(path);
  EXPECT_EQ(file.version, mem.version);
  EXPECT_EQ(file.checksum, mem.checksum);

  // The probe is an identity read, not a validation pass: a payload
  // flip leaves the probe unchanged while the full load still rejects.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x40;
  EXPECT_EQ(trace::ProbeTraceTailBytes(corrupt).checksum, mem.checksum);
  EXPECT_THROW(trace::LoadTraceFromString(corrupt), std::runtime_error);
}

TEST(ServiceTraceProbeTest, ProbeRejectsBadEnvelopes) {
  const std::string dir = TestDir("probe_bad");
  EXPECT_THROW(trace::ProbeTraceTailBytes("short"), std::runtime_error);
  EXPECT_THROW(trace::ProbeTraceTailBytes(std::string(64, 'x')),
               std::runtime_error);
  EXPECT_THROW(trace::ProbeTraceTail(dir + "/missing.trace"),
               std::runtime_error);
  const std::string path = dir + "/trunc.trace";
  std::ofstream(path) << "dcrmtrc\n";  // magic only, no version/tail
  EXPECT_THROW(trace::ProbeTraceTail(path), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Prefix engine (the batching primitive)

TEST(ServicePrefixTest, PrefixesMatchStandaloneRuns) {
  const std::vector<unsigned> ends = {16, 32, 48};
  fault::ShardCampaignSpec spec = BaseSpec(48);
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  fault::CampaignSpec cs;
  cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
  cs.profile = &profile;
  cs.scheme = spec.scheme;
  cs.cover_objects =
      static_cast<unsigned>(profile.hot.hot_objects.size());
  fault::ParallelCampaign campaign(std::move(cs), 1);
  const auto prefixes = campaign.RunPrefixes(
      fault::MakeCampaignConfig(spec), ends, fault::EngineOptions{});
  ASSERT_EQ(prefixes.size(), ends.size());

  for (std::size_t i = 0; i < ends.size(); ++i) {
    const Standalone ref = RunStandalone(BaseSpec(ends[i]));
    EXPECT_EQ(prefixes[i].end, ends[i]);
    EXPECT_EQ(prefixes[i].counts, ref.counts) << "prefix " << ends[i];
    std::ostringstream os;
    fault::WriteCountsCsv(prefixes[i].counts, prefixes[i].ledger, os);
    EXPECT_EQ(os.str(), ref.csv) << "prefix " << ends[i];
  }
}

TEST(ServicePrefixTest, ValidatesBoundaries) {
  fault::ShardCampaignSpec spec = BaseSpec(32);
  auto app = apps::MakeApp(spec.app, spec.scale);
  const auto profile = apps::ProfileApp(*app, spec.gpu);
  auto make = [&] {
    fault::CampaignSpec cs;
    cs.make_app = [&spec] { return apps::MakeApp(spec.app, spec.scale); };
    cs.profile = &profile;
    cs.scheme = spec.scheme;
    cs.cover_objects =
        static_cast<unsigned>(profile.hot.hot_objects.size());
    return cs;
  };
  const fault::CampaignConfig cfg = fault::MakeCampaignConfig(spec);
  const fault::EngineOptions eo;
  {
    fault::ParallelCampaign c(make(), 1);
    EXPECT_THROW(c.RunPrefixes(cfg, std::vector<unsigned>{}, eo),
                 std::invalid_argument);
    EXPECT_THROW(c.RunPrefixes(cfg, std::vector<unsigned>{16, 16}, eo),
                 std::invalid_argument);
    EXPECT_THROW(c.RunPrefixes(cfg, std::vector<unsigned>{0, 16}, eo),
                 std::invalid_argument);
    EXPECT_THROW(c.RunPrefixes(cfg, std::vector<unsigned>{16, 64}, eo),
                 std::invalid_argument);
  }
  // Coupled Tier-2: interior boundaries must sit on escalation epochs.
  spec.recovery_retries = 1;
  spec.escalation_epoch = 8;
  const fault::CampaignConfig coupled = fault::MakeCampaignConfig(spec);
  {
    fault::ParallelCampaign c(make(), 1);
    EXPECT_THROW(c.RunPrefixes(coupled, std::vector<unsigned>{12, 32}, eo),
                 std::invalid_argument);
  }
  {
    fault::ParallelCampaign c(make(), 1);
    const auto ok = c.RunPrefixes(coupled, std::vector<unsigned>{16, 32}, eo);
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok[1].counts.runs, 32u);
  }
}

// ---------------------------------------------------------------------------
// Artifact cache

TEST(ServiceCacheTest, LruEvictionUnderByteBudget) {
  service::ArtifactCache cache(100);
  auto val = [](int n) { return std::make_shared<const int>(n); };
  cache.Put<int>("a", val(1), 40);
  cache.Put<int>("b", val(2), 40);
  ASSERT_NE(cache.Get<int>("a"), nullptr);  // a is now most-recent
  cache.Put<int>("c", val(3), 40);          // 120 bytes: evicts b (LRU)
  EXPECT_EQ(cache.Get<int>("b"), nullptr);
  ASSERT_NE(cache.Get<int>("a"), nullptr);
  ASSERT_NE(cache.Get<int>("c"), nullptr);

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 80u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.hits, 3u);   // a, a, c
  EXPECT_EQ(s.misses, 1u); // the evicted b
}

TEST(ServiceCacheTest, OversizeEntryAdmittedAloneAndTypeChecked) {
  service::ArtifactCache cache(50);
  auto big = std::make_shared<const std::string>("big");
  cache.Put<std::string>("big", big, 500);  // larger than whole budget
  EXPECT_NE(cache.Get<std::string>("big"), nullptr);
  // Wrong type under the same key is a miss, not a crash.
  EXPECT_EQ(cache.Get<int>("big"), nullptr);
  // The next insert pushes the oversize entry out.
  cache.Put<int>("small", std::make_shared<const int>(7), 10);
  EXPECT_EQ(cache.Get<std::string>("big"), nullptr);
  EXPECT_NE(cache.Get<int>("small"), nullptr);
  EXPECT_EQ(cache.stats().bytes, 10u);
}

TEST(ServiceCacheTest, RefreshReplacesInPlace) {
  service::ArtifactCache cache(100);
  cache.Put<int>("k", std::make_shared<const int>(1), 30);
  cache.Put<int>("k", std::make_shared<const int>(2), 60);
  const auto got = cache.Get<int>("k");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 60u);
}

// ---------------------------------------------------------------------------
// Execution context: identity, caching, batching

TEST(ServiceExecTest, CampaignMatchesStandaloneAndRepeatsHitCache) {
  service::ExecContext ctx(service::ExecOptions{});
  const service::RequestSpec req = CampaignReq(40);
  const Standalone ref = RunStandalone(req.campaign);

  EXPECT_FALSE(ctx.TryCached(req).has_value());
  const service::ServedResult cold = ctx.Execute(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(cold.csv, ref.csv);
  EXPECT_NE(cold.text.find("SDC"), std::string::npos);

  const auto warm = ctx.TryCached(req);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->csv, ref.csv);
  EXPECT_EQ(warm->text, cold.text);
}

TEST(ServiceExecTest, AnalysisTypesAreDeterministicAcrossContexts) {
  for (const service::RequestType type :
       {service::RequestType::kAnalyze, service::RequestType::kAvf,
        service::RequestType::kTiming, service::RequestType::kProfile}) {
    service::RequestSpec req = CampaignReq(8);
    req.type = type;
    req.campaign.app = "P-BICG";
    service::ExecContext a(service::ExecOptions{});
    service::ExecContext b(service::ExecOptions{});
    const service::ServedResult ra = a.Execute(req);
    const service::ServedResult rb = b.Execute(req);
    ASSERT_TRUE(ra.ok) << ra.error;
    EXPECT_EQ(ra.text, rb.text) << NameOf(service::kRequestTypeNames, type);
    EXPECT_EQ(ra.csv, rb.csv) << NameOf(service::kRequestTypeNames, type);
    EXPECT_EQ(ra.exit_code, rb.exit_code);
    // And the repeat within one context is a pure cache hit.
    const auto warm = a.TryCached(req);
    ASSERT_TRUE(warm.has_value()) << NameOf(service::kRequestTypeNames, type);
    EXPECT_EQ(warm->text, ra.text);
  }
}

TEST(ServiceExecTest, BatchSplitsBitIdentically) {
  service::ExecContext ctx(service::ExecOptions{});
  const std::vector<service::RequestSpec> reqs = {
      CampaignReq(16), CampaignReq(32), CampaignReq(32)};
  const auto out = ctx.ExecuteCampaignBatch(reqs);
  ASSERT_EQ(out.size(), 3u);
  const Standalone ref16 = RunStandalone(BaseSpec(16));
  const Standalone ref32 = RunStandalone(BaseSpec(32));
  ASSERT_TRUE(out[0].ok) << out[0].error;
  EXPECT_EQ(out[0].csv, ref16.csv);
  EXPECT_EQ(out[1].csv, ref32.csv);
  EXPECT_EQ(out[2].csv, ref32.csv);
  for (const auto& r : out) EXPECT_TRUE(r.batched);

  const auto stats = ctx.batch_stats();
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.grouped_requests, 3u);
  // One merged 32-trial run served 16+32+32 requested trials.
  EXPECT_EQ(stats.trials_saved, 16u + 32u + 32u - 32u);
}

TEST(ServiceExecTest, BatchKeyGroupsOnlyCompatibleCampaigns) {
  service::ExecContext ctx(service::ExecOptions{});
  const std::uint64_t k16 = ctx.BatchKey(CampaignReq(16));
  const std::uint64_t k32 = ctx.BatchKey(CampaignReq(32));
  ASSERT_NE(k16, 0u);
  EXPECT_EQ(k16, k32);  // runs is zeroed out of the key

  EXPECT_NE(ctx.BatchKey(CampaignReq(16, /*seed=*/2)), k16);

  service::RequestSpec is = CampaignReq(16);
  is.importance_sampling = true;
  EXPECT_NE(ctx.BatchKey(is), k16);

  // Coupled Tier-2 campaigns are never batchable: prefix splitting
  // would need epoch-aligned boundaries the scheduler cannot promise.
  service::RequestSpec coupled = CampaignReq(16);
  coupled.campaign.recovery_retries = 1;
  EXPECT_EQ(ctx.BatchKey(coupled), 0u);

  service::RequestSpec analyze = CampaignReq(16);
  analyze.type = service::RequestType::kAnalyze;
  EXPECT_EQ(ctx.BatchKey(analyze), 0u);
}

TEST(ServiceExecTest, TinyBudgetEvictsButStaysCorrect) {
  service::ExecOptions opts;
  opts.cache_bytes = 1024;  // far below one profile artifact
  service::ExecContext ctx(opts);
  const service::RequestSpec req = CampaignReq(16);
  const Standalone ref = RunStandalone(req.campaign);

  const service::ServedResult first = ctx.Execute(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.csv, ref.csv);
  // Everything large was evicted again; a repeat recomputes, but the
  // answer is unchanged.
  const service::ServedResult again = ctx.Execute(req);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.csv, ref.csv);
  EXPECT_GT(ctx.cache().stats().evictions, 0u);
}

TEST(ServiceExecTest, TraceRequestsMeetSelfProfiledContentAddress) {
  const std::string dir = TestDir("trace_req");
  auto app = apps::MakeApp("P-ATAX", apps::AppScale::kTiny);
  const auto profile = apps::ProfileApp(*app, sim::GpuConfig{});
  const std::string path = dir + "/atax.trace";
  trace::SaveTraceFile(*profile.trace_store, path);

  service::ExecContext ctx(service::ExecOptions{});
  // Cold self-profiled campaign publishes its result under the
  // content-true fingerprint (the serialized store's checksum)...
  const service::ServedResult self = ctx.Execute(CampaignReq(24));
  ASSERT_TRUE(self.ok) << self.error;
  // ...so a trace-backed request for the same campaign — whose cache
  // key probes the artifact's stored tail checksum — is already a hit.
  service::RequestSpec via_trace = CampaignReq(24);
  via_trace.trace_path = path;
  const auto hit = ctx.TryCached(via_trace);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cached);
  EXPECT_EQ(hit->csv, self.csv);
}

TEST(ServiceExecTest, FailuresMapToCliExitCodes) {
  service::ExecContext ctx(service::ExecOptions{});
  service::RequestSpec req = CampaignReq(8);
  req.campaign.app = "no-such-app";
  const service::ServedResult r = ctx.Execute(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("error:"), std::string::npos);

  service::RequestSpec bad_trace = CampaignReq(8);
  bad_trace.trace_path = TestDir("no_trace") + "/missing.trace";
  EXPECT_EQ(ctx.BatchKey(bad_trace), 0u);  // unprobeable → unbatchable
  EXPECT_FALSE(ctx.TryCached(bad_trace).has_value());
  const service::ServedResult rt = ctx.Execute(bad_trace);
  EXPECT_FALSE(rt.ok);
  EXPECT_EQ(rt.exit_code, 1);
}

TEST(ServiceExecTest, TimingHonoursNamedObjects) {
  service::ExecContext ctx(service::ExecOptions{});
  service::RequestSpec req;
  req.type = service::RequestType::kTiming;
  req.campaign.app = "P-GRAMSCHM";
  req.campaign.scale = apps::AppScale::kTiny;
  req.campaign.scheme = sim::Scheme::kDetectCorrect;
  const service::ServedResult hot = ctx.Execute(req);
  ASSERT_TRUE(hot.ok) << hot.error;

  // Its own cache identity, and the named plan is the one timed.
  req.campaign.objects = {"A", "Q", "R"};
  const service::ServedResult named = ctx.Execute(req);
  ASSERT_TRUE(named.ok) << named.error;
  EXPECT_FALSE(named.cached);
  EXPECT_NE(named.text.find(" cover=3 "), std::string::npos) << named.text;
  EXPECT_EQ(named.text.find("replica txns 0;"), std::string::npos)
      << named.text;

  req.campaign.objects = {"no-such-object"};
  const service::ServedResult bad = ctx.Execute(req);
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.error.find("unknown object"), std::string::npos) << bad.error;
}

TEST(ServiceExecTest, CrossCheckAppendsVerdictUnderItsOwnKey) {
  service::ExecContext ctx(service::ExecOptions{});
  const service::RequestSpec plain = CampaignReq(24);
  service::RequestSpec checked = plain;
  checked.cross_check = true;
  const service::ServedResult p = ctx.Execute(plain);
  ASSERT_TRUE(p.ok) << p.error;
  // The plain result is cached; the checked one must not be served
  // from it.
  EXPECT_FALSE(ctx.TryCached(checked).has_value());
  const service::ServedResult c = ctx.Execute(checked);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.exit_code, 0);
  EXPECT_EQ(c.csv, p.csv);
  ASSERT_EQ(c.text.rfind(p.text, 0), 0u);  // the plain text, then...
  EXPECT_NE(c.text.find("cross-check:", p.text.size()), std::string::npos);
}

TEST(ServiceExecTest, StopFlagInterruptsAndIsNeverCached) {
  std::atomic<bool> stop{true};
  service::ExecOptions opts;
  opts.stop = &stop;
  service::ExecContext ctx(opts);
  const service::RequestSpec req = CampaignReq(64);
  const service::ServedResult r = ctx.Execute(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.exit_code, fault::kExitInterrupted);
  EXPECT_EQ(r.error.rfind("interrupted: ", 0), 0u);
  EXPECT_NE(r.text.find("SDC"), std::string::npos);  // partial counts
  EXPECT_FALSE(r.csv.empty());
  EXPECT_FALSE(ctx.TryCached(req).has_value());
}

// ---------------------------------------------------------------------------
// Server: concurrent clients, protocol robustness, drain

TEST(ServiceServerTest, ConcurrentClientsGetBitIdenticalResults) {
  const std::string dir = TestDir("server");
  service::ServerOptions so;
  so.socket_path = dir + "/d.sock";
  service::Server server(std::move(so));
  server.Start();

  const Standalone ref = RunStandalone(BaseSpec(24));
  constexpr int kClients = 4;
  std::vector<service::Response> got(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        auto client = service::Client::Connect(server.socket_path());
        got[i] = client.Call(CampaignReq(24));
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& resp : got) {
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.exit_code, 0);
    EXPECT_EQ(resp.csv, ref.csv);
  }

  // Introspection: the stats request reports a live cache.
  auto client = service::Client::Connect(server.socket_path());
  service::RequestSpec stats;
  stats.type = service::RequestType::kStats;
  const service::Response s = client.Call(stats);
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_NE(s.extra.find("\"cache_entries\""), std::string::npos);
  EXPECT_NE(s.text.find("cache:"), std::string::npos);

  // Graceful shutdown by request: answered, then drained.
  service::RequestSpec down;
  down.type = service::RequestType::kShutdown;
  const service::Response d = client.Call(down);
  ASSERT_TRUE(d.ok) << d.error;
  server.Join();
  EXPECT_FALSE(FileExists(server.socket_path()));
}

TEST(ServiceServerTest, MalformedRequestsAreRejectedNotFatal) {
  const std::string dir = TestDir("server_bad");
  service::ServerOptions so;
  so.socket_path = dir + "/d.sock";
  service::Server server(std::move(so));
  server.Start();

  net::UnixSocket conn = net::ConnectUnix(server.socket_path());
  // Not JSON at all.
  net::WriteFrame(conn.fd(), "this is not json");
  auto frame = net::ReadFrame(conn.fd(), service::kMaxResponseBytes);
  ASSERT_TRUE(frame.has_value());
  service::Response resp = service::DecodeResponse(*frame);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("malformed"), std::string::npos);

  // Unknown key: strict decode, same connection stays usable.
  net::WriteFrame(conn.fd(), R"({"type":"stats","bogus":1})");
  frame = net::ReadFrame(conn.fd(), service::kMaxResponseBytes);
  ASSERT_TRUE(frame.has_value());
  resp = service::DecodeResponse(*frame);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("unknown request key"), std::string::npos);

  net::WriteFrame(conn.fd(), R"({"type":"stats"})");
  frame = net::ReadFrame(conn.fd(), service::kMaxResponseBytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(service::DecodeResponse(*frame).ok);

  // An oversized frame is answered, then the connection is dropped —
  // the unconsumed payload makes the stream unrecoverable.
  const std::string huge(service::kMaxRequestBytes + 1, 'x');
  net::WriteFrame(conn.fd(), huge);
  frame = net::ReadFrame(conn.fd(), service::kMaxResponseBytes);
  ASSERT_TRUE(frame.has_value());
  resp = service::DecodeResponse(*frame);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("cap"), std::string::npos);
  EXPECT_FALSE(net::ReadFrame(conn.fd(), service::kMaxResponseBytes)
                   .has_value());  // server closed

  // The daemon survived all of it.
  auto client = service::Client::Connect(server.socket_path());
  service::RequestSpec stats;
  stats.type = service::RequestType::kStats;
  EXPECT_TRUE(client.Call(stats).ok);
  server.RequestStop();
  server.Join();
}

TEST(ServiceServerTest, DrainAnswersInFlightRequests) {
  const std::string dir = TestDir("server_drain");
  service::ServerOptions so;
  so.socket_path = dir + "/d.sock";
  service::Server server(std::move(so));
  server.Start();

  service::Response resp;
  std::thread client_thread([&] {
    auto client = service::Client::Connect(server.socket_path());
    resp = client.Call(CampaignReq(32));
  });
  // Let the request reach the scheduler, then start the drain while it
  // is (most likely) still executing.
  SleepMs(50);
  server.RequestStop();
  server.Join();
  client_thread.join();

  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.csv, RunStandalone(BaseSpec(32)).csv);
  EXPECT_FALSE(FileExists(server.socket_path()));
}

// Virtual size of this process, from /proc/self/status (0 if absent).
std::uint64_t VmSizeKb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(ServiceServerTest, FinishedConnectionThreadsAreReaped) {
  const std::string dir = TestDir("server_reap");
  service::ServerOptions so;
  so.socket_path = dir + "/d.sock";
  service::Server server(std::move(so));
  server.Start();
  service::RequestSpec stats;
  stats.type = service::RequestType::kStats;
  // Warm up with a few connections open at once: the allocator maps an
  // arena per concurrent thread once, and the sequential connections
  // below reuse them.
  {
    std::vector<service::Client> warm;
    for (int i = 0; i < 4; ++i) {
      warm.push_back(service::Client::Connect(server.socket_path()));
      ASSERT_TRUE(warm.back().Call(stats).ok);
    }
  }
  const std::uint64_t before_kb = VmSizeKb();
  const std::string stats_frame = service::EncodeRequest(stats);
  for (int i = 0; i < 300; ++i) {
    net::UnixSocket conn = net::ConnectUnix(server.socket_path());
    net::WriteFrame(conn.fd(), stats_frame);
    ASSERT_TRUE(net::ReadFrame(conn.fd(), service::kMaxResponseBytes));
    // Wait for the server to close its end: its connection thread is
    // then finishing, so at most two are alive at once and the
    // allocator needs no arena beyond the warmed-up ones.
    ::shutdown(conn.fd(), SHUT_WR);
    ASSERT_FALSE(net::ReadFrame(conn.fd(), service::kMaxResponseBytes));
  }
  const std::uint64_t after_kb = VmSizeKb();
  server.RequestStop();
  server.Join();
  // An unjoined thread keeps its stack mapped (8 MB by default), so
  // 300 unreaped connections would add about 2.4 GB.
  EXPECT_LT(after_kb, before_kb + 64 * 1024)
      << "VmSize grew from " << before_kb << " kB to " << after_kb << " kB";
}

// Polls a spawned `dcrm serve` until it answers a stats request.
bool WaitForDaemon(const std::string& sock) {
  for (int i = 0; i < 100; ++i) {
    try {
      auto client = service::Client::Connect(sock);
      service::RequestSpec stats;
      stats.type = service::RequestType::kStats;
      if (client.Call(stats).ok) return true;
    } catch (const net::SocketError&) {
      SleepMs(100);
    }
  }
  return false;
}

TEST(ServiceServerTest, SigtermDrainsServeSubprocess) {
  const std::string dir = TestDir("sigterm");
  const std::string sock = dir + "/d.sock";
  Subprocess daemon = Subprocess::Spawn(
      {DCRM_BIN, "serve", "--socket=" + sock}, dir + "/serve.out",
      dir + "/serve.err");
  ASSERT_TRUE(WaitForDaemon(sock)) << "daemon never came up";

  auto client = service::Client::Connect(sock);
  const service::Response resp = client.Call(CampaignReq(16));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.csv, RunStandalone(BaseSpec(16)).csv);

  daemon.Kill(SIGTERM);
  const ExitStatus status = daemon.Wait();
  EXPECT_TRUE(status.ok()) << status.Describe();
  EXPECT_FALSE(FileExists(sock));
}

TEST(ServiceServerTest, ServeJobsSetsTheExecutorsLanes) {
  const std::string dir = TestDir("serve_jobs");
  const std::string sock = dir + "/d.sock";
  Subprocess daemon = Subprocess::Spawn(
      {DCRM_BIN, "serve", "--socket=" + sock, "--jobs=2"},
      dir + "/serve.out", dir + "/serve.err");
  ASSERT_TRUE(WaitForDaemon(sock)) << "daemon never came up";

  auto client = service::Client::Connect(sock);
  const service::Response resp = client.Call(CampaignReq(16));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_NE(resp.text.find(" jobs=2\n"), std::string::npos) << resp.text;
  // Lanes never change results.
  EXPECT_EQ(resp.csv, RunStandalone(BaseSpec(16)).csv);

  daemon.Kill(SIGTERM);
  EXPECT_TRUE(daemon.Wait().ok());
}

// `--jobs` and `--config` have no wire key: the daemon would never see
// them, so `dcrm request` refuses them rather than dropping them.
TEST(ServiceServerTest, RequestRefusesRowsOffTheWire) {
  const std::string dir = TestDir("request_flags");
  const auto request = [&](const std::string& flag) {
    std::vector<std::string> argv = {DCRM_BIN, "request", "campaign",
                                     "P-ATAX", "--scale=tiny",
                                     "--socket=" + dir + "/none.sock"};
    if (!flag.empty()) argv.push_back(flag);
    return Subprocess::Spawn(argv, dir + "/out", dir + "/err").Wait();
  };
  EXPECT_EQ(request("--jobs=2").code, 2);
  EXPECT_EQ(request("--config=" + dir + "/gpu.conf").code, 2);
  // The same request without them gets as far as connecting.
  EXPECT_EQ(request("").code, service::kExitConnectFailed);
}

// Nor does the wire carry the shard, worker or daemon flags of the
// other tables: `dcrm request` takes the keyed request rows plus
// --socket and --csv, and refuses the rest before it connects.
TEST(ServiceServerTest, RequestRefusesFlagsOfOtherCommands) {
  const std::string dir = TestDir("request_other_flags");
  const auto request = [&](const std::vector<std::string>& flags) {
    std::vector<std::string> argv = {DCRM_BIN, "request", "campaign",
                                     "P-ATAX", "--scale=tiny",
                                     "--socket=" + dir + "/none.sock"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    return Subprocess::Spawn(argv, dir + "/out", dir + "/err").Wait();
  };
  EXPECT_EQ(request({"--shards=3", "--workers=2"}).code, 2);
  EXPECT_EQ(request({"--shards=3"}).code, 2);
  EXPECT_EQ(request({"--workdir=" + dir + "/w"}).code, 2);
  EXPECT_EQ(request({"--trial-begin=0"}).code, 2);
  EXPECT_EQ(request({"--cache-mb=8"}).code, 2);
  EXPECT_EQ(request({"--retries=1"}).code, 2);
  // The flags it does take still get as far as connecting.
  EXPECT_EQ(request({"--runs=10", "--csv=" + dir + "/out.csv"}).code,
            service::kExitConnectFailed);
}

// ---------------------------------------------------------------------------
// Protocol round trip

TEST(ServiceProtoTest, RequestRoundTripsThroughWire) {
  service::RequestSpec req = CampaignReq(1000, 0xdeadbeefcafef00dULL);
  req.campaign.cover = 2;
  req.campaign.objects = {"A", "x"};
  req.campaign.recovery_retries = 3;
  req.campaign.escalation_epoch = 16;
  req.importance_sampling = true;
  req.engine = sim::SimEngine::kEventDriven;
  req.trace_path = "/tmp/t.trace";

  const service::RequestSpec back =
      service::DecodeRequest(service::EncodeRequest(req));
  EXPECT_EQ(back.type, req.type);
  EXPECT_EQ(back.campaign.app, req.campaign.app);
  EXPECT_EQ(back.campaign.runs, req.campaign.runs);
  EXPECT_EQ(back.campaign.seed, req.campaign.seed);  // u64 bit pattern
  EXPECT_EQ(back.campaign.cover, req.campaign.cover);
  EXPECT_EQ(back.campaign.objects, req.campaign.objects);
  EXPECT_EQ(back.campaign.recovery_retries, req.campaign.recovery_retries);
  EXPECT_EQ(back.campaign.escalation_epoch, req.campaign.escalation_epoch);
  EXPECT_EQ(back.importance_sampling, req.importance_sampling);
  EXPECT_EQ(back.engine, req.engine);
  EXPECT_EQ(back.trace_path, req.trace_path);
}

TEST(ServiceProtoTest, NewRowsRoundTripAndStayOffTheWireWhenUnset) {
  service::RequestSpec req = CampaignReq(10);
  const std::string plain = service::EncodeRequest(req);
  EXPECT_EQ(plain.find("graph"), std::string::npos);
  EXPECT_EQ(plain.find("cross_check"), std::string::npos);
  req.graph = true;
  req.cross_check = true;
  const service::RequestSpec back =
      service::DecodeRequest(service::EncodeRequest(req));
  EXPECT_TRUE(back.graph);
  EXPECT_TRUE(back.cross_check);
}

// The CLI parser and the wire decoder read one table: the values the
// daemon refuses, the command line refuses too.
TEST(ServiceProtoTest, CommandLineAndWireShareRanges) {
  const struct {
    const char* flag;
    const char* wire;
  } cases[] = {
      {"--runs=0", R"("runs":0)"},
      {"--runs=-1", R"("runs":-1)"},
      {"--blocks=0", R"("blocks":0)"},
      {"--epoch=0", R"("epoch":0)"},
      {"--runs=100000001", R"("runs":100000001)"},
      {"--scale=huge", R"("scale":"huge")"},
  };
  for (const auto& c : cases) {
    fault::RequestParams params;
    EXPECT_EQ(fault::ParseArg(fault::kRequestFields, params, c.flag),
              fault::ArgMatch::kBad)
        << c.flag;
    EXPECT_THROW(
        service::DecodeRequest(std::string(R"({"type":"campaign",)") +
                               R"("app":"P-ATAX",)" + c.wire + "}"),
        service::ProtoError)
        << c.wire;
  }
  fault::RequestParams params;
  EXPECT_EQ(fault::ParseArg(fault::kRequestFields, params, "--runs=12abc"),
            fault::ArgMatch::kBad);
  EXPECT_EQ(fault::ParseArg(fault::kRequestFields, params, "--graph=1"),
            fault::ArgMatch::kBad);
  EXPECT_EQ(fault::ParseArg(fault::kRequestFields, params, "--bogus=1"),
            fault::ArgMatch::kNoRow);
  EXPECT_EQ(params.campaign.runs, fault::ShardCampaignSpec{}.runs);
}

// What the coordinator writes into a worker's argv parses back into
// the identical campaign definition.
TEST(ServiceProtoTest, WorkerArgvRoundTripsEveryCampaignRow) {
  fault::RequestParams params;
  params.campaign = BaseSpec(321, 0xfedcba9876543210ULL);
  params.campaign.cover = 2;
  params.campaign.objects = {"A", "x"};
  params.campaign.allow_unsound = true;
  params.campaign.target = fault::Target::kHotBlocks;
  params.campaign.faulty_blocks = 3;
  params.campaign.bits_per_block = 4;
  params.campaign.recovery_retries = 2;
  params.campaign.escalation_epoch = 8;
  params.campaign.jobs = 3;
  params.trace_path = "/tmp/t.trace";
  params.config_path = "/tmp/gpu.conf";
  std::vector<std::string> argv;
  fault::AppendArgs(fault::kRequestFields, params, argv);

  fault::RequestParams back;
  back.campaign.app = params.campaign.app;
  for (const std::string& a : argv) {
    ASSERT_EQ(fault::ParseArg(fault::kRequestFields, back, a),
              fault::ArgMatch::kSet)
        << a;
  }
  EXPECT_EQ(fault::CampaignFingerprint(back.campaign, 7),
            fault::CampaignFingerprint(params.campaign, 7));
  EXPECT_EQ(back.campaign.jobs, params.campaign.jobs);
  EXPECT_EQ(back.trace_path, params.trace_path);
  EXPECT_EQ(back.config_path, params.config_path);
}

TEST(ServiceProtoTest, DecoderRejectsHostileInput) {
  EXPECT_THROW(service::DecodeRequest("[]"), service::ProtoError);
  EXPECT_THROW(service::DecodeRequest("{}"), service::ProtoError);
  EXPECT_THROW(service::DecodeRequest(R"({"type":"frobnicate"})"),
               service::ProtoError);
  EXPECT_THROW(service::DecodeRequest(R"({"type":"campaign"})"),
               service::ProtoError);  // missing app
  EXPECT_THROW(
      service::DecodeRequest(
          R"({"type":"campaign","app":"P-ATAX","runs":999999999999})"),
      service::ProtoError);
  EXPECT_THROW(
      service::DecodeRequest(R"({"type":"campaign","app":"P-ATAX","runs":0})"),
      service::ProtoError);
}

}  // namespace
