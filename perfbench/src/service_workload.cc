// service-openloop: a `dcrm serve` child process driven by an
// open-loop generator in this process. Arrivals follow a Poisson
// schedule at a fixed offered rate, drawn from the seed. About 90% of
// requests repeat a warmed set of tiny-scale campaign / analyze / avf
// / timing / profile requests, which the daemon answers from its cache
// on the connection thread; the rest are campaigns with fresh seeds,
// which run on its single executor. The rate keeps that executor
// roughly half busy. Each request opens its own connection, as
// `dcrm request` does, with at most hardware_concurrency connections
// open at once, so the daemon's per-connection costs show. Latency is
// timed from when a request was due, so a stall also charges the
// requests queued behind it.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <memory>
#include <sstream>
#include <thread>

#include "bench_core.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/subprocess.h"
#include "service/client.h"
#include "service/handlers.h"

namespace perfbench {
namespace {

using namespace dcrm;

// Offered load: ~10% of requests miss the cache and each miss costs
// about 25 ms on the executor, which keeps it about a third busy — low
// enough that a host stall does not tip it into a growing backlog.
constexpr double kOfferedRate = 120.0;  // requests per second
constexpr double kMissShare = 0.1;
constexpr double kLatencyLimitMs = 500.0;  // goodput counts responses within
constexpr unsigned kCampaignRuns = 32;
constexpr std::size_t kMaxOracleMisses = 40;

service::RequestSpec MakeRequest(service::RequestType type,
                                 const std::string& app, std::uint64_t seed) {
  service::RequestSpec req;
  req.type = type;
  req.campaign.app = app;
  req.campaign.scale = apps::AppScale::kTiny;
  req.campaign.scheme = sim::Scheme::kDetectOnly;
  req.campaign.runs = kCampaignRuns;
  req.campaign.seed = seed;
  return req;
}

std::vector<service::RequestSpec> WarmSet(std::uint64_t seed) {
  using service::RequestType;
  return {
      MakeRequest(RequestType::kCampaign, "P-ATAX", seed),
      MakeRequest(RequestType::kCampaign, "P-BICG", seed),
      MakeRequest(RequestType::kCampaign, "P-MVT", seed + 1),
      MakeRequest(RequestType::kAnalyze, "P-ATAX", seed),
      MakeRequest(RequestType::kAvf, "P-BICG", seed),
      MakeRequest(RequestType::kTiming, "P-ATAX", seed),
      MakeRequest(RequestType::kProfile, "P-GESUMMV", seed),
  };
}

const char* const kFreshApps[] = {"P-ATAX", "P-BICG", "P-MVT"};

// One scheduled request: `warm` indexes WarmSet(), or -1 for a fresh
// campaign whose spec is in `fresh`.
struct Arrival {
  double at_s = 0;
  int warm = -1;
  service::RequestSpec fresh;
};

std::vector<Arrival> MakeSchedule(std::uint64_t seed, double seconds,
                                  double rate, std::size_t warm_count) {
  Rng rng(seed ^ 0x5e2f1ce5ull);
  std::vector<Arrival> out;
  double t = 0;
  std::uint64_t fresh_index = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.at_s = t;
    if (rng.NextDouble() < kMissShare) {
      const std::uint64_t i = fresh_index++;
      a.fresh = MakeRequest(service::RequestType::kCampaign,
                            kFreshApps[i % 3], rng.Next64() | (i << 1));
    } else {
      a.warm = static_cast<int>(rng.Below(warm_count));
    }
    out.push_back(std::move(a));
  }
  return out;
}

struct Outcome {
  bool ok = false;
  bool cached = false;
  std::string error;
  double lag_ms = 0;
  double connect_ms = 0;
  double latency_ms = 0;
  service::Response resp;
};

// The daemon child: spawned on construction, killed if still running
// on destruction.
class Daemon {
 public:
  Daemon(const std::string& dcrm, const std::string& socket,
         const std::string& log)
      : socket_(socket),
        proc_(Subprocess::Spawn({dcrm, "serve", "--socket=" + socket}, log,
                                log)) {}
  ~Daemon() {
    if (proc_.running()) {
      proc_.Kill(SIGKILL);
      proc_.Wait();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return proc_.pid(); }

  service::Response Call(const service::RequestSpec& req) {
    service::Client c = service::Client::Connect(socket_);
    return c.Call(req);
  }

  // Polls until a `stats` request is answered.
  void WaitReady() {
    service::RequestSpec stats;
    stats.type = service::RequestType::kStats;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        if (Call(stats).ok) return;
      } catch (const std::exception&) {
      }
      if (!proc_.running()) throw std::runtime_error("dcrm serve exited");
      if (Clock::now() > deadline) {
        throw std::runtime_error("dcrm serve did not answer within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Graceful drain; SIGKILL if it does not exit within 20 s.
  void Shutdown() {
    service::RequestSpec req;
    req.type = service::RequestType::kShutdown;
    try {
      Call(req);
    } catch (const std::exception&) {
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (proc_.running() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (proc_.running()) proc_.Kill(SIGKILL);
    proc_.Wait();
  }

 private:
  std::string socket_;
  Subprocess proc_;
};

bool SameResult(const service::Response& a, const service::Response& b) {
  return a.ok == b.ok && a.exit_code == b.exit_code && a.text == b.text &&
         a.csv == b.csv;
}

// Spawns a daemon, waits for its first answer and warms the cache with
// every request of the warm set.
std::unique_ptr<Daemon> StartDaemon(const Options& opts,
                                    const std::string& socket,
                                    const std::vector<service::RequestSpec>& warm,
                                    std::vector<service::Response>& warm_resp) {
  auto d = std::make_unique<Daemon>(opts.dcrm, socket,
                                    opts.out_dir + "/serve.log");
  d->WaitReady();
  warm_resp.clear();
  for (const auto& req : warm) warm_resp.push_back(d->Call(req));
  return d;
}

}  // namespace

void RunServiceOpenLoop(const Options& opts, Tracer& tracer, Result& result) {
  if (opts.dcrm.empty()) throw std::runtime_error("--dcrm is required");
  const std::string socket =
      opts.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::vector<service::RequestSpec> warm = WarmSet(opts.seed);

  std::vector<double> setup_s;
  std::vector<service::Response> warm_resp;
  std::unique_ptr<Daemon> daemon;
  for (unsigned k = 0; k < SetupRepeats(opts); ++k) {
    if (daemon) daemon->Shutdown();
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = StartDaemon(opts, socket, warm, warm_resp);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  result.Attempt(warm.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (!warm_resp[i].ok) {
      result.Fail("warm request " + std::to_string(i) +
                  " failed: " + warm_resp[i].error);
    }
  }

  const double rate = opts.smoke ? 40.0 : kOfferedRate;
  const std::vector<Arrival> schedule =
      MakeSchedule(opts.seed, opts.seconds, rate, warm.size());
  std::vector<Outcome> out(schedule.size());
  const double traced_from = opts.trace ? opts.seconds / 2 : opts.seconds + 1;
  tracer.set_enabled(opts.trace);

  // Open-loop sender pool: a sender takes the next arrival, sleeps until
  // it is due and sends it on a fresh connection.
  std::atomic<std::size_t> next{0};
  const unsigned senders = std::max(2u, std::thread::hardware_concurrency());
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto send = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const Arrival& a = schedule[i];
      const service::RequestSpec& req = a.warm >= 0 ? warm[a.warm] : a.fresh;
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(a.at_s));
      std::this_thread::sleep_until(due);
      Outcome& o = out[i];
      const auto sent = Clock::now();
      o.lag_ms = MsBetween(due, sent);
      const bool traced = a.at_s >= traced_from;
      try {
        service::Client c = service::Client::Connect(socket);
        const auto connected = Clock::now();
        o.connect_ms = MsBetween(sent, connected);
        o.resp = c.Call(req);
        const auto answered = Clock::now();
        o.latency_ms = MsBetween(due, answered);
        o.ok = o.resp.ok;
        o.cached = o.resp.cached;
        if (!o.ok) o.error = o.resp.error;
        if (traced) {
          tracer.Add("bench.request", due, answered, i);
          tracer.Add("service.Client.Connect", sent, connected, i);
          tracer.Add("service.Client.Call", connected, answered, i);
        }
      } catch (const std::exception& e) {
        o.latency_ms = MsSince(due);
        o.error = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < senders; ++t) pool.emplace_back(send);
  for (std::thread& t : pool) t.join();
  const double wall_s = MsSince(start) / 1000.0;

  // Daemon-side numbers, read before the drain.
  service::RequestSpec stats_req;
  stats_req.type = service::RequestType::kStats;
  double trials_saved = 0;
  try {
    const service::Response st = daemon->Call(stats_req);
    const json::Value v = json::Value::Parse(st.extra);
    if (const json::Value* f = v.Find("batch_trials_saved")) {
      trials_saved = static_cast<double>(f->AsInt());
    }
  } catch (const std::exception& e) {
    result.Fail(std::string("stats request failed: ") + e.what());
  }
  const double hwm_mb = ProcStatusMb(daemon->pid(), "VmHWM");
  const double vmsize_mb = ProcStatusMb(daemon->pid(), "VmSize");
  const double threads =
      static_cast<double>(ProcStatusValue(daemon->pid(), "Threads"));
  daemon->Shutdown();
  daemon.reset();

  // Oracles: every repeat of a warm request is byte-equal to its first
  // answer, and the warm answers and a sample of fresh campaigns are
  // byte-equal to a standalone in-process ExecContext run.
  result.Attempt(schedule.size());
  std::vector<bool> bad(schedule.size(), false);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = out[i];
    if (!o.ok) {
      bad[i] = true;
      result.Fail("request " + std::to_string(i) + ": " + o.error);
    } else if (schedule[i].warm >= 0 &&
               !SameResult(o.resp, warm_resp[schedule[i].warm])) {
      bad[i] = true;
      result.Fail("request " + std::to_string(i) +
                  ": repeat answer differs from the warm answer");
    }
  }
  service::ExecContext standalone(service::ExecOptions{});
  auto standalone_equal = [&](const service::RequestSpec& req,
                              const service::Response& served) {
    const service::ServedResult r = standalone.Execute(req);
    service::Response as;
    as.ok = r.ok;
    as.exit_code = r.exit_code;
    as.text = r.text;
    as.csv = r.csv;
    return SameResult(as, served);
  };
  for (std::size_t w = 0; w < warm.size(); ++w) {
    result.Attempt(1);
    if (!standalone_equal(warm[w], warm_resp[w])) {
      result.Fail("warm request " + std::to_string(w) +
                  ": served answer differs from the standalone run");
    }
  }
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].warm < 0) fresh.push_back(i);
  }
  const std::size_t stride =
      std::max<std::size_t>(1, fresh.size() / kMaxOracleMisses + 1);
  for (std::size_t k = 0; k < fresh.size(); k += stride) {
    const std::size_t i = fresh[k];
    if (!out[i].ok) continue;
    result.Attempt(1);
    if (!standalone_equal(schedule[i].fresh, out[i].resp)) {
      bad[i] = true;
      result.Fail("request " + std::to_string(i) +
                  ": served campaign differs from the standalone run");
    }
  }

  Fingerprint& fp = result.fingerprint();
  for (const service::Response& r : warm_resp) {
    fp.Add(r.text);
    fp.Add(r.csv);
    fp.Add(static_cast<std::uint64_t>(r.exit_code));
  }
  for (const std::size_t i : fresh) {
    fp.Add(out[i].resp.text);
    fp.Add(out[i].resp.csv);
    fp.Add(static_cast<std::uint64_t>(out[i].resp.exit_code));
  }

  // A traced run reports its end-to-end numbers from the untraced half.
  const double window_s = std::min(traced_from, opts.seconds);
  std::vector<double> plain, traced, hit, miss, connect, lag;
  std::size_t good = 0, hits = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = out[i];
    const bool untraced = schedule[i].at_s < window_s;
    (untraced ? plain : traced).push_back(o.latency_ms);
    (o.cached ? hit : miss).push_back(o.latency_ms);
    connect.push_back(o.connect_ms);
    lag.push_back(o.lag_ms);
    if (o.cached) ++hits;
    if (untraced && !bad[i] && o.latency_ms <= kLatencyLimitMs) ++good;
  }
  result.Set("setup_s", Median(setup_s));
  result.Set("ops_per_s", static_cast<double>(good) / window_s);
  result.Set("latency_ms", Median(plain));
  result.Set("peak_rss_mb", hwm_mb);
  const double tail = Quantile(plain, 0.99);
  {
    std::ostringstream os;
    os << "requests=" << schedule.size() << " (" << miss.size()
       << " misses) in " << wall_s << " s at " << rate
       << " req/s offered; " << good << " of " << plain.size()
       << " untraced requests correct within " << kLatencyLimitMs
       << " ms; their p99 latency " << tail << " ms";
    result.Note(os.str());
  }
  if (!opts.trace) return;

  result.Set("bench.latency_tail_ms", tail);
  result.Set("service.hit_p50_ms", Median(hit));
  result.Set("service.hit_p99_ms", Quantile(hit, 0.99));
  result.Set("service.miss_p50_ms", Median(miss));
  result.Set("service.miss_p99_ms", Quantile(miss, 0.99));
  result.Set("service.connect_ms", Median(connect));
  result.Set("service.hit_rate",
             schedule.empty() ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(schedule.size()));
  result.Set("service.batch_trials_saved", trials_saved);
  result.Set("service.daemon_vmsize_mb", vmsize_mb);
  result.Set("service.daemon_threads", threads);
  result.Set("service.generator_lag_ms", Quantile(lag, 0.99));
  const double plain_p50 = Median(plain);
  result.Set("bench.trace_overhead_pct",
             plain_p50 > 0 ? 100.0 * (Median(traced) - plain_p50) / plain_p50
                           : 0.0);
}

}  // namespace perfbench
