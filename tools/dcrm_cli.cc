// dcrm — the command-line front end to the library. `dcrm` with no
// arguments prints the flags; README.md documents every command and
// the exit-code table.
//
//   dcrm apps | config                list apps / print the default
//                                     hardware config (edit, pass back
//                                     with --config=FILE)
//   dcrm profile|timing|analyze|avf|campaign <app> [flags]
//                                     one request through the daemon's
//                                     executor (service::ExecContext),
//                                     in process: the output is the
//                                     daemon's, byte for byte
//   dcrm recover [<app>]              sweep re-execution retry budgets
//   dcrm shard <app>                  crash-tolerant multi-process
//                                     campaign (fault/shard_coordinator.h)
//   dcrm shard-worker <app>           one shard; spawned by `dcrm shard`
//   dcrm serve                        the reliability daemon (DESIGN.md
//                                     §14)
//   dcrm request <type> [<app>]       one request to a running daemon
//
// Flags are `--name=value` or a bare `--name` switch. The request
// flags are the rows of fault/request_fields.h, shared with the
// daemon's wire format and the shard workers' argv; the flags only
// this front end reads are the rows of kCliFields below. A flag that
// names no row, or a value outside its row's range, is a usage error
// (exit 2). SIGINT/SIGTERM make campaign, shard and serve drain at the
// next checkpointable boundary (campaign and shard then exit 7).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "apps/driver.h"
#include "apps/registry.h"
#include "core/recovery.h"
#include "fault/campaign.h"
#include "fault/request_fields.h"
#include "fault/shard_coordinator.h"
#include "service/client.h"
#include "service/handlers.h"
#include "service/proto.h"
#include "service/server.h"
#include "sim/config_io.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"

namespace {

using namespace dcrm;

// Set by SIGINT/SIGTERM; long-running commands poll it and drain at
// the next epoch/shard boundary instead of dying mid-trial.
std::atomic<bool> g_stop{false};

void OnStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallStopHandler() {
  struct sigaction sa = {};
  sa.sa_handler = OnStopSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// The dcrm binary's own path, for the coordinator to spawn workers
// with: /proc/self/exe when available (robust against PATH and cwd
// changes), argv[0] otherwise.
std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0;
}

struct CliArgs {
  std::string command;
  // The request vocabulary, shared with the daemon and the shard
  // workers. The app and the request type are positional.
  service::RequestSpec req;
  fault::WorkerOptions worker;       // shard-worker
  fault::CoordinatorOptions shard;   // shard
  unsigned shard_timeout_s = 0;      // shard: 0 = no timeout
  std::string csv_path;              // the command's CSV artifact
  std::string save_trace_path;       // profile: binary trace store
  unsigned retries = 3;              // recover: sweep budgets 0..N
  std::string socket_path = "dcrm.sock";  // serve, request
  unsigned cache_mb = 256;           // serve: artifact-cache budget
};

using fault::kMaxPathBytes;
using fault::kMaxRuns;
using fault::kMaxSmallCount;
using fault::Member;
using A = CliArgs;
using C = fault::CoordinatorOptions;

// Shard<&C::x> sets args.shard.x.
template <auto P>
fault::FieldRef Shard(A& a) {
  return &(a.shard.*P);
}

// Bound on concurrent shard worker processes.
constexpr std::int64_t kMaxWorkers = 256;

// The flags only this front end reads.
const fault::Field<A> kCliFields[] = {
    {"--csv", nullptr, Member<&A::csv_path>, 1, kMaxPathBytes},
    {"--save-trace", nullptr, Member<&A::save_trace_path>, 1, kMaxPathBytes},
    {"--retries", nullptr, Member<&A::retries>, 0, kMaxSmallCount},
    {"--shards", nullptr, Shard<&C::shards>, 1, kMaxSmallCount},
    {"--workers", nullptr, Shard<&C::workers>, 1, kMaxWorkers},
    {"--workdir", nullptr, Shard<&C::workdir>, 1, kMaxPathBytes},
    {"--resume", nullptr, Shard<&C::resume>},
    {"--shard-timeout", nullptr, Member<&A::shard_timeout_s>, 0,
     kMaxSmallCount},
    {"--max-retries", nullptr, Shard<&C::max_retries>, 0, kMaxSmallCount},
    {"--backoff-ms", nullptr, Shard<&C::backoff_ms>},
    {"--kill-shard", nullptr, Shard<&C::kill_shard>, -1, kMaxSmallCount},
    {"--kill-shard-after", nullptr, Shard<&C::kill_after>, 0, kMaxRuns},
    {"--hang-shard", nullptr, Shard<&C::hang_shard>, -1, kMaxSmallCount},
    {"--hang-shard-after", nullptr, Shard<&C::hang_after>, 0, kMaxRuns},
    {"--stop-after-shards", nullptr, Shard<&C::stop_after_shards>, -1,
     kMaxSmallCount},
    {"--socket", nullptr, Member<&A::socket_path>, 1, kMaxPathBytes},
    {"--cache-mb", nullptr, Member<&A::cache_mb>, 1, 1 << 20},
};

int Usage() {
  std::cerr
      << "usage: dcrm "
         "<apps|config|profile|timing|campaign|recover|analyze|avf|shard"
         "|serve|request> "
         "[<app>] [flags]\n"
         "flags: --scale=tiny|small|medium --config=FILE --seed=N\n"
         "       --engine=cycle|event (replay engine; bit-identical "
         "results, event skips idle cycles)\n"
         "       --save-trace=FILE (profile)\n"
         "       --graph (profile: dump kernel-graph topology + per-edge "
         "reused bytes; with --csv writes the edge table)\n"
         "       --load-trace=FILE (profile, timing, campaign, analyze)\n"
         "       --scheme=none|detect|correct --cover=N (timing, campaign, "
         "analyze, avf)\n"
         "       --target=hot|rest|miss --blocks=N --bits=N --runs=N "
         "(campaign, recover)\n"
         "       --jobs=N (campaign, serve: parallel workers, 0 = "
         "hardware threads; bit-identical results at any N)\n"
         "       --retries=N (recover: sweep budgets 0..N)\n"
         "       --objects=a,b,c (timing, analyze, avf, campaign, recover: "
         "explicit cover, may include writable objects)\n"
         "       --csv=FILE (timing: per-component stats; analyze: "
         "report; campaign, shard: merged counts+ledger)\n"
         "       --allow-unsound (campaign: run despite analyzer "
         "violations)\n"
         "       --importance-sampling (campaign: draw trials from the "
         "statically SDC-reachable blocks only; unbiased)\n"
         "       --cross-check (campaign: gate finished counts against "
         "the static bounds, exit 9 on violation)\n"
         "       --recovery=N --epoch=N (campaign, shard: tiered recovery "
         "budget / escalation epoch)\n"
         "       --shards=N --workers=M --workdir=DIR --resume\n"
         "       --shard-timeout=SECONDS --max-retries=N --backoff-ms=N "
         "(shard)\n"
         "       --socket=PATH (serve, request: Unix socket path)\n"
         "       --cache-mb=N (serve: artifact-cache byte budget)\n"
         "       dcrm request <type> <app> [flags]: type is profile|"
         "timing|analyze|avf|campaign|stats|shutdown; takes the flags "
         "the wire carries plus --socket and --csv (--jobs and --config "
         "are the daemon's own)\n";
  return 2;
}

// True when `dcrm request` can act on `a`: a request row the wire
// carries (a non-null key), or the socket to reach and the CSV to
// write. Every other flag would be dropped on the way to the daemon.
bool RequestFlag(std::string_view a) {
  const std::string_view name = a.substr(0, a.find('='));
  if (name == "--socket" || name == "--csv") return true;
  return std::any_of(
      fault::kRequestFields.begin(), fault::kRequestFields.end(),
      [&](const auto& f) { return f.key != nullptr && name == f.flag; });
}

// One argument against every table; false = a usage error.
bool ParseFlag(CliArgs& args, std::string_view a) {
  if (args.command == "request" && !RequestFlag(a)) return false;
  fault::ArgMatch m = fault::ParseArg<fault::RequestParams>(
      fault::kRequestFields, args.req, a);
  if (m == fault::ArgMatch::kNoRow) {
    m = fault::ParseArg(fault::kWorkerFields, args.worker, a);
  }
  if (m == fault::ArgMatch::kNoRow) m = fault::ParseArg(kCliFields, args, a);
  return m == fault::ArgMatch::kSet;
}

void PrintError(const std::string& error) {
  std::cerr << error;
  if (error.empty() || error.back() != '\n') std::cerr << '\n';
}

template <class WriteFn>
bool WriteFile(const std::string& path, WriteFn write) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  write(os);
  return true;
}

int CmdApps() {
  for (const auto& name : apps::AllAppNames()) std::cout << name << '\n';
  return 0;
}

int CmdConfig(const CliArgs& args) {
  std::cout << sim::DumpGpuConfig(args.req.campaign.gpu);
  return 0;
}

// profile --save-trace: the trace the request just used, from the
// executor's cache.
int SaveTraceArtifact(const CliArgs& args, service::ExecContext& ctx) {
  const auto art = ctx.ResolveProfile(args.req);
  const trace::TraceStore& store = *art->profile.trace_store;
  if (!WriteFile(args.save_trace_path,
                 [&](std::ostream& os) { trace::SaveTrace(store, os); })) {
    return 1;
  }
  std::cout << "trace store saved to " << args.save_trace_path << " ("
            << store.FootprintBytes() << " bytes in memory, "
            << store.TotalTransactions() << " transactions)\n";
  return 0;
}

// profile | timing | analyze | avf | campaign: one request through the
// daemon's executor, in process.
int CmdExecute(const CliArgs& args) {
  service::ExecOptions opts;
  // One request per process: nothing is worth evicting, and
  // --save-trace reads the profile back from the cache.
  opts.cache_bytes = std::numeric_limits<std::uint64_t>::max();
  opts.gpu = args.req.campaign.gpu;
  opts.jobs = args.req.campaign.jobs;
  opts.stop = &g_stop;
  service::ExecContext ctx(opts);
  const service::ServedResult r = ctx.Execute(args.req);
  std::cout << r.text;
  if (!r.error.empty()) PrintError(r.error);
  if (!args.csv_path.empty() && !r.csv.empty()) {
    if (!WriteFile(args.csv_path, [&](std::ostream& os) { os << r.csv; })) {
      return 1;
    }
    switch (args.req.type) {
      case service::RequestType::kProfile:
        std::cout << "graph table saved to " << args.csv_path << '\n';
        break;
      case service::RequestType::kAnalyze:
      case service::RequestType::kAvf:
        std::cout << "report saved to " << args.csv_path << '\n';
        break;
      default:
        break;
    }
  }
  if (args.req.type == service::RequestType::kProfile && r.ok &&
      !args.save_trace_path.empty()) {
    if (const int rc = SaveTraceArtifact(args, ctx); rc != 0) return rc;
  }
  return r.exit_code;
}

int CmdShard(const CliArgs& args, const char* argv0) {
  fault::CoordinatorOptions opts = args.shard;
  opts.dcrm_binary = SelfExe(argv0);
  opts.trace_path = args.req.trace_path;
  opts.shard_timeout_ms = std::uint64_t{args.shard_timeout_s} * 1000;
  opts.csv_path = args.csv_path;
  opts.stop = &g_stop;
  opts.log = &std::cerr;
  const auto outcome = fault::RunShardCoordinator(args.req.campaign, opts);
  if (outcome.exit_code == fault::kExitOk) {
    const auto ci = outcome.counts.SdcCi();
    std::cout << args.req.campaign.app << " sharded campaign: runs="
              << outcome.counts.runs << " shards=" << outcome.shards_total
              << " redispatches=" << outcome.redispatches << "\nSDC "
              << outcome.counts.sdc << " (" << 100 * ci.p << "% +/- "
              << 100 * ci.margin << "%), detected " << outcome.counts.detected
              << ", due " << outcome.counts.due << ", crash "
              << outcome.counts.crash << ", masked " << outcome.counts.masked
              << ", recovered " << outcome.counts.recovered
              << ", corrections " << outcome.counts.corrections
              << ", escalations " << outcome.counts.recovery.escalations
              << "\n";
  } else {
    std::cerr << "sharded campaign "
              << (outcome.exit_code == fault::kExitInterrupted
                      ? "interrupted"
                      : "stopped: a shard exhausted its retry budget")
              << " at " << outcome.shards_done << "/" << outcome.shards_total
              << " shards; re-run with --resume to continue\n";
  }
  return outcome.exit_code;
}

int CmdShardWorker(const CliArgs& args) {
  fault::WorkerOptions opts = args.worker;
  opts.trace_path = args.req.trace_path;
  opts.stop = &g_stop;
  if (opts.trace_path.empty() || opts.out_path.empty()) {
    std::cerr << "shard-worker needs --load-trace and --out\n";
    return 2;
  }
  return fault::RunShardWorker(args.req.campaign, opts);
}

int CmdServe(const CliArgs& args) {
  service::ServerOptions opts;
  opts.socket_path = args.socket_path;
  opts.exec.cache_bytes = std::uint64_t{args.cache_mb} * 1024 * 1024;
  opts.exec.gpu = args.req.campaign.gpu;
  opts.exec.jobs = args.req.campaign.jobs;
  service::Server server(opts);
  try {
    server.Start();
  } catch (const net::SocketError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return service::kExitBindFailed;
  }
  // Announce the socket (flushed): scripts wait for this line before
  // firing requests.
  std::cout << "dcrm serve: listening on " << server.socket_path()
            << std::endl;
  // Serve until SIGINT/SIGTERM or a `shutdown` request; either way the
  // drain answers everything already accepted.
  while (!g_stop.load(std::memory_order_relaxed) &&
         !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Join();
  std::cout << "dcrm serve: drained\n";
  return 0;
}

int CmdRequest(const CliArgs& args) {
  service::Response resp;
  try {
    service::Client client = service::Client::Connect(args.socket_path);
    resp = client.Call(args.req);
  } catch (const net::SocketError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return service::kExitConnectFailed;
  }
  if (!resp.error.empty()) PrintError(resp.error);
  std::cout << resp.text;
  if (!resp.extra.empty()) std::cout << resp.extra << '\n';
  if (!args.csv_path.empty() && !resp.csv.empty()) {
    if (!WriteFile(args.csv_path, [&](std::ostream& os) { os << resp.csv; })) {
      return 1;
    }
  }
  // Machine-greppable service-path markers (CI asserts the second pass
  // of a repeated batch is all cache hits).
  std::cerr << "dcrm request: served cached=" << (resp.cached ? 1 : 0)
            << " batched=" << (resp.batched ? 1 : 0) << '\n';
  return resp.exit_code;
}

int CmdRecover(const CliArgs& args) {
  const fault::ShardCampaignSpec& c = args.req.campaign;
  // The sweep needs a detecting scheme; default to the paper's
  // duplication when none was requested.
  const sim::Scheme scheme =
      c.scheme == sim::Scheme::kNone ? sim::Scheme::kDetectOnly : c.scheme;
  const std::vector<std::string> names =
      c.app.empty() ? apps::HotPatternAppNames()
                    : std::vector<std::string>{c.app};
  std::cout << "retry-budget sweep: scheme=" << sim::SchemeName(scheme)
            << " blocks=" << c.faulty_blocks << " bits=" << c.bits_per_block
            << " runs=" << c.runs << " seed=" << c.seed << "\n"
            << "budget 0 is the paper's detect-and-die pipeline; budget "
               "k adds tiered recovery with up to k re-executions.\n";
  for (const auto& name : names) {
    auto app = apps::MakeApp(name, c.scale);
    const auto profile = apps::ProfileApp(*app, c.gpu);
    // Named objects win; otherwise the whole coverage order.
    const apps::Cover cover = apps::ResolveCover(
        profile, scheme,
        c.cover.value_or(
            static_cast<unsigned>(profile.hot.coverage_order.size())),
        c.objects);
    const std::uint64_t run_cycles =
        apps::RunTiming(*app, profile, c.gpu,
                        apps::BuildProtection(*app, cover).plan)
            .cycles;
    for (unsigned budget = 0; budget <= args.retries; ++budget) {
      // Fresh campaign per budget point: the repeat-offender memory
      // must not leak between sweep points.
      fault::FaultCampaign campaign(*app, profile, cover, mem::EccMode::kNone,
                                    c.allow_unsound);
      fault::CampaignConfig cc = fault::MakeCampaignConfig(c);
      cc.recovery.enabled = budget > 0;
      cc.recovery.max_retries = budget;
      const auto counts = campaign.Run(cc);
      const auto cost = core::ChargeRecovery(counts.recovery, counts.runs,
                                             run_cycles, c.gpu);
      std::cout << name << " budget=" << budget << " runs=" << counts.runs
                << ": sdc " << counts.sdc << ", detected " << counts.detected
                << ", recovered " << counts.recovered << ", masked "
                << counts.masked << ", due " << counts.due << ", crash "
                << counts.crash << " | arb " << counts.recovery.arbitrations
                << ", scrubs " << counts.recovery.scrubs << ", retired "
                << counts.recovery.retired_blocks << ", reexec "
                << counts.recovery.retries << ", escalations "
                << counts.recovery.escalations << ", overhead "
                << 100.0 * cost.per_run_overhead << "%\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  CliArgs args;
  args.command = argv[1];
  args.req.campaign.runs = 200;  // the CLI's default trial count
  // profile|timing|analyze|avf|campaign go through the executor.
  const auto type = ValueOf(service::kRequestTypeNames, args.command);
  const bool exec = type.has_value() && service::RunsApp(*type);
  int i = 2;
  if (exec || args.command == "shard" || args.command == "shard-worker") {
    if (argc < 3 || argv[2][0] == '-') return Usage();
    if (exec) args.req.type = type.value();
    args.req.campaign.app = argv[2];
    i = 3;
  } else if (args.command == "recover") {
    if (argc >= 3 && argv[2][0] != '-') {
      args.req.campaign.app = argv[2];
      i = 3;
    }
  } else if (args.command == "request") {
    // dcrm request <type> [<app>] [flags]; stats/shutdown take no app.
    if (argc < 3 || argv[2][0] == '-') return Usage();
    const auto t = ValueOf(service::kRequestTypeNames, argv[2]);
    if (!t.has_value()) return Usage();
    args.req.type = *t;
    i = 3;
    if (argc >= 4 && argv[3][0] != '-') {
      args.req.campaign.app = argv[3];
      i = 4;
    }
    if (service::RunsApp(*t) && args.req.campaign.app.empty()) return Usage();
  }
  try {
    for (; i < argc; ++i) {
      if (!ParseFlag(args, argv[i])) {
        std::cerr << "bad flag: " << argv[i] << '\n';
        return Usage();
      }
    }
    fault::ShardCampaignSpec& c = args.req.campaign;
    if (!args.req.config_path.empty()) {
      c.gpu = sim::LoadGpuConfigFile(args.req.config_path, c.gpu);
    }
    if (args.req.engine.has_value()) c.gpu.engine = *args.req.engine;
    if (c.jobs == 0) c.jobs = std::max(1u, std::thread::hardware_concurrency());
    // Long-running commands drain at the next checkpointable boundary
    // on SIGINT/SIGTERM instead of dying mid-trial.
    if (args.command == "campaign" || args.command == "shard" ||
        args.command == "shard-worker" || args.command == "serve") {
      InstallStopHandler();
    }
    if (exec) return CmdExecute(args);
    if (args.command == "apps") return CmdApps();
    if (args.command == "config") return CmdConfig(args);
    if (args.command == "recover") return CmdRecover(args);
    if (args.command == "shard") return CmdShard(args, argv[0]);
    if (args.command == "shard-worker") return CmdShardWorker(args);
    if (args.command == "serve") return CmdServe(args);
    if (args.command == "request") return CmdRequest(args);
  } catch (const std::exception& e) {
    const service::ServedResult r = service::ErrorResult(e);
    PrintError(r.error);
    return r.exit_code;
  }
  return Usage();
}
