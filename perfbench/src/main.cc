// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --dcrm PATH --out-dir DIR [--commit ID] [--smoke]
//
// Normally started through run.py, which builds this binary and the
// `dcrm` CLI from source first. Prints an environment header and notes
// as `#` lines, then one JSON result object as the last stdout line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench_core.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload campaign-cnn|campaign-recovery|"
               "timing-fig7|service-openloop --seed N --seconds S --trace 0|1 "
               "--dcrm PATH --out-dir DIR [--commit ID] [--smoke]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--dcrm") o.dcrm = v;
      else if (a == "--out-dir") o.out_dir = v;
      else if (a == "--commit") o.commit = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0 && !o.out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!ParseArgs(argc, argv, opts)) return Usage();

  const std::string refuse = PERFBENCH_REFUSE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string sanitized = "sanitizer build";
#elif !defined(NDEBUG)
  const std::string sanitized = "assertions enabled (Debug build)";
#else
  const std::string sanitized;
#endif
  if (!refuse.empty() || !sanitized.empty()) {
    std::cerr << "perfbench: refusing to time a "
              << (refuse.empty() ? sanitized : refuse) << "\n";
    return 3;
  }

#if defined(__clang__)
  const char* const compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* const compiler = "GCC " __VERSION__;
#else
  const char* const compiler = "unknown";
#endif
  std::cout << "# env nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << " hardware_concurrency=" << std::thread::hardware_concurrency()
            << " compiler=\"" << compiler << "\" build_type="
            << PERFBENCH_BUILD_TYPE << " commit="
            << (opts.commit.empty() ? "unknown" : opts.commit) << "\n"
            << "# run workload=" << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace
            << (opts.smoke ? " smoke=1" : "") << std::endl;

  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  perfbench::Tracer tracer(false);
  perfbench::Result result;
  int code = 0;
  try {
    if (opts.workload == "campaign-cnn") {
      perfbench::RunCampaignCnn(opts, tracer, result);
    } else if (opts.workload == "campaign-recovery") {
      perfbench::RunCampaignRecovery(opts, tracer, result);
    } else if (opts.workload == "timing-fig7") {
      perfbench::RunTimingFig7(opts, tracer, result);
    } else if (opts.workload == "service-openloop") {
      perfbench::RunServiceOpenLoop(opts, tracer, result);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    result.Fail(std::string("escaped exception: ") + e.what());
    code = 1;
  }

  if (opts.trace) {
    tracer.PrintSelfTimes(std::cout);
    const std::string path = opts.out_dir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".jsonl";
    if (tracer.Write(path)) {
      result.Note("spans written to " + path);
    } else {
      result.Fail("cannot write " + path);
    }
  }
  std::cout << "# fingerprint " << std::hex << result.fingerprint().value()
            << std::dec << "\n";
  result.PrintJson(std::cout, opts.trace);
  return code;
}
