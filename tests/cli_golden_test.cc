// Golden transcripts of the dcrm CLI (label `cli`).
//
// Each case runs a fixed list of `dcrm` commands (DCRM_BIN) at
// --scale=tiny and records, per command, its exit code, its stdout
// and the file its --csv flag wrote. The transcript must match
// tests/golden/cli/<case>.golden byte for byte. Stderr is not part of
// the contract and is not compared.
//
// Paths the CLI echoes ("report saved to PATH") are rewritten to
// $OUT so the transcript does not depend on the test's temp dir.
//
// Regenerate after an intended output change with
//   DCRM_UPDATE_GOLDENS=1 ctest -L cli
// and review the diff of tests/golden/cli/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/subprocess.h"

namespace {

using namespace dcrm;

const std::vector<std::string> kApps = {
    "C-NN",          "P-BICG",        "P-GESUMMV",   "P-MVT",
    "A-Laplacian",   "A-Meanfilter",  "A-Sobel",     "A-SRAD",
    "P-ATAX",        "C-ConvRows",    "C-Histogram", "C-BlackScholes",
    "P-GRAMSCHM",    "L-Transformer", "L-MLP2",
};

// One command line after `dcrm`; "$OUT" expands to the case's temp dir.
using Command = std::vector<std::string>;

std::vector<Command> CommandsFor(const std::string& name) {
  const std::string t = "--scale=tiny";
  const std::string csv = "--csv=$OUT/out.csv";
  if (name == "cross-check") {
    return {{"campaign", "P-ATAX", t, "--runs=60", "--scheme=detect",
             "--cross-check", csv}};
  }
  if (name == "importance-sampling") {
    return {{"campaign", "P-ATAX", t, "--runs=30", "--scheme=detect",
             "--importance-sampling", "--cross-check", csv},
            {"campaign", "C-NN", t, "--runs=16", "--scheme=correct",
             "--importance-sampling", csv},
            // No SDC-reachable hot block: the campaign is skipped.
            {"campaign", "P-BICG", t, "--runs=16", "--scheme=correct",
             "--importance-sampling", "--target=hot", csv}};
  }
  if (name == "load-trace") {
    return {{"profile", "P-BICG", t, "--save-trace=$OUT/bicg.trc"},
            {"profile", "P-BICG", t, "--load-trace=$OUT/bicg.trc"},
            {"timing", "P-BICG", t, "--scheme=correct",
             "--load-trace=$OUT/bicg.trc", csv},
            {"campaign", "P-BICG", t, "--runs=20", "--scheme=correct",
             "--load-trace=$OUT/bicg.trc", csv}};
  }
  if (name == "objects") {
    const std::string objs = "--objects=A,Q,R";
    return {{"analyze", "P-GRAMSCHM", t, "--scheme=correct", objs, csv},
            {"avf", "P-GRAMSCHM", t, "--scheme=correct", objs, csv},
            {"campaign", "P-GRAMSCHM", t, "--runs=16", "--scheme=correct",
             objs},
            {"campaign", "P-GRAMSCHM", t, "--runs=16", "--scheme=correct",
             objs, "--allow-unsound", csv},
            {"campaign", "C-NN", t, "--runs=16", "--scheme=detect",
             "--objects=no-such-object", csv}};
  }
  if (name == "timing-objects") {
    return {{"timing", "P-GRAMSCHM", t, "--scheme=correct",
             "--objects=A,Q,R"},
            {"timing", "C-NN", t, "--scheme=detect",
             "--objects=no-such-object"}};
  }
  if (name == "recover-objects") {
    // The named set is what the sweep protects; without --objects it
    // covers the whole coverage order.
    return {{"recover", "P-GRAMSCHM", t, "--runs=8", "--retries=1",
             "--scheme=correct", "--objects=A,Q,R"},
            {"recover", "P-GRAMSCHM", t, "--runs=8", "--retries=1",
             "--scheme=correct"}};
  }
  if (name == "recover-unknown-object") {
    return {{"recover", "P-GRAMSCHM", t, "--runs=4", "--retries=0",
             "--scheme=correct", "--objects=no-such-object"}};
  }
  if (name == "recovery") {
    return {{"campaign", "P-ATAX", t, "--runs=48", "--scheme=detect",
             "--recovery=2", "--epoch=16", "--jobs=2", csv}};
  }
  // Otherwise the case is an app name.
  return {{"profile", name, t},
          {"profile", name, t, "--graph", csv},
          {"timing", name, t, "--scheme=detect", csv},
          {"analyze", name, t, "--scheme=detect", csv},
          {"avf", name, t, "--scheme=detect", csv},
          {"campaign", name, t, "--scheme=detect", "--runs=16", csv}};
}

std::string Replace(std::string s, const std::string& from,
                    const std::string& to) {
  for (std::size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

// Sections are length-prefixed so a missing trailing newline shows.
void AppendSection(std::string& out, const std::string& label,
                   const std::string& body) {
  out += "--- " + label + " (" + std::to_string(body.size()) + " bytes)\n";
  out += body;
  out += "\n";
}

std::string RunCase(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dcrm_cli_golden_" + name;
  EnsureDir(dir);
  std::string transcript;
  for (const Command& cmd : CommandsFor(name)) {
    RemoveFileIfExists(dir + "/out.csv");
    RemoveFileIfExists(dir + "/stdout");
    std::string line = "$ dcrm";
    std::vector<std::string> argv = {DCRM_BIN};
    for (const std::string& a : cmd) {
      line += " " + a;
      argv.push_back(Replace(a, "$OUT", dir));
    }
    const ExitStatus status =
        Subprocess::Spawn(argv, dir + "/stdout", dir + "/stderr").Wait();
    transcript += line + "\n";
    transcript += std::string(status.signaled ? "signal " : "exit ") +
                  std::to_string(status.code) + "\n";
    AppendSection(transcript, "stdout",
                  Replace(ReadFileToString(dir + "/stdout"), dir, "$OUT"));
    if (FileExists(dir + "/out.csv")) {
      AppendSection(transcript, "csv", ReadFileToString(dir + "/out.csv"));
    }
  }
  return transcript;
}

// First line where the two transcripts differ, for a readable failure.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "(identical lines)";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(n) + ":\n  golden: " +
             (more_a ? la : "<eof>") + "\n  actual: " +
             (more_b ? lb : "<eof>");
    }
  }
}

class CliGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(CliGolden, MatchesRecordedTranscript) {
  const std::string name = GetParam();
  const std::string path = std::string(DCRM_GOLDEN_DIR) + "/" + name +
                           ".golden";
  const std::string got = RunCase(name);
  if (std::getenv("DCRM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  ASSERT_TRUE(FileExists(path)) << "no golden " << path;
  const std::string want = ReadFileToString(path);
  EXPECT_TRUE(want == got) << name << " differs from " << path << " at "
                           << FirstDifference(want, got);
}

std::string CaseName(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllApps, CliGolden, ::testing::ValuesIn(kApps),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Flags, CliGolden,
                         ::testing::Values("cross-check",
                                           "importance-sampling",
                                           "load-trace", "objects",
                                           "recover-objects",
                                           "recover-unknown-object",
                                           "recovery", "timing-objects"),
                         CaseName);

}  // namespace
