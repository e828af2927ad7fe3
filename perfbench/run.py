#!/usr/bin/env python3
"""Builds and runs the dcrm benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
the dcrm libraries, the `dcrm` CLI and the `perfbench` binary from the
sources in this checkout (Release, under .bench_build/); later calls
rebuild incrementally. The binary's last stdout line is the result
object. --selftest runs every workload at minimal size at the default
and the held-out seed, traced and untraced, and checks the emitted
metrics against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["campaign-cnn", "campaign-recovery", "timing-fig7",
             "service-openloop"]
DEFAULT_SEED = 1
# Not used while the benchmark was tuned; the self-test runs it.
HELD_OUT_SEED = 7919
# The self-test's bound on the generator's p99 lateness: above it a
# service run measured the generator, not the daemon.
MAX_GENERATOR_LAG_MS = 50.0
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(os.path.relpath(ROOT / target / "perfbench", ROOT))


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a checkout of the repository")
    bdir = build_dir()
    if not (ROOT / bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR.relative_to(ROOT)), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
           "--target", "perfbench", "dcrm"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir


def source_identity():
    """The git commit when ROOT is a git checkout, else a source digest."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run_binary(bdir, workload, seed, seconds, trace, smoke, commit,
               echo=True):
    cmd = [str(bdir / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--dcrm", str(bdir / "dcrm_tools" / "dcrm"), "--out-dir",
           str(bdir / "out"), "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    # Its own process group, so that a daemon left behind by a crashed
    # or timed-out benchmark binary is stopped with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if echo:
        sys.stdout.write(out)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def check_result(result, bench, trace, workload):
    """Problems with one self-test result, as strings."""
    problems = []
    if result is None:
        return ["no result object"]
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[key]}
    got = result.get("metrics", {})
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"expected {unit}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
    for name in got:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"failed={result.get('failed')} "
                        f"correct={result.get('correct')}")
    ratio = got.get("bench.failed_ratio", {}).get("value", 0)
    if trace and ratio != 0:
        problems.append(f"bench.failed_ratio is {ratio}")
    lag = got.get("service.generator_lag_ms", {}).get("value", 0)
    if trace and workload == "service-openloop" and \
            lag > MAX_GENERATOR_LAG_MS:
        problems.append(f"service.generator_lag_ms {lag} exceeds "
                        f"{MAX_GENERATOR_LAG_MS}")
    return problems


def selftest(bdir, commit):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} differ from {WORKLOADS}")
    bad = 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                code, result = run_binary(bdir, workload, seed, 2, trace,
                                          True, commit, echo=False)
                problems = check_result(result, bench, trace, workload)
                if code != 0:
                    problems.append(f"exit code {code}")
                status = "ok" if not problems else "FAIL"
                print(f"selftest {workload} seed={seed} trace={trace}: "
                      f"{status}")
                for p in problems:
                    print(f"  {p}")
                bad += bool(problems)
    print(f"selftest: {bad} failing run(s)")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build()
    commit = source_identity()
    if args.selftest:
        return selftest(bdir, commit)
    code, result = run_binary(bdir, args.workload, args.seed, args.seconds,
                              args.trace, False, commit)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
