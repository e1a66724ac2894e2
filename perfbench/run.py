#!/usr/bin/env python3
"""Build and run one workload of the r4ncl benchmark.

    python3 perfbench/run.py --workload <ncl_single|ncl_stream|fleet_replay> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first run configures and compiles the
library (src/) and the benchmark binary into .bench_build/ (or the directory
CARGO_TARGET_DIR names); later runs reuse that build.  The binary's
human-readable report is passed through, and its last line is the result
JSON.  Traced runs also write a span log under .bench_out/.  Each child runs
in its own process group, which is stopped and reaped if it overruns its
time limit.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
WORKLOADS = ("ncl_single", "ncl_stream", "fleet_replay")
BINARY = "r4ncl_perfbench"
# The first run of a checkout compiles the library; later builds are no-ops.
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and returns (returncode, stdout).
    If it overruns `timeout` seconds, the whole group is stopped and reaped
    before the TimeoutExpired propagates."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PERFBENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            code, _ = run_group(cmd, max(1.0, deadline - time.monotonic()),
                                stdout=sys.stderr, env=env)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if code != 0:
            fail(f"build step failed with {code}: {' '.join(cmd)}")
    return build_dir / BINARY


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description="Build and run one r4ncl benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no r4ncl checkout around {PERFBENCH}: src/ or BENCHMARK.json is missing")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_dir, env)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.stderr.write(out)
        fail(f"{BINARY} exited with {code}")
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("the last output line is not the result JSON")
    if set(result.get("metrics", {})) != expected_metrics(args.trace):
        sys.stderr.write(out)
        fail("the result's metrics differ from BENCHMARK.json")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
