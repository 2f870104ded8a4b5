#!/usr/bin/env python3
"""Runs one workload of the ILPS benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N]

Run from the root of an ILPS source tree. The first call builds the
runtime libraries and the benchmark program from source into
.bench_build/perfbench (CMake; Ninja when installed); later calls reuse the
build. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build and progress output goes to
standard error.

--self-check runs every workload briefly in both modes with all checks on,
stamps each result with nproc, build type and git sha, and exits nonzero
if any check fails or any metric named in BENCHMARK.json is missing.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ilps_perfbench")
SCRATCH = os.path.join(BUILD, "scratch")
WORKLOADS = ["fig1_dataflow", "polyglot_sweep", "serve_stream", "ft_restart"]
BUILD_TYPE = "RelWithDebInfo"
# A measuring run ends well inside the three minutes a caller allows.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ILPS sources at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the parsed result."""
    os.makedirs(SCRATCH, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", SCRATCH]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s printed a malformed result" % workload)
    return result


def stamp():
    out = subprocess.run([BINARY, "--stamp"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    info = json.loads(out)
    try:
        info["git_sha"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["git_sha"] = "unknown"
    return info


def self_check(seed):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    want = {0: [], 1: []}
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want[0] = [m["name"] for m in spec["end_to_end"]]
        want[1] = [m["name"] for m in spec["per_layer"]]
    info = stamp()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_binary(workload, seed, 2, trace)
            missing = [n for n in want[trace] if n not in result["metrics"]]
            good = (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0 and not missing)
            ok = ok and good
            print(json.dumps(dict(info, workload=workload, seed=seed,
                                  trace=trace, ok=good, missing=missing,
                                  result=result)))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # A terminated run unwinds through subprocess.run, which kills and
    # reaps the build or benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_check:
        return self_check(args.seed)
    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
