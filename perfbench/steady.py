#!/usr/bin/env python3
"""Steadiness check for the ILPS benchmark.

    python3 perfbench/steady.py [--workloads a,b,...] [--runs 10]
                                [--seconds S] [--trace 0|1] [--first-seed 1]

Runs each workload --runs times through run.py, one seed per round and the
workload order reversed every other round, then prints for every metric
its median, first and third quartile (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, next to the bound BENCHMARK.json gives the
metric. A bound is held with margin when the spread is below a third of
it. setup_s is exempt from the spread rule; its median is what a later
run is compared against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.first_seed + r
            out = subprocess.run(
                [sys.executable, RUN, "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if out.returncode != 0:
                sys.exit("run failed: %s seed %d" % (w, seed))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            shares[w].add(result["failed"] / result["attempted"])
            if not result["correct"]:
                print("INCORRECT: %s seed %d" % (w, seed))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %s seed %d done" % (r, w, seed), file=sys.stderr)

    print("%-16s %-28s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "held"))
    for w in workloads:
        for name, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            held = "" if bound is None else (
                "exempt" if name == "setup_s" else
                "yes" if spread < bound / 3 else "within" if spread <= bound else "NO")
            print("%-16s %-28s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                w, name, med, q1, q3, spread, "" if bound is None else bound, held))
            print("%-16s   runs: %s" % ("", " ".join("%.6g" % x for x in v)))
        print("%-16s failed share: %s" % (w, sorted(shares[w])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
