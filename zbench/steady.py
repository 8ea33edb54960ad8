#!/usr/bin/env python3
"""Steadiness report: run one or more workloads N times with different
seeds and print, for every end-to-end metric, its median, quartiles, the
interquartile range as a share of the median, (max-min)/median, and the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 zbench/steady.py --workloads sweep,replay,service --runs 10

Each run is the command BENCHMARK.json names, with --trace 0 and
--seconds set to its run_seconds; seeds start at the default seed, 1.
The quartiles are Python's statistics.quantiles(values, n=4), the same
figures a bound in BENCHMARK.json is checked against.
"""
import argparse
import json
import statistics
import subprocess
import sys

DEFAULT_SEED = 1


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="sweep,replay,service")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for w in args.workloads.split(","):
        values = {}
        bad = 0
        for i in range(args.runs):
            seed = DEFAULT_SEED + i
            res = run_once(bench, w, seed)
            bad += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} run {i + 1}/{args.runs} seed {seed} "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)
        print(f"\n{w}: {args.runs} runs, {bad} incorrect")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
        for name in sorted(values):
            vs = values[name]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            iqr = (q3 - q1) / abs(med) if med else float("nan")
            rng = (max(vs) - min(vs)) / abs(med) if med else float("nan")
            print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.3f} {rng:8.3f} "
                  f"{bounds.get(name, float('nan')):6.2f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
