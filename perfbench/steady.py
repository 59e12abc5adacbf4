#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--seeds 1-10] [--trace 0] [--out results.json] [workload ...]

For every workload and end-to-end metric it prints the median of the
runs, the interquartile range (statistics.quantiles, n=4) as a share of
the median, and that share as a fraction of the metric's bound from
BENCHMARK.json. With --out, every run's raw result is saved as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    runs = {}
    for w in workloads:
        for seed in seeds_of(args.seeds):
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t0 = time.time()
            done = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {lines[-1]}")
            notes = [line for line in lines if line.startswith("#")]
            runs.setdefault(w, []).append(
                {"seed": seed, "wall_s": wall, "notes": notes, "result": result})
            print(f"# {w} seed {seed}: {wall:.1f} s", file=sys.stderr)

    print("| workload | metric | median | IQR/median | bound | share of bound |")
    print("|---|---|---|---|---|---|")
    for w, rs in runs.items():
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            share = f"{spread / bound:.2f}" if bound else "-"
            print(f"| {w} | {m['name']} | {med:.6g} {m['unit']} | {spread:.3f} | "
                  f"{bound if bound else '-'} | {share} |")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
