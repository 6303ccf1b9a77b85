#!/usr/bin/env python3
"""Run the benchmark several times per workload and report the spread.

    python3 spine/repeat.py OUT.json [--runs 10] [--first-seed 1] [--workload NAME]...
                            [--trace 0|1] [--exe PATH]

Runs the command of BENCHMARK.json (or --exe, a built `spine` binary) from the
repository root, each run with another --seed, and writes every result line to
OUT.json. For each end-to-end metric it prints the median over the runs and the
distance between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, beside the metric's bound: the acceptance rule is a spread
within the bound, the target a spread below a third of it.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--exe")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [args.exe] if args.exe else bench["command"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            argv = command + ["--workload", w, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{w} seed {seed}: {line['failed']} of {line['attempted']} failed")
            runs.append({"seed": seed, **line})
            print(f"{w} seed {seed} done", file=sys.stderr)
        results[w] = runs
        Path(args.out).write_text(json.dumps(results, indent=1))

    worst = 0.0
    print(f"{'workload':12} {'metric':24} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s / bound)
                flag = "  OVER BOUND" if s > bound else ("  over bound/3" if s > bound / 3 else "")
            print(f"{w:12} {name:24} {statistics.median(values):14.6g} {s:11.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    if args.trace == "0":
        print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
