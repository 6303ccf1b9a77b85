#!/usr/bin/env python3
"""Compare two result files written by repeat.py.

    python3 spine/compare.py A.json B.json [--agree]

Prints, per workload and end-to-end metric, the median of each file, how much
worse B is than A as a share of A's median (negative = better), and the bound
from BENCHMARK.json. Exits non-zero when B is worse than A by more than a
bound; with --agree (two sets of runs of one commit) also when it is better by
more than the bound.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--agree", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    exceeded = 0
    print(f"{'workload':12} {'metric':24} {'A median':>14} {'B median':>14} {'B worse by':>11} {'bound':>6}")
    for w in a:
        if w not in b:
            print(f"{w:12} missing from {args.b}")
            exceeded += 1
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            med_a = statistics.median(r["metrics"][name]["value"] for r in a[w])
            med_b = statistics.median(r["metrics"][name]["value"] for r in b[w])
            worse = (med_b - med_a) / abs(med_a) if med_a else 0.0
            if m["better"] == "higher":
                worse = -worse
            over = worse > m["bound"] or (args.agree and -worse > m["bound"])
            exceeded += over
            print(f"{w:12} {name:24} {med_a:14.6g} {med_b:14.6g} {worse:+11.4f} {m['bound']:6}"
                  f"{'  EXCEEDED' if over else ''}")
    print(f"{exceeded} bound(s) exceeded")
    sys.exit(1 if exceeded else 0)


if __name__ == "__main__":
    main()
