#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, one set of seeds at a time.

    python3 perfbench/noise.py --workloads wafer_spmv,observed \
        --seeds 1-10 [--seconds 30] [--out FILE]

Runs perfbench/run.py once per (workload, seed), in that order, from
the repository root, and prints for every end-to-end metric the median,
the first and third quartiles (statistics.quantiles(values, n=4)), the
spread (Q3 - Q1) / median, and the sample count. --out writes the same
as JSON; perfbench/noise_floor.json holds the recorded sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seconds": args.seconds, "seeds": args.seeds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds)
                for s in parse_seeds(args.seeds)]
        stats = {m: summarize([r[m] for r in runs]) for m in runs[0]}
        report["workloads"][workload] = stats
        for m, s in stats.items():
            print(f"{workload:<13} {m:<16} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {100 * s['spread']:6.2f} %  n={s['n']}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
