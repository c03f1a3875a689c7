#!/usr/bin/env python3
"""Build hdpat_perfbench from source, run one workload, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; the spans of the traced run are
written next to the build. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A repetition fails when an issued op is not retired, its simulated
result digest differs from the warm-up repetition's, the auditor
checked no PPNs (observed), or the process dies. Count-type results
are also compared with every earlier run of the same binary and seed;
any count that moved is named on stderr and fails the run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The harness's own deadline; the build before it has its own budget.
HARNESS_DEADLINE_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir):
    """Configure (once) and build the harness; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "hdpat_perfbench", "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(cmd)}")
            sys.exit(rc)
    return bdir / "hdpat_perfbench"


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_commit():
    """The git commit, or a digest of src/ where there is no git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()


def check_counts(record_path, key, digest, counts):
    """Compares counts with earlier runs of the same key; names moves."""
    try:
        records = json.loads(record_path.read_text())
    except (OSError, ValueError):
        records = {}
    old = records.get(key)
    moved = []
    if old:
        if old["digest"] != digest:
            moved.append(f"digest {old['digest']} -> {digest}")
        for name, value in counts.items():
            if name in old["counts"] and old["counts"][name] != value:
                moved.append(f"{name} {old['counts'][name]} -> {value}")
        merged = dict(old["counts"], **counts)
    else:
        merged = counts
    records[key] = {"digest": old["digest"] if old else digest,
                    "counts": merged}
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, sort_keys=True))
    tmp.replace(record_path)
    return moved


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    spans = bdir / f"spans-{args.workload}-{args.seed}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_DEADLINE_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_DEADLINE_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode == 2:
        return 2  # refused to run; the harness said why on stderr

    if proc.returncode != 0:
        # A panic aborts the process mid-repetition: that repetition
        # failed, every finished one is reported as it went. Nothing
        # was measured, so every metric of the manifest reads null.
        reps = [l for l in lines if l.startswith("rep ")]
        failed = sum(" FAIL " in l for l in reps) + 1
        log(f"harness died with status {proc.returncode} during "
            f"repetition {len(reps)}")
        metrics = {m["name"]: {"value": None, "unit": m["unit"]}
                   for m in wanted}
        print(json.dumps({"correct": False, "attempted": len(reps) + 1,
                          "failed": failed, "metrics": metrics}))
        return 0

    out = json.loads(lines[-1])
    attempted, failed = out["attempted"], out["failed"]
    for f in out["failures"]:
        log(f"FAIL {f}")

    key = f"{args.workload}/{args.seed}/{sha256_file(exe)}"
    moved = check_counts(bdir / "counts.json", key, out["digest"],
                         out["counts"])
    for m in moved:
        log(f"count moved since an earlier run of this build and seed: {m}")
    if moved:
        failed = attempted

    prov = dict(out["provenance"], commit=source_commit(),
                digest=out["digest"])
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if "paper_err_pct" in out:
        print(f"paper: Fig 14 geomean HDPAT speedup "
              f"{out['fig14_hdpat_geomean']:.4f}x vs 1.57x, "
              f"paper_err_pct {out['paper_err_pct']:.4f} %")
    metrics = {}
    for m in wanted:
        value = out["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
