#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload dispatch --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` runs the untraced binary for `--seconds` and reports the
  end-to-end metrics `BENCHMARK.json` lists;
* `--trace 1` runs the untraced binary for a quarter of `--seconds`, the
  traced binary (counting allocator, layer timers) for half, and the
  untraced binary again for the last quarter, and reports the per-layer
  metrics plus `trace.overhead`: the two untraced runs' mean
  `host_kernels_per_s` over the traced run's.

Every metric is printed as a table first; the last line of standard
output is the JSON result. The exit code is 0 only if every output
check passed and every listed metric was measured.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dispatch", "spmd", "chain")
# Seconds one binary may run beyond its measuring budget (warm-up, the
# last trial, the traced run's per-bucket trials, output checks).
SLACK_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Cargo's output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.budget)]
    # glibc raises its mmap threshold as large blocks are freed, which
    # makes the peak RSS depend on allocation history; pinning it keeps
    # `peak_rss_mb` a property of the workload.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=args.budget + SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} timed out")
    if out.returncode != 0:
        fail(f"{binary.name} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{binary.name} printed no report")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 <= args.seed < 2**64 or not 0 <= args.seconds <= 3600:
        fail("--seed must fit in 64 bits and --seconds in [0, 3600]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    build(target)
    bins = target / "release"

    if args.trace == 0:
        args.budget = args.seconds
        reports = [run(bins / "perfbench", args)]
        metrics = dict(reports[0]["metrics"])
        wanted = spec["end_to_end"]
    else:
        # Untraced, traced, untraced: the overhead compares the traced
        # run with the mean of the runs around it, which cancels drift
        # in the machine's speed that is linear over the run.
        args.budget = args.seconds / 4
        before = run(bins / "perfbench", args)
        args.budget = args.seconds / 2
        traced = run(bins / "perfbench-traced", args)
        args.budget = args.seconds / 4
        after = run(bins / "perfbench", args)
        reports = [traced, before, after]
        metrics = dict(traced["metrics"])
        untraced_kps = sum(r["metrics"]["host_kernels_per_s"]["value"] for r in (before, after)) / 2
        traced_kps = traced["metrics"]["trace.host_kernels_per_s"]["value"]
        metrics["trace.overhead"] = {"value": untraced_kps / traced_kps, "unit": "ratio"}
        wanted = spec["per_layer"]

    notes = reports[0]["notes"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"trials={'+'.join(str(r['trials']) for r in reports)} "
          + " ".join(f"{k}={v:g}" for k, v in notes.items()))
    for name, m in metrics.items():
        value = m["value"]
        shown = "null" if value is None else f"{value:.6g}"
        beside = ""
        if name == "sim_latency_tail_us":
            beside = (f"  (p{notes['sim_latency_tail_percentile']:g} of "
                      f"{notes['programs_per_trial']:g} programs, "
                      f"{notes['sim_latency_tail_samples_beyond']:g} beyond it)")
        print(f"{name:44s} {shown:>14s} {m['unit']}{beside}")
    errors = [e for r in reports for e in r["errors"]]
    for e in errors:
        print(f"check failed: {e}")

    result = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, listed in {m['unit']}")
        result[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = not errors and all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
