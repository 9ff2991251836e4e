#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload rmat-detect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/ (CMake, into .bench_build/perfbench) against the
library in src/, writes the workload's inputs for --seed into a work
directory under .bench_build/, measures for about --seconds, and prints
the result as the last line of standard output: one JSON object with
"correct", "attempted", "failed" and "metrics".  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run
(its spans are kept in .bench_build/traces/).  --workload all runs every
workload and prints one JSON object keyed by workload.  The exit code is
non-zero when the build fails or any output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("rmat-detect", "rmat-spill", "stream-ingest")
# OpenMP team per workload.  rmat-detect runs 2 threads: at 4 on a
# shared 4-vCPU host its level barriers wait on whichever thread the
# hypervisor has descheduled, and pass times swing with the neighbours'
# load.  stream-ingest leaves two cores to its two client threads.
TEAM = {"rmat-detect": 2, "rmat-spill": 4, "stream-ingest": 2}
# stream-ingest runs with one malloc arena: with one arena per thread,
# which arena ends up holding a commit's transient graphs varies from
# run to run, and so did peak RSS (115-126 MB or 143-150 MB on a seed).
ENV = {"stream-ingest": {"MALLOC_ARENA_MAX": "1"}}
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the measuring program; its output goes to stderr."""
    subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(exe, workload, seed, seconds, trace):
    """Generates the inputs, runs one measurement, and returns its result."""
    work = ROOT / ".bench_build" / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, OMP_NUM_THREADS=str(min(TEAM[workload], os.cpu_count() or 1)),
               **ENV.get(workload, {}))
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(work)]
    try:
        subprocess.run([str(exe), "gen", *common], check=True, env=env, timeout=RUN_TIMEOUT_S)
        proc = subprocess.run([str(exe), "run", *common, "--seconds", str(seconds),
                               "--trace", "1" if trace else "0"],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if trace and (work / "trace.jsonl").exists():
            traces = ROOT / ".bench_build" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(str(work / "trace.jsonl"), traces / f"{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: no result line (exit code {proc.returncode})")
    names = list(result["metrics"])
    if names != expected_metrics(trace):
        sys.exit(f"{workload}: metrics {names} differ from BENCHMARK.json")
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        exe = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        sys.exit(f"build failed: {e}")
    if args.workload != "all":
        result, code = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return code
    results, worst = {}, 0
    for w in WORKLOADS:
        results[w], code = run_workload(exe, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        for name, m in results[w]["metrics"].items():
            print(f"{w:14s} {name:36s} {m['value']:18.6f} {m['unit']}")
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
