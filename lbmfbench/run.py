#!/usr/bin/env python3
"""Build and run the layered lbmf benchmark.

    python3 lbmfbench/run.py --workload serve_rare --seed 1 --seconds 15 --trace 0
    python3 lbmfbench/run.py --self-test

Run from anywhere inside a checkout of the repository: the benchmark builds
the lbmf libraries and itself from that checkout's sources into
.bench_build/lbmfbench (first run only), runs one workload and prints the
result as the last line of stdout. Spans of traced runs go to
.bench_build/lbmfbench/trace/, and every run appends its host fingerprint
and result to .bench_build/lbmfbench/runs.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lbmfbench")
WORKLOADS = ("serve_rare", "serve_storm", "forkjoin", "infer")
# The repository files the benchmark needs besides its own directory.
REQUIRED = ("CMakeLists.txt", "include/lbmf/serve/server.hpp",
            "src/CMakeLists.txt", "examples/litmus/bakery_holes.lit",
            "examples/litmus/bakery.lit")
RUN_TIMEOUT_S = 170
# A fresh build loads every CPU for about a minute; runs measured right
# after it were slower on every metric, so a run that built first waits.
SETTLE_AFTER_BUILD_S = 20


def fail(msg, code=2):
    print(f"lbmfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not inside an lbmf checkout (missing {', '.join(missing)})")
    jobs = str(min(4, os.cpu_count() or 1))
    binary = os.path.join(BUILD, target)
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return binary, os.path.getmtime(binary) != before


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        binary, _ = build("lbmfbench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    binary, built = build("lbmfbench")
    if built:
        time.sleep(SETTLE_AFTER_BUILD_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--runs-log", os.path.join(BUILD, "runs.jsonl")]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{args.workload} printed no result (exit {run.returncode})", 3)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics disagree with BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(want.items()))}", 3)
    print("\n".join(lines))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
