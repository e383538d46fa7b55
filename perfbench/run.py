#!/usr/bin/env python3
"""Runs one workload of the emjoin benchmark and prints its metrics.

    python3 perfbench/run.py --workload dense_line3 --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the library under src/) into .bench_build/perfbench;
later calls only let the build tool confirm that it is up to date.

Each call uses its own processes: the reference oracle (cached per
workload, seed and binary), then either the timed closed loop
(--trace 0: the end-to-end metrics) or the traced run (--trace 1: the
per-layer metrics). The last line of standard output is the result
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "emjoin_perfbench")
WORKLOADS = ("dense_line3", "sparse_line4", "unbalanced_line5",
             "sharded_skew_line3")
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY")), "")
        if os.path.realpath(home) != os.path.realpath(HERE):
            shutil.rmtree(BUILD)  # configured from another checkout
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed (is src/ next to perfbench/?)")
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", BUILD, "--target",
                           "emjoin_perfbench", "-j", jobs], stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def run_child(args):
    try:
        done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args[0]} run timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args[0]} run exited with {done.returncode}")
    return lines


def reference(workload, seed):
    """Row count and digest from core::ReferenceJoin, in its own process
    so it weighs on neither the timed process's memory nor its set-up."""
    stat = os.stat(BINARY)
    key = f"{workload}-{seed}-{stat.st_size}-{stat.st_mtime_ns}"
    path = os.path.join(BUILD, "ref", key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    ref = json.loads(run_child(["reference", "--workload", workload,
                                "--seed", str(seed)])[-1])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ref, f)
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    ref = reference(opts.workload, opts.seed)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds),
              "--expect-rows", str(ref["rows"]),
              "--expect-digest", ref["set_digest"]]
    if opts.trace:
        spans = os.path.join(BUILD, "spans",
                             f"{opts.workload}-{opts.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        lines = run_child(["traced"] + common + ["--spans-out", spans])
    else:
        lines = run_child(["timed"] + common)

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result object")
    for line in lines[:-1]:
        print(line)
    print(f"reference rows={ref['rows']} digest={ref['set_digest']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
