#!/usr/bin/env python3
"""smtflex end-to-end benchmark entry point (named by BENCHMARK.json).

Builds the smtflex libraries, the `smtflex` CLI and the measuring binary
from the sources of this checkout (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload:

    python3 perfbench/run.py --workload sweep_het_cold --seed 7 --seconds 30 --trace 0

The last line of stdout is the run's result JSON. `--selftest` builds and
runs the benchmark's own unit tests instead. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sweep_bench_cold", "sweep_het_cold", "fleet_cold"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure once, then (re)build; compiler output goes to stderr so
    stdout keeps only the benchmark's lines."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def clean_env():
    """The caller's SMTFLEX_* knobs must not change what is measured."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SMTFLEX_")}


def run_benchmark(argv):
    """Run in a new process group, so a timeout can stop the benchmark
    and every server it started."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=clean_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and doc["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                                check=False).returncode)

    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, out = run_benchmark([
            os.path.join(out_dir, "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--root", ROOT, "--work", work,
            "--out", os.path.join(ROOT, ".bench_out")])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if code != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(out)
        sys.exit("perfbench: %s run failed (exit %d)" % (args.workload, code))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
