#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload fullbatch --seed 1 --seconds 10 --trace 0

Builds the library from ../src and the `perfbench` program from this
directory into .bench_build/ at the repository root, generates the
workload's inputs from the seed, then runs the measured process. Everything the program prints goes
to stdout; the last line is the result object. Build and generation logs go
to stderr. Exits non-zero, without a result, when anything fails.
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
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fullbatch", "sampled", "serving", "multinode")

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    # Compilers and the program keep their scratch files inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # The workloads fix every mode they use; keep process-wide knobs from
    # the caller's environment out of the measurement.
    for key in list(env):
        if key.startswith("MGGCN_"):
            del env[key]
    return env


def step(cmd, timeout, env, capture=False, cpus=None):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=timeout, check=False, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus
            else None)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(env):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if step(cmd, BUILD_TIMEOUT_S, env).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    if step(cmd, BUILD_TIMEOUT_S, env).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb", default="",
                        help="corrupt one output before its check "
                             "(selftest.py)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    env = child_env()
    build(env)

    inputs = os.path.join(BUILD, "inputs", args.workload)
    results = os.path.join(BUILD, "results")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(results, exist_ok=True)
    start = time.monotonic()
    gen = [BINARY, "gen", "--workload", args.workload, "--seed",
           str(args.seed), "--dir", inputs]
    if step(gen, GEN_TIMEOUT_S, env).returncode != 0:
        fail("input generation failed")
    print(f"perfbench: inputs generated in {time.monotonic() - start:.2f} s",
          file=sys.stderr)

    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--dir", inputs, "--results", results]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    # multinode and serving do their host work on the driving thread
    # (simulator bookkeeping, batching); their kernels are absent or tiny, so
    # the stream workers mostly wait to be woken. Spread over several CPUs
    # every wake-up crosses CPUs, and while the host steals CPU time those
    # wake-ups stall: multinode's per-epoch medians ranged 0.43-7.3 ms across
    # runs. On one CPU they ranged 0.45-0.8 ms, at the same speed otherwise.
    pinned = args.workload in ("multinode", "serving")
    cpus = {max(os.sched_getaffinity(0))} if pinned else None
    try:
        proc = step(cmd, RUN_TIMEOUT_S, env, capture=True, cpus=cpus)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"run exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        fail("run did not end with a result object")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
