#!/usr/bin/env python3
"""Shows that every output check of the benchmark can fail.

    python3 perfbench/selftest.py [--seed 1]

For each workload, one short unperturbed run must report correct=true; then
one run per check corrupts that check's output (run.py --perturb) and must
report correct=false with a failure line naming the check. Exits 1 if any
expectation is not met.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# perturbation -> the check that must catch it
PERTURBATIONS = {
    "fullbatch": {
        "fullbatch.reference": "fullbatch.reference",  # loss off by 1e-5 rel
        "fullbatch.accuracy": "fullbatch.reference",   # accuracy off by 0.01
        "fullbatch.progress": "fullbatch.progress",    # loss stops falling
    },
    "sampled": {
        "sampled.bitwise": "sampled.bitwise",          # loss one ulp off
        "sampled.chance": "sampled.chance",            # accuracy at chance
    },
    "serving": {
        "serving.answered": "serving.answered",        # one answer missing
        "serving.prediction": "serving.prediction",    # one bit flipped
    },
    "multinode": {
        "multinode.perm": "multinode.perm",            # duplicated vertex
        "multinode.slack": "multinode.slack",          # imbalance over slack
        "multinode.volume": "multinode.volume",        # 4 bytes unaccounted
    },
}


def run(workload, seed, perturb=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    if proc.returncode != 0:
        return None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    failed = [l[len("CHECK FAILED "):] for l in lines
              if l.startswith("CHECK FAILED ")]
    return json.loads(lines[-1]), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(PERTURBATIONS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        result, failed = run(workload, args.seed)
        good = result is not None and result["correct"] and not failed
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {workload}: unperturbed run "
              f"correct={result and result['correct']}")
        for perturb, check in PERTURBATIONS[workload].items():
            result, failed = run(workload, args.seed, perturb)
            caught = (result is not None and not result["correct"] and
                      any(f.startswith(check + ":") for f in failed))
            ok &= caught
            print(f"{'ok  ' if caught else 'FAIL'} {workload}: --perturb "
                  f"{perturb} -> {failed[0] if failed else 'not caught'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
