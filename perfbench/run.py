#!/usr/bin/env python3
"""Build and run the CHARM simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/main.exe
from source with dune (no shared cache, no user configuration), checks
that the program's metric catalogue matches BENCHMARK.json, runs the
program and passes its output on.  The last stdout line is the JSON
result.  Exits non-zero, printing no result, when anything fails.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SOURCES = ["dune-project", "lib", "examples/topologies", "perfbench/main.ml"]
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_timeout(seconds):
    """Past the --seconds of repetitions come the last repetition's
    overshoot, the invariant run and, with --trace 1, calibration and the
    traced run."""
    return int(3 * seconds) + 100


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (" ".join(cmd), timeout), 1)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die("not the root of a source checkout (missing %s)" % ", ".join(missing))
    proc = run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--no-config",
         "--display=quiet", "--no-print-directory", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        die("build failed", 1)


def check_catalogue():
    """The program's metric catalogue must be the one BENCHMARK.json lists."""
    proc = run([EXE, "--list"], 60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die("self-tests failed", 1)
    listed = set(tuple(line.split()) for line in proc.stdout.splitlines() if line)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = set((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    if listed != declared:
        die("metric catalogue differs from BENCHMARK.json: %s"
            % sorted(listed.symmetric_difference(declared)), 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    build()
    check_catalogue()
    proc = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        run_timeout(args.seconds),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die("benchmark exited with %d" % proc.returncode, 1)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no JSON result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
