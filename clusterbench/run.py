#!/usr/bin/env python3
"""Builds the cluster benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 clusterbench/run.py --workload tpce_push --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build); cmake's output
goes to stderr, so the last line of standard output is the driver's JSON
result. --trace 1 runs the traced driver and writes its spans to
<build dir>/spans/<workload>.json. --self-test checks the oracle comparison.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpce_push", "micro_wire", "tpcc_durable")


def build(build_dir):
    """Configures (once) and builds both drivers; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--txns", type=int, default=0,
                   help="override the workload's txn count (tests only)")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("run.py: no T-Part sources next to the benchmark", file=sys.stderr)
        return 2
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    driver = "cluster_bench_traced" if a.trace else "cluster_bench"
    cmd = [os.path.join(build_dir, driver)]
    if a.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.txns > 0:
            cmd += ["--txns", str(a.txns)]
        if a.trace:
            spans = os.path.join(build_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(spans, a.workload + ".json")]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
