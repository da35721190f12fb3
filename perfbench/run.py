#!/usr/bin/env python3
"""Serving benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload point --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Builds `selest_cli` and the benchmark
driver with dune, then runs the driver, which spawns a fresh
`selest_cli serve` and prints one JSON result as its last line of
standard output.  Scratch files go to `.perfbench_work/` in the checkout.
See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["point", "plan-batch", "cold-catalog", "drift"]
PROFILE = "release"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
DRIVER = "_build/default/perfbench/driver.exe"
CLI = "_build/default/bin/selest_cli.exe"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/selest_cli.ml")):
        return fail("run from the root of a selest checkout (no dune-project or bin/selest_cli.ml here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = run_group(
        ["dune", "build", "--root", ".", "--profile", PROFILE, "./bin/selest_cli.exe", "./perfbench/driver.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    if built != 0:
        return fail("build failed" if built is not None else "build timed out")
    code = run_group(
        [
            DRIVER,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--cli", CLI,
            "--work", ".perfbench_work",
        ],
        RUN_TIMEOUT_S,
    )
    if code is None:
        return fail("run timed out", 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
