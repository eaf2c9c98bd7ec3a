#!/usr/bin/env python3
"""Build the whole-pipeline benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload olap --seed 1 --seconds 10 --trace 0

The build goes to the checkout's own _build directory (dune's shared cache
is switched off, so nothing is written outside the checkout); build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  The exit code is the build's when it fails,
otherwise the benchmark's.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
