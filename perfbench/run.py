#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The build's own
output goes to stderr; stdout is the benchmark's report, whose last line
is the JSON result. Exits non-zero without a result when the checkout
cannot be built.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "xmlbench.exe")


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: %s holds no dune project with lib/; nothing to build\n" % ROOT)
        return 2
    # the shared dune cache lives outside the checkout: build without it
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/xmlbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
