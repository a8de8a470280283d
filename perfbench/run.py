#!/usr/bin/env python3
"""Build flowrecond, experiments and the perfbench load generator from source, then
run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shared --seed 1 --seconds 10 --trace 0

Every build and run artifact stays under .bench_build/ in the checkout
(Go build cache included). The last stdout line is the JSON result;
build output goes to stderr. Exits non-zero, printing no result, when the
checkout holds no flowrecon sources to build.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: no go.mod here; run from the root of a flowrecon checkout")
    for d in (bindir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        ["go", "build", "-o", bindir + os.sep, "./cmd/flowrecond", "./cmd/experiments"],
        ["go", "-C", "perfbench", "build", "-o", os.path.join(bindir, "perfbench"), "."],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    bench = os.path.join(bindir, "perfbench")
    args = [bench, "-bin", bindir, "-work", os.path.join(build, "work")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    main()
