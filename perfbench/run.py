#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the harness (this directory,
a Go module of its own) and cmd/mcsyn into .bench_build/, keeping the Go
build cache there too, then hands its arguments to the harness, whose
last line of standard output is the JSON result. A failed build exits 2
and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    harness = os.path.join(BUILD, "bin", "perfbench")
    mcsyn = os.path.join(BUILD, "bin", "mcsyn")
    steps = [
        (HERE, ["go", "build", "-o", harness, "."]),
        (ROOT, ["go", "build", "-o", mcsyn, "./cmd/mcsyn"]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return harness, mcsyn


def main():
    env = go_env()
    harness, mcsyn = build(env)
    args = [harness, "-mcsyn", mcsyn, "-out", BUILD] + sys.argv[1:]
    proc = subprocess.run(args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
