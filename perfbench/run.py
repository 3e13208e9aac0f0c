#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload collision-mesh --seed 1 --seconds 20 --trace 0

The Go program in this directory is compiled against the repository's
sources into the build directory (CARGO_TARGET_DIR if set, else
.bench_build at the repository root), with the Go build cache, temporary
files and module cache kept there too, so a run writes nothing outside the
checkout. Every argument is passed through to the program, whose last line
of output is the benchmark's JSON result. A failed build exits non-zero
without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = 4


def run_timeout(argv):
    """Hang guard for one run, in seconds.

    The program stops itself after its time budget plus one pass (and, with
    --trace 1, one traced pass) of up to about 25 s, so each workload gets
    three budgets and a minute and a half. --workload all runs every
    workload in turn, each in a child the program itself kills at that
    limit, so this guard is a backstop there.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seconds", type=float, default=20)
    args, _ = parser.parse_known_args(argv)
    n = WORKLOADS if args.workload == "all" else 1
    budget = args.seconds if 0 < args.seconds < 1e6 else 0  # the program rejects the rest
    return n * (3 * budget + 90) + 30


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The program runs in a process group of its own, so a timeout stops
    # the per-workload children of --workload all as well.
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([binary] + sys.argv[1:], start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
