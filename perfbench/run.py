#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the Lily libraries from src/, the lily_serve
daemon and the lily_perfbench program) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. lily_perfbench then generates the workload's inputs from the seed,
measures for S seconds, checks every output, and prints one JSON object as
the last line of standard output: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See perfbench/NOTES.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_flow", "proven_flow", "eco_stream", "serve_jobs")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    """$CARGO_TARGET_DIR as given (relative paths from the repository root),
    .bench_build when it is unset; the run directories go there too."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")


def build(bdir):
    """Configure once, then build the two binaries; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "lily_perfbench", "lily_serve",
                  "-j", JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Every knob the flows read from the environment is pinned by the
    # benchmark program itself, so nothing ambient may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LILY_")}
    workdir = os.path.join(bdir, "run-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(bdir, "lily_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(bdir, "lily", "serve", "lily_serve"),
           "--workdir", workdir]
    # Own process group, so a timeout also stops the daemon and its workers.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
