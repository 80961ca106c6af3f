#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 gcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                           [--fault <spec>] [--inject-stall 1]

Configures and builds the gcbench binary from source under .bench_build/
(the first run compiles the runtime and takes about a minute), runs one
workload, and relays the binary's report. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exit status is the binary's: 0 when every correctness check passed.
See gcbench/NOTES.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "gcbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("xalan-parnew", "xalan-g1", "ycsb-parallelold", "ycsb-cms")
# The whole command must end within three minutes once built.
RUN_BUDGET_S = 175


def log(msg):
    print("gcbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gcbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    exe = os.path.join(BUILD_DIR, "gcbench")
    return exe if os.path.exists(exe) else None


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--fault", default="",
                   help="fault spec armed for the run (support/fault.h grammar)")
    p.add_argument("--inject-stall", type=int, choices=(0, 1), default=0,
                   help="self-test: start a pause that never ends")
    args = p.parse_args()

    exe = build()
    if exe is None:
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR, "--git-sha", git_sha()]
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.inject_stall:
        cmd += ["--inject-stall", "1"]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it before raising.
        log("gcbench overran %d s and was killed" % RUN_BUDGET_S)
        return 4
    sys.stdout.write(done.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if done.returncode != 0:
        log("gcbench exited with %d after %.1f s" %
            (done.returncode, time.monotonic() - start))
    return 0 if done.returncode == 0 else max(1, done.returncode)


if __name__ == "__main__":
    sys.exit(main())
