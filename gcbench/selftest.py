#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 gcbench/selftest.py [--seconds 3]

1. Smoke-runs every BENCHMARK.json workload untraced and traced through
   gcbench/run.py and asserts that each exits 0, that its last line is the result object with exactly
   the metrics BENCHMARK.json names, and that every one of them and every
   end-to-end metric the report promises is printed as a report line with
   its unit and sample count.
2. Runs ycsb-parallelold with the commit-log fault site armed and asserts
   that the injected write failures land in `failed` and `failed_share`
   (BlockingClient::call_once sends each request once, so no retry hides
   them) while every correctness check still passes.
3. Starts a pause that never ends in xalan-g1 and asserts that the run
   exits 3 within its deadline, names the gc layer as stalled and counts
   the unfinished iteration as failed.
Exits non-zero on the first failed assertion.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^(e2e|layer) (\S+) (\S+) (\S+) n=(\d+)$")
# Every untraced report prints these, whether or not BENCHMARK.json guards them.
REPORTED = ("setup_s", "failed_share", "iter_p50_ms", "pause_p50_ms",
            "pause_p99_ms", "lat_p50_ms", "lat_p99_ms", "lat_p999_ms",
            "slo_share")


def fail(msg):
    print("selftest FAILED: " + msg, flush=True)
    sys.exit(1)


def run(workload, seconds, trace, extra=(), expect_exit=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    cmd += list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != expect_exit:
        fail("%s exited %d:\n%s%s" % (" ".join(cmd[1:]), done.returncode,
                                      done.stdout, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(2)] = (float(m.group(3)), m.group(4), int(m.group(5)))
    return result, printed, lines


def check_metrics(workload, trace, result, printed, expected):
    got = result["metrics"]
    if set(got) != set(expected):
        fail("%s trace=%d: metrics %s, expected %s" %
             (workload, trace, sorted(got), sorted(expected)))
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %s, expected %s" %
                 (workload, name, got[name]["unit"], unit))
        if name not in printed or printed[name][1] != unit:
            fail("%s: no report line for %s with unit %s" % (workload, name, unit))
    if trace == 0:
        missing = [name for name in REPORTED if name not in printed]
        if missing:
            fail("%s: no report line for %s" % (workload, missing))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=3)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in [x["name"] for x in bench["workloads"]]:
        for trace, expected in ((0, e2e), (1, layer)):
            result, printed, _ = run(w, args.seconds, trace)
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace=%d: correct=%s failed=%d" %
                     (w, trace, result["correct"], result["failed"]))
            check_metrics(w, trace, result, printed, expected)
            print("ok  %-17s trace=%d attempted=%d" % (w, trace, result["attempted"]),
                  flush=True)

    result, printed, _ = run("ycsb-parallelold", args.seconds, 0,
                             extra=("--fault", "commitlog-write=0.05"))
    share = printed.get("failed_share", (0.0,))[0]
    if not result["correct"] or result["failed"] == 0 or share <= 0.0:
        fail("armed commitlog-write fault: correct=%s failed=%d failed_share=%g" %
             (result["correct"], result["failed"], share))
    if abs(share - result["failed"] / result["attempted"]) > 1e-9:
        fail("failed_share %g != failed/attempted" % share)
    print("ok  fault commitlog-write: %d of %d ops failed (failed_share %.4f)" %
          (result["failed"], result["attempted"], share), flush=True)

    result, _, lines = run("xalan-g1", args.seconds, 0,
                           extra=("--inject-stall", "1"), expect_exit=3)
    stall = [l for l in lines if l.startswith("stall layer=gc")]
    if result["correct"] or result["failed"] < 1 or not stall:
        fail("endless pause: correct=%s failed=%d stall line=%s" %
             (result["correct"], result["failed"], stall))
    print("ok  endless pause reported: " + stall[0][:60], flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
