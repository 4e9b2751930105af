#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its output, and prints the result as the last line of stdout.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_kddb_l2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes the traced run's spans under
.bench_build/out/). `--workload all` runs every workload in both modes,
for reading at a terminal; it prints several result lines.

The build lives in .bench_build/ (CMake, Release). perfbench/metrics.json
holds each workload's objective ceiling and, for each per-layer metric,
the end-to-end metric and workload it should move.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so a timeout also stops
    whatever the command started (make's compiler jobs), and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            code, out = run(cmd, BUILD_TIMEOUT_S, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("build step %s exited %d" % (cmd[:2], code))


def run_one(workload, seed, seconds, trace, bench, spec):
    """Runs one workload; returns its validated result line (a dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--objective-ceiling",
           repr(spec["workloads"][workload]["objective_ceiling"]),
           "--out-dir", OUT]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s did not finish: %s" % (workload, e))
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        fail("%s exited %d" % (workload, code))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)

    expected = bench["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and want[k] != got[k])))
    if not trace:
        zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
        if zero:
            fail("end-to-end metrics read 0: %s" % zero)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "metrics.json"))
    names = [w["name"] for w in bench["workloads"]]
    if sorted(spec["per_layer"]) != sorted(m["name"] for m in bench["per_layer"]):
        fail("metrics.json and BENCHMARK.json list different per-layer metrics")
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, names))

    build()
    os.makedirs(OUT, exist_ok=True)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         bench, spec)
        print(json.dumps(result))
        return

    correct = True
    for name in names:
        for trace in (0, 1):
            print("=== %s --trace %d" % (name, trace))
            result = run_one(name, args.seed, args.seconds, trace, bench, spec)
            correct = correct and result["correct"]
            print(json.dumps(result))
    sys.exit(0 if correct else 3)


if __name__ == "__main__":
    main()
