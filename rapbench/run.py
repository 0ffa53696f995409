#!/usr/bin/env python3
"""Builds and runs the RAP end-to-end benchmark (see README.md).

    python3 rapbench/run.py --workload gcc-code --seed 42 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources into .bench_build/ on first use. The last line
of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics.

    python3 rapbench/run.py --self-test
        runs every workload at a small size and checks the harness
        itself (every metric of BENCHMARK.json emitted with its unit,
        no failed check, and a corrupted exact count caught).

    python3 rapbench/run.py --record-inputs --seeds 1,2,42
        rewrites inputs.json: record count, event count and input hash
        of every workload for each seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rapbench")
BINARY = os.path.join(BUILD, "rapbench")
INPUTS = os.path.join(HERE, "inputs.json")
WORKLOADS = ["gcc-code", "gcc-value-fine", "session-mcf"]


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "RapTree.h")):
        fail("library sources not found under %s/src" % ROOT)
    log = sys.stderr
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator +
                     ["-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=log, stderr=log) != 0:
            fail("build step failed: " + " ".join(step))


def run_binary(args, capture=False):
    command = [BINARY] + args
    if not capture:
        return subprocess.call(command), None
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def result_line(output):
    lines = [l for l in output.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Small-size harness check; exits non-zero on any problem."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(["--workload=" + workload, "--seed=42",
                                    "--seconds=1", "--trace=%d" % trace,
                                    "--small"],
                                   capture=True)
            res = result_line(out) if code == 0 else None
            tag = "%s trace=%d" % (workload, trace)
            if res is None:
                problems.append(tag + ": no result (exit %d)" % code)
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append(tag + ": %d of %d checks failed"
                                % (res["failed"], res["attempted"]))
            for metric in spec[key]:
                got = res["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(tag + ": metric %s missing or wrong unit"
                                    % metric["name"])
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(tag + ": undeclared metrics %s"
                                % sorted(extra))
        code, out = run_binary(["--workload=" + workload, "--seed=42",
                                "--seconds=1", "--trace=0", "--small",
                                "--inject-wrong-count"], capture=True)
        res = result_line(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(workload + ": a wrong exact count was not caught")
        print("self-test: %s done" % workload, file=sys.stderr)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_inputs(seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in seeds:
            code, out = run_binary(["--workload=" + workload,
                                    "--seed=%d" % seed, "--setup-only"],
                                   capture=True)
            if code != 0:
                fail("set-up failed for %s seed %d" % (workload, seed))
            table[workload][str(seed)] = result_line(out)
    with open(INPUTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-inputs", action="store_true")
    parser.add_argument("--seeds", default="42")
    args = parser.parse_args()
    if not (args.self_test or args.record_inputs or args.workload):
        fail("--workload is required")
    build()
    if args.self_test:
        return self_test()
    if args.record_inputs:
        return record_inputs([int(s) for s in args.seeds.split(",")])
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload,
                                                         args.seed))
    code, _ = run_binary(["--workload=" + args.workload,
                          "--seed=%d" % args.seed,
                          "--seconds=%r" % args.seconds,
                          "--trace=%d" % args.trace,
                          "--spans-out=" + spans, "--inputs=" + INPUTS])
    return code


if __name__ == "__main__":
    sys.exit(main())
