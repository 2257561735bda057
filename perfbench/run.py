#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-80gpu --seed 1 --seconds 20 --trace 0

The first call builds perfbench/ (which compiles ../src) into .bench_build/
with CMake; later calls reuse the build. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1. Lines before it are for people: the build,
the result digest and the modelled outcome. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Build directory: $CARGO_TARGET_DIR when set (relative to the repository
# root), else .bench_build; CMake output goes beneath it.
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(nproc())],
        check=True, stdout=sys.stderr)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    return contract["end_to_end"], contract["per_layer"]


def run_binary(name, args, timeout):
    env = dict(os.environ)
    # Cap the fit pool at the cores this process may use.
    threads = nproc()
    current = env.get("MUDI_FIT_THREADS", "")
    if current.isdigit() and 0 < int(current) < threads:
        threads = int(current)
    env["MUDI_FIT_THREADS"] = str(threads)
    cmd = [os.path.join(BUILD_DIR, name)] + args
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s exited with code %d" % (name, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % name)
    for line in lines[:-1]:
        log(line)
    return json.loads(lines[-1])


def pick(result, wanted):
    """The wanted metrics, each with the unit the contract declares."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise RuntimeError("metric %s missing from the run" % spec["name"])
        if got["unit"] != spec["unit"]:
            raise RuntimeError("metric %s has unit %s, expected %s"
                               % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def describe(result):
    info = result["info"]
    log("workload %s seed %s: digest %s, %d/%d repetitions passed"
        % (result["workload"], result["seed"], result["digest"],
           result["attempted"] - result["failed"], result["attempted"]))
    log("build: %s %s, MUDI_FIT_THREADS=%s, alloc hook %s"
        % (info["compiler"], info["build_type"], info["fit_threads"],
           "linked" if info["alloc_hook"] else "absent"))
    m = result["metrics"]
    log("host: measured run %.6g s, set-up %.6g s CPU; slowdown against the reference host: "
        "event loop %.4f, arithmetic %.4f"
        % (m["bench.run_wall_s"]["value"], m["bench.setup_cpu_s"]["value"],
           m["bench.host_slowdown_event"]["value"], m["bench.host_slowdown_arith"]["value"]))
    modelled = ["slo_violation_pct", "mean_ct_s", "goodput_rps", "sm_util_pct"]
    log("modelled: " + ", ".join(
        "%s=%.6g %s" % (k, result["metrics"][k]["value"], result["metrics"][k]["unit"])
        for k in modelled if k in result["metrics"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test switches (perfbench/selftest.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--force-invariant-failure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    end_to_end, per_layer = load_contract()
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d-%d"
                            % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir", work_dir]
    if args.tiny:
        common.append("--tiny")
    if args.force_invariant_failure:
        common.append("--force-invariant-failure")
    started = time.monotonic()
    try:
        if args.trace == 0:
            result = run_binary("mudi_perfbench", common + ["--seconds", str(args.seconds)],
                                RUN_TIMEOUT_S)
            describe(result)
            runs, wanted, same = [result], end_to_end, True
        else:
            # Half the budget untraced (the reference), half traced.
            half = str(args.seconds / 2.0)
            plain = run_binary("mudi_perfbench", common + ["--seconds", half],
                               RUN_TIMEOUT_S / 2)
            spans_dir = os.path.join(BUILD_ROOT, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))
            traced = run_binary("mudi_perfbench_traced",
                                common + ["--seconds", half, "--trace", "1", "--spans", spans],
                                max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started)))
            describe(traced)
            same = plain["digest"] == traced["digest"]
            log("traced digest %s untraced digest %s: %s"
                % (traced["digest"], plain["digest"], "identical" if same else "DIFFERENT"))
            log("spans written to %s" % os.path.relpath(spans, ROOT))
            runs, wanted = [plain, traced], per_layer
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = same and failed == 0
        if any(r["attempted"] == r["failed"] for r in runs):
            log("perfbench: every repetition of a run failed")
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1
        if args.trace == 1:
            plain_run = plain["metrics"]["run_s"]["value"]
            traced["metrics"]["bench.trace_overhead_pct"] = {
                "value": 100.0 * (traced["metrics"]["run_s"]["value"] / plain_run - 1.0),
                "unit": "%"}
        metrics = pick(runs[-1], wanted)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
