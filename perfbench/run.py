#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady_admit --seed 1 --seconds 10 --trace 0

builds perfbench/ (the repository's libraries plus the benchmark
harness) with CMake under $CARGO_TARGET_DIR (default .bench_build), runs
one workload, and relays its output. The last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The line before it is a table row of the workload's figures under their
own names. --workload all runs every workload and prints one row each.

The exit code is 0 only when the build succeeded, every output check
passed and the metrics match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# The layers (per-layer metric-name prefixes) each workload enters. A
# traced run emits every per-layer metric of BENCHMARK.json under them;
# the others read 0.
LAYERS = {
    "steady_admit": ("serve.", "vfs.", "core.", "workload.", "loadgen."),
    "flash_crowd": ("serve.", "vfs.", "core.", "workload.", "loadgen."),
    "paper_sweep": ("sim.", "opt.", "core.", "workload.", "loadgen."),
}

# Every workload's figures, under their own names, in table order.
SUMMARY_COLUMNS = [
    ("admit_rate", "decisions/s"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("shed_fraction", "ratio"),
    ("recovery_s", "s"),
    ("storage_bytes_per_request", "B"),
    ("syncs_per_request", "count"),
    ("online_sweep_s", "s"),
    ("lp_bound_s", "s"),
    ("fault_study_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vnfr_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 3)
    return build_dir


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def conform(result, declared, layers):
    """Puts the harness's metrics in BENCHMARK.json's order and checks
    them: every declared metric under `layers` (name prefixes) is present,
    no undeclared one is, units match and values are finite. Declared
    metrics of other layers read 0. Returns the problem, or None."""
    emitted = dict(result["metrics"])
    metrics = {}
    for name, unit in declared.items():
        metric = emitted.pop(name, None)
        if metric is None:
            if name.startswith(layers):
                return "metric %s is missing" % name
            metric = {"value": 0, "unit": unit}
        if metric["unit"] != unit:
            return "unit of %s is %s, not %s" % (name, metric["unit"], unit)
        if not math.isfinite(metric["value"]):
            return "value of %s is %r" % (name, metric["value"])
        metrics[name] = metric
    if emitted:
        return "metrics not in BENCHMARK.json: %s" % sorted(emitted)
    result["metrics"] = metrics
    return None


def run_workload(binary, data_root, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-root", data_root]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + " ran past %d s" % RUN_TIMEOUT_S, 5)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode), 5)
    return proc.returncode, lines


def summary_row(workload, line):
    figures = json.loads(line[len("summary "):])["metrics"]
    cells = ["%.6g" % figures[name]["value"] if name in figures else "-"
             for name, _ in SUMMARY_COLUMNS]
    return " | ".join([workload] + cells)


def header():
    return " | ".join(["workload"] + ["%s [%s]" % c for c in SUMMARY_COLUMNS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    declared = declared_metrics(root, args.trace)
    if args.workload != "all" and args.workload not in LAYERS:
        fail("unknown workload " + args.workload, 2)
    build_dir = build(root)
    binary = os.path.join(build_dir, "vnfr_perfbench")
    data_root = os.path.join(build_dir, "data")

    rows = []
    status = 0
    for workload in list(LAYERS) if args.workload == "all" else [args.workload]:
        code, lines = run_workload(binary, data_root, workload, args)
        for line in lines[:-2]:
            print(line)
        rows.append(summary_row(workload, lines[-2]))
        try:
            result = json.loads(lines[-1])
            problem = None
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problem = "result keys are %s" % sorted(result)
        except ValueError as e:
            problem = "result is not JSON: %s" % e
        if problem is None:
            problem = conform(result, declared, LAYERS[workload] if args.trace else ("",))
        if problem is not None:
            print(header())
            print(rows[-1])
            fail(problem, 4)
        status = max(status, code)
        if args.workload != "all":
            print(header())
            print(rows[-1])
            print(json.dumps(result))
    if args.workload == "all":
        print(header())
        for row in rows:
            print(row)
    sys.exit(status)


if __name__ == "__main__":
    main()
