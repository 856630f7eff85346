#!/usr/bin/env python3
"""Builds and runs bench_e2e, or compares two sets of its results.

Run one workload (from the repository root):

    python3 bench/e2e/run.py --workload chorus_mem --seed 1 --seconds 10 --trace 0

The first call configures and builds the benchmark into .bench_build/e2e
(cmake, Release); later calls only rebuild what changed. The run's report
goes to .bench_build/e2e/results/<workload>-s<seed>-t<trace>.json (plus
.trace.json for traced runs), and the last stdout line is the result JSON.

Compare two commits' reports (see bench/e2e/README.md):

    python3 bench/e2e/run.py --compare parent/*.json -- change/*.json

Smoke run of all four workloads with the validator on:

    python3 bench/e2e/run.py --smoke
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "common", "CMakeLists.txt")):
        log("bench_e2e: no fbstream sources (src/) next to bench/e2e")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def run_binary(args, work_dir):
    """Runs bench_e2e to completion (or kills it); returns (code, stdout)."""
    proc = subprocess.Popen([BINARY] + args + ["--work-dir", work_dir],
                            stdout=subprocess.PIPE)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("bench_e2e: run timed out after %d s" % RUN_TIMEOUT_S)
        return 1, b""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out


def schema_matches(result_line, trace):
    """The run printed exactly the metrics BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return True
    with open(path) as f:
        bench = json.load(f)
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = list(json.loads(result_line)["metrics"])
    if sorted(got) != sorted(expected):
        log("bench_e2e: metrics %s do not match BENCHMARK.json %s" %
            (sorted(set(got) ^ set(expected)), "per_layer" if trace else
             "end_to_end"))
        return False
    return True


def run(opts):
    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-s%d-t%d.json" %
                       (opts.workload, opts.seed, opts.trace))
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--out", out]
    if opts.trace:
        args.append("--trace")
    code, stdout = run_binary(args, os.path.join(BUILD, "work-%d" % os.getpid()))
    sys.stdout.buffer.write(stdout)
    sys.stdout.flush()
    lines = stdout.decode(errors="replace").strip().splitlines()
    if code == 0 and not (lines and schema_matches(lines[-1], opts.trace)):
        return 1
    return code


# --- compare -----------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_reports(paths):
    """(workload, metric) -> [values]; workload -> [failed, attempted]."""
    values, failures = {}, {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        workload = report["workload"]
        fa = failures.setdefault(workload, [0, 0])
        fa[0] += report["failed"]
        fa[1] += report["attempted"]
        for name, metric in report["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])
    return values, failures


def verdict(parent, change, better, bound):
    """Judges one (metric, workload) pair against the benchmark's bound."""
    if bound is None:
        return "info"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if p_med == 0:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    worse_by = sign * (c_med - p_med) / abs(p_med)
    parent_spread = (p_q3 - p_q1) / abs(p_med)
    spread = max(parent_spread, (c_q3 - c_q1) / abs(p_med))
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if all_better and -worse_by > parent_spread:
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > parent_spread:
        return "better"
    return "unchanged"


def compare(parent_paths, change_paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    parent, parent_failed = load_reports(parent_paths)
    change, change_failed = load_reports(change_paths)
    rows, regressions = [], 0
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = spec.get(name)
        v = verdict(parent[key], change[key], m and m["better"],
                    m and m["bound"])
        regressions += v == "worse"
        p, c = quartiles(parent[key]), quartiles(change[key])
        rows.append((name, workload, p, c, v))
    fmt = "%-28s %-16s %12s %12s %12s | %12s %12s %12s  %s"
    print(fmt % ("metric", "workload", "parent q1", "median", "q3",
                 "change q1", "median", "q3", "verdict"))
    for name, workload, p, c, v in rows:
        print(fmt % ((name, workload) + tuple("%.6g" % x for x in p + c) + (v,)))
    for workload in sorted(set(parent_failed) | set(change_failed)):
        pf, pa = parent_failed.get(workload, [0, 1])
        cf, ca = change_failed.get(workload, [0, 1])
        if cf / max(ca, 1) > pf / max(pa, 1):
            print("failed_frac rose on %s: %d/%d -> %d/%d" %
                  (workload, pf, pa, cf, ca))
            regressions += 1
    return 1 if regressions else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        if "--" not in argv:
            log("usage: run.py --compare <parent.json...> -- <change.json...>")
            return 2
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:])
    if argv[:1] == ["--smoke"]:
        build()
        code, stdout = run_binary(["--smoke"], os.path.join(BUILD, "smoke-work"))
        sys.stdout.buffer.write(stdout)
        return code
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
