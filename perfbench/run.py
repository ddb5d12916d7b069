#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
program's libraries from src/) into .bench_build/, runs one workload, and
relays its report. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload cs_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck   # one app per workload, fast
    python3 perfbench/run.py --record      # rewrite perfbench/reference.txt

Run it from the repository root. See perfbench/README.md for the workloads,
the metrics and how to read them.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("cs_sweep", "vm_tracegen", "warm_replay")
# One app per workload for --selfcheck: the cheapest of each set.
SELFCHECK_APPS = {"cs_sweep": "gsmv", "vm_tracegen": "stencil_div", "warm_replay": "gsmv"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; both steps are quick no-ops when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)


def source_id():
    """Commit id when the tree is a git checkout, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_bench(args, echo=True):
    """Runs the benchmark binary; returns (stdout lines, parsed final JSON object)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    for name in os.listdir(WORK_DIR):  # caches left by a run that was killed
        if os.path.isdir(os.path.join(WORK_DIR, name)):
            shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)
    cmd = [BINARY, "--work-dir", WORK_DIR, "--commit", source_id()] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    return lines, result


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    """Problems with a result object: its keys, and every declared metric
    printed with its declared unit as a finite number."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    declared = declared_metrics(trace)
    if declared is None:
        return problems
    metrics = result["metrics"]
    for name, unit in declared:
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            problems.append("metric %s has unit %s, declared %s" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)
    extra = set(metrics) - {n for n, _ in declared}
    if extra:
        problems.append("undeclared metrics %s" % sorted(extra))
    return problems


def selfcheck():
    """One app per workload, plain and traced: every declared metric printed
    with its unit and no failed query. A traced run whose spans do not nest
    counts a failure itself."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_bench(["--workload", workload, "--apps", SELFCHECK_APPS[workload],
                                    "--seed", "7", "--seconds", "0", "--trace", str(trace),
                                    "--reference", REFERENCE], echo=False)
            tag = "%s trace=%d: " % (workload, trace)
            problems += [tag + p for p in check_result(result, trace)]
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append(tag + "error_rate is not 0 (%s)" % result.get("failed"))
            print("selfcheck %-11s trace=%d attempted=%d failed=%d" %
                  (workload, trace, result.get("attempted", 0), result.get("failed", -1)))
    for p in problems:
        print("selfcheck FAILED: " + p, file=sys.stderr)
    print("selfcheck %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def read_csv(name):
    with open(os.path.join(ROOT, "results", name)) as f:
        return list(csv.DictReader(f))


def record():
    """Records one pass of every workload as the new reference, after checking
    its cycles against the tracked Fig. 7 and Fig. 9 result CSVs."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=os.path.join(ROOT, ".bench_build"),
                                     delete=False) as tmp:
        out = tmp.name
    try:
        for workload in WORKLOADS:
            run_bench(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0",
                        "--record", out], echo=False)
        with open(out) as f:
            rows = [line.split() for line in f if line.strip()]
    finally:
        os.unlink(out)
    cycles = {(w, q): int(c) for w, q, _, c in rows}

    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append("%s: %s != %s" % (what, got, want))

    # Fig. 7: exact baseline / BFTT / CATT cycles for all 10 CS apps; CORR
    # comes from vm_tracegen, whose warp-axis sweep contains its BFTT pick.
    for row in read_csv("fig7_cs_speedup.csv"):
        app = row["app"]
        if app == "corr":
            src = "vm_tracegen"
            bftt = min(c for (w, q), c in cycles.items()
                       if w == src and q.startswith("corr/fixed["))
        else:
            src = "cs_sweep"
            bftt = cycles[(src, app + "/bftt_sweep")]
        for policy, got in (("baseline", cycles[(src, app + "/baseline")]),
                            ("catt", cycles[(src, app + "/catt")]), ("bftt", bftt)):
            expect("fig7 %s %s" % (app, policy), got, int(row[policy + "_cycles"]))
    # Fig. 9: normalized time of every warp-axis factor and of CATT.
    for row in read_csv("fig9_factor_sweep.csv"):
        app = row["app"]
        src = "vm_tracegen" if app == "corr" else "warm_replay"
        base = cycles[(src, app + "/baseline")]
        label = "catt" if row["factor"] == "catt" else "fixed[%s]" % row["factor"]
        expect("fig9 %s %s" % (app, row["factor"]),
               "%.6f" % (cycles[(src, "%s/%s" % (app, label))] / base), row["normalized_time"])
    for p in problems:
        print("record FAILED: " + p, file=sys.stderr)
    if problems:
        return 1
    with open(REFERENCE, "w") as f:
        f.write("# Reference digests of every benchmark query: workload, query id, FNV-1a\n"
                "# digest of the simulated stats (per launch: cycles, L1/L2 counters, DRAM\n"
                "# lines, warp instructions; BFTT: every candidate's cycles), total cycles.\n"
                "# Written by `python3 perfbench/run.py --record`, which first checks the\n"
                "# cycles against results/fig7_cs_speedup.csv and fig9_factor_sweep.csv.\n")
        for row in sorted(rows):
            f.write(" ".join(row) + "\n")
    print("record ok: %d queries checked against fig7/fig9, written to %s" % (len(rows), REFERENCE))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    build()
    if args.selfcheck:
        return selfcheck()
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    _, result = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--reference", REFERENCE])
    problems = check_result(result, args.trace)
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
