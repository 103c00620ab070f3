#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Run from the root of a checkout:

    python3 perfbench/run.py --workload tloc-batch --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the gts library straight from
src/, plus the perfbench binary) under $CARGO_TARGET_DIR (default
.bench_build) in the checkout. The binary measures; this script checks that its
metrics are exactly the ones BENCHMARK.json names, with their units, and
prints them as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the span dump under the build directory). Exit status: 0 on success,
1 when an answer was wrong (the result line is still printed), 2 when the
benchmark cannot be built or run, 3 when the binary's output breaks the
metric contract.

    python3 perfbench/run.py --self-test

runs the tiny-size self-test: every metric named once with its unit, a
deliberately corrupted answer caught by the check, and equal seeds giving
equal inputs and equal count metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The binary is stopped after this many seconds, so a run (plus the second
# or two its up-to-date build check takes) stays under three minutes. The
# first build in a fresh checkout is not counted against it.
RUN_TIMEOUT_S = 160


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "core" / "gts.h").is_file():
        fail(2, f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(2, f"no binary at {binary}")
    return binary


def contract():
    """(end-to-end, per-layer) metric name -> unit maps from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dups = {k for k in keys if keys.count(k) > 1}
    if dups:
        raise ValueError(f"duplicate keys {sorted(dups)}")
    return dict(pairs)


def run_binary(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the binary once; returns (exit code, parsed last line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.spans")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode not in (0, 1) or not lines:
        fail(2, f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        fail(3, f"unreadable result line: {e}")
    return proc.returncode, result


def check_metrics(result, expected):
    """Problems with the metric set of `result` against name -> unit."""
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"missing {name}")
            continue
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            problems.append(f"{name} has value {v!r}")
    for name in metrics:
        if name not in expected:
            problems.append(f"unexpected metric {name}")
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            problems.append(f"missing {key}")
    return problems


def main_run(args):
    binary = build()
    e2e, layer = contract()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    expected = layer if args.trace else e2e
    problems = check_metrics(result, expected)
    if not args.trace:
        problems += [f"{n} is 0" for n in expected
                     if result["metrics"].get(n, {}).get("value") == 0]
    if problems:
        fail(3, "; ".join(problems))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in expected},
    }))
    sys.stdout.flush()
    return code


# --- Self-test ---------------------------------------------------------------

WORKLOADS = ("tloc-batch", "words-batch", "tloc-serve")
# Largest allowed gap between the layers' summed self times and the
# benchmark's own measurement of the same phases.
CLOSURE_TOLERANCE = 0.01
# Counts that must repeat exactly for a fixed seed.
COUNT_METRICS = re.compile(
    r"(\.dist_per_q|\.cand_per_q|^metric\.ops_per_dist|^core\.rebuilds)$")


def self_test(binary):
    e2e, layer = contract()
    failures = []

    def check(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    def tiny(workload, seed, trace, extra=()):
        return run_binary(binary, workload, seed, 1, trace, ("--tiny", *extra),
                          echo=False)

    for w in WORKLOADS:
        print(f"{w}:")
        runs = {}
        for trace in (0, 1):
            expected = layer if trace else e2e
            a = tiny(w, 11, trace)
            b = tiny(w, 11, trace)
            runs[trace] = (a, b)
            for code, result in (a, b):
                check(code == 0 and result["correct"] and result["failed"] == 0,
                      f"trace {trace}: run succeeds and its answers check out")
            problems = check_metrics(a[1], expected)
            check(not problems,
                  f"trace {trace}: every metric once with its unit"
                  + (f" ({'; '.join(problems)})" if problems else ""))
            check(a[1]["inputs"] == b[1]["inputs"],
                  f"trace {trace}: equal seeds give equal inputs")
        (_, t0), (_, t1) = runs[1]
        closure = t0["metrics"]["bench.closure_err"]["value"]
        check(closure <= CLOSURE_TOLERANCE,
              f"layers' self times add up to the measured phase time "
              f"(off by {closure:.2%}, tolerance {CLOSURE_TOLERANCE:.0%})")
        counts = [n for n in layer if COUNT_METRICS.search(n)]
        same = [n for n in counts
                if t0["metrics"][n]["value"] == t1["metrics"][n]["value"]]
        check(len(same) == len(counts),
              "count metrics repeat: "
              + ", ".join(f"{n}={t0['metrics'][n]['value']:.6g}"
                          + ("" if n in same else
                             f"/{t1['metrics'][n]['value']:.6g}")
                          for n in counts))
        if w != "tloc-serve":
            (_, p0), (_, p1) = runs[0]
            check(p0["metrics"]["modeled_qps"]["value"]
                  == p1["metrics"]["modeled_qps"]["value"],
                  "modeled_qps repeats")
        other = tiny(w, 12, 0)[1]
        check(other["inputs"] != runs[0][0][1]["inputs"],
              "another seed gives other inputs")
        code, bad = tiny(w, 11, 0, ("--corrupt-answer",))
        check(code == 1 and not bad["correct"] and bad["failed"] >= 1,
              "a corrupted answer fails the check and the exit status")
    print("self-test " + ("passed" if not failures else
                          f"FAILED ({len(failures)} checks)"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--binary", help="self-test this perfbench binary "
                        "instead of building one")
    args = parser.parse_args()
    if args.self_test:
        binary = Path(args.binary) if args.binary else build()
        return self_test(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
