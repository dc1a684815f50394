#!/usr/bin/env python3
"""Benchmark runner for the encrypted-CNN suite (see README.md).

Builds bench_suite from source (into .bench_build/ at the repository root),
runs each workload in its own process, checks that every prediction matched
the plaintext model, and reports the metrics BENCHMARK.json names.

  run_suite.py --workload W --seed N --seconds S --trace 0|1
      One run. Prints "workload metric value unit" lines, then one JSON
      object {"correct", "attempted", "failed", "metrics"} as the last line:
      the end_to_end metrics with --trace 0, the per_layer ones with 1.
  run_suite.py [--seed N] [--runs K] [--seconds S] [--trace 0|1] [--out FILE]
      Every workload, K seeds from N; --out writes all raw results as JSON
      for --compare.
  run_suite.py --compare A.json B.json
      Per (workload, end-to-end metric): both medians and quartiles and a
      verdict: "within bound", "worse", or "unresolved" (spread > bound).
  run_suite.py --smoke
      Every workload on a tiny model and a few requests; checks metric
      names, units and correctness.

Exits non-zero when the build fails, a run fails, a metric is missing, or a
prediction is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfsuite")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "perfsuite-cache")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds bench_suite; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "bench_suite", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "bench_suite")


def run_once(binary, cache_dir, workload, seed, seconds, trace, smoke=False):
    """One bench_suite process; returns its parsed result or None."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--cache-dir={cache_dir}"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: exited {proc.returncode} without a result")
        return None
    raw.update(seed=seed, trace=trace, exit_code=proc.returncode)
    return raw


def select(raw, spec, trace):
    """The contract result of one run: the tier's metrics, checked."""
    tier = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    problems = []
    for m in tier:
        got = raw["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        log(f"{raw['workload']}: {p}")
    correct = (raw["exit_code"] == 0 and raw["failed"] == 0
               and raw["attempted"] > 0 and not problems)
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def print_run(raw, result):
    w = raw["workload"]
    for name, m in result["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for name, value in sorted(raw["info"].items()):
        print(f"# {w} {name} {value:.6g}")
    for name, d in raw["drift"].items():
        print(f"# {w} drift {name}: predicted {d['predicted']:.6g} "
              f"measured {d['measured']:.6g}")
    print(f"# {w} seed {raw['seed']}: {raw['attempted']} attempted, "
          f"{raw['failed']} failed; nproc {raw['host']['nproc']}, "
          f"isa {raw['host']['isa']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if (a["host"], a["seconds"]) != (b["host"], b["seconds"]):
        log(f"refusing to compare runs from different hosts or run lengths: "
            f"{a['host']}, {a['seconds']} s vs {b['host']}, {b['seconds']} s")
        return 2
    worse = 0
    print(f"{'workload':16} {'metric':18} {'median A':>10} {'median B':>10} "
          f"{'A q1..q3':>21} {'B q1..q3':>21}  verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a["runs"]
                  if r["workload"] == w and not r["trace"]]
            vb = [r["metrics"][m["name"]] for r in b["runs"]
                  if r["workload"] == w and not r["trace"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            lower = m["better"] == "lower"
            change = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{w:16} {m['name']:18} {qa[1]:10.4g} {qb[1]:10.4g} "
                  f"{qa[0]:10.4g}..{qa[2]:<10.4g} {qb[0]:10.4g}..{qb[2]:<10.4g}"
                  f"  {verdict} ({change:+.1%}, bound {m['bound']:.0%})")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this bench_suite instead of building")
    ap.add_argument("--cache-dir", default=CACHE_DIR)
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)

    binary = args.binary or build()
    if binary is None:
        return 1
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            log(f"unknown workload {args.workload}; known: {', '.join(names)}")
            return 2
        plan = [(args.workload, args.seed, args.trace)]
    elif args.smoke:
        plan = [(w, args.seed, 1) for w in names]
    else:
        plan = [(w, args.seed + i, args.trace) for w in names
                for i in range(args.runs)]

    runs, ok = [], True
    for workload, seed, trace in plan:
        raw = run_once(binary, args.cache_dir, workload, seed, seconds, trace,
                       smoke=args.smoke)
        if raw is None:
            return 1
        # The smoke run is traced but also carries the end-to-end metrics.
        result = select(raw, spec, trace)
        if args.smoke:
            e2e = select(raw, spec, 0)
            result["correct"] &= e2e["correct"]
            result["metrics"].update(e2e["metrics"])
        print_run(raw, result)
        ok &= result["correct"]
        runs.append({"workload": workload, "seed": seed, "trace": trace,
                     "correct": result["correct"], "attempted": raw["attempted"],
                     "failed": raw["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "info": raw["info"], "drift": raw["drift"]})
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": raw["host"], "seconds": seconds, "runs": runs},
                      f, indent=1)
    if args.workload:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
