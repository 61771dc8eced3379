#!/usr/bin/env python3
"""The repo benchmark: one command that builds and runs every workload.

    python3 benchmark/run.py                      # every workload, untraced
                                                  # then traced; all metrics
    python3 benchmark/run.py --repeat 5           # 5 seeds per workload:
                                                  # medians, quartiles, spread
    python3 benchmark/run.py --smoke              # every workload in ~2 s
    python3 benchmark/run.py --workload chat --seed 7 --trace 1

With --workload the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.

Every run of a workload measures the same fixed work, sized for
BENCHMARK.json's run_seconds.  --seconds exists only because BENCHMARK.json's
calling convention passes it, and must equal run_seconds.

The benchmark builds the library and benchmark/ftt_bench in Release into
build-bench/ at the repo root, runs with OMP_NUM_THREADS pinned, and exits
nonzero when any output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "ftt_bench"
# OpenMP team size: the reference machine's core count, never more than
# the cores present.
THREADS = min(4, os.cpu_count() or 1)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then an incremental Release build (a no-op when
    nothing changed).  Build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise SystemExit(f"run.py: {ROOT / needed} is missing; the "
                             "benchmark builds the library from the repo")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(THREADS)],
                   check=True, stdout=sys.stderr)


def run_bench(workload, seed, trace_path=None, smoke=False):
    """Run ftt_bench once; echo its report and return its result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: ftt_bench {workload} printed nothing "
                         f"(exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise SystemExit(f"run.py: ftt_bench {workload} printed no result "
                         f"(exit {proc.returncode})")
    if proc.returncode != 0 and result.get("correct", False):
        raise SystemExit(f"run.py: ftt_bench {workload} exited "
                         f"{proc.returncode}")
    return result


def trace_file(workload, seed):
    (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    return BUILD / "traces" / f"{workload}-{seed}.json"


def check_trace(path):
    """The trace must load as Chrome trace-event JSON."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        raise ValueError("no trace events")
    for e in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                raise ValueError(f"trace event without {key}: {e}")
    return len(events)


def select(result, metrics, fill_missing):
    """The result's values of `metrics` (spec entries), with the spec's
    units.  A per-layer metric the workload does not exercise reads 0."""
    out = {}
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not fill_missing:
                raise SystemExit(f"run.py: {m['name']} missing from "
                                 f"{result['workload']}")
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            raise SystemExit(f"run.py: {m['name']} in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_metrics(title, result):
    print(f"== {title}: attempted {result['attempted']}, failed "
          f"{result['failed']}, "
          f"{'correct' if result['correct'] else 'CHECKS FAILED'}")
    for name, m in result["metrics"].items():
        note = "" if m.get("supported", True) else "  (too few samples beyond)"
        print(f"   {name:34s} {m['value']:16.6g} {m['unit']:9s} "
              f"n={m['samples']}{note}")


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as statistics.quantiles
    gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def single_run(spec, args):
    """One workload, one seed, one JSON result line."""
    trace_path = trace_file(args.workload, args.seed) if args.trace else None
    result = run_bench(args.workload, args.seed, trace_path)
    correct = result["correct"]
    if trace_path is not None:
        try:
            log(f"trace: {check_trace(trace_path)} events in {trace_path}")
        except (OSError, ValueError, KeyError) as e:
            log(f"run.py: bad trace {trace_path}: {e}")
            correct = False
    metrics = (select(result, spec["per_layer"], True) if args.trace
               else select(result, spec["end_to_end"], False))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def full_run(spec, args):
    """Every workload (or one), untraced then traced, or --repeat seeds."""
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    ok = True
    if args.smoke:
        for name in names:
            r = run_bench(name, args.seed, smoke=True)
            print_metrics(f"{name} smoke", r)
            ok &= r["correct"]
        return 0 if ok else 1

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if args.repeat > 0:
        for name in names:
            values = {}
            for k in range(args.repeat):
                r = run_bench(name, args.seed + k)
                ok &= r["correct"]
                for m in spec["end_to_end"]:
                    values.setdefault(m["name"], []).append(
                        r["metrics"][m["name"]]["value"])
            print(f"== {name}: {args.repeat} seeds from {args.seed}")
            for metric, vals in values.items():
                med, q1, q3, rel = spread(vals)
                bound = bounds[metric]["bound"]
                flag = "" if rel <= bound else "  SPREAD > BOUND"
                if metric == "setup_s":
                    flag = ""  # set-up spread is not gated, its median is
                print(f"   {metric:20s} median {med:12.6g}  q1 {q1:12.6g}  "
                      f"q3 {q3:12.6g}  spread {100 * rel:6.2f}% "
                      f"(bound {100 * bound:.0f}%){flag}")
                print("   " + " " * 20 + " values " +
                      " ".join(f"{v:.6g}" for v in vals))
        return 0 if ok else 1

    for name in names:
        plain = run_bench(name, args.seed)
        print_metrics(f"{name} seed {args.seed}", plain)
        trace_path = trace_file(name, args.seed)
        traced = run_bench(name, args.seed, trace_path)
        events = check_trace(trace_path)
        print_metrics(f"{name} seed {args.seed} traced ({events} trace "
                      f"events in {trace_path})", traced)
        ok &= plain["correct"] and traced["correct"]
        print("   traced vs untraced:")
        for m in spec["end_to_end"]:
            a = plain["metrics"][m["name"]]["value"]
            b = traced["metrics"][m["name"]]["value"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  OUTSIDE BOUND"
            print(f"   {m['name']:20s} {a:12.6g} -> {b:12.6g} "
                  f"({100 * worse:+.2f}% worse){flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        p.error(f"--seconds must be {spec['run_seconds']} (run_seconds): the "
                "work per run is fixed")
    if args.workload and args.workload not in [w["name"]
                                               for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload}")
    build()
    if args.workload and args.trace is not None and not args.repeat \
            and not args.smoke:
        return single_run(spec, args)
    return full_run(spec, args)


if __name__ == "__main__":
    sys.exit(main())
