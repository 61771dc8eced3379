#!/usr/bin/env python3
"""Merge serving-bench JSON fragments and gate on throughput regressions.

Usage:
  check_bench_regression.py --baseline bench/BENCH_baseline.json \
      --out BENCH_serve.json fragment1.json [fragment2.json ...]

Each fragment is the --json output of one bench binary
(bench_serve_throughput, bench_scheduler).  Fragments are merged into one
BENCH_serve.json: structured sections are unioned, and every fragment's flat
"gauges" object is folded into a single top-level "gauges" dict — the only
part the gate reads.

The baseline file declares conservative higher-is-better floors:

  {
    "threshold": 0.25,
    "gauges": { "<gauge name>": <baseline value>, ... },
    "ceilings": { "<gauge name>": <hard maximum>, ... },
    "informational": { "<gauge name>": <reference value>, ... },
    "comment": "..."
  }

A "gauges" entry regresses when measured < baseline * (1 - threshold).
Absolute tokens/s baselines are deliberately set well below a healthy run
(CI runners vary); the dimensionless speedup gauges are the tighter
tripwires.  A "ceilings" entry is the lower-is-better dual — it fails when
measured > ceiling, with NO threshold slack: ceilings gate deterministic
quantities (bytes ratios fixed by a memory layout), so any excursion is a
real layout change, not runner noise.  Exit code 1 on any failure, so the
CI perf job fails loudly.
A fragment that contributes no gauges at all fails the same way — a bench
binary that silently stopped emitting its gauges must not read as "nothing
regressed".

Gauge *disappearance* is tiered like the values: a gated gauge (floor or
ceiling) missing from the merged fragments FAILS (a bench that quietly
stopped emitting its tripwire must not read as "nothing regressed"), while
a missing informational gauge only WARNS — informational gauges are
trajectory telemetry, not gates, so losing one should be visible in the log
and the step summary without turning hardware-dependent reporting into a
red build.

The script adds one gauge of its own to the merged set: src_kloc, the
non-blank lines under the repository's src/ in thousands.  src/ is found
relative to this script, so CI and local runs count the same tree from any
working directory.  It tracks code size in the history next to the speed
gauges; the baseline lists it as informational.

"informational" gauges are never value-gated: the measured value is only
reported.  This is the tier for gauges whose value is honest but
meaningless on CI hardware — e.g. the OpenMP core-scaling ratios, which
sit near 1.0 on the single-core runners and would be pure noise behind a
floor.

--history FILE additionally appends this run's merged gauges + git SHA to a
rolling JSON array (bench/BENCH_history.json in CI), so the perf trajectory
across pushes is inspectable from the uploaded artifact instead of only the
latest snapshot.  Entries are deduplicated by {sha, gauge-name set}: a
re-run of the same commit with the same bench suite replaces its earlier
entry instead of stacking duplicates (re-runs were inflating the history
and crowding real trajectory points out of the rolling window).  A run with
a *different* gauge set for the same sha — e.g. a matrix leg that runs a
subset of the benches — is kept as its own entry.

When GITHUB_STEP_SUMMARY is set (always, inside a GitHub Actions step), a
markdown gauge table is appended to it so the perf job's results are
readable straight from the run page, without downloading the artifact.  The
table is split into a *gated* section (floors and ceilings — the rows that
can fail the job) and an *informational* section (trajectory telemetry plus
untracked gauges), so a red build points at the short list that matters.

Stdlib only — no pip installs.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

# Rolling cap on --history entries: enough for every push of a long PR
# stack, small enough that the artifact stays a quick download.
HISTORY_MAX_ENTRIES = 500

SRC_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def src_kloc(root=SRC_DIR):
    """Non-blank lines of every file under `root`, in thousands."""
    lines = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            with open(os.path.join(dirpath, name), encoding="utf-8",
                      errors="replace") as f:
                lines += sum(1 for line in f if line.strip())
    return lines / 1000.0


def git_sha():
    """Commit being measured: $GITHUB_SHA in Actions, else git, else null."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def append_history(path, gauges):
    """Append one {sha, utc, gauges} entry to the rolling history array.

    Deduplicated by {sha, gauge-name set}: a re-run of the same commit with
    the same bench suite replaces its earlier entry (last write wins) rather
    than appending a duplicate that crowds the rolling window.
    """
    history = []
    if os.path.exists(path):
        try:
            with open(path) as f:
                history = json.load(f)
            if not isinstance(history, list):
                print(f"warning: {path} is not a JSON array; starting fresh",
                      file=sys.stderr)
                history = []
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: unreadable history {path} ({err}); "
                  f"starting fresh", file=sys.stderr)
            history = []
    sha = git_sha()
    gauge_set = frozenset(gauges)
    dropped = 0
    if sha is not None:
        kept = []
        for entry in history:
            if (isinstance(entry, dict) and entry.get("sha") == sha
                    and frozenset(entry.get("gauges", {})) == gauge_set):
                dropped += 1
                continue
            kept.append(entry)
        history = kept
    history.append({
        "sha": sha,
        "utc": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "gauges": gauges,
    })
    history = history[-HISTORY_MAX_ENTRIES:]
    with open(path, "w") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    note = f", replaced {dropped} duplicate(s)" if dropped else ""
    print(f"appended run to {path} ({len(history)} entries{note})")


def format_row(name, measured, reference, bound, verdict):
    icon = ("✅" if verdict == "OK" else "ℹ️" if verdict == "INFO"
            else "⚠️" if verdict == "MISSING (warn)" else "❌")
    shown = "—" if measured is None else f"{measured:.3f}"
    ref_s = "—" if reference is None else f"{reference:.3f}"
    bound_s = "—" if bound is None else f"{bound:.3f}"
    return (f"| `{name}` | {shown} | {ref_s} | {bound_s} | "
            f"{icon} {verdict} |")


def write_step_summary(gated_rows, info_rows, extra_gauges, threshold):
    """Append the gauge tables to the Actions step summary, if available.

    Two sections: the gated rows (the ones that can fail the job) first,
    then the informational/untracked telemetry.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "## Serving bench gauges",
        "",
        "### Gated",
        "",
        f"Floors fail at measured < baseline × {1.0 - threshold:.2f} "
        f"(threshold {threshold:.0%}); ceilings fail at measured > ceiling "
        f"(no slack).",
        "",
        "| gauge | measured | baseline | floor / ceiling | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for row in gated_rows:
        lines.append(format_row(*row))
    lines += [
        "",
        "### Informational",
        "",
        "Trajectory telemetry — never value-gated.",
        "",
        "| gauge | measured | reference | bound | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for row in info_rows:
        lines.append(format_row(*row))
    for name, value in sorted(extra_gauges.items()):
        lines.append(f"| `{name}` | {value:.3f} | — | — | untracked |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def merge(fragments):
    merged, gauges = {}, {}
    for path in fragments:
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("gauges"):
            # Every bench binary gates through at least one gauge; an empty
            # or absent gauges object means it silently stopped reporting,
            # which must fail the gate rather than pass it vacuously.
            sys.exit(f"error: fragment {path} contributes no gauges")
        for key, val in doc.items():
            if key == "gauges":
                overlap = set(val) & set(gauges)
                if overlap:
                    sys.exit(f"error: duplicate gauges across fragments: "
                             f"{sorted(overlap)}")
                gauges.update(val)
            else:
                if key in merged:
                    sys.exit(f"error: duplicate section '{key}' in {path}")
                merged[key] = val
    merged["gauges"] = gauges
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--threshold", type=float, default=None,
                    help="override the baseline file's threshold")
    ap.add_argument("--history", default=None,
                    help="rolling JSON array to append this run's gauges "
                         "+ git SHA to (perf trajectory across pushes)")
    ap.add_argument("fragments", nargs="+")
    args = ap.parse_args()

    merged = merge(args.fragments)
    merged["gauges"]["src_kloc"] = src_kloc()
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} with {len(merged['gauges'])} gauges")

    with open(args.baseline) as f:
        baseline = json.load(f)
    threshold = args.threshold if args.threshold is not None \
        else float(baseline.get("threshold", 0.25))

    failures = []
    gated_rows = []  # (name, measured|None, reference, bound|None, verdict)
    for name, floor in sorted(baseline.get("gauges", {}).items()):
        measured = merged["gauges"].get(name)
        limit = floor * (1.0 - threshold)
        if measured is None:
            failures.append(f"{name}: missing from bench output")
            gated_rows.append((name, None, floor, limit, "MISSING"))
            continue
        verdict = "OK" if measured >= limit else "REGRESSION"
        gated_rows.append((name, measured, floor, limit, verdict))
        print(f"  {verdict:10s} {name}: measured {measured:.3f} vs "
              f"baseline {floor:.3f} (floor {limit:.3f})")
        if measured < limit:
            failures.append(
                f"{name}: {measured:.3f} < {limit:.3f} "
                f"(baseline {floor:.3f}, threshold {threshold:.0%})")
    # Ceilings: lower-is-better duals with no threshold slack (they gate
    # deterministic layout quantities, so noise margins don't apply).
    for name, ceiling in sorted(baseline.get("ceilings", {}).items()):
        measured = merged["gauges"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from bench output")
            gated_rows.append((name, None, ceiling, ceiling, "MISSING"))
            continue
        verdict = "OK" if measured <= ceiling else "REGRESSION"
        gated_rows.append((name, measured, ceiling, ceiling, verdict))
        print(f"  {verdict:10s} {name}: measured {measured:.3f} vs "
              f"ceiling {ceiling:.3f} (lower is better)")
        if measured > ceiling:
            failures.append(
                f"{name}: {measured:.3f} > ceiling {ceiling:.3f}")
    # Informational tier: value is only reported; a disappeared gauge WARNS
    # (visible in the log and step summary) without failing the gate — the
    # fail-on-disappearance rule is reserved for the gated tiers above.
    warnings = []
    info_rows = []
    for name, reference in sorted(baseline.get("informational", {}).items()):
        measured = merged["gauges"].get(name)
        if measured is None:
            warnings.append(f"{name}: missing from bench output "
                            f"(informational — warning only)")
            info_rows.append((name, None, reference, None, "MISSING (warn)"))
            continue
        info_rows.append((name, measured, reference, None, "INFO"))
        print(f"  {'INFO':10s} {name}: measured {measured:.3f} "
              f"(reference {reference:.3f}, not gated)")

    tracked = {name for name, *_ in gated_rows}
    tracked |= {name for name, *_ in info_rows}
    extra = {name: value for name, value in merged["gauges"].items()
             if name not in tracked and isinstance(value, (int, float))
             and not isinstance(value, bool)}
    write_step_summary(gated_rows, info_rows, extra, threshold)

    if args.history:
        append_history(args.history, merged["gauges"])

    if warnings:
        print("\nthroughput gate warnings:", file=sys.stderr)
        for msg in warnings:
            print(f"  - {msg}", file=sys.stderr)

    if failures:
        print("\nthroughput regression gate FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("throughput regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
