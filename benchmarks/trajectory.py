"""Perf-trajectory tooling for the bench CI leg.

Converts a pytest-benchmark ``--benchmark-json`` dump into the
repository's trajectory artifact — ``BENCH_<sha>.json``, one small
document per commit mapping each benchmark to its median seconds plus
the engine/workload it measured — and gates the run against the
checked-in ``benchmarks/baseline.json``:

- any benchmark whose median regresses more than ``--threshold``
  (default 25%) over its baseline median fails the job;
- benchmarks whose baseline **and** current medians are below
  ``--min-seconds`` (default 1 ms) are recorded but not gated — a 25%
  swing below timer noise is not a regression signal.  A bench that
  *crosses* the floor (microseconds in the baseline, milliseconds now)
  is gated: that is a real slowdown, not noise;
- benchmarks new since the baseline pass (and are reported), so adding
  a bench never requires touching the baseline in the same change;
- benchmarks present in the baseline but absent from the run **fail**
  the job: a silently dropped or renamed bench must force a baseline
  regen, otherwise the gate erodes without anyone noticing;
- ``BENCH_BASELINE_REGEN=1`` (or ``--regen``) rewrites the baseline
  from the current run instead of gating — run it when the speed
  profile changes intentionally.

Usage (what the CI bench job runs)::

    python -m pytest benchmarks -q --benchmark-json bench-raw.json
    python benchmarks/trajectory.py --input bench-raw.json \
        --sha "$GITHUB_SHA" --out bench-artifacts \
        --baseline benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

TRAJECTORY_SCHEMA = "repro.bench_trajectory/v1"

#: Benches without explicit ``benchmark.extra_info`` tags measured the
#: default engine on the conftest full-size facerec campaign.
DEFAULT_ENGINE = "batched"
DEFAULT_WORKLOAD = "facerec"

DEFAULT_THRESHOLD = 0.25

#: Baseline medians below this are not gated (timer-noise territory).
DEFAULT_MIN_SECONDS = 0.001


def convert(benchmark_json: dict, sha: str) -> dict:
    """The trajectory point document of one pytest-benchmark run."""
    benches = {}
    for entry in benchmark_json.get("benchmarks", []):
        extra = entry.get("extra_info") or {}
        benches[entry["name"]] = {
            "median_seconds": entry["stats"]["median"],
            "engine": extra.get("engine", DEFAULT_ENGINE),
            "workload": extra.get("workload", DEFAULT_WORKLOAD),
        }
    return {
        "schema": TRAJECTORY_SCHEMA,
        "sha": sha,
        "benchmarks": benches,
    }


def check_regressions(point: dict, baseline: dict,
                      threshold: float = DEFAULT_THRESHOLD,
                      min_seconds: float = DEFAULT_MIN_SECONDS) -> dict:
    """Compare a trajectory point against the baseline document.

    Returns ``{"regressions": [...], "improvements": [...], "new": [...],
    "missing": [...], "ungated": [...]}`` where each
    regression/improvement row is ``(name, baseline_median,
    current_median, ratio)``.  Benches below the ``min_seconds`` noise
    floor in both runs land in ``ungated`` instead of being judged.
    """
    current = point["benchmarks"]
    base = baseline["benchmarks"]
    regressions, improvements, fresh, ungated = [], [], [], []
    for name, bench in sorted(current.items()):
        if name not in base:
            fresh.append(name)
            continue
        baseline_median = base[name]["median_seconds"]
        median = bench["median_seconds"]
        if baseline_median < min_seconds and median < min_seconds:
            ungated.append(name)
            continue
        ratio = (median / baseline_median if baseline_median
                 else float("inf"))
        row = (name, baseline_median, median, ratio)
        if median > baseline_median * (1.0 + threshold):
            regressions.append(row)
        elif median < baseline_median:
            improvements.append(row)
    missing = sorted(set(base) - set(current))
    return {"regressions": regressions, "improvements": improvements,
            "new": fresh, "missing": missing, "ungated": ungated}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True,
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--sha", required=True,
                        help="commit sha this run measures")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<sha>.json")
    parser.add_argument("--baseline", default="benchmarks/baseline.json",
                        help="checked-in baseline document")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="fractional regression gate (default 0.25)")
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS,
                        help="benches below this in baseline and current "
                             "run are recorded but not gated (default 0.001)")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the baseline from this run "
                             "(also: BENCH_BASELINE_REGEN=1)")
    args = parser.parse_args(argv)

    with open(args.input) as stream:
        point = convert(json.load(stream), sha=args.sha)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / f"BENCH_{args.sha[:10]}.json"
    artifact.write_text(json.dumps(point, indent=2, sort_keys=True) + "\n")
    print(f"trajectory point: {artifact} "
          f"({len(point['benchmarks'])} benchmarks)")

    baseline_path = Path(args.baseline)
    if args.regen or os.environ.get("BENCH_BASELINE_REGEN"):
        baseline = dict(point)
        baseline["sha"] = args.sha
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"baseline regenerated: {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(f"error: no baseline at {baseline_path}; generate one with "
              "BENCH_BASELINE_REGEN=1", file=sys.stderr)
        return 2
    with open(baseline_path) as stream:
        baseline = json.load(stream)

    report = check_regressions(point, baseline, threshold=args.threshold,
                               min_seconds=args.min_seconds)
    for name in report["new"]:
        print(f"  NEW        {name} (not in baseline; passes)")
    for name in report["ungated"]:
        print(f"  UNGATED    {name} (below {args.min_seconds}s in both runs)")
    for name in report["missing"]:
        print(f"  MISSING    {name} (in baseline, not in this run)")
    for name, base, median, ratio in report["improvements"]:
        print(f"  IMPROVED   {name}: {base:.6f}s -> {median:.6f}s "
              f"({ratio:.2f}x of baseline)")
    for name, base, median, ratio in report["regressions"]:
        print(f"  REGRESSED  {name}: {base:.6f}s -> {median:.6f}s "
              f"({ratio:.2f}x of baseline, gate {1 + args.threshold:.2f}x)")
    if report["regressions"]:
        print(f"FAIL: {len(report['regressions'])} benchmark(s) regressed "
              f">{args.threshold:.0%} vs {baseline.get('sha', '?')}",
              file=sys.stderr)
        return 1
    if report["missing"]:
        print(f"FAIL: {len(report['missing'])} baseline benchmark(s) absent "
              "from this run; if removed/renamed intentionally, regenerate "
              "the baseline (BENCH_BASELINE_REGEN=1)", file=sys.stderr)
        return 1
    print(f"OK: no benchmark regressed >{args.threshold:.0%} vs baseline "
          f"{baseline.get('sha', '?')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
