"""Compare benchmark result files of a parent commit and a change.

Usage (from the repository root)::

    python3 -m benchmarks.e2e.compare --parent p1.json ... p10.json \\
        --change c1.json ... c10.json

Each file is an ``--out`` file of ``python3 -m benchmarks.e2e``; the
i-th parent and i-th change file form a pair. The rule:

- at least ten pairs, alternating which side ran first;
- a gain needs the change to win at least nine tenths of the pairs
  (ties count for neither) and the medians to differ by more than the
  parent's interquartile range;
- otherwise every end-to-end metric of BENCHMARK.json, on every
  workload, in its own row, must not be worse than the parent's median
  by more than the metric's bound; a metric whose parent spread (IQR
  over median) is wider than its bound is ``unresolved``, unless every
  change run beat every parent run;
- a gain does not count when the change failed more operations.

Exits 1 when a row regresses, 2 when the runs break the rule's premises.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(metric: dict, parent: list[float], change: list[float], more_failures: bool) -> dict:
    """One row: both sides' quartiles, the wins and the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    spread = iqr / abs(p_med) if p_med else float("inf")
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr:
        verdict = "gain (void: more failed operations)" if more_failures else "gain"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "regression"
    else:
        verdict = "ok"
    return {
        "metric": metric["name"],
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "worse": worse,
        "spread": spread,
        "bound": metric["bound"],
        "verdict": verdict,
    }


def compare(parent: list[dict], change: list[dict], bench: dict) -> tuple[list[dict], list[str]]:
    """Rows per (workload, end-to-end metric), and what breaks the premises."""
    problems = []
    if len(parent) != len(change):
        problems.append(f"{len(parent)} parent files but {len(change)} change files")
    if min(len(parent), len(change)) < MIN_PAIRS:
        problems.append(f"need at least {MIN_PAIRS} pairs")
    firsts = [p["started"] < c["started"] for p, c in zip(parent, change)]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        problems.append("pairs must alternate which side runs first")
    for files in (parent, change):
        for f in files:
            if not f["correct"]:
                problems.append(f"a run started at {f['started']} failed its checks")
    rows = []
    for workload in parent[0]["workloads"]:
        if workload not in change[0]["workloads"]:
            continue
        failed = [sum(f["workloads"][workload]["failed"] for f in side) for side in (parent, change)]
        for metric in bench["end_to_end"]:
            values = [
                [f["workloads"][workload]["metrics"][metric["name"]]["value"] for f in side]
                for side in (parent, change)
            ]
            row = judge(metric, values[0], values[1], failed[1] > failed[0])
            rows.append({"workload": workload, **row})
    return rows, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e.compare",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = ([json.loads(p.read_text()) for p in side] for side in (args.parent, args.change))
    rows, problems = compare(parent, change, bench)

    print(f"{'workload':<12} {'metric':<10} {'parent q1/median/q3':>28} "
          f"{'change q1/median/q3':>28} {'wins':>6} {'worse':>7} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for r in rows:
        parent_q, change_q = ("/".join(f"{v:.4g}" for v in r[side]) for side in ("parent", "change"))
        print(f"{r['workload']:<12} {r['metric']:<10} {parent_q:>28} "
              f"{change_q:>28} {r['wins']:>3}/{r['pairs']:<2} {r['worse']:>+7.1%} "
              f"{r['spread']:>7.1%} {r['bound']:>6.0%}  {r['verdict']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        return 2
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
