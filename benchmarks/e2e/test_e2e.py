"""Self-test of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``. Runs the benchmark at smoke scale, checks that every
metric BENCHMARK.json names is emitted with its unit, and checks the
comparison rule of ``compare.py`` on synthetic results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e.__main__ import ROOT, WORKLOADS
from benchmarks.e2e.compare import compare

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_emits_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "smoke.json"
    proc = run("--smoke", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1]}
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == list(WORKLOADS)
    for workload, res in results.items():
        assert res["correct"] and res["failed"] == 0, res["problems"]
        for metric in BENCH["end_to_end"]:
            assert printed[(workload, metric["name"])] == metric["unit"]
            entry = res["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
            assert entry["q1"] <= entry["q3"] and entry["raw"]
        for metric in BENCH["per_layer"]:
            assert printed[(workload, metric["name"])] == metric["unit"]
            assert metric["name"] in res["layers"]
        assert res["layers"]["unattributed_share"] < 0.05


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_workload_prints_exactly_the_declared_metrics(trace, section):
    proc = run("--smoke", "--workload", "pipeline", "--seed", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH[section]
    }


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def synthetic(started: float, values: dict[str, float], failed: int = 0) -> dict:
    return {
        "started": started,
        "correct": True,
        "workloads": {
            "search": {
                "failed": failed,
                "metrics": {name: {"value": v} for name, v in values.items()},
            }
        },
    }


def sides(n: int, parent: dict, change: dict, alternate: bool = True):
    """``n`` pairs; ``parent``/``change`` map metric -> callable(pair index)."""
    p_files, c_files = [], []
    for i in range(n):
        parent_first = i % 2 == 0 or not alternate
        t = 100.0 * i
        p_files.append(synthetic(t if parent_first else t + 1,
                                 {k: f(i) for k, f in parent.items()}))
        c_files.append(synthetic(t + 1 if parent_first else t,
                                 {k: f(i) for k, f in change.items()}))
    return p_files, c_files


def verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_finds_gain_regression_and_unresolved():
    parent = {
        "setup_s": lambda i: 1.0 + 0.001 * i,
        "p50_ms": lambda i: 10.0 + 0.01 * i,
        "tail_ms": lambda i: 20.0 * (1 + (i % 2)),  # spread 100% > bound
    }
    change = {
        "setup_s": lambda i: 1.5 + 0.001 * i,  # 50% worse than its 25% bound
        "p50_ms": lambda i: 8.0 + 0.01 * i,  # wins every pair, beyond the parent IQR
        "tail_ms": lambda i: 22.0 * (1 + (i % 2)),
    }
    rows, problems = compare(*sides(10, parent, change), BENCH)
    assert problems == []
    assert verdicts(rows) == {"setup_s": "regression", "p50_ms": "gain", "tail_ms": "unresolved"}


def test_compare_needs_a_clear_majority_and_a_gap_beyond_the_spread():
    parent = {m["name"]: (lambda i: 10.0 + 0.1 * (i % 5)) for m in BENCH["end_to_end"]}
    # Wins 8 of 10 pairs only: no gain, and 2% worse-or-better stays ok.
    change = {m["name"]: (lambda i: 9.99 + 0.1 * (i % 5) if i < 8 else 10.5)
              for m in BENCH["end_to_end"]}
    rows, problems = compare(*sides(10, parent, change), BENCH)
    assert problems == []
    assert set(verdicts(rows).values()) == {"ok"}


def test_compare_voids_a_gain_with_more_failures_and_checks_the_pairing():
    values = {m["name"]: (lambda i: 10.0 + 0.01 * i) for m in BENCH["end_to_end"]}
    better = {m["name"]: (lambda i: 5.0 + 0.01 * i) for m in BENCH["end_to_end"]}
    p_files, c_files = sides(10, values, better)
    c_files[0]["workloads"]["search"]["failed"] = 1
    rows, _ = compare(p_files, c_files, BENCH)
    assert all(v.startswith("gain (void") for v in verdicts(rows).values())

    _, problems = compare(*sides(9, values, better), BENCH)
    assert any("at least 10 pairs" in p for p in problems)
    _, problems = compare(*sides(10, values, better, alternate=False), BENCH)
    assert any("alternate" in p for p in problems)
