"""End-to-end benchmark of the cost-model system, with per-layer attribution.

Usage (from the repository root)::

    python3 -m benchmarks.e2e --seed 0 --out e2e.json    # every workload
    python3 -m benchmarks.e2e --workload search --seed 3 --seconds 20 --trace 0
    python3 -m benchmarks.e2e --smoke                      # reduced scale, < 20 s

Each repeat runs in a fresh interpreter (:mod:`benchmarks.e2e.child`)
with ``src`` on its path and every ``REPRO_*`` variable removed from its
environment. Repeats continue until ``--seconds`` have passed and at
least the scale's minimum count has run; a pipeline, closed-loop or
search repeat keeps starting operations for its share of ``--seconds``.
Every time the host's CPU sets is reported at reference host speed:
divided by its host factor (see :mod:`benchmarks.e2e.child`). The open
loop's request latency, which the batching window's timer sets, is
reported as measured. ``--trace 0`` runs only the untraced repeats and
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs
one untraced and one traced repeat and reports the per-layer metrics;
without ``--trace`` both happen. The command prints
every metric as ``workload name value unit`` and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
It exits non-zero when a check fails. This module needs only the
standard library, so it can report a missing program cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("pipeline", "serve-open", "serve-burst", "search")

#: Paper scale: 118 networks x 105 devices x 30 runs; the open loop sends
#: 1,000 requests at 250 rps then 2,000 at 1,000 rps per repeat, and the
#: closed loop replays the first 48,000 requests of the same stream, pass
#: after pass.
FULL = {
    "n_random": 100,
    "n_devices": 105,
    "signature_size": 10,
    "open_phases": [[250, 1000], [1000, 2000]],
    "burst_requests": 48000,
    "generations": 8,
    "population": 256,
    "min_repeats": 3,
}
SMOKE = {
    "n_random": 16,
    "n_devices": 24,
    "signature_size": 6,
    "open_phases": [[250, 50], [1000, 100]],
    "burst_requests": 1024,
    "generations": 2,
    "population": 32,
    "min_repeats": 1,
}

#: Workloads whose operation times are reported as measured, not at
#: reference host speed: the batching window's timer, not the CPU, sets
#: the open loop's latency.
TIMER_BOUND = ("serve-open",)

#: The tail percentile, p99 unless named here. About 1% of the closed
#: loop's calls wait out one of the service's full garbage collections,
#: so its p99 jumps between the two sides of that edge from run to run;
#: p99.5 lies inside the collections' share.
TAIL_PERCENTILE = {"serve-burst": 99.5}

#: A repeat that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150
#: Invalid repeats dropped and run again per workload before one is kept.
MAX_INVALID = 1


def run_child(workload: str, seed: int, scale: dict, seconds: float, trace: bool) -> dict:
    """Run one repeat in a fresh interpreter and return its result."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    spec = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "spans": str(spans_path(workload, seed, scale)),
        "spawned": time.time(),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"e2e: {workload} repeat exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_path(workload: str, seed: int, scale: dict) -> Path:
    """Where the traced repeat writes its spans (JSON lines)."""
    tag = "" if scale is FULL else "-smoke"
    return OUT_DIR / f"{workload}-seed{seed}{tag}-spans.jsonl"


def tail(values: list[float], q: float = 99.0) -> float:
    """The ``q``-th percentile when at least ten samples lie beyond it, else the median.

    A handful of multi-second operations resolves no tail (its upper
    values mostly record the host's slow moments), so there the tail
    falls back to the median.
    """
    if len(values) * (100.0 - q) / 100.0 < 10:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def stat(value: float, unit: str, raw: list[float]) -> dict:
    """A reported value with the quartiles and raw values of its repeats."""
    q1, _, q3 = statistics.quantiles(raw, n=4) if len(raw) > 1 else (raw[0],) * 3
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "raw": raw}


def unit_of(name: str) -> str:
    stem = name.split(".")[0]
    return {"r2": "1", "rps": "1/s"}.get(stem, "ms" if stem.endswith("_ms") else "ratio")


def summarize(
    workload: str, repeats: list[dict], traced: dict | None, dropped: list[dict],
    golden: dict | None,
) -> dict:
    """Metrics, detail and checks of one workload's repeats.

    Every repeat, ``dropped`` ones included, is checked; the timing
    metrics use the valid untraced repeats, or all of them if none is
    valid.
    """
    children = repeats + ([traced] if traced else []) + dropped
    problems = [f"{workload}: {p}" for c in children for p in c["problems"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if failed:
        problems.append(f"{workload}: {failed} of {attempted} operations failed")
    for key in repeats[0]["digests"]:
        if len({c["digests"][key] for c in children}) > 1:
            problems.append(f"{workload}: {key} differs between repeats")
    for key, want in (golden or {}).items():
        got = repeats[0]["digests"].get(key, repeats[0]["values"].get(key))
        if got != want:
            problems.append(f"{workload}: {key} is {got!r}, seed-0 golden value is {want!r}")

    def ops(r: dict, groups, adjust: bool = True) -> list[float]:
        """A repeat's operation times, at reference host speed if ``adjust``."""
        if not adjust or workload in TIMER_BOUND:
            return [x for group in groups for x in r["ops"][group]]
        return [x / f for group in groups for x, f in zip(r["ops"][group], r["factors"][group])]

    invalid = sum(c["invalid"] is not None for c in children)
    repeats = [r for r in repeats if r["invalid"] is None] or repeats
    q = TAIL_PERCENTILE.get(workload, 99.0)
    groups = list(repeats[0]["ops"])
    per_repeat = [ops(r, groups) for r in repeats]
    pooled = [x for o in per_repeat for x in o]
    setups = [(r["first_op"] - r["spawned"]) / r["points"][0] for r in repeats]
    metrics = {
        "setup_s": stat(statistics.median(setups), "s", setups),
        "p50_ms": stat(statistics.median(pooled), "ms", [statistics.median(o) for o in per_repeat]),
        "tail_ms": stat(tail(pooled, q), "ms", [tail(o, q) for o in per_repeat]),
    }

    detail = {}
    for group in groups:
        samples = [ops(r, [group]) for r in repeats]
        flat = [x for o in samples for x in o]
        detail[f"p50_ms.{group}"] = stat(
            statistics.median(flat), "ms", [statistics.median(o) for o in samples]
        )
        detail[f"tail_ms.{group}"] = stat(tail(flat, q), "ms", [tail(o, q) for o in samples])
    # The same quantities as measured, before the host-speed adjustment.
    measured = [ops(r, groups, adjust=False) for r in repeats]
    measured_setups = [r["first_op"] - r["spawned"] for r in repeats]
    detail["measured_p50_ms"] = stat(
        statistics.median([x for o in measured for x in o]), "ms",
        [statistics.median(o) for o in measured],
    )
    detail["measured_setup_s"] = stat(
        statistics.median(measured_setups), "s", measured_setups
    )
    factors = [statistics.median(r["points"]) for r in repeats]
    detail["host_factor"] = stat(statistics.median(factors), "ratio", factors)
    for key in repeats[0]["values"]:
        raw = [r["values"][key] for r in repeats]
        detail[key] = stat(statistics.median(raw), unit_of(key), raw)
    share = failed / max(attempted, 1)
    detail["failed_share"] = stat(share, "ratio", [share])
    detail["invalid_repeats"] = stat(invalid, "count", [invalid])

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repeats": len(repeats),
        "digests": repeats[0]["digests"],
        "metrics": metrics,
        "detail": detail,
    }
    if traced:
        layers = dict(traced["layers"])
        traced_ops = ops(traced, groups, adjust=False)
        layers["trace_overhead"] = (
            statistics.median(traced_ops) / detail["measured_p50_ms"]["value"]
        )
        result.update(layers=layers, layer_table=traced["layer_table"], spans=traced["spans"])
    return result


def run_workload(workload: str, seed: int, scale: dict, seconds: float, traces) -> dict:
    """Untraced repeats for ``seconds`` (at least the scale's minimum), then a traced one.

    A pipeline, closed-loop or search repeat, traced or not, keeps
    starting operations for ``seconds`` divided by the scale's minimum
    repeat count. An invalid repeat (the open loop's generator ran late:
    the host, not the program, failed the measurement) is dropped and run
    again, at most ``MAX_INVALID`` times per workload; after that it is
    kept. Invalid repeats are counted and reported, and still checked,
    but do not fail the run: their latencies, timed from each request's
    due time, charge every stall to the requests it delayed.
    """
    dropped: list[dict] = []
    share = seconds / scale["min_repeats"]

    def repeat(trace: bool) -> dict:
        while True:
            child = run_child(workload, seed, scale, share, trace)
            if child["invalid"] is not None:
                print(f"e2e: {workload}: invalid repeat: {child['invalid']}", file=sys.stderr)
            if child["invalid"] is None or len(dropped) >= MAX_INVALID:
                return child
            dropped.append(child)

    untraced = False in traces
    budget = seconds if untraced else 0.0
    min_repeats = scale["min_repeats"] if untraced else 1
    repeats: list[dict] = []
    start = time.monotonic()
    while len(repeats) < min_repeats or time.monotonic() - start < budget:
        repeats.append(repeat(trace=False))
    traced = repeat(trace=True) if True in traces else None
    golden = None
    if seed == 0 and scale is FULL and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text()).get(workload)
    return {
        **summarize(workload, repeats, traced, dropped, golden),
        "dropped": [c["invalid"] for c in dropped],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced repeats only, 1: traced run only (default: both)")
    parser.add_argument("--out", type=Path, help="write medians, quartiles and raw values here")
    parser.add_argument("--smoke", action="store_true", help="reduced scale, one repeat each")
    args = parser.parse_args(argv)
    started = time.time()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale = SMOKE if args.smoke else FULL
    seconds = 0.0 if args.smoke else (
        bench["run_seconds"] if args.seconds is None else args.seconds
    )
    workloads = args.workload or list(WORKLOADS)
    traces = (False, True) if args.trace is None else (bool(args.trace),)

    results = {w: run_workload(w, args.seed, scale, seconds, traces) for w in workloads}
    cross = []
    if "serve-open" in results and "serve-burst" in results:
        # Batching invariance across workloads: the open loop's answers
        # are the closed loop's first answers, byte for byte.
        if results["serve-open"]["digests"]["digest"] != results["serve-burst"]["digests"]["prefix"]:
            cross.append("serve-open answers differ from serve-burst's first answers")

    declared = []
    if False in traces:
        declared += [(m["name"], m["unit"], "metrics") for m in bench["end_to_end"]]
    if True in traces:
        declared += [(m["name"], m["unit"], "layers") for m in bench["per_layer"]]
    single = len(workloads) == 1 and len(traces) == 1
    metrics = {}
    for workload, res in results.items():
        for name, unit, section in declared:
            entry = res[section][name]
            value = entry["value"] if isinstance(entry, dict) else entry
            metrics[name if single else f"{workload}/{name}"] = {"value": value, "unit": unit}
            print(f"{workload} {name} {value:.6g} {unit}")
        for name, entry in res["detail"].items():
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        for problem in res["problems"]:
            print(f"FAIL {problem}", file=sys.stderr)
    for problem in cross:
        print(f"FAIL {problem}", file=sys.stderr)

    correct = not cross and all(r["correct"] for r in results.values())
    if args.out:
        args.out.write_text(json.dumps(
            {"started": started, "seed": args.seed, "smoke": args.smoke, "seconds": seconds,
             "correct": correct, "problems": cross, "workloads": results},
            indent=1,
        ) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
