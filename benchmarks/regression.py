"""Benchmark regression gate: keep PR 1's speedups a ratcheted floor.

Re-runs the engine's perf benchmarks (campaign engine vs. the legacy
per-pair loop, warm artifact-cache hit) and compares each tracked
metric against the committed ``BENCH_<name>.json`` baselines in this
directory. A gated metric that regresses beyond its tolerance fails
the run with exit code 1 — locally via ``make bench-gate``, in CI via
the ``bench-gate`` job.

Only machine-relative **ratios** (speedups) are gated; absolute wall
times are recorded for trend visibility but never gated, because CI
runners and laptops differ by multiples. Each baseline file is
self-describing::

    {
      "benchmark": "campaign",
      "metrics": {
        "speedup_serial": {"value": 5.0, "direction": "higher",
                           "gate": true, "tolerance": 0.35},
        "legacy_s":       {"value": 1.7, "direction": "lower",
                           "gate": false}
      }
    }

``direction`` says which way is better; a ``higher`` metric regresses
when ``current < value * (1 - tolerance)``, a ``lower`` one when
``current > value * (1 + tolerance)``. A metric's own ``tolerance``
overrides the global default (20%, ``--tolerance`` /
``REPRO_BENCH_TOLERANCE``).

Usage::

    PYTHONPATH=src python benchmarks/regression.py            # gate
    PYTHONPATH=src python benchmarks/regression.py --update   # rewrite baselines
    REPRO_BENCH_SLOWDOWN=2 ... python benchmarks/regression.py  # must fail

``REPRO_BENCH_SLOWDOWN`` multiplies the measured time of every *gated
engine path* (not the legacy baseline), simulating a regression of
that factor without sleeping — the knob the gate's own tests (and the
acceptance criterion's synthetic 2x slowdown) use to prove the gate
actually fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.analysis.reporting import format_table  # noqa: E402
from repro.dataset.collection import collect_dataset  # noqa: E402
from repro.devices.catalog import build_fleet  # noqa: E402
from repro.devices.measurement import MeasurementHarness  # noqa: E402
from repro.generator.suite import BenchmarkSuite  # noqa: E402
from repro.pipeline import build_paper_artifacts  # noqa: E402

BASELINE_DIR = Path(__file__).resolve().parent
DEFAULT_TOLERANCE = 0.20
_SLOWDOWN_ENV = "REPRO_BENCH_SLOWDOWN"
_TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE"

#: (n_random_networks, n_devices, process_jobs) per scale. ``full`` is
#: paper scale; ``small`` keeps the gate's own tests fast.
SCALES = {"full": (100, 105, 4), "small": (8, 12, 2)}


def _slowdown() -> float:
    """Synthetic slowdown factor applied to gated engine timings."""
    raw = os.environ.get(_SLOWDOWN_ENV, "").strip()
    if not raw:
        return 1.0
    factor = float(raw)
    if factor < 1.0:
        raise ValueError(f"{_SLOWDOWN_ENV} must be >= 1, got {factor}")
    return factor


def _timed(fn: Callable[[], object], *, inflate: bool = False) -> tuple[object, float]:
    """Run ``fn`` returning (result, seconds), optionally inflated.

    ``inflate=True`` marks a gated engine path: the synthetic
    ``REPRO_BENCH_SLOWDOWN`` factor scales its measured time so gate
    failures can be provoked deterministically.
    """
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if inflate:
        elapsed *= _slowdown()
    return result, elapsed


# ---------------------------------------------------------------------------
# Benchmarks. Each returns {metric_name: measured_value}.


#: The zero-copy engine must beat the frozen pre-zero-copy engine on
#: the process backend by at least this factor at paper scale — the
#: tentpole's headline number, enforced as a hard floor in addition to
#: the ratcheted baseline comparison.
MIN_HOTPATH_SPEEDUP = 3.0

#: Steady-state protocol: each engine's per-campaign time is the best
#: of this many consecutive runs. The zero-copy engine legitimately
#: improves with repetition (persistent pool, shm segments, memoized
#: noise tables — the regime campaign grids run in); the frozen engine
#: rebuilds everything per campaign by design, so repetition does not
#: flatter it.
_BENCH_REPEATS = 3


def _best_of(fn: Callable[[], object], repeats: int, *, inflate: bool = False):
    """(last result, best seconds) over ``repeats`` consecutive runs."""
    best_s = None
    result = None
    for _ in range(repeats):
        result, elapsed = _timed(fn, inflate=inflate)
        best_s = elapsed if best_s is None else min(best_s, elapsed)
    return result, best_s


def bench_campaign(scale: str) -> dict[str, float]:
    """Zero-copy engine vs. frozen engine vs. legacy per-pair loop.

    Three reference points: the seed's per-pair Python loop (slowest,
    anchors the headline ``speedup_*`` ratios), the frozen
    pre-zero-copy engine from ``benchmarks/legacy_engine.py`` (the
    previous baseline — anchors the ``hotpath_speedup_*`` ratios the
    tentpole is gated on), and the current engine on the serial and
    process backends. Byte-identity between the frozen engine and the
    current engine is a hard invariant — a divergence raises instead
    of gating.
    """
    from benchmarks.legacy_engine import legacy_collect, legacy_collect_engine

    n_random, n_devices, jobs = SCALES[scale]
    suite = BenchmarkSuite.default(n_random=n_random, seed=0)
    fleet = build_fleet(n_devices, seed=0)
    harness = MeasurementHarness(seed=0)

    legacy, legacy_s = _timed(lambda: legacy_collect(suite, fleet, harness))
    frozen, frozen_serial_s = _best_of(
        lambda: legacy_collect_engine(suite, fleet, harness), _BENCH_REPEATS
    )
    _, frozen_process_s = _best_of(
        lambda: legacy_collect_engine(
            suite, fleet, harness, jobs=jobs, backend="process"
        ),
        _BENCH_REPEATS,
    )
    serial, serial_s = _best_of(
        lambda: collect_dataset(suite, fleet, harness, backend="serial"),
        _BENCH_REPEATS,
        inflate=True,
    )
    process, process_s = _best_of(
        lambda: collect_dataset(suite, fleet, harness, jobs=jobs, backend="process"),
        _BENCH_REPEATS,
        inflate=True,
    )

    if serial.latencies_ms.tobytes() != process.latencies_ms.tobytes():
        raise AssertionError("serial and process backends disagree — not a perf issue")
    if serial.latencies_ms.tobytes() != frozen.tobytes():
        raise AssertionError(
            "zero-copy engine diverged from the frozen engine — a "
            "determinism bug, not a perf result"
        )
    np.testing.assert_allclose(serial.latencies_ms, legacy, rtol=1e-9)

    hotpath_process = frozen_process_s / process_s
    if scale == "full" and _slowdown() == 1.0 and hotpath_process < MIN_HOTPATH_SPEEDUP:
        # One re-measure before declaring failure: on small shared
        # runners both timings sit within scheduler noise of the floor,
        # and a second best-of round separates a real regression from a
        # one-off stall. Timings keep best-of semantics across rounds.
        _, retry_frozen_s = _best_of(
            lambda: legacy_collect_engine(
                suite, fleet, harness, jobs=jobs, backend="process"
            ),
            _BENCH_REPEATS,
        )
        retry, retry_process_s = _best_of(
            lambda: collect_dataset(
                suite, fleet, harness, jobs=jobs, backend="process"
            ),
            _BENCH_REPEATS,
            inflate=True,
        )
        if retry.latencies_ms.tobytes() != serial.latencies_ms.tobytes():
            raise AssertionError(
                "process backend diverged on re-measure — not a perf issue"
            )
        frozen_process_s = min(frozen_process_s, retry_frozen_s)
        process_s = min(process_s, retry_process_s)
        hotpath_process = frozen_process_s / process_s
    if scale == "full" and _slowdown() == 1.0 and hotpath_process < MIN_HOTPATH_SPEEDUP:
        raise AssertionError(
            f"process-backend hot-path speedup {hotpath_process:.2f}x is below "
            f"the required {MIN_HOTPATH_SPEEDUP:.1f}x floor over the frozen engine"
        )

    return {
        "legacy_s": legacy_s,
        "frozen_engine_serial_s": frozen_serial_s,
        "frozen_engine_process_s": frozen_process_s,
        "engine_serial_s": serial_s,
        "engine_process_s": process_s,
        "speedup_serial": legacy_s / serial_s,
        "speedup_process": legacy_s / process_s,
        "hotpath_speedup_serial": frozen_serial_s / serial_s,
        "hotpath_speedup_process": hotpath_process,
    }


def bench_cache(scale: str) -> dict[str, float]:
    """Cold build vs. warm content-addressed cache hit."""
    n_random, n_devices, _ = SCALES[scale]
    with tempfile.TemporaryDirectory(prefix="bench-gate-cache-") as cache_dir:
        cold_art, cold_s = _timed(
            lambda: build_paper_artifacts(
                n_random_networks=n_random, n_devices=n_devices, cache_dir=cache_dir
            )
        )
        warm_art, warm_s = _timed(
            lambda: build_paper_artifacts(
                n_random_networks=n_random, n_devices=n_devices, cache_dir=cache_dir
            ),
            inflate=True,
        )
    if not np.array_equal(cold_art.dataset.latencies_ms, warm_art.dataset.latencies_ms):
        raise AssertionError("warm cache hit returned a different matrix")
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
    }


def bench_train(scale: str) -> dict[str, float]:
    """Quantize-once training pipeline vs. the frozen legacy train path.

    Times the Figure-11 signature-size sweep and the Figure-12
    collaborative-evolution loop against ``benchmarks/legacy_train.py``
    (the seed implementation, including its loop-based selection). The
    sweep and the default evolution mode must match the legacy outputs
    exactly — a divergence is a correctness bug, not a perf result.
    The warm-start evolution mode is an approximation; its R² parity
    gap vs. full retrain is recorded as an informational metric.
    """
    from benchmarks.legacy_train import (
        legacy_signature_size_sweep,
        legacy_simulate_collaboration,
    )
    from repro.core.collaborative import simulate_collaboration
    from repro.core.evaluation import signature_size_sweep
    from repro.core.representation import clear_suite_memo

    n_random, n_devices, _ = SCALES[scale]
    art = build_paper_artifacts(
        n_random_networks=n_random,
        n_devices=n_devices,
        cache_dir=str(BASELINE_DIR / ".cache"),
    )
    dataset, suite = art.dataset, art.suite
    if scale == "full":
        # Figure-12 scale: 50 joins, checkpoint every 5. The first two
        # checkpoints refit from scratch (below incremental_min_devices);
        # the expensive late checkpoints all warm-start.
        sizes, methods, rs_repeats = (5, 10), ("rs", "mis", "sccs"), 2
        n_iterations, evaluate_every, min_devices = 50, 5, 10
    else:
        sizes, methods, rs_repeats = (3, 5), ("rs", "mis"), 1
        n_iterations, evaluate_every, min_devices = 6, 2, 2

    legacy_table, legacy_sweep_s = _timed(
        lambda: legacy_signature_size_sweep(
            dataset, suite, sizes=sizes, methods=methods, rs_repeats=rs_repeats
        )
    )
    # Cold start: the quantized sweep pays for encoder construction and
    # suite quantization inside its own timing.
    clear_suite_memo()
    table, sweep_s = _timed(
        lambda: signature_size_sweep(
            dataset,
            suite,
            sizes=sizes,
            methods=methods,
            rs_repeats=rs_repeats,
            backend="serial",
        ),
        inflate=True,
    )
    if table != legacy_table:
        raise AssertionError("quantized sweep diverged from the legacy sweep")

    legacy_records, legacy_evo_s = _timed(
        lambda: legacy_simulate_collaboration(
            dataset, suite, n_iterations=n_iterations, evaluate_every=evaluate_every
        )
    )
    default_records, evo_default_s = _timed(
        lambda: simulate_collaboration(
            dataset,
            suite,
            n_iterations=n_iterations,
            evaluate_every=evaluate_every,
            backend="serial",
        ),
        inflate=True,
    )
    new_tuples = [
        (r.n_devices, r.avg_r2, r.n_training_points) for r in default_records
    ]
    if new_tuples != legacy_records:
        raise AssertionError("default evolution diverged from the legacy loop")
    incremental_records, evo_incremental_s = _timed(
        lambda: simulate_collaboration(
            dataset,
            suite,
            n_iterations=n_iterations,
            evaluate_every=evaluate_every,
            incremental=True,
            incremental_min_devices=min_devices,
        ),
        inflate=True,
    )
    r2_gap = max(
        abs(a.avg_r2 - b.avg_r2)
        for a, b in zip(default_records, incremental_records)
    )

    return {
        "legacy_sweep_s": legacy_sweep_s,
        "sweep_s": sweep_s,
        "speedup_sweep": legacy_sweep_s / sweep_s,
        "legacy_evolution_s": legacy_evo_s,
        "evolution_default_s": evo_default_s,
        "evolution_incremental_s": evo_incremental_s,
        "speedup_evolution_default": legacy_evo_s / evo_default_s,
        "speedup_evolution": legacy_evo_s / evo_incremental_s,
        "incremental_r2_gap": r2_gap,
        "incremental_r2_final": incremental_records[-1].avg_r2,
    }


def bench_adversarial(scale: str) -> dict[str, float]:
    """Byzantine robustness: admission recovers the poisoned repository.

    Poisons 20% of the fleet with the seeded ``AdversaryPlan`` and runs
    the Figure-12 collaborative evolution with admission control off vs
    on, always scoring on the *clean* matrix. Hard invariants raise
    instead of gating (they must never drift): the 0%-adversary
    admission run is byte-identical to the default path, and no honest
    device is ever rejected. The gated metrics track the screened
    repository's accuracy and the controller's rejection recall — both
    fully deterministic at a given scale, so tolerances are tight.
    """
    from repro.core.collaborative import simulate_collaboration
    from repro.faults import AdversaryPlan, apply_adversary_plan
    from repro.trust import AdmissionController

    n_random, n_devices, _ = SCALES[scale]
    art = build_paper_artifacts(
        n_random_networks=n_random,
        n_devices=n_devices,
        cache_dir=str(BASELINE_DIR / ".cache"),
    )
    dataset, suite = art.dataset, art.suite
    if scale == "full":
        kw = dict(
            contribution_fraction=0.2, n_iterations=50, signature_size=10,
            selection_method="mis", seed=0, evaluate_every=10,
        )
    else:
        kw = dict(
            contribution_fraction=0.3, n_iterations=8, signature_size=4,
            selection_method="mis", seed=0, evaluate_every=4,
        )

    plan = AdversaryPlan(seed=7, fraction=0.2)
    corrupted = apply_adversary_plan(dataset, plan)
    adversaries = set(plan.adversary_devices(dataset.device_names))

    clean, clean_s = _timed(lambda: simulate_collaboration(dataset, suite, **kw))
    clean_controller = AdmissionController(())
    clean_screened, screened_s = _timed(
        lambda: simulate_collaboration(
            dataset, suite, admission=clean_controller, **kw
        ),
        inflate=True,
    )
    if clean_screened != clean:
        raise AssertionError("clean-run admission is not a byte-identical no-op")
    if any(not d.admitted for d in clean_controller.decisions):
        raise AssertionError("admission rejected an honest device on the clean run")

    poisoned = simulate_collaboration(corrupted, suite, eval_dataset=dataset, **kw)
    controller = AdmissionController(())
    screened = simulate_collaboration(
        corrupted, suite, admission=controller, eval_dataset=dataset, **kw
    )

    seen = [d for d in controller.decisions if d.device_name in adversaries]
    caught = [d for d in seen if not d.admitted]
    false_rejections = sorted(
        d.device_name
        for d in controller.decisions
        if not d.admitted and d.device_name not in adversaries
    )
    if false_rejections:
        raise AssertionError(f"honest devices rejected: {false_rejections}")
    recovery = screened[-1].avg_r2 - poisoned[-1].avg_r2
    if scale == "full" and recovery < 0.15:
        raise AssertionError(f"admission R^2 advantage {recovery:.3f} < 0.15")

    return {
        "admission_r2": screened[-1].avg_r2,
        "clean_r2": clean[-1].avg_r2,
        "rejection_recall": len(caught) / len(seen) if seen else 0.0,
        "r2_recovery": recovery,
        "clean_default_s": clean_s,
        "clean_screened_s": screened_s,
    }


def bench_serve(scale: str) -> dict[str, float]:
    """Micro-batched serving vs. one-request-at-a-time serving.

    Publishes a collaborative checkpoint to a throwaway registry and
    replays the same seeded load-generator request stream through two
    services: the micro-batcher at its default batch size, and a
    degenerate ``max_batch=1`` service where every request pays the
    full per-call overhead. The byte-identity contract is a hard
    invariant (raise, not gate): both streams must produce identical
    prediction vectors. The gated metric is the batching speedup on a
    burst; p50/p99 latency and throughput from a closed-loop run are
    recorded for trend visibility but never gated (machine-dependent
    absolutes).
    """
    from repro.core.collaborative import CollaborativeRepository
    from repro.serve import ModelRegistry, PredictionService
    from repro.serve.loadgen import LoadProfile, build_requests, run_load

    n_random, n_devices, _ = SCALES[scale]
    art = build_paper_artifacts(
        n_random_networks=n_random,
        n_devices=n_devices,
        cache_dir=str(BASELINE_DIR / ".cache"),
    )
    if scale == "full":
        signature_size, members, n_requests, max_batch = 10, 40, 4000, 64
    else:
        signature_size, members, n_requests, max_batch = 4, 8, 600, 32

    repo = CollaborativeRepository(
        art.dataset, art.suite, signature_size=signature_size, seed=0
    )
    for device in art.dataset.device_names[:members]:
        repo.join(device, 0.5)

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        repo.publish_checkpoint(registry)

        profile = LoadProfile(
            n_requests=n_requests,
            mode="closed",
            concurrency=4,
            cold_fraction=0.1,
            unknown_fraction=0.02,
            seed=0,
        )
        requests = build_requests(art.dataset, repo.signature_names, profile)

        # Burst comparison: same request set, answered as one submitted
        # burst. The batched service coalesces full batches; the
        # unbatched one pays per-request flush overhead (the reference
        # point, never inflated).
        with PredictionService(
            registry, list(art.suite), dataset=art.dataset, max_batch=1, max_wait_ms=0.0
        ) as single:
            single_responses, unbatched_s = _timed(
                lambda: single.predict_many(requests)
            )
        with PredictionService(
            registry,
            list(art.suite),
            dataset=art.dataset,
            max_batch=max_batch,
            max_wait_ms=2.0,
        ) as batched:
            batched_responses, batched_s = _timed(
                lambda: batched.predict_many(requests), inflate=True
            )
        single_pred = [r.latency_ms for r in single_responses]
        batched_pred = [r.latency_ms for r in batched_responses]
        if np.array(single_pred, dtype=float).tobytes() != np.array(
            batched_pred, dtype=float
        ).tobytes():
            raise AssertionError(
                "micro-batched predictions diverged from single-request "
                "predictions — a determinism bug, not a perf result"
            )

        # Closed-loop latency profile of the batched configuration.
        with PredictionService(
            registry,
            list(art.suite),
            dataset=art.dataset,
            max_batch=max_batch,
            max_wait_ms=2.0,
        ) as service:
            report = run_load(service, requests, profile)

        # Clean-path overhead of the resilience layer: same closed-loop
        # run with admission bounds, deadlines and breakers armed (but
        # never triggered — bounds are generous, no faults injected).
        # Informational only; the byte-identity contract is hard.
        from repro.serve.resilience import ResilienceConfig

        with PredictionService(
            registry,
            list(art.suite),
            dataset=art.dataset,
            max_batch=max_batch,
            max_wait_ms=2.0,
            resilience=ResilienceConfig(
                max_queue_depth=1_000_000, deadline_ms=600_000.0
            ),
        ) as resilient:
            resilient_report = run_load(resilient, requests, profile)
        if resilient_report.digest() != report.digest():
            raise AssertionError(
                "resilience-enabled clean path diverged from the plain "
                "path — a determinism bug, not a perf result"
            )

    return {
        "batched_speedup": unbatched_s / batched_s,
        "unbatched_s": unbatched_s,
        "batched_s": batched_s,
        "throughput_rps": report.throughput_rps,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "error_rate": report.n_errors / report.n_requests,
        "shed_overhead": resilient_report.p50_ms / report.p50_ms,
    }


#: (n_random_networks, n_devices, residency budget MB, harness runs)
#: for the sharded fleet-scale benchmark. ``full`` is the tentpole
#: target: 100k devices x 500 networks under 1 GB — a campaign whose
#: in-memory floor (float64 matrix + full-grid PCG64 state table,
#: 40 B/cell exact = 2 GB) provably exceeds the budget.
SHARDED_SCALES = {"full": (482, 100_000, 1024.0, 3), "small": (8, 12, 512.0, 3)}

#: Backends the per-shard byte-identity contract is re-checked on.
_SHARDED_RECHECK_BACKENDS = ("thread", "process")


def _run_sharded_driver(cfg: dict) -> dict:
    """Run ``benchmarks/sharded_driver.py`` in a fresh process.

    A subprocess is not a convenience here but the measurement itself:
    ``ru_maxrss`` is a process-global high-water mark, so the campaign
    must be the only work its process ever did for the peak-RSS budget
    assertion to mean anything.
    """
    import subprocess

    driver = BASELINE_DIR / "sharded_driver.py"
    proc = subprocess.run(
        [sys.executable, str(driver), json.dumps(cfg)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"sharded driver failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def bench_sharded(scale: str) -> dict[str, float]:
    """Fleet-scale sharded campaign under a residency budget.

    Runs the full sharded campaign in a fresh subprocess (clean RSS
    high-water mark) with ``max_resident_mb`` batching, then re-collects
    the two smallest shards on the thread and process backends and
    compares per-shard SHA-256 digests against the serial run.

    Hard invariants raise instead of gating:

    - per-shard digests are byte-identical across serial/thread/process
      backends (every cell's noise stream is keyed purely by names);
    - at full scale, peak RSS stays within the budget while the
      in-memory path's exact arithmetic floor (40 B/cell: float64
      matrix + PCG64 state table) exceeds it — the memory-bounding
      claim, not a tunable metric.

    The gated metric is ``rss_headroom`` (budget / peak RSS): a code
    change that bloats the sharded path's residency shrinks it past
    tolerance and fails the gate. Wall-clock and throughput are
    informational (machine-dependent).
    """
    n_random, n_devices, budget_mb, runs = SHARDED_SCALES[scale]
    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as tmp:
        base_cfg = {
            "n_random": n_random,
            "n_devices": n_devices,
            "budget_mb": budget_mb,
            "runs": runs,
            "shard_by": "chipset",
        }
        report, campaign_s = _timed(
            lambda: _run_sharded_driver(
                {**base_cfg, "store_root": str(Path(tmp) / "serial")}
            ),
            inflate=True,
        )
        peak = float(report["peak_rss_mb"])
        floor = float(report["dense_floor_mb"])
        if scale == "full":
            if peak > budget_mb:
                raise AssertionError(
                    f"sharded campaign peak RSS {peak:.0f} MB exceeded the "
                    f"{budget_mb:.0f} MB budget"
                )
            if floor <= budget_mb:
                raise AssertionError(
                    f"in-memory floor {floor:.0f} MB does not exceed the "
                    f"{budget_mb:.0f} MB budget — the benchmark no longer "
                    "proves memory-bounding"
                )

        # Cross-backend byte-identity on the two smallest shards (the
        # big run stays serial: re-measuring 100k devices per backend
        # would triple the bench for no extra signal).
        sizes = report["shard_sizes"]
        recheck = sorted(sizes, key=lambda c: (sizes[c], c))[:2]
        backend_s = {}
        for backend in _SHARDED_RECHECK_BACKENDS:
            other, elapsed = _timed(
                lambda b=backend: _run_sharded_driver(
                    {
                        **base_cfg,
                        "store_root": str(Path(tmp) / b),
                        "backend": b,
                        "jobs": 2,
                        "clusters": recheck,
                    }
                )
            )
            backend_s[backend] = elapsed
            for cluster in recheck:
                if other["digests"][cluster] != report["digests"][cluster]:
                    raise AssertionError(
                        f"shard {cluster!r} diverged on the {backend} backend "
                        "— a determinism bug, not a perf result"
                    )

    observed = float(report["observed_cells"])
    return {
        "rss_headroom": budget_mb / peak,
        "peak_rss_mb": peak,
        "dense_floor_mb": floor,
        "campaign_s": campaign_s,
        "cells_per_s": observed / campaign_s,
        "n_shards": float(report["n_shards"]),
        "recheck_thread_s": backend_s["thread"],
        "recheck_process_s": backend_s["process"],
    }


#: The bulk query plane must beat the per-request definition path by
#: at least this factor on a 1k-candidate generation at paper scale —
#: the search tentpole's headline number, enforced as a hard floor in
#: addition to the ratcheted baseline comparison.
MIN_BULK_SPEEDUP = 5.0

#: (population, per-request sample, search generations) per scale. The
#: per-request baseline answers a *sample* of the generation (it pays
#: full per-call overhead; answering all 1k would dominate bench wall
#: time) and its time is extrapolated linearly — a conservative
#: estimate, since per-request cost has no batch amortization to lose.
SEARCH_SCALES = {"full": (1000, 200, 4), "small": (150, 60, 3)}


def bench_search(scale: str) -> dict[str, float]:
    """Bulk prediction plane vs. the per-request definition path.

    Publishes a collaborative checkpoint, builds one generation of
    seeded mutation-chain candidates (the evolutionary-search workload:
    each child differs from its parent by one depth/width/kernel move),
    and answers it twice: through ``BulkQueryPlane.predict_block`` (one
    quantize-once ``predict_binned`` call for the whole generation, each
    distinct layer encoded once through the plane's layer-row memo), and
    through a degenerate ``max_batch=1`` service
    where every candidate pays a full from-scratch encode plus per-call
    flush overhead. Byte-identity between the two answer vectors is a
    hard invariant (raise, not gate). The gated metric is the bulk
    speedup, with a ``MIN_BULK_SPEEDUP`` hard floor at full scale; a
    short latency-constrained search run supplies end-to-end metrics
    (recorded, not gated — the search outcome is seed-deterministic,
    its wall time is machine-dependent).

    Each bulk repeat times a cold generation: the first call of a fresh
    plane (empty layer-row memo) over freshly built candidates, since a
    ``Network`` caches its content hash. Both are built outside the
    timer; ``bulk_s`` is the best of ``_BENCH_REPEATS`` such calls.
    """
    from repro.core.collaborative import CollaborativeRepository
    from repro.search import EvolutionSpace, SearchConfig, mutate, random_genotype, run_search
    from repro.serve import BulkQueryPlane, ModelRegistry, PredictionService, PredictRequest

    n_random, n_devices, _ = SCALES[scale]
    population, sample_n, generations = SEARCH_SCALES[scale]
    art = build_paper_artifacts(
        n_random_networks=n_random,
        n_devices=n_devices,
        cache_dir=str(BASELINE_DIR / ".cache"),
    )
    signature_size, members = (10, 40) if scale == "full" else (4, 8)

    repo = CollaborativeRepository(
        art.dataset, art.suite, signature_size=signature_size, seed=0
    )
    for device in art.dataset.device_names[:members]:
        repo.join(device, 0.5)

    # One generation as seeded mutation chains: 25-candidate lineages
    # whose children share most layers with their parents — the shape
    # run_search() hands the plane every generation.
    space = EvolutionSpace()
    rng = np.random.default_rng(0)
    genotypes = []
    genotype = None
    for i in range(population):
        if i % 25 == 0:
            genotype = random_genotype(space, rng)
        else:
            genotype, _ = mutate(genotype, space, rng)
        genotypes.append(genotype)

    def generation():
        return [g.to_network(space, f"gen-{i}") for i, g in enumerate(genotypes)]

    candidates = generation()
    device = art.dataset.device_names[0]
    with tempfile.TemporaryDirectory(prefix="bench-search-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        repo.publish_checkpoint(registry)

        # Per-request reference: full encode per candidate, no memo,
        # no batching (never inflated). Sampled and extrapolated.
        sample = candidates[:sample_n]
        with PredictionService(
            registry, list(art.suite), dataset=art.dataset, max_batch=1, max_wait_ms=0.0
        ) as single:
            sample_responses, sample_s = _timed(
                lambda: single.predict_many(
                    [
                        PredictRequest(network=n.name, device=device, definition=n)
                        for n in sample
                    ]
                )
            )
        per_request_s = sample_s * (population / sample_n)

        with PredictionService(
            registry, list(art.suite), dataset=art.dataset
        ) as service:

            def cold_bulk():
                """(last responses, best seconds) over cold generations."""
                best_s = None
                for _ in range(_BENCH_REPEATS):
                    plane, fresh = BulkQueryPlane(service), generation()
                    responses, elapsed = _timed(
                        lambda: plane.predict_block(fresh, device), inflate=True
                    )
                    best_s = elapsed if best_s is None else min(best_s, elapsed)
                return responses, best_s

            bulk_responses, bulk_s = cold_bulk()
            bulk_sample = np.array(
                [r.latency_ms for r in bulk_responses[:sample_n]], dtype=float
            )
            single_sample = np.array(
                [r.latency_ms for r in sample_responses], dtype=float
            )
            if bulk_sample.tobytes() != single_sample.tobytes():
                raise AssertionError(
                    "bulk-plane predictions diverged from per-request "
                    "predictions — a determinism bug, not a perf result"
                )

            bulk_speedup = per_request_s / bulk_s
            if scale == "full" and _slowdown() == 1.0 and bulk_speedup < MIN_BULK_SPEEDUP:
                # One re-measure before declaring failure (scheduler
                # noise on shared runners); best-of semantics persist.
                retry, retry_bulk_s = cold_bulk()
                retry_vec = np.array([r.latency_ms for r in retry], dtype=float)
                full_vec = np.array(
                    [r.latency_ms for r in bulk_responses], dtype=float
                )
                if retry_vec.tobytes() != full_vec.tobytes():
                    raise AssertionError(
                        "bulk plane diverged on re-measure — not a perf issue"
                    )
                bulk_s = min(bulk_s, retry_bulk_s)
                bulk_speedup = per_request_s / bulk_s
            if scale == "full" and _slowdown() == 1.0 and bulk_speedup < MIN_BULK_SPEEDUP:
                raise AssertionError(
                    f"bulk-plane speedup {bulk_speedup:.2f}x is below the "
                    f"required {MIN_BULK_SPEEDUP:.1f}x floor over the "
                    "per-request definition path"
                )

            # End-to-end search on a fresh plane (empty memo): the
            # outcome is seed-deterministic; wall time is trend-only.
            search_plane = BulkQueryPlane(service)
            result, search_s = _timed(
                lambda: run_search(
                    search_plane,
                    device,
                    SearchConfig(
                        generations=generations,
                        population=min(population, 64),
                        seed=0,
                    ),
                ),
                inflate=True,
            )
            stats = search_plane.stats

    reuse_ratio = stats["dedup_hits"] / stats["requests"] if stats["requests"] else 0.0
    return {
        "bulk_speedup": bulk_speedup,
        "per_request_s": per_request_s,
        "bulk_s": bulk_s,
        "bulk_qps": population / bulk_s,
        "search_s": search_s,
        "search_reuse_ratio": reuse_ratio,
        "pareto_size": float(len(result.pareto)),
        "best_feasible_ms": (
            result.winner.latency_ms if result.winner is not None else float("nan")
        ),
    }


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is interpreted when (re)writing baselines."""

    direction: str  # "higher" is better, or "lower"
    gate: bool = True
    tolerance: float | None = None  # None -> global default


#: Registry of benchmarks and their metric specs. Ratios gate; absolute
#: seconds are informational (machine-dependent). Gated tolerances stay
#: strictly below 0.5 so a synthetic 2x slowdown always trips the gate.
BENCHES: dict[str, tuple[Callable[[str], dict[str, float]], dict[str, MetricSpec]]] = {
    "campaign": (
        bench_campaign,
        {
            "speedup_serial": MetricSpec("higher", tolerance=0.35),
            "speedup_process": MetricSpec("higher", tolerance=0.45),
            "hotpath_speedup_serial": MetricSpec("higher", tolerance=0.30),
            "hotpath_speedup_process": MetricSpec("higher", tolerance=0.30),
            "legacy_s": MetricSpec("lower", gate=False),
            "frozen_engine_serial_s": MetricSpec("lower", gate=False),
            "frozen_engine_process_s": MetricSpec("lower", gate=False),
            "engine_serial_s": MetricSpec("lower", gate=False),
            "engine_process_s": MetricSpec("lower", gate=False),
        },
    ),
    "cache": (
        bench_cache,
        {
            "warm_speedup": MetricSpec("higher", tolerance=0.40),
            "cold_s": MetricSpec("lower", gate=False),
            "warm_s": MetricSpec("lower", gate=False),
        },
    ),
    "adversarial": (
        bench_adversarial,
        {
            "admission_r2": MetricSpec("higher", tolerance=0.05),
            "rejection_recall": MetricSpec("higher", tolerance=0.25),
            "clean_r2": MetricSpec("higher", gate=False),
            "r2_recovery": MetricSpec("higher", gate=False),
            "clean_default_s": MetricSpec("lower", gate=False),
            "clean_screened_s": MetricSpec("lower", gate=False),
        },
    ),
    "serve": (
        bench_serve,
        {
            "batched_speedup": MetricSpec("higher", tolerance=0.45),
            "unbatched_s": MetricSpec("lower", gate=False),
            "batched_s": MetricSpec("lower", gate=False),
            "throughput_rps": MetricSpec("higher", gate=False),
            "p50_ms": MetricSpec("lower", gate=False),
            "p99_ms": MetricSpec("lower", gate=False),
            "error_rate": MetricSpec("lower", gate=False),
            "shed_overhead": MetricSpec("lower", gate=False),
        },
    ),
    "sharded": (
        bench_sharded,
        {
            "rss_headroom": MetricSpec("higher", tolerance=0.35),
            "peak_rss_mb": MetricSpec("lower", gate=False),
            "dense_floor_mb": MetricSpec("higher", gate=False),
            "campaign_s": MetricSpec("lower", gate=False),
            "cells_per_s": MetricSpec("higher", gate=False),
            "n_shards": MetricSpec("higher", gate=False),
            "recheck_thread_s": MetricSpec("lower", gate=False),
            "recheck_process_s": MetricSpec("lower", gate=False),
        },
    ),
    "search": (
        bench_search,
        {
            "bulk_speedup": MetricSpec("higher", tolerance=0.45),
            "per_request_s": MetricSpec("lower", gate=False),
            "bulk_s": MetricSpec("lower", gate=False),
            "bulk_qps": MetricSpec("higher", gate=False),
            "search_s": MetricSpec("lower", gate=False),
            "search_reuse_ratio": MetricSpec("higher", gate=False),
            "pareto_size": MetricSpec("higher", gate=False),
            "best_feasible_ms": MetricSpec("lower", gate=False),
        },
    ),
    "train": (
        bench_train,
        {
            "speedup_sweep": MetricSpec("higher", tolerance=0.45),
            "speedup_evolution": MetricSpec("higher", tolerance=0.45),
            "speedup_evolution_default": MetricSpec("higher", gate=False),
            "legacy_sweep_s": MetricSpec("lower", gate=False),
            "sweep_s": MetricSpec("lower", gate=False),
            "legacy_evolution_s": MetricSpec("lower", gate=False),
            "evolution_default_s": MetricSpec("lower", gate=False),
            "evolution_incremental_s": MetricSpec("lower", gate=False),
            "incremental_r2_gap": MetricSpec("lower", gate=False),
            "incremental_r2_final": MetricSpec("higher", gate=False),
        },
    ),
}


# ---------------------------------------------------------------------------
# Gate logic (pure — unit-tested on synthetic baselines).


class BaselineError(RuntimeError):
    """A committed baseline cannot gate this run (stale or malformed).

    Raised — instead of silently skipping or crashing with a bare
    ``KeyError`` — when a baseline file exists but lacks a metric the
    current run produced under a gated spec, or when one of its entries
    is missing its ``value``. Both mean the committed file predates the
    current benchmark code; the fix is ``--update``.
    """


@dataclass(frozen=True)
class Violation:
    """One gated metric outside its tolerance band."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    threshold: float
    direction: str

    def __str__(self) -> str:
        verb = "fell below" if self.direction == "higher" else "rose above"
        return (
            f"{self.benchmark}.{self.metric}: {self.current:.3f} {verb} "
            f"threshold {self.threshold:.3f} (baseline {self.baseline:.3f})"
        )


def compare(
    benchmark: str,
    baseline_metrics: Mapping[str, Mapping[str, object]],
    current: Mapping[str, float],
    default_tolerance: float = DEFAULT_TOLERANCE,
    specs: Mapping[str, MetricSpec] | None = None,
) -> list[Violation]:
    """Violations of ``current`` against a baseline's metric table.

    Baseline metrics absent from ``current`` are ignored (a retired
    metric stops gating). The other direction is *not* ignorable when
    ``specs`` is given: a committed baseline that lacks a metric the
    current run produced under a gated spec would silently gate nothing
    for it forever, so that raises :class:`BaselineError` (pointing at
    ``--update``) instead. Pass ``specs=None`` when there is no
    committed baseline to hold to account (fresh checkouts, --update
    runs).
    """
    if specs is not None:
        stale = sorted(
            name
            for name, spec in specs.items()
            if spec.gate and name in current and name not in baseline_metrics
        )
        if stale:
            raise BaselineError(
                f"baseline for {benchmark!r} lacks gated metric(s) "
                f"{', '.join(stale)} produced by the current run — the "
                "committed BENCH file predates this benchmark; re-run "
                "with --update and commit the result"
            )
    violations = []
    for name, spec in baseline_metrics.items():
        if name not in current or not spec.get("gate", True):
            continue
        if "value" not in spec:
            raise BaselineError(
                f"baseline for {benchmark!r} has a malformed entry for "
                f"{name!r} (no 'value'); re-run with --update"
            )
        value = float(spec["value"])
        direction = str(spec.get("direction", "higher"))
        tolerance = float(spec.get("tolerance") or default_tolerance)
        measured = float(current[name])
        if direction == "higher":
            threshold = value * (1.0 - tolerance)
            regressed = measured < threshold
        elif direction == "lower":
            threshold = value * (1.0 + tolerance)
            regressed = measured > threshold
        else:
            raise ValueError(f"unknown direction {direction!r} for {name}")
        if regressed:
            violations.append(
                Violation(benchmark, name, value, measured, threshold, direction)
            )
    return violations


def baseline_path(name: str, baseline_dir: Path | str = BASELINE_DIR) -> Path:
    return Path(baseline_dir) / f"BENCH_{name}.json"


def load_baseline(name: str, baseline_dir: Path | str = BASELINE_DIR) -> dict | None:
    path = baseline_path(name, baseline_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_baseline(
    name: str,
    current: Mapping[str, float],
    specs: Mapping[str, MetricSpec],
    baseline_dir: Path | str = BASELINE_DIR,
) -> Path:
    """Write a measured run as the new committed baseline."""
    metrics = {}
    for metric, spec in specs.items():
        if metric not in current:
            continue
        entry: dict[str, object] = {
            "value": round(float(current[metric]), 4),
            "direction": spec.direction,
            "gate": spec.gate,
        }
        if spec.tolerance is not None:
            entry["tolerance"] = spec.tolerance
        metrics[metric] = entry
    payload = {"benchmark": name, "metrics": metrics}
    path = baseline_path(name, baseline_dir)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _write_markdown_summary(
    path: str, rows: Sequence[Sequence[str]], violations: Sequence[Violation]
) -> None:
    """Append the per-metric gate table as GitHub-flavored markdown.

    Appends (GitHub concatenates every step's writes to
    ``$GITHUB_STEP_SUMMARY``), bolding failures so a regression is
    visible without expanding the job log.
    """
    lines = [
        "### Benchmark regression gate",
        "",
        "| metric | baseline | current | status |",
        "| --- | --- | --- | --- |",
    ]
    for metric, base, value, status in rows:
        cell = f"**{status}**" if status == "FAIL" else status
        lines.append(f"| `{metric}` | {base} | {value} | {cell} |")
    lines.append("")
    if violations:
        lines.append(f"**{len(violations)} gated metric(s) regressed:**")
        lines.extend(f"- {violation}" for violation in violations)
    else:
        lines.append("All gated metrics within tolerance.")
    lines.append("")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_gate(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code (1 on regression)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", default=str(BASELINE_DIR),
        help="directory of the BENCH_*.json baselines",
    )
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get(_TOLERANCE_ENV, DEFAULT_TOLERANCE)),
        help="default allowed relative regression (per-metric values override)",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="benchmark scale (small is for the gate's own tests)",
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(BENCHES), default=None,
        help="run a subset of benchmarks (repeatable)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baselines from this run instead of gating",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="also write a telemetry JSON-lines report of the gate run",
    )
    parser.add_argument(
        "--summary-out", metavar="PATH", default=None,
        help="append a markdown per-metric table here (CI points this "
        "at $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    if args.telemetry_out:
        telemetry.enable()

    baseline_dir = Path(args.baseline_dir)
    names = args.only or sorted(BENCHES)
    all_violations: list[Violation] = []
    rows = []
    for name in names:
        bench_fn, specs = BENCHES[name]
        with telemetry.span(f"stage.bench_{name}"):
            current = bench_fn(args.scale)
        committed = False
        if args.update:
            path = write_baseline(name, current, specs, baseline_dir)
            print(f"updated {path}")
            baseline = {"metrics": {}}
        else:
            baseline = load_baseline(name, baseline_dir)
            if baseline is None:
                print(f"warning: no baseline for {name!r}; run with --update", file=sys.stderr)
                baseline = {"metrics": {}}
            else:
                committed = True
        try:
            violations = compare(
                name,
                baseline["metrics"],
                current,
                args.tolerance,
                specs=specs if committed else None,
            )
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        all_violations.extend(violations)
        failed = {v.metric for v in violations}
        # Report the union of current and baseline metrics: a baseline
        # entry the current run did not produce (typically "gate":
        # false informational metrics of a retired benchmark revision)
        # must still appear — marked ``info`` — instead of silently
        # vanishing from the table.
        metrics_union = list(current) + [
            m for m in baseline["metrics"] if m not in current
        ]
        for metric in metrics_union:
            spec = baseline["metrics"].get(metric, {})
            base = spec.get("value")
            gated = spec.get("gate", True) and base is not None and metric in current
            status = "FAIL" if metric in failed else ("ok" if gated else "info")
            rows.append([
                f"{name}.{metric}",
                f"{base:.3f}" if base is not None else "-",
                f"{current[metric]:.3f}" if metric in current else "-",
                status,
            ])

    print(format_table(["metric", "baseline", "current", "status"], rows))
    if args.summary_out:
        _write_markdown_summary(args.summary_out, rows, all_violations)
    if args.telemetry_out:
        out = telemetry.write_report(args.telemetry_out)
        print(f"telemetry report: {out}")
    if all_violations:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for violation in all_violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    if not args.update:
        print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_gate())
