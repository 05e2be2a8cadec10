"""Engine benchmark: the full 118x105 campaign, old loop vs new engine.

The seed implementation priced every (device, network) pair with a
per-primitive Python loop (~1M `primitive_seconds` calls per campaign).
The engine compiles the suite to flat arrays once and prices a whole
device row per vectorized call, sharding rows across an executor.

The zero-copy PR adds a second reference point: the frozen
pre-shared-memory engine (``benchmarks/legacy_engine.py``), which
still rebuilt a ``default_rng`` per cell and pickled the shared state
into a fresh process pool per map.

This bench regenerates the full paper-scale campaign four ways —
legacy per-pair loop, frozen engine, zero-copy serial backend,
zero-copy process backend — and asserts the engine is at least 2x
faster than the legacy loop and byte-identical across backends and
against the frozen engine. It also times a warm cache hit, which is
how every repeated figure/table bench actually consumes the campaign.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from benchmarks.legacy_engine import legacy_collect, legacy_collect_engine
from repro.analysis.reporting import format_table
from repro.dataset.collection import collect_dataset
from repro.devices.measurement import MeasurementHarness
from repro.pipeline import build_paper_artifacts

#: The engine must beat the legacy per-pair loop by at least this much
#: even on a single core (the vectorized fast path alone delivers ~4x).
MIN_SPEEDUP = 2.0


def test_perf_campaign_engine_speedup(benchmark, artifacts, report):
    suite, fleet = artifacts.suite, artifacts.fleet
    harness = MeasurementHarness(seed=0)

    def experiment():
        timings = {}

        start = time.perf_counter()
        legacy = legacy_collect(suite, fleet, harness)
        timings["legacy per-pair loop"] = time.perf_counter() - start

        start = time.perf_counter()
        frozen = legacy_collect_engine(suite, fleet, harness)
        timings["frozen pre-zero-copy engine"] = time.perf_counter() - start

        start = time.perf_counter()
        serial = collect_dataset(suite, fleet, harness, backend="serial")
        timings["engine serial"] = time.perf_counter() - start

        start = time.perf_counter()
        process = collect_dataset(suite, fleet, harness, jobs=4, backend="process")
        timings["engine process --jobs 4"] = time.perf_counter() - start

        return timings, legacy, frozen, serial, process

    timings, legacy, frozen, serial, process = run_once(benchmark, experiment)

    baseline = timings["legacy per-pair loop"]
    rows = [
        [label, seconds, baseline / seconds] for label, seconds in timings.items()
    ]
    report(
        "Engine benchmark — full 118x105 measurement campaign\n\n"
        + format_table(["path", "seconds", "speedup vs legacy"], rows,
                       float_format="{:.3f}")
        + "\n\nmatrices byte-identical across backends: "
        + str(serial.latencies_ms.tobytes() == process.latencies_ms.tobytes())
    )

    # Backends agree byte-for-byte with each other and with the frozen
    # engine; the engine matches the legacy protocol to float rounding.
    assert serial.latencies_ms.tobytes() == process.latencies_ms.tobytes()
    assert serial.latencies_ms.tobytes() == frozen.tobytes()
    np.testing.assert_allclose(serial.latencies_ms, legacy, rtol=1e-9)
    assert baseline / timings["engine serial"] >= MIN_SPEEDUP


def test_perf_warm_cache_hit(benchmark, artifacts, report, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("perf-cache")

    def experiment():
        start = time.perf_counter()
        cold = build_paper_artifacts(cache_dir=cache_dir)
        t_cold = time.perf_counter() - start
        start = time.perf_counter()
        warm = build_paper_artifacts(cache_dir=cache_dir)
        t_warm = time.perf_counter() - start
        assert np.array_equal(cold.dataset.latencies_ms, warm.dataset.latencies_ms)
        return t_cold, t_warm

    t_cold, t_warm = run_once(benchmark, experiment)
    report(
        "Content-addressed cache — paper artifacts build\n\n"
        + format_table(
            ["path", "seconds"],
            [["cold (measure + store)", t_cold], ["warm (cache hit)", t_warm]],
            float_format="{:.3f}",
        )
    )
    assert t_cold / t_warm >= MIN_SPEEDUP
