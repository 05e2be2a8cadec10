"""Frozen copies of the seed's campaign loop and the pre-zero-copy engine.

This module preserves, verbatim, two earlier campaign hot paths:

- ``legacy_collect`` — the seed's serial per-pair loop, one
  ``measure_ms`` call per (device, network) cell; the slowest reference
  point of the campaign benchmarks;

and the engine as it stood before the shared-memory/vectorized-tile PR:

- ``legacy_measure_row_ms`` — the per-device row loop that rebuilt a
  ``default_rng`` (running SeedSequence's Python mixing loops) for
  every (device, network) cell;
- ``legacy_process_map`` — the old process backend that built a fresh
  ``ProcessPoolExecutor`` per map and shipped ``shared`` to each
  worker through the pool initializer (pickled per worker, per map);
- ``legacy_collect_engine`` — the device-sharded campaign driver
  wiring the two together.

It is the fixed reference point of ``benchmarks/regression.py``'s
campaign hot-path gate (the same role ``legacy_train.py`` plays for
the train-path gate) and a byte-identity oracle: the zero-copy engine
must reproduce these rows bit-for-bit. Do not optimize this file.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from repro.devices.catalog import DeviceFleet
from repro.devices.device import Device
from repro.devices.latency import CompiledWork, compile_works
from repro.devices.measurement import MeasurementHarness
from repro.generator.suite import BenchmarkSuite
from repro.trust import robust_aggregate

__all__ = [
    "legacy_collect", "legacy_collect_engine", "legacy_measure_row_ms", "legacy_process_map",
]


def legacy_collect(
    suite: BenchmarkSuite, fleet: DeviceFleet, harness: MeasurementHarness
) -> np.ndarray:
    """The seed's serial per-pair campaign — the fixed reference point."""
    works = {network.name: suite.work(network.name) for network in suite}
    matrix = np.empty((len(fleet), len(suite)))
    for i, device in enumerate(fleet):
        for j, network in enumerate(suite):
            matrix[i, j] = harness.measure_ms(device, works[network.name], network.name)
    return matrix


def legacy_measure_row_ms(
    harness: MeasurementHarness,
    device: Device,
    compiled: CompiledWork,
    network_names: Sequence[str],
) -> np.ndarray:
    """The seed engine's device row: one ``default_rng`` per cell."""
    base_ms = harness.model.network_seconds_batch(device, compiled) * 1e3
    row = np.empty(len(network_names))
    for j, name in enumerate(network_names):
        digest = hashlib.sha256(
            f"{harness.seed}|{device.name}|{name}".encode()
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        jitter = rng.lognormal(0.0, harness.jitter_sigma, size=harness.runs)
        spikes = np.where(
            rng.random(harness.runs) < harness.spike_probability,
            harness.spike_scale,
            1.0,
        )
        runs = base_ms[j] * jitter * spikes
        if harness.aggregate == "mean":
            row[j] = runs.mean()
        else:
            row[j] = robust_aggregate(runs, harness.aggregate)
    return row


# -- the old process backend: fresh pool per map, shared state pickled
#    into every worker through the initializer -------------------------

_WORKER_SHARED: Any = None


def _worker_init(shared: Any) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _worker_call(payload: tuple[Any, Any]) -> Any:
    fn, task = payload
    return fn(_WORKER_SHARED, task)


def legacy_process_map(fn, tasks: list, shared: Any, jobs: int) -> list:
    """The seed's per-map process pool (no reuse, no shared memory)."""
    chunksize = max(1, len(tasks) // (jobs * 4))
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_worker_init,
        initargs=(shared,),
    ) as pool:
        payloads = [(fn, task) for task in tasks]
        return list(pool.map(_worker_call, payloads, chunksize=chunksize))


def _row_task(shared: tuple, device: Device) -> np.ndarray:
    harness, compiled, names = shared
    return legacy_measure_row_ms(harness, device, compiled, names)


def legacy_collect_engine(
    suite: BenchmarkSuite,
    fleet: DeviceFleet,
    harness: MeasurementHarness,
    *,
    jobs: int = 1,
    backend: str = "serial",
) -> np.ndarray:
    """The pre-zero-copy campaign: device rows over the old executor."""
    names = list(suite.names)
    compiled = compile_works([suite.work(name) for name in names])
    shared = (harness, compiled, names)
    devices = list(fleet)
    if backend == "process" and jobs > 1:
        rows = legacy_process_map(_row_task, devices, shared, jobs)
    else:
        rows = [_row_task(shared, device) for device in devices]
    return np.stack(rows)
