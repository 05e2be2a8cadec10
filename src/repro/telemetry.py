"""Dependency-free telemetry: metrics registry, spans, JSONL reports.

The engine added in PR 1 made the hot paths fast; this module makes
them *observable* without making them slower. It provides:

- a thread-safe :class:`MetricsRegistry` of **counters** (monotonic
  event counts), **gauges** (last-written values) and **histograms**
  (count/sum/min/max aggregates — also the backing store for timers);
- :func:`span`, a timing context manager that records wall time into a
  histogram, used at every pipeline stage boundary;
- snapshot/merge so metrics recorded inside ``process``-backend workers
  flow back to the parent registry (see :mod:`repro.parallel`);
- :func:`write_report`, a machine-readable JSON-lines dump with a
  final ``summary`` line (per-stage timings, cache hit rate, executor
  utilization).

Determinism contract
--------------------
Telemetry **observes** the system; it never steers it. No code path
may branch on a recorded duration or counter, so the latency matrices
and every derived artifact are byte-identical with telemetry enabled
or disabled, on every executor backend (``tests/test_telemetry.py``
asserts this).

Zero overhead when disabled
---------------------------
Collection is off by default. Every module-level helper checks one
boolean first and the disabled branches allocate nothing: ``count`` /
``observe`` / ``set_gauge`` return immediately and :func:`span`
returns a shared no-op singleton instead of building a new context
manager per call.

Enabling
--------
Programmatically via :func:`enable`, or through the environment::

    REPRO_TELEMETRY=1                  # collect (caller dumps the report)
    REPRO_TELEMETRY=report.jsonl       # collect and write here on exit
    repro --telemetry-out report.jsonl collect   # CLI form

Metric names are dot-separated, lowest-cardinality-first:
``cache.hit``, ``cache.miss.corrupt``, ``stage.collect``,
``parallel.task``, ``latency.batch_calls``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

__all__ = [
    "MetricsRegistry",
    "configure_from_env",
    "count",
    "disable",
    "enable",
    "enabled",
    "observe",
    "peak_rss_mb",
    "registry",
    "scoped_registry",
    "set_gauge",
    "span",
    "summarize",
    "write_report",
]

_ENV = "REPRO_TELEMETRY"

#: Values of ``REPRO_TELEMETRY`` that mean "off" (any other non-empty
#: value enables collection; values that are not known switches are
#: treated as a report output path).
_FALSY = frozenset({"", "0", "false", "no", "off"})
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Report format version, bumped when the line schema changes.
REPORT_SCHEMA = 1


class _Histogram:
    """count/sum/min/max aggregate of observed values.

    Deliberately does not retain individual observations: memory stays
    O(1) no matter how many grid cells or cache probes a run makes.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: Mapping[str, float]) -> None:
        self.count += int(other["count"])
        self.total += float(other["sum"])
        self.min = min(self.min, float(other["min"]))
        self.max = max(self.max, float(other["max"]))

    def as_dict(self) -> dict[str, float]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": mean,
        }


class MetricsRegistry:
    """Thread-safe store of named counters, gauges and histograms.

    A single lock guards all three tables; the hot operations are a
    dict lookup plus a few float ops, so contention is negligible next
    to the work being measured (model fits, campaigns).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(float(value))

    def span(self, name: str) -> "_Span":
        """Context manager timing a block into histogram ``name``."""
        return _Span(self, name)

    # -- reading --------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram_stats(self, name: str) -> dict[str, float] | None:
        with self._lock:
            hist = self._histograms.get(name)
            return hist.as_dict() if hist is not None else None

    def snapshot(self) -> dict[str, Any]:
        """A picklable copy of every metric (for merge / reporting)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict() for k, h in self._histograms.items()},
            }

    # -- mutation -------------------------------------------------------

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins, matching :meth:`set_gauge`).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = float(value)
            for name, stats in snapshot.get("histograms", {}).items():
                if not stats.get("count"):
                    continue
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = _Histogram()
                hist.merge(stats)

    def clear(self) -> None:
        """Drop every metric (tests and per-task worker scopes)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class _Span:
    """Times a ``with`` block into a registry histogram (seconds)."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class _NoopSpan:
    """Shared do-nothing span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

# ---------------------------------------------------------------------------
# Module-level state: one global registry plus an enabled flag. The flag is
# what gives the disabled path its cost — a single attribute load and branch.

_enabled = False
_registry = MetricsRegistry()


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn collection on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off; recorded metrics are kept until cleared."""
    global _enabled
    _enabled = False


def registry() -> MetricsRegistry:
    """The active global registry."""
    return _registry


class scoped_registry:
    """Swap in a private registry (and enable collection) for a block.

    Used by ``process``-backend workers so each task records into a
    fresh registry whose snapshot travels back with the result, and by
    tests to isolate global state. Restores the previous registry and
    enabled flag on exit.
    """

    def __init__(self, target: MetricsRegistry | None = None) -> None:
        self.target = target if target is not None else MetricsRegistry()
        self._saved: tuple[MetricsRegistry, bool] | None = None

    def __enter__(self) -> MetricsRegistry:
        global _registry, _enabled
        self._saved = (_registry, _enabled)
        _registry = self.target
        _enabled = True
        return self.target

    def __exit__(self, *exc_info: object) -> None:
        global _registry, _enabled
        assert self._saved is not None
        _registry, _enabled = self._saved
        self._saved = None


def count(name: str, n: int = 1) -> None:
    """Increment a counter on the global registry (no-op if disabled)."""
    if _enabled:
        _registry.count(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global registry (no-op if disabled)."""
    if _enabled:
        _registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe into a histogram on the global registry (no-op if disabled)."""
    if _enabled:
        _registry.observe(name, value)


def span(name: str) -> _Span | _NoopSpan:
    """A timing context for the global registry.

    When disabled this returns one shared no-op object — no per-call
    allocation, no clock read.
    """
    if _enabled:
        return _registry.span(name)
    return _NOOP_SPAN


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    Uses ``resource.getrusage`` (a high-water mark, never decreasing),
    so callers comparing against a residency budget measure the worst
    moment of the run, not the current allocation. Returns 0.0 on
    platforms without ``resource`` (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak_kb /= 1024
    return peak_kb / 1024.0


def configure_from_env(environ: Mapping[str, str] | None = None) -> str | None:
    """Apply ``REPRO_TELEMETRY`` and return the report path, if any.

    Falsy values (unset, ``0``, ``false``, ...) leave telemetry off.
    Truthy switches (``1``, ``true``, ...) enable collection with no
    report file. Any other value enables collection and is returned as
    the path the caller should :func:`write_report` to.
    """
    raw = (environ if environ is not None else os.environ).get(_ENV, "").strip()
    if raw.lower() in _FALSY:
        return None
    enable()
    return None if raw.lower() in _TRUTHY else raw


# ---------------------------------------------------------------------------
# Reporting


def summarize(reg: MetricsRegistry | None = None) -> dict[str, Any]:
    """The roll-up the JSONL report's final ``summary`` line carries.

    - ``wall_s``: total observed time of top-level ``stage.*`` spans;
    - ``stages``: per-stage count/total/mean seconds;
    - ``cache``: hit / cold-miss / corrupt-miss counts and the hit rate
      over all probes;
    - ``executor``: tasks run, busy vs. available worker-seconds and
      the resulting utilization across every ``Executor.map``;
    - ``campaign``: fault-tolerance accounting — retries, quarantined
      devices, rows restored from a resume checkpoint;
    - ``admission``: trust-layer accounting — contributions accepted /
      rejected / quarantined / rehabilitated, with per-reason
      rejection counts;
    - ``serve``: prediction-service accounting — requests answered,
      warm vs cold, per-reason misses, batch count and mean size,
      flush causes (``batch_full`` vs ``batch_idle`` vs
      ``batch_timeout`` vs ``batch_shutdown``), hot swaps, routing
      fallbacks, and the last observed ingress queue depth; its
      ``bulk`` sub-block explains the bulk query plane's wins — dedup
      ratio (queries answered without a fresh prediction),
      encoding-cache hit ratio and evictions, and rows actually
      predicted; its ``resilience``
      sub-block covers the degraded paths — shed counts (overload /
      deadline / abandoned), breaker transitions, per-tier serve and
      fallback counts, predict/registry errors, and injected faults
      by kind;
    - ``search``: evolutionary-search accounting — runs, generations,
      candidates evaluated vs feasible, per-kind mutation counts, and
      the final Pareto size / best feasible point.
    """
    snap = (reg if reg is not None else _registry).snapshot()
    counters = snap["counters"]
    histograms = snap["histograms"]

    stages = {
        name.removeprefix("stage."): stats
        for name, stats in sorted(histograms.items())
        if name.startswith("stage.")
    }
    wall = histograms.get("stage.total", {}).get("sum") or sum(
        s["sum"] for s in stages.values()
    )

    hits = counters.get("cache.hit", 0)
    miss_cold = counters.get("cache.miss.cold", 0)
    miss_corrupt = counters.get("cache.miss.corrupt", 0)
    probes = hits + miss_cold + miss_corrupt
    cache = {
        "hits": hits,
        "misses_cold": miss_cold,
        "misses_corrupt": miss_corrupt,
        "stores": counters.get("cache.store", 0),
        "hit_rate": hits / probes if probes else None,
    }

    busy = histograms.get("parallel.task", {}).get("sum", 0.0)
    available = histograms.get("parallel.worker_capacity", {}).get("sum", 0.0)
    executor = {
        "maps": counters.get("parallel.maps", 0),
        "tasks": counters.get("parallel.tasks", 0),
        "busy_s": busy,
        "capacity_s": available,
        "utilization": busy / available if available else None,
    }
    campaign = {
        "devices": counters.get("campaign.devices", 0),
        "measurements": counters.get("campaign.measurements", 0),
        "retries": counters.get("campaign.retries", 0),
        "quarantined": counters.get("campaign.quarantined", 0),
        "resumed_rows": counters.get("campaign.resumed_rows", 0),
        "failed_attempts": counters.get("campaign.failed_attempts", 0)
        + counters.get("campaign.corrupt_rows", 0),
        "dropouts": counters.get("campaign.dropouts", 0),
    }
    reject_reasons = {
        name.removeprefix("admission.rejected."): value
        for name, value in sorted(counters.items())
        if name.startswith("admission.rejected.")
    }
    admission = {
        "accepted": counters.get("admission.accepted", 0),
        "rejected": counters.get("admission.rejected", 0),
        "quarantined": counters.get("admission.quarantined", 0),
        "rehabilitated": counters.get("admission.rehabilitated", 0),
        "adversary_devices": counters.get("adversary.devices", 0),
        "reject_reasons": reject_reasons,
    }
    gauges = snap.get("gauges", {})
    miss_reasons = {
        name.removeprefix("serve.miss."): value
        for name, value in sorted(counters.items())
        if name.startswith("serve.miss.")
    }
    batch_stats = histograms.get("serve.batch_size", {})
    serve = {
        "requests": counters.get("serve.requests", 0),
        "warm_served": counters.get("serve.warm_served", 0),
        "cold_served": counters.get("serve.cold_served", 0),
        "misses": miss_reasons,
        "batches": batch_stats.get("count", 0),
        "mean_batch_size": batch_stats.get("mean"),
        "flushes": {
            cause: counters.get(f"serve.batch_{cause}", 0)
            for cause in ("full", "idle", "timeout", "shutdown")
        },
        "publishes": counters.get("serve.publish", 0),
        "hot_swaps": counters.get("serve.hot_swap", 0),
        "route_fallbacks": counters.get("serve.route.fallback", 0),
        "corrupt_checkpoints": counters.get("serve.checkpoint.corrupt", 0),
        "queue_depth": gauges.get("serve.queue_depth"),
    }
    serve["resilience"] = {
        "shed": {
            reason: counters.get(f"serve.shed.{reason}", 0)
            for reason in ("overloaded", "deadline", "abandoned")
        },
        "breaker": {
            event: counters.get(f"serve.breaker.{event}", 0)
            for event in ("trip", "probe", "recover")
        },
        "served_by": {
            tier: counters.get(f"serve.served_by.{tier}", 0)
            for tier in ("primary", "stale", "default", "static")
        },
        "fallbacks": {
            tier: counters.get(f"serve.fallback.{tier}", 0)
            for tier in ("stale", "default", "static")
        },
        "predict_errors": counters.get("serve.resilience.predict_error", 0),
        "registry_errors": counters.get("serve.resilience.registry_error", 0),
        "faults_injected": {
            kind: counters.get(f"serve.fault.{kind}", 0)
            for kind in ("slow_flush", "checkpoint_corrupt", "registry_io", "predict")
        },
    }
    bulk_requests = counters.get("serve.bulk.requests", 0)
    dedup_hits = counters.get("serve.bulk.dedup_hits", 0)
    serve["bulk"] = {
        "calls": counters.get("serve.bulk.calls", 0),
        "requests": bulk_requests,
        "predicted": counters.get("serve.bulk.predicted", 0),
        "dedup_hits": dedup_hits,
        "dedup_ratio": dedup_hits / bulk_requests if bulk_requests else None,
        "encoded": counters.get("serve.bulk.enc_misses", 0),
        "encoding_rows_reused": counters.get("encode.rows_reused", 0),
        "encoding_rows_computed": counters.get("encode.rows_computed", 0),
    }
    mutations = {
        name.removeprefix("search.mutation."): value
        for name, value in sorted(counters.items())
        if name.startswith("search.mutation.")
    }
    search = {
        "runs": counters.get("search.runs", 0),
        "generations": counters.get("search.generations", 0),
        "candidates": counters.get("search.candidates", 0),
        "feasible": counters.get("search.feasible", 0),
        "mutations": mutations,
        "pareto_size": gauges.get("search.pareto_size"),
        "best_latency_ms": gauges.get("search.best_latency_ms"),
        "best_accuracy": gauges.get("search.best_accuracy"),
    }
    return {
        "wall_s": wall,
        "stages": stages,
        "cache": cache,
        "executor": executor,
        "campaign": campaign,
        "admission": admission,
        "serve": serve,
        "search": search,
    }


def write_report(path: str | Path, reg: MetricsRegistry | None = None) -> Path:
    """Dump every metric plus a summary as JSON lines; returns the path.

    Line schema (one JSON object per line)::

        {"type": "meta", "schema": 1, "created_unix": ...}
        {"type": "counter", "name": ..., "value": ...}
        {"type": "gauge", "name": ..., "value": ...}
        {"type": "histogram", "name": ..., "count": ..., "sum": ...,
         "min": ..., "max": ..., "mean": ...}
        {"type": "summary", "wall_s": ..., "stages": {...},
         "cache": {...}, "executor": {...}}
    """
    reg = reg if reg is not None else _registry
    snap = reg.snapshot()
    lines = [{"type": "meta", "schema": REPORT_SCHEMA, "created_unix": time.time()}]
    for name, value in sorted(snap["counters"].items()):
        lines.append({"type": "counter", "name": name, "value": value})
    for name, value in sorted(snap["gauges"].items()):
        lines.append({"type": "gauge", "name": name, "value": value})
    for name, stats in sorted(snap["histograms"].items()):
        lines.append({"type": "histogram", "name": name, **stats})
    lines.append({"type": "summary", **summarize(reg)})

    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return out
