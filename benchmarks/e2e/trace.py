"""Span tracing for the traced run, installed from outside the program.

The traced run never edits ``repro``: it replaces the public functions
named in :data:`HOOKS` with wrappers that time each call as a span, and
swaps :class:`TracingBatcher` in for the service's ``MicroBatcher`` to
timestamp every serve request. Each wrapper pushes onto a thread-local
stack, so a span knows its parent and the run can compute self time.

A hook patches the name where its *caller* looks it up (for example
``repro.search.evolution.network_work``, not ``repro.nnir.flops``), and
:meth:`Tracer.install` fails on a name that no longer exists, so a
rename can never silently read as a layer that costs nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ALL = ("pipeline", "serve-open", "serve-burst", "search")
SERVE = ("serve-open", "serve-burst")

#: (module the caller looks the name up in, attribute path, layer name,
#: count rows (len of the first argument after ``self``), workloads whose
#: traced run must record at least one call).
HOOKS = (
    ("repro.pipeline", "build_paper_artifacts", "pipeline.build_paper_artifacts", False, ALL),
    ("repro.pipeline", "publish_serving_checkpoint", "pipeline.publish_serving_checkpoint",
     False, ALL),
    ("repro.pipeline", "collect_dataset", "dataset.collection.collect", False, ALL),
    ("repro.generator.suite", "BenchmarkSuite.default", "generator.suite.build", False, ALL),
    ("repro.core.evaluation", "select_signature_set", "core.signature.select", False,
     ("pipeline",)),
    ("repro.core.collaborative", "select_signature_set", "core.signature.select", False, ALL),
    ("repro.ml.gbt", "GradientBoostedTrees.fit", "ml.gbt.fit", True, ALL),
    ("repro.ml.gbt", "GradientBoostedTrees.fit_binned", "ml.gbt.fit", True, ("pipeline",)),
    ("repro.ml.gbt", "GradientBoostedTrees.fit_more_binned", "ml.gbt.fit", True, ()),
    ("repro.core.cost_model", "CostModel.build_training_set",
     "core.cost_model.build_training_set", False, ALL),
    ("repro.core.evaluation", "device_split_evaluation", "core.evaluation.evaluate", False,
     ("pipeline",)),
    ("repro.serve.registry", "ModelRegistry.publish", "serve.registry.publish", False, ALL),
    ("repro.serve.registry", "ModelRegistry.load", "serve.registry.load", False, ALL),
    ("repro.serve.service", "PredictionService.__init__", "serve.service.start", False, ALL),
    ("repro.ml.gbt", "GradientBoostedTrees.predict_block", "ml.gbt.predict_block", True,
     (*SERVE, "search")),
    ("repro.search.evolution", "run_search", "search.evolution.run_search", False,
     ("search",)),
    ("repro.serve.bulk", "BulkQueryPlane.predict_block", "serve.bulk.predict_block", False,
     ("search",)),
    ("repro.core.representation", "NetworkEncoder.encode_network",
     "core.representation.encode_network", False, ("search",)),
    ("repro.search.evolution", "network_work", "nnir.flops.network_work", False, ("search",)),
    ("repro.search.space", "Genotype.to_network", "search.space.to_network", False,
     ("search",)),
    ("repro.search.evolution", "mutate", "search.space.mutate", False, ("search",)),
    ("repro.search.evolution", "network_content_hash", "core.representation.content_hash",
     False, ("search",)),
    ("repro.serve.bulk", "network_content_hash", "core.representation.content_hash", False,
     ("search",)),
)

#: Span name of one micro-batch flush (recorded by :class:`TracingBatcher`).
FLUSH = "serve.service.flush"

#: Layers timed over the whole repeat; every other layer metric covers
#: only the measured phase. Loading and starting the service are set-up
#: work on the serve and search workloads, so they move ``setup_s``.
SETUP_LAYERS = ("serve.registry.load", "serve.service.start")

# Span record fields. Records are lists, so the closing stamp is set in
# place; a record holds its parent record, not an id, so opening a span
# needs no shared counter.
_PARENT, _NAME, _THREAD, _START, _END, _ROWS = range(6)


class Tracer:
    """In-memory span recorder with a thread-local span stack.

    ``spans`` holds one record per finished or open span (a micro-batch
    flush is a span whose rows are its batch size), and ``requests`` one
    ``[due, submit, flush_start, flush_end, done]`` record per serve
    request. All stamps are ``time.monotonic()`` seconds, the
    clock the batcher stamps its queue entries with. Records are only
    appended (one atomic ``list.append`` each), and read after the
    threads that write them have finished.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str, rows: int) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        record = [stack[-1] if stack else None, name, threading.get_ident(), 0.0, None, rows]
        self.spans.append(record)
        stack.append(record)
        record[_START] = time.monotonic()
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.monotonic()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, rows: int = 0):
        record = self._open(name, rows)
        try:
            yield record
        finally:
            self._close(record)

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, module: str, path: str, layer: str, rows: bool) -> None:
        """Replace ``module.path`` with a wrapper that records ``layer`` spans."""
        owner: object = importlib.import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        original = inspect.getattr_static(owner, attr)  # AttributeError on a rename
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if binder else original
        open_, close = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = open_(layer, len(args[1]) if rows else 0)
            try:
                return func(*args, **kwargs)
            finally:
                close(record)

        self._patch(owner, attr, binder(traced) if binder else traced)

    def install(self) -> None:
        """Wrap every hook and swap in the tracing micro-batcher."""
        for module, path, layer, rows, _ in HOOKS:
            self.wrap(module, path, layer, rows)
        service = importlib.import_module("repro.serve.service")
        self._patch(service, "MicroBatcher", tracing_batcher(self, service.MicroBatcher))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the trace ------------------------------------------------

    def _finished(self, since: float) -> list[list]:
        return [s for s in self.spans if s[_END] is not None and s[_START] >= since]

    def calls(self, name: str, since: float) -> list[tuple[float, float, int]]:
        """``(start, end, rows)`` of every finished ``name`` span since ``since``."""
        return [(s[_START], s[_END], s[_ROWS]) for s in self._finished(since) if s[_NAME] == name]

    def layer_totals(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """Per layer: outermost calls, their inclusive seconds and rows.

        A span nested inside a span of the same layer (``fit`` calling
        ``fit_binned``) is part of the outer call, not a call of its own.
        Only spans that start at or after ``since`` count.
        """
        totals: dict[str, dict[str, float]] = {}
        for s in self._finished(since):
            parent = s[_PARENT]
            while parent is not None and parent[_NAME] != s[_NAME]:
                parent = parent[_PARENT]
            if parent is not None:
                continue
            t = totals.setdefault(s[_NAME], {"calls": 0, "seconds": 0.0, "rows": 0})
            t["calls"] += 1
            t["seconds"] += s[_END] - s[_START]
            t["rows"] += s[_ROWS]
        return totals

    def self_by_layer(self, since: float = float("-inf")) -> dict[str, float]:
        """Layer -> summed self time of its spans, largest first.

        A span's self time is its duration minus the durations of its
        child spans (children always run on the parent's thread).
        """
        spans = self._finished(since)
        own = {id(s): s[_END] - s[_START] for s in spans}
        for s in spans:
            if id(s[_PARENT]) in own:
                own[id(s[_PARENT])] -= s[_END] - s[_START]
        totals: dict[str, float] = {}
        for s in spans:
            totals[s[_NAME]] = totals.get(s[_NAME], 0.0) + own[id(s)]
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def dump(self, path: Path) -> None:
        """Write spans and requests as JSON lines."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "kind": "span", "id": i, "parent": ids.get(id(s[_PARENT])),
                    "name": s[_NAME], "thread": s[_THREAD], "start": s[_START],
                    "end": s[_END], "rows": s[_ROWS],
                }) + "\n")
            for i, (due, submit, start, end, done) in enumerate(self.requests):
                fh.write(json.dumps({
                    "kind": "request", "id": i, "due": due, "submit": submit,
                    "flush_start": start, "flush_end": end, "done": done,
                }) + "\n")


def tracing_batcher(tracer: Tracer, base: type) -> type:
    """A ``MicroBatcher`` subclass that stamps each request's flush.

    Every future it resolves carries an ``e2e_record`` list, ``[due,
    submit, flush_start, flush_end, done]``: ``submit`` is the batcher's
    own enqueue stamp, ``done`` is stamped by a callback at resolution,
    and ``due`` is left ``None`` for the load generator to fill in (the
    closed loop leaves it as ``submit``).
    """

    class TracingBatcher(base):
        def __init__(self, flush_fn, **kwargs) -> None:
            self._inner_flush = flush_fn
            self._batch: list = []
            super().__init__(self._timed_flush, **kwargs)

        def _flush(self, batch) -> None:
            self._batch = batch  # only the single worker thread flushes
            super()._flush(batch)

        def _timed_flush(self, items):
            with tracer.span(FLUSH, len(items)) as span:
                results = self._inner_flush(items)
            start, end = span[_START], span[_END]
            for _, future, enqueued_at, _ in self._batch:
                record = [None, enqueued_at, start, end, None]
                future.e2e_record = record
                future.add_done_callback(functools.partial(_stamp_done, record))
                tracer.requests.append(record)
            return results

    return TracingBatcher


def _stamp_done(record: list, _future) -> None:
    record[4] = time.monotonic()
