"""Micro-batching request queue for the prediction service.

Requests arrive one at a time from many threads (or an asyncio event
loop); the model wants them in batches — batched flat-SoA prediction
is the cheap primitive, so per-request calls waste most of their time
in per-call Python overhead. :class:`MicroBatcher` sits between the
two: a thread-safe ingress queue plus one worker thread that coalesces
queued requests, up to ``max_batch`` of them, into a single
``flush_fn`` call.

The default policy flushes **as soon as the worker is idle**: a request
that reaches an idle worker is flushed at once, alone, and whatever
arrives while a flush runs is coalesced into the next one. Batches grow
with load, never with waiting, so a lone request pays the model's cost
and no window. ``max_wait_ms > 0`` opts into a *linger* instead: the
worker holds a partial batch until its oldest item has waited that long
or the batch fills, trading latency for batch size.

The ingress is *bounded* when asked to be: with ``max_queue_depth``
set, submissions beyond the bound are shed immediately (typed
:class:`~repro.serve.resilience.Overloaded`), and with a deadline
budget — per-submission ``deadline_ms`` or the batcher-wide default —
items still queued past their deadline are shed at dequeue
(:class:`~repro.serve.resilience.DeadlineExceeded`) instead of being
flushed late. Shed futures resolve through ``on_shed`` when provided
(the service maps them to typed miss *responses*); otherwise they
carry the exception. Overload shedding is a pure queue-depth check
under the ingress lock, so it is deterministic given arrival order;
deadline expiry consults the monotonic clock and is inherently timing
dependent.

Flush causes are telemetered separately so a bench report can explain
its p99: ``serve.batch_full`` flushes are the throughput-optimal case,
``serve.batch_idle`` flushes took a partial batch to an idle worker,
``serve.batch_timeout`` flushes ended a linger (``max_wait_ms > 0``)
with the batch still partial, and ``serve.batch_shutdown`` flushes
drain the queue on close (no request is ever dropped — every accepted
future resolves, shed ones included). The ``serve.queue_depth`` gauge
tracks ingress backlog, and ``serve.shed.overloaded`` /
``serve.shed.deadline`` count the two shed paths.

The batcher is deterministic where it matters: coalescing changes only
*grouping*, never results — ``flush_fn`` must be row-independent (the
service's batched prediction path is), so any batch-boundary pattern
yields byte-identical per-request outputs. A seeded
:class:`~repro.serve.resilience.ServeFaultPlan` may inject slow
flushes (keyed by the batcher's ``name``) to exercise deadline expiry
deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, TypeVar

from repro import telemetry
from repro.serve.resilience import DeadlineExceeded, Overloaded

if TYPE_CHECKING:
    from repro.serve.resilience import ServeFaultPlan

__all__ = ["BatchStats", "MicroBatcher"]

T = TypeVar("T")
R = TypeVar("R")

#: Flush causes, in telemetry-counter spelling.
FLUSH_FULL = "full"
FLUSH_IDLE = "idle"
FLUSH_TIMEOUT = "timeout"
FLUSH_SHUTDOWN = "shutdown"
FLUSH_CAUSES = (FLUSH_FULL, FLUSH_IDLE, FLUSH_TIMEOUT, FLUSH_SHUTDOWN)

#: Shed reasons, in telemetry-counter spelling.
SHED_OVERLOADED = "overloaded"
SHED_DEADLINE = "deadline"


@dataclass
class BatchStats:
    """Lifetime accounting of one batcher (snapshot via ``stats()``)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    max_batch_seen: int = 0
    shed_overloaded: int = 0
    shed_deadline: int = 0
    flushes: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FLUSH_CAUSES, 0)
    )

    @property
    def shed(self) -> int:
        """Total shed items (overload + deadline)."""
        return self.shed_overloaded + self.shed_deadline


class MicroBatcher(Generic[T, R]):
    """Coalesces submitted items into bounded batches for ``flush_fn``.

    Parameters
    ----------
    flush_fn:
        Called with a non-empty list of items; must return one result
        per item, in order. An exception fails every future in the
        batch (and only that batch).
    max_batch:
        Flush as soon as this many items are waiting.
    max_wait_ms:
        ``0`` (the default) flushes whatever is queued as soon as the
        worker is idle. ``> 0`` lingers: a partial batch waits until its
        *oldest* item has waited this long, or until it fills.
    max_queue_depth:
        Ingress bound. Submissions arriving while this many items are
        already queued are shed with ``Overloaded`` instead of being
        accepted (``None`` = unbounded).
    deadline_ms:
        Default per-item deadline budget, measured from submission.
        Items still queued past it are shed with ``DeadlineExceeded``
        at dequeue (``None`` = no deadline).
    on_shed:
        Optional mapper from ``(item, reason)`` — reason is
        ``"overloaded"`` or ``"deadline"`` — to a *result*; when set,
        shed futures resolve to that result instead of raising.
    fault_plan:
        Optional seeded chaos; its ``flush_delay_s(name)`` stalls
        flushes to exercise deadline expiry deterministically.
    name:
        Entity name for fault keying and telemetry.
    """

    def __init__(
        self,
        flush_fn: Callable[[list[T]], Sequence[R]],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 0.0,
        max_queue_depth: int | None = None,
        deadline_ms: float | None = None,
        on_shed: Callable[[T, str], R] | None = None,
        fault_plan: "ServeFaultPlan | None" = None,
        name: str = "batcher",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        self.flush_fn = flush_fn
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self.deadline_ms = deadline_ms
        self.on_shed = on_shed
        self.fault_plan = fault_plan
        self.name = name
        self._cond = threading.Condition()
        # Entries are (item, future, enqueued_at, deadline_at-or-None).
        self._queue: deque[tuple[T, Future, float, float | None]] = deque()
        self._closing = False
        self._stats = BatchStats()
        self._worker = threading.Thread(
            target=self._run, name=f"repro-serve-{name}", daemon=True
        )
        self._worker.start()

    # -- ingress --------------------------------------------------------

    def submit(self, item: T, *, deadline_ms: float | None = None) -> "Future[R]":
        """Enqueue one item; returns the future of its result.

        ``deadline_ms`` overrides the batcher-wide deadline for this
        item. Over-bound submissions resolve immediately as shed
        (``Overloaded``) rather than queueing. Raises ``RuntimeError``
        after :meth:`close` — a shutting-down service must stop
        accepting work before draining.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        future: Future = Future()
        now = time.monotonic()
        budget_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        deadline_at = None if budget_ms is None else now + budget_ms / 1e3
        with self._cond:
            if self._closing:
                raise RuntimeError("batcher is closed")
            self._stats.submitted += 1
            if (
                self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth
            ):
                self._stats.shed_overloaded += 1
                shed = (item, future)
                depth = len(self._queue)
            else:
                shed = None
                self._queue.append((item, future, now, deadline_at))
                depth = len(self._queue)
                self._cond.notify_all()
        telemetry.count("serve.enqueued")
        telemetry.set_gauge("serve.queue_depth", depth)
        if shed is not None:
            self._resolve_shed([shed], SHED_OVERLOADED)
        return future

    def _resolve_shed(self, shed: list[tuple[T, Future]], reason: str) -> None:
        """Resolve shed futures (outside the lock) via ``on_shed`` or a typed error."""
        telemetry.count(f"serve.shed.{reason}", len(shed))
        for item, future in shed:
            if future.cancelled():
                continue
            if self.on_shed is not None:
                try:
                    future.set_result(self.on_shed(item, reason))
                    continue
                except BaseException as exc:  # noqa: BLE001 - forwarded to future
                    future.set_exception(exc)
                    continue
            if reason == SHED_OVERLOADED:
                future.set_exception(Overloaded(f"{self.name} queue is full"))
            else:
                future.set_exception(
                    DeadlineExceeded(f"deadline expired in {self.name} queue")
                )

    def stats(self) -> BatchStats:
        """A consistent snapshot of the lifetime counters."""
        with self._cond:
            snap = BatchStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                failed=self._stats.failed,
                batches=self._stats.batches,
                max_batch_seen=self._stats.max_batch_seen,
                shed_overloaded=self._stats.shed_overloaded,
                shed_deadline=self._stats.shed_deadline,
                flushes=dict(self._stats.flushes),
            )
        return snap

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (new submissions rejected)."""
        with self._cond:
            return self._closing

    @property
    def alive(self) -> bool:
        """Whether the worker thread is still running (readiness probe)."""
        return self._worker.is_alive()

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work, drain the queue, join the worker.

        Every already-accepted future resolves before this returns —
        the drain flushes remaining items in ``max_batch``-sized groups
        (flush cause ``shutdown`` when the group is partial).
        """
        with self._cond:
            if self._closing:
                closing_thread = self._worker
            else:
                self._closing = True
                closing_thread = self._worker
            self._cond.notify_all()
        if closing_thread.is_alive():
            closing_thread.join()

    def __enter__(self) -> "MicroBatcher[T, R]":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- worker ---------------------------------------------------------

    def _run(self) -> None:
        wait_s = self.max_wait_ms / 1e3
        while True:
            with self._cond:
                while not self._queue and not self._closing:
                    self._cond.wait()
                if not self._queue and self._closing:
                    return
                # Items are waiting: collect until the batch fills, the
                # oldest item's deadline passes, or shutdown begins. With
                # no linger the deadline is the oldest item's enqueue time,
                # so whatever is queued is taken at once.
                deadline = self._queue[0][2] + wait_s
                while len(self._queue) < self.max_batch and not self._closing:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                n = min(len(self._queue), self.max_batch)
                taken = [self._queue.popleft() for _ in range(n)]
                # Items whose request deadline already expired are shed at
                # dequeue rather than flushed late.
                now = time.monotonic()
                batch = []
                expired = []
                for item, future, enqueued_at, deadline_at in taken:
                    if deadline_at is not None and now >= deadline_at:
                        expired.append((item, future))
                    else:
                        batch.append((item, future, enqueued_at, deadline_at))
                if n == self.max_batch:
                    cause = FLUSH_FULL
                elif self._closing:
                    cause = FLUSH_SHUTDOWN
                else:
                    cause = FLUSH_TIMEOUT if wait_s > 0 else FLUSH_IDLE
                depth = len(self._queue)
                self._stats.shed_deadline += len(expired)
                if batch:
                    self._stats.batches += 1
                    self._stats.max_batch_seen = max(
                        self._stats.max_batch_seen, len(batch)
                    )
                    self._stats.flushes[cause] += 1
            if expired:
                self._resolve_shed(expired, SHED_DEADLINE)
            telemetry.set_gauge("serve.queue_depth", depth)
            if not batch:
                continue
            telemetry.count(f"serve.batch_{cause}")
            telemetry.observe("serve.batch_size", len(batch))
            self._flush(batch)

    def _flush(self, batch: list[tuple[T, Future, float, float | None]]) -> None:
        items = [item for item, _, _, _ in batch]
        try:
            if self.fault_plan is not None:
                delay = self.fault_plan.flush_delay_s(self.name)
                if delay > 0:
                    time.sleep(delay)
            with telemetry.span("serve.flush_s"):
                results = self.flush_fn(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"flush_fn returned {len(results)} results for {len(items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            with self._cond:
                self._stats.failed += len(batch)
            for _, future, _, _ in batch:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        with self._cond:
            self._stats.completed += len(batch)
        for (_, future, _, _), result in zip(batch, results):
            if not future.cancelled():
                future.set_result(result)
