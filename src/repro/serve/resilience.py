"""Serving-plane resilience primitives: shedding, breakers, fallbacks.

"Smart at what cost?" (PAPERS.md) shows the fleets feeding the cost
model are flaky; this module lets the serving side degrade gracefully
instead of stalling callers:

- :class:`Overloaded` / :class:`DeadlineExceeded` — the typed shed
  outcomes of the bounded ingress (:class:`~repro.serve.batcher.
  MicroBatcher` with ``max_queue_depth`` and per-request deadlines);
  the service maps them to typed miss *responses*.
- :class:`CircuitBreaker` — per-(cluster, version) failure isolation
  with a half-open probe after a cooldown.
- :class:`StaticEstimator` — the always-available last fallback tier:
  publish-time per-cluster latency means kept in the registry
  *manifest*, so they survive checkpoint corruption.
- :class:`ServeFaultPlan` — seeded chaos (slow flushes, checkpoint
  corruption, registry I/O errors, predict-time exceptions), every
  decision a pure function of ``(seed, kind, entity, attempt)`` with
  the same keying and ``from_spec`` grammar as
  :class:`repro.faults.FaultPlan`.
- :class:`ResilienceConfig` — the service-level knob bundle.

Fallback tiers (the ``served_by`` tag on every successful response),
walked in this order by :meth:`repro.serve.service.Router.chain`:

======== =======================================================
tier     meaning
======== =======================================================
primary  the freshest healthy model of the requested cluster
stale    the previous version of that cluster (kept on hot swap)
default  the cross-cluster ``default`` model
static   the publish-time per-cluster mean-latency estimator
======== =======================================================

Determinism contract: with no faults injected and no shedding
triggered, none of this machinery touches a prediction (asserted by
``tests/test_serve_resilience.py`` and ``scripts/serve_chaos_smoke.py``).
Overload shedding is deterministic given arrival order; deadline
expiry consults the wall clock and is the one documented exception.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from repro import telemetry
from repro.faults import parse_spec, unit_interval
from repro.serve.registry import DEFAULT_CLUSTER

__all__ = [
    "TIERS", "CircuitBreaker", "DeadlineExceeded", "Overloaded", "ResilienceConfig",
    "ServeFaultPlan", "StaticEstimator", "fit_static_estimate",
]

#: Fallback tiers, best first — the ``served_by`` vocabulary.
TIER_PRIMARY = "primary"
TIER_STALE = "stale"
TIER_DEFAULT = "default"
TIER_STATIC = "static"
TIERS = (TIER_PRIMARY, TIER_STALE, TIER_DEFAULT, TIER_STATIC)


class Overloaded(RuntimeError):
    """The ingress queue is at its bound; the request was shed."""


class DeadlineExceeded(RuntimeError):
    """The request's deadline budget expired before it was served."""


#: Fault kind -> the stem of its ``*_probability`` / ``*_limit`` fields.
_KIND_FIELDS = {
    "slow_flush": "slow_flush",
    "checkpoint_corrupt": "checkpoint_corrupt",
    "registry_io": "registry_io",
    "predict": "predict_failure",
}

#: ``from_spec`` short aliases (every full field name is accepted too).
_SPEC_SHORTHANDS = {
    "slow_flush": "slow_flush_probability",
    "corrupt_checkpoint": "checkpoint_corrupt_probability",
    "checkpoint_corrupt": "checkpoint_corrupt_probability",
    "registry_io": "registry_io_probability",
    "predict_fail": "predict_failure_probability",
    "predict_failure": "predict_failure_probability",
    "predict_fail_limit": "predict_failure_limit",
}


@dataclass(frozen=True)
class ServeFaultPlan:
    """A seeded, deterministic description of serving-plane failures.

    Every decision is a pure function of ``(seed, kind, entity,
    attempt)``: *entity* names what fails (a batcher, a ``cluster-vN``
    model, the registry manifest), *attempt* is its per-kind call index.
    Kinds, each with a probability and an optional ``*_limit`` cap on
    injections per entity:

    - ``slow_flush`` — a batcher flush stalls ``slow_flush_ms``;
    - ``checkpoint_corrupt`` — a load reads as bit rot (evicted);
    - ``registry_io`` — a manifest read raises the transient
      :class:`~repro.serve.registry.RegistryIOError`;
    - ``predict`` (``predict_failure_*``) — a scoring-kernel call (one
      per routed block) raises.

    Probability 1.0 with ``predict_failure_limit=3`` fails exactly the
    first three attempts: a deterministic trip → probe → recover.
    """

    seed: int = 0
    slow_flush_probability: float = 0.0
    slow_flush_ms: float = 50.0
    slow_flush_limit: int | None = None
    checkpoint_corrupt_probability: float = 0.0
    checkpoint_corrupt_limit: int | None = None
    registry_io_probability: float = 0.0
    registry_io_limit: int | None = None
    predict_failure_probability: float = 0.0
    predict_failure_limit: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_probability") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {value}")
            if f.name.endswith("_limit") and value is not None and value < 0:
                raise ValueError(f"{f.name} must be >= 0 (or None)")
        if self.slow_flush_ms < 0:
            raise ValueError("slow_flush_ms must be >= 0")
        # Per-(kind, entity) attempt and injection counters. The plan is
        # frozen (hashable config), so the mutable bookkeeping lives in
        # object.__setattr__-installed slots guarded by one lock.
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_attempts", {})
        object.__setattr__(self, "_injected", {})

    def draw(self, kind: str, entity: str) -> bool:
        """Whether this (kind, entity) attempt fails; advances the attempt.

        Thread-safe, and deterministic per entity whichever thread asks;
        past the kind's injection limit the entity never fails again.
        """
        if kind not in _KIND_FIELDS:
            raise ValueError(f"unknown serve fault kind {kind!r}")
        probability = getattr(self, f"{_KIND_FIELDS[kind]}_probability")
        limit = getattr(self, f"{_KIND_FIELDS[kind]}_limit")
        key = (kind, entity)
        with self._lock:  # type: ignore[attr-defined]
            attempt = self._attempts.get(key, 0)  # type: ignore[attr-defined]
            self._attempts[key] = attempt + 1  # type: ignore[attr-defined]
            injected = self._injected.get(key, 0)  # type: ignore[attr-defined]
            if probability <= 0.0 or (limit is not None and injected >= limit):
                return False
            hit = unit_interval(self.seed, kind, entity, attempt) < probability
            if hit:
                self._injected[key] = injected + 1  # type: ignore[attr-defined]
                telemetry.count(f"serve.fault.{kind}")
            return hit

    def flush_delay_s(self, entity: str) -> float:
        """Injected stall (seconds) for one flush of ``entity`` (often 0)."""
        if self.draw("slow_flush", entity):
            return self.slow_flush_ms / 1e3
        return 0.0

    def reset(self) -> None:
        """Forget all attempt history (fresh chaos run, same decisions)."""
        with self._lock:  # type: ignore[attr-defined]
            self._attempts.clear()  # type: ignore[attr-defined]
            self._injected.clear()  # type: ignore[attr-defined]

    def to_config(self) -> dict[str, float | int | None]:
        """JSON-stable form for reports and cache keys."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_spec(cls, spec: str) -> "ServeFaultPlan":
        """Parse a CLI spec like ``"seed=1,predict_fail=1.0,predict_fail_limit=3"``.

        Same grammar as :meth:`repro.faults.FaultPlan.from_spec`:
        comma-separated ``key=value`` entries, short aliases
        (``slow_flush``, ``corrupt_checkpoint``, ``registry_io``,
        ``predict_fail``) or full field names, unknown keys rejected.
        """
        int_fields = [f.name for f in fields(cls) if f.type.startswith("int")]
        aliases = {**{f.name: f.name for f in fields(cls)}, **_SPEC_SHORTHANDS}
        return cls(**parse_spec(spec, aliases, int_fields=int_fields, label="serve fault"))


#: Breaker states (``CircuitBreaker.state``).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    Closed until ``failure_threshold`` *consecutive* failures, then
    open: :meth:`allow` answers ``False``. After ``reset_after_s`` the
    next :meth:`allow` admits exactly one probe (half-open), whose
    recorded outcome closes or re-opens the breaker. ``clock`` is
    injectable for tests; one lock guards every transition.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s < 0:
            raise ValueError("reset_after_s must be >= 0")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the protected resource may be used right now.

        An open breaker past its cooldown turns half-open; a half-open
        breaker admits one probe at a time.
        """
        with self._lock:
            if self._state == BREAKER_OPEN:
                if self._clock() - self._opened_at >= self.reset_after_s:
                    self._state = BREAKER_HALF_OPEN
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN or self._probe_in_flight:
                return False
            self._probe_in_flight = True
            telemetry.count("serve.breaker.probe")
            return True

    def record_success(self) -> None:
        """A use of the resource succeeded; half-open probes recover."""
        with self._lock:
            if self._state != BREAKER_CLOSED:
                telemetry.count("serve.breaker.recover")
            self._state = BREAKER_CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """A use of the resource failed; trips at the threshold."""
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                telemetry.count("serve.breaker.trip")
                return
            self._consecutive_failures += 1
            if self._state == BREAKER_CLOSED and (
                self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                telemetry.count("serve.breaker.trip")


@dataclass(frozen=True)
class StaticEstimator:
    """The cheap, always-available last fallback tier.

    Per-cluster latency means fit at publish time
    (:func:`fit_static_estimate`) and kept in the registry *manifest*,
    so they survive checkpoint corruption. A prediction is the network's
    mean, scaled by the device's signature speed ratio when signature
    measurements are available — the "static spec" quality floor the
    paper argues real models must beat, as the answer of last resort.
    """

    network_mean_ms: Mapping[str, float]
    signature_mean_ms: Mapping[str, float] = field(default_factory=dict)
    cluster: str = DEFAULT_CLUSTER  # the cluster whose publish captured it

    def predict_ms(
        self, network: str, signature_ms: Mapping[str, float] | None = None
    ) -> float | None:
        """Estimated latency, or ``None`` for networks never averaged."""
        base = self.network_mean_ms.get(network)
        if base is None or not math.isfinite(base) or base <= 0:
            return None
        scale = 1.0
        if signature_ms:
            pairs = [
                (float(value), float(mean))
                for name, mean in self.signature_mean_ms.items()
                if (value := signature_ms.get(name)) is not None
                and math.isfinite(value) and value > 0 and math.isfinite(mean) and mean > 0
            ]
            if pairs:
                device, cluster = zip(*pairs)
                scale = (sum(device) / len(device)) / (sum(cluster) / len(cluster))
        return float(base) * scale

    @classmethod
    def from_metadata(
        cls, metadata: Mapping[str, object], cluster: str = DEFAULT_CLUSTER
    ) -> "StaticEstimator | None":
        """Rebuild from ``cluster``'s checkpoint ``static_estimate`` block."""
        block = metadata.get("static_estimate")
        if not isinstance(block, Mapping):
            return None
        network = block.get("network_mean_ms")
        if not isinstance(network, Mapping) or not network:
            return None
        signature = block.get("signature_mean_ms")
        if not isinstance(signature, Mapping):
            signature = {}
        return cls(
            {str(k): float(v) for k, v in network.items()},
            {str(k): float(v) for k, v in signature.items()},
            cluster,
        )


def fit_static_estimate(
    dataset,
    signature_names: Sequence[str],
    device_names: Sequence[str] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-cluster latency means for :class:`StaticEstimator`, publish-time.

    Averages each network's finite latencies over ``device_names``
    (default: every device; pass a cluster's members for a per-cluster
    publish), omitting networks never observed. The result — two
    JSON-stable name → float maps — is sized for the registry manifest.
    """
    if device_names is None:
        rows = np.arange(len(dataset.device_names))
    else:
        index = {name: i for i, name in enumerate(dataset.device_names)}
        rows = np.array([index[name] for name in device_names if name in index], dtype=int)
    matrix = np.asarray(dataset.latencies_ms, dtype=float)[rows]
    network_mean: dict[str, float] = {}
    for j, name in enumerate(dataset.network_names):
        column = matrix[:, j]
        observed = column[np.isfinite(column)]
        if observed.size:
            network_mean[str(name)] = float(observed.mean())
    signature_mean = {
        name: network_mean[name] for name in signature_names if name in network_mean
    }
    return {"network_mean_ms": network_mean, "signature_mean_ms": signature_mean}


@dataclass(frozen=True)
class ResilienceConfig:
    """The serving-plane resilience knobs, bundled.

    ``max_queue_depth`` bounds the ingress (beyond it: an ``overloaded``
    miss; ``None`` = unbounded). ``deadline_ms`` is the default
    per-request budget (past it: a ``deadline_exceeded`` miss; a
    request's own budget overrides it). ``breaker_threshold``
    consecutive failed load or kernel *calls* open a (cluster, version)
    breaker for ``breaker_reset_s`` before a half-open probe.
    ``fault_plan`` injects seeded chaos into the batcher and service
    (wire it into the :class:`ModelRegistry` too for checkpoint and
    manifest faults). The defaults are the clean-path identity.
    """

    max_queue_depth: int | None = None
    deadline_ms: float | None = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    fault_plan: ServeFaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be >= 0")
