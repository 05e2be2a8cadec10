"""Seeded evolutionary latency-constrained search over the bulk plane.

:func:`run_search` evolves a population of :class:`~repro.search.space.
Genotype` candidates under a predicted-latency budget. Each generation
is evaluated by **one** :meth:`~repro.serve.bulk.BulkQueryPlane.
predict_block` call (whose layer-row memo encodes each distinct layer
once per plane); selection is tournament-on-fitness with elitism, and
the result carries the best feasible candidate plus the Pareto front
over (predicted latency, accuracy proxy).

The accuracy proxy is a deterministic, closed-form diminishing-returns
function of the candidate's MAC count and depth — no training in the
loop, as in predictor-based NAS — chosen so bigger/deeper candidates
score higher but latency grows faster, which makes the latency budget
a real constraint and the Pareto front non-degenerate. Its MAC count
comes from :func:`~repro.nnir.flops.network_work` with a per-run layer
memo, so each distinct layer is priced once per run.

Each run owns a :class:`~repro.search.space.LayerMemo`, so a layer any
earlier candidate had is handed over as the same finished object
rather than built again, and each candidate's content hash is computed
once, on the network object, though both the plane and the run ask for
it. The memo is the executor map's shared object itself, not a dict,
which ``Executor.map`` would rebuild on every call, so the workers fill
the run's own memo.

Determinism: all randomness comes from one ``default_rng(seed)``;
genotype materialization runs through the ordered
:class:`~repro.parallel.Executor` map (serial or thread backend —
results are position-stable either way, and a layer's value does not
depend on which worker built it first); ties break on content hash.
``SearchResult.digest`` is a SHA-256 over the winner and the sorted
Pareto front, so two runs agree iff they found byte-identical results.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.representation import network_content_hash
from repro.nnir.flops import LayerWork, network_work
from repro.parallel import get_executor
from repro.search.space import EvolutionSpace, Genotype, LayerMemo, mutate, random_genotype
from repro.serve.bulk import BulkQueryPlane
from repro.serve.registry import DEFAULT_CLUSTER

__all__ = [
    "Candidate",
    "SearchConfig",
    "SearchResult",
    "accuracy_proxy",
    "pareto_front",
    "run_search",
]


def accuracy_proxy(macs: int, n_blocks: int) -> float:
    """Deterministic stand-in for validation accuracy (percent-ish).

    Monotone in both compute and depth with diminishing returns —
    ``60·(1−e^(−macs/150M)) + 20·(1−e^(−blocks/8))`` — so capacity
    helps, but doubling an already-large candidate buys little while
    its predicted latency keeps climbing.
    """
    return float(
        60.0 * (1.0 - math.exp(-macs / 150e6))
        + 20.0 * (1.0 - math.exp(-n_blocks / 8.0))
    )


@dataclass(frozen=True)
class Candidate:
    """One evaluated point: genotype + prediction + proxy score."""

    genotype: Genotype
    content_hash: str
    latency_ms: float
    accuracy: float

    def feasible(self, budget_ms: float) -> bool:
        return self.latency_ms <= budget_ms


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run (all deterministic inputs)."""

    generations: int = 8
    population: int = 32
    latency_budget_ms: float = 400.0
    seed: int = 0
    tournament_k: int = 3
    backend: str = "serial"
    jobs: int = 1
    cluster: str = DEFAULT_CLUSTER
    space: EvolutionSpace = field(default_factory=EvolutionSpace)

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population < 2:
            raise ValueError("need generations >= 1 and population >= 2")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """What a search run returns (digest-stable across backends)."""

    winner: Candidate | None
    pareto: tuple[Candidate, ...]
    digest: str
    generations: tuple[dict, ...]
    evaluated: int

    @property
    def best_latency_ms(self) -> float | None:
        return self.winner.latency_ms if self.winner else None

    @property
    def best_accuracy(self) -> float | None:
        return self.winner.accuracy if self.winner else None


def pareto_front(candidates: list[Candidate]) -> tuple[Candidate, ...]:
    """Non-dominated set over (latency_ms min, accuracy max).

    Deterministic: sweep in (latency, −accuracy, hash) order, keep a
    point iff it strictly improves the best accuracy seen so far — so
    among equal-latency points only the most accurate (lowest hash on
    exact ties) survives.
    """
    ordered = sorted(
        candidates, key=lambda c: (c.latency_ms, -c.accuracy, c.content_hash)
    )
    front: list[Candidate] = []
    best_acc = -math.inf
    for c in ordered:
        if c.accuracy > best_acc:
            front.append(c)
            best_acc = c.accuracy
    return tuple(front)


def _result_digest(winner: Candidate | None, front: tuple[Candidate, ...]) -> str:
    """SHA-256 over the winner and the Pareto front, byte-exact.

    ``repr`` of the float64 values round-trips exactly, so two runs
    produce equal digests iff their predictions and proxies are
    byte-identical — the cross-backend contract the smoke test gates.
    """
    h = hashlib.sha256()
    if winner is not None:
        h.update(winner.content_hash.encode())
        h.update(repr(winner.latency_ms).encode())
        h.update(repr(winner.accuracy).encode())
    for c in front:
        h.update(b"\x00")
        h.update(c.content_hash.encode())
        h.update(repr(c.latency_ms).encode())
        h.update(repr(c.accuracy).encode())
    return h.hexdigest()


def _fitness(candidate: Candidate, budget_ms: float) -> float:
    """Feasible candidates rank by proxy accuracy; infeasible ones sit
    strictly below every feasible one, ordered by budget overshoot."""
    if candidate.feasible(budget_ms):
        return candidate.accuracy
    return candidate.accuracy - 1e3 - (candidate.latency_ms - budget_ms)


def _materialize(layers: LayerMemo, task: tuple[int, Genotype]):
    index, genotype = task
    return genotype.to_network(layers.space, f"search-cand-{index}", layers=layers)


def run_search(
    plane: BulkQueryPlane,
    device: str,
    config: SearchConfig,
    *,
    signature_ms=None,
) -> SearchResult:
    """Evolve under the latency budget; one bulk call per generation.

    ``device`` must be warm in the underlying service (or ship its own
    ``signature_ms``). Candidates the serving model cannot answer (an
    ``unencodable`` or routing miss) are treated as infeasible and die
    out of the population naturally.
    """
    space = config.space
    encoder = plane.service.encoder
    if space.max_network_layers > encoder.max_layers:
        raise ValueError(
            f"space can build {space.max_network_layers}-layer networks but the "
            f"serving encoder is sized for {encoder.max_layers}; shrink "
            "max_blocks or the stage count"
        )
    start = time.perf_counter()
    telemetry.count("search.runs")
    rng = np.random.default_rng(config.seed)
    executor = get_executor(config.backend, config.jobs)
    population = [random_genotype(space, rng) for _ in range(config.population)]

    evaluated: dict[str, Candidate] = {}
    proxy_memo: dict[str, float] = {}
    layer_memo = LayerMemo(space)  # to_network's finished layers
    layer_work: dict[tuple, LayerWork] = {}  # network_work's per-layer memo
    gen_stats: list[dict] = []
    counter = 0

    for generation in range(config.generations):
        telemetry.count("search.generations")
        tasks = list(enumerate(population, start=counter))
        counter += len(tasks)
        networks = executor.map(_materialize, tasks, shared=layer_memo)
        responses = plane.predict_block(
            networks,
            device,
            cluster=config.cluster,
            signature_ms=signature_ms,
        )
        telemetry.count("search.candidates", len(population))

        candidates: list[Candidate] = []
        for genotype, network, response in zip(population, networks, responses):
            if not response.ok:
                telemetry.count(f"search.miss.{response.error}")
                continue
            content = network_content_hash(network)
            acc = proxy_memo.get(content)
            if acc is None:
                acc = accuracy_proxy(
                    network_work(network, layer_work).macs, genotype.n_blocks
                )
                proxy_memo[content] = acc
            candidate = Candidate(
                genotype=genotype,
                content_hash=content,
                latency_ms=response.latency_ms,
                accuracy=acc,
            )
            candidates.append(candidate)
            evaluated[content] = candidate
        if not candidates:
            raise RuntimeError(
                "no candidate in the generation could be served — is the "
                "device warm and a model published?"
            )
        feasible = [c for c in candidates if c.feasible(config.latency_budget_ms)]
        telemetry.count("search.feasible", len(feasible))
        ranked = sorted(
            candidates,
            key=lambda c: (-_fitness(c, config.latency_budget_ms), c.content_hash),
        )
        gen_stats.append(
            {
                "generation": generation,
                "n_feasible": len(feasible),
                "best_fitness_latency_ms": ranked[0].latency_ms,
                "best_fitness_accuracy": ranked[0].accuracy,
            }
        )

        if generation == config.generations - 1:
            break
        # Elitism: the fittest candidate survives unchanged (its
        # prediction is a cache hit next generation); the rest of the
        # next population are tournament-selected mutated children.
        elite = ranked[0]
        next_population: list[Genotype] = [elite.genotype]
        while len(next_population) < config.population:
            picks = rng.integers(len(candidates), size=config.tournament_k)
            parent = min(
                (candidates[int(p)] for p in picks),
                key=lambda c: (-_fitness(c, config.latency_budget_ms), c.content_hash),
            )
            child, kind = mutate(parent.genotype, space, rng)
            telemetry.count(f"search.mutation.{kind}")
            next_population.append(child)
        population = next_population

    all_candidates = list(evaluated.values())
    front = pareto_front(all_candidates)
    feasible_all = [
        c for c in all_candidates if c.feasible(config.latency_budget_ms)
    ]
    winner = (
        min(feasible_all, key=lambda c: (-c.accuracy, c.latency_ms, c.content_hash))
        if feasible_all
        else None
    )
    telemetry.set_gauge("search.pareto_size", len(front))
    if winner is not None:
        telemetry.set_gauge("search.best_latency_ms", winner.latency_ms)
        telemetry.set_gauge("search.best_accuracy", winner.accuracy)
    telemetry.observe("search.run_s", time.perf_counter() - start)
    return SearchResult(
        winner=winner,
        pareto=front,
        digest=_result_digest(winner, front),
        generations=tuple(gen_stats),
        evaluated=len(evaluated),
    )
