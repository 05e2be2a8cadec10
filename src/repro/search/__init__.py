"""Latency-constrained evolutionary architecture search (ROADMAP 3b).

The paper's cost model exists to be *queried* — hardware-aware
architecture search is its canonical consumer. This package runs an
OFA-style evolutionary search over an elastic MBConv chain space
(depth / width / kernel mutations, tournament selection) against a
latency budget, with every generation evaluated through the
:class:`~repro.serve.bulk.BulkQueryPlane` in **one** flat-SoA
prediction call.

Determinism contract: a search run is a pure function of
(:class:`SearchConfig`, space, the served model version, the device's
signature vector). All randomness flows from one seeded generator,
candidate materialization runs through the ordered
:class:`~repro.parallel.Executor` map, predictions are byte-identical
across query paths, and the accuracy proxy is a closed-form function
of the candidate — so the same seed yields the same winner and the
same Pareto-front digest on the serial and thread backends
(``scripts/search_smoke.py`` and ``tests/test_search.py`` assert it).
"""

from repro.search.evolution import (
    Candidate,
    SearchConfig,
    SearchResult,
    accuracy_proxy,
    pareto_front,
    run_search,
)
from repro.search.space import (
    EvolutionSpace,
    Genotype,
    LayerMemo,
    MUTATION_KINDS,
    mutate,
    random_genotype,
)

__all__ = [
    "MUTATION_KINDS",
    "Candidate",
    "EvolutionSpace",
    "Genotype",
    "LayerMemo",
    "SearchConfig",
    "SearchResult",
    "accuracy_proxy",
    "mutate",
    "pareto_front",
    "random_genotype",
    "run_search",
]
