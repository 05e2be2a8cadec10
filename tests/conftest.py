"""Shared fixtures: a scaled-down dataset triple for fast tests.

The paper-scale artifacts (118 networks x 105 devices) take seconds to
build and much longer to model; unit/integration tests run on a small
but structurally identical triple.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.collection import collect_dataset
from repro.devices.catalog import build_fleet
from repro.devices.measurement import MeasurementHarness
from repro.generator.random_gen import RandomNetworkGenerator
from repro.generator.suite import BenchmarkSuite
from repro.generator.zoo import build_zoo
from repro.nnir.graph import Layer, Network
from repro.nnir.ops import Conv2d, InvertedBottleneck, TensorShape
from repro.search.space import EvolutionSpace, mutate, random_genotype


@pytest.fixture(scope="session")
def small_suite() -> BenchmarkSuite:
    """18 zoo networks + 12 random ones (30 total)."""
    return BenchmarkSuite.default(n_random=12, seed=0)


@pytest.fixture(scope="session")
def small_fleet():
    """A 24-device fleet."""
    return build_fleet(24, seed=0)


@pytest.fixture(scope="session")
def small_dataset(small_suite, small_fleet):
    """Latencies of the small suite on the small fleet."""
    return collect_dataset(small_suite, small_fleet, MeasurementHarness(seed=0))


@pytest.fixture(scope="session")
def memo_population():
    """Networks that share many layers, for the per-layer memo tests.

    Every zoo network, 50 random networks, a 200-candidate seeded
    mutation chain, and two networks whose bottlenecks differ only in
    ``use_se=0`` / ``use_se=1`` against ``use_se=False`` / ``True``:
    value-equal operators with different reprs.
    """
    space = EvolutionSpace()
    rng = np.random.default_rng(0)
    genotype = random_genotype(space, rng)
    chain = []
    for i in range(200):
        genotype, _ = mutate(genotype, space, rng)
        chain.append(genotype.to_network(space, f"chain-{i}"))

    def bottlenecks(name, off, on):
        return Network(name, TensorShape(3, 32, 32), [
            Layer(Conv2d(3, 16, 3, 2, 1)),
            Layer(InvertedBottleneck(16, 16, 6, 3, 1, use_se=off), (0,)),
            Layer(InvertedBottleneck(16, 24, 6, 5, 2, use_se=on), (1,)),
        ])

    return [
        *build_zoo(),
        *RandomNetworkGenerator(seed=0).generate_many(50),
        *chain,
        bottlenecks("se-ints", 0, 1),
        bottlenecks("se-bools", False, True),
    ]
