"""Search-plane benchmark: bulk generation queries vs per-request path.

Publishes a paper-scale collaborative checkpoint and answers one
1000-candidate evolutionary generation (seeded mutation chains, the
shape of the generations ``run_search`` hands the plane) two ways:
through :class:`repro.serve.bulk.BulkQueryPlane` (one quantize-once
``predict_binned`` call for the whole generation) and through a
degenerate ``max_batch=1`` service where every candidate pays a full
from-scratch encode plus per-call flush overhead.

Before any speedup is reported the byte-identity contract is asserted:
the bulk plane must produce predictions identical to the per-request
path, because the plane's dedup and layer-row memo only change
*work*, never results. A divergence is a correctness bug,
not a perf result.

The measured ratio is asserted against a hard ``MIN_BULK_SPEEDUP``
floor here and gated against the committed
``benchmarks/BENCH_search.json`` baseline by ``benchmarks/regression.py``
(``make bench-gate`` / the CI ``bench-gate`` job). A second test checks
the end-to-end search determinism contract at paper scale: same seed,
same winner and Pareto digest, across serial and thread backends.
"""

import tempfile
import time

import numpy as np

from benchmarks.conftest import run_once
from benchmarks.regression import MIN_BULK_SPEEDUP
from repro.analysis.reporting import format_table
from repro.core.collaborative import CollaborativeRepository
from repro.search import EvolutionSpace, SearchConfig, mutate, random_genotype, run_search
from repro.serve import BulkQueryPlane, ModelRegistry, PredictRequest, PredictionService

_MEMBERS = 40
_POPULATION = 1000
#: The per-request reference answers a sample and extrapolates
#: linearly — conservative, since it has no batch amortization to lose.
_SAMPLE = 200


def _published_registry(artifacts, registry_dir):
    repo = CollaborativeRepository(
        artifacts.dataset, artifacts.suite, signature_size=10, seed=0
    )
    for device in artifacts.dataset.device_names[:_MEMBERS]:
        repo.join(device, 0.5)
    registry = ModelRegistry(registry_dir)
    repo.publish_checkpoint(registry)
    return repo, registry


def _generation(population):
    """Seeded mutation-chain candidates: 25-candidate lineages whose
    children share most layers with their parents."""
    space = EvolutionSpace()
    rng = np.random.default_rng(0)
    candidates = []
    genotype = None
    for i in range(population):
        if i % 25 == 0:
            genotype = random_genotype(space, rng)
        else:
            genotype, _ = mutate(genotype, space, rng)
        candidates.append(genotype.to_network(space, f"gen-{i}"))
    return candidates


def test_perf_search_bulk_plane(benchmark, artifacts, report):
    candidates = _generation(_POPULATION)
    with tempfile.TemporaryDirectory(prefix="perf-search-") as registry_dir:
        _, registry = _published_registry(artifacts, registry_dir)
        device = artifacts.dataset.device_names[0]

        def experiment():
            timings = {}
            sample = candidates[:_SAMPLE]
            with PredictionService(
                registry,
                list(artifacts.suite),
                dataset=artifacts.dataset,
                max_batch=1,
                max_wait_ms=0.0,
            ) as single:
                start = time.perf_counter()
                sample_responses = single.predict_many(
                    [
                        PredictRequest(network=n.name, device=device, definition=n)
                        for n in sample
                    ]
                )
                sample_s = time.perf_counter() - start
            timings["per-request (extrapolated)"] = sample_s * (
                _POPULATION / _SAMPLE
            )
            with PredictionService(
                registry, list(artifacts.suite), dataset=artifacts.dataset
            ) as service:
                plane = BulkQueryPlane(service)
                start = time.perf_counter()
                bulk_responses = plane.predict_block(candidates, device)
                timings["bulk generation"] = time.perf_counter() - start
                stats = dict(plane.stats)
            return timings, sample_responses, bulk_responses, stats

        timings, sample_responses, bulk_responses, stats = run_once(
            benchmark, experiment
        )

    single_pred = np.array([r.latency_ms for r in sample_responses])
    bulk_pred = np.array([r.latency_ms for r in bulk_responses[:_SAMPLE]])
    assert single_pred.tobytes() == bulk_pred.tobytes(), (
        "bulk-plane predictions are not byte-identical to per-request "
        "predictions"
    )
    assert all(r.ok for r in bulk_responses)

    speedup = timings["per-request (extrapolated)"] / timings["bulk generation"]
    qps = _POPULATION / timings["bulk generation"]
    rows = [[k, f"{v:.3f}"] for k, v in timings.items()]
    rows.append(["bulk speedup", f"{speedup:.2f}x"])
    rows.append(["bulk queries/s", f"{qps:.0f}"])
    rows.append(["rows predicted", str(stats["predicted"])])
    rows.append(["dedup hits", str(stats["dedup_hits"])])
    report(
        f"search bulk plane (generation of {_POPULATION} candidates)\n"
        + format_table(["metric", "value"], rows)
    )
    assert speedup >= MIN_BULK_SPEEDUP


def test_perf_search_backend_determinism(benchmark, artifacts, report):
    with tempfile.TemporaryDirectory(prefix="perf-search-") as registry_dir:
        _, registry = _published_registry(artifacts, registry_dir)
        device = artifacts.dataset.device_names[0]

        def experiment():
            out = {}
            with PredictionService(
                registry, list(artifacts.suite), dataset=artifacts.dataset
            ) as service:
                for backend, jobs in (("serial", 1), ("thread", 4)):
                    config = SearchConfig(
                        generations=6,
                        population=48,
                        seed=0,
                        backend=backend,
                        jobs=jobs,
                    )
                    start = time.perf_counter()
                    result = run_search(
                        BulkQueryPlane(service), device, config
                    )
                    out[backend] = (result, time.perf_counter() - start)
            return out

        results = run_once(benchmark, experiment)

    serial, serial_s = results["serial"]
    threaded, thread_s = results["thread"]
    assert serial.digest == threaded.digest, (
        "same seed produced different search outcomes across backends"
    )
    assert serial.winner == threaded.winner
    rows = [
        ["serial run", f"{serial_s:.3f} s"],
        ["thread run", f"{thread_s:.3f} s"],
        ["digest", serial.digest[:16]],
        ["pareto points", str(len(serial.pareto))],
        [
            "winner latency",
            f"{serial.winner.latency_ms:.1f} ms" if serial.winner else "-",
        ],
        ["candidates evaluated", str(serial.evaluated)],
    ]
    report(
        "search backend determinism (6 generations x 48 candidates)\n"
        + format_table(["metric", "value"], rows)
    )
