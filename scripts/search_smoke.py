#!/usr/bin/env python
"""CI smoke test for the bulk prediction plane and evolutionary search.

Publishes a collaborative checkpoint to a throwaway registry, wraps the
serving layer in :class:`repro.serve.bulk.BulkQueryPlane`, and asserts,
end to end:

1. a tiny three-generation latency-constrained search is
   seed-reproducible — the same seed yields the same winner and Pareto
   digest on the serial backend twice in a row AND across the serial
   and thread backends, while a different seed explores differently;
2. bulk-plane predictions are byte-identical to the per-request
   definition path (``max_batch=1``, full encode per request);
3. the plane's amortizations engage (in-call duplicates answered once,
   layer rows reused from the plane's memo) and show up in the
   telemetry summary (``serve.bulk`` and ``search`` blocks), where
   every bulk query is a duplicate or an encoded distinct candidate,
   while a fresh plane's memo starts empty: a second search encodes as
   many rows as the first;
4. the CLI ``repro search`` subcommand drives the same machinery end
   to end.

Writes a telemetry JSON-lines report (search counters and bulk-plane
dedup and memo counts included) to the path given as argv[1] (default
``benchmarks/results/search-smoke-telemetry.jsonl``) so CI can upload
it as an artifact. Exits non-zero on any violation. Deliberately small
(tens of seconds) so the tier-1 CI job can afford it on every push.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.core.collaborative import CollaborativeRepository  # noqa: E402
from repro.pipeline import build_paper_artifacts  # noqa: E402
from repro.search import EvolutionSpace, SearchConfig, random_genotype, run_search  # noqa: E402
from repro.serve import (  # noqa: E402
    BulkQueryPlane,
    ModelRegistry,
    PredictRequest,
    PredictionService,
)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def library_smoke() -> None:
    art = build_paper_artifacts(n_random_networks=8, n_devices=16)
    repo = CollaborativeRepository(art.dataset, art.suite, signature_size=4, seed=0)
    for device in art.dataset.device_names[:10]:
        repo.join(device, 0.5)

    with tempfile.TemporaryDirectory(prefix="search-smoke-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        repo.publish_checkpoint(registry)
        device = art.dataset.device_names[0]

        with PredictionService(
            registry, list(art.suite), dataset=art.dataset
        ) as service:
            config = SearchConfig(generations=3, population=12, seed=11)
            results = {}
            for backend, jobs in (("serial", 1), ("thread", 3)):
                results[backend] = run_search(
                    BulkQueryPlane(service),
                    device,
                    SearchConfig(
                        generations=config.generations,
                        population=config.population,
                        seed=config.seed,
                        backend=backend,
                        jobs=jobs,
                    ),
                )
            serial, threaded = results["serial"], results["thread"]
            check(
                serial.digest == threaded.digest
                and serial.winner == threaded.winner,
                f"same seed, same outcome across backends "
                f"(digest {serial.digest[:12]})",
            )
            # Two searches, each on a fresh plane: the layer-row memo
            # belongs to the plane, so the second must encode exactly as
            # many rows as the first (a process-wide memo would hand it
            # the first search's rows).
            computed = []
            for _ in range(2):
                before = telemetry.registry().counter_value("encode.rows_computed")
                rerun = run_search(BulkQueryPlane(service), device, config)
                computed.append(
                    telemetry.registry().counter_value("encode.rows_computed") - before
                )
                check(
                    rerun.digest == serial.digest,
                    "serial rerun reproduces the winner digest bit-for-bit",
                )
            check(
                computed[0] > 0 and computed[0] == computed[1],
                f"a fresh plane starts with an empty layer-row memo "
                f"({computed[0]} and {computed[1]} rows encoded)",
            )
            other = run_search(
                BulkQueryPlane(service),
                device,
                SearchConfig(
                    generations=config.generations,
                    population=config.population,
                    seed=config.seed + 1,
                ),
            )
            check(
                other.digest != serial.digest,
                "a different seed explores a different trajectory",
            )
            check(
                serial.winner is not None
                and serial.winner.latency_ms <= config.latency_budget_ms,
                f"winner respects the {config.latency_budget_ms:.0f} ms budget "
                f"({serial.winner.latency_ms:.1f} ms predicted)"
                if serial.winner
                else "winner exists under the default budget",
            )

            # Bulk plane vs the per-request definition path.
            space = EvolutionSpace()
            rng = np.random.default_rng(0)
            nets = [
                random_genotype(space, rng).to_network(space, f"smoke-{i}")
                for i in range(10)
            ]
            plane = BulkQueryPlane(service)
            bulk = plane.predict_block(nets + nets[:3], device)
            with PredictionService(
                registry,
                list(art.suite),
                dataset=art.dataset,
                max_batch=1,
                max_wait_ms=0.0,
            ) as single:
                per = single.predict_many(
                    [
                        PredictRequest(network=n.name, device=device, definition=n)
                        for n in nets + nets[:3]
                    ]
                )
            a = np.array([r.latency_ms for r in bulk])
            b = np.array([r.latency_ms for r in per])
            check(
                a.tobytes() == b.tobytes(),
                "bulk-plane predictions byte-identical to per-request path",
            )
            check(
                plane.stats["dedup_hits"] == 3
                and plane.stats["predicted"] == len(nets),
                f"within-call dedup engaged ({plane.stats['dedup_hits']} dups "
                f"collapsed onto {plane.stats['predicted']} predictions)",
            )


def cli_smoke() -> None:
    import repro.cli as cli

    original = cli.build_paper_artifacts

    def small_builder(*, seed=0, cache_dir=None, **kwargs):
        return original(seed=seed, n_random_networks=8, n_devices=16, **kwargs)

    cli.build_paper_artifacts = small_builder
    try:
        with tempfile.TemporaryDirectory(prefix="search-smoke-cli-") as registry_dir:
            argv = ["--no-cache", "search", "--registry", registry_dir,
                    "--signature-size", "4", "--generations", "3",
                    "--population", "10", "--seed", "5"]
            check(cli_main(argv) == 0, "CLI search publishes and finds a winner")
    finally:
        cli.build_paper_artifacts = original


def main() -> int:
    out = Path(
        sys.argv[1]
        if len(sys.argv) > 1
        else REPO_ROOT / "benchmarks" / "results" / "search-smoke-telemetry.jsonl"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with telemetry.scoped_registry() as reg:
        library_smoke()
        cli_smoke()
        telemetry.write_report(out, reg)
    summary = telemetry.summarize(reg)
    bulk = summary["serve"]["bulk"]
    search = summary["search"]
    check(
        search["runs"] >= 5 and search["candidates"] > 0,
        f"telemetry counted {search['runs']} runs, "
        f"{search['candidates']} candidates",
    )
    check(
        bulk["dedup_hits"] >= 3
        and bulk["requests"] == bulk["dedup_hits"] + bulk["encoded"],
        f"dedup surfaced ({bulk['dedup_hits']} of {bulk['requests']} queries "
        f"answered as in-call duplicates, {bulk['encoded']} encoded)",
    )
    check(
        bulk["encoding_rows_reused"] > 0,
        f"the layer-row memo engaged ({bulk['encoding_rows_reused']} rows "
        f"reused, {bulk['encoding_rows_computed']} encoded)",
    )
    print(f"telemetry report: {out}")
    print(f"bulk summary: {bulk}")
    print(f"search summary: {search}")
    print("search smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
