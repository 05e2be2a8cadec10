"""Command-line interface to the reproduction pipeline.

Subcommands mirror the workflow a user of the paper's system would run:

- ``build``        build the suite/fleet and collect the latency dataset
                   (alias: ``collect``)
- ``eda``          exploratory analysis: clusters, spec relations
- ``signature``    select a signature set (rs / mis / sccs)
- ``evaluate``     train + evaluate a cost model on a device split
- ``collaborate``  run the Section-V collaborative simulation
- ``predict``      predict a network's latency on a device in the fleet
- ``serve``        publish a checkpoint and answer a request stream
                   through the micro-batched prediction service
- ``loadtest``     drive the service with the deterministic load
                   generator and report p50/p99 latency + throughput
- ``search``       latency-constrained evolutionary architecture
                   search, one bulk-plane prediction call per
                   generation
- ``shard``        fleet-scale sharded campaign: the latency matrix
                   stays on disk, collected shard by shard under a
                   residency budget; optionally trains and publishes
                   one routed model per cluster

Examples
--------
::

    python -m repro build --out dataset.npz
    python -m repro build --faults seed=1,dropout=0.05,fail=0.2 --max-retries 5
    python -m repro build --resume
    python -m repro collect --telemetry-out report.jsonl
    python -m repro signature --method mis --size 10
    python -m repro evaluate --method sccs --split-seed 7
    python -m repro collaborate --fraction 0.1 --iterations 50
    python -m repro --adversaries seed=7,fraction=0.2 collaborate --admission
    python -m repro predict --network mobilenet_v2_1.0 --device redmi_note_5_pro
    python -m repro serve --requests 200 --max-batch 32
    python -m repro loadtest --mode open --rate 2000 --requests 1000
    python -m repro search --generations 8 --population 32 --latency-budget-ms 400
    python -m repro shard --devices 1000 --shard-by chipset --max-resident-mb 512
    python -m repro shard --train --registry .repro-registry
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import telemetry
from repro.analysis.clustering import cluster_devices, cluster_networks, cpu_cluster_overlap
from repro.analysis.eda import latency_spread_at_fixed_spec
from repro.analysis.reporting import format_table
from repro.core.collaborative import simulate_collaboration
from repro.core.evaluation import device_split_evaluation
from repro.core.signature import select_signature_set
from repro.dataset.sharded import SHARD_KEYS
from repro.devices.measurement import MeasurementHarness
from repro.faults import AdversaryPlan, FaultPlan, RetryPolicy
from repro.parallel import BACKENDS
from repro.pipeline import build_paper_artifacts
from repro.trust import AGGREGATES, AdmissionController

__all__ = ["build_parser", "main"]

_DEFAULT_CACHE = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalizable DNN cost models for mobile devices "
        "(IISWC 2020 reproduction)",
    )
    parser.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE,
        help="directory of the content-addressed latency cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the latency cache (no reads, no writes)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (0 or -1 = all CPUs; default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="executor backend (default: $REPRO_BACKEND, else serial/process by --jobs)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="devices per streaming campaign block (scheduling only; "
        "never changes results)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic campaign failures, e.g. "
        "'seed=1,dropout=0.05,fail=0.2,corrupt=0.02' "
        "(see README 'Fault tolerance')",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retries per device before quarantine (default: 3)",
    )
    parser.add_argument(
        "--adversaries",
        metavar="SPEC",
        default=None,
        help="inject deterministic Byzantine devices, e.g. "
        "'seed=7,fraction=0.2,unit_scale=1' "
        "(see README 'Byzantine robustness')",
    )
    parser.add_argument(
        "--aggregate",
        choices=AGGREGATES,
        default="mean",
        help="how repeated runs collapse into one measurement "
        "(default: mean, the paper's protocol)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from its row checkpoint "
        "(requires the cache; completed devices are not re-measured)",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="collect telemetry and write a JSON-lines report here "
        "(also enabled via $REPRO_TELEMETRY; see README 'Observability')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", aliases=["collect"], help="collect the full latency dataset"
    )
    p_build.add_argument("--out", help="optional .npz path to export the dataset")

    p_eda = sub.add_parser("eda", help="exploratory data analysis")
    p_eda.add_argument(
        "--network", default="mobilenet_v2_1.0",
        help="network for the spec-spread report",
    )

    p_sig = sub.add_parser("signature", help="select a signature set")
    p_sig.add_argument("--method", choices=("rs", "mis", "sccs"), default="mis")
    p_sig.add_argument("--size", type=int, default=10)
    p_sig.add_argument("--selection-seed", type=int, default=0)

    p_eval = sub.add_parser("evaluate", help="train/evaluate on a device split")
    p_eval.add_argument("--method", choices=("rs", "mis", "sccs"), default="mis")
    p_eval.add_argument("--size", type=int, default=10)
    p_eval.add_argument("--split-seed", type=int, default=7)
    p_eval.add_argument("--selection-seed", type=int, default=0)

    p_collab = sub.add_parser("collaborate", help="Section-V simulation")
    p_collab.add_argument("--fraction", type=float, default=0.1)
    p_collab.add_argument("--iterations", type=int, default=50)
    p_collab.add_argument("--every", type=int, default=5)
    p_collab.add_argument(
        "--regressor-seed",
        type=int,
        default=0,
        help="seed of the per-checkpoint cost-model regressor",
    )
    p_collab.add_argument(
        "--incremental",
        action="store_true",
        help="warm-start the model across checkpoints (appends trees "
        "instead of retraining from scratch; faster, approximate)",
    )
    p_collab.add_argument(
        "--incremental-trees",
        type=int,
        default=20,
        help="boosting rounds appended per checkpoint with --incremental",
    )
    p_collab.add_argument(
        "--incremental-min-devices",
        type=int,
        default=10,
        help="full refits until this many devices joined (with --incremental)",
    )
    p_collab.add_argument(
        "--incremental-refresh-factor",
        type=float,
        default=2.0,
        help="refit from scratch when membership grows past this factor "
        "of the last full fit (with --incremental; bounds bin-edge "
        "staleness, doubling schedule by default)",
    )
    p_collab.add_argument(
        "--admission",
        action="store_true",
        help="screen every join through the trust layer (schema/range/"
        "duplicate checks, peer statistics, reputation; see README "
        "'Byzantine robustness')",
    )

    p_pred = sub.add_parser("predict", help="predict one (network, device) latency")
    p_pred.add_argument("--network", required=True)
    p_pred.add_argument("--device", required=True)
    p_pred.add_argument("--method", choices=("rs", "mis", "sccs"), default="mis")
    p_pred.add_argument("--size", type=int, default=10)

    def add_serving_args(p) -> None:
        p.add_argument(
            "--registry",
            default=".repro-registry",
            help="model-registry directory (created on first publish)",
        )
        p.add_argument(
            "--publish",
            action="store_true",
            help="train and publish a fresh checkpoint version even if "
            "the registry already has one",
        )
        p.add_argument("--members", type=int, default=None,
                       help="devices joining the collaborative model "
                       "(default: every eligible device)")
        p.add_argument("--signature-size", type=int, default=10)
        p.add_argument("--max-batch", type=int, default=64,
                       help="micro-batch size cap")
        p.add_argument("--max-wait-ms", type=float, default=0.0,
                       help="0 = flush when the worker is idle; > 0 = wait "
                       "up to this long for batch-mates")
        p.add_argument("--cold-fraction", type=float, default=0.1,
                       help="fraction of devices issuing cold requests "
                       "(shipping their own signature measurements)")
        p.add_argument("--unknown-fraction", type=float, default=0.02,
                       help="fraction of requests naming unknown networks")
        p.add_argument("--loadgen-seed", type=int, default=0,
                       help="seed of the deterministic request stream")
        p.add_argument("--max-queue-depth", type=int, default=None,
                       help="ingress bound; submissions beyond it are shed "
                       "with an 'overloaded' miss (default: unbounded)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline budget; requests past it "
                       "resolve to 'deadline_exceeded' misses")
        p.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive model failures before its circuit "
                       "breaker opens")
        p.add_argument("--breaker-reset-s", type=float, default=30.0,
                       help="cooldown before an open breaker admits a probe")
        p.add_argument("--serve-faults", default=None, metavar="SPEC",
                       help="seeded serving chaos, e.g. "
                       "'seed=1,slow_flush=0.1,predict_fail=0.05' "
                       "(keys: seed, slow_flush[_ms|_limit], "
                       "corrupt_checkpoint, registry_io, predict_fail, "
                       "plus *_limit caps)")

    p_serve = sub.add_parser(
        "serve", help="publish a checkpoint and serve a demo request stream"
    )
    add_serving_args(p_serve)
    p_serve.add_argument("--requests", type=int, default=200,
                         help="demo requests to answer before exiting")

    p_load = sub.add_parser(
        "loadtest", help="drive the service with the seeded load generator"
    )
    add_serving_args(p_load)
    p_load.add_argument("--requests", type=int, default=1000)
    p_load.add_argument("--mode", choices=("closed", "open"), default="closed")
    p_load.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop offered rate (requests/s)")
    p_load.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop worker count")
    p_load.add_argument("--arrival", choices=("poisson", "uniform"),
                        default="poisson", help="open-loop inter-arrival law")

    p_search = sub.add_parser(
        "search",
        help="latency-constrained evolutionary architecture search over "
        "the bulk prediction plane",
    )
    add_serving_args(p_search)
    p_search.add_argument("--device", default=None,
                          help="target device (default: first warm fleet "
                          "device)")
    p_search.add_argument("--generations", type=int, default=8)
    p_search.add_argument("--population", type=int, default=32)
    p_search.add_argument("--latency-budget-ms", type=float, default=400.0,
                          help="predicted-latency constraint (mobile-CPU scale:\n hundreds of ms)")
    p_search.add_argument("--seed", dest="search_seed", type=int, default=None,
                          help="search RNG seed (default: the global --seed)")
    p_search.add_argument("--tournament-k", type=int, default=3)
    p_search.add_argument("--pareto", type=int, default=5,
                          help="Pareto-front rows to print")

    p_shard = sub.add_parser(
        "shard",
        help="fleet-scale sharded campaign (matrix stays on disk)",
    )
    p_shard.add_argument(
        "--store",
        default=".repro-shards",
        help="shard-store directory (re-running resumes completed shards)",
    )
    p_shard.add_argument(
        "--shard-by",
        choices=SHARD_KEYS,
        default="chipset",
        help="cluster key partitioning the fleet into shards",
    )
    p_shard.add_argument(
        "--max-resident-mb",
        type=float,
        default=None,
        help="residency budget: collection batches and the shard cache "
        "are sized to stay under this many MB (default: unbounded)",
    )
    p_shard.add_argument(
        "--enforce-budget",
        action="store_true",
        help="fail the campaign if peak RSS exceeds --max-resident-mb "
        "(the perf-gate contract)",
    )
    p_shard.add_argument("--devices", type=int, default=105,
                         help="fleet size (paper: 105)")
    p_shard.add_argument("--networks", type=int, default=100,
                         help="random networks beyond the 18-network zoo")
    p_shard.add_argument(
        "--train",
        action="store_true",
        help="after collection, train one model per shard and publish "
        "them to the registry with per-cluster routing",
    )
    p_shard.add_argument("--registry", default=".repro-registry",
                         help="model-registry directory for --train")
    p_shard.add_argument("--signature-size", type=int, default=10)
    p_shard.add_argument("--fraction", type=float, default=0.1,
                         help="non-signature contribution fraction per device")
    p_shard.add_argument(
        "--admission",
        action="store_true",
        help="screen every shard's joins through one streaming "
        "admission ladder (peer context carries across shards)",
    )
    p_shard.add_argument(
        "--warm-batch-devices",
        type=int,
        default=None,
        help="warm-start per-shard fits in batches of this many devices "
        "(default: one full fit per shard, byte-identical to in-memory)",
    )
    p_shard.add_argument("--incremental-trees", type=int, default=20,
                         help="boosting rounds appended per warm-start batch")
    return parser


def _cmd_build(args, art) -> int:
    summary = art.dataset.summary()
    print(f"suite    : {len(art.suite)} networks")
    print(f"fleet    : {len(art.fleet)} devices "
          f"({len(art.fleet.cpu_histogram())} CPU families, "
          f"{len(art.fleet.chipset_histogram())} chipsets)")
    n_observed = int(summary["n_points"] - summary["n_missing"])
    print(f"dataset  : {n_observed} measurements")
    if summary["n_missing"]:
        completeness = art.dataset.device_completeness()
        quarantined = sum(1 for f in completeness.values() if f == 0.0)
        partial = sum(1 for f in completeness.values() if 0.0 < f < 1.0)
        print(f"missing  : {int(summary['n_missing'])} cells "
              f"({quarantined} quarantined, {partial} partial devices)")
    print(f"latency  : min {summary['min_ms']:.1f}  median {summary['median_ms']:.1f}"
          f"  max {summary['max_ms']:.1f} ms")
    if args.out:
        art.dataset.save(args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_eda(args, art) -> int:
    dev_summaries, dev_labels = cluster_devices(art.dataset)
    print("device clusters:")
    rows = [[s.name, s.size, s.mean_latency_ms, s.median_latency_ms]
            for s in dev_summaries]
    print(format_table(["cluster", "devices", "mean ms", "median ms"], rows,
                       float_format="{:.1f}"))
    net_summaries, _ = cluster_networks(art.dataset)
    print("\nnetwork clusters:")
    rows = [[s.name, s.size, s.mean_latency_ms] for s in net_summaries]
    print(format_table(["cluster", "networks", "mean ms"], rows,
                       float_format="{:.1f}"))
    overlap = cpu_cluster_overlap(art.fleet, art.dataset, dev_labels)
    straddlers = sorted(c for c, cl in overlap.items() if len(cl) > 1)
    print("\nCPUs straddling clusters:", ", ".join(straddlers) or "none")

    if args.network not in art.dataset.network_names:
        print(f"error: unknown network {args.network!r}", file=sys.stderr)
        return 2
    spread = latency_spread_at_fixed_spec(art.dataset, art.fleet, args.network)
    worst = max(spread.items(), key=lambda kv: kv[1][1] / kv[1][0], default=None)
    if worst:
        (freq, dram), (lo, hi, n) = worst
        print(f"\n{args.network}: worst same-spec spread "
              f"{hi / lo:.2f}x at {freq:.1f} GHz / {dram} GB ({n} devices)")
    return 0


def _cmd_signature(args, art) -> int:
    chosen = select_signature_set(
        art.dataset.latencies_ms, args.size, args.method, rng=args.selection_seed
    )
    print(f"{args.method.upper()} signature set (size {args.size}):")
    for index in chosen:
        name = art.dataset.network_names[index]
        print(f"  {name}  ({art.suite.work(name).macs / 1e6:.0f} MMACs)")
    return 0


def _cmd_evaluate(args, art) -> int:
    result = device_split_evaluation(
        art.dataset, art.suite,
        signature_size=args.size, method=args.method,
        split_seed=args.split_seed, selection_rng=args.selection_seed,
    )
    print(f"method          : {result.method.upper()}")
    print(f"signature set   : {', '.join(result.signature_names)}")
    print(f"train devices   : {len(result.train_devices)}")
    print(f"test devices    : {len(result.test_devices)}")
    print(f"test R^2        : {result.r2:.4f}")
    print(f"test RMSE       : {result.rmse_ms:.2f} ms")
    return 0


def _cmd_collaborate(args, art) -> int:
    controller = AdmissionController(()) if args.admission else None
    records = simulate_collaboration(
        art.dataset, art.suite,
        contribution_fraction=args.fraction,
        n_iterations=args.iterations,
        evaluate_every=args.every,
        seed=args.seed,
        regressor_seed=args.regressor_seed,
        jobs=args.jobs,
        backend=args.backend,
        incremental=args.incremental,
        incremental_trees=args.incremental_trees,
        incremental_min_devices=args.incremental_min_devices,
        incremental_refresh_factor=args.incremental_refresh_factor,
        admission=controller,
    )
    rows = [[r.n_devices, r.n_training_points, r.avg_r2] for r in records]
    print(format_table(["devices", "measurements", "avg R^2"], rows,
                       float_format="{:.4f}"))
    if controller is not None:
        summary = controller.summary()
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(summary["reasons"].items())
        ) or "none"
        print(f"admission : {summary['accepted']} accepted, "
              f"{summary['rejected']} rejected, "
              f"{summary['quarantined']} quarantine events, "
              f"{summary['rehabilitated']} rehabilitated "
              f"({summary['quarantined_devices']} devices quarantined now)")
        print(f"rejections: {reasons}")
    return 0


def _cmd_predict(args, art) -> int:
    if args.network not in art.dataset.network_names:
        print(f"error: unknown network {args.network!r}", file=sys.stderr)
        return 2
    if args.device not in art.dataset.device_names:
        print(f"error: unknown device {args.device!r}", file=sys.stderr)
        return 2
    from repro.core.cost_model import CostModel, default_regressor
    from repro.core.representation import NetworkEncoder, SignatureHardwareEncoder

    chosen = select_signature_set(
        art.dataset.latencies_ms, args.size, args.method, rng=args.seed
    )
    sig_names = [art.dataset.network_names[i] for i in chosen]
    if args.network in sig_names:
        actual = art.dataset.latency(args.device, args.network)
        print(f"{args.network} is in the signature set; measured "
              f"latency: {actual:.1f} ms")
        return 0
    encoder = NetworkEncoder(list(art.suite))
    hw = SignatureHardwareEncoder(sig_names)
    model = CostModel(encoder, hw, default_regressor(args.seed))
    device_hw = {
        d: hw.encode_from_dataset(art.dataset, d) for d in art.dataset.device_names
    }
    targets = [n for n in art.dataset.network_names
               if n not in sig_names and n != args.network]
    X, y = model.build_training_set(
        art.dataset, art.suite, device_hw, network_names=targets
    )
    model.fit(X, y)
    prediction = model.predict_one(
        encoder.encode(art.suite[args.network]), device_hw[args.device]
    )
    actual = art.dataset.latency(args.device, args.network)
    print(f"network   : {args.network}")
    print(f"device    : {args.device}")
    print(f"predicted : {prediction:.1f} ms")
    print(f"measured  : {actual:.1f} ms")
    print(f"error     : {100 * abs(prediction - actual) / actual:.1f}%")
    return 0


def _serving_service(args, art):
    """Resolve a ready-to-serve (service, repository) pair.

    Publishes a checkpoint when the registry is empty (or ``--publish``
    forces a fresh version), then starts the micro-batched service
    pre-warmed from the measured dataset. The caller owns closing the
    returned service.
    """
    from repro.pipeline import publish_serving_checkpoint
    from repro.serve import ModelRegistry, PredictionService
    from repro.serve.resilience import ResilienceConfig, ServeFaultPlan

    serve_fault_plan = None
    if getattr(args, "serve_faults", None):
        try:
            serve_fault_plan = ServeFaultPlan.from_spec(args.serve_faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
    # Publishing runs against the clean registry — chaos is wired in
    # only for the serving path, after the checkpoint exists.
    registry = ModelRegistry(args.registry)
    repo = None
    if args.publish or not registry.clusters():
        repo, checkpoint = publish_serving_checkpoint(
            art,
            args.registry,
            signature_size=args.signature_size,
            members=args.members,
            seed=args.seed,
        )
        print(f"published : {checkpoint.cluster} v{checkpoint.version} "
              f"(key {checkpoint.key}, "
              f"{checkpoint.metadata.get('n_devices', '?')} member devices)")
    registry.fault_plan = serve_fault_plan
    resilience = ResilienceConfig(
        max_queue_depth=getattr(args, "max_queue_depth", None),
        deadline_ms=getattr(args, "deadline_ms", None),
        breaker_threshold=getattr(args, "breaker_threshold", 3),
        breaker_reset_s=getattr(args, "breaker_reset_s", 30.0),
        fault_plan=serve_fault_plan,
    )
    service = PredictionService(
        registry,
        list(art.suite),
        dataset=art.dataset,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        resilience=resilience,
    )
    return service, repo


def _serving_signature_names(service) -> list[str]:
    """Signature networks of the model currently serving ``default``."""
    from repro.serve import DEFAULT_CLUSTER

    loaded = service.router.models.get(DEFAULT_CLUSTER)
    if loaded is None:
        raise RuntimeError("registry has no default-cluster model to serve")
    return list(loaded.signature_names)


def _cmd_serve(args, art) -> int:
    from repro.serve.loadgen import LoadProfile, build_requests

    service, _ = _serving_service(args, art)
    with service:
        versions = ", ".join(
            f"{c}=v{v}" for c, v in service.model_versions().items()
        )
        print(f"serving   : {versions} "
              f"(max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms)")
        profile = LoadProfile(
            n_requests=args.requests,
            cold_fraction=args.cold_fraction,
            unknown_fraction=args.unknown_fraction,
            seed=args.loadgen_seed,
        )
        requests = build_requests(
            art.dataset, _serving_signature_names(service), profile
        )
        responses = service.predict_many(requests)
        stats = service.batch_stats()
        health = service.health()
    served = [r for r in responses if r.ok]
    misses: dict[str, int] = {}
    tiers: dict[str, int] = {}
    for r in responses:
        if not r.ok:
            misses[r.error] = misses.get(r.error, 0) + 1
        elif r.served_by is not None:
            tiers[r.served_by] = tiers.get(r.served_by, 0) + 1
    print(f"answered  : {len(served)}/{len(responses)} requests")
    if misses:
        print("misses    : " + ", ".join(f"{k}={v}" for k, v in sorted(misses.items())))
    if any(t != "primary" for t in tiers) or len(tiers) > 1:
        print("served_by : " + ", ".join(f"{k}={v}" for k, v in sorted(tiers.items())))
    print(f"batches   : {stats.batches} "
          f"(max size {stats.max_batch_seen}; flushes "
          + ", ".join(f"{k}={v}" for k, v in sorted(stats.flushes.items())) + ")")
    print(f"health    : {health['status']} "
          f"(shed overloaded={health['shed_overloaded']} "
          f"deadline={health['shed_deadline']})")
    if served:
        lat = sorted(r.latency_ms for r in served)
        print(f"predicted : min {lat[0]:.1f}  median {lat[len(lat) // 2]:.1f}  "
              f"max {lat[-1]:.1f} ms")
    return 0


def _cmd_loadtest(args, art) -> int:
    from repro.serve.loadgen import LoadProfile, build_requests, run_load

    service, _ = _serving_service(args, art)
    with service:
        profile = LoadProfile(
            n_requests=args.requests,
            mode=args.mode,
            rate_rps=args.rate,
            concurrency=args.concurrency,
            cold_fraction=args.cold_fraction,
            unknown_fraction=args.unknown_fraction,
            arrival=args.arrival,
            seed=args.loadgen_seed,
            deadline_ms=getattr(args, "deadline_ms", None),
        )
        requests = build_requests(
            art.dataset, _serving_signature_names(service), profile
        )
        report = run_load(service, requests, profile)
        stats = service.batch_stats()
    knob = (f"rate {args.rate:.0f} rps" if args.mode == "open"
            else f"concurrency {args.concurrency}")
    print(f"mode       : {args.mode} ({knob})")
    print(f"requests   : {report.n_requests} ({report.n_errors} misses)")
    print(f"throughput : {report.throughput_rps:.1f} requests/s")
    print(f"latency    : p50 {report.p50_ms:.3f}  p99 {report.p99_ms:.3f}  "
          f"max {report.max_ms:.3f} ms")
    print(f"batching   : {stats.batches} batches, max size {stats.max_batch_seen} "
          "(flushes "
          + ", ".join(f"{k}={v}" for k, v in sorted(stats.flushes.items())) + ")")
    print(f"error rate : {100 * report.error_rate:.1f}% "
          f"(shed overloaded={report.n_shed_overloaded} "
          f"deadline={report.n_deadline_misses} degraded={report.n_degraded})")
    if report.served_by:
        print("served_by  : " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.served_by.items())))
    print(f"digest     : {report.digest()}")
    return 0


def _cmd_search(args, art) -> int:
    from repro.search import SearchConfig, run_search
    from repro.serve import BulkQueryPlane

    service, _ = _serving_service(args, art)
    plane = BulkQueryPlane(service)
    with service:
        device = args.device
        if device is None:
            device = next(
                (d for d in art.dataset.device_names if service.is_warm(d)), None
            )
        if device is None or not service.is_warm(device):
            print(f"error: device {device!r} has no warm signature "
                  "measurements", file=sys.stderr)
            return 2
        config = SearchConfig(
            generations=args.generations,
            population=args.population,
            latency_budget_ms=args.latency_budget_ms,
            seed=args.seed if args.search_seed is None else args.search_seed,
            tournament_k=args.tournament_k,
            backend=args.backend or "serial",
            jobs=args.jobs or 1,
        )
        result = run_search(plane, device, config)
    stats = plane.stats
    print(f"device     : {device} "
          f"(budget {config.latency_budget_ms:.1f} ms, seed {config.seed})")
    print(f"evaluated  : {result.evaluated} unique candidates over "
          f"{config.generations} generations of {config.population}")
    if result.winner is None:
        print("winner     : none feasible under the budget")
    else:
        w = result.winner
        print(f"winner     : {w.content_hash[:12]}  "
              f"{w.latency_ms:.2f} ms  acc~{w.accuracy:.2f}  "
              f"({w.genotype.n_blocks} blocks)")
    print(f"pareto     : {len(result.pareto)} points")
    for c in result.pareto[: args.pareto]:
        print(f"  {c.content_hash[:12]}  {c.latency_ms:8.2f} ms  "
              f"acc~{c.accuracy:6.2f}  {c.genotype.n_blocks} blocks")
    total = max(stats["requests"], 1)
    print(f"bulk plane : {stats['requests']} queries, {stats['predicted']} "
          f"predicted ({100 * stats['dedup_hits'] / total:.0f}% answered as "
          f"in-call duplicates), {plane.cache_info()['layer_rows']} layer rows")
    print(f"digest     : {result.digest}")
    return 0


def _cmd_shard(args, harness, fault_plan, adversary_plan, retry_policy) -> int:
    """Run the fleet-scale campaign; never builds the full matrix."""
    from repro.pipeline import build_sharded_artifacts

    art = build_sharded_artifacts(
        store_dir=args.store,
        seed=args.seed,
        n_random_networks=args.networks,
        n_devices=args.devices,
        shard_by=args.shard_by,
        max_resident_mb=args.max_resident_mb,
        enforce_budget=args.enforce_budget,
        jobs=args.jobs,
        backend=args.backend,
        harness=harness,
        fault_plan=fault_plan,
        adversary_plan=adversary_plan,
        retry_policy=retry_policy,
        checkpoint_dir=None if args.no_cache else args.cache_dir,
        resume=args.resume,
        block_size=args.block_size,
    )
    sharded = art.sharded
    summary = sharded.summary()
    print(f"suite    : {len(art.suite)} networks")
    print(f"fleet    : {len(art.fleet)} devices, {sharded.n_shards} "
          f"{args.shard_by} shards")
    print(f"observed : {sharded.observed_cells()} cells "
          f"({100 * summary['observed_fraction']:.1f}% of the matrix)")
    print(f"latency  : min {summary['latency_min_ms']:.1f}  "
          f"mean {summary['latency_mean_ms']:.1f}  "
          f"max {summary['latency_max_ms']:.1f} ms")
    peak = telemetry.peak_rss_mb()
    budget = (f" (budget {args.max_resident_mb:.0f} MB)"
              if args.max_resident_mb else "")
    print(f"peak RSS : {peak:.0f} MB{budget}")
    if not args.train:
        return 0

    from repro.core.collaborative import train_sharded_repository
    from repro.serve.registry import ModelRegistry

    controller = AdmissionController(()) if args.admission else None
    report = train_sharded_repository(
        sharded,
        art.suite,
        ModelRegistry(args.registry),
        signature_size=args.signature_size,
        contribution_fraction=args.fraction,
        seed=args.seed,
        admission=controller,
        warm_batch_devices=args.warm_batch_devices,
        incremental_trees=args.incremental_trees,
    )
    rows = [[r.cluster, r.n_devices, r.n_rejected, r.n_warm_batches, r.r2, r.version]
            for r in report.shards]
    print(format_table(
        ["cluster", "devices", "rejected", "warm", "R^2", "version"],
        rows, float_format="{:.4f}",
    ))
    print(f"published : {len(report.shards)} cluster models + default "
          f"(routed from {report.default_cluster!r})")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "collect": _cmd_build,
    "eda": _cmd_eda,
    "signature": _cmd_signature,
    "evaluate": _cmd_evaluate,
    "collaborate": _cmd_collaborate,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "search": _cmd_search,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    report_path = telemetry.configure_from_env()
    if args.telemetry_out:
        telemetry.enable()
        report_path = args.telemetry_out
    try:
        fault_plan = FaultPlan.from_spec(args.faults) if args.faults else None
        adversary_plan = (
            AdversaryPlan.from_spec(args.adversaries) if args.adversaries else None
        )
        retry_policy = (
            RetryPolicy(max_retries=args.max_retries)
            if args.max_retries is not None
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume and args.no_cache:
        print("error: --resume needs the campaign checkpoint and is "
              "incompatible with --no-cache", file=sys.stderr)
        return 2
    try:
        with telemetry.span("stage.total"):
            harness = (
                MeasurementHarness(seed=args.seed, aggregate=args.aggregate)
                if args.aggregate != "mean"
                else None
            )
            if args.command == "shard":
                return _cmd_shard(
                    args, harness, fault_plan, adversary_plan, retry_policy
                )
            art = build_paper_artifacts(
                seed=args.seed,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                jobs=args.jobs,
                backend=args.backend,
                harness=harness,
                fault_plan=fault_plan,
                adversary_plan=adversary_plan,
                retry_policy=retry_policy,
                resume=args.resume,
                block_size=args.block_size,
            )
            return _COMMANDS[args.command](args, art)
    finally:
        if report_path:
            out = telemetry.write_report(report_path)
            print(f"telemetry report: {out}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
