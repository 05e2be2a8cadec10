"""One repeat of one workload, run in a fresh interpreter.

``python -m benchmarks.e2e`` starts this module once per repeat as
``python -m benchmarks.e2e.child SPEC``, where SPEC is a JSON object
with ``workload``, ``seed``, ``scale``, ``seconds`` (how long the
pipeline, closed-loop and search workloads keep starting operations),
``trace``, ``spans`` (where a traced repeat writes its spans) and
``spawned`` (the wall-clock time the parent started this process, so
set-up time includes interpreter start and imports). The repeat prints
one JSON result object as the last line of its standard output.

Between operations the repeat times :func:`reference_ms`, a fixed kernel
that never calls the program. Each such calibration point gives a host
factor: how much slower than on a calm host (:data:`KERNEL`) the kernel
ran. Each operation's factor is the mean of the points before and after
it, and set-up's is the first point's, so the parent can report times
at reference host speed.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import pipeline as rp
from repro.core import evaluation
from repro.search import SearchConfig, evolution
from repro.serve import BulkQueryPlane, ModelRegistry, PredictionService, PredictRequest
from repro.serve.loadgen import UNKNOWN_PREFIX, LoadProfile, build_requests
from repro.serve.service import MISS_UNKNOWN_NETWORK

from benchmarks.e2e.trace import FLUSH, HOOKS, SETUP_LAYERS, SERVE, Tracer

#: Requests per ``predict_many`` call and client threads of the closed loop.
CHUNK = 64
CLIENTS = 2
#: Latency limit of the open loop's service-level share.
SLO_MS = 10.0
#: The open loop is invalid when its generator runs later than this (p99).
MAX_LATE_MS = 1.0
#: The traced run fails when its layers leave more of the wall time unexplained.
MAX_UNATTRIBUTED = 0.05
SEARCH_BUDGET_MS = 400.0
#: Seconds to wait for any one response before declaring the run hung.
RESULT_TIMEOUT_S = 60.0
#: Kernel runs per calibration point.
CALIBRATION_RUNS = 3
#: Campaign seeds of one repeat's pipelines are ``seed + k * PIPELINE_SEED_STEP``.
PIPELINE_SEED_STEP = 100_000

_reference_rng = np.random.default_rng(0)
#: 300,000 Python floats (~7 MB), and a fixed random order to visit 30,000
#: of them in. Tuples of atomic values drop out of the collector's view,
#: so they add nothing to the program's garbage collections.
_REFERENCE_OBJECTS = tuple(float(x) for x in _reference_rng.random(300_000))
_REFERENCE_ORDER = tuple(_reference_rng.permutation(len(_REFERENCE_OBJECTS))[:30_000].tolist())
_REFERENCE_ARRAY = _reference_rng.random((256, 256))


def _interpreter() -> None:
    total = 0
    for i in range(70_000):
        total += i * i


def _objects() -> None:
    objects, total = _REFERENCE_OBJECTS, 0.0
    for i in _REFERENCE_ORDER:
        total += objects[i]


def _arrays() -> None:
    a = _REFERENCE_ARRAY
    for _ in range(10):
        a = np.sort(a, axis=0)


#: The reference kernel's parts, one per kind of work the program does,
#: with each part's median time on a calm 2-vCPU Xeon (Sapphire Rapids) VM.
KERNEL = {
    "interpreter": (_interpreter, 4.0),  # interpreted loops
    "objects": (_objects, 4.0),  # walks over Python objects beyond the L2 cache
    "arrays": (_arrays, 4.0),  # NumPy array passes
}
#: The parts a workload's host factor uses: what its operations are made
#: of. Search and serving are interpreted code over Python objects; the
#: pipeline's campaign, signature selection and GBT fits are array work
#: as well, which the host slows less (a host factor without the array
#: part overcorrected the pipeline by up to a fifth when the host ran 2x
#: slow).
KERNEL_PARTS = {"pipeline": ("interpreter", "objects", "arrays")}
DEFAULT_PARTS = ("interpreter", "objects")


def reference_ms(part: str) -> float:
    """Wall time of one part of the reference kernel, in ms.

    The kernel never touches the program, so its time moves only with
    the host's speed: fewer cycles for the interpreter, slower memory
    under the neighbours' cache and bandwidth pressure.
    """
    start = time.perf_counter()
    KERNEL[part][0]()
    return (time.perf_counter() - start) * 1e3


class Repeat:
    """What one repeat measured and checked."""

    def __init__(self, spawned: float, parts: tuple[str, ...] = DEFAULT_PARTS) -> None:
        self.spawned = spawned
        self.parts = parts
        self.first_op: float | None = None
        self.ops: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict[str, float] = {}
        self.layer_values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.invalid: str | None = None
        self.measured_from = math.inf
        #: Host factor at each calibration point, and of each operation.
        self.points: list[float] = []
        self.factors: dict[str, list[float]] = {}

    def start_timing(self) -> None:
        """Mark the end of set-up: the first timed operation starts now.

        A full collection first settles what set-up left for the
        collector, so a 15-20 ms full collection of set-up garbage does
        not land at a random point of the measured phase. Collections of
        what the measured phase allocates still happen, and are measured.
        The first calibration point follows set-up.
        """
        gc.collect()
        self.first_op = time.time()
        self.calibrate()
        self.measured_from = time.monotonic()

    def calibrate(self) -> None:
        """Add a calibration point; call between operations, never inside one.

        The point's host factor is the geometric mean, over the kernel
        parts, of each part's median time over its calm-host time.
        """
        log_factor = 0.0
        for part in self.parts:
            runs = [reference_ms(part) for _ in range(CALIBRATION_RUNS)]
            log_factor += math.log(statistics.median(runs) / KERNEL[part][1])
        self.points.append(math.exp(log_factor / len(self.parts)))

    def add(self, group: str, values: list[float]) -> None:
        """Record operation times measured between the last two calibration points."""
        factor = (self.points[-2] + self.points[-1]) / 2
        self.ops.setdefault(group, []).extend(values)
        self.factors.setdefault(group, []).extend([factor] * len(values))

    def more(self, seconds: float) -> bool:
        """Whether to start another operation ``seconds`` into the measured phase."""
        return time.monotonic() - self.measured_from < seconds

    def fail_op(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            self.problems.append(message)


def digest(vector: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vector, dtype=float).tobytes()).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def root_span(tracer: Tracer | None, workload: str):
    """The traced run's root span around a workload's timed calls."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(f"workload.{workload}")


def build_artifacts(spec: dict, seed: int | None = None):
    scale = spec["scale"]
    return rp.build_paper_artifacts(
        seed=spec["seed"] if seed is None else seed,
        n_random_networks=scale["n_random"],
        n_devices=scale["n_devices"],
        use_cache=False,
        backend="serial",
        jobs=1,
    )


# -- workloads ----------------------------------------------------------------


def pipeline(spec: dict, rep: Repeat, registry: Path, tracer: Tracer | None) -> None:
    """Cold pipelines, one after another: campaign -> device-split
    evaluation -> publish -> service start.

    The k-th pipeline measures campaign seed ``seed + k *
    PIPELINE_SEED_STEP`` into a registry of its own, so no in-process
    memo of an earlier pipeline answers for a later one. The first one
    measures ``seed`` itself and gives the repeat's ``r2``.
    """
    scale = spec["scale"]
    rep.start_timing()
    k = 0
    while k == 0 or rep.more(spec["seconds"]):
        seed = spec["seed"] + k * PIPELINE_SEED_STEP
        target = registry / f"pipeline-{k}"
        with root_span(tracer, "pipeline"):
            start = time.perf_counter()
            art = build_artifacts(spec, seed)
            result = evaluation.device_split_evaluation(
                art.dataset, art.suite, signature_size=scale["signature_size"], method="mis"
            )
            rp.publish_serving_checkpoint(
                art, target, signature_size=scale["signature_size"], seed=seed
            )
            service = PredictionService(ModelRegistry(target), list(art.suite), dataset=art.dataset)
            elapsed_ms = (time.perf_counter() - start) * 1e3
        status = service.health()["status"]
        service.close()
        del art, service  # never hold two campaigns at once
        rep.calibrate()
        rep.add("pipeline", [elapsed_ms])
        if k == 0:
            rep.values["r2"] = result.r2
            rep.digests["digest"] = repr(result.r2)
        if status != "ok" or not result.r2 > 0.5:
            rep.fail_op(f"pipeline {k}: service {status}, test R^2 {result.r2!r}")
        k += 1
    rep.attempted = k


class Stream:
    """The seeded request stream, kept as plain fields and rebuilt per slice.

    A client builds each request when it sends it. Holding 48,000 request
    objects instead would nearly double the cost of every full collection
    the service pays during the measured phase (12 ms against 7 ms).
    """

    def __init__(self, requests) -> None:
        self.fields = [(r.network, r.device, r.cluster) for r in requests]
        self.signatures = {r.device: r.signature_ms for r in requests if r.signature_ms}

    def __len__(self) -> int:
        return len(self.fields)

    def networks(self, stop: int) -> list[str]:
        return [network for network, _, _ in self.fields[:stop]]

    def requests(self, start: int, stop: int) -> list[PredictRequest]:
        return [
            PredictRequest(network, device, cluster, self.signatures.get(device))
            for network, device, cluster in self.fields[start:stop]
        ]


class Answers:
    """Answers to a request stream: one float each, NaN for a miss.

    Only the miss reasons are kept besides. Holding the 48,000 response
    objects instead would grow the heap enough to set off 15-30 ms full
    collections in the middle of the closed loop.
    """

    def __init__(self, n: int) -> None:
        self.preds = np.full(n, np.nan)
        self.misses: dict[int, str] = {}

    def record(self, start: int, responses) -> None:
        for i, response in enumerate(responses, start):
            if response.ok:
                self.preds[i] = response.latency_ms
            else:
                self.misses[i] = response.error


def check_answers(networks, answers: Answers, reference, rep: Repeat | None = None):
    """Which answers are right; counts each wrong one as a failed request.

    A miss is right only when it is an ``unknown_network`` miss on a
    synthesized ``unknown-net-*`` request. Any other miss, or an answer
    that is not a finite latency equal to the reference answer (for the
    requests ``reference`` covers), is a failed request.
    """
    preds = answers.preds
    good = np.isfinite(preds)
    if reference is not None:
        good[: len(reference)] &= preds[: len(reference)] == reference
    for i, network in enumerate(networks):
        if network.startswith(UNKNOWN_PREFIX):
            good[i] = answers.misses.get(i) == MISS_UNKNOWN_NETWORK
        if not good[i] and rep is not None:
            rep.fail_op(f"request {i} ({network}): {answers.misses.get(i, preds[i])!r}")
    return good


def serve_setup(spec: dict, rep: Repeat, registry: Path):
    """Publish, start the service, draw the request stream, warm up.

    The warm-up answers the open loop's requests (the stream's head)
    through full 64-request ``predict_many`` calls, one call at a time;
    its answers are the reference every later answer to the same request
    must equal byte for byte. Returns the service, the stream and the
    reference.
    """
    scale = spec["scale"]
    art = build_artifacts(spec)
    _, checkpoint = rp.publish_serving_checkpoint(
        art, registry, signature_size=scale["signature_size"], seed=spec["seed"]
    )
    service = PredictionService(ModelRegistry(registry), list(art.suite), dataset=art.dataset)
    stream = Stream(build_requests(
        art.dataset,
        checkpoint.signature_names,
        LoadProfile(n_requests=scale["burst_requests"], seed=spec["seed"]),
    ))
    n_head = sum(n for _, n in scale["open_phases"])
    head = stream.requests(0, n_head)
    warm = Answers(n_head)
    for k in range(0, n_head, CHUNK):
        warm.record(k, service.predict_many(head[k : k + CHUNK], timeout=RESULT_TIMEOUT_S))
    wrong = int((~check_answers(stream.networks(n_head), warm, None)).sum())
    if wrong:
        rep.problems.append(f"warm-up: {wrong} wrong answers")
    return service, stream, warm.preds


def serve_open(spec: dict, rep: Repeat, registry: Path, tracer: Tracer | None) -> None:
    """Poisson arrivals from one generator thread, timed from each due time."""
    service, stream, reference = serve_setup(spec, rep, registry)
    requests = stream.requests(0, len(reference))
    rng = np.random.default_rng([spec["seed"], 1])
    offsets, phase_of = [], []
    clock = 0.0
    for rate, n in spec["scale"]["open_phases"]:
        offsets.extend(clock + np.cumsum(rng.exponential(1.0 / rate, n)))
        phase_of.extend([f"r{rate}"] * n)
        clock = offsets[-1]
    submitted = np.zeros(len(requests))
    done = np.zeros(len(requests))
    futures = []
    answers = Answers(len(requests))
    try:
        rep.start_timing()
        base = time.monotonic() + 0.005
        due = base + np.asarray(offsets)
        for i, request in enumerate(requests):
            delay = due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            submitted[i] = time.monotonic()
            future = service.submit(request)
            future.add_done_callback(functools.partial(_mark_done, done, i))
            futures.append(future)
        answers.record(0, [f.result(timeout=RESULT_TIMEOUT_S) for f in futures])
    finally:
        service.close()
    rep.calibrate()
    if tracer is not None:
        for i, future in enumerate(futures):
            record = getattr(future, "e2e_record", None)
            if record is not None:
                record[0] = due[i]
    latency_ms = (done - due) * 1e3
    late_ms = (submitted - due) * 1e3
    good = check_answers(stream.networks(len(requests)), answers, reference, rep)
    rep.attempted = len(requests)
    phase_of = np.asarray(phase_of)
    for phase in dict.fromkeys(phase_of):
        rep.add(phase, latency_ms[phase_of == phase].tolist())
    top = phase_of == phase_of[-1]
    rep.values[f"slo_share.{phase_of[-1]}"] = float(np.mean(good[top] & (latency_ms[top] <= SLO_MS)))
    rep.values["late_ms.p99"] = percentile(late_ms, 99)
    rep.layer_values["loadgen.late_ms.p99"] = rep.values["late_ms.p99"]
    rep.digests["digest"] = digest(answers.preds)
    if rep.values["late_ms.p99"] > MAX_LATE_MS:
        rep.invalid = (
            f"generator p99 lateness {rep.values['late_ms.p99']:.3f} ms > {MAX_LATE_MS} ms"
        )


def _mark_done(done: np.ndarray, i: int, _future) -> None:
    done[i] = time.monotonic()


def burst_pass(service: PredictionService, stream: Stream) -> tuple[Answers, list[float], float]:
    """Two closed-loop clients over the whole stream, each with one
    64-request call in flight. Returns the answers, each call's latency
    in ms and the pass's wall time in seconds."""
    answers = Answers(len(stream))
    call_ms: list[list[float]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def client(c: int) -> None:
        try:
            for k in range(c * CHUNK, len(stream), CLIENTS * CHUNK):
                requests = stream.requests(k, k + CHUNK)
                start = time.perf_counter()
                out = service.predict_many(requests, timeout=RESULT_TIMEOUT_S)
                call_ms[c].append((time.perf_counter() - start) * 1e3)
                answers.record(k, out)  # clients write disjoint positions
        except Exception as exc:  # handed to the main thread below
            errors.append(exc)

    start = time.perf_counter()
    helper = threading.Thread(target=client, args=(1,), name="e2e-client-1")
    helper.start()
    try:
        client(0)
    finally:
        helper.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return answers, [ms for client_ms in call_ms for ms in client_ms], wall


def pin_to_one_cpu() -> None:
    """Run this thread, and every thread it starts from now on, on one CPU.

    The closed loop's three threads hand Python's interpreter lock back
    and forth on every call. Across two CPUs each hand-off waits for the
    other CPU to wake, and on a shared host that wait is what varies: in
    interleaved runs on a 2-vCPU VM, the median call took 4.1-6.2 ms in
    six runs unpinned and 3.1-3.5 ms in eleven of twelve pinned. The open
    loop stays unpinned: on one CPU its generator fell more than 1 ms
    behind (p99) in 5 of 35 repeats, against 4 of 64 unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def serve_burst(spec: dict, rep: Repeat, registry: Path, tracer: Tracer | None) -> None:
    """Passes of the closed loop over the whole stream, one after another
    for ``seconds``. The first pass's answers to the stream's head must
    equal the warm-up's, and every later pass's answers the first's."""
    pin_to_one_cpu()  # before the service starts its batcher thread
    service, stream, reference = serve_setup(spec, rep, registry)
    networks = stream.networks(len(stream))
    passes, wall = 0, 0.0
    try:
        rep.start_timing()
        while passes == 0 or rep.more(spec["seconds"]):
            answers, call_ms, seconds = burst_pass(service, stream)
            rep.calibrate()
            rep.add("call", call_ms)
            wall += seconds
            check_answers(networks, answers, reference, rep)
            if passes == 0:
                rep.digests["digest"] = digest(answers.preds)
                rep.digests["prefix"] = digest(answers.preds[: len(reference)])
                reference = answers.preds
            passes += 1
    finally:
        service.close()
    rep.attempted = passes * len(stream)
    rep.values["rps"] = rep.attempted / wall


def search(spec: dict, rep: Repeat, registry: Path, tracer: Tracer | None) -> None:
    """Latency-constrained evolutionary searches through the bulk plane.

    Searches run one after another for ``seconds``. Each gets a fresh
    plane, so its caches start cold; all of a repeat's searches have the
    same inputs and must find the same result.
    """
    scale = spec["scale"]
    art = build_artifacts(spec)
    service, _ = rp.build_search_plane(
        art, registry, signature_size=scale["signature_size"], seed=spec["seed"]
    )
    device = art.dataset.device_names[spec["seed"] % art.dataset.n_devices]
    config = SearchConfig(
        generations=scale["generations"],
        population=scale["population"],
        latency_budget_ms=SEARCH_BUDGET_MS,
        seed=spec["seed"],
        backend="serial",
        jobs=1,
    )
    results = []
    try:
        rep.start_timing()
        while not results or rep.more(spec["seconds"]):
            plane = BulkQueryPlane(service)
            with root_span(tracer, "search"):
                start = time.perf_counter()
                results.append(evolution.run_search(plane, device, config))
                elapsed_ms = (time.perf_counter() - start) * 1e3
            rep.calibrate()
            rep.add("search", [elapsed_ms])
    finally:
        service.close()
    rep.attempted = len(results)
    rep.digests["digest"] = results[0].digest
    for result in results:
        # A predicted latency may be negative: the forest extrapolates
        # below zero for some small candidates, and the search rightly
        # counts them as within budget.
        best = result.best_latency_ms
        if result.digest != results[0].digest:
            rep.fail_op("search: same inputs, different result within one process")
        elif best is None or not best <= SEARCH_BUDGET_MS:
            rep.fail_op(f"search: no winner within {SEARCH_BUDGET_MS} ms (best {best!r})")
        else:
            rep.values["best_ms"] = best
    stats = plane.stats
    requests = max(stats["requests"], 1)
    rep.layer_values["serve.bulk.enc_hit_ratio"] = stats["enc_hits"] / max(
        stats["enc_hits"] + stats["enc_misses"], 1
    )
    rep.layer_values["serve.bulk.pred_hit_ratio"] = stats["pred_hits"] / requests
    rep.layer_values["serve.bulk.dedup_ratio"] = stats["dedup_hits"] / requests


WORKLOADS = {
    "pipeline": pipeline,
    "serve-open": serve_open,
    "serve-burst": serve_burst,
    "search": search,
}

#: Per-layer values the workload measures itself rather than from spans.
_REPORTED = (
    "serve.bulk.enc_hit_ratio",
    "serve.bulk.pred_hit_ratio",
    "serve.bulk.dedup_ratio",
    "loadgen.late_ms.p99",
)


# -- the traced run's layer metrics ---------------------------------------------


def layer_metrics(tracer: Tracer, workload: str, rep: Repeat) -> tuple[dict, list]:
    """Per-layer metrics of a traced repeat, and its self-time table.

    Also appends a problem for every hook that recorded no call on the
    workload meant to exercise it, and when the layers leave
    ``MAX_UNATTRIBUTED`` or more of the measured time unexplained.
    """
    whole = tracer.layer_totals()
    measured = tracer.layer_totals(since=rep.measured_from)
    metrics: dict[str, float] = {}
    for layer in dict.fromkeys(hook[2] for hook in HOOKS):
        t = (whole if layer in SETUP_LAYERS else measured).get(layer, {})
        metrics[f"{layer}_s"] = t.get("seconds", 0.0)
        metrics[f"{layer}_calls"] = t.get("calls", 0)
        metrics[f"{layer}_rows"] = t.get("rows", 0)
    block = measured.get("ml.gbt.predict_block", {})
    metrics["ml.gbt.predict_block_us_per_row"] = (
        block["seconds"] / block["rows"] * 1e6 if block.get("rows") else 0.0
    )
    for name in _REPORTED:
        metrics[name] = rep.layer_values.get(name, 0.0)

    # Serve requests: [due, submit, flush_start, flush_end, done]; the
    # closed loop has no due time, so its requests are due on submission.
    requests = np.array(
        [
            [r[1] if r[0] is None else r[0], *r[1:]]
            for r in tracer.requests
            if r[1] >= rep.measured_from and r[4] is not None
        ]
    ).reshape(-1, 5)
    flushes = np.array(tracer.calls(FLUSH, since=rep.measured_from)).reshape(-1, 3)
    queue_ms = (requests[:, 2] - requests[:, 1]) * 1e3
    flush_ms = (flushes[:, 1] - flushes[:, 0]) * 1e3
    metrics["serve.batcher.queue_wait_ms.p50"] = percentile(queue_ms, 50)
    metrics["serve.batcher.queue_wait_ms.p99"] = percentile(queue_ms, 99)
    metrics["serve.batcher.batch_size_mean"] = float(flushes[:, 2].mean()) if len(flushes) else 0.0
    # A partial flush inside the measured phase is a timeout flush: the
    # service drains (shutdown flushes) only after the phase ends.
    metrics["serve.batcher.timeout_flush_share"] = (
        float(np.mean(flushes[:, 2] < CHUNK)) if len(flushes) else 0.0
    )
    metrics["serve.service.flush_ms.p50"] = percentile(flush_ms, 50)
    metrics["serve.service.flush_ms.p99"] = percentile(flush_ms, 99)
    metrics["serve.deliver_ms.p50"] = percentile((requests[:, 4] - requests[:, 3]) * 1e3, 50)

    root = f"workload.{workload}"
    wall = measured.get(root, {}).get("seconds", 0.0)
    own = tracer.self_by_layer(since=rep.measured_from)
    if workload in SERVE:
        # The stamps split each traced request's latency exactly into
        # lateness, queue wait, flush and delivery, so what is left
        # unexplained is the requests that passed no traced flush.
        metrics["unattributed_share"] = 1.0 - len(requests) / max(rep.attempted, 1)
    else:
        # The root span's self time: wall time no layer span covers.
        metrics["unattributed_share"] = own.get(root, wall) / wall if wall > 0 else 1.0
    table = [
        {
            "layer": layer,
            "calls": measured.get(layer, {}).get("calls", 0),
            "total_s": measured.get(layer, {}).get("seconds", 0.0),
            "self_s": seconds,
            "self_share": seconds / wall if wall > 0 else None,
        }
        for layer, seconds in own.items()
    ]

    for module, path, layer, _, expected in HOOKS:
        if workload in expected and not whole.get(layer, {}).get("calls"):
            rep.problems.append(f"wrapper {module}.{path} ({layer}) recorded no calls")
    if workload in SERVE and not len(flushes):
        rep.problems.append("the tracing batcher recorded no flushes")
    if metrics["unattributed_share"] >= MAX_UNATTRIBUTED:
        rep.problems.append(
            f"unattributed share {metrics['unattributed_share']:.3f} >= {MAX_UNATTRIBUTED}"
        )
    return metrics, table


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    workload = spec["workload"]
    rep = Repeat(spec["spawned"], KERNEL_PARTS.get(workload, DEFAULT_PARTS))
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    registry = Path(tempfile.mkdtemp(prefix="registry-"))
    try:
        WORKLOADS[workload](spec, rep, registry, tracer)
    finally:
        shutil.rmtree(registry, ignore_errors=True)
    result = {
        "spawned": rep.spawned,
        "first_op": rep.first_op,
        "ops": rep.ops,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "problems": rep.problems,
        "values": rep.values,
        "digests": rep.digests,
        "invalid": rep.invalid,
        "points": rep.points,
        "factors": rep.factors,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["layer_table"] = layer_metrics(tracer, workload, rep)
        tracer.dump(Path(spec["spans"]))
        result["spans"] = spec["spans"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
