# Convenience targets for the reproduction workflow.

.PHONY: install test bench examples lint bench-smoke faults-smoke adversary-smoke serve-smoke chaos-smoke search-smoke e2e e2e-test e2e-pairs perf-gate bench-gate bench-gate-update ci clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/new_device_onboarding.py
	python examples/nas_latency_ranking.py
	python examples/collaborative_repository.py
	python examples/model_introspection.py

# Ruff is optional locally (offline environments may not have it);
# CI always installs and enforces it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed -- skipping lint (CI enforces it)"; \
	fi

bench-smoke:
	PYTHONPATH=src pytest benchmarks/ -q -k "fig09 or fig11 or fig12 or fig13 or table1"
	PYTHONPATH=src pytest benchmarks/test_perf_parallel_campaign.py -q
	PYTHONPATH=src pytest benchmarks/test_perf_train_path.py -q

# Fault-tolerance smoke: campaign under a canned FaultPlan, killed
# after K rows, resumed from the checkpoint; the final matrix must be
# byte-identical to the uninterrupted run (CI runs this in tier-1).
faults-smoke:
	python scripts/faults_smoke.py

# Byzantine-robustness smoke: collaborative campaign with 20% seeded
# unit-scale adversaries; admission control must reject >= 90% of the
# corrupted contributions, never reject an honest device, and keep the
# repository's R^2 within tolerance of the clean baseline (CI tier-1).
adversary-smoke:
	python scripts/adversary_smoke.py

# Serving-layer smoke: publish a checkpoint, drive the micro-batched
# prediction service with a mixed warm/cold stream, assert batched ==
# single-request predictions byte-for-byte, hot-swap atomicity and a
# clean shutdown drain (CI runs this in the serve-gate job).
serve-smoke:
	python scripts/serve_smoke.py

# Serving-resilience chaos smoke: overload bursts over a bounded queue,
# corrupt checkpoints landing under racing refreshers, seeded breaker
# trip -> probe -> recovery, and the clean-path byte-identity contract
# (faults disabled == plain service, digest-compared). CI tier-1.
chaos-smoke:
	python scripts/serve_chaos_smoke.py

# Search smoke: three-generation latency-constrained evolutionary
# search through the bulk query plane; seed-reproducible winner digest
# across serial/thread backends, bulk == per-request byte-for-byte,
# cache effectiveness in the telemetry summary (CI runs this in tier-1).
search-smoke:
	python scripts/search_smoke.py

# End-to-end benchmark (BENCHMARK.json): four workloads (pipeline,
# serve-open, serve-burst, search), end-to-end and per-layer metrics,
# correctness checks; see benchmarks/e2e/README.md.
e2e:
	python3 -m benchmarks.e2e

# The e2e benchmark's own tests: a smoke-scale run that checks every
# declared metric, the golden values, batching invariance, and that
# every trace hook still resolves to a serving/search function.
e2e-test:
	PYTHONPATH=src python -m pytest benchmarks/e2e

# A perf claim's evidence: alternating parent/change pairs of the e2e
# benchmark (the parent exported from PARENT, the change being the
# working tree), judged by benchmarks/e2e/compare.py. For example
# make e2e-pairs PARENT=main WORKLOAD=serve-open.
PARENT ?= HEAD
WORKLOAD ?= pipeline
PAIRS ?= 10
SEED ?= 0
e2e-pairs:
	python3 scripts/e2e_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# Consolidated perf gate, exactly as CI's perf-gate job runs it: one
# regression.py invocation over every committed BENCH_*.json baseline
# (adversarial, cache, campaign, search, serve, sharded, train),
# failing if any gated
# metric falls outside its tolerance band, with one merged telemetry
# report (see benchmarks/regression.py; CI enforces this on every PR).
perf-gate:
	PYTHONPATH=src python benchmarks/regression.py --telemetry-out benchmarks/results/perf-gate-telemetry.jsonl

# Back-compat alias for the pre-consolidation target name.
bench-gate: perf-gate

bench-gate-update:
	PYTHONPATH=src python benchmarks/regression.py --update

# Mirrors .github/workflows/ci.yml: lint -> tier-1 tests -> bench smoke
# -> regression gate. PYTHONPATH=src lets the pipeline run from a clean
# checkout without an editable install (CI installs the package instead).
ci: lint
	PYTHONPATH=src pytest -x -q
	$(MAKE) faults-smoke
	$(MAKE) adversary-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) search-smoke
	$(MAKE) e2e-test
	$(MAKE) bench-smoke
	$(MAKE) perf-gate

clean:
	rm -rf benchmarks/.cache benchmarks/results examples/.cache .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
