"""Tests for the benchmark regression gate (benchmarks/regression.py):
compare() semantics on synthetic baselines, baseline round-trips, the
synthetic-slowdown knob, and end-to-end pass/fail behavior."""

import gc
import json

import pytest

import benchmarks.regression as regression


BASELINE = {
    "speedup": {"value": 4.0, "direction": "higher", "gate": True},
    "elapsed_s": {"value": 1.0, "direction": "lower", "gate": True},
    "wall_s": {"value": 9.9, "direction": "lower", "gate": False},
}


class TestCompare:
    def test_identical_run_passes(self):
        current = {"speedup": 4.0, "elapsed_s": 1.0, "wall_s": 50.0}
        assert regression.compare("b", BASELINE, current) == []

    def test_within_tolerance_passes(self):
        current = {"speedup": 3.3, "elapsed_s": 1.15}
        assert regression.compare("b", BASELINE, current, 0.2) == []

    def test_higher_metric_regression_fails(self):
        current = {"speedup": 1.9, "elapsed_s": 1.0}
        violations = regression.compare("b", BASELINE, current, 0.2)
        assert [v.metric for v in violations] == ["speedup"]
        assert violations[0].threshold == pytest.approx(3.2)
        assert "fell below" in str(violations[0])

    def test_lower_metric_regression_fails(self):
        current = {"speedup": 4.0, "elapsed_s": 2.0}
        violations = regression.compare("b", BASELINE, current, 0.2)
        assert [v.metric for v in violations] == ["elapsed_s"]
        assert "rose above" in str(violations[0])

    def test_synthetic_2x_slowdown_fails_both_directions(self):
        current = {"speedup": 2.0, "elapsed_s": 2.0}
        violations = regression.compare("b", BASELINE, current, 0.2)
        assert {v.metric for v in violations} == {"speedup", "elapsed_s"}

    def test_ungated_metric_never_fails(self):
        current = {"speedup": 4.0, "elapsed_s": 1.0, "wall_s": 500.0}
        assert regression.compare("b", BASELINE, current) == []

    def test_per_metric_tolerance_overrides_default(self):
        baseline = {"speedup": {"value": 4.0, "direction": "higher", "tolerance": 0.45}}
        assert regression.compare("b", baseline, {"speedup": 2.3}, 0.05) == []
        assert regression.compare("b", baseline, {"speedup": 2.1}, 0.05) != []

    def test_missing_metric_is_ignored(self):
        assert regression.compare("b", BASELINE, {"speedup": 4.0}) == []

    def test_unknown_direction_raises(self):
        baseline = {"m": {"value": 1.0, "direction": "sideways"}}
        with pytest.raises(ValueError):
            regression.compare("b", baseline, {"m": 1.0})


class TestStaleBaselines:
    """A committed baseline that cannot gate the run must say so clearly."""

    SPECS = {
        "speedup": regression.MetricSpec("higher", tolerance=0.35),
        "wall_s": regression.MetricSpec("lower", gate=False),
    }

    def test_baseline_missing_gated_metric_raises(self):
        with pytest.raises(regression.BaselineError, match="speedup.*--update"):
            regression.compare("b", {}, {"speedup": 4.0}, specs=self.SPECS)

    def test_baseline_missing_ungated_metric_is_fine(self):
        baseline = {"speedup": {"value": 4.0, "direction": "higher"}}
        current = {"speedup": 4.0, "wall_s": 1.0}
        assert regression.compare("b", baseline, current, specs=self.SPECS) == []

    def test_without_specs_missing_metrics_stay_ignored(self):
        # Fresh checkouts / --update runs have no committed file to
        # hold to account; the old lenient semantics apply.
        assert regression.compare("b", {}, {"speedup": 4.0}) == []

    def test_malformed_entry_without_value_raises(self):
        baseline = {"speedup": {"direction": "higher", "gate": True}}
        with pytest.raises(regression.BaselineError, match="malformed.*speedup"):
            regression.compare("b", baseline, {"speedup": 4.0})

    def test_run_gate_fails_cleanly_on_stale_committed_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # Commit a baseline under yesterday's specs, then grow the
        # bench a new gated metric: the gate must fail with a clear
        # message, not silently pass or crash with a KeyError.
        old_specs = {"speedup": regression.MetricSpec("higher", tolerance=0.35)}
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0}), old_specs)},
        )
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0

        new_specs = dict(old_specs, p99=regression.MetricSpec("lower", tolerance=0.3))
        monkeypatch.setitem(
            regression.BENCHES,
            "fake",
            (_fake_bench({"speedup": 4.0, "p99": 1.0}), new_specs),
        )
        assert regression.run_gate(args) == 1
        err = capsys.readouterr().err
        assert "lacks gated metric" in err
        assert "p99" in err
        assert "--update" in err


class TestBaselineFiles:
    def test_write_then_load_roundtrip(self, tmp_path):
        specs = {
            "speedup": regression.MetricSpec("higher", tolerance=0.35),
            "elapsed_s": regression.MetricSpec("lower", gate=False),
        }
        current = {"speedup": 4.71238, "elapsed_s": 0.3005}
        path = regression.write_baseline("unit", current, specs, tmp_path)
        assert path == tmp_path / "BENCH_unit.json"
        loaded = regression.load_baseline("unit", tmp_path)
        assert loaded["benchmark"] == "unit"
        assert loaded["metrics"]["speedup"]["value"] == pytest.approx(4.7124)
        assert loaded["metrics"]["speedup"]["tolerance"] == 0.35
        assert loaded["metrics"]["elapsed_s"]["gate"] is False

    def test_load_missing_baseline_returns_none(self, tmp_path):
        assert regression.load_baseline("nope", tmp_path) is None

    def test_committed_baselines_are_valid(self):
        """The repo's own BENCH_*.json files parse and are gateable."""
        for name in regression.BENCHES:
            baseline = regression.load_baseline(name)
            assert baseline is not None, f"missing committed baseline for {name}"
            assert baseline["benchmark"] == name
            _, specs = regression.BENCHES[name]
            for metric, entry in baseline["metrics"].items():
                assert metric in specs
                assert entry["direction"] in ("higher", "lower")
                assert entry["value"] > 0
                if entry.get("gate", True):
                    # A gated tolerance must stay < 0.5 so a synthetic
                    # 2x slowdown always trips the gate.
                    tolerance = entry.get("tolerance", regression.DEFAULT_TOLERANCE)
                    assert tolerance < 0.5


class TestSlowdownKnob:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SLOWDOWN", raising=False)
        assert regression._slowdown() == 1.0

    def test_parses_factor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SLOWDOWN", "2.5")
        assert regression._slowdown() == 2.5

    def test_rejects_speedup(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SLOWDOWN", "0.5")
        with pytest.raises(ValueError):
            regression._slowdown()

    def test_timed_inflates_only_marked_paths(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SLOWDOWN", "1000000")
        _, plain = regression._timed(lambda: None)
        _, inflated = regression._timed(lambda: None, inflate=True)
        assert plain < 1.0
        assert inflated > plain


def _fake_bench(metrics):
    def bench(scale):
        return dict(metrics)

    return bench


_FAKE_SPECS = {
    "speedup": regression.MetricSpec("higher", tolerance=0.35),
    "elapsed_s": regression.MetricSpec("lower", gate=False),
}


class TestRunGate:
    def test_update_then_pass_then_fail(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0, "elapsed_s": 1.0}), _FAKE_SPECS)},
        )
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0
        assert (tmp_path / "BENCH_fake.json").exists()

        # Same numbers: gate passes.
        assert regression.run_gate(args) == 0
        assert "gate passed" in capsys.readouterr().out

        # Halved speedup: gate fails (tolerance 0.35 < 0.5).
        monkeypatch.setitem(
            regression.BENCHES,
            "fake",
            (_fake_bench({"speedup": 2.0, "elapsed_s": 1.0}), _FAKE_SPECS),
        )
        assert regression.run_gate(args) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "fake.speedup" in captured.err

        # Informational metric ballooning does not gate.
        monkeypatch.setitem(
            regression.BENCHES,
            "fake",
            (_fake_bench({"speedup": 4.0, "elapsed_s": 99.0}), _FAKE_SPECS),
        )
        assert regression.run_gate(args) == 0

    def test_missing_baseline_warns_but_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0}), _FAKE_SPECS)},
        )
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate(args) == 0
        assert "no baseline" in capsys.readouterr().err

    def test_telemetry_report_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0}), _FAKE_SPECS)},
        )
        from repro import telemetry

        report = tmp_path / "gate.jsonl"
        with telemetry.scoped_registry():
            telemetry.disable()  # run_gate --telemetry-out must enable it
            code = regression.run_gate(
                [
                    "--baseline-dir", str(tmp_path), "--only", "fake",
                    "--update", "--telemetry-out", str(report),
                ]
            )
        assert code == 0
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert lines[-1]["type"] == "summary"
        assert any(
            line.get("name") == "stage.bench_fake"
            for line in lines
            if line["type"] == "histogram"
        )

    def test_real_small_scale_cache_bench_with_injected_slowdown(
        self, tmp_path, monkeypatch
    ):
        """End-to-end on the real cache bench: baseline, pass, then a
        4x injected slowdown must fail the gate."""
        args = ["--baseline-dir", str(tmp_path), "--scale", "small", "--only", "cache"]
        monkeypatch.delenv("REPRO_BENCH_SLOWDOWN", raising=False)
        # A full collection of the garbage earlier tests left behind takes
        # ~0.1 s, twice this bench's cold build; landing inside either run's
        # timed builds it decides the verdict. Collect before each run.
        gc.collect()
        assert regression.run_gate([*args, "--update"]) == 0
        monkeypatch.setenv("REPRO_BENCH_SLOWDOWN", "4.0")
        gc.collect()
        assert regression.run_gate(args) == 1


class TestSearchBench:
    def test_each_timed_bulk_call_is_a_cold_generation(self, tmp_path, monkeypatch):
        """Every timed generation is a fresh plane's first call over
        networks whose content hashes are not cached yet, so no repeat is
        answered from an earlier one's work."""
        from repro.serve import BulkQueryPlane

        monkeypatch.setattr(regression, "BASELINE_DIR", tmp_path)  # artifact cache
        monkeypatch.delenv("REPRO_BENCH_SLOWDOWN", raising=False)
        population = regression.SEARCH_SCALES["small"][0]
        calls = []
        predict_block = BulkQueryPlane.predict_block

        def recording(plane, networks, device, **kwargs):
            if len(networks) == population:  # the timed generations
                hashed = sum("content_hash" in vars(n) for n in networks)
                calls.append((plane.stats["calls"], hashed))
            return predict_block(plane, networks, device, **kwargs)

        monkeypatch.setattr(BulkQueryPlane, "predict_block", recording)
        metrics = regression.bench_search("small")
        assert calls == [(0, 0)] * regression._BENCH_REPEATS
        assert metrics["bulk_speedup"] > 0


class TestGateReporting:
    def test_informational_metrics_appear_with_info_marker(
        self, tmp_path, monkeypatch, capsys
    ):
        """"gate": false metrics must show up marked info, not vanish."""
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0, "elapsed_s": 1.0}), _FAKE_SPECS)},
        )
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0
        capsys.readouterr()
        assert regression.run_gate(args) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "fake.elapsed_s" in line]
        assert lines and "info" in lines[0]
        assert any("fake.speedup" in line and "ok" in line for line in out.splitlines())

    def test_baseline_only_metric_is_reported_not_dropped(
        self, tmp_path, monkeypatch, capsys
    ):
        """A metric the committed baseline has but the current run no
        longer produces (a retired informational metric) still gets a
        table row, with "-" for current."""
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0, "elapsed_s": 1.0}), _FAKE_SPECS)},
        )
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0
        monkeypatch.setitem(
            regression.BENCHES,
            "fake",
            (_fake_bench({"speedup": 4.0}), {"speedup": _FAKE_SPECS["speedup"]}),
        )
        capsys.readouterr()
        assert regression.run_gate(args) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if "fake.elapsed_s" in line]
        assert lines, "baseline-only metric dropped from the report"
        assert "info" in lines[0] and "-" in lines[0]

    def test_summary_out_writes_markdown_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0, "elapsed_s": 1.0}), _FAKE_SPECS)},
        )
        summary = tmp_path / "summary.md"
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0
        assert (
            regression.run_gate([*args, "--summary-out", str(summary)]) == 0
        )
        text = summary.read_text()
        assert "| metric | baseline | current | status |" in text
        assert "`fake.speedup`" in text
        assert "All gated metrics within tolerance." in text
        assert "FAIL" not in text

    def test_summary_out_bolds_failures_and_lists_violations(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0, "elapsed_s": 1.0}), _FAKE_SPECS)},
        )
        summary = tmp_path / "summary.md"
        args = ["--baseline-dir", str(tmp_path), "--only", "fake"]
        assert regression.run_gate([*args, "--update"]) == 0
        monkeypatch.setitem(
            regression.BENCHES,
            "fake",
            (_fake_bench({"speedup": 1.0, "elapsed_s": 1.0}), _FAKE_SPECS),
        )
        assert regression.run_gate([*args, "--summary-out", str(summary)]) == 1
        text = summary.read_text()
        assert "**FAIL**" in text
        assert "gated metric(s) regressed" in text
        assert "fake.speedup" in text

    def test_summary_out_appends_like_github_step_summary(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            regression,
            "BENCHES",
            {"fake": (_fake_bench({"speedup": 4.0}), _FAKE_SPECS)},
        )
        summary = tmp_path / "summary.md"
        summary.write_text("prior step output\n")
        args = ["--baseline-dir", str(tmp_path), "--only", "fake", "--update"]
        assert regression.run_gate([*args, "--summary-out", str(summary)]) == 0
        assert summary.read_text().startswith("prior step output\n")
