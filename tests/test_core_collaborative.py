"""Tests for the Section-V collaborative characterization simulation."""

import numpy as np
import pytest

from repro.core.collaborative import (
    CollaborativeRepository,
    collaborative_r2_for_device,
    isolated_learning_curve,
    simulate_collaboration,
)
from repro.core.cost_model import CostModel, default_regressor
from repro.dataset.dataset import LatencyDataset
from repro.faults import AdversaryPlan, apply_adversary_plan
from repro.trust import AdmissionController, AdmissionPolicy


@pytest.fixture(scope="module")
def repo(small_dataset, small_suite):
    return CollaborativeRepository(
        small_dataset, small_suite, signature_size=4, selection_method="mis", seed=0
    )


class TestCollaborativeRepository:
    def test_signature_set_chosen(self, repo):
        assert len(repo.signature_names) == 4
        assert len(set(repo.signature_names)) == 4

    def test_join_contributes_fraction(self, repo, small_dataset):
        repo2 = CollaborativeRepository(
            small_dataset, repo.suite, signature_size=4, seed=1
        )
        repo2.join(small_dataset.device_names[0], contribution_fraction=0.2)
        contributed = repo2.contributions[small_dataset.device_names[0]]
        # The fraction is of *non-signature* networks, as documented.
        assert len(contributed) == round(0.2 * (small_dataset.n_networks - 4))
        assert not set(contributed) & set(repo2.signature_names)

    def test_double_join_rejected(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(small_dataset, small_suite, signature_size=3)
        repo2.join(small_dataset.device_names[0], 0.1)
        with pytest.raises(ValueError, match="already joined"):
            repo2.join(small_dataset.device_names[0], 0.1)

    def test_training_points_accounting(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(small_dataset, small_suite, signature_size=3)
        repo2.join_with_count(small_dataset.device_names[0], 5)
        repo2.join_with_count(small_dataset.device_names[1], 5)
        assert repo2.n_devices == 2
        assert repo2.n_training_points == 2 * (3 + 5)

    def test_train_before_join_raises(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(small_dataset, small_suite, signature_size=3)
        with pytest.raises(RuntimeError, match="no devices"):
            repo2.train()

    def test_train_and_evaluate(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(
            small_dataset, small_suite, signature_size=4, seed=2
        )
        for name in small_dataset.device_names[:10]:
            repo2.join(name, 0.3)
        model = repo2.train()
        score = repo2.evaluate_joined(model)
        assert 0.0 < score <= 1.0

    def test_invalid_fraction(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(small_dataset, small_suite, signature_size=3)
        with pytest.raises(ValueError):
            repo2.join(small_dataset.device_names[0], 1.5)

    def test_join_with_count_is_exact(self, small_dataset, small_suite):
        # Regression: join_with_count used to round-trip through a
        # float fraction, so some counts contributed count +/- 1.
        repo2 = CollaborativeRepository(
            small_dataset, small_suite, signature_size=4, seed=0
        )
        n_non_signature = small_dataset.n_networks - 4
        for device, count in zip(
            small_dataset.device_names, (0, 1, 7, n_non_signature)
        ):
            repo2.join_with_count(device, count)
            assert len(repo2.contributions[device]) == count

    def test_join_with_count_out_of_range(self, small_dataset, small_suite):
        repo2 = CollaborativeRepository(
            small_dataset, small_suite, signature_size=4, seed=0
        )
        with pytest.raises(ValueError, match="out of range"):
            repo2.join_with_count(
                small_dataset.device_names[0], small_dataset.n_networks - 3
            )
        with pytest.raises(ValueError, match="out of range"):
            repo2.join_with_count(small_dataset.device_names[0], -1)


class TestSimulateCollaboration:
    def test_records_grow_and_improve(self, small_dataset, small_suite):
        records = simulate_collaboration(
            small_dataset,
            small_suite,
            contribution_fraction=0.3,
            n_iterations=12,
            signature_size=4,
            seed=0,
            evaluate_every=4,
        )
        assert [r.n_devices for r in records] == [4, 8, 12]
        assert all(0.0 < r.avg_r2 <= 1.0 for r in records)
        assert records[-1].n_training_points > records[0].n_training_points
        # With a third of networks contributed per device, the late
        # model should be usefully accurate on the joined devices (the
        # session fixture is far smaller than the paper's dataset, so
        # the bar is lower than Figure 12's 0.9+).
        assert records[-1].avg_r2 > 0.6

    def test_iteration_bounds_validated(self, small_dataset, small_suite):
        with pytest.raises(ValueError):
            simulate_collaboration(small_dataset, small_suite, n_iterations=0)
        with pytest.raises(ValueError):
            simulate_collaboration(
                small_dataset, small_suite, n_iterations=small_dataset.n_devices + 1
            )

    def test_deterministic(self, small_dataset, small_suite):
        kwargs = dict(
            contribution_fraction=0.2, n_iterations=6, signature_size=3, seed=5,
            evaluate_every=6,
        )
        a = simulate_collaboration(small_dataset, small_suite, **kwargs)
        b = simulate_collaboration(small_dataset, small_suite, **kwargs)
        assert a[-1].avg_r2 == b[-1].avg_r2


class TestAdmissionGatedCollaboration:
    _KW = dict(
        contribution_fraction=0.3, n_iterations=12, signature_size=4,
        seed=0, evaluate_every=3,
    )

    @pytest.fixture(scope="class")
    def adversarial(self, small_dataset):
        # Pure unit-scale population: catchable by the peer-free range
        # check, so detection does not depend on fleet-size statistics.
        plan = AdversaryPlan(
            seed=7, fraction=0.25, unit_scale_weight=1.0, bias_weight=0.0,
            noise_weight=0.0, replay_weight=0.0, drift_weight=0.0,
        )
        corrupted = apply_adversary_plan(small_dataset, plan)
        assert corrupted is not small_dataset
        return corrupted

    def test_clean_run_byte_identical_with_admission(
        self, small_dataset, small_suite
    ):
        default = simulate_collaboration(small_dataset, small_suite, **self._KW)
        screened = simulate_collaboration(
            small_dataset, small_suite, admission=True, **self._KW
        )
        assert screened == default

    def test_honest_fleet_fully_admitted(self, small_dataset, small_suite):
        controller = AdmissionController(())
        simulate_collaboration(
            small_dataset, small_suite, admission=controller, **self._KW
        )
        summary = controller.summary()
        assert summary["accepted"] == self._KW["n_iterations"]
        assert summary["rejected"] == summary["quarantined"] == 0

    def test_admission_policy_and_bad_types(self, small_dataset, small_suite):
        records = simulate_collaboration(
            small_dataset, small_suite,
            admission=AdmissionPolicy(min_peers=3), **self._KW
        )
        assert records[-1].n_devices == self._KW["n_iterations"]
        with pytest.raises(TypeError, match="admission"):
            simulate_collaboration(
                small_dataset, small_suite, admission="yes", **self._KW
            )

    def test_eval_dataset_names_validated(self, small_dataset, small_suite):
        shrunk = small_dataset.select_devices(range(small_dataset.n_devices - 1))
        with pytest.raises(ValueError, match="same devices"):
            simulate_collaboration(
                small_dataset, small_suite, eval_dataset=shrunk, **self._KW
            )

    def test_admission_rejects_adversaries_and_recovers_r2(
        self, adversarial, small_dataset, small_suite
    ):
        unscreened = simulate_collaboration(
            adversarial, small_suite, eval_dataset=small_dataset, **self._KW
        )
        controller = AdmissionController(())
        screened = simulate_collaboration(
            adversarial, small_suite, admission=controller,
            eval_dataset=small_dataset, **self._KW
        )
        summary = controller.summary()
        assert summary["rejected"] + summary["quarantined"] >= 1
        rejected = {
            d.device_name for d in controller.decisions if not d.admitted
        }
        plan_adversaries = set(
            AdversaryPlan(
                seed=7, fraction=0.25, unit_scale_weight=1.0, bias_weight=0.0,
                noise_weight=0.0, replay_weight=0.0, drift_weight=0.0,
            ).adversary_devices(small_dataset.device_names)
        )
        assert rejected <= plan_adversaries  # zero honest false rejections
        # Screening keeps the repository accurate; the poisoned run
        # scores far worse on clean ground truth.
        assert screened[-1].avg_r2 > unscreened[-1].avg_r2 + 0.15
        assert screened[-1].avg_r2 > 0.5
        # The x-axis counts joined devices, so the screened run's last
        # checkpoint has fewer members than iterations.
        assert screened[-1].n_devices == self._KW["n_iterations"] - len(rejected)

    def test_admission_decisions_identical_across_backends(
        self, adversarial, small_dataset, small_suite
    ):
        from repro.parallel import BACKENDS, Executor

        runs = []
        for backend in BACKENDS:
            controller = AdmissionController(())
            records = simulate_collaboration(
                adversarial, small_suite, admission=controller,
                eval_dataset=small_dataset,
                executor=Executor(backend, 4), **self._KW
            )
            runs.append((records, list(controller.decisions)))
        for records, decisions in runs[1:]:
            assert records == runs[0][0]
            assert decisions == runs[0][1]


class TestIsolatedLearningCurve:
    def test_curve_improves_with_data(self, small_dataset, small_suite):
        device = small_dataset.device_names[0]
        curve = isolated_learning_curve(
            small_dataset, small_suite, device, train_sizes=[3, 30], seed=0
        )
        assert curve[0][0] == 3 and curve[1][0] == 30
        assert curve[1][1] > curve[0][1]
        assert curve[1][1] > 0.9  # trained on full suite, evaluated on it

    def test_invalid_sizes(self, small_dataset, small_suite):
        with pytest.raises(ValueError):
            isolated_learning_curve(
                small_dataset, small_suite, small_dataset.device_names[0],
                train_sizes=[0],
            )


class TestPartialDatasets:
    @pytest.fixture(scope="class")
    def partial(self, small_dataset):
        matrix = small_dataset.latencies_ms.copy()
        matrix[0, :] = np.nan  # quarantined device
        return LatencyDataset(
            matrix, small_dataset.device_names, small_dataset.network_names
        )

    def test_quarantined_device_cannot_join(self, partial, small_suite):
        repo = CollaborativeRepository(
            partial, small_suite, signature_size=4, seed=0
        )
        assert not repo.device_has_signature(partial.device_names[0])
        assert repo.device_has_signature(partial.device_names[1])
        with pytest.raises(ValueError, match="signature"):
            repo.join(partial.device_names[0], 0.2)

    def test_partial_device_contributes_only_measured(
        self, small_dataset, small_suite
    ):
        # "rs" selection ignores matrix values, so the signature is
        # stable under missing cells and we can carve a partial device
        # around it without circularity.
        probe = CollaborativeRepository(
            small_dataset, small_suite, signature_size=4,
            selection_method="rs", seed=0,
        )
        sig = set(probe.signature_names)
        non_sig_cols = [
            j for j, n in enumerate(small_dataset.network_names) if n not in sig
        ]
        matrix = small_dataset.latencies_ms.copy()
        for j in non_sig_cols[3:]:
            matrix[1, j] = np.nan
        partial = LatencyDataset(
            matrix, small_dataset.device_names, small_dataset.network_names
        )
        repo = CollaborativeRepository(
            partial, small_suite, signature_size=4, selection_method="rs", seed=0
        )
        assert repo.signature_names == probe.signature_names
        device = partial.device_names[1]
        repo.join(device, 1.0)  # asks for every non-signature network
        expected = {small_dataset.network_names[j] for j in non_sig_cols[:3]}
        assert set(repo.contributions[device]) == expected
        assert repo.completeness[device] < 1.0

    def test_simulation_skips_quarantined_devices(self, partial, small_suite):
        records = simulate_collaboration(
            partial, small_suite, contribution_fraction=0.3, n_iterations=4,
            signature_size=4, seed=0, evaluate_every=4,
        )
        assert records[-1].n_devices == 4
        assert 0.0 < records[-1].avg_r2 <= 1.0
        with pytest.raises(ValueError, match="complete"):
            simulate_collaboration(
                partial, small_suite, n_iterations=partial.n_devices,
                signature_size=4, seed=0,
            )


class TestCollaborativeForDevice:
    def test_target_device_r2_useful(self, small_dataset, small_suite):
        # The session fixture (24 devices x 30 nets) is much smaller
        # than the paper's dataset, so the bar is below Figure 13's
        # 0.98; the paper-scale bench asserts the real number.
        score = collaborative_r2_for_device(
            small_dataset,
            small_suite,
            small_dataset.device_names[3],
            n_contributors=16,
            extra_networks_per_device=10,
            signature_size=5,
            seed=0,
        )
        assert score > 0.6

    def test_unknown_target_device_rejected(self, small_dataset, small_suite):
        with pytest.raises(ValueError, match="unknown target device"):
            collaborative_r2_for_device(small_dataset, small_suite, "nope")

    def test_contributor_bounds_validated(self, small_dataset, small_suite):
        target = small_dataset.device_names[0]
        with pytest.raises(ValueError, match="n_contributors"):
            collaborative_r2_for_device(
                small_dataset, small_suite, target, n_contributors=0
            )
        with pytest.raises(ValueError, match="other"):
            collaborative_r2_for_device(
                small_dataset, small_suite, target,
                n_contributors=small_dataset.n_devices + 1,
            )

    def test_regressor_seed_changes_result(self, small_dataset, small_suite):
        kwargs = dict(
            n_contributors=8, extra_networks_per_device=5,
            signature_size=4, seed=0,
        )
        target = small_dataset.device_names[3]
        a = collaborative_r2_for_device(small_dataset, small_suite, target, **kwargs)
        b = collaborative_r2_for_device(
            small_dataset, small_suite, target, regressor_seed=7, **kwargs
        )
        assert a != b


class TestRegressorSeed:
    def test_threaded_through_simulation(self, small_dataset, small_suite):
        kwargs = dict(
            contribution_fraction=0.3, n_iterations=4, signature_size=4,
            seed=0, evaluate_every=4,
        )
        a = simulate_collaboration(small_dataset, small_suite, **kwargs)
        b = simulate_collaboration(
            small_dataset, small_suite, regressor_seed=7, **kwargs
        )
        # Same membership and contributions, different model fit.
        assert a[-1].n_devices == b[-1].n_devices
        assert a[-1].n_training_points == b[-1].n_training_points
        assert a[-1].avg_r2 != b[-1].avg_r2


class TestQuantizedCheckpointParity:
    """The quantize-once checkpoint path must replay the seed
    simulation byte-for-byte (default mode), and the warm-start mode
    must degrade to exact full refits at its refresh points."""

    _KW = dict(
        contribution_fraction=0.3, n_iterations=12, signature_size=4,
        seed=0, evaluate_every=3,
    )

    def test_default_matches_seed_simulation(self, small_dataset, small_suite):
        from benchmarks.legacy_train import legacy_simulate_collaboration

        records = simulate_collaboration(
            small_dataset, small_suite, backend="serial", **self._KW
        )
        ref = legacy_simulate_collaboration(small_dataset, small_suite, **self._KW)
        assert [
            (r.n_devices, r.avg_r2, r.n_training_points) for r in records
        ] == ref

    def test_incremental_prefix_matches_default(self, small_dataset, small_suite):
        from repro import telemetry

        default = simulate_collaboration(
            small_dataset, small_suite, backend="serial", **self._KW
        )
        with telemetry.scoped_registry() as reg:
            inc = simulate_collaboration(
                small_dataset, small_suite, incremental=True,
                incremental_min_devices=6, **self._KW
            )
            warm_steps = reg.counter_value("collab.warm_start_steps")
        assert [r.n_devices for r in inc] == [r.n_devices for r in default]
        # Checkpoints up to and including the first warm-eligible one
        # are full refits — byte-equal to the default mode.
        for d, i in zip(default, inc):
            if d.n_devices <= 6:
                assert i == d
        assert warm_steps > 0

    def test_refresh_factor_one_degrades_to_default(
        self, small_dataset, small_suite
    ):
        default = simulate_collaboration(
            small_dataset, small_suite, backend="serial", **self._KW
        )
        inc = simulate_collaboration(
            small_dataset, small_suite, incremental=True,
            incremental_min_devices=1, incremental_refresh_factor=1.0, **self._KW
        )
        # Every checkpoint is "stale" under factor 1.0, so the
        # incremental mode performs only full refits.
        assert inc == default

    def test_incremental_schedule_matches_float_api(self, small_dataset, small_suite):
        """Warm steps replay the public float API byte for byte: a full
        fit on the prefix's design matrix at every refit, ``fit_more``
        under the frozen edges at every warm step."""
        kw = dict(self._KW, evaluate_every=2)
        records = simulate_collaboration(
            small_dataset, small_suite, incremental=True, incremental_trees=5,
            incremental_min_devices=2, **kw
        )
        # Refresh factor 2: full fits at 2 and 4 members, a warm step at
        # 6, a refresh at 8, then warm steps at 10 and 12.
        schedule = {2: False, 4: False, 6: True, 8: False, 10: True, 12: True}
        repo = CollaborativeRepository(
            small_dataset, small_suite, signature_size=4, seed=0
        )
        order = np.random.default_rng(0).permutation(small_dataset.n_devices)
        replay = []
        for step, device_idx in enumerate(order[:12], start=1):
            repo.join(small_dataset.device_names[device_idx], 0.3)
            if step not in schedule:
                continue
            pairs = [
                (device, network)
                for device, networks in repo.contributions.items()
                for network in (*repo.signature_names, *networks)
            ]
            hw = {
                d: repo.hw_encoder.encode_from_dataset(small_dataset, d)
                for d in repo.contributions
            }
            if not schedule[step]:
                model = CostModel(
                    repo.network_encoder, repo.hw_encoder, default_regressor(0)
                )
            X, y = model.build_training_set(
                small_dataset, small_suite, hw, pairs=pairs,
                network_features=repo.network_features,
            )
            if schedule[step]:
                model.regressor.fit_more(X, y, 5)
            else:
                model.fit(X, y)
            replay.append((step, repo.evaluate_joined(model), y.size))
        assert [
            (r.n_devices, r.avg_r2, r.n_training_points) for r in records
        ] == replay

    def test_incremental_is_deterministic(self, small_dataset, small_suite):
        kwargs = dict(
            incremental=True, incremental_min_devices=3, incremental_trees=5,
            **self._KW,
        )
        a = simulate_collaboration(small_dataset, small_suite, **kwargs)
        b = simulate_collaboration(small_dataset, small_suite, **kwargs)
        assert a == b

    def test_one_pair_checkpoint_matches_seed_simulation(
        self, small_dataset, small_suite
    ):
        # The first checkpoint trains on one pair: one device, one
        # signature network, nothing else contributed.
        from benchmarks.legacy_train import legacy_simulate_collaboration

        kw = dict(
            signature_size=1, contribution_fraction=0.0, n_iterations=2,
            evaluate_every=1,
        )
        records = simulate_collaboration(
            small_dataset, small_suite, backend="serial", **kw
        )
        ref = legacy_simulate_collaboration(small_dataset, small_suite, **kw)
        assert [
            (r.n_devices, r.avg_r2, r.n_training_points) for r in records
        ] == ref
        assert records[0].n_training_points == 1

    def test_incremental_params_validated(self, small_dataset, small_suite):
        controller = AdmissionController(())
        with pytest.raises(ValueError, match="incremental_trees"):
            simulate_collaboration(
                small_dataset, small_suite, incremental=True,
                incremental_trees=0, admission=controller, **self._KW
            )
        # Rejected at entry: no join was replayed through admission.
        assert controller.decisions == []
        with pytest.raises(ValueError, match="incremental_refresh_factor"):
            simulate_collaboration(
                small_dataset, small_suite, incremental=True,
                incremental_refresh_factor=0.5, **self._KW
            )
