"""End-to-end runs, the centralized oracle, and the estimator study."""

import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stsa.core
import stsa.runner
from stsa.config import ExperimentConfig, load_config
from stsa.core import apply_map, local_statistics, make_random_map, predict, unpack_upper
from stsa.data import SynthSpec, random_synth_spec
from stsa.errors import ConfigurationError, EstimationError, NumericalError
from stsa.metrics import (
    avg_incremental_accuracy,
    average_forgetting,
    comm_bytes,
    final_average_accuracy,
)
from stsa.prng import derive_seed
from stsa.runner import (
    centralized_oracle,
    experiment_map,
    load_experiment_data,
    make_schedule,
    run_estimator_study,
    run_experiment,
)

SMALL = dict(
    synth_classes=6,
    synth_dim=4,
    synth_train_per_class=40,
    synth_test_per_class=20,
    T=3,
    K=3,
    beta=0.5,
    M=16,
    gamma=10.0,
    seed=7,
)


class TestRunExperiment:
    def test_full_mode_matches_centralized_oracle_each_stage(self):
        report = run_experiment(ExperimentConfig(**SMALL, oracle_check=True))
        assert len(report.oracle) == 3
        for entry in report.oracle:
            assert entry.w_delta <= 1e-8
            assert entry.gram_delta <= 1e-12
            assert entry.corr_delta <= 1e-12

    @pytest.mark.parametrize("beta", [0.1, 100.0])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_full_mode_weights_do_not_depend_on_the_split(self, k, beta):
        # Data and map depend on the seed only, so these runs differ in the
        # client split alone; every split must reach the pooled solution.
        cfg = ExperimentConfig(**{**SMALL, "K": k, "beta": beta}, oracle_check=True)
        report = run_experiment(cfg)
        assert len(report.comm.entries) == cfg.T * k
        assert [entry.w_delta <= 1e-8 for entry in report.oracle] == [True] * cfg.T

    def test_full_mode_accuracies_equal_oracle_accuracies(self):
        # Evaluating the federated classifier and the pooled-oracle one must
        # give the same final accuracy row (weights agree to ~1e-14).
        cfg = ExperimentConfig(**SMALL)
        report = run_experiment(cfg)
        train, test = load_experiment_data(cfg)
        schedule = make_schedule(cfg, train.class_count)
        rmap = experiment_map(cfg, cfg.synth_dim)
        class_ids = schedule.classes_through(schedule.stages)
        pooled = local_statistics(apply_map(rmap, train.features), train.labels, class_ids)
        w_star = centralized_oracle(pooled, class_ids, cfg.gamma)
        mapped_test = apply_map(rmap, test.features)
        for tau, task in enumerate(schedule.tasks, start=1):
            rows = np.flatnonzero(np.isin(test.labels, task))
            oracle_acc = float(np.mean(predict(w_star, mapped_test[rows]) == test.labels[rows]))
            assert report.accuracy.get(cfg.T, tau) == oracle_acc

    def test_oracle_pools_each_training_row_once(self, monkeypatch):
        # Clients pool through stsa.client's name, so every row counted here
        # was pooled by the oracle: each task's rows once, at its own stage.
        pooled_rows = []
        original = stsa.runner.local_statistics

        def counting(feat, *args, **kwargs):
            pooled_rows.append(feat.shape[0])
            return original(feat, *args, **kwargs)

        monkeypatch.setattr(stsa.runner, "local_statistics", counting)
        cfg = ExperimentConfig(**SMALL, oracle_check=True)
        run_experiment(cfg)
        train, _ = load_experiment_data(cfg)
        schedule = make_schedule(cfg, train.class_count)
        assert pooled_rows == [int(np.isin(train.labels, task).sum()) for task in schedule.tasks]
        assert sum(pooled_rows) == train.labels.size

    def test_degenerate_federation_is_plain_ridge(self):
        # K = 1, T = 1: the run reduces to ridge classification on the
        # pooled dataset.
        cfg = ExperimentConfig(**{**SMALL, "T": 1, "K": 1})
        report = run_experiment(cfg)
        train, test = load_experiment_data(cfg)
        rmap = make_random_map(derive_seed(cfg.seed, "map"), cfg.synth_dim, cfg.M)
        feat = apply_map(rmap, train.features)
        onehot = np.eye(cfg.synth_classes)[train.labels]
        w = np.linalg.solve(
            feat.T @ feat + cfg.gamma * np.eye(cfg.M), feat.T @ onehot
        )
        scores = apply_map(rmap, test.features) @ w
        direct = float(np.mean(np.argmax(scores, axis=1) == test.labels))
        assert report.accuracy.get(1, 1) == pytest.approx(direct, abs=1e-12)

    def test_efficient_mode_with_many_dummies_tracks_full_mode(self):
        # Separable clusters (inter-mean distance >= 10x the noise std) and
        # K * K_D = 250 effective records.
        base = dict(SMALL, synth_classes=10, synth_train_per_class=100,
                    synth_noise_std=0.5, T=2, K=5)
        full = run_experiment(ExperimentConfig(**base, mode="full"))
        eff = run_experiment(ExperimentConfig(**base, mode="efficient", K_D=50))
        assert abs(full.a_t - eff.a_t) <= 0.02

    def test_reports_are_reproducible(self):
        a = run_experiment(ExperimentConfig(**SMALL))
        b = run_experiment(ExperimentConfig(**SMALL))
        assert a.to_text() == b.to_text()

    def test_seed_changes_the_run(self):
        a = run_experiment(ExperimentConfig(**SMALL))
        b = run_experiment(ExperimentConfig(**{**SMALL, "seed": 8}))
        assert a.to_text() != b.to_text()

    def test_report_metrics_recompute_from_matrix(self):
        report = run_experiment(ExperimentConfig(**SMALL))
        acc = report.accuracy
        assert report.a_avg_literal == avg_incremental_accuracy(acc)
        assert report.a_avg_normalized == avg_incremental_accuracy(acc) / acc.stages
        assert report.a_t == final_average_accuracy(acc)
        assert report.f_t == average_forgetting(acc)

    def test_comm_ledger_matches_accounting_formula(self):
        cfg = ExperimentConfig(**SMALL, mode="full")
        report = run_experiment(cfg)
        c_t = cfg.synth_classes // cfg.T
        per_stage_client = comm_bytes(cfg.M, c_t, 1, "full", cfg.elem_bytes)
        assert len(report.comm.entries) == cfg.T * cfg.K
        assert report.comm.total == cfg.T * cfg.K * per_stage_client

    def test_efficient_ledger_counts_actual_records(self, monkeypatch):
        # At beta = 0.1 the shards hold 0 to 77 rows, so K_D = 30 caps some
        # uploads at the shard size and an empty shard sends one record.
        shard_sizes = {}
        extract = stsa.runner.extract_payload

        def recording(shard, *args, **kwargs):
            shard_sizes[(shard.task_id, shard.client_id)] = shard.size
            return extract(shard, *args, **kwargs)

        monkeypatch.setattr(stsa.runner, "extract_payload", recording)
        cfg = ExperimentConfig(**{**SMALL, "beta": 0.1}, mode="efficient", K_D=30)
        report = run_experiment(cfg)
        c_t = cfg.synth_classes // cfg.T
        records = {key: max(1, min(cfg.K_D, n)) for key, n in shard_sizes.items()}
        assert {1, cfg.K_D} < set(records.values())
        assert report.comm.entries == {
            key: comm_bytes(cfg.M, c_t, r, "efficient", cfg.elem_bytes)
            for key, r in records.items()
        }

    def test_estimation_failure_carries_stage_context(self):
        cfg = ExperimentConfig(**{**SMALL, "K": 1}, mode="efficient", K_D=1)
        with pytest.raises(EstimationError, match="stage 1"):
            run_experiment(cfg)

    def test_stage_context_keeps_the_error_attributes(self, monkeypatch):
        def failing(state, gamma):
            raise NumericalError("not positive definite", attempted_gammas=(1.0, 2.0))

        monkeypatch.setattr(stsa.runner, "update_classifier", failing)
        with pytest.raises(NumericalError, match="^stage 1: not positive definite$") as err:
            run_experiment(ExperimentConfig(**SMALL))
        assert err.value.attempted_gammas == (1.0, 2.0)

    def test_full_mode_peak_memory_is_flat_in_k(self):
        # The server folds each client gram into the running sum as it
        # arrives, so 32 clients must not hold more grams than 2 do.
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg")
        config = replace(config, mode="full", oracle_check=False)
        peaks = {}
        for k in (2, 32):
            tracemalloc.start()
            try:
                run_experiment(replace(config, K=k))
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32] <= peaks[2] + 4 * config.M**2 * 8

    def test_one_gram_workspace_per_stage_is_gone_before_the_solve(self, monkeypatch):
        # Every client of a stage writes its gram product into one F-ordered
        # buffer, which no upload refers to and which is freed before the
        # stage's solve allocates its factorization.
        workspaces = {}  # stage -> weak reference to its workspace
        shared = []
        extract = stsa.runner.extract_payload

        def recording(shard, *args):
            workspace = args[-1]
            assert workspace.shape == (SMALL["M"], SMALL["M"])
            assert workspace.flags.f_contiguous
            first = workspaces.setdefault(shard.task_id, weakref.ref(workspace))
            shared.append(first() is workspace)
            return extract(shard, *args)

        freed = []
        update = stsa.runner.update_classifier

        def solving(state, gamma):
            freed.append(workspaces[max(workspaces)]() is None)
            return update(state, gamma)

        monkeypatch.setattr(stsa.runner, "extract_payload", recording)
        monkeypatch.setattr(stsa.runner, "update_classifier", solving)
        cfg = ExperimentConfig(**SMALL)
        run_experiment(cfg)
        assert sorted(workspaces) == list(range(1, cfg.T + 1))
        assert shared == [True] * (cfg.T * cfg.K)
        assert freed == [True] * cfg.T

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_no_whole_gram_reaches_the_temporal_fold(self, monkeypatch, mode):
        # Both modes fold the stage gram as its packed triangle, and the
        # state stays packed; only the solve unpacks it.
        folded = []
        fold = stsa.runner.temporal_aggregate

        def recording(state, gram_new, corr_new, task_classes):
            out = fold(state, gram_new, corr_new, task_classes)
            folded.append((gram_new.shape, out.gram_acc.shape))
            return out

        monkeypatch.setattr(stsa.runner, "temporal_aggregate", recording)
        cfg = ExperimentConfig(**SMALL, mode=mode, K_D=2)
        run_experiment(cfg)
        packed = (cfg.M * (cfg.M + 1) // 2,)
        assert folded == [(packed, packed)] * cfg.T

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_the_solve_path_builds_no_whole_gram(self, monkeypatch, mode):
        # With the oracle off, every gram stays packed through the solve, so
        # a run that cannot mirror a triangle reports exactly as before.
        cfg = ExperimentConfig(**SMALL, mode=mode, K_D=2)
        expected = run_experiment(cfg)

        def unreachable(a):
            raise AssertionError("a whole gram was built")

        monkeypatch.setattr(stsa.core, "_mirror_upper", unreachable)
        assert run_experiment(cfg) == expected
        # The oracle's LU reference does unpack, so the patch is live.
        with pytest.raises(AssertionError, match="a whole gram was built"):
            run_experiment(replace(cfg, oracle_check=True))

    def test_tiny_shards_and_empty_clients_survive(self):
        cfg = ExperimentConfig(
            synth_classes=4, synth_dim=3, synth_train_per_class=3,
            synth_test_per_class=2, T=2, K=5, beta=0.1, M=8, gamma=1.0, seed=3,
        )
        report = run_experiment(cfg)
        assert report.accuracy.stages == 2

    def test_accuracy_improves_over_chance(self):
        report = run_experiment(ExperimentConfig(**SMALL))
        assert report.a_t > 2.0 / SMALL["synth_classes"]

    def test_disabled_map_runs_at_raw_dimension(self):
        cfg = ExperimentConfig(**{**SMALL, "map_enabled": False})
        report = run_experiment(cfg)
        # Uploads are sized by the raw dimension when mapping is off.
        c_t = cfg.synth_classes // cfg.T
        expected = comm_bytes(cfg.synth_dim, c_t, 1, "full", cfg.elem_bytes)
        assert report.comm.entries[(1, 0)] == expected

    def test_data_pipeline_is_mode_independent(self):
        # The generated datasets depend on the seed and synthesis keys only,
        # so full and efficient runs of one seed see identical shards.
        a_train, a_test = load_experiment_data(ExperimentConfig(**SMALL, mode="full"))
        b_train, b_test = load_experiment_data(
            ExperimentConfig(**SMALL, mode="efficient", K_D=9, noise_q=0.5, noise_s=1.0)
        )
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_file_data_source_round_trip(self, tmp_path):
        from stsa.data import generate_synthetic, save_features
        from stsa.runner import synth_spec_from_config

        cfg = ExperimentConfig(**SMALL)
        train, test = generate_synthetic(synth_spec_from_config(cfg))
        save_features(train, tmp_path / "train.stsafeat")
        save_features(test, tmp_path / "test.stsafeat")
        file_cfg = ExperimentConfig(
            **{**SMALL, "data": "files"},
            train_path=str(tmp_path / "train.stsafeat"),
            test_path=str(tmp_path / "test.stsafeat"),
        )
        report = run_experiment(file_cfg)
        assert report.accuracy.stages == SMALL["T"]


def test_a_later_task_with_no_test_rows_is_named(tmp_path):
    from stsa.data import generate_synthetic, save_features
    from stsa.runner import synth_spec_from_config

    cfg = ExperimentConfig(**SMALL)
    train, test = generate_synthetic(synth_spec_from_config(cfg))
    task = make_schedule(cfg, train.class_count).tasks[1]
    kept = ~np.isin(test.labels, task)
    test = replace(test, features=test.features[kept], labels=test.labels[kept])
    save_features(train, tmp_path / "train.stsafeat")
    save_features(test, tmp_path / "test.stsafeat")
    file_cfg = ExperimentConfig(
        **{**SMALL, "data": "files"},
        train_path=str(tmp_path / "train.stsafeat"),
        test_path=str(tmp_path / "test.stsafeat"),
    )
    message = f"task 2 (classes {list(task)}) has no test rows"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
        run_experiment(file_cfg)


def pool(feat, labels, class_ids):
    """Pooled statistics of the rows of ``class_ids``, in that column order.

    The gram stays packed, as the runner pools it for the oracle.
    """
    rows = np.isin(labels, class_ids)
    return local_statistics(feat[rows], labels[rows], class_ids)


class TestCentralizedOracle:
    def test_hand_ridge_case(self):
        feat = np.array([[1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1], dtype=np.int64)
        stats = pool(feat, labels, (0, 1))
        w = centralized_oracle(stats, (0, 1), gamma=0.0)
        assert np.array_equal(unpack_upper(stats.gram, 2), feat.T @ feat)
        assert np.array_equal(stats.corr, feat.T @ np.eye(2)[labels])
        assert np.allclose(w.weights, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-12)
        assert predict(w, np.array([[1.0, 0.0], [1.0, 1.0]])).tolist() == [0, 1]

    def test_single_class_gives_one_column(self):
        feat = np.array([[2.0], [1.0], [3.0]])
        labels = np.array([0, 0, 1], dtype=np.int64)
        stats = pool(feat, labels, (0,))
        w = centralized_oracle(stats, (0,), gamma=1.0)
        # Rows of classes outside the list are not pooled: (5 + 1) w = 3.
        assert stats.gram.tolist() == [5.0]
        assert stats.label_freq.tolist() == [2]
        assert w.weights.tolist() == [[0.5]]
        assert w.class_ids == (0,)

    def test_doubling_samples_and_gamma_leaves_weights_unchanged(self):
        rng = np.random.default_rng(4)
        feat = apply_map(make_random_map(2, 3, 5), rng.normal(size=(12, 3)))
        labels = rng.integers(0, 3, size=12).astype(np.int64)
        w1 = centralized_oracle(pool(feat, labels, (0, 1, 2)), (0, 1, 2), gamma=2.5)
        doubled = pool(np.vstack([feat, feat]), np.concatenate([labels, labels]), (0, 1, 2))
        w2 = centralized_oracle(doubled, (0, 1, 2), gamma=5.0)
        assert np.allclose(w1.weights, w2.weights, rtol=1e-12)

    def test_empty_schedule_rejected(self):
        feat = np.ones((1, 2))
        labels = np.zeros(1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            centralized_oracle(pool(feat, labels, ()), (), 1.0)
        with pytest.raises(ConfigurationError, match="no training samples"):
            centralized_oracle(pool(feat, labels, (1,)), (1,), 1.0)

    def test_gamma_leaves_the_pooled_gram_untouched(self):
        # The runner adds the next task's gram to the same pooled statistics.
        feat = np.array([[1.0, 2.0], [0.5, 1.0], [3.0, 0.0]])
        labels = np.array([0, 1, 1], dtype=np.int64)
        stats = pool(feat, labels, (0, 1))
        before = stats.gram.copy()
        centralized_oracle(stats, (0, 1), gamma=4.0)
        assert np.array_equal(stats.gram, before)


class TestEstimatorStudy:
    def test_error_decreases_with_more_clients(self):
        spec = random_synth_spec(2, 4, train_per_class=100, test_per_class=0,
                                 seed=99, noise_std=1.0)
        study = run_estimator_study(spec, (2, 5, 10, 50), trials=300, seed=42)
        errs = study.mean_sq_errors
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[0] >= 2.0 * errs[-1]
        assert study.reference == tuple(((k + 1) / (k - 1)) ** 2 for k in (2, 5, 10, 50))

    def test_more_trials_agree_within_monte_carlo_bands(self):
        spec = random_synth_spec(2, 3, train_per_class=60, test_per_class=0,
                                 seed=5, noise_std=1.0)
        small = run_estimator_study(spec, (5,), trials=200, seed=1)
        large = run_estimator_study(spec, (5,), trials=2000, seed=2)
        gap = abs(small.mean_sq_errors[0] - large.mean_sq_errors[0])
        band = 3.0 * np.hypot(small.se_sq_errors[0], large.se_sq_errors[0])
        assert gap <= band

    def test_zero_covariance_estimates_exactly(self):
        # Integer means keep every sum exact in float64, so the estimator
        # reproduces the realized gram bit for bit.
        spec = SynthSpec(
            class_count=2, dim=3,
            means=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            variances=np.zeros((2, 3)),
            train_per_class=100, test_per_class=0, seed=11,
        )
        study = run_estimator_study(spec, (2, 10), trials=100, seed=3)
        assert study.mean_sq_errors == (0.0, 0.0)

    def test_preconditions(self):
        spec = random_synth_spec(2, 3, train_per_class=60, test_per_class=0, seed=5)
        with pytest.raises(ConfigurationError):
            run_estimator_study(spec, (1, 5), trials=200, seed=1)
        with pytest.raises(ConfigurationError):
            run_estimator_study(spec, (5,), trials=50, seed=1)
        with pytest.raises(ConfigurationError):
            run_estimator_study(spec, (61,), trials=200, seed=1)
