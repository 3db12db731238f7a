"""End-to-end runs, the centralized oracle, and the estimator study."""

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stsa.core
import stsa.runner
from stsa.config import ExperimentConfig, load_config
from stsa.core import (
    ClassifierWeights,
    apply_map,
    local_statistics,
    make_random_map,
    predict,
    unpack_upper,
)
from stsa.data import SynthSpec, generate_synthetic, random_synth_spec, split_tasks
from stsa.errors import ConfigurationError, EstimationError, NumericalError
from stsa.metrics import (
    avg_incremental_accuracy,
    average_forgetting,
    comm_bytes,
    final_average_accuracy,
)
from stsa.prng import ChaChaStream, derive_seed
from stsa.runner import (
    centralized_oracle,
    experiment_map,
    load_experiment_data,
    make_schedule,
    run_estimator_study,
    run_experiment,
    task_accuracy,
    task_test_rows,
)
from stsa.server import TemporalState, temporal_aggregate

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
        # Every training row pooled by one call and folded once: the one-shot
        # reference against the runner's task-by-task fold.
        class_ids = [c for task in schedule.tasks for c in task]
        pooled = local_statistics(apply_map(rmap, train.features), train.labels, class_ids)
        w_star = centralized_oracle(fold(pooled, class_ids), cfg.gamma)
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

    def test_peak_memory_is_flat_in_the_test_set_size(self):
        # Each stage maps one task's raw test rows at a time and lets them go,
        # so a larger test set costs its raw rows plus one task's rows held
        # raw, mapped and scored; a resident mapped test set (n_test x M)
        # would cost five tasks' worth of mapped rows here.
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg")
        config = replace(config, mode="full", oracle_check=False)
        peaks = {}
        for n in (config.synth_test_per_class, 10 * config.synth_test_per_class):
            tracemalloc.start()
            try:
                run_experiment(replace(config, synth_test_per_class=n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small, large = sorted(peaks)
        raw_test = config.synth_classes * large * config.synth_dim * 8
        task_rows = config.synth_classes // config.T * large
        one_task = task_rows * (config.synth_dim + config.M + config.synth_classes) * 8
        assert peaks[large] <= peaks[small] + raw_test + one_task

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
        # a run that cannot unpack a triangle reports exactly as before.
        cfg = ExperimentConfig(**SMALL, mode=mode, K_D=2)
        expected = run_experiment(cfg)

        def unreachable(packed, m):
            raise AssertionError("a whole gram was built")

        monkeypatch.setattr(stsa.core, "unpack_upper", unreachable)
        monkeypatch.setattr(stsa.runner, "unpack_upper", unreachable)
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


# (T, first_task_classes) pairs that split SMALL's 6 classes, with and
# without a first task of its own size.
SPLITS = ((1, None), (2, None), (3, None), (6, None), (2, 1), (3, 2), (3, 4), (4, 3), (6, 1))


def sweep_configs(count):
    """``count`` full-mode configs at SMALL's data scale with the oracle on.

    K, beta (log-uniform on [0.05, 100]), the task split, class shuffling, M,
    gamma and the seed are drawn from one seeded stream.
    """
    stream = ChaChaStream(derive_seed(0, "exactness-sweep"))

    def pick(options):
        return options[int(stream.random(1)[0] * len(options))]

    configs = []
    for _ in range(count):
        t, first = pick(SPLITS)
        configs.append(ExperimentConfig(**{
            **SMALL,
            "K": pick(range(1, 9)),
            "beta": float(0.05 * 2000.0 ** stream.random(1)[0]),
            "T": t,
            "first_task_classes": first,
            "shuffle_classes": bool(stream.random(1)[0] < 0.5),
            "M": pick(range(8, 65)),
            "gamma": pick((1.0, 1e2, 1e4)),
            "seed": pick(range(1000)),
        }, oracle_check=True))
    return configs


def test_seeded_sweep_matches_the_oracle_and_reruns_identically(monkeypatch):
    # Every client shard size drawn. An empty shard uploads zero statistics,
    # and a one-row shard takes apply_map's lone-row path.
    shard_sizes = set()
    original = stsa.runner.dirichlet_partition

    def recording(*args, **kwargs):
        parts = original(*args, **kwargs)
        shard_sizes.update(part.size for part in parts)
        return parts

    monkeypatch.setattr(stsa.runner, "dirichlet_partition", recording)
    for cfg in sweep_configs(24):
        report = run_experiment(cfg)
        assert len(report.oracle) == cfg.T
        for entry in report.oracle:
            assert entry.w_delta <= 1e-8, (cfg, entry)
            assert entry.gram_delta <= 1e-12, (cfg, entry)
            assert entry.corr_delta <= 1e-12, (cfg, entry)
        assert run_experiment(cfg).to_text() == report.to_text(), cfg
    assert {0, 1} <= shard_sizes


def pool(feat, labels, class_ids):
    """Pooled statistics of the rows of ``class_ids``, in that column order.

    The gram stays packed, as the runner pools it for the oracle.
    """
    rows = np.isin(labels, class_ids)
    return local_statistics(feat[rows], labels[rows], class_ids)


def fold(stats, class_ids):
    """The oracle's state after folding ``stats`` of ``class_ids`` into an empty one."""
    initial = TemporalState.initial(stats.corr.shape[0])
    return temporal_aggregate(initial, stats.gram, stats.corr, class_ids)


class TestCentralizedOracle:
    def test_hand_ridge_case(self):
        feat = np.array([[1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1], dtype=np.int64)
        stats = pool(feat, labels, (0, 1))
        w = centralized_oracle(fold(stats, (0, 1)), gamma=0.0)
        assert np.array_equal(unpack_upper(stats.gram, 2), feat.T @ feat)
        assert np.array_equal(stats.corr, feat.T @ np.eye(2)[labels])
        assert np.allclose(w.weights, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-12)
        assert predict(w, np.array([[1.0, 0.0], [1.0, 1.0]])).tolist() == [0, 1]

    def test_single_class_gives_one_column(self):
        feat = np.array([[2.0], [1.0], [3.0]])
        labels = np.array([0, 0, 1], dtype=np.int64)
        stats = pool(feat, labels, (0,))
        w = centralized_oracle(fold(stats, (0,)), gamma=1.0)
        # Rows of classes outside the list are not pooled: (5 + 1) w = 3.
        assert stats.gram.tolist() == [5.0]
        assert stats.label_freq.tolist() == [2]
        assert w.weights.tolist() == [[0.5]]
        assert w.class_ids == (0,)

    def test_doubling_samples_and_gamma_leaves_weights_unchanged(self):
        rng = np.random.default_rng(4)
        feat = apply_map(make_random_map(2, 3, 5), rng.normal(size=(12, 3)))
        labels = rng.integers(0, 3, size=12).astype(np.int64)
        w1 = centralized_oracle(fold(pool(feat, labels, (0, 1, 2)), (0, 1, 2)), gamma=2.5)
        doubled = pool(np.vstack([feat, feat]), np.concatenate([labels, labels]), (0, 1, 2))
        w2 = centralized_oracle(fold(doubled, (0, 1, 2)), gamma=5.0)
        assert np.allclose(w1.weights, w2.weights, rtol=1e-12)

    def test_empty_schedule_rejected(self):
        # A run with no training rows for task 1 is refused by the runner;
        # see test_cli's test_first_task_with_no_training_rows_stops_the_oracle_only.
        with pytest.raises(ConfigurationError, match="at least one class"):
            centralized_oracle(TemporalState.initial(2), 1.0)

    def test_gamma_leaves_the_pooled_gram_untouched(self):
        # The runner folds the next task's gram into the same pooled state.
        feat = np.array([[1.0, 2.0], [0.5, 1.0], [3.0, 0.0]])
        labels = np.array([0, 1, 1], dtype=np.int64)
        state = fold(pool(feat, labels, (0, 1)), (0, 1))
        before = state.gram_acc.copy()
        centralized_oracle(state, gamma=4.0)
        assert np.array_equal(state.gram_acc, before)


class TestTaskAccuracy:
    D, N_CLASSES, PER_CLASS = 64, 100, 50

    @pytest.fixture(scope="class")
    def test_split(self):
        spec = random_synth_spec(self.N_CLASSES, self.D, train_per_class=1,
                                 test_per_class=self.PER_CLASS, seed=3)
        return generate_synthetic(spec)[1]

    @pytest.mark.parametrize("m", [600, 800])
    def test_mapping_a_row_subset_is_bit_identical(self, test_split, m):
        # Evaluation maps each task's raw rows on their own; the reports stay
        # byte-identical only if that equals slicing the whole mapped set.
        rmap = make_random_map(5, self.D, m)
        whole = apply_map(rmap, test_split.features)
        rng = np.random.default_rng(m)
        subsets = [np.sort(rng.choice(test_split.size, n, replace=False)) for n in (1, 7, 500)]
        assert all(np.any(np.diff(rows) > 1) for rows in subsets[1:])
        schedule = split_tasks(self.N_CLASSES, 10, shuffle_seed=9)
        task_rows = task_test_rows(schedule, test_split.labels)
        assert len(task_rows) == 10
        for rows in subsets + task_rows:
            assert np.array_equal(apply_map(rmap, test_split.features[rows]), whole[rows])

    def test_scores_only_the_given_rows(self, test_split, monkeypatch):
        rmap = make_random_map(5, self.D, 600)
        rows = task_test_rows(split_tasks(self.N_CLASSES, 10), test_split.labels)[3]
        weights = ClassifierWeights(
            weights=np.random.default_rng(1).normal(size=(600, 10)),
            class_ids=tuple(range(30, 40)),
        )
        mapped_rows = []
        original = stsa.runner.apply_map

        def counting(rmap, raw):
            mapped_rows.append(raw.shape[0])
            return original(rmap, raw)

        monkeypatch.setattr(stsa.runner, "apply_map", counting)
        acc = task_accuracy(weights, rmap, test_split, rows)
        mapped = original(rmap, test_split.features)[rows]
        assert mapped_rows == [rows.size] == [10 * self.PER_CLASS]
        assert acc == float(np.mean(predict(weights, mapped) == test_split.labels[rows]))


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
            noise_std=0.0,
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
