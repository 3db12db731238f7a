"""End-to-end runs, the centralized oracle, and the estimator study."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stsa.client
import stsa.core
import stsa.runner
from stsa.client import UploadPayload
from stsa.config import ExperimentConfig, load_config
from stsa.core import (
    ClassifierWeights,
    apply_map,
    local_statistics,
    make_random_map,
    predict,
    unpack_gram,
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
    run_oracle,
    score_tasks,
    synth_spec_from_config,
)
from stsa.server import TemporalState

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
        train, test = generate_synthetic(synth_spec_from_config(cfg))
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
            assert report.accuracy.rows[cfg.T - 1][tau - 1] == oracle_acc

    def test_oracle_pools_each_training_row_once(self, pooled_blocks):
        # Each task holds 80 training rows: over B = 8 at M = 16, so the
        # oracle pools it in blocks; at most B = 80 at M = 160, so in one
        # call.
        for m in (16, 160):
            pooled_blocks.clear()
            cfg = ExperimentConfig(**{**SMALL, "M": m}, oracle_check=True)
            run_experiment(cfg)
            train, _ = generate_synthetic(synth_spec_from_config(cfg))
            schedule = make_schedule(cfg, train.class_count)
            pooled_blocks.assert_each_training_row_once(train, schedule, m)

    def test_oracle_holds_one_block_of_mapped_rows_at_a_time(self):
        # A task of 8M rows, mapped whole, would cost 8 M x M units. Pooled in
        # blocks of B = ceil(M/2) rows, the peak is one block's cost: its raw
        # rows and one-hot labels, its mapped rows and a few int64 of label
        # bookkeeping per row; and the RFP gram its statistics add into,
        # which dsfrk writes directly, with C twice, the block's and the
        # sum's.
        m, d, c = 200, 16, 2
        rng = np.random.default_rng(5)
        n = 8 * m
        features, labels = rng.normal(size=(n, d)), np.arange(n) % c
        rmap = make_random_map(1, d, m)
        rmap.matrix  # made once and cached, before tracing
        pooled = TemporalState.initial(m)
        tracemalloc.start()
        try:
            stsa.runner._pool_task(pooled, rmap, features, labels, tuple(range(c)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = -(-m // 2)
        assert peak <= (block * (d + c + m + 8) + m * (m + 1) // 2 + 2 * m * c) * 8

    @pytest.mark.parametrize("m", [600, 800])
    def test_a_task_of_one_block_is_one_kernel_call(self, m):
        # A task of one whole block, B rows (296 at M = 600, 400 at M = 800),
        # is pooled by exactly one local_statistics over its whole mapped
        # rows, and folded onto the zero initial state, which adds nothing to
        # its bits.
        block, d, classes = {600: 296, 800: 400}[m], 16, (3, 0, 5)
        rng = np.random.default_rng(6)
        features, labels = rng.normal(size=(block, d)), rng.choice(classes, size=block)
        rmap = make_random_map(2, d, m)
        pooled = TemporalState.initial(m)
        stsa.runner._pool_task(pooled, rmap, features, labels, classes)
        reference = local_statistics(apply_map(rmap, features), labels, classes)
        assert np.array_equal(pooled.gram_acc, reference.gram)
        assert np.array_equal(pooled.corr_acc, reference.corr)

    def test_oracle_blocks_sum_exactly(self, monkeypatch):
        # With stsa.client's map made the identity, a task of 41 integer
        # rows at M = 12 spans 6 blocks of at most B = 8 rows; its one upload
        # holds numpy's X^T X, X^T Y and per-class row counts exactly, so a
        # dropped or repeated block shows here, not only in the oracle's
        # gaps, which the clients' shared path would drop too.
        m, classes = 12, (2, 0, 1)
        rng = np.random.default_rng(8)
        features = rng.integers(0, 4, size=(41, m)).astype(np.float64)
        labels = rng.choice(classes, size=41)
        uploads = []
        spatial_aggregate = stsa.runner.spatial_aggregate

        def recording(payloads, *args):
            payloads = list(payloads)
            uploads.extend(payloads)
            return spatial_aggregate(payloads, *args)

        monkeypatch.setattr(stsa.client, "apply_map", lambda rmap, raw: raw.copy())
        monkeypatch.setattr(stsa.runner, "spatial_aggregate", recording)
        pooled = TemporalState.initial(m)
        stsa.runner._pool_task(pooled, make_random_map(2, m, m), features, labels, classes)
        (upload,) = uploads
        (stats,) = upload.records
        onehot = (labels[:, None] == np.array(classes)).astype(np.float64)
        assert np.array_equal(unpack_gram(pooled.gram_acc, m), features.T @ features)
        assert np.array_equal(stats.corr, features.T @ onehot)
        assert stats.label_freq.tolist() == [int(np.sum(labels == c)) for c in classes]

    def test_peak_memory_is_flat_in_the_task_count(self):
        # (20, 5) and (80, 20) have the same classes per task and rows per
        # class. A run holds one task's raw rows at a time, training or test,
        # so only the class columns grow with the class count: the state's;
        # the last solve's W, its residual and the gram product that makes
        # it, M x 80 each; those of the classifiers kept for scoring, M x
        # |classes seen by t| for each stage t; and the splits' labels, one
        # int64 per row. The 60 added classes' raw training rows (1.5 MB)
        # and raw test rows (0.5 MB) must not. The (20, 5) run peaks while it
        # folds a stage and the (80, 20) run while it solves its last, so
        # the solve's columns count whole.
        bench = load_config(Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg")
        base = replace(bench, oracle_check=False)
        run_experiment(replace(base, synth_classes=4, T=2))  # first-call imports, untraced
        peaks = []
        for classes, tasks in ((20, 5), (80, 20)):
            tracemalloc.start()
            try:
                run_experiment(replace(base, synth_classes=classes, T=tasks))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_task = 4

        def kept_weights(tasks):
            return sum(base.M * per_task * t * 8 for t in range(1, tasks + 1))

        state_columns = base.M * 60 * 8
        solve_columns = 3 * base.M * 60 * 8
        labels = 60 * (base.synth_train_per_class + base.synth_test_per_class) * 8
        assert peaks[1] - peaks[0] <= (
            kept_weights(20) - kept_weights(5) + state_columns + solve_columns + labels
        )

    def test_loading_draws_only_the_means(self, monkeypatch):
        draws = []
        standard_normal = ChaChaStream.standard_normal

        def counting(stream, n):
            draws.append(n)
            return standard_normal(stream, n)

        monkeypatch.setattr(ChaChaStream, "standard_normal", counting)
        cfg = ExperimentConfig(**SMALL)
        train, test = load_experiment_data(cfg)
        # One mean per class; either split draws a task's rows when asked.
        assert sum(draws) == cfg.synth_classes * cfg.synth_dim
        for split in (train, test):
            assert (split.class_count, split.dim) == (cfg.synth_classes, cfg.synth_dim)
        assert train.labels.size == cfg.synth_classes * cfg.synth_train_per_class
        assert test.labels.size == cfg.synth_classes * cfg.synth_test_per_class

    def test_degenerate_federation_is_plain_ridge(self):
        # K = 1, T = 1: the run reduces to ridge classification on the
        # pooled dataset.
        cfg = ExperimentConfig(**{**SMALL, "T": 1, "K": 1})
        report = run_experiment(cfg)
        train, test = generate_synthetic(synth_spec_from_config(cfg))
        rmap = make_random_map(derive_seed(cfg.seed, "map"), cfg.synth_dim, cfg.M)
        feat = apply_map(rmap, train.features)
        onehot = np.eye(cfg.synth_classes)[train.labels]
        w = np.linalg.solve(
            feat.T @ feat + cfg.gamma * np.eye(cfg.M), feat.T @ onehot
        )
        scores = apply_map(rmap, test.features) @ w
        direct = float(np.mean(np.argmax(scores, axis=1) == test.labels))
        assert report.accuracy.rows[0][0] == pytest.approx(direct, abs=1e-12)

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
        # Scoring draws one task's raw test rows at a time, maps and scores
        # them and lets them go, so a larger test set costs at most one
        # task's rows held raw, mapped and scored. A resident raw test split
        # would cost all five tasks' raw rows on top, and a resident mapped
        # one (n_test x M) five tasks' worth of mapped rows.
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
        task_rows = config.synth_classes // config.T * large
        one_task = task_rows * (config.synth_dim + config.M + config.synth_classes) * 8
        assert peaks[large] <= peaks[small] + one_task

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_the_solve_path_builds_no_whole_gram(self, monkeypatch, mode):
        # With the oracle off, every gram stays in RFP through the solve, so
        # a run that cannot unpack one reports exactly as before.
        cfg = ExperimentConfig(**SMALL, mode=mode, K_D=2)
        expected = run_experiment(cfg)

        def unreachable(g, m):
            raise AssertionError("a whole gram was built")

        monkeypatch.setattr(stsa.core, "unpack_gram", unreachable)
        monkeypatch.setattr(stsa.runner, "unpack_gram", unreachable)
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
        a_train, a_test = generate_synthetic(
            synth_spec_from_config(ExperimentConfig(**SMALL, mode="full"))
        )
        b_train, b_test = generate_synthetic(
            synth_spec_from_config(
                ExperimentConfig(**SMALL, mode="efficient", K_D=9, noise_q=0.5, noise_s=1.0)
            )
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


def recording_maps(monkeypatch, *modules):
    """The raw rows of each ``apply_map`` call made through the names of
    ``modules``, ``stsa.runner`` alone by default, in call order."""
    raws = []
    for module in modules or (stsa.runner,):
        original = module.apply_map

        def recording(rmap, raw, original=original):
            raws.append(raw)
            return original(rmap, raw)

        monkeypatch.setattr(module, "apply_map", recording)
    return raws


def test_a_run_maps_each_tasks_test_rows_once(monkeypatch):
    # With the oracle off every map made through stsa.runner scores, since
    # clients map through stsa.client's names: a run maps task tau's rows
    # once, in schedule order, in blocks of B = 8 rows at M = 16, and scores
    # each block with the classifiers of stages tau..T. The tasks differ in
    # size and list their classes out of order, so a block in the wrong place
    # shows.
    raws = recording_maps(monkeypatch)
    predicted = []
    original = stsa.runner.predict

    def recording(weights, mapped):
        predicted.append((len(weights.class_ids), mapped))
        return original(weights, mapped)

    monkeypatch.setattr(stsa.runner, "predict", recording)
    cfg = ExperimentConfig(**{**SMALL, "first_task_classes": 4, "shuffle_classes": True})
    report = run_experiment(cfg)
    _, test = generate_synthetic(synth_spec_from_config(cfg))
    tasks = make_schedule(cfg, test.class_count).tasks
    blocks = []  # each task's blocks of its rows, the last one short
    for task in tasks:
        rows = test.features[np.isin(test.labels, task)]
        blocks.append(np.split(rows, range(8, len(rows), 8)))
    expected = [block for task_blocks in blocks for block in task_blocks]
    assert len(raws) == len(expected) == 16
    assert all(np.array_equal(raw, block) for raw, block in zip(raws, expected))
    # Stage t's classifier knows the classes of tasks 1..t.
    seen = np.cumsum([len(task) for task in tasks])
    assert [classes for classes, _ in predicted] == [
        seen[t] for tau in range(cfg.T) for _ in blocks[tau] for t in range(tau, cfg.T)
    ]
    assert len({id(mapped) for _, mapped in predicted}) == len(raws)
    assert [len(row) for row in report.accuracy.rows] == list(range(1, cfg.T + 1))


def test_scoring_maps_a_block_at_a_time_and_keeps_the_whole_splits_accuracies(monkeypatch):
    # At M = 36, whose map pads to 40 columns, B = 16: each task's 40 test
    # rows are mapped as 16 + 16 + 8, never more than B at a time, and every
    # accuracy equals the stage's classifier scored on the whole test split
    # mapped at once.
    raws = recording_maps(monkeypatch)
    weights = []
    update_classifier = stsa.runner.update_classifier

    def recording(state, gamma):
        weights.append(update_classifier(state, gamma))
        return weights[-1]

    monkeypatch.setattr(stsa.runner, "update_classifier", recording)
    cfg = ExperimentConfig(**{**SMALL, "M": 36})
    report = run_experiment(cfg)
    assert [raw.shape[0] for raw in raws] == [16, 16, 8] * cfg.T
    _, test = generate_synthetic(synth_spec_from_config(cfg))
    whole = apply_map(experiment_map(cfg, cfg.synth_dim), test.features)
    tasks = make_schedule(cfg, test.class_count).tasks
    rows = [np.isin(test.labels, task) for task in tasks]
    assert report.accuracy.rows == tuple(
        tuple(float(np.mean(predict(w, whole[r]) == test.labels[r])) for r in rows[: t + 1])
        for t, w in enumerate(weights)
    )


def test_the_oracle_scores_each_task_once_after_its_pooling(monkeypatch, pooled_blocks):
    # The oracle pools through stsa.client's names and scores through
    # stsa.runner's.
    raws = recording_maps(monkeypatch, stsa.client, stsa.runner)
    cfg = ExperimentConfig(**SMALL)
    report = run_oracle(cfg)
    train, test = generate_synthetic(synth_spec_from_config(cfg))
    schedule = make_schedule(cfg, train.class_count)
    pooled_blocks.assert_each_training_row_once(train, schedule, cfg.M)
    # Each task of 80 training rows is pooled in 10 blocks of B = 8 rows,
    # and then its 40 test rows are scored in 5 more.
    assert len(pooled_blocks) == 10 * cfg.T
    assert len(raws) == len(pooled_blocks) + 5 * cfg.T
    assert all(raw is block for raw, (block, _) in zip(raws, pooled_blocks))
    scored = raws[len(pooled_blocks) :]
    assert [raw.shape[0] for raw in scored] == [8] * 5 * cfg.T
    assert np.array_equal(
        np.concatenate(scored),
        np.concatenate([test.features[np.isin(test.labels, task)] for task in schedule.tasks]),
    )
    assert len(report.accuracies) == cfg.T


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
    # and a one-row shard is mapped as one row of a zero-padded tile.
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

    The gram stays in RFP, as the runner pools it for the oracle.
    """
    rows = np.isin(labels, class_ids)
    return local_statistics(feat[rows], labels[rows], class_ids)


def fold(stats, class_ids):
    """The oracle's state after folding ``stats`` of ``class_ids`` into an empty one.

    As the runner does with every task, ``stats`` is the one upload of a
    one-client stage.
    """
    state = TemporalState.initial(stats.corr.shape[0])
    upload = UploadPayload(client_id=0, task_id=0, records=(stats,))
    stsa.runner._fold_stage(state, [upload], class_ids, 1)
    return state


class TestStageFold:
    @pytest.mark.parametrize(
        "mode, oracle_check",
        [("full", False), ("efficient", False), ("full", True)],
        ids=["full", "efficient", "full-oracle"],
    )
    def test_each_stage_is_folded_once_and_its_rows_go_before_the_solve(
        self, monkeypatch, mode, oracle_check
    ):
        # Every fold goes through the runner's names: one spatial and one
        # temporal aggregation per stage and per oracle pooling, and one gram
        # estimate per efficient stage. With the oracle off, a stage's raw
        # training rows are gone once its last upload is made, before the
        # gram estimate and the solve, and its records before the solve.
        cfg = ExperimentConfig(**SMALL, mode=mode, K_D=2, oracle_check=oracle_check)
        steps = ("spatial_aggregate", "estimate_gram", "temporal_aggregate", "update_classifier")
        calls = dict.fromkeys(steps, 0)
        rows, records, alive = [], [], []

        def counting(name, before=None):
            original = getattr(stsa.runner, name)

            def wrapper(*args):
                if before is not None:
                    before(*args)
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(stsa.runner, name, wrapper)

        def estimating(recs, *args):
            records.extend(weakref.ref(rec) for rec in recs)
            alive.append(("estimate_gram", [ref() is not None for ref in rows]))

        def updating(*args):
            live = [ref() is not None for ref in rows + records]
            alive.append(("update_classifier", live))

        for name in ("spatial_aggregate", "temporal_aggregate"):
            counting(name)
        counting("estimate_gram", estimating)
        counting("update_classifier", updating)
        load = stsa.runner.load_experiment_data

        def loading(config):
            train, test = load(config)
            task = train.task

            def drawing(classes):
                raw, labels = task(classes)
                rows.append(weakref.ref(raw))
                return raw, labels

            train.task = drawing
            return train, test

        monkeypatch.setattr(stsa.runner, "load_experiment_data", loading)
        run_experiment(cfg)
        folds = cfg.T * (2 if oracle_check else 1)
        assert calls == {
            "spatial_aggregate": folds,
            "estimate_gram": cfg.T if mode == "efficient" else 0,
            "temporal_aggregate": folds,
            "update_classifier": cfg.T,
        }
        assert len(rows) == cfg.T
        assert bool(records) == (mode == "efficient")
        if not oracle_check:
            assert [(name, live) for name, live in alive if any(live)] == []


class TestCentralizedOracle:
    def test_hand_ridge_case(self):
        feat = np.array([[1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1], dtype=np.int64)
        stats = pool(feat, labels, (0, 1))
        w = centralized_oracle(fold(stats, (0, 1)), gamma=0.0)
        assert np.array_equal(unpack_gram(stats.gram, 2), feat.T @ feat)
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

    def test_solve_makes_no_copy_of_the_system(self):
        # The unpacked system is one M x M unit and is factorized in place. A
        # solve that copies it first rises by about 2 units. The copy is made
        # outside Python's allocator, so the rise is read from ru_maxrss, in a
        # child whose earlier peaks cannot hide it, after a small solve has
        # set up the BLAS's own buffers.
        code = """
import resource
import numpy as np
from stsa.runner import centralized_oracle
from stsa.server import TemporalState

def state(m):
    return TemporalState(np.ones(m * (m + 1) // 2), np.ones((m, 2)), (0, 1))

centralized_oracle(state(64), 1.0)
m = 2000
big = state(m)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
centralized_oracle(big, 1.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / (m * m * 8))
"""
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=env,
            encoding="utf-8",
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 1.5


# (d, M) of the row-subset checks: the benchmark's M = 600 and 800, the
# pretrained shape, and a scratch-scale M.
ROW_SUBSET_SHAPES = [(64, 600), (64, 800), (768, 1250), (64, 2500)]


def row_subset_mismatches(d, m, n=1000):
    """Sizes of the row subsets of ``n`` random rows of width ``d`` that map,
    at ``M = m``, to other bits than the same rows of the whole mapped set.

    The subsets hold 1 to 17 rows, scattered and contiguous, so lone rows and
    every tail length of a tile are covered, and 500 scattered rows.
    """
    rng = np.random.default_rng(m)
    raw = rng.normal(size=(n, d))
    rmap = make_random_map(5, d, m)
    whole = apply_map(rmap, raw)
    subsets = [np.sort(rng.choice(n, k, replace=False)) for k in [*range(1, 18), 500]]
    subsets += [np.arange(2 * k + 1, 3 * k + 1) for k in range(1, 18)]
    return [
        rows.size for rows in subsets if not np.array_equal(apply_map(rmap, raw[rows]), whole[rows])
    ]


def cpu_features():
    """The CPU features numpy detected, by name."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__


# Run with this directory and the package's src on PYTHONPATH; prints the
# OpenBLAS kernel in use, where numpy's OpenBLAS names it, and each M's
# mismatched subset sizes.
KERNEL_CHECK = """
import ctypes, glob, json, os
import numpy as np
from test_runner import ROW_SUBSET_SHAPES, row_subset_mismatches

kernel = None
for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
    corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
mismatches = {str(m): row_subset_mismatches(d, m) for d, m in ROW_SUBSET_SHAPES}
print(json.dumps({"kernel": kernel, "mismatches": mismatches}))
"""


class TestTaskAccuracy:
    D, N_CLASSES, PER_CLASS = 64, 100, 50

    @pytest.fixture(scope="class")
    def test_split(self):
        spec = random_synth_spec(self.N_CLASSES, self.D, train_per_class=1,
                                 test_per_class=self.PER_CLASS, seed=3)
        return generate_synthetic(spec)[1]

    @pytest.mark.parametrize("d, m", ROW_SUBSET_SHAPES, ids=[str(m) for _, m in ROW_SUBSET_SHAPES])
    def test_mapping_a_row_subset_is_bit_identical(self, test_split, d, m):
        # Clients, the oracle and scoring each map their rows in blocks of
        # their own, so a row must map to the same bits in any block: also at
        # M = 1250 and 2500, where a plain gemm's rows depend on the rows
        # beside them.
        assert row_subset_mismatches(d, m) == []
        # A task's rows, as the test split hands them out, map to the bits of
        # the same rows of the whole mapped split.
        rmap = make_random_map(5, self.D, m)
        whole = apply_map(rmap, test_split.features)
        for task in split_tasks(self.N_CLASSES, 10, shuffle_seed=9).tasks:
            rows = np.flatnonzero(np.isin(test_split.labels, task))
            raw, _ = test_split.task(task)
            assert np.array_equal(apply_map(rmap, raw), whole[rows])

    @pytest.mark.parametrize("kernel", ["Haswell", "Zen", "Sandybridge"])
    def test_mapping_a_row_subset_is_bit_identical_on_other_kernels(self, kernel):
        # The same check in a child process whose OpenBLAS runs another
        # kernel: the map's tile padding is empirical, so each kernel that
        # this CPU can run is checked by name.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
        needs = {"Sandybridge": ("AVX",)}.get(kernel, ("AVX2", "FMA3"))
        if not all(cpu_features().get(feature) for feature in needs):
            pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel")
        tests = Path(__file__).resolve().parent
        paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, paths)),
            "OPENBLAS_CORETYPE": kernel,
        }
        done = subprocess.run(
            [sys.executable, "-c", KERNEL_CHECK],
            capture_output=True,
            env=env,
            encoding="utf-8",
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["mismatches"] == {str(m): [] for _, m in ROW_SUBSET_SHAPES}
        if result["kernel"] not in (None, kernel):
            # A DYNAMIC_ARCH build without the kernel runs a close one.
            pytest.skip(f"this OpenBLAS runs {result['kernel']} for {kernel}, which passed")

    def test_scores_only_the_given_rows(self, test_split, monkeypatch):
        rmap = make_random_map(5, self.D, 600)
        tasks = split_tasks(self.N_CLASSES, 10).tasks[3:5]
        weights = ClassifierWeights(
            weights=np.random.default_rng(1).normal(size=(600, 20)),
            class_ids=tuple(range(30, 50)),
        )
        # The first task is scored by two classifiers on each mapped block.
        other = ClassifierWeights(weights=-weights.weights, class_ids=weights.class_ids)
        classifiers = [(weights, other), (weights,)]
        raws = recording_maps(monkeypatch)
        accuracies = score_tasks(rmap, test_split, tasks, classifiers)
        # Each task's 500 rows are mapped in blocks of B = 296 at M = 600.
        assert [raw.shape[0] for raw in raws] == [296, 204] * 2
        whole = apply_map(rmap, test_split.features)
        expected = []
        for task, scorers in zip(tasks, classifiers):
            rows = np.isin(test_split.labels, task)
            expected.append(
                tuple(
                    float(np.mean(predict(w, whole[rows]) == test_split.labels[rows]))
                    for w in scorers
                )
            )
        assert accuracies == tuple(expected)


class TestEstimatorStudy:
    def test_records_come_through_local_statistics(self, monkeypatch):
        # A trial's K records are K first-order local_statistics calls made
        # through stsa.runner's name, client j's over the j-th even slice of
        # every class's samples: 2 classes x 10 samples split 2 or 5 ways.
        calls = []
        original = stsa.runner.local_statistics

        def recording(feat, labels, task_classes, **kwargs):
            calls.append((feat.shape[0], np.bincount(labels).tolist(), kwargs))
            return original(feat, labels, task_classes, **kwargs)

        monkeypatch.setattr(stsa.runner, "local_statistics", recording)
        spec = random_synth_spec(2, 4, train_per_class=10, test_per_class=0,
                                 seed=3, noise_std=1.0)
        run_estimator_study(spec, (2, 5), trials=100, seed=1)
        assert calls == [(10, [5, 5], {"include_gram": False})] * 200 + [
            (4, [2, 2], {"include_gram": False})
        ] * 500

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
