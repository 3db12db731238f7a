"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion. The synthetic benchmark shared by several criteria is 20 classes,
d=16, M=128, T=5, K=5, beta=0.5, 200 train samples per class.
"""

import time

import numpy as np
import pytest

from stsa.config import ExperimentConfig
from stsa.core import SpatialStatistics, unpack_gram
from stsa.metrics import (
    AccuracyMatrix,
    avg_incremental_accuracy,
    average_forgetting,
    final_average_accuracy,
    paper_comm_bytes,
)
from stsa.prng import ChaChaStream, derive_seed
from stsa.runner import run_estimator_study, run_experiment
from stsa.server import estimate_gram
from stsa.data import random_synth_spec

BENCHMARK = dict(
    synth_classes=20,
    synth_dim=16,
    synth_train_per_class=200,
    synth_test_per_class=50,
    synth_noise_std=1.0,
    T=5,
    K=5,
    beta=0.5,
    M=128,
    gamma=1e4,
)

SEEDS = (1, 2, 3, 4, 5)


def verdict(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def bench_config(**overrides) -> ExperimentConfig:
    merged = {**BENCHMARK, "seed": SEEDS[0], **overrides}
    return ExperimentConfig(**merged)


def test_criterion_1_exactness():
    start = time.monotonic()
    report = run_experiment(bench_config(mode="full", oracle_check=True))
    elapsed = time.monotonic() - start
    w_worst = max(entry.w_delta for entry in report.oracle)
    stat_worst = max(max(e.gram_delta, e.corr_delta) for e in report.oracle)
    ok = w_worst <= 1e-8 and stat_worst <= 1e-12 and elapsed < 10.0
    verdict(
        "criterion 1 (exact equivalence)",
        ok,
        f"max W delta {w_worst:.2e} (<=1e-8), max stats delta {stat_worst:.2e} "
        f"(<=1e-12), runtime {elapsed:.1f}s (<10s)",
    )
    assert w_worst <= 1e-8
    assert stat_worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_unbiasedness():
    m, k, n, classes, trials = 4, 10, 100, 2, 10_000
    start = time.monotonic()
    stream = ChaChaStream(derive_seed(2024, "unbiasedness"))
    means = stream.standard_normal(classes * m).reshape(classes, m)
    stds = 0.5 + stream.random(classes * m).reshape(classes, m)
    expected = np.zeros((m, m))
    for i in range(classes):
        expected += n * (np.outer(means[i], means[i]) + np.diag(stds[i] ** 2))

    acc = np.zeros((m, m))
    acc_sq = np.zeros((m, m))
    cells = np.array_split(np.arange(n), k)
    for _ in range(trials):
        corrs = np.zeros((k, m, classes))
        counts = np.zeros((k, classes), dtype=np.int64)
        for i in range(classes):
            x = means[i] + stds[i] * stream.standard_normal(n * m).reshape(n, m)
            for j, rows in enumerate(cells):
                corrs[j, :, i] = x[rows].sum(axis=0)
                counts[j, i] = rows.size
        records = [
            SpatialStatistics(gram=None, corr=corrs[j], label_freq=counts[j])
            for j in range(k)
        ]
        g = np.zeros(m * (m + 1) // 2)
        estimate_gram(records, range(classes), g)
        g = unpack_gram(g, m)
        acc += g
        acc_sq += g * g
    elapsed = time.monotonic() - start

    mean = acc / trials
    se = np.sqrt((acc_sq / trials - mean**2) / trials)
    within = np.abs(mean - expected) <= 3.0 * se
    frac = float(within.mean())
    ok = frac >= 0.99 and elapsed < 60.0
    verdict(
        "criterion 2 (estimator unbiasedness)",
        ok,
        f"{frac:.1%} of entries within 3 MC standard errors (>=99%), "
        f"runtime {elapsed:.1f}s (<60s)",
    )
    assert frac >= 0.99
    assert elapsed < 60.0


def test_criterion_3_estimator_k_trend():
    start = time.monotonic()
    spec = random_synth_spec(
        class_count=2, dim=4, train_per_class=100, test_per_class=0,
        seed=99, noise_std=1.0,
    )
    study = run_estimator_study(spec, (2, 5, 10, 50), trials=1000, seed=42)
    elapsed = time.monotonic() - start
    errs = study.mean_sq_errors
    monotone = all(a >= b for a, b in zip(errs, errs[1:]))
    ratio = errs[0] / errs[-1]
    ok = monotone and ratio >= 2.0 and elapsed < 60.0
    verdict(
        "criterion 3 (estimator K trend)",
        ok,
        f"mean errors {['%.3g' % e for e in errs]} non-increasing={monotone}, "
        f"K=2/K=50 ratio {ratio:.1f} (>=2), runtime {elapsed:.1f}s (<60s)",
    )
    assert monotone
    assert ratio >= 2.0
    assert elapsed < 60.0


def test_criterion_4_efficient_mode_tracks_full_mode():
    k_ds = (1, 5, 25, 50)
    efficient = {kd: [] for kd in k_ds}
    full = []
    for seed in SEEDS:
        full.append(run_experiment(bench_config(seed=seed, mode="full")).a_t)
        for kd in k_ds:
            report = run_experiment(bench_config(seed=seed, mode="efficient", K_D=kd))
            efficient[kd].append(report.a_t)
    means = [float(np.mean(efficient[kd])) for kd in k_ds]
    full_mean = float(np.mean(full))
    monotone = all(b >= a - 0.005 for a, b in zip(means, means[1:]))
    gap = abs(means[-1] - full_mean)
    ok = monotone and gap <= 0.02
    verdict(
        "criterion 4 (dummy-client trend)",
        ok,
        f"mean A_T by K_D {dict(zip(k_ds, ['%.4f' % m for m in means]))} "
        f"monotone within 0.5pt={monotone}; |K_D=50 - full| = {gap:.4f} (<=0.02)",
    )
    assert monotone
    assert gap <= 0.02


def test_criterion_5_communication_accounting():
    stages, m, c_t, k_d = 10, 5000, 10, 50
    # The published totals count a full-mode G as all M x M elements.
    full_total = stages * paper_comm_bytes(m, c_t, 1, "full", 4)
    eff_total = stages * paper_comm_bytes(m, c_t, k_d, "efficient", 4)
    full_mb = full_total / 1024**2
    eff_mb = eff_total / 1024**2
    full_err = abs(full_mb - 955.6) / 955.6
    eff_err = abs(eff_mb - 95.4) / 95.4
    grid = (512, 1250, 2500, 5000, 10000)
    full_curve = [paper_comm_bytes(mm, c_t, 1, "full", 4) for mm in grid]
    eff_curve = [paper_comm_bytes(mm, c_t, k_d, "efficient", 4) for mm in grid]
    monotone = all(a <= b for a, b in zip(full_curve, full_curve[1:])) and all(
        a <= b for a, b in zip(eff_curve, eff_curve[1:])
    )
    ok = full_err <= 0.15 and eff_err <= 0.15 and monotone
    verdict(
        "criterion 5 (communication accounting)",
        ok,
        f"full {full_mb:.1f} MB vs 955.6 ({full_err:.1%} off), efficient "
        f"{eff_mb:.1f} MB vs 95.4 ({eff_err:.1%} off), curves monotone in M={monotone}",
    )
    assert full_err <= 0.15
    assert eff_err <= 0.15
    assert monotone


def test_criterion_6_metric_hand_values():
    single = AccuracyMatrix(rows=((0.9,),))
    worked = AccuracyMatrix(rows=((0.9,), (0.8, 0.7)))
    constant = AccuracyMatrix(rows=((0.6,), (0.6, 0.6), (0.6, 0.6, 0.6)))

    # Expected values are the hand formulas evaluated in the same float
    # arithmetic, so the comparisons are exact.
    checks = [
        ("A_avg single", avg_incremental_accuracy(single), 0.9),
        ("A_avg worked", avg_incremental_accuracy(worked), 0.9 + (0.8 + 0.7) / 2),
        ("A_avg constant", avg_incremental_accuracy(constant),
         0.6 + (0.6 + 0.6) / 2 + (0.6 + 0.6 + 0.6) / 3),
        ("A_T single", final_average_accuracy(single), 0.9),
        ("A_T worked", final_average_accuracy(worked), (0.8 + 0.7) / 2),
        ("A_T constant", final_average_accuracy(constant), (0.6 + 0.6 + 0.6) / 3),
        ("F_T worked", average_forgetting(worked), (0.9 - 0.8) / 1),
        ("F_T constant", average_forgetting(constant), 0.0),
    ]
    failures = [name for name, got, want in checks if got != want]
    verdict(
        "criterion 6 (metric hand values)",
        not failures,
        "all 8 hand-computed values exact" if not failures else f"mismatches: {failures}",
    )
    assert not failures


def test_criterion_7_noise_robustness():
    degradations = []
    for seed in SEEDS:
        clean = run_experiment(bench_config(seed=seed, mode="full"))
        noisy = run_experiment(
            bench_config(seed=seed, mode="full", noise_q=0.2, noise_s=0.05)
        )
        zero_q = run_experiment(
            bench_config(seed=seed, mode="full", noise_q=0.0, noise_s=5.0)
        )
        assert zero_q.accuracy == clean.accuracy, "q=0 must be bit-identical"
        degradations.append(clean.a_t - noisy.a_t)
    worst = max(degradations)
    ok = worst < 0.01
    verdict(
        "criterion 7 (noise robustness)",
        ok,
        f"worst A_T degradation at q=0.2,s=0.05 is {worst:.4f} (<0.01); "
        f"q=0 runs bit-identical",
    )
    assert worst < 0.01


def test_criterion_8_determinism():
    full_a = run_experiment(bench_config(mode="full", oracle_check=True)).to_text()
    full_b = run_experiment(bench_config(mode="full", oracle_check=True)).to_text()
    eff_a = run_experiment(bench_config(mode="efficient", K_D=25)).to_text()
    eff_b = run_experiment(bench_config(mode="efficient", K_D=25)).to_text()
    ok = full_a == full_b and eff_a == eff_b
    verdict(
        "criterion 8 (determinism)",
        ok,
        "repeated runs produce byte-identical reports in both modes",
    )
    assert full_a == full_b
    assert eff_a == eff_b
