"""Evaluation metrics against hand-computed values; byte accounting."""

import math

import pytest

from stsa.errors import DomainError
from stsa.metrics import (
    AccuracyMatrix,
    CommLedger,
    avg_incremental_accuracy,
    average_forgetting,
    comm_bytes,
    final_average_accuracy,
    paper_comm_bytes,
)

# The three fixed matrices used throughout: a single stage, the two-stage
# worked example, and a three-stage constant matrix.
SINGLE = AccuracyMatrix(rows=((0.9,),))
WORKED = AccuracyMatrix(rows=((0.9,), (0.8, 0.7)))
CONSTANT = AccuracyMatrix(rows=((0.6,), (0.6, 0.6), (0.6, 0.6, 0.6)))


class TestAvgIncrementalAccuracy:
    def test_single_stage(self):
        assert avg_incremental_accuracy(SINGLE) == 0.9

    def test_worked_example(self):
        # 0.9 + (0.8 + 0.7) / 2 = 1.65
        assert avg_incremental_accuracy(WORKED) == pytest.approx(1.65, abs=1e-15)

    def test_constant_matrix_sums_stage_means(self):
        assert avg_incremental_accuracy(CONSTANT) == pytest.approx(3 * 0.6, abs=1e-15)

    def test_incomplete_matrix_rejected(self):
        # A NaN entry fails the [0, 1] range check when the grid is built.
        with pytest.raises(DomainError, match=r"accuracy nan outside \[0, 1\]"):
            AccuracyMatrix(rows=((0.9,), (float("nan"), 0.7)))


class TestFinalAverageAccuracy:
    def test_worked_example(self):
        assert final_average_accuracy(WORKED) == pytest.approx(0.75, abs=1e-15)

    def test_constant_row(self):
        assert final_average_accuracy(CONSTANT) == pytest.approx(0.6, abs=1e-15)

    def test_single_stage(self):
        assert final_average_accuracy(SINGLE) == 0.9

    def test_incomplete_final_row_rejected(self):
        with pytest.raises(DomainError, match=r"accuracy nan outside \[0, 1\]"):
            AccuracyMatrix(rows=((0.9,), (0.8, float("nan"))))


class TestAverageForgetting:
    def test_worked_example(self):
        assert average_forgetting(WORKED) == pytest.approx(0.1, abs=1e-15)

    def test_flat_history_has_zero_forgetting(self):
        assert average_forgetting(CONSTANT) == 0.0

    def test_backward_transfer_goes_negative(self):
        improving = AccuracyMatrix(rows=((0.5,), (0.9, 0.8)))
        assert average_forgetting(improving) == pytest.approx(-0.4, abs=1e-15)

    def test_single_stage_is_undefined(self):
        with pytest.raises(DomainError, match="single stage"):
            average_forgetting(SINGLE)

    def test_max_ranges_over_defined_entries_only(self):
        # Task 2's best is taken over stages 2..T-1; stage 1 never saw it.
        acc = AccuracyMatrix(rows=((1.0,), (0.4, 0.9), (0.4, 0.5, 0.8)))
        expected = ((1.0 - 0.4) + (0.9 - 0.5)) / 2
        assert average_forgetting(acc) == pytest.approx(expected, abs=1e-15)

    def test_bounds(self):
        worst = AccuracyMatrix(rows=((1.0,), (0.0, 1.0)))
        assert average_forgetting(worst) == 1.0
        best = AccuracyMatrix(rows=((0.0,), (1.0, 1.0)))
        assert average_forgetting(best) == -1.0


class TestAccuracyMatrixValidation:
    def test_rows_must_be_triangular(self):
        with pytest.raises(DomainError):
            AccuracyMatrix(rows=((0.9, 0.8),))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(DomainError):
            AccuracyMatrix(rows=((1.5,),))


class TestCommBytes:
    def test_full_mode_formula(self):
        # G travels as one triangle in RFP, 5000 * 5001 / 2 elements; the
        # paper counts all of it.
        assert comm_bytes(5000, 10, 50, "full", 4) == (12_502_500 + 10 * 5000) * 4
        assert paper_comm_bytes(5000, 10, 50, "full", 4) == (5000 + 10) * 5000 * 4

    def test_efficient_mode_formula(self):
        assert comm_bytes(5000, 10, 50, "efficient", 4) == (5000 + 1) * 10 * 50 * 4
        assert paper_comm_bytes(5000, 10, 50, "efficient", 4) == (5000 + 1) * 10 * 50 * 4

    def test_reference_totals_over_ten_stages(self):
        # 10 stages of (M + c_t) x M 32-bit values is ~955.6 MiB for the
        # full path and ~95.4 MiB for the efficient one.
        full_mb = 10 * paper_comm_bytes(5000, 10, 50, "full", 4) / 1024**2
        eff_mb = 10 * paper_comm_bytes(5000, 10, 50, "efficient", 4) / 1024**2
        assert abs(full_mb - 955.6) / 955.6 <= 0.15
        assert abs(eff_mb - 95.4) / 95.4 <= 0.15

    def test_reference_totals_low_dimension_regime(self):
        # M=1250 with K_D=10 lands at ~60.1 MiB full / ~4.77 MiB efficient.
        full_mb = 10 * paper_comm_bytes(1250, 10, 10, "full", 4) / 1024**2
        eff_mb = 10 * paper_comm_bytes(1250, 10, 10, "efficient", 4) / 1024**2
        assert abs(full_mb - 60.1) / 60.1 <= 0.15
        assert abs(eff_mb - 4.77) / 4.77 <= 0.15

    def test_empty_task_costs_nothing_in_efficient_mode(self):
        assert comm_bytes(5000, 0, 50, "efficient", 4) == 0

    def test_monotone_in_every_argument(self):
        base = dict(m=100, c_t=10, k_d=5, elem_bytes=4)
        for count in (comm_bytes, paper_comm_bytes):
            for mode in ("full", "efficient"):
                ref = count(mode=mode, **base)
                for key in base:
                    bumped = dict(base)
                    bumped[key] += 1
                    assert count(mode=mode, **bumped) >= ref

    def test_invalid_arguments(self):
        for count in (comm_bytes, paper_comm_bytes):
            with pytest.raises(DomainError):
                count(0, 10, 5, "full", 4)
            with pytest.raises(DomainError):
                count(10, 10, 5, "sparse", 4)


class TestCommLedger:
    def test_totals(self):
        ledger = CommLedger()
        ledger.add(1, 0, 100)
        ledger.add(1, 1, 150)
        ledger.add(2, 0, 200)
        ledger.add(2, 0, 50)
        assert ledger.entries == {(1, 0): 100, (1, 1): 150, (2, 0): 250}
        assert ledger.total == 500

    def test_negative_bytes_rejected(self):
        ledger = CommLedger()
        with pytest.raises(DomainError):
            ledger.add(1, 0, -1)


def test_metric_ranges_on_random_matrices():
    # A_T in [0,1]; literal A_avg in [0,T]; forgetting in [-1,1].
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(25):
        T = int(rng.integers(2, 7))
        rows = tuple(tuple(rng.random(t)) for t in range(1, T + 1))
        acc = AccuracyMatrix(rows=rows)
        assert 0.0 <= final_average_accuracy(acc) <= 1.0
        assert 0.0 <= avg_incremental_accuracy(acc) <= T
        assert -1.0 <= average_forgetting(acc) <= 1.0
        assert not math.isnan(average_forgetting(acc))
