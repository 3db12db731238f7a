"""Kernel operations against hand-computed and analytic oracles."""

import warnings

import numpy as np
import pytest

from stsa.core import (
    ClassifierWeights,
    apply_map,
    local_statistics,
    make_random_map,
    predict,
    ridge_solve,
)
from stsa.errors import DimensionError, DomainError, NumericalError


class TestMakeRandomMap:
    def test_determinism(self):
        a = make_random_map(7, 4, 8)
        b = make_random_map(7, 4, 8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_disabled_map_is_identity(self):
        m = make_random_map(7, 4, 4, enabled=False)
        assert m.output_dim == 4
        assert np.array_equal(m.matrix, np.eye(4))

    def test_entry_moments(self):
        # Sample mean of d*M standard normals concentrates at 1/sqrt(d*M).
        m = make_random_map(7, 512, 5000)
        entries = m.matrix.ravel()
        assert abs(entries.mean()) <= 3.0 / np.sqrt(entries.size)
        assert abs(entries.var() - 1.0) <= 0.02

    def test_inv_dim_scaling(self):
        m = make_random_map(7, 256, 1024, scale="inv_dim")
        assert abs(m.matrix.var() - 1.0 / 256) <= 0.02 / 256

    def test_seed_changes_matrix(self):
        assert not np.array_equal(make_random_map(1, 4, 8).matrix, make_random_map(2, 4, 8).matrix)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            make_random_map(7, 0, 8)
        with pytest.raises(DimensionError):
            make_random_map(7, 4, 0)
        with pytest.raises(DimensionError):
            make_random_map(7, 8, 4)  # M < d with mapping enabled
        with pytest.raises(DomainError):
            make_random_map(7, 4, 8, scale="bogus")


class TestApplyMap:
    def test_zero_rows_stay_zero(self):
        m = make_random_map(3, 5, 9)
        out = apply_map(m, np.zeros((3, 5)))
        assert out.shape == (3, 9)
        assert np.all(out == 0.0)

    def test_identity_map_clamps_negatives(self):
        m = make_random_map(0, 2, 2, enabled=False)
        out = apply_map(m, np.array([[1.0, -2.0]]))
        assert out.tolist() == [[1.0, 0.0]]

    def test_hand_multiply(self):
        # relu([[1,0],[0,1]] @ [[1,-1],[2,0]]) = relu([[1,-1],[2,0]]) = [[1,0],[2,0]]
        class FixedMap:
            input_dim = 2
            output_dim = 2
            matrix = np.array([[1.0, -1.0], [2.0, 0.0]])

        out = apply_map(FixedMap(), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.tolist() == [[1.0, 0.0], [2.0, 0.0]]

    def test_outputs_are_nonnegative(self):
        m = make_random_map(21, 6, 16)
        raw = np.linspace(-4, 4, 30).reshape(5, 6)
        assert apply_map(m, raw).min() >= 0.0

    def test_empty_matrix_is_valid(self):
        m = make_random_map(3, 5, 9)
        assert apply_map(m, np.zeros((0, 5))).shape == (0, 9)

    def test_dimension_mismatch(self):
        m = make_random_map(3, 5, 9)
        with pytest.raises(DimensionError):
            apply_map(m, np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        m = make_random_map(3, 5, 9)
        raw = np.ones((4, 5))
        raw[2, 3] = bad
        with pytest.raises(NumericalError, match="raw features have non-finite entries"):
            apply_map(m, raw)


class TestLocalStatistics:
    def test_identity_features(self):
        stats = local_statistics(np.eye(2), np.array([0, 1]), [0, 1])
        assert np.array_equal(stats.gram, np.eye(2))
        assert np.array_equal(stats.corr, np.eye(2))
        assert stats.label_freq.tolist() == [1, 1]
        assert stats.label_freq.dtype == np.int64

    def test_empty_input_gives_zero_statistics(self):
        stats = local_statistics(np.zeros((0, 3)), np.zeros(0, dtype=int), [4, 9])
        assert np.all(stats.gram == 0.0) and stats.gram.shape == (3, 3)
        assert np.all(stats.corr == 0.0) and stats.corr.shape == (3, 2)
        assert stats.label_freq.tolist() == [0, 0]

    def test_duplicating_samples_doubles_statistics(self):
        feat = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 1.0]])
        labels = np.array([5, 5, 8])
        once = local_statistics(feat, labels, [5, 8])
        twice = local_statistics(np.vstack([feat, feat]), np.concatenate([labels, labels]), [5, 8])
        assert np.allclose(twice.gram, 2.0 * once.gram, rtol=1e-12)
        assert np.allclose(twice.corr, 2.0 * once.corr, rtol=1e-12)
        assert np.array_equal(twice.label_freq, 2 * once.label_freq)

    def test_concat_equals_sum(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(5, 4))
        la = rng.integers(0, 3, size=7)
        lb = rng.integers(0, 3, size=5)
        whole = local_statistics(np.vstack([a, b]), np.concatenate([la, lb]), [0, 1, 2])
        pa = local_statistics(a, la, [0, 1, 2])
        pb = local_statistics(b, lb, [0, 1, 2])
        assert np.allclose(whole.gram, pa.gram + pb.gram, rtol=1e-12)
        assert np.allclose(whole.corr, pa.corr + pb.corr, rtol=1e-12)

    def test_class_column_order_follows_task_list(self):
        stats = local_statistics(np.array([[2.0]]), np.array([9]), [9, 4])
        assert stats.corr.tolist() == [[2.0, 0.0]]
        stats = local_statistics(np.array([[2.0]]), np.array([9]), [4, 9])
        assert stats.corr.tolist() == [[0.0, 2.0]]

    def test_unknown_label_is_a_domain_error(self):
        with pytest.raises(DomainError, match="label 3"):
            local_statistics(np.eye(2), np.array([0, 3]), [0, 1])

    def test_gram_can_be_omitted(self):
        stats = local_statistics(np.eye(2), np.array([0, 1]), [0, 1], include_gram=False)
        assert stats.gram is None


class TestRidgeSolve:
    def test_diagonal_case(self):
        w = ridge_solve(np.eye(2), np.eye(2), 1.0)
        assert np.allclose(w.weights, 0.5 * np.eye(2), rtol=1e-12)

    def test_normal_equations_oracle(self):
        # Hand inverse of [[2,1],[1,1]] is [[1,-1],[-1,2]].
        w = ridge_solve(
            np.array([[2.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            0.0,
        )
        assert np.allclose(w.weights, np.array([[1.0, 0.0], [-1.0, 1.0]]), atol=1e-12)

    def test_dominant_regularizer_shrinks_weights(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 6))
        g = x.T @ x / np.linalg.norm(x.T @ x, 2)
        c = rng.normal(size=(6, 3))
        c /= np.linalg.norm(c, "fro")
        w = ridge_solve(g, c, 1e12)
        assert np.linalg.norm(w.weights, "fro") <= 2.0 * np.linalg.norm(c, "fro") / 1e12

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 12))
        g = x.T @ x
        c = rng.normal(size=(12, 5))
        w = ridge_solve(g, c, 1e-3)
        residual = np.linalg.norm((g + 1e-3 * np.eye(12)) @ w.weights - c, "fro")
        assert residual <= 1e-8 * np.linalg.norm(c, "fro")

    def test_indefinite_gram_fails_with_jitter_trail(self):
        g = np.diag([-10.0, 1.0])
        with pytest.raises(NumericalError) as err:
            ridge_solve(g, np.ones((2, 1)), 1.0)
        assert len(err.value.attempted_gammas) == 4
        assert err.value.attempted_gammas[0] == 1.0

    def test_zero_gamma_singular_gram_is_factorized_once(self):
        # At gamma = 0 every jitter level is 0.0, so one attempt is the trail.
        v = np.arange(1.0, 5.0)
        with pytest.raises(NumericalError, match=r"jitter level \[0\.0\]") as err:
            ridge_solve(np.outer(v, v), np.ones((4, 1)), 0.0)
        assert err.value.attempted_gammas == (0.0,)

    def test_jitter_escalation_recovers_mild_indefiniteness(self):
        # Smallest eigenvalue -1.001 defeats gamma=1 but not the k=4 rung,
        # gamma * (1 + 1e-4 * ||G||_F / M) with ||G||_F ~ 50.
        g = np.diag([-1.001, 50.0])
        w = ridge_solve(g, np.ones((2, 1)), 1.0)
        assert np.all(np.isfinite(w.weights))

    def test_asymmetric_gram_is_rejected(self):
        g = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="symmetric"):
            ridge_solve(g, np.eye(2), 1.0)

    @pytest.mark.parametrize("row, col", [(299, 3), (3, 299), (260, 270)])
    def test_asymmetry_in_any_row_block_is_rejected(self, row, col):
        # The check walks the gram in blocks of rows; a flaw in a later block
        # or above the diagonal must be found too.
        g = np.eye(300)
        g[row, col] = 0.5
        with pytest.raises(NumericalError, match="symmetric"):
            ridge_solve(g, np.ones((300, 1)), 1.0)

    def test_negative_gamma_is_rejected(self):
        with pytest.raises(DomainError):
            ridge_solve(np.eye(2), np.eye(2), -1.0)

    def test_nan_gram_is_a_numerical_error(self):
        g = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericalError):
            ridge_solve(g, np.eye(2), 1.0)

    def test_nan_corr_is_a_numerical_error(self):
        c = np.array([[1.0], [np.nan]])
        with pytest.raises(NumericalError):
            ridge_solve(np.eye(2), c, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", ["gram", "corr"])
    def test_non_finite_input_is_named_without_warning(self, target, bad):
        g, c = np.eye(3), np.ones((3, 2))
        if target == "gram":
            g[0, 2] = g[2, 0] = bad
        else:
            c[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{target} matrix has non-finite"):
                ridge_solve(g, c, 1.0)

    def test_zero_corr_gives_zero_weights(self):
        w = ridge_solve(np.eye(2), np.zeros((2, 3)), 1.0)
        assert np.array_equal(w.weights, np.zeros((2, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ridge_solve(np.eye(3), np.eye(2), 1.0)


class TestPredict:
    def test_unit_basis_scores(self):
        w = ClassifierWeights(weights=np.eye(2), class_ids=(4, 9))
        assert predict(w, np.array([[1.0, 0.0]])).tolist() == [4]
        assert predict(w, np.array([[0.0, 1.0]])).tolist() == [9]

    def test_tie_goes_to_lowest_column(self):
        w = ClassifierWeights(weights=np.array([[0.3, 0.3]]), class_ids=(4, 9))
        assert predict(w, np.array([[1.0]])).tolist() == [4]

    def test_composes_with_ridge_oracle(self):
        w = ridge_solve(
            np.array([[2.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            0.0,
            class_ids=(0, 1),
        )
        assert predict(w, np.array([[1.0, 0.0], [1.0, 1.0]])).tolist() == [0, 1]

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(3)
        w = ClassifierWeights(weights=rng.normal(size=(5, 4)), class_ids=(0, 1, 2, 3))
        scaled = ClassifierWeights(weights=17.5 * w.weights, class_ids=w.class_ids)
        feat = rng.normal(size=(20, 5))
        assert predict(w, feat).tolist() == predict(scaled, feat).tolist()

    def test_dimension_mismatch(self):
        w = ClassifierWeights(weights=np.eye(2), class_ids=(0, 1))
        with pytest.raises(DimensionError):
            predict(w, np.zeros((1, 3)))
