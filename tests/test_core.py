"""Kernel operations against hand-computed and analytic oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dpftrf, dpftrs, dtpttf, dtrttf

import stsa.core
from stsa.core import (
    _SYMMETRY_BLOCK,
    ClassifierWeights,
    SpatialStatistics,
    _gram_product,
    _rfp_diagonal,
    _rfp_strips,
    apply_map,
    gram_frobenius,
    local_statistics,
    make_random_map,
    map_blocks,
    predict,
    ridge_solve,
    unpack_gram,
)
from stsa.errors import DimensionError, DomainError, NumericalError
from stsa.prng import ChaChaStream


def rfp(a: np.ndarray) -> np.ndarray:
    """The gram format of the symmetric matrix whose upper triangle is square ``a``'s.

    ``a.T`` is the column-major array whose lower triangle, which ``dtrttf``
    packs into RFP, is ``a``'s upper one.
    """
    return dtrttf(a.T, transr="N", uplo="L")[0]


def packed_order(m: int) -> np.ndarray:
    """RFP of dim ``m`` whose slots hold their entries' rank in row-major upper order."""
    return dtpttf(m, np.arange(m * (m + 1) // 2, dtype=np.float64), transr="N", uplo="L")[0]


class TestMakeRandomMap:
    def test_determinism(self):
        a = make_random_map(7, 4, 8)
        b = make_random_map(7, 4, 8)
        assert np.array_equal(a.matrix, b.matrix)

    def test_entry_moments(self):
        # Sample mean of d*M standard normals concentrates at 1/sqrt(d*M).
        m = make_random_map(7, 512, 5000)
        entries = m.matrix.ravel()
        assert abs(entries.mean()) <= 3.0 / np.sqrt(entries.size)
        assert abs(entries.var() - 1.0) <= 0.02

    def test_seed_changes_matrix(self):
        assert not np.array_equal(make_random_map(1, 4, 8).matrix, make_random_map(2, 4, 8).matrix)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            make_random_map(7, 0, 8)
        with pytest.raises(DimensionError):
            make_random_map(7, 4, 0)
        with pytest.raises(DimensionError):
            make_random_map(7, 8, 4)  # M < d


class TestApplyMap:
    def test_zero_rows_stay_zero(self):
        m = make_random_map(3, 5, 9)
        out = apply_map(m, np.zeros((3, 5)))
        assert out.shape == (3, 9)
        assert np.all(out == 0.0)

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

    def test_relu_in_place_is_bit_equal_and_owns_its_output(self):
        m = make_random_map(21, 6, 16)
        raw = np.random.default_rng(2).normal(size=(40, 6))
        raw_before, matrix_before = raw.copy(), m.matrix.copy()
        out = apply_map(m, raw)
        assert np.array_equal(out, np.maximum(raw @ m.matrix, 0.0))
        assert not np.shares_memory(out, raw) and not np.shares_memory(out, m.matrix)
        assert np.array_equal(raw, raw_before) and np.array_equal(m.matrix, matrix_before)

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


    def test_map_columns_are_padded_to_whole_tiles(self):
        # M = 9 pads to 16 columns of zeros, which every row maps to zero
        # and apply_map drops; the first 9 are the seed's draws as before.
        m = make_random_map(3, 5, 9)
        assert m.matrix.shape == (5, 16) and not m.matrix[:, 9:].any()
        assert np.array_equal(m.matrix[:, :9], ChaChaStream(3).standard_normal(45).reshape(5, 9))
        raw = np.random.default_rng(4).normal(size=(16, 5))
        assert np.array_equal(apply_map(m, raw), np.maximum(raw @ m.matrix, 0.0)[:, :9])

    def test_a_padded_map_holds_one_product(self):
        # At M = 201 the product has 208 columns and is compacted in place:
        # the peak is that product, the tail tile's raw rows and product, a
        # tile of rows on the move and the finiteness mask, no copy of raw.
        d, m, n = 16, 201, 1003
        rmap = make_random_map(1, d, m)
        rmap.matrix  # made once and cached, before tracing
        raw = np.random.default_rng(5).normal(size=(n, d))
        tracemalloc.start()
        try:
            out = apply_map(rmap, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n, m) and out.flags.c_contiguous
        assert np.array_equal(out[:1000], apply_map(rmap, raw[:1000]))
        headers = 4096
        assert peak <= (n * 208 + 8 * (d + 208) + 8 * m) * 8 + n * d + headers

    @pytest.mark.parametrize(
        "m, block",
        [(1, 8), (12, 8), (16, 8), (36, 16), (200, 96), (600, 296), (800, 400), (1250, 624)],
    )
    def test_map_blocks_are_half_of_m_in_whole_tiles(self, m, block):
        # B is ceil(M/2) rounded down to whole tiles of 8 rows, at least one;
        # the blocks cover the rows in order, and no rows make one empty block.
        rmap = make_random_map(0, 1, m)
        for n, sizes in [(0, [0]), (1, [1]), (block, [block]), (2 * block + 5, [block, block, 5])]:
            slices = list(map_blocks(rmap, n))
            assert [len(range(n)[s]) for s in slices] == sizes
            assert [s.start for s in slices] == [0, *(s.stop for s in slices[:-1])]


class TestLocalStatistics:
    def test_identity_features(self):
        stats = local_statistics(np.eye(2), np.array([0, 1]), [0, 1])
        assert np.array_equal(stats.gram, rfp(np.eye(2)))
        assert np.array_equal(stats.corr, np.eye(2))
        assert stats.label_freq.tolist() == [1, 1]
        assert stats.label_freq.dtype == np.int64

    def test_empty_input_gives_zero_statistics(self):
        stats = local_statistics(np.zeros((0, 3)), np.zeros(0, dtype=int), [4, 9])
        assert np.all(stats.gram == 0.0) and stats.gram.shape == (6,)
        assert np.all(stats.corr == 0.0) and stats.corr.shape == (3, 2)
        assert stats.label_freq.tolist() == [0, 0]

    def test_into_adds_a_block_in_place(self):
        # Integer features sum exactly in any order: the second block's
        # statistics land in the first block's arrays.
        feat = np.array([[1.0, 2.0], [0.0, 3.0], [2.0, 1.0]])
        labels = np.array([5, 8, 8])
        first = local_statistics(feat[:1], labels[:1], [5, 8])
        arrays = (first.gram, first.corr, first.label_freq)
        both = local_statistics(feat[1:], labels[1:], [5, 8], into=first)
        assert all(a is b for a, b in zip((both.gram, both.corr, both.label_freq), arrays))
        whole = local_statistics(feat, labels, [5, 8])
        assert np.array_equal(both.gram, whole.gram)
        assert np.array_equal(both.corr, whole.corr)
        assert both.label_freq.tolist() == [1, 2]

    @pytest.mark.parametrize(
        "feat, classes, gram",
        [(np.ones((2, 3)), [5, 8], True), (np.ones((2, 2)), [5], True),
         (np.ones((2, 2)), [5, 8], False)],
        ids=["dimension", "classes", "mode"],
    )
    def test_into_must_match_the_block(self, feat, classes, gram):
        into = local_statistics(np.ones((1, 2)), np.array([5]), [5, 8])
        with pytest.raises(DimensionError, match="cannot add"):
            local_statistics(feat, np.full(2, 5), classes, include_gram=gram, into=into)

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

    def test_non_integer_labels_are_a_domain_error(self):
        # An int64 cast would read 0.5 as class 0.
        with pytest.raises(DomainError, match="labels must be integers, got dtype float64"):
            local_statistics(np.ones((2, 2)), np.array([0.5, 1.0]), [0, 1])

    def test_gram_can_be_omitted(self):
        stats = local_statistics(np.eye(2), np.array([0, 1]), [0, 1], include_gram=False)
        assert stats.gram is None

    @pytest.mark.parametrize(
        "n, m",
        [(0, 64), (1, 64), (37, 600), (100, 600), (250, 600), (100, 800),
         (400, 800), (2000, 800), (100, 2500)],
    )
    def test_gram_is_the_upper_triangle_of_numpy_gram(self, n, m):
        # The upload holds numpy's X.T @ X, on and above the diagonal, in
        # RFP, at every shape the benchmark and the scale records use. On
        # small-integer features every summation order is exact, so the
        # entries are bit-equal and a misplaced, missing or stale one shows.
        # On float features dsfrk sums in another order than numpy, so each
        # entry is held to the rounding bound of an n-term dot product.
        rng = np.random.default_rng(n + m)
        exact = rng.integers(0, 4, size=(n, m)).astype(np.float64)
        gram = local_statistics(exact, np.zeros(n, dtype=int), [0]).gram
        assert gram.shape == (m * (m + 1) // 2,)
        assert np.array_equal(gram, rfp(exact.T @ exact))
        feat = np.maximum(rng.normal(size=(n, m)), 0.0)
        gram = local_statistics(feat, np.zeros(n, dtype=int), [0]).gram
        bound = n * np.finfo(np.float64).eps * rfp(np.abs(feat).T @ np.abs(feat))
        assert np.all(np.abs(gram - rfp(feat.T @ feat)) <= bound)

    def test_stale_buffer_contents_never_reach_the_gram(self):
        # dsfrk with beta = 0 never reads its output array, so a NaN-filled
        # array freed just before the call, whose memory the call's own
        # array may reuse, cannot leak into the gram. Small-integer features
        # make every entry exact, odd and even M alike.
        rng = np.random.default_rng(12)
        for m in (7, 8, 300, 301):
            for n in (40, 7, 0):
                feat = rng.integers(0, 4, size=(n, m)).astype(np.float64)
                stale = np.full(m * (m + 1) // 2, np.nan)
                del stale
                gram = local_statistics(feat, np.zeros(n, dtype=int), [0]).gram
                assert np.array_equal(gram, rfp(feat.T @ feat))
                assert not np.shares_memory(gram, feat)

    def test_peak_memory_is_the_gram_and_the_label_arrays(self):
        # dsfrk writes the RFP gram directly: beyond it the call holds the
        # one-hot labels, their column indices and the corr it returns, and
        # no M x M array.
        n, m, c = 400, 600, 10
        feat = np.random.default_rng(13).normal(size=(n, m))
        labels = np.arange(n) % c
        tracemalloc.start()
        try:
            local_statistics(feat, labels, range(c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram, onehot, corr, columns = m * (m + 1) // 2, n * c, m * c, n
        assert peak <= (gram + onehot + corr + columns) * 8 + 4096


class TestSpatialStatistics:
    @pytest.mark.parametrize("shape", [(4, 4), (9,), (11,), (1, 10)])
    def test_gram_must_be_the_packed_triangle(self, shape):
        # A whole (M, M) gram, the layout before packing, is rejected as
        # firmly as a packed vector of the wrong length.
        with pytest.raises(DimensionError, match="packed triangle"):
            SpatialStatistics(gram=np.zeros(shape), corr=np.zeros((4, 2)),
                              label_freq=np.zeros(2, dtype=np.int64))

    def test_packed_triangle_is_accepted(self):
        stats = SpatialStatistics(gram=np.zeros(10), corr=np.zeros((4, 2)),
                                  label_freq=np.zeros(2, dtype=np.int64))
        assert stats.feature_dim == 4


class TestUnpackUpper:
    """``unpack_gram`` fills the upper triangle from RFP's, and mirrors it below."""

    @pytest.mark.parametrize(
        "m",
        [1, 2, _SYMMETRY_BLOCK - 1, _SYMMETRY_BLOCK, _SYMMETRY_BLOCK + 1, 2 * _SYMMETRY_BLOCK + 3],
    )
    def test_packed_entries_land_on_both_sides(self, m):
        a = np.random.default_rng(m).normal(size=(m, m))
        whole = unpack_gram(rfp(a), m)
        assert np.array_equal(whole, np.triu(a) + np.triu(a, 1).T)
        assert whole.flags.c_contiguous

    def test_local_statistics_round_trip_is_numpy_gram(self):
        feat = np.random.default_rng(3).integers(0, 4, size=(50, 70)).astype(np.float64)
        gram = local_statistics(feat, np.zeros(50, dtype=int), [0]).gram
        assert np.array_equal(unpack_gram(gram, 70), feat.T @ feat)

    @pytest.mark.parametrize("shape", [(9,), (11,), (4, 4)])
    def test_wrong_length_is_rejected(self, shape):
        with pytest.raises(DimensionError, match="not the triangle of dim 4"):
            unpack_gram(np.zeros(shape), 4)


class TestPackedStrips:
    """``_rfp_strips`` walks the RFP gram's rows: T1's strips, then T2's."""

    @staticmethod
    def expected_strips(m):
        n1 = m - m // 2
        return [(i, min(_SYMMETRY_BLOCK, n1 - i)) for i in range(0, n1, _SYMMETRY_BLOCK)] + [
            (i, min(_SYMMETRY_BLOCK, m - i)) for i in range(n1, m, _SYMMETRY_BLOCK)
        ]

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 600])
    def test_slices_cover_the_triangle_once_in_order(self, m):
        # Each slot holds its rank in the row-major upper triangle, so the
        # strips, read under their masks, give back 0, 1, 2, ... in order.
        g = packed_order(m)
        strips = list(_rfp_strips(g, m))
        ranks = np.concatenate([strip[upper] for _, _, strip, upper in strips])
        assert np.array_equal(ranks, np.arange(m * (m + 1) // 2))
        assert [(i, b) for i, b, _, _ in strips] == self.expected_strips(m)
        assert all(np.shares_memory(strip, g) for _, _, strip, _ in strips)

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 600])
    def test_each_mask_is_the_strip_upper_triangle_of_its_slice_length(self, m):
        for i, b, strip, upper in _rfp_strips(packed_order(m), m):
            assert np.array_equal(upper, np.triu(np.ones((b, m - i), dtype=bool)))
            assert strip.shape == upper.shape


class TestPackedFrobenius:
    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 600])
    def test_matches_the_norm_of_the_unpacked_matrix(self, m):
        p = np.random.default_rng(m).normal(size=m * (m + 1) // 2)
        expected = np.linalg.norm(unpack_gram(p, m), "fro")
        assert np.isclose(gram_frobenius(p), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(7,), (2,), (5,), (3, 2), (6, 1)])
    def test_input_that_is_no_packed_triangle_is_rejected(self, shape):
        # Lengths 7, 2 and 5 lie between triangles; a 2-D array is not packed.
        with pytest.raises(DimensionError):
            gram_frobenius(np.ones(shape))


class TestRfpDiagonal:
    @pytest.mark.parametrize("m", range(1, 65))
    def test_slots_match_a_dtpttf_marker_vector(self, m):
        # Diagonal entry i carries the marker i + 1; dtpttf shows where it lands.
        i = np.arange(m)
        marker = np.zeros(m * (m + 1) // 2)
        marker[i * m - i * (i - 1) // 2] = i + 1.0
        rfp, _ = dtpttf(m, marker, transr="N", uplo="L")
        slots = _rfp_diagonal(m)
        assert np.array_equal(rfp[slots], i + 1.0)
        assert np.count_nonzero(rfp) == m

    @pytest.mark.parametrize("m", [*range(1, 70), 255, 256, 257, 600, 601, 800])
    def test_slots_are_the_strip_diagonals_of_a_slot_number_vector(self, m):
        # The strip views of a vector holding each slot's own number show
        # every diagonal slot directly; computed from M alone, the slots
        # must be the same.
        numbers = np.arange(m * (m + 1) // 2)
        expected = np.concatenate(
            [strip.diagonal() for _, _, strip, _ in _rfp_strips(numbers, m)]
        )
        assert np.array_equal(_rfp_diagonal(m), expected)

    def test_frobenius_allocates_far_less_than_a_gram(self):
        # The diagonal's slots are computed from M in a few length-M integer
        # vectors: no index array as long as the gram, and no strip mask.
        m = 800
        g = np.random.default_rng(8).normal(size=m * (m + 1) // 2)
        tracemalloc.start()
        try:
            gram_frobenius(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * 8


class TestPackedSymmetricProduct:
    @pytest.mark.parametrize("m", [1, 255, 256, 257, 600])
    def test_matches_the_dense_product(self, m):
        # Strips reorder each row's sum, so the two agree to the rounding
        # bound of an M-term dot product, M * eps * (|G| @ |W|), entry by entry.
        rng = np.random.default_rng(m)
        p, w = rng.normal(size=m * (m + 1) // 2), rng.normal(size=(m, 7))
        g = unpack_gram(p, m)
        got = _gram_product(p, np.asfortranarray(w))
        bound = m * np.finfo(np.float64).eps * (np.abs(g) @ np.abs(w))
        assert np.all(np.abs(got - g @ w) <= bound)


class TestRidgeSolve:
    def test_diagonal_case(self):
        w = ridge_solve(rfp(np.eye(2)), np.eye(2), 1.0)
        assert np.allclose(w.weights, 0.5 * np.eye(2), rtol=1e-12)

    def test_normal_equations_oracle(self):
        # Hand inverse of [[2,1],[1,1]] is [[1,-1],[-1,2]].
        w = ridge_solve(
            rfp(np.array([[2.0, 1.0], [1.0, 1.0]])),
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
        w = ridge_solve(rfp(g), c, 1e12)
        assert np.linalg.norm(w.weights, "fro") <= 2.0 * np.linalg.norm(c, "fro") / 1e12

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 12))
        g = x.T @ x
        c = rng.normal(size=(12, 5))
        w = ridge_solve(rfp(g), c, 1e-3)
        residual = np.linalg.norm((g + 1e-3 * np.eye(12)) @ w.weights - c, "fro")
        assert residual <= 1e-8 * np.linalg.norm(c, "fro")

    @pytest.mark.parametrize("m", [1, 5, 300])
    def test_weights_equal_an_rfp_cholesky_of_the_same_system(self, m):
        # The solve factors, in RFP, the entries of G + gamma I, with gamma
        # added to each diagonal entry once, so the weights agree bit for
        # bit with dpftrf and dpftrs run on that system.
        rng = np.random.default_rng(m)
        x = rng.normal(size=(2 * m, m))
        p, c = rfp(x.T @ x), rng.normal(size=(m, 3))
        system = rfp(unpack_gram(p, m) + 0.5 * np.eye(m))
        factor, info = dpftrf(m, system, transr="N", uplo="L")
        assert info == 0
        expected, _ = dpftrs(m, factor, c, transr="N", uplo="L")
        assert np.array_equal(ridge_solve(p, c, 0.5).weights, expected)

    def test_indefinite_gram_fails_with_jitter_trail(self):
        with pytest.raises(NumericalError) as err:
            ridge_solve(rfp(np.diag([-10.0, 1.0])), np.ones((2, 1)), 1.0)
        assert len(err.value.attempted_gammas) == 4
        assert err.value.attempted_gammas[0] == 1.0

    def test_zero_gamma_singular_gram_solves_on_the_jitter_ladder(self):
        # G = v v^T has rank 1; the k = 6 rung, 1e-6 * ||G||_F / M = 7.5e-6,
        # makes it positive definite.
        v = np.arange(1.0, 5.0)
        g, c = np.outer(v, v), np.ones((4, 1))
        w = ridge_solve(rfp(g), c, 0.0)
        jitter = 1e-6 * np.linalg.norm(g, "fro") / 4
        residual = np.linalg.norm((g + jitter * np.eye(4)) @ w.weights - c, "fro")
        assert residual <= 1e-8 * np.linalg.norm(c, "fro")

    def test_zero_gamma_zero_gram_is_factorized_once(self):
        # With ||G||_F = 0 every jitter level is 0.0, so one attempt is the trail.
        with pytest.raises(NumericalError, match=r"jitter level \[0\.0\]") as err:
            ridge_solve(np.zeros(6), np.ones((3, 1)), 0.0)
        assert err.value.attempted_gammas == (0.0,)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 3.7, 1e4, 1e6])
    def test_jitter_ladder_levels(self, monkeypatch, gamma):
        # For gamma >= 1 the levels round exactly as gamma * (1 + 10^-k ||G||_F / M).
        factored = []

        def failing(n, a, **kwargs):
            # The leading minor of order 1 is "not positive definite".
            factored.append(a[_rfp_diagonal(n)].copy())
            return a, 1

        monkeypatch.setattr(stsa.core, "dpftrf", failing)
        x = np.random.default_rng(3).normal(size=(7, 5))
        g = rfp(x.T @ x)
        frob = gram_frobenius(g)
        with pytest.raises(NumericalError) as err:
            ridge_solve(g, np.ones((5, 1)), gamma)
        if gamma >= 1.0:
            rungs = tuple(gamma * (1.0 + 10.0**-k * frob / 5) for k in (6, 4, 2))
        else:
            rungs = tuple(gamma + 10.0**-k * frob / 5 for k in (6, 4, 2))
        assert err.value.attempted_gammas == (gamma,) + rungs
        # Each attempt factors G's diagonal plus its own level, copied afresh.
        diagonal = unpack_gram(g, 5).diagonal()
        assert len(factored) == 4
        for level, seen in zip(err.value.attempted_gammas, factored):
            assert np.array_equal(seen, diagonal + level)

    def test_jitter_escalation_recovers_mild_indefiniteness(self):
        # Smallest eigenvalue -1.001 defeats gamma=1 but not the k=4 rung,
        # gamma * (1 + 1e-4 * ||G||_F / M) with ||G||_F ~ 50.
        w = ridge_solve(rfp(np.diag([-1.001, 50.0])), np.ones((2, 1)), 1.0)
        assert np.all(np.isfinite(w.weights))

    @pytest.mark.parametrize("g", [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
    def test_whole_gram_is_rejected(self, g):
        # A whole (M, M) gram, symmetric or not, is not the packed triangle.
        with pytest.raises(DimensionError, match=r"not the packed triangle \(3,\)"):
            ridge_solve(g, np.eye(2), 1.0)

    @pytest.mark.parametrize("length", [45149, 45151, 45451])
    def test_packed_gram_of_the_wrong_length_is_rejected(self, length):
        # One entry short, one too many, and the triangle of M + 1, for M = 300.
        with pytest.raises(DimensionError, match=r"not the packed triangle \(45150,\)"):
            ridge_solve(np.ones(length), np.ones((300, 1)), 1.0)

    def test_empty_system_is_a_dimension_error(self):
        # M = 0 matches its empty packed triangle but leaves nothing to solve.
        with pytest.raises(DimensionError, match="feature dimension of at least 1"):
            ridge_solve(np.zeros(0), np.zeros((0, 2)), 1.0)

    def test_negative_gamma_is_rejected(self):
        with pytest.raises(DomainError):
            ridge_solve(rfp(np.eye(2)), np.eye(2), -1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_is_rejected_before_any_work(self, monkeypatch, gamma):
        def unreachable(*args, **kwargs):
            raise AssertionError("factorized with a non-finite gamma")

        monkeypatch.setattr(stsa.core, "dpftrf", unreachable)
        # A NaN gram would be a NumericalError; gamma is checked first.
        with pytest.raises(DomainError, match="finite"):
            ridge_solve(np.full(3, np.nan), np.eye(2), gamma)

    def count_solves(self, monkeypatch, spoil_first=False):
        """Record dpftrs calls; optionally spoil the first solution by 1e-6."""
        solves = []

        def counting(n, a, b, **kwargs):
            x, info = dpftrs(n, a, b, **kwargs)
            solves.append(b)
            return (x * (1.0 + 1e-6) if spoil_first and len(solves) == 1 else x), info

        monkeypatch.setattr(stsa.core, "dpftrs", counting)
        return solves

    def test_well_conditioned_system_is_solved_once(self, monkeypatch):
        solves = self.count_solves(monkeypatch)
        x = np.random.default_rng(6).normal(size=(40, 12))
        ridge_solve(rfp(x.T @ x), np.ones((12, 3)), 1.0)
        assert len(solves) == 1

    def test_first_residual_that_misses_is_refined_once(self, monkeypatch):
        # At gamma = 0 the spoiled first solution leaves a relative residual
        # of about 1e-6; one refinement step brings it back under the bound.
        solves = self.count_solves(monkeypatch, spoil_first=True)
        g = np.array([[4.0, 1.0], [1.0, 3.0]])
        c = np.array([[1.0, 0.0], [2.0, 1.0]])
        w = ridge_solve(rfp(g), c, 0.0)
        assert len(solves) == 2
        first_residual = np.linalg.norm(solves[1], "fro") / np.linalg.norm(c, "fro")
        assert first_residual > 1e-8
        residual = np.linalg.norm(g @ w.weights - c, "fro")
        assert residual <= 1e-8 * np.linalg.norm(c, "fro")

    def test_memory_layout_of_the_gram_does_not_change_the_weights(self):
        # A strided view of the RFP gram solves like a contiguous one.
        x = np.random.default_rng(8).normal(size=(400, 300))
        g = rfp(x.T @ x)
        c = np.random.default_rng(9).normal(size=(300, 4))
        padded = np.zeros(2 * g.size)
        padded[::2] = g
        assert not padded[::2].flags.c_contiguous
        weights = [ridge_solve(a, c, 1.0).weights for a in (g, padded[::2])]
        assert np.array_equal(weights[0], weights[1])

    def test_nan_gram_is_a_numerical_error(self):
        with pytest.raises(NumericalError):
            ridge_solve(np.array([1.0, np.nan, 1.0]), np.eye(2), 1.0)

    def test_nan_corr_is_a_numerical_error(self):
        c = np.array([[1.0], [np.nan]])
        with pytest.raises(NumericalError):
            ridge_solve(rfp(np.eye(2)), c, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", ["gram", "corr"])
    def test_non_finite_input_is_named_without_warning(self, target, bad):
        g, c = rfp(np.eye(3)), np.ones((3, 2))
        if target == "gram":
            g[2] = bad  # entry (2, 0)
        else:
            c[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{target} matrix has non-finite"):
                ridge_solve(g, c, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(6))
    def test_non_finite_entry_in_any_packed_slot_names_the_gram(self, slot, bad):
        g = rfp(np.eye(3))
        g[slot] = bad
        with pytest.raises(NumericalError, match="gram matrix has non-finite"):
            ridge_solve(g, np.ones((3, 1)), 1.0)

    def test_zero_corr_gives_zero_weights(self):
        w = ridge_solve(rfp(np.eye(2)), np.zeros((2, 3)), 1.0)
        assert np.array_equal(w.weights, np.zeros((2, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ridge_solve(rfp(np.eye(3)), np.eye(2), 1.0)

    def test_peak_memory_is_the_rfp_factor_and_one_strip(self):
        # G is the caller's. The solve adds its RFP factor (half an M x M
        # array) and the residual product's diagonal tile, never a whole
        # M x M array: a dense system alone would be one unit.
        m, c = 1000, 40
        x = np.random.default_rng(10).normal(size=(m + 50, m))
        g, corr = rfp(x.T @ x), np.ones((m, c))
        del x
        tracemalloc.start()
        try:
            ridge_solve(g, corr, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * m * 8


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
            rfp(np.array([[2.0, 1.0], [1.0, 1.0]])),
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
