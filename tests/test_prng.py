"""Deterministic stream and seed-derivation behavior."""

import warnings

import numpy as np
import pytest

from stsa.prng import ChaChaStream, derive_seed


def test_equal_seeds_give_identical_streams():
    a = ChaChaStream(1234)
    b = ChaChaStream(1234)
    assert a.bytes(64) == b.bytes(64)
    assert np.array_equal(a.standard_normal(100), b.standard_normal(100))


def test_call_chunking_does_not_change_the_stream():
    a = ChaChaStream(9)
    b = ChaChaStream(9)
    assert a.bytes(32) == b.bytes(16) + b.bytes(16)


def test_different_seeds_diverge():
    assert ChaChaStream(1).bytes(32) != ChaChaStream(2).bytes(32)


def test_derive_seed_is_label_sensitive_and_stable():
    assert derive_seed(7, "map") == derive_seed(7, "map")
    assert derive_seed(7, "map") != derive_seed(7, "partition")
    assert derive_seed(7, "map") != derive_seed(8, "map")
    assert 0 <= derive_seed(7, "map") < 2**64


def test_uniforms_live_in_unit_interval():
    u = ChaChaStream(3).random(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = ChaChaStream(4).standard_normal(500_000)
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 0.01


def test_permutation_is_a_permutation():
    perm = ChaChaStream(5).permutation(1000)
    assert np.array_equal(np.sort(perm), np.arange(1000))
    assert ChaChaStream(5).permutation(1000).tolist() == perm.tolist()


def test_permutation_of_zero_and_one():
    assert ChaChaStream(6).permutation(0).size == 0
    assert ChaChaStream(6).permutation(1).tolist() == [0]


def test_gamma_moments():
    for alpha in (0.3, 1.0, 4.5):
        g = ChaChaStream(11).gamma(alpha, 200_000)
        assert np.all(g > 0.0)
        # Gamma(a, 1): mean a, variance a.
        assert abs(g.mean() - alpha) < 4.0 * np.sqrt(alpha / g.size)
        assert abs(g.var() - alpha) < 0.05 * max(alpha, 1.0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0])
def test_gamma_rejects_invalid_shape(alpha):
    # No draw is ever accepted for a NaN or infinite shape.
    with pytest.raises(ValueError, match="positive and finite"):
        ChaChaStream(0).gamma(alpha, 3)


def test_dirichlet_sums_to_one():
    p = ChaChaStream(12).dirichlet(0.5, 8)
    assert p.shape == (8,)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-12
    assert ChaChaStream(12).dirichlet(0.5, 1).tolist() == [1.0]


@pytest.mark.parametrize(
    "alpha, k, message",
    [
        (float("nan"), 1, "positive and finite"),
        (0.0, 1, "positive and finite"),
        (-1.0, 1, "positive and finite"),
        (float("nan"), 3, "positive and finite"),
        (0.5, 0, "k >= 1 categories, got 0"),
        (2.0, 0, "k >= 1 categories, got 0"),
        (2.0, -1, "k >= 1 categories, got -1"),
    ],
)
def test_dirichlet_rejects_a_bad_alpha_or_k_at_any_k(alpha, k, message):
    # The k = 1 shortcut must not skip the alpha check.
    with pytest.raises(ValueError, match=message):
        ChaChaStream(0).dirichlet(alpha, k)


@pytest.mark.parametrize("alpha", [1e-300, 5e-324])
def test_dirichlet_with_underflowing_gamma_draws_is_a_vertex(alpha):
    # Every boosted Gamma draw underflows to 0 at these shapes; the log-space
    # draw puts all mass on the largest log, a vertex of the simplex.
    for seed in range(20):
        p = ChaChaStream(seed).dirichlet(alpha, 3)
        assert np.all(np.isfinite(p))
        assert sorted(p.tolist()) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("alpha", [1e308, 1.7e308])
def test_dirichlet_at_a_huge_finite_alpha_is_near_uniform(alpha):
    # The Gamma draws are each near alpha, so their sum overflows; the draw
    # is scaled by its largest entry instead of becoming 0 / inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ChaChaStream(1).dirichlet(alpha, 3)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.allclose(p, 1.0 / 3.0)
