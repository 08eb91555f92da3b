import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_stats import lagged_pearson, wasserstein1

finite = st.floats(-1e6, 1e6, allow_nan=False)


def test_w1_identical_is_zero():
    a = np.random.default_rng(0).normal(size=500)
    assert wasserstein1(a, a) == 0.0


def test_w1_constant_shift():
    a = np.random.default_rng(1).normal(size=1000)
    assert wasserstein1(a, a + 3.25) == pytest.approx(3.25, rel=1e-12)


def test_w1_empty_rejected():
    with pytest.raises(ValueError):
        wasserstein1([], [1.0])


def test_w1_matches_exhaustive_assignment():
    # minimum-cost perfect matching over all pairings of 4 elements
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        oracle = min(
            np.mean(np.abs(a - b[list(perm)]))
            for perm in itertools.permutations(range(4))
        )
        assert wasserstein1(a, b) == pytest.approx(oracle, rel=1e-12)


@given(st.lists(finite, min_size=1, max_size=40), st.lists(finite, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_w1_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), rel=1e-9, abs=1e-12)


@given(
    st.lists(finite, min_size=5, max_size=30),
    st.lists(finite, min_size=5, max_size=30),
    st.lists(finite, min_size=5, max_size=30),
    st.floats(-100, 100),
)
@settings(max_examples=100, deadline=None)
def test_w1_triangle_and_scale(a, b, c, scale):
    n = min(len(a), len(b), len(c))
    a, b, c = np.array(a[:n]), np.array(b[:n]), np.array(c[:n])
    ab, bc, ac = wasserstein1(a, b), wasserstein1(b, c), wasserstein1(a, c)
    assert ac <= ab + bc + 1e-9 * (1 + ab + bc)
    got = wasserstein1(scale * a, scale * b)
    assert got == pytest.approx(abs(scale) * ab, rel=1e-9, abs=1e-9)


def test_w1_unequal_sizes_resampled():
    rng = np.random.default_rng(3)
    a = rng.normal(size=4000)
    b = rng.normal(size=7000) + 1.0
    with pytest.warns(RuntimeWarning):
        w = wasserstein1(a, b)
    assert w == pytest.approx(1.0, abs=0.1)


# -- lagged correlations ------------------------------------------------------

def test_lag0_diagonal_exactly_one():
    x = np.random.default_rng(4).normal(size=(5000, 4))
    rep = lagged_pearson(x, 10)
    assert np.array_equal(np.diag(rep.rho[0]), np.ones(4))
    assert np.max(np.abs(rep.rho)) <= 1.0


def test_ar1_autocorrelation_matches_analytic():
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.normal(size=(n, 4))
    ar = np.zeros(n)
    for k in range(1, n):
        ar[k] = 0.5 * ar[k - 1] + x[k, 0]
    series = x.copy()
    series[:, 1] = ar
    rep = lagged_pearson(series, 6)
    for lag in range(1, 7):
        assert rep.rho[lag][1, 1] == pytest.approx(0.5**lag, abs=0.02)


def test_white_cross_correlations_null():
    x = np.random.default_rng(6).normal(size=(100_000, 4))
    rep = lagged_pearson(x, 3)
    off = rep.rho[0][~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.02
    assert np.max(np.abs(rep.rho[1:])) < 0.02


def test_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20_000, 4))
    y = x * np.array([2.0, 5.0, 0.3, 11.0]) + np.array([1.0, -2.0, 0.0, 4.0])
    a = lagged_pearson(x, 4).rho
    b = lagged_pearson(y, 4).rho
    assert np.allclose(a, b, atol=1e-12)


def test_zero_variance_flagged():
    x = np.random.default_rng(8).normal(size=(2000, 4))
    x[:, 2] = 7.0
    rep = lagged_pearson(x, 2)
    assert any(k == 2 for _, k in rep.zero_variance)
    assert np.allclose(rep.rho[:, 2, :], 0.0)
    assert np.allclose(rep.rho[:, :, 2], 0.0)


def test_series_too_short_rejected():
    with pytest.raises(ValueError):
        lagged_pearson(np.zeros((50, 4)), 10)
