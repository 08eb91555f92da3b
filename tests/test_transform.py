from fractions import Fraction

import numpy as np
import pytest
from sample_stats import wasserstein1
from scipy.special import ndtri
from scipy.stats import norm

from stochsyn import transform
from stochsyn.conduction import LIMIT_PERCENTILE, quantile
from stochsyn.transform import (
    MonotonicityError,
    N_QUANTILES,
    PROB_RANGE,
    NormalizingMap,
    fit_map,
    fit_map_with_fallback,
    forward_map,
    inverse_map,
)


@pytest.fixture(scope="module")
def lognormal_features():
    """Exactly lognormal features, with their log means and deviations."""
    rng = np.random.default_rng(81)
    mu = np.array([11.9, -0.16, 9.0, -0.33])
    sd = np.array([0.30, 0.06, 0.12, 0.05])
    return np.exp(mu + sd * rng.standard_normal((100_000, 4))), mu, sd


@pytest.fixture(scope="module")
def lognormal_map(lognormal_features):
    """Map fit on exactly lognormal features (closure case)."""
    x, mu, sd = lognormal_features
    return fit_map_with_fallback(x), mu, sd


def test_lognormal_closure(lognormal_map):
    m, mu, sd = lognormal_map
    for k in range(4):
        # gamma(z) ~ mu + sd*z: check the one-sigma point and curvature terms
        g1 = np.polynomial.polynomial.polyval(1.0, m.coeffs[k])
        assert abs(g1 - (mu[k] + sd[k])) < 0.01 * sd[k]
        assert np.all(np.abs(m.coeffs[k, 2:]) < 0.02 * sd[k])


def _exact_polyfit(z, y, degree):
    """Least-squares coefficients of y on 1, z, ..., z**degree, ascending: the
    normal equations solved exactly in rationals, rounded once to float."""
    z, y = [Fraction(v) for v in z.tolist()], [Fraction(v) for v in y.tolist()]
    powers = [[Fraction(1)] * len(z)]
    for _ in range(2 * degree):
        powers.append([a * b for a, b in zip(powers[-1], z)])
    k = degree + 1
    rows = [[sum(powers[i + j]) for j in range(k)] + [sum(a * b for a, b in zip(powers[i], y))]
            for i in range(k)]
    for c in range(k):   # Gauss-Jordan; a Gram matrix of distinct points needs no pivoting
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return np.array([float(row[-1]) for row in rows])


@pytest.mark.parametrize("degree", [5, 4, 3])
@pytest.mark.parametrize("data", ["source_features", "lognormal_features"])
def test_fit_map_matches_the_exact_least_squares_solution(request, monkeypatch, data, degree):
    # the degrees `fit_map_with_fallback` tries, each fit whether monotone or
    # not, against the exact solution on the same quantile pairs
    x = request.getfixturevalue(data)
    x = x[0] if data == "lognormal_features" else x
    monkeypatch.setattr(transform, "_check_monotone", lambda m: None)
    got = fit_map(x, degree).coeffs
    probs = np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES)
    want = np.array([_exact_polyfit(ndtri(probs), np.quantile(np.log(col), probs), degree)
                     for col in x.T])
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


def test_quantiles_match_sorted_interpolation_oracle():
    rng = np.random.default_rng(4)
    x = rng.lognormal(2.0, 0.4, 5001)
    probs = np.linspace(0.01, 0.99, 500)
    got = quantile(x, probs)
    # naive sorted-array oracle, linear interpolation between order statistics
    xs = np.sort(x)
    pos = probs * (xs.size - 1)
    lo = np.floor(pos).astype(int)
    hi = np.ceil(pos).astype(int)
    oracle = xs[lo] + (pos - lo) * (xs[hi] - xs[lo])
    assert np.allclose(got, oracle, rtol=1e-12)


def test_quantile_kernel_gives_np_quantile_bits():
    # the fit's probability grid and the limit pools' two levels, on sizes
    # that put positions on and between order statistics, including t = 0.5
    rng = np.random.default_rng(12)
    probs = np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES)
    levels = (LIMIT_PERCENTILE / 100.0, 1.0 - LIMIT_PERCENTILE / 100.0)
    for n in (1, 2, 3, 99, 101, 1000, 5001, 20000):
        x = rng.lognormal(2.0, 0.4, n) * 10.0 ** rng.integers(-8, 8)
        for q in (probs, *levels, 0.0, 0.5, 1.0):
            got, ref = quantile(x, q), np.quantile(x, q)
            assert np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (n, q)


def test_fit_grid_normal_quantiles_match_scipy(monkeypatch):
    # `fit_map`'s standard-normal quantiles (`statistics.NormalDist`, Wichura's
    # AS241) against scipy's Cephes ndtri.  AS241 is documented accurate to
    # about 1 part in 1e16 and Cephes to a peak of 7.2e-16 relative (rms
    # 1.3e-16) in its trials, so the two differ by at most about 8e-16; the
    # bound allows 2e-15 for peaks found by sampling
    seen = []

    def record(z, y, lo, degree):
        seen.append(z[0].copy())
        return np.zeros((4, degree + 1))

    monkeypatch.setattr(transform, "monomial_fit", record)
    monkeypatch.setattr(transform, "_check_monotone", lambda m: None)
    fit_map(np.exp(np.random.default_rng(3).standard_normal((1000, 4))))
    ref = ndtri(np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES))
    assert np.all(np.abs(seen[0] - ref) <= 2e-15 * np.abs(ref))


def test_inverse_map_median_and_clamp(lognormal_map):
    m, mu, sd = lognormal_map
    med = inverse_map(m, np.zeros(4))
    assert np.allclose(med, np.exp(m.coeffs[:, 0]), rtol=1e-12)
    one_sigma = inverse_map(m, np.ones(4))
    assert np.allclose(np.log(one_sigma), mu + sd, atol=0.01)
    # outside the checked window the map clamps
    assert np.allclose(inverse_map(m, np.full(4, 6.0)), inverse_map(m, np.full(4, 4.0)))
    assert np.allclose(inverse_map(m, np.full(4, -6.0)), inverse_map(m, np.full(4, -4.0)))


def test_forward_inverse_roundtrip(fitted_map):
    zg = np.linspace(-3.9, 3.9, 157)
    grid = np.stack([zg] * 4, axis=1)
    z2, flags = forward_map(fitted_map, inverse_map(fitted_map, grid))
    assert not flags.any()
    assert np.max(np.abs(z2 - grid)) < 1e-9


def test_forward_map_flags_out_of_image(fitted_map):
    lo = inverse_map(fitted_map, np.full(4, -4.0))
    z, flags = forward_map(fitted_map, lo * 0.5)
    assert flags.all()
    assert np.allclose(z, -4.0)


def test_monotonicity_checked_on_fit():
    # two well-separated lognormal clusters give a quantile function with a
    # plateau that a degree-5 polynomial can only fit non-monotonically
    rng = np.random.default_rng(7)
    half = 20_000
    lump1 = np.exp(0.0 + 0.05 * rng.standard_normal(half))
    lump2 = np.exp(5.0 + 0.05 * rng.standard_normal(half))
    bi = np.concatenate([lump1, lump2])
    x = np.stack([bi, bi, bi, bi], axis=1)
    with pytest.raises(MonotonicityError) as err:
        fit_map(x)
    assert err.value.feature in ("r_h", "u_s", "r_l", "u_r")


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_map(np.ones((10, 4)))  # too few rows
    bad = np.ones((2000, 4))
    bad[5, 2] = -1.0
    with pytest.raises(ValueError):
        fit_map(bad)


def test_pushforward_w1(fitted_map, source_features):
    rng = np.random.default_rng(99)
    z = rng.standard_normal((100_000, 4))
    gen = inverse_map(fitted_map, z)
    for k in range(4):
        w1 = wasserstein1(gen[:, k], source_features[:, k])
        assert w1 / source_features[:, k].mean() < 0.02


def test_map_shape_validation():
    with pytest.raises(ValueError):
        NormalizingMap(coeffs=np.ones((3, 6)))
