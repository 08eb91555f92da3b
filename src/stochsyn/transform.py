"""Marginal normalizing map between feature space and standard-normal space.

Each of the four cycle features gets one polynomial, of degree GAMMA_DEGREE
or the lower one `fit_map_with_fallback` fell back to, mapping a
standard-normal quantile z to the log of the feature, checked increasing on
Z_RANGE (a failure names the feature from `conduction.FEATURE_NAMES`).  A map
keeps the degree it was fitted at: trailing zero coefficients would move no
bit, only cost one Horner step each.  The generating direction (z -> feature)
is one Horner evaluation and an exp per component; the analysis direction
(feature -> z) inverts the polynomial numerically and is needed at fit time
only.  The fit's standard-normal quantiles come from the standard library's
`statistics.NormalDist` (Wichura's AS241), so the runtime needs numpy alone.
Its polynomials come from `conduction.monomial_fit`, the least-squares path
of the branch fits, so no LAPACK call moves their bits.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .conduction import FEATURE_NAMES, as_float, eval_poly, monomial_fit, quantile

N_QUANTILES = 500
PROB_RANGE = (0.01, 0.99)
Z_RANGE = (-4.0, 4.0)
MONOTONIC_GRID_STEP = 1e-3
GAMMA_DEGREE = 5         # quantile polynomial degree, lowered only on a monotonicity failure
MIN_FALLBACK_DEGREE = 3  # `fit_map_with_fallback` drops the degree no lower
FORWARD_TOL = 1e-12      # largest gamma residual `forward_map` passes silently


class MonotonicityError(ValueError):
    """A fitted quantile polynomial is not increasing on the checked range."""

    def __init__(self, feature: str, z_at: float):
        self.feature = feature
        super().__init__(
            f"quantile polynomial for {feature!r} not increasing near z={z_at:.3f};"
            " fit a features file with more cycles"
        )


@dataclass(frozen=True)
class NormalizingMap:
    """Per-feature log-space quantile polynomials, used on Z_RANGE: `fit_map`
    checks them monotone there, and `inverse_map` clamps z to it."""

    coeffs: np.ndarray                     # (4, degree+1) ascending

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != 4 or self.coeffs.shape[1] < 2:
            raise ValueError(f"coeffs must be (4, degree+1), degree >= 1, got {self.coeffs.shape}")


def _check_monotone(m: NormalizingMap) -> None:
    lo, hi = Z_RANGE
    grid = np.arange(lo, hi + MONOTONIC_GRID_STEP / 2, MONOTONIC_GRID_STEP)
    for name, c in zip(FEATURE_NAMES, m.coeffs):
        bad = eval_poly(c[1:] * np.arange(1, c.size), grid) <= 0.0
        if bad.any():
            raise MonotonicityError(name, float(grid[np.argmax(bad)]))


def fit_map(features: np.ndarray, degree: int = GAMMA_DEGREE) -> NormalizingMap:
    """Fit the map from empirical quantiles of the log features.

    Quantiles are taken at N_QUANTILES equally spaced probabilities between
    0.01 and 0.99 (linear interpolation between order statistics) and paired
    with the standard-normal quantiles of the same probabilities
    (`statistics.NormalDist().inv_cdf`); a least-squares polynomial of
    ``degree`` is fit per feature, all four in one `conduction.monomial_fit`,
    and verified to be increasing on Z_RANGE.  A feature whose log quantiles
    at 0.01 and 0.99 are equal has no spread to map and raises ValueError
    before any fit; non-monotone fits are a hard error, no silent repair.
    """
    from statistics import NormalDist   # here, or `decimal` and `fractions` slow every start
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError(f"features must be (n, 4), got {x.shape}")
    if x.shape[0] < 1000:
        raise ValueError(f"need at least 1000 feature vectors, got {x.shape[0]}")
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise ValueError("features must be finite and strictly positive")
    probs = np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES)
    lq = np.stack([quantile(np.log(x[:, k]), probs) for k in range(4)])
    for name, row in zip(FEATURE_NAMES, lq):
        if row[0] == row[-1]:
            raise ValueError(f"feature {name!r} has no spread: equal quantiles at 0.01 and 0.99")
    zq = np.array([NormalDist().inv_cdf(v) for v in probs.tolist()])
    m = NormalizingMap(coeffs=monomial_fit(np.broadcast_to(zq, lq.shape), lq, 0, degree))
    _check_monotone(m)
    return m


def fit_map_with_fallback(features: np.ndarray) -> NormalizingMap:
    """fit_map, retrying at successively lower degrees on monotonicity failure.

    The quantile pairs only span the fitted probability range (roughly
    +-2.3 sigma), so with moderate sample sizes the top polynomial orders are
    noise-dominated and can turn the extrapolated tail non-monotone; dropping
    the degree is the documented caller-side remedy.  The degrees run from
    GAMMA_DEGREE down to MIN_FALLBACK_DEGREE, and the map keeps the degree it
    was fitted at: degree + 1 coefficients per feature.  Each fallback emits a
    warning; the error of the fit at MIN_FALLBACK_DEGREE propagates.
    """
    for d in range(GAMMA_DEGREE, MIN_FALLBACK_DEGREE - 1, -1):
        try:
            m = fit_map(features, degree=d)
        except MonotonicityError as exc:
            if d == MIN_FALLBACK_DEGREE:
                raise
            warnings.warn(
                f"degree-{d} quantile fit not monotone ({exc.feature});"
                f" retrying with degree {d - 1}",
                RuntimeWarning,
            )
            continue
        return m


def _eval_gamma(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Feature k's polynomial, row k of ``coeffs``, at z[..., k]."""
    out = np.empty_like(z)
    for k in range(4):
        out[..., k] = eval_poly(coeffs[k], z[..., k])
    return out


def inverse_map(m: NormalizingMap, z) -> np.ndarray:
    """Map normal deviates to feature space: exp(gamma_k(z_k)) per component.

    z outside Z_RANGE is clamped first (deliberate tail truncation: the
    polynomials are only monotonicity-checked inside that window).
    Dtype-generic like `eval_poly`: float32 z, as the array engine passes,
    is realized in float32 with the coefficients and the clamp bounds
    rounded to float32; any other z in float64.
    """
    z = np.clip(as_float(z), *Z_RANGE)
    return np.exp(_eval_gamma(m.coeffs, z))


def forward_map(m: NormalizingMap, x):
    """Map features to normal deviates by inverting the gamma polynomials.

    Solves gamma_k(z) = log(x_k) by bracketed bisection plus a Newton polish
    on Z_RANGE.  Returns (z, out_of_range) where the mask marks components
    whose log fell outside the image of gamma on Z_RANGE; those come back
    clamped to the matching endpoint.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.log(x)
    lo_val = _eval_gamma(m.coeffs, np.full_like(target, Z_RANGE[0]))
    hi_val = _eval_gamma(m.coeffs, np.full_like(target, Z_RANGE[1]))
    out_of_range = (target < lo_val) | (target > hi_val)
    t = np.clip(target, lo_val, hi_val)

    lo = np.full_like(t, Z_RANGE[0])
    hi = np.full_like(t, Z_RANGE[1])
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = _eval_gamma(m.coeffs, mid) <= t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    # Newton cleanup; the bracket already has ~1e-15 width in z, this drives
    # the residual in gamma itself under FORWARD_TOL
    for _ in range(3):
        resid = _eval_gamma(m.coeffs, z) - t
        deriv = _eval_gamma(m.coeffs[:, 1:] * np.arange(1, m.coeffs.shape[1]), z)
        z = np.clip(z - resid / deriv, *Z_RANGE)
    resid = np.abs(_eval_gamma(m.coeffs, z) - t)
    if np.max(resid) > FORWARD_TOL:
        warnings.warn(
            f"forward transform residual {np.max(resid):.2e} above {FORWARD_TOL:.0e}",
            RuntimeWarning,
        )
    return z, out_of_range
