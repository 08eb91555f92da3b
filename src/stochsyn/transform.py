"""Marginal normalizing map between feature space and standard-normal space.

Each of the four cycle features gets one degree-5 polynomial mapping a
standard-normal quantile z to the log of the feature.  The generating
direction (z -> feature) is one Horner evaluation and an exp per component;
the analysis direction (feature -> z) inverts the polynomial numerically and
is needed at fit time only, as is scipy (`ndtri`, imported in `fit_map`).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .conduction import as_float, eval_poly

N_QUANTILES = 500
PROB_RANGE = (0.01, 0.99)
Z_RANGE = (-4.0, 4.0)
Z_LIMIT = 10.0  # z_range must lie inside [-Z_LIMIT, Z_LIMIT]
MONOTONIC_GRID_STEP = 1e-3


class MonotonicityError(ValueError):
    """A fitted quantile polynomial is not increasing on the checked range."""

    def __init__(self, feature: str, z_at: float):
        self.feature = feature
        super().__init__(
            f"quantile polynomial for {feature!r} not increasing near z={z_at:.3f};"
            " refit with a lower degree or more data"
        )


@dataclass(frozen=True)
class NormalizingMap:
    """Per-feature log-space quantile polynomials, monotone on z_range."""

    coeffs: np.ndarray                     # (4, degree+1) ascending
    z_range: tuple = Z_RANGE
    feature_names: tuple = ("r_h", "u_s", "r_l", "u_r")

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "z_range", tuple(float(v) for v in self.z_range))
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != 4 or self.coeffs.shape[1] < 2:
            raise ValueError(f"coeffs must be (4, degree+1), degree >= 1, got {self.coeffs.shape}")
        if not -Z_LIMIT <= self.z_range[0] < self.z_range[1] <= Z_LIMIT:
            raise ValueError(f"z_range must be (lo, hi), {-Z_LIMIT:g} <= lo < hi <= {Z_LIMIT:g},"
                             f" got {self.z_range}")


def _check_monotone(coeffs: np.ndarray, z_range, names) -> None:
    lo, hi = z_range
    grid = np.arange(lo, hi + MONOTONIC_GRID_STEP / 2, MONOTONIC_GRID_STEP)
    for k in range(coeffs.shape[0]):
        dc = coeffs[k, 1:] * np.arange(1, coeffs.shape[1])
        deriv = eval_poly(dc, grid)
        bad = deriv <= 0.0
        if bad.any():
            raise MonotonicityError(names[k], float(grid[np.argmax(bad)]))


def fit_map(features: np.ndarray, degree: int = 5, z_range=Z_RANGE) -> NormalizingMap:
    """Fit the map from empirical quantiles of the log features.

    Quantiles are taken at N_QUANTILES equally spaced probabilities between
    0.01 and 0.99 (linear interpolation between order statistics) and paired
    with the standard-normal quantiles of the same probabilities; a
    least-squares polynomial of ``degree`` is fit per feature and verified to
    be increasing on z_range.  Non-monotone fits are a hard error, no silent
    repair.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError(f"features must be (n, 4), got {x.shape}")
    if x.shape[0] < 1000:
        raise ValueError(f"need at least 1000 feature vectors, got {x.shape[0]}")
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise ValueError("features must be finite and strictly positive")
    from scipy.special import ndtri  # fit time only: no other import loads scipy
    probs = np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES)
    zq = ndtri(probs)
    coeffs = np.empty((4, degree + 1))
    for k in range(4):
        lq = np.quantile(np.log(x[:, k]), probs)
        coeffs[k] = np.polynomial.polynomial.polyfit(zq, lq, degree)
    m = NormalizingMap(coeffs=coeffs, z_range=tuple(z_range))
    _check_monotone(m.coeffs, m.z_range, m.feature_names)
    return m


def fit_map_with_fallback(features: np.ndarray, degree: int = 5,
                          min_degree: int = 3, z_range=Z_RANGE) -> NormalizingMap:
    """fit_map, retrying at successively lower degrees on monotonicity failure.

    The quantile pairs only span the fitted probability range (roughly
    +-2.3 sigma), so with moderate sample sizes the top polynomial orders are
    noise-dominated and can turn the extrapolated tail non-monotone; dropping
    the degree is the documented caller-side remedy.  Each fallback emits a
    warning; below ``min_degree`` the last error propagates.
    """
    last: MonotonicityError | None = None
    for d in range(degree, min_degree - 1, -1):
        try:
            m = fit_map(features, degree=d, z_range=z_range)
        except MonotonicityError as exc:
            warnings.warn(
                f"degree-{d} quantile fit not monotone ({exc.feature});"
                f" retrying with degree {d - 1}",
                RuntimeWarning,
            )
            last = exc
            continue
        if d < degree:
            padded = np.zeros((4, degree + 1))
            padded[:, : d + 1] = m.coeffs
            m = NormalizingMap(coeffs=padded, z_range=m.z_range)
        return m
    raise last


def _eval_gamma(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Feature k's polynomial, row k of ``coeffs``, at z[..., k]."""
    out = np.empty_like(z)
    for k in range(4):
        out[..., k] = eval_poly(coeffs[k], z[..., k])
    return out


def inverse_map(m: NormalizingMap, z) -> np.ndarray:
    """Map normal deviates to feature space: exp(gamma_k(z_k)) per component.

    z outside z_range is clamped first (deliberate tail truncation: the
    polynomials are only monotonicity-checked inside that window).
    Dtype-generic like `eval_poly`: float32 z, as the array engine passes,
    is realized in float32 with the coefficients and the clamp bounds
    rounded to float32; any other z in float64.
    """
    z = np.clip(as_float(z), *m.z_range)
    return np.exp(_eval_gamma(m.coeffs, z))


def forward_map(m: NormalizingMap, x, tol: float = 1e-12):
    """Map features to normal deviates by inverting the gamma polynomials.

    Solves gamma_k(z) = log(x_k) by bracketed bisection plus a Newton polish
    on z_range.  Returns (z, out_of_range) where the mask marks components
    whose log fell outside the image of gamma on z_range; those come back
    clamped to the matching endpoint.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.log(x)
    lo_val = _eval_gamma(m.coeffs, np.full_like(target, m.z_range[0]))
    hi_val = _eval_gamma(m.coeffs, np.full_like(target, m.z_range[1]))
    out_of_range = (target < lo_val) | (target > hi_val)
    t = np.clip(target, lo_val, hi_val)

    lo = np.full_like(t, m.z_range[0])
    hi = np.full_like(t, m.z_range[1])
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = _eval_gamma(m.coeffs, mid) <= t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    # Newton cleanup; the bracket already has ~1e-15 width in z, this drives
    # the residual in gamma itself under tol
    for _ in range(3):
        resid = _eval_gamma(m.coeffs, z) - t
        deriv = _eval_gamma(m.coeffs[:, 1:] * np.arange(1, m.coeffs.shape[1]), z)
        z = np.clip(z - resid / deriv, m.z_range[0], m.z_range[1])
    resid = np.abs(_eval_gamma(m.coeffs, z) - t)
    if np.max(resid) > tol:
        warnings.warn(
            f"forward transform residual {np.max(resid):.2e} above {tol:.0e}",
            RuntimeWarning,
        )
    return z, out_of_range
