"""Marginal normalizing map between feature space and standard-normal space.

Each of the four cycle features gets one polynomial of degree GAMMA_DEGREE
mapping a standard-normal quantile z to the log of the feature, checked
increasing on Z_RANGE (a failure names the feature from
`waveform.FEATURE_NAMES`).  The generating direction (z -> feature) is one
Horner evaluation and an exp per component; the analysis direction
(feature -> z) inverts the polynomial numerically and is needed at fit time
only.  The fit's standard-normal quantiles come from `_ndtri`, a port of the
Cephes ``ndtri`` that `scipy.special.ndtri` runs, bit for bit on the
probabilities it covers, so the runtime needs numpy alone.  Its polynomials
come from `conduction.monomial_fit`, the least-squares path of the branch
fits, so no LAPACK call moves their bits.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .conduction import as_float, eval_poly, monomial_fit, quantile
from .waveform import FEATURE_NAMES

N_QUANTILES = 500
PROB_RANGE = (0.01, 0.99)
Z_RANGE = (-4.0, 4.0)
MONOTONIC_GRID_STEP = 1e-3
GAMMA_DEGREE = 5         # quantile polynomial degree, lowered only on a monotonicity failure
MIN_FALLBACK_DEGREE = 3  # `fit_map_with_fallback` drops the degree no lower
FORWARD_TOL = 1e-12      # largest gamma residual `forward_map` passes silently

# Cephes ndtri: a rational approximation in p - 0.5 for exp(-2) < p < 1 - exp(-2),
# one in 1/x, x = sqrt(-2 log p), for the tails while x < 8 (p > exp(-32))
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_S2PI = 2.50662827463100050242e0
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)


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


def _horner(x: float, coeffs, monic: bool = False) -> float:
    """Cephes `polevl`, or with ``monic`` `p1evl` (an implicit leading 1)."""
    acc = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _ndtri(p: float) -> float:
    """The standard-normal quantile of p, as Cephes ``ndtri`` computes it.

    Python floats with `math.log` and `math.sqrt` repeat the C code's
    operations one by one, so the result equals `scipy.special.ndtri`'s bits.
    Only the central branch and the first tail branch are ported: a p
    outside exp(-32) < p < 1 - exp(-32), roughly, raises ValueError.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability {p!r} is outside (0, 1)")
    upper = p > 1.0 - _NDTRI_EXP_M2
    y = 1.0 - p if upper else p
    if y > _NDTRI_EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, monic=True))
        return x * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    if not x < 8.0:
        raise ValueError(f"probability {p!r} is in a tail the ndtri port does not cover")
    z = 1.0 / x
    x = x - math.log(x) / x - z * _horner(z, _NDTRI_P1) / _horner(z, _NDTRI_Q1, monic=True)
    return x if upper else -x


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
    with the standard-normal quantiles of the same probabilities (`_ndtri`, a
    port of the Cephes ``ndtri`` that gives `scipy.special.ndtri`'s bits); a
    least-squares polynomial of ``degree`` is fit per feature, all four in
    one `conduction.monomial_fit`, and verified to be increasing on Z_RANGE.
    Non-monotone fits are a hard error, no silent repair.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError(f"features must be (n, 4), got {x.shape}")
    if x.shape[0] < 1000:
        raise ValueError(f"need at least 1000 feature vectors, got {x.shape[0]}")
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise ValueError("features must be finite and strictly positive")
    probs = np.linspace(PROB_RANGE[0], PROB_RANGE[1], N_QUANTILES)
    zq = np.array([_ndtri(v) for v in probs.tolist()])
    lq = np.stack([quantile(np.log(x[:, k]), probs) for k in range(4)])
    m = NormalizingMap(coeffs=monomial_fit(np.broadcast_to(zq, lq.shape), lq, 0, degree))
    _check_monotone(m)
    return m


def fit_map_with_fallback(features: np.ndarray) -> NormalizingMap:
    """fit_map, retrying at successively lower degrees on monotonicity failure.

    The quantile pairs only span the fitted probability range (roughly
    +-2.3 sigma), so with moderate sample sizes the top polynomial orders are
    noise-dominated and can turn the extrapolated tail non-monotone; dropping
    the degree is the documented caller-side remedy.  The degrees run from
    GAMMA_DEGREE down to MIN_FALLBACK_DEGREE, and a lower-degree map is padded
    with zero columns to GAMMA_DEGREE + 1 coefficients.  Each fallback emits a
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
        if d < GAMMA_DEGREE:
            padded = np.zeros((4, GAMMA_DEGREE + 1))
            padded[:, : d + 1] = m.coeffs
            m = NormalizingMap(coeffs=padded)
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
