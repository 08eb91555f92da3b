"""Sample statistics the tests judge outputs by: the 1-D Wasserstein
distance, the lagged Pearson correlations of a series, and the model's
correlations in the same orientation (`model_correlations`)."""

import warnings
from dataclasses import dataclass, field

import numpy as np


def wasserstein1(a, b) -> float:
    """First Wasserstein distance between two empirical 1-D distributions.

    For equal sample sizes this is exactly the mean absolute difference of
    the sorted samples.  Unequal sizes are first resampled to the smaller
    size at midpoint quantiles (reported via a warning).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein1 needs non-empty samples")
    if a.size != b.size:
        warnings.warn(
            f"unequal sample sizes ({a.size} vs {b.size}); resampling both to"
            " the smaller size at midpoint quantiles",
            RuntimeWarning,
        )
        n = min(a.size, b.size)
        q = (np.arange(n) + 0.5) / n
        a = np.quantile(a, q)
        b = np.quantile(b, q)
        return float(np.mean(np.abs(a - b)))
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


@dataclass
class CorrelationReport:
    """Pearson matrices per lag; rho[l][i, j] correlates the i-th variable
    lagged by l against the j-th variable unlagged."""

    lags: np.ndarray                  # (L,)
    rho: np.ndarray                   # (L, 4, 4)
    zero_variance: list = field(default_factory=list)  # (lag, row-or-col index)


def lagged_pearson(series: np.ndarray, max_lag: int) -> CorrelationReport:
    """Auto- and cross-correlations of a 4-component series for lags 0..max_lag.

    Row variables are lagged with respect to column variables; means and
    standard deviations are taken over the overlapping range at each lag.
    Zero-variance components are reported as correlation 0 with a flag.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 4:
        raise ValueError(f"series must be (n, 4), got {x.shape}")
    n = x.shape[0]
    if n <= 10 * max_lag:
        raise ValueError(f"series length {n} too short for max_lag={max_lag}")

    lags = np.arange(max_lag + 1)
    rho = np.zeros((max_lag + 1, 4, 4))
    flagged = []
    for l in lags:
        lead = x[l:]                      # column variables at time n
        lagd = x[: n - l]                 # row variables at time n - l
        lc = lead - lead.mean(axis=0)
        gc = lagd - lagd.mean(axis=0)
        v_lead = np.einsum("ni,ni->i", lc, lc)
        v_lag = np.einsum("ni,ni->i", gc, gc)
        dead = (v_lead == 0.0) | (v_lag == 0.0)
        num = gc.T @ lc
        den = np.sqrt(np.outer(v_lag, v_lead))
        r = np.clip(num / np.where(den > 0.0, den, 1.0), -1.0, 1.0)
        if l == 0:
            np.fill_diagonal(r, 1.0)  # self-correlation, exact by definition
        if dead.any():
            for k in np.nonzero(dead)[0]:
                flagged.append((int(l), int(k)))
            r[v_lag == 0.0, :] = 0.0
            r[:, v_lead == 0.0] = 0.0
        rho[l] = r
    return CorrelationReport(lags=lags, rho=rho, zero_variance=flagged)


def model_correlations(cov: np.ndarray) -> np.ndarray:
    """rho(0..H) of a model from its C(0..H) (`svar.autocovariances`), in
    `lagged_pearson`'s orientation: rho[l][i, j] = corr(x_i at n - l, x_j at n),
    the transpose of C(l) = Cov(x_n, x_{n-l}) normalized by C(0)'s diagonal."""
    sd = np.sqrt(np.diag(cov[0]))
    return cov.transpose(0, 2, 1) / np.outer(sd, sd)
