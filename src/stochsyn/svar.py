"""Structural vector autoregression on the normalized feature series.

One model, built from the fit's outputs: reduced-form lag matrices phi_i,
residual covariance sigma_u and intercept (Lutkepohl, New Introduction to
Multiple Time Series Analysis, 2005, ch. 2).  `fit_svar` is the least-squares
estimator in moment form (sec. 3.2), solved from the series' lag moments by
`conduction.normal_solver`, without BLAS or the regressor matrix.  The model
keeps the reduced form alone.  `structural_decompose` gives its recursive
structural form (ch. 9), the exact maximum-likelihood decomposition under
those constraints, by forward substitution on chol(sigma_u); the parameter
file stores it beside the model.  One kernel, `step`, advances the float64
generator, the float32 array engine and its test mirror.  The model's
second moments come from one function, `autocovariances`, without BLAS:
C(h) = Cov(x_n, x_{n-h}) for h = 0..H.  Every start is one exact draw from
the stationary distribution of the lags, whose covariance
(`stationary_covariance`) is built from C(0..p-1); each model caches its
factor.  Every factor, chol_u's too, is `conduction.positive_definite_factor`'s.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conduction import as_float, normal_solver, positive_definite_factor

DIM = 4
MAX_ORDER = 200
INTERCEPT_WARN = 0.05
LYAPUNOV_TOL = 1e-12   # relative residual of the stationary covariance
MAX_TERMS = 1 << 16    # impulse responses summed at most: spectral radius up to about 0.9997
SPECTRAL_DIGITS = 10   # significant digits `spectral_radius` keeps


def structural_decompose(sigma_u: np.ndarray):
    """Recursive-identification MLE (a, b) from the residual covariance: with
    L = chol(sigma_u), as `SvarModel.chol_u`, b = diag(L) and a = b L^-1, so a^-1 b = L."""
    chol = positive_definite_factor(sigma_u, "covariance")
    # a inverts the unit lower triangle L b^-1; forward substitution keeps
    # its strict upper triangle exactly zero and its diagonal exactly one
    return forward_substitution(chol / np.diag(chol), np.eye(DIM)), np.diag(np.diag(chol))


def forward_substitution(unit: np.ndarray, x: np.ndarray) -> np.ndarray:
    """unit^-1 x, in place, for a unit lower-triangular (4, 4): fixed-order einsums."""
    for j in range(1, DIM):
        x[j] -= np.einsum("k,kd->d", unit[j, :j], x[:j])
    return x


@dataclass(frozen=True)
class SvarModel:
    """Model of order p = len(phi) from phi (p, 4, 4), sigma_u (4, 4) and the
    intercept (4,), kept for reporting: the generator treats the process as
    zero-mean.  Derived on construction: p and chol_u, the innovations' mix, by
    `conduction.positive_definite_factor`; ValueError if sigma_u is asymmetric or not PD.
    """

    phi: np.ndarray
    sigma_u: np.ndarray
    intercept: np.ndarray

    def __post_init__(self):
        for name in ("phi", "sigma_u", "intercept"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        if self.phi.ndim != 3 or self.phi.shape[1:] != (DIM, DIM) \
                or not 1 <= len(self.phi) <= MAX_ORDER:
            raise ValueError(f"phi must be (p, 4, 4) with order p in [1, {MAX_ORDER}],"
                             f" got {self.phi.shape}")
        if self.sigma_u.shape != (DIM, DIM) or self.intercept.shape != (DIM,):
            raise ValueError("sigma_u must be (4, 4) and intercept (4,)")
        if np.max(np.abs(self.sigma_u - self.sigma_u.T)) > 1e-10:
            raise ValueError("sigma_u is not symmetric within 1e-10")
        vars(self).update(p=len(self.phi), chol_u=positive_definite_factor(self.sigma_u, "sigma_u"))

    def lag_weights(self) -> np.ndarray:
        """(4p, 4) Fortran-ordered, row block i phi_{i+1}.T: the `step` weights
        for lags flattened newest first."""
        return np.concatenate(list(self.phi), axis=1).T

    @cached_property
    def stationary_factor(self) -> np.ndarray:
        """`stationary_factor(self)`, solved on first use and kept read-only."""
        factor = stationary_factor(self)
        factor.flags.writeable = False
        return factor


def fit_svar(series: np.ndarray, p: int) -> SvarModel:
    """Least-squares regression of x_n on its p lags and a constant, as a model.

    The estimator in moment form, B = Y Z' (Z Z')^-1 (Lutkepohl 2005, sec.
    3.2), from `_lag_moments` without the (n - p, 4p + 1) regressor matrix Z.
    The normal equations are solved by `conduction.normal_solver`, and the
    residuals come from one einsum per lag, so no BLAS or LAPACK call is made
    and the bits do not depend on their thread count.  A pivot not above
    `conduction.RANK_RTOL` times its diagonal entry drops its regressor, all
    but a combination of the ones before it, whose solve would keep fewer
    than about six significant digits: ValueError "rank deficient".
    Normalized feature series give relative pivots near 1.  A NaN or
    infinity is a ValueError that names its row and column.  The residual
    covariance uses denominator n - p (the number of fitted rows).  The input
    is expected to be normalized, so a large intercept triggers a warning.
    """
    x = np.asarray(series, dtype=np.float64)
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {p}")
    if x.ndim != 2 or x.shape[1] != DIM:
        raise ValueError(f"series must be (n, {DIM}), got {x.shape}")
    n = x.shape[0]
    n_params = DIM * p + 1
    if n <= 10 * n_params:
        raise ValueError(f"need more than {10 * n_params} observations for p={p}, got {n}")
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        raise ValueError(f"series is not finite at row {bad[0, 0]}, column {bad[0, 1]}")

    moments = _lag_moments(x, p)
    solve, dropped = normal_solver(moments[DIM:, DIM:])
    if dropped.any():
        raise ValueError(f"regressor matrix is rank deficient (column {dropped.argmax()})")
    beta = solve(moments[DIM:, :DIM].T).T   # (4p + 1, 4): lags newest first, constant
    phi = np.ascontiguousarray(beta[:-1].reshape(p, DIM, DIM).transpose(0, 2, 1))
    intercept = beta[-1]
    resid = x[p:] - intercept
    term = np.empty_like(resid)
    for i in range(1, p + 1):
        resid -= np.einsum("sk,jk->sj", x[p - i : n - i], phi[i - 1], out=term)
    if np.max(np.abs(intercept)) > INTERCEPT_WARN:
        warnings.warn(
            f"intercept {intercept} larger than {INTERCEPT_WARN}; input not centered?",
            RuntimeWarning,
        )
    return SvarModel(phi=phi, sigma_u=np.einsum("si,sj->ij", resid, resid) / (n - p),
                     intercept=intercept)


def _lag_moments(x: np.ndarray, p: int) -> np.ndarray:
    """Sum over t = p..n-1 of w_t w_t^T, w_t = [x_t; x_{t-1}; ...; x_{t-p}; 1].

    Its block (i, i + h) is the lag-h moment over the window s = p-i..n-1-i,
    sum x_s x_{s-h}^T: one fixed-order einsum over the n - 2p samples that
    every window of lag h shares, plus running sums of the first and last p
    products.  The constant's column comes from sums of x the same way.
    """
    n = x.shape[0]
    inner = slice(p, n - p)
    i = np.arange(p + 1)
    blocks = np.empty((p + 1, DIM, p + 1, DIM))
    for h in range(p + 1):
        shared = np.einsum("si,sj->ij", x[inner], x[p - h : n - p - h])
        head = _running_sums(np.einsum("si,sj->sij", x[h:p], x[: p - h])[::-1])
        tail = _running_sums(np.einsum("si,sj->sij", x[n - p :], x[n - p - h : n - h]))
        window = (shared + head) + tail[::-1][: p + 1 - h]   # windows i = 0..p-h
        blocks[i[: p + 1 - h], :, i[h:], :] = window
        blocks[i[h:], :, i[: p + 1 - h], :] = window.transpose(0, 2, 1)
    sums = (np.einsum("si->i", x[inner]) + _running_sums(x[p - 1 :: -1])) \
        + _running_sums(x[n - p :])[::-1]
    k = DIM * (p + 1)
    moments = np.empty((k + 1, k + 1))
    moments[:k, :k] = blocks.reshape(k, k)
    moments[:k, k] = moments[k, :k] = sums.ravel()
    moments[k, k] = n - p
    return moments


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """(len(terms) + 1, ...): entry k is the sum of the first k terms, in order."""
    out = np.zeros((len(terms) + 1, *terms.shape[1:]))
    np.cumsum(terms, axis=0, out=out[1:])
    return out


def mix_lower_triangular(eps: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """(tri @ eps).T for a lower-triangular 4x4 and word-major draws (4, M).

    Expanded term by term with a fixed left-to-right evaluation order, so
    the result is bit-identical for every batch shape and stride (einsum
    picks its summation order from the memory layout).  Dtype-generic (see
    `conduction.as_float`), with tri rounded to the draws' dtype.
    """
    eps = as_float(eps)
    tri = np.asarray(tri, dtype=eps.dtype)
    out = np.empty((eps.shape[1], DIM), dtype=eps.dtype)
    out[:, 0] = tri[0, 0] * eps[0]
    out[:, 1] = tri[1, 0] * eps[0] + tri[1, 1] * eps[1]
    out[:, 2] = (tri[2, 0] * eps[0] + tri[2, 1] * eps[1]) + tri[2, 2] * eps[2]
    out[:, 3] = ((tri[3, 0] * eps[0] + tri[3, 1] * eps[1]) + tri[3, 2] * eps[2]) \
        + tri[3, 3] * eps[3]
    return out


def step(lags: np.ndarray, weights: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One VAR cycle per row, x_n = sum_i phi_i x_{n-i} + u_n, for (m, 4p)
    lags flattened newest first, `SvarModel.lag_weights` and (m, 4)
    innovations u_n = chol_u eps_n from `mix_lower_triangular`.  A fixed
    einsum, not BLAS: its summation order depends only on dtype and layout.
    """
    return np.einsum("mk,kj->mj", lags, weights, optimize=False) + noise


def companion_matrix(model: SvarModel) -> np.ndarray:
    k = DIM * model.p
    f = np.zeros((k, k))
    f[:DIM] = model.lag_weights().T
    f[DIM:, :-DIM] = np.eye(k - DIM)
    return f


def spectral_radius(model: SvarModel) -> float:
    """Largest eigenvalue modulus of the companion matrix (LAPACK eigvals),
    rounded to SPECTRAL_DIGITS significant digits.

    eigvals moves the last bits with BLAS's thread count (by 2e-15 for a
    fitted order-100 model on 1 and 2 threads); the rounding lies far above
    that, so `fit`'s .diag.json holds the same value under every count.  A
    radius within that wobble of a rounding boundary, about one model in
    10^4 or fewer, can still round both ways.  The value is reported only:
    stationarity is decided by `stationary_factor`.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(companion_matrix(model)))))
    return float(f"{radius:.{SPECTRAL_DIGITS}g}")


def autocovariances(model: SvarModel, H: int) -> np.ndarray:
    """(H + 1, 4, 4): the autocovariances C(0..H), C(h) = Cov(x_n, x_{n-h}).

    For h < p, C(h) = sum_t w_{t+h} w_t^T, where w_t = psi_t chol_u are the
    impulse responses of the moving-average form, w_0 = chol_u and
    w_t = sum_i phi_i w_{t-i} (Lutkepohl 2005, sec. 2.1.4).  The sums run until
    a block of 256 terms adds less than machine epsilon of the total, and
    C(0) is exactly symmetric.  For h >= p the Yule-Walker recursion
    C(h) = sum_i phi_i C(h - i) continues them.  Every product is a
    fixed-order einsum, so the bits do not depend on BLAS or its thread count,
    nor on H.  ValueError when H is not a non-negative integer, or when the
    sums diverge or do not converge within MAX_TERMS terms.
    """
    if not isinstance(H, (int, np.integer)) or H < 0:
        raise ValueError(f"H must be a non-negative integer, got {H!r}")
    p = model.p
    phi_rev = np.concatenate(list(model.phi[::-1]), axis=1)  # pairs with w oldest first
    # w[p - 1 + t] = w_t; the p - 1 zero blocks in front stand for t < 0
    block = 256  # terms between convergence checks
    w = np.zeros((p + 2 * block, DIM, DIM))
    w[p - 1] = model.chol_u
    total = float(np.sum(model.chol_u**2))
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if t >= MAX_TERMS:
                raise ValueError(f"model is not stationary, or too close to a unit root: its"
                                 f" covariance series does not converge within {MAX_TERMS} terms")
            if p + t + block > len(w):
                w = np.concatenate([w, np.zeros_like(w)])
            for t in range(t + 1, t + block + 1):
                np.einsum("ik,kj->ij", phi_rev, w[t - 1 : t - 1 + p].reshape(-1, DIM),
                          out=w[p - 1 + t])
            energy = float(np.sum(w[p + t - block : p + t] ** 2))
            total += energy
            if not np.isfinite(total):
                raise ValueError("model is not stationary: its covariance series diverges")
            if energy <= np.finfo(float).eps * total:
                break
    # the last p - 1 terms, negligible, have no partners at lag p - 1
    n = t + 1 - (p - 1)
    wt = np.ascontiguousarray(w[p - 1 : p + t].transpose(1, 0, 2))  # (4, t + 1, 4)
    right = wt[:, :n].reshape(DIM, -1)
    cov = np.empty((H + 1, DIM, DIM))
    for h in range(min(H + 1, p)):
        cov[h] = np.einsum("ik,jk->ij", wt[:, h : h + n].reshape(DIM, -1), right)
    for h in range(p, H + 1):
        cov[h] = np.einsum("ik,kj->ij", phi_rev, cov[h - p : h].reshape(-1, DIM))
    return cov


def stationary_covariance(model: SvarModel) -> np.ndarray:
    """Stationary covariance of the p lags; its (4, 4) top-left block is C(0).

    Gamma = Cov([x_{n-1}; ...; x_{n-p}]), stacked newest first as in
    `lag_weights` and `companion_matrix`, solves Gamma = F Gamma F^T + Q with
    Q = blockdiag(sigma_u, 0).  Its block (i, j) is C(j - i), from
    `autocovariances(model, p - 1)`, with C(-h) = C(h)^T.  Raises ValueError
    as `autocovariances` does, or when the relative residual
    ||F Gamma F^T + Q - Gamma|| / ||Gamma|| exceeds LYAPUNOV_TOL.
    """
    p = model.p
    phi = model.lag_weights().T                              # (4, 4p): F's first block row
    cov = autocovariances(model, p - 1)
    blocks = np.concatenate([cov[:0:-1].transpose(0, 2, 1), cov])  # C(-(p-1)), ..., C(p-1)
    lag = np.arange(p)
    gamma = blocks[p - 1 + lag[None, :] - lag[:, None]].transpose(0, 2, 1, 3).reshape(DIM * p, -1)

    # Gamma is block Toeplitz by construction, so the residual vanishes outside
    # its first block row and column, which are transposes of each other
    top = np.einsum("ik,kl->il", phi, gamma)  # first block row of F Gamma
    resid = np.concatenate([np.einsum("ik,jk->ij", top, phi) + model.sigma_u,
                            top[:, :-DIM]], axis=1) - gamma[:DIM]
    sq = 2.0 * np.sum(resid**2) - np.sum(resid[:, :DIM] ** 2)
    resid_rel = float(np.sqrt(sq / np.einsum("ij,ij->", gamma, gamma)))
    if not resid_rel <= LYAPUNOV_TOL:
        raise ValueError(f"model is not stationary: Lyapunov residual {resid_rel:.3g}"
                         f" (limit {LYAPUNOV_TOL:g})")
    return gamma


def stationary_factor(model: SvarModel) -> np.ndarray:
    """`conduction.positive_definite_factor` of `stationary_covariance`: ValueError
    "not positive definite" at a pivot not above `conduction.RANK_RTOL` times
    its diagonal entry, the rule sigma_u passed when the model was built."""
    return positive_definite_factor(stationary_covariance(model), "stationary covariance")


def generate(model: SvarModel, n: int, seed) -> np.ndarray:
    """Generate n normalized vectors; deterministic for a given seed.

    One (n + p, 4) history holds the series newest first, so each step's
    lags are the 4p values after its row.  The last p rows are one exact
    draw from the stationary distribution of the lags (ValueError if there
    is none); each row above is one `step`, innovations mixed up front.
    """
    p = model.p
    eps = np.random.default_rng(seed).standard_normal((p + n, DIM))
    noise = mix_lower_triangular(eps[: p - 1 : -1].T, model.chol_u)  # row order
    weights = model.lag_weights()
    hist = np.empty((n + p, DIM))
    hist[n:] = np.einsum("ik,k->i", model.stationary_factor, eps[:p].ravel()).reshape(p, DIM)
    flat = hist.reshape(1, -1)
    for row in range(n - 1, -1, -1):
        hist[row] = step(flat[:, DIM * (row + 1) : DIM * (row + p + 1)], weights, noise[row])
    return hist[:n][::-1]
