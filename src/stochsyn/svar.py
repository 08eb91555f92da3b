"""Structural vector autoregression on the normalized feature series.

One model, built from the fit's outputs: reduced-form lag matrices phi_i,
residual covariance sigma_u and intercept (Lutkepohl, New Introduction to
Multiple Time Series Analysis, 2005, ch. 2).  The constructor derives its
recursive structural form (ch. 9), the exact maximum-likelihood
decomposition under those constraints, once.  One kernel, `step`, advances
the float64 generator, the float32 array engine and its test mirror.  Every
start is one exact draw from the stationary distribution of the lags.  Their
covariance is solved once, without BLAS (`stationary_covariance`); each model
caches its Cholesky factor, and C(0) is `synth.reference_bundle`'s sigma.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conduction import as_float

DIM = 4
MAX_ORDER = 200
INTERCEPT_WARN = 0.05
LYAPUNOV_TOL = 1e-12   # relative residual of the stationary covariance
MAX_TERMS = 1 << 16    # impulse responses summed at most: spectral radius up to about 0.9997


def structural_decompose(sigma_u: np.ndarray):
    """Recursive-identification MLE (a, b) from the residual covariance: with
    L = chol(sigma_u), b = diag(L) and a = b L^-1, so a^-1 b = L exactly."""
    sigma_u = np.asarray(sigma_u, dtype=np.float64)
    try:
        chol = np.linalg.cholesky(sigma_u)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance not positive definite: {exc}") from exc
    b = np.diag(np.diag(chol))
    # forward substitution keeps the strict upper triangle exactly zero
    a = b @ np.linalg.inv(chol)
    a[np.triu_indices(DIM, 1)] = 0.0
    np.fill_diagonal(a, 1.0)
    return a, b


@dataclass(frozen=True)
class SvarModel:
    """Model of order p = len(phi) from phi (p, 4, 4), sigma_u (4, 4) and the
    intercept (4,), kept for reporting: the generator treats the process as
    zero-mean.  Derived on construction: p, chol_u = chol(sigma_u), and the
    structural form, a unit lower-triangular and b positive diagonal with
    a^-1 b = chol_u (`structural_decompose`), c_i = a phi_i.
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
        a, b = structural_decompose(self.sigma_u)
        chol_u = np.linalg.cholesky(self.sigma_u)
        if np.max(np.abs(chol_u @ chol_u.T - self.sigma_u)) > 1e-10:
            raise ValueError("sigma_u is not symmetric within 1e-10")
        vars(self).update(p=len(self.phi), a=a, b=b, chol_u=chol_u,
                          c=np.stack([a @ phi_i for phi_i in self.phi]))

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
    """OLS regression of x_n on its p lags and a constant, as a model.

    The residual covariance uses denominator N - p (the number of fitted
    rows).  The input is expected to be normalized, so a large intercept is
    suspicious and triggers a warning.
    """
    x = np.asarray(series, dtype=np.float64)
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if x.ndim != 2 or x.shape[1] != DIM:
        raise ValueError(f"series must be (n, {DIM}), got {x.shape}")
    n = x.shape[0]
    n_params = DIM * p + 1
    if n <= 10 * n_params:
        raise ValueError(f"need more than {10 * n_params} observations for p={p}, got {n}")

    y = x[p:]
    design = np.empty((n - p, n_params))
    for i in range(1, p + 1):
        design[:, (i - 1) * DIM : i * DIM] = x[p - i : n - i]
    design[:, -1] = 1.0

    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < n_params:
        raise ValueError(f"regressor matrix is rank deficient ({rank} < {n_params})")
    resid = y - design @ beta
    intercept = beta[-1]
    if np.max(np.abs(intercept)) > INTERCEPT_WARN:
        warnings.warn(
            f"intercept {intercept} larger than {INTERCEPT_WARN}; input not centered?",
            RuntimeWarning,
        )
    return SvarModel(phi=np.stack([beta[(i - 1) * DIM : i * DIM].T for i in range(1, p + 1)]),
                     sigma_u=resid.T @ resid / (n - p), intercept=intercept)


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
    if model.p > 1:
        f[DIM:, :-DIM] = np.eye(k - DIM)
    return f


def spectral_radius(model: SvarModel) -> float:
    """Largest eigenvalue modulus of the companion matrix (LAPACK eigvals)."""
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(model)))))


def stationary_covariance(model: SvarModel) -> np.ndarray:
    """Stationary covariance of the p lags; its (4, 4) top-left block is C(0).

    Gamma = Cov([x_{n-1}; ...; x_{n-p}]), stacked newest first as in
    `lag_weights` and `companion_matrix`, solves Gamma = F Gamma F^T + Q with
    Q = blockdiag(sigma_u, 0).  Its block (i, j) is the autocovariance
    C(j - i), C(h) = Cov(x_n, x_{n-h}) = sum_t w_{t+h} w_t^T, where
    w_t = psi_t chol_u are the impulse responses of the moving-average form,
    w_0 = chol_u and w_t = sum_i phi_i w_{t-i}.  The sums run until a block of
    256 terms adds less than machine epsilon of the total.  Every product is
    a fixed-order einsum, so the bits do not depend on BLAS or its thread
    count, and C(0) is exactly symmetric.  Raises ValueError when the sums
    do not converge within MAX_TERMS terms, or when the relative residual
    ||F Gamma F^T + Q - Gamma|| / ||Gamma|| exceeds LYAPUNOV_TOL.
    """
    p = model.p
    phi = model.lag_weights().T                              # (4, 4p): F's first block row
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
    cov = [np.einsum("ik,jk->ij", wt[:, h : h + n].reshape(DIM, -1), right) for h in range(p)]
    blocks = np.stack([c.T for c in cov[:0:-1]] + cov)  # C(-(p-1)), ..., C(p-1)
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
    """Lower Cholesky factor of `stationary_covariance` (ValueError if not positive definite)."""
    return _cholesky(stationary_covariance(model))


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, column by column with fixed-order einsums."""
    low = np.zeros_like(a)
    for j in range(len(a)):
        col = a[j:, j] - np.einsum("ik,k->i", low[j:, :j], low[j, :j])
        if not col[0] > 0.0:
            raise ValueError(f"stationary covariance not positive definite (pivot {j})")
        low[j:, j] = col / np.sqrt(col[0])
    return low


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
