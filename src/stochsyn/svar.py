"""Structural vector autoregression on the normalized feature series.

Fitting is ordinary least squares for the reduced form followed by a
Cholesky factorization of the residual covariance, which is the exact
maximum-likelihood structural decomposition under the recursive constraints
used here (unit lower-triangular contemporaneous matrix, diagonal noise
amplitudes, unit-variance uncorrelated noise).  Generation runs the reduced
form with correlated innovations chol_u @ eps, which is algebraically
identical to solving the structural form but cheaper per step.  It fills one
preallocated history array in place, each step reading the p rows before it
newest first, and discards a fixed burn-in of max(10 p, 500) steps.
"""

import warnings
from dataclasses import dataclass

import numpy as np

DIM = 4
MAX_ORDER = 200
INTERCEPT_WARN = 0.05


@dataclass(frozen=True)
class SvarModel:
    """Fitted model of order p.

    a:  (4, 4) unit lower-triangular contemporaneous matrix
    b:  (4, 4) positive diagonal noise-amplitude matrix
    c:  (p, 4, 4) structural lag matrices
    phi: (p, 4, 4) reduced-form lag matrices, phi_i = a^-1 c_i
    sigma_u: (4, 4) reduced-form residual covariance
    chol_u:  its lower Cholesky factor (= a^-1 b)
    intercept: (4,) reduced-form constant, kept for reporting; the generator
        treats the process as zero-mean and does not add it.
    """

    p: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    phi: np.ndarray
    sigma_u: np.ndarray
    chol_u: np.ndarray
    intercept: np.ndarray

    def __post_init__(self):
        if not (1 <= self.p <= MAX_ORDER):
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {self.p}")
        for name in ("a", "b", "c", "phi", "sigma_u", "chol_u", "intercept"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, value)
        if self.c.shape != (self.p, DIM, DIM) or self.phi.shape != (self.p, DIM, DIM):
            raise ValueError("lag matrices must have shape (p, 4, 4)")
        if np.any(np.triu(self.a, 1) != 0.0) or np.any(np.diag(self.a) != 1.0):
            raise ValueError("a must be unit lower-triangular")
        if np.any(self.b != np.diag(np.diag(self.b))) or np.any(np.diag(self.b) <= 0.0):
            raise ValueError("b must be diagonal with positive entries")
        recon = self.chol_u @ self.chol_u.T
        if np.max(np.abs(recon - self.sigma_u)) > 1e-10:
            raise ValueError("chol_u does not reproduce sigma_u within 1e-10")

    def lag_weights(self) -> np.ndarray:
        """Reduced-form weights stacked as one (4p, 4) matrix.

        Row block i holds phi_{i+1}.T, so that with lags flattened newest
        first, x_new = lags_flat @ lag_weights() + chol_u @ eps.
        """
        return np.concatenate([self.phi[i].T for i in range(self.p)], axis=0)


@dataclass(frozen=True)
class VarFit:
    """Reduced-form OLS result."""

    phi: np.ndarray        # (p, 4, 4)
    sigma_u: np.ndarray    # (4, 4)
    intercept: np.ndarray  # (4,)


def fit_var_ols(series: np.ndarray, p: int) -> VarFit:
    """OLS regression of x_n on its p lags and a constant.

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
    sigma_u = resid.T @ resid / (n - p)
    phi = np.stack([beta[(i - 1) * DIM : i * DIM].T for i in range(1, p + 1)])
    intercept = beta[-1]
    if np.max(np.abs(intercept)) > INTERCEPT_WARN:
        warnings.warn(
            f"intercept {intercept} larger than {INTERCEPT_WARN}; input not centered?",
            RuntimeWarning,
        )
    return VarFit(phi=phi, sigma_u=sigma_u, intercept=intercept)


def structural_decompose(sigma_u: np.ndarray):
    """Recursive-identification MLE: (a, b) from the residual covariance.

    With L the lower Cholesky factor of sigma_u, b = diag(L) and
    a = b @ L^-1, so a^-1 b = L reproduces sigma_u exactly.
    """
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


def build_model(fit: VarFit) -> SvarModel:
    """Assemble the structural model from a reduced-form fit."""
    phi = np.asarray(fit.phi, dtype=np.float64)
    p = phi.shape[0]
    a, b = structural_decompose(fit.sigma_u)
    chol = np.linalg.cholesky(np.asarray(fit.sigma_u, dtype=np.float64))
    c = np.stack([a @ phi[i] for i in range(p)])
    return SvarModel(
        p=p, a=a, b=b, c=c, phi=phi,
        sigma_u=np.asarray(fit.sigma_u, dtype=np.float64),
        chol_u=chol, intercept=np.asarray(fit.intercept, dtype=np.float64),
    )


def fit_svar(series: np.ndarray, p: int) -> SvarModel:
    return build_model(fit_var_ols(series, p))


def step(model: SvarModel, lags: np.ndarray, eps) -> np.ndarray:
    """One VAR cycle: x_n = sum_i phi_i x_{n-i} + chol_u eps.

    lags is a (p, 4) array ordered newest first: [x_{n-1}, ..., x_{n-p}].
    """
    return np.einsum("pij,pj->i", model.phi, lags) + model.chol_u @ np.asarray(eps, dtype=np.float64)


def companion_matrix(model: SvarModel) -> np.ndarray:
    k = DIM * model.p
    f = np.zeros((k, k))
    f[:DIM] = np.concatenate(list(model.phi), axis=1)
    if model.p > 1:
        f[DIM:, :-DIM] = np.eye(k - DIM)
    return f


def spectral_radius(model: SvarModel) -> float:
    """Largest eigenvalue modulus of the companion matrix (LAPACK eigvals)."""
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(model)))))


def generate(model: SvarModel, n: int, seed) -> np.ndarray:
    """Generate n normalized vectors; deterministic for a given seed.

    One (p + burn_in + n, 4) history is filled in place: its first p rows are
    chol_u @ eps, every later row is one step on the p rows before it, and the
    first max(10 p, 500) of those steps are discarded as burn-in.
    """
    radius = spectral_radius(model)
    if radius >= 1.0:
        raise ValueError(f"model is not stationary (spectral radius {radius:.4f})")
    p = model.p
    burn_in = max(10 * p, 500)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((p + burn_in + n, DIM))
    x = np.empty_like(eps)
    for t in range(p):
        x[t] = model.chol_u @ eps[t]
    for t in range(p, x.shape[0]):
        x[t] = step(model, x[t - p : t][::-1], eps[t])
    return x[p + burn_in :]
