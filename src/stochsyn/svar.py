"""Structural vector autoregression on the normalized feature series.

Fitting is ordinary least squares for the reduced form followed by a
Cholesky factorization of the residual covariance, which is the exact
maximum-likelihood structural decomposition under the recursive constraints
used here (unit lower-triangular contemporaneous matrix, diagonal noise
amplitudes, unit-variance uncorrelated noise).  Generation runs the reduced
form with correlated innovations chol_u @ eps, which is algebraically
identical to solving the structural form but cheaper per step.  It fills one
preallocated history array in place, each step reading the p rows before it
newest first.  The first p rows are one exact draw from the stationary
distribution of the lags, so no warm-up steps are run: `stationary_factor`
solves the discrete Lyapunov equation Gamma = F Gamma F^T + blockdiag(sigma_u,
0) of the companion form F (Lutkepohl, New Introduction to Multiple Time
Series Analysis, 2005, sec. 2.1) without BLAS and returns chol(Gamma), which
the array engine uses to start every cell the same way.
"""

import warnings
from dataclasses import dataclass

import numpy as np

DIM = 4
MAX_ORDER = 200
INTERCEPT_WARN = 0.05
LYAPUNOV_TOL = 1e-12   # relative residual of the stationary covariance
MAX_TERMS = 1 << 16    # impulse responses summed at most: spectral radius up to about 0.9997


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


def stationary_factor(model: SvarModel) -> np.ndarray:
    """Lower Cholesky factor of the stationary covariance of the p lags.

    Gamma = Cov([x_{n-1}; ...; x_{n-p}]), stacked newest first as in
    `lag_weights` and `companion_matrix`, solves Gamma = F Gamma F^T + Q with
    Q = blockdiag(sigma_u, 0).  Its block (i, j) is the autocovariance
    C(j - i), C(h) = Cov(x_n, x_{n-h}) = sum_t w_{t+h} w_t^T, where
    w_t = psi_t chol_u are the impulse responses of the moving-average form,
    w_0 = chol_u and w_t = sum_i phi_i w_{t-i}.  The sums run until a block of
    256 terms adds less than machine epsilon of the total.  Every product is
    a fixed-order einsum and the Cholesky factorization is written out, so
    the bits do not depend on BLAS or its thread count.
    Raises ValueError when the sums do not converge within MAX_TERMS terms,
    when the relative residual ||F Gamma F^T + Q - Gamma|| / ||Gamma||
    exceeds LYAPUNOV_TOL, or when Gamma is not positive definite.
    """
    p = model.p
    phi = np.concatenate(list(model.phi), axis=1)            # (4, 4p): F's first block row
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
    return _cholesky(gamma)


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

    One (p + n, 4) history is filled in place: its first p rows are one exact
    draw stationary_factor(model) @ eps from the stationary distribution of
    the lags, and every later row is one step on the p rows before it.  A
    model with no stationary distribution fails that factor's gates with
    ValueError.
    """
    p = model.p
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((p + n, DIM))
    x = np.empty_like(eps)
    x[:p] = np.einsum("ik,k->i", stationary_factor(model), eps[:p].ravel()).reshape(p, DIM)[::-1]
    for t in range(p, x.shape[0]):
        x[t] = step(model, x[t - p : t][::-1], eps[t])
    return x[p:]
