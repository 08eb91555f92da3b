"""Static electrical model of a resistive cell.

The current of a cell in any state is a linear mixture of two fixed limiting
polynomials in the applied voltage: the most resistive characteristic
(``hhrs``) and the most conductive one (``llrs``).  A single state variable
``r`` in [0, 1] selects the mixture, with r = 1 the most resistive limit.
The module also holds the parabolic transition current, `transition_current`,
that connects a cycle's low-resistance branch to the next high-resistance
branch during gradual positive-polarity switching, and the constrained
polynomial fits (c0 = 0, c1 >= MIN_LINEAR_COEFF) of degree HRS_FIT_DEGREE
and LRS_FIT_DEGREE that fit each cycle's branches and, from the branch
points pooled over the cycles at the LIMIT_PERCENTILE extremes, the limits.
U0_DEFAULT is the one reference voltage of the package's static resistances.
`quantile` is the sample quantile that the limit pools and the normalizing
map's fit share.  Every least-squares fit of the package, the VAR's too,
solves its normal equations by `normal_solver` (Golub and Van Loan, Matrix
Computations, 4th ed., sec. 5.3), in fixed-order einsums without BLAS or LAPACK.
"""

from dataclasses import dataclass

import numpy as np

FEATURE_NAMES = ("r_h", "u_s", "r_l", "u_r")   # the four per-cycle features, in order
U0_DEFAULT = 0.2            # reference voltage for static resistance [V]
MIN_LINEAR_COEFF = 1e-9     # lower bound on the linear coefficient [A/V]
DENOM_FLOOR = 1e-12         # |i_llrs - i_hhrs| below this is degenerate [A]
MIN_CURVE_SPAN = 1e-3       # smallest usable u_max - u_r, the transition curve's span [V]
LIMIT_PERCENTILE = 1.0      # share of cycles pooled at each extreme [%]
HRS_FIT_DEGREE = 5          # degree of the high-resistance branch fits
LRS_FIT_DEGREE = 3          # degree of the low-resistance branch fits
RANK_RTOL = 1e-10           # least Cholesky pivot kept, relative to its diagonal entry


class DegenerateVoltageError(ValueError):
    """Raised when the two limiting polynomials cannot be separated at u."""


def as_float(x) -> np.ndarray:
    """``x`` as an array in the dtype the model kernels compute in: float32
    stays float32 (the array engine), anything else becomes float64.  The
    kernels' constants are Python floats, which numpy rounds to float32 next
    to float32 operands, as explicit float32 constants would be."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def eval_poly(coeffs, u):
    """Evaluate sum_k c_k * u**k by Horner's rule.

    ``coeffs`` are ascending (c_0 first).  The accumulation runs from the
    highest coefficient down, one multiply-add per order, so the operation
    order is fixed and results are bit-reproducible.  Dtype-generic (see
    `as_float`), with the coefficients rounded to float32 for float32 ``u``.
    Accepts scalar or array ``u``; float64 scalars come back as floats.
    """
    u_arr = as_float(u)
    coeffs = np.asarray(coeffs, dtype=u_arr.dtype)
    if coeffs.size == 0:
        raise ValueError("empty coefficient list")
    acc = np.zeros_like(u_arr) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u_arr + c
    if acc.ndim == 0:
        return acc.item() if acc.dtype == np.float64 else acc[()]
    return acc


def quantile(x, q):
    """``np.quantile(x, q)`` of a finite 1-d ``x`` by its default (linear)
    method, bit for bit, from one sort.  Position (n - 1) q lies between
    order statistics a and b, and the fraction t between them interpolates
    as a + (b - a) t, or as b - (b - a)(1 - t) for t >= 0.5; q = 1 takes
    the largest value.  np.quantile's first call imports numpy.ma, which
    costs a fresh command about 15 ms; this does not.
    """
    s = np.sort(x)
    pos = (s.size - 1) * np.asarray(q, dtype=np.float64)
    top = pos >= s.size - 1
    lo = np.where(top, -1, np.floor(pos).astype(np.intp))
    a, b = s[lo], s[np.where(top, -1, lo + 1)]
    t = pos - lo
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


@dataclass(frozen=True)
class ConductionModel:
    """Limiting-polynomial pair; static resistances are taken at U0_DEFAULT.

    Coefficients are ascending; the constant terms must be exactly zero and
    the linear terms at least MIN_LINEAR_COEFF.  The conductive branch must
    carry more current than the resistive one at U0_DEFAULT.
    """

    hhrs: np.ndarray
    llrs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hhrs", np.asarray(self.hhrs, dtype=np.float64))
        object.__setattr__(self, "llrs", np.asarray(self.llrs, dtype=np.float64))
        for name, c in (("hhrs", self.hhrs), ("llrs", self.llrs)):
            if c.ndim != 1 or c.size < 2:
                raise ValueError(f"{name} needs at least linear order")
            if c[0] != 0.0:
                raise ValueError(f"{name} constant term must be 0 A, got {c[0]!r}")
            if c[1] < MIN_LINEAR_COEFF:
                raise ValueError(
                    f"{name} linear coefficient {c[1]:g} A/V below {MIN_LINEAR_COEFF:g}"
                )
        ih, il = self.i_hhrs(U0_DEFAULT), self.i_llrs(U0_DEFAULT)
        if not (il > ih > 0.0):
            raise ValueError(
                f"need i_llrs(u0) > i_hhrs(u0) > 0 at u0={U0_DEFAULT}, got {il:g}, {ih:g}"
            )

    def i_hhrs(self, u):
        return eval_poly(self.hhrs, u)

    def i_llrs(self, u):
        return eval_poly(self.llrs, u)

    def static_resistance(self, r):
        """u0 / I(r, u0) at u0 = U0_DEFAULT for a state variable r."""
        return U0_DEFAULT / current(r, U0_DEFAULT, self)


def current(r, u, model: ConductionModel):
    """Mixture current I(r, u) = r*i_hhrs(u) + (1 - r)*i_llrs(u)."""
    ih = model.i_hhrs(u)
    il = model.i_llrs(u)
    return r * ih + (1.0 - r) * il


def state_from_point(i, u, model: ConductionModel):
    """State variable of the mixture curve passing through the point (i, u).

    Clamped to [0, 1].  Raises DegenerateVoltageError when the limiting
    currents at u differ by less than DENOM_FLOOR.
    """
    il = model.i_llrs(u)
    denom = il - model.i_hhrs(u)
    if np.min(np.abs(denom)) < DENOM_FLOOR:
        raise DegenerateVoltageError(
            f"limiting currents separated by < {DENOM_FLOOR:g} A at u={u!r}"
        )
    return np.clip((il - i) / denom, 0.0, 1.0)


def state_from_resistance(res, model: ConductionModel):
    """State variable whose static resistance at u0 = U0_DEFAULT equals
    ``res``: clip(ca - cb / res), ca = i_l / (i_l - i_h) and
    cb = u0 / (i_l - i_h) at u0.  Dtype-generic (see `as_float`)."""
    res = as_float(res)
    if np.min(res) <= 0.0:
        raise ValueError(f"resistance must be positive, got {res!r}")
    il = model.i_llrs(U0_DEFAULT)
    denom = il - model.i_hhrs(U0_DEFAULT)
    return np.clip(il / denom - (U0_DEFAULT / denom) / res, 0.0, 1.0)


def transition_current(u, u_start, r_lrs, r_next, u_max, model: ConductionModel):
    """Current at ``u`` on the parabolic transition from the low-resistance
    point (u_start, I(r_lrs, u_start)) to the next high-resistance point
    (u_max, I(r_next, u_max)) during gradual positive-polarity switching.

    The three conditions (both endpoint currents, zero slope at u_max) pin
    the parabola in vertex form as i_end + curv * (u - u_max)**2; no other
    form of it is written.  Elementwise over broadcast arrays; dtype-generic
    (see `as_float`); ``u_max`` is a Python float.  Squares are products:
    ``d ** 2`` of a 0-d float32 is a scalar power that is not always
    correctly rounded, while ``d * d`` rounds alike for scalars and arrays.
    """
    i_end = current(r_next, u_max, model)
    d_start, d = u_start - u_max, u - u_max
    curv = (current(r_lrs, u_start, model) - i_end) / (d_start * d_start)
    return i_end + curv * (d * d)


def transition_state(u_a, u_start, r_lrs, r_next, u_max, model: ConductionModel):
    """State at amplitude ``u_a`` on the `transition_current` parabola,
    inverted as `state_from_point` does but with the limiting-current gap
    floored at DENOM_FLOOR instead of raising."""
    i_at = transition_current(u_a, u_start, r_lrs, r_next, u_max, model)
    il = model.i_llrs(u_a)
    denom = np.maximum(il - model.i_hhrs(u_a), DENOM_FLOOR)
    return np.clip((il - i_at) / denom, 0.0, 1.0)


def fit_conduction_poly(u, i, degree) -> np.ndarray:
    """Least-squares polynomial of ``degree`` with c0 = 0 and c1 >= MIN_LINEAR_COEFF.

    One row of `fit_conduction_polys`.  Returns ascending coefficients of
    length degree + 1.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size <= degree:
        raise ValueError(f"need more than {degree} points, got {u.size}")
    return fit_conduction_polys(u[None, :], np.asarray(i, dtype=np.float64)[None, :], degree)[0]


def fit_conduction_polys(u, i, degree) -> np.ndarray:
    """`fit_conduction_poly` for every row of a (rows, width) block at once.

    Each row is fit with c0 = 0, so a point at u = i = 0 adds nothing to its
    fit: windows of different sizes are zero-padded (or zeroed where masked
    off) to one width.  The linear bound is enforced by a single active-set
    clamp (fix c1, refit the rest), which is always feasible; only the rows
    that need it are refit.  Returns (rows, degree + 1) ascending
    coefficients.
    """
    u = np.asarray(u, dtype=np.float64)
    i = np.asarray(i, dtype=np.float64)
    coef = monomial_fit(u, i, 1, degree)
    low = np.nonzero(coef[:, 0] < MIN_LINEAR_COEFF)[0]
    if low.size:
        coef[low, 0] = MIN_LINEAR_COEFF
        coef[low, 1:] = monomial_fit(u[low], i[low] - MIN_LINEAR_COEFF * u[low], 2, degree)
    return np.concatenate([np.zeros((u.shape[0], 1)), coef], axis=1)


def monomial_fit(u, y, lo: int, hi: int) -> np.ndarray:
    """Per-row least squares of y on the columns u**lo .. u**hi, (rows, hi - lo + 1):
    `normal_solver` on the normal equations, whose power sums come from powers
    built by repeated products, then once more on the data residual (one step
    of refinement); a column it drops gets 0.  A point at u = y = 0 adds
    nothing to the columns u**1 and up, so rows may be zero-padded when lo >= 1;
    the u**0 column counts every point of its row."""
    powers = np.empty((hi,) + u.shape)
    powers[0] = u
    for m in range(1, hi):
        np.multiply(powers[m - 1], u, out=powers[m])
    sums = np.concatenate([np.full((1, len(u)), u.shape[1]), powers.sum(axis=2),
                           np.einsum("rw,mrw->mr", powers[-1], powers)])
    j = np.arange(lo, hi + 1)
    solve, _ = normal_solver(sums.T[:, j[:, None] + j[None, :]])
    design = powers[lo - 1 :] if lo else np.concatenate([np.ones((1,) + u.shape), powers])
    coef = solve(np.einsum("jrw,rw->rj", design, y))
    return coef + solve(np.einsum("jrw,rw->rj", design, y - np.einsum("jrw,rj->rw", design, coef)))


def normal_solver(gram):
    """(solve, dropped) for the normal equations of each (..., k, k) X^T X.

    The columns are scaled to a unit diagonal and factored by `cholesky`;
    solve(rhs) substitutes forward and back for right-hand sides X^T y of
    shape (..., k), by einsums on C-ordered arrays (einsum's summation order
    follows the layout), so each batch entry gets its bits alone.  ``dropped``
    (..., k) marks the columns `cholesky` dropped; their coefficients are 0."""
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros_like(diag), where=diag > 0.0)
    low, dropped = cholesky(gram * scale[..., :, None] * scale[..., None, :])
    scale = np.where(dropped, 0.0, scale)
    pivot, k = np.diagonal(low, axis1=-2, axis2=-1), gram.shape[-1]

    def solve(rhs):
        x = np.ascontiguousarray(rhs * scale)
        for j in range(k):
            x[..., j] = (x[..., j] - np.einsum("...k,...k->...", low[..., j, :j], x[..., :j])) \
                / pivot[..., j]
        for j in range(k - 1, -1, -1):
            x[..., j] = (x[..., j] - np.einsum("...k,...k->...", low[..., j + 1 :, j],
                                                x[..., j + 1 :])) / pivot[..., j]
        return x * scale

    return solve, dropped


def cholesky(a):
    """Lower Cholesky factor of each (..., k, k) matrix, C-ordered, by einsums,
    and the columns it dropped, (..., k) bool: a pivot not above RANK_RTOL
    times its diagonal entry drops its column, whose row and column of the
    factor become the identity's, so the rest factors the matrix without it.
    Reads the lower triangle; `normal_solver` and `positive_definite_factor` call it."""
    low, dropped = np.zeros(a.shape), np.zeros(a.shape[:-1], dtype=bool)
    tol = RANK_RTOL * np.diagonal(a, axis1=-2, axis2=-1)
    for j in range(a.shape[-1]):
        col = a[..., j:, j] - np.einsum("...ik,...k->...i", low[..., j:, :j], low[..., j, :j])
        keep = col[..., 0] > tol[..., j]
        if not keep.all():
            drop = dropped[..., j] = ~keep
            col = np.where(drop[..., None], np.eye(1, col.shape[-1])[0], col)
            low[..., j, :j] = np.where(drop[..., None], 0.0, low[..., j, :j])
        low[..., j:, j] = col / np.sqrt(col[..., :1])
    return low, dropped


def positive_definite_factor(a, name: str) -> np.ndarray:
    """`cholesky` of a covariance, ValueError "<name> not positive definite" at a dropped pivot."""
    low, dropped = cholesky(np.asarray(a, dtype=np.float64))
    if dropped.any():
        raise ValueError(f"{name} not positive definite (pivot {dropped.argmax()})")
    return low


def fit_limiting_model(hrs_points, lrs_points) -> ConductionModel:
    """Refit one constrained polynomial to each branch's pooled (u, i)
    points, as `waveform.ExtractionResult` carries them."""
    return ConductionModel(hhrs=fit_conduction_poly(*hrs_points, HRS_FIT_DEGREE),
                           llrs=fit_conduction_poly(*lrs_points, LRS_FIT_DEGREE))
