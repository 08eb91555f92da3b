"""Static electrical model of a resistive cell.

The current of a cell in any state is a linear mixture of two fixed limiting
polynomials in the applied voltage: the most resistive characteristic
(``hhrs``) and the most conductive one (``llrs``).  A single state variable
``r`` in [0, 1] selects the mixture, with r = 1 the most resistive limit.
The module also holds the parabolic transition current, `transition_current`,
that connects a cycle's low-resistance branch to the next high-resistance
branch during gradual positive-polarity switching.
"""

from dataclasses import dataclass

import numpy as np

U0_DEFAULT = 0.2            # reference voltage for static resistance [V]
MIN_LINEAR_COEFF = 1e-9     # lower bound on the linear coefficient [A/V]
DENOM_FLOOR = 1e-12         # |i_llrs - i_hhrs| below this is degenerate [A]
MIN_CURVE_SPAN = 1e-3       # smallest usable (u_max - u_start) [V]


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


@dataclass(frozen=True)
class ConductionModel:
    """Limiting-polynomial pair plus the static-resistance reference voltage.

    Coefficients are ascending; the constant terms must be exactly zero and
    the linear terms at least MIN_LINEAR_COEFF.  The conductive branch must
    carry more current than the resistive one at u0.
    """

    hhrs: np.ndarray
    llrs: np.ndarray
    u0: float = U0_DEFAULT

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
        ih, il = self.i_hhrs(self.u0), self.i_llrs(self.u0)
        if not (il > ih > 0.0):
            raise ValueError(
                f"need i_llrs(u0) > i_hhrs(u0) > 0 at u0={self.u0}, got {il:g}, {ih:g}"
            )

    def i_hhrs(self, u):
        return eval_poly(self.hhrs, u)

    def i_llrs(self, u):
        return eval_poly(self.llrs, u)

    def static_resistance(self, r):
        """u0 / I(r, u0) for a state variable r."""
        return self.u0 / current(r, self.u0, self)


def current(r, u, model: ConductionModel):
    """Mixture current I(r, u) = r*i_hhrs(u) + (1 - r)*i_llrs(u)."""
    ih = model.i_hhrs(u)
    il = model.i_llrs(u)
    return r * ih + (1.0 - r) * il


def state_from_point(i, u, model: ConductionModel, floor: float = DENOM_FLOOR):
    """State variable of the mixture curve passing through the point (i, u).

    Clamped to [0, 1].  Raises DegenerateVoltageError when the limiting
    currents at u differ by less than ``floor``.
    """
    il = model.i_llrs(u)
    denom = il - model.i_hhrs(u)
    if np.min(np.abs(denom)) < floor:
        raise DegenerateVoltageError(
            f"limiting currents separated by < {floor:g} A at u={u!r}"
        )
    return np.clip((il - i) / denom, 0.0, 1.0)


def state_from_resistance(res, model: ConductionModel):
    """State variable whose static resistance at u0 equals ``res``:
    clip(ca - cb / res), ca = i_l / (i_l - i_h) and cb = u0 / (i_l - i_h) at
    u0.  Dtype-generic (see `as_float`)."""
    res = as_float(res)
    if np.min(res) <= 0.0:
        raise ValueError(f"resistance must be positive, got {res!r}")
    il = model.i_llrs(model.u0)
    denom = il - model.i_hhrs(model.u0)
    return np.clip(il / denom - (model.u0 / denom) / res, 0.0, 1.0)


def transition_current(u, u_start, r_lrs, r_next, u_max, model: ConductionModel):
    """Current at ``u`` on the parabolic transition from the low-resistance
    point (u_start, I(r_lrs, u_start)) to the next high-resistance point
    (u_max, I(r_next, u_max)) during gradual positive-polarity switching.

    The three conditions (both endpoint currents, zero slope at u_max) pin
    the parabola in vertex form as i_end + curv * (u - u_max)**2; no other
    form of it is written.  Elementwise over broadcast arrays; dtype-generic
    (see `as_float`); ``u_max`` is a Python float.
    """
    i_end = current(r_next, u_max, model)
    curv = (current(r_lrs, u_start, model) - i_end) / (u_start - u_max) ** 2
    return i_end + curv * (u - u_max) ** 2


def transition_state(u_a, u_start, r_lrs, r_next, u_max, model: ConductionModel):
    """State at amplitude ``u_a`` on the `transition_current` parabola,
    inverted as `state_from_point` does but with the limiting-current gap
    floored at DENOM_FLOOR instead of raising."""
    i_at = transition_current(u_a, u_start, r_lrs, r_next, u_max, model)
    il = model.i_llrs(u_a)
    denom = np.maximum(il - model.i_hhrs(u_a), DENOM_FLOOR)
    return np.clip((il - i_at) / denom, 0.0, 1.0)


def fit_conduction_poly(u, i, degree, min_linear: float = MIN_LINEAR_COEFF) -> np.ndarray:
    """Least-squares polynomial of ``degree`` with c0 = 0 and c1 >= min_linear.

    One row of `fit_conduction_polys`.  Returns ascending coefficients of
    length degree + 1.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size <= degree:
        raise ValueError(f"need more than {degree} points, got {u.size}")
    return fit_conduction_polys(u[None, :], np.asarray(i, dtype=np.float64)[None, :],
                                degree, min_linear)[0]


def fit_conduction_polys(u, i, degree, min_linear: float = MIN_LINEAR_COEFF) -> np.ndarray:
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
    coef = _monomial_lstsq(u, i, 1, degree)
    low = np.nonzero(coef[:, 0] < min_linear)[0]
    if low.size:
        coef[low, 0] = min_linear
        coef[low, 1:] = _monomial_lstsq(u[low], i[low] - min_linear * u[low], 2, degree)
    return np.concatenate([np.zeros((u.shape[0], 1)), coef], axis=1)


def _monomial_lstsq(u, y, lo: int, hi: int) -> np.ndarray:
    """Per-row least squares of y on the columns u**lo .. u**hi.

    Solved from the column-scaled normal equations, whose power sums come
    from powers built by repeated products, with one step of iterative
    refinement on the residual.  The scaled Gram matrix is inverted through
    its eigenvalues, dropping those at rounding level, so a rank-deficient
    row still gets a finite least-squares solution (minimum-norm in the
    scaled columns).  Returns (rows, hi - lo + 1).
    """
    k = hi - lo + 1
    if k < 1:
        return np.empty((u.shape[0], 0))
    powers = np.empty((hi,) + u.shape)
    powers[0] = u
    for m in range(1, hi):
        np.multiply(powers[m - 1], u, out=powers[m])
    sums = np.empty((u.shape[0], 2 * hi + 1))
    sums[:, 1 : hi + 1] = powers.sum(axis=2).T
    for m in range(1, hi + 1):
        sums[:, hi + m] = np.einsum("rw,rw->r", powers[-1], powers[m - 1])
    j = np.arange(lo, hi + 1)
    gram = sums[:, j[:, None] + j[None, :]]
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    scale = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0.0)
    evals, evecs = np.linalg.eigh(gram * scale[:, :, None] * scale[:, None, :])
    keep = evals > k * np.finfo(np.float64).eps * evals[:, -1:]
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)
    design = powers[lo - 1 :]

    def solve(target):
        rhs = np.einsum("jrw,rw->rj", design, target) * scale
        return np.einsum("rij,rj->ri", evecs, np.einsum("rji,rj->ri", evecs, rhs) * inv) * scale

    coef = solve(y)
    return coef + solve(y - np.einsum("jrw,rj->rw", design, coef))


def fit_limiting_model(
    hrs_windows,
    lrs_windows,
    r_h,
    r_l,
    u0: float = U0_DEFAULT,
    percentile: float = 1.0,
) -> ConductionModel:
    """Estimate the limiting polynomials from per-cycle fit windows.

    Cycles whose high-resistance value falls in the top ``percentile`` of
    r_h (respectively the bottom percentile of r_l) are pooled, and one
    constrained polynomial is refit to each pooled point set.
    """
    r_h = np.asarray(r_h, dtype=float)
    r_l = np.asarray(r_l, dtype=float)
    if not (len(hrs_windows) == len(lrs_windows) == r_h.size == r_l.size):
        raise ValueError("windows and resistances must align one per cycle")
    hi = r_h >= np.quantile(r_h, 1.0 - percentile / 100.0)
    lo = r_l <= np.quantile(r_l, percentile / 100.0)
    u_hi = np.concatenate([hrs_windows[k][0] for k in np.nonzero(hi)[0]])
    i_hi = np.concatenate([hrs_windows[k][1] for k in np.nonzero(hi)[0]])
    u_lo = np.concatenate([lrs_windows[k][0] for k in np.nonzero(lo)[0]])
    i_lo = np.concatenate([lrs_windows[k][1] for k in np.nonzero(lo)[0]])
    hhrs = fit_conduction_poly(u_hi, i_hi, degree=5)
    llrs = fit_conduction_poly(u_lo, i_lo, degree=3)
    return ConductionModel(hhrs=hhrs, llrs=llrs, u0=u0)
