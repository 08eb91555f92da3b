import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from sample_stats import lagged_pearson, model_correlations
from scipy.linalg import solve_discrete_lyapunov

import stochsyn
from stochsyn import paramfile, svar
from stochsyn.conduction import RANK_RTOL
from stochsyn.svar import (
    LYAPUNOV_TOL,
    SvarModel,
    autocovariances,
    companion_matrix,
    fit_svar,
    generate,
    mix_lower_triangular,
    spectral_radius,
    stationary_covariance,
    stationary_factor,
    step,
    structural_decompose,
)
from stochsyn.synth import reference_bundle, reference_svar


def _white_model(p=1):
    eye = np.eye(4)
    zeros = np.zeros((p, 4, 4))
    return SvarModel(phi=zeros, sigma_u=eye, intercept=np.zeros(4))


def _diag_model(coef, p=1):
    phi = np.zeros((p, 4, 4))
    phi[0] = coef * np.eye(4)
    eye = np.eye(4)
    return SvarModel(phi=phi, sigma_u=eye, intercept=np.zeros(4))


# -- fitting ----------------------------------------------------------------

def test_fit_rejects_order_zero():
    series = np.random.default_rng(0).standard_normal((5000, 4))
    with pytest.raises(ValueError):
        fit_svar(series, 0)


def test_fit_rejects_short_series():
    series = np.random.default_rng(0).standard_normal((100, 4))
    with pytest.raises(ValueError):
        fit_svar(series, 5)


def test_fit_recovers_diagonal_var1():
    truth = _diag_model(0.5)
    series = generate(truth, 100_000, seed=21)
    fit = fit_svar(series, 1)
    assert np.max(np.abs(fit.phi[0] - 0.5 * np.eye(4))) < 0.02
    assert np.max(np.abs(fit.intercept)) < 0.02


def test_fit_white_noise_gives_null_coefficients():
    series = generate(_white_model(), 100_000, seed=22)
    fit = fit_svar(series, 1)
    assert np.max(np.abs(fit.phi)) < 0.02


def test_fit_rank_deficient_rejected():
    series = np.zeros((5000, 4))
    series[:, 0] = 1.0  # constant column collides with the intercept
    with pytest.raises(ValueError):
        fit_svar(series, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_names_the_row_of_a_non_finite_value(bad):
    series = np.random.default_rng(0).standard_normal((2000, 4))
    series[5, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at row 5, column 2"):
            fit_svar(series, 1)


def _lstsq_fit(x, p):
    """phi, intercept and sigma_u by `np.linalg.lstsq` on the regressor matrix."""
    n = len(x)
    design = np.column_stack([x[p - i : n - i] for i in range(1, p + 1)] + [np.ones(n - p)])
    beta, _, rank, _ = np.linalg.lstsq(design, x[p:], rcond=None)
    resid = x[p:] - design @ beta
    phi = np.stack([beta[4 * i : 4 * i + 4].T for i in range(p)])
    return phi, beta[-1], resid.T @ resid / (n - p), rank


@pytest.mark.parametrize("p", [10, 100])
def test_fit_matches_lstsq_on_the_regressor_matrix(p):
    # the moment form solves the normal equations without forming the
    # regressor matrix; on a well-conditioned series it agrees with lstsq to
    # a few ulps of the O(1) coefficients
    series = generate(reference_svar(3), 8000, seed=31)
    fit = fit_svar(series, p)
    phi, intercept, sigma_u, _ = _lstsq_fit(series, p)
    tol = 1e-12
    assert np.max(np.abs(fit.phi - phi)) < tol
    assert np.max(np.abs(fit.intercept - intercept)) < tol
    assert np.max(np.abs(fit.sigma_u - sigma_u)) < tol
    assert np.array_equal(fit.sigma_u, fit.sigma_u.T)


def test_fit_near_collinear_rank_deficient_rejected():
    # a component equal to another up to 1e-13 of its scale: lstsq's rank
    # check drops a column, and the normal equations' pivot falls below
    # RANK_RTOL
    rng = np.random.default_rng(5)
    series = rng.standard_normal((5000, 4))
    series[:, 1] = series[:, 0] + 1e-13 * rng.standard_normal(5000)
    assert _lstsq_fit(series, 2)[3] < 4 * 2 + 1
    with pytest.raises(ValueError, match="rank deficient"):
        fit_svar(series, 2)


def test_fit_memory_grows_far_less_per_cycle_than_a_regressor_row():
    # the regressor matrix took 8 (4p + 1) bytes per cycle; the moment form
    # keeps the residuals and one per-lag term, 64 bytes per cycle
    p = 100
    peaks = []
    for n in (6000, 12000):
        series = generate(reference_svar(1), n, seed=32)
        tracemalloc.start()
        try:
            fit_svar(series, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_cycle = (peaks[1] - peaks[0]) / 6000
    assert per_cycle < 8 * (4 * p + 1) / 10, per_cycle


# -- structural decomposition -------------------------------------------------

def test_decompose_identity_and_diagonal():
    a, b = structural_decompose(np.eye(4))
    assert np.array_equal(a, np.eye(4))
    assert np.array_equal(b, np.eye(4))
    a, b = structural_decompose(np.diag([4.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(a, np.eye(4))
    assert np.allclose(np.diag(b), [2.0, 1.0, 1.0, 1.0])


def test_decompose_generic_reconstructs():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    sigma = g @ g.T + 4 * np.eye(4)
    a, b = structural_decompose(sigma)
    assert np.array_equal(np.triu(a, 1), np.zeros((4, 4)))
    assert np.array_equal(np.diag(a), np.ones(4))
    assert np.array_equal(b, np.diag(np.diag(b)))
    recon = np.linalg.solve(a, b)
    assert np.max(np.abs(recon @ recon.T - sigma)) < 1e-12


def test_decompose_rejects_non_pd():
    with pytest.raises(ValueError):
        structural_decompose(-np.eye(4))


# -- stepping -----------------------------------------------------------------

def test_step_zero_lags_zero_noise():
    m = reference_svar(1)
    assert np.allclose(step(np.zeros((1, 4)), m.lag_weights(), np.zeros((1, 4))), 0.0)


def test_step_pure_noise_passthrough():
    m = _white_model()
    eps = np.array([0.3, -1.2, 0.5, 2.0])
    noise = mix_lower_triangular(eps[:, None], m.chol_u)
    assert np.allclose(step(np.zeros((1, 4)), m.lag_weights(), noise), eps)


def test_reference_fixture_matches_published_weights():
    m = reference_svar(1)
    a, b = structural_decompose(m.sigma_u)
    assert np.allclose(np.diag(b), [0.984, 0.945, 0.908, 0.921])
    assert -a[1, 0] == pytest.approx(0.111)
    assert -a[2, 1] == pytest.approx(-0.139)
    assert -a[3, 2] == pytest.approx(0.180)
    assert (a @ m.phi[0])[2, 2] == pytest.approx(0.153)
    noise = mix_lower_triangular(np.array([[1.0], [0.0], [0.0], [0.0]]), m.chol_u)
    out = step(np.zeros((1, 4)), m.lag_weights(), noise)[0]
    assert out[0] == pytest.approx(0.984, abs=1e-12)


# -- spectral radius ----------------------------------------------------------

def test_spectral_radius_diagonal_and_zero():
    assert spectral_radius(_diag_model(0.5)) == pytest.approx(0.5, abs=1e-8)
    assert spectral_radius(_white_model(p=3)) == pytest.approx(0.0, abs=1e-8)


def test_spectral_radius_matches_dense_eigensolver():
    rng = np.random.default_rng(17)
    for p in (1, 2, 5):
        phi = rng.uniform(-0.25, 0.25, (p, 4, 4)) / p
        m = SvarModel(phi=phi, sigma_u=np.eye(4), intercept=np.zeros(4))
        k = 4 * p
        comp = np.zeros((k, k))
        comp[:4] = np.concatenate(list(phi), axis=1)
        if p > 1:
            comp[4:, :-4] = np.eye(k - 4)
        oracle = np.max(np.abs(np.linalg.eigvals(comp)))
        assert spectral_radius(m) == pytest.approx(oracle, abs=1e-6)


def _rotation_model(r):
    """VAR(1) with eigenvalues {r, +-r i, 0.5}: two dominant modes share |r|."""
    phi = np.zeros((1, 4, 4))
    phi[0, 0, 0] = r
    phi[0, 1:3, 1:3] = [[0.0, -r], [r, 0.0]]
    phi[0, 3, 3] = 0.5
    return SvarModel(phi=phi, sigma_u=np.eye(4), intercept=np.zeros(4))


def test_spectral_radius_exact_with_tied_dominant_modes():
    assert spectral_radius(_rotation_model(0.9)) == pytest.approx(0.9, abs=1e-12)


def test_explosive_model_with_tied_dominant_modes_rejected():
    explosive = _rotation_model(1.02)
    with pytest.raises(ValueError):
        generate(explosive, 10, seed=0)
    ref = reference_bundle(orders=(1,))
    bundle = paramfile.ParameterBundle(conduction=ref.conduction, gamma=ref.gamma,
                                       sigma=ref.sigma, svar={1: explosive})
    with pytest.raises(paramfile.FormatError):
        bundle.validate()


# -- stationary start -------------------------------------------------------------

def test_stationary_factor_matches_reference_lyapunov_solution():
    model = reference_svar(1)
    gamma = solve_discrete_lyapunov(model.phi[0], model.sigma_u)  # independent reference
    factor = stationary_factor(model)
    assert np.array_equal(factor, np.tril(factor))
    assert np.max(np.abs(factor @ factor.T - gamma)) < 1e-12


def test_reference_sigma_is_the_exactly_symmetric_c0_of_every_order():
    sigma = reference_bundle(orders=(1,)).sigma
    assert np.array_equal(sigma, sigma.T)
    for p in (1, 10, 100):  # zero-padded lags leave the process unchanged
        assert np.array_equal(stationary_covariance(reference_svar(p))[:4, :4], sigma)
        assert np.array_equal(reference_bundle(orders=(p,)).sigma, sigma)


@pytest.fixture(scope="module")
def lag_models():
    """The reference models at p = 1, 10 and 100 and orders 10 and 100 fitted
    to one of their series."""
    series = generate(reference_svar(3), 8000, seed=31)
    return [reference_svar(p) for p in (1, 10, 100)] + [fit_svar(series, p) for p in (10, 100)]


def test_autocovariances_are_the_stationary_covariance_blocks(lag_models):
    # and C(0..p-1) keep their bits when H reaches past p
    for model in lag_models:
        p = model.p
        gamma = stationary_covariance(model)
        cov = autocovariances(model, p + 30)
        assert cov.shape == (p + 31, 4, 4)
        for h in range(p):
            assert np.array_equal(cov[h], gamma[:4, 4 * h : 4 * h + 4])
        assert np.array_equal(autocovariances(model, 0)[0], gamma[:4, :4])


def test_autocovariances_satisfy_yule_walker(lag_models):
    # C(h) = sum_i phi_i C(h - i), C(-k) = C(k)^T, for every h >= 1: for
    # h < p the impulse sums compute both sides, for h >= p the recursion
    for model in lag_models:
        p = model.p
        cov = autocovariances(model, p + 30)
        for h in range(1, p + 31):
            rhs = sum(phi @ (cov[h - i] if h >= i else cov[i - h].T)
                      for i, phi in enumerate(model.phi, start=1))
            assert np.max(np.abs(cov[h] - rhs)) <= LYAPUNOV_TOL * np.max(np.abs(cov[0]))
    model = reference_svar(1)   # C(h) = phi_1^h C(0), C(0) from scipy's Lyapunov solve
    c0 = solve_discrete_lyapunov(model.phi[0], model.sigma_u)
    for h, c in enumerate(autocovariances(model, 8)):
        assert np.max(np.abs(c - np.linalg.matrix_power(model.phi[0], h) @ c0)) < 1e-12


def test_model_correlations_match_a_long_run_in_lagged_pearson_orientation():
    model = reference_svar(1)
    n = 400_000
    data = lagged_pearson(generate(model, n, seed=11), 5).rho
    rho = model_correlations(autocovariances(model, 5))
    bound = 5 / np.sqrt(n)   # five standard errors of a correlation near zero
    assert np.max(np.abs(rho - data)) < bound
    assert np.max(np.abs(rho.transpose(0, 2, 1) - data)) > bound   # C(l) unflipped


@pytest.mark.parametrize("bad", [-1, 2.0, 1.5, "3", None])
def test_autocovariances_reject_a_bad_lag_count(bad):
    with pytest.raises(ValueError, match="non-negative integer"):
        autocovariances(reference_svar(1), bad)


def test_stationary_factor_passes_residual_gate_with_tied_dominant_modes():
    model = _rotation_model(0.9)
    factor = stationary_factor(model)
    gamma = factor @ factor.T
    # unit innovations: each mode of modulus r carries variance 1 / (1 - r^2)
    want = np.diag([1 / (1 - 0.81)] * 3 + [1 / (1 - 0.25)])
    assert np.max(np.abs(gamma - want)) < 1e-12
    f = companion_matrix(model)
    resid = f @ gamma @ f.T + model.sigma_u - gamma
    assert np.linalg.norm(resid) / np.linalg.norm(gamma) <= LYAPUNOV_TOL


def test_stationary_factor_rejects_models_without_a_stationary_distribution():
    for model in (_rotation_model(1.02), _diag_model(1.0)):  # explosive, unit root
        with pytest.raises(ValueError):
            stationary_factor(model)


def test_stationary_factor_drops_a_pivot_at_the_fits_rank_tolerance():
    # the shared Cholesky keeps a pivot only above RANK_RTOL times its diagonal
    # entry.  With phi = 0 the stationary covariance is sigma_u, whose second
    # relative pivot is d**2 = rel * RANK_RTOL.  SvarModel factors sigma_u by
    # the same rule, so the one below fails as it is built (LAPACK would factor
    # it), and the one above has a stationary start
    for rel, ok in ((1e-2, False), (1e2, True)):
        low = np.eye(4)
        low[1, :2] = 1.0, np.sqrt(rel * RANK_RTOL)   # d
        fields = dict(phi=np.zeros((1, 4, 4)), sigma_u=low @ low.T, intercept=np.zeros(4))
        if ok:
            model = SvarModel(**fields)
            factor = stationary_factor(model)
            assert np.max(np.abs(factor @ factor.T - model.sigma_u)) < 1e-15
            assert generate(model, 10, seed=0).shape == (10, 4)
            continue
        with pytest.raises(ValueError, match="sigma_u not positive definite"):
            SvarModel(**fields)


def test_svar_model_takes_an_exactly_symmetric_sigma_u_at_any_scale():
    # symmetry is sigma_u against its transpose, not a reconstruction from its
    # factor, whose error grows with the scale
    ref = reference_svar(1)
    big = SvarModel(phi=ref.phi, sigma_u=1e6 * ref.sigma_u, intercept=ref.intercept)
    assert np.max(np.abs(big.chol_u - 1e3 * ref.chol_u)) < 1e-10 * 1e3
    x = generate(reference_svar(3), 8000, seed=31)
    with pytest.warns(RuntimeWarning, match="intercept"):   # 1e3 x is not normalized
        scaled = fit_svar(1e3 * x, 3)
    phi = fit_svar(x, 3).phi
    assert np.max(np.abs(scaled.phi - phi)) <= 1e-12 * np.max(np.abs(phi))


def test_svar_model_rejects_an_asymmetric_sigma_u():
    sigma_u = reference_svar(1).sigma_u.copy()
    sigma_u[0, 2] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        SvarModel(phi=np.zeros((1, 4, 4)), sigma_u=sigma_u, intercept=np.zeros(4))


def test_fit_svar_rejects_an_order_above_max_order_before_its_moments(monkeypatch):
    def moments(*args):
        raise AssertionError("lag moments computed")

    monkeypatch.setattr(svar, "_lag_moments", moments)
    with pytest.raises(ValueError, match=f"order must be in 1..{svar.MAX_ORDER}, got 201"):
        fit_svar(np.zeros((40_000, 4)), svar.MAX_ORDER + 1)


_START_DIGESTS = """
import hashlib
import numpy as np
from stochsyn.svar import SvarModel, generate, stationary_factor
rng = np.random.default_rng(31)
phi = rng.uniform(-0.25, 0.25, (100, 4, 4)) / 100
phi[0] += 0.9 * np.eye(4)
g = rng.standard_normal((4, 4))
model = SvarModel(phi=phi, sigma_u=g @ g.T + np.eye(4), intercept=np.zeros(4))
print(hashlib.sha256(stationary_factor(model).tobytes()).hexdigest())
print(hashlib.sha256(generate(model, 50, seed=3).tobytes()).hexdigest())
"""


def test_stationary_start_bits_do_not_depend_on_blas_threads():
    # BLAS reads its thread count at load time, hence one interpreter per setting
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _START_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert [len(d) for d in digests[0]] == [64, 64] and digests[0] == digests[1]


# -- generation -----------------------------------------------------------------

def test_generate_empty():
    assert generate(reference_svar(1), 0, seed=1).shape == (0, 4)


def _reference_generate(model, n, seed):
    """Ring-buffer generator: the first p cycles are one stationary draw,
    pushed oldest first; after that the lags are gathered newest first from a
    cursor buffer, stepped with that cycle's own innovation, and pushed
    back, one cycle at a time."""
    p = model.p
    eps = np.random.default_rng(seed).standard_normal((p + n, 4))
    start = np.einsum("ik,k->i", stationary_factor(model), eps[:p].ravel())  # newest first
    data = np.zeros((p, 4))
    cursor = 0
    out = np.empty((n, 4))
    for j in range(p + n):
        if j < p:
            x = start[4 * (p - 1 - j) : 4 * (p - j)]
        else:
            lags = data[(cursor - 1 - np.arange(p)) % p]
            noise = mix_lower_triangular(eps[j][:, None], model.chol_u)
            x = step(lags.reshape(1, -1), model.lag_weights(), noise)[0]
        data[cursor] = x
        cursor = (cursor + 1) % p
        if j >= p:
            out[j - p] = x
    return out


def test_generate_matches_ring_buffer_reference_bit_exact():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((4, 4))
    dense = SvarModel(phi=rng.uniform(-0.25, 0.25, (100, 4, 4)) / 100,
                      sigma_u=g @ g.T + np.eye(4), intercept=np.zeros(4))
    assert np.all(dense.phi != 0.0)
    for m in (reference_svar(1), reference_svar(2), reference_svar(10), dense):
        for n in (0, 257):
            assert np.array_equal(generate(m, n, seed=n + m.p),
                                  _reference_generate(m, n, seed=n + m.p))


def test_generate_white_covariance():
    z = generate(_white_model(), 100_000, seed=42)
    cov = np.cov(z, rowvar=False)
    assert np.max(np.abs(cov - np.eye(4))) < 0.02


def test_generate_deterministic():
    m = reference_svar(2)
    a = generate(m, 2000, seed=7)
    b = generate(m, 2000, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate(m, 2000, seed=8))


def test_generate_requires_stationary_model():
    bad = _diag_model(1.05)
    with pytest.raises(ValueError):
        generate(bad, 10, seed=0)


def test_generate_mean_reversion_long_run():
    # no random-walk drift: the running mean of each component stays near 0
    # (checked once past the first 10^4 steps, where the estimate stabilizes)
    z = generate(reference_svar(1), 1_000_000, seed=13)
    running = np.cumsum(z, axis=0) / np.arange(1, z.shape[0] + 1)[:, None]
    assert np.max(np.abs(running[10_000:])) < 0.05


def test_model_structure_validation():
    eye = np.eye(4)
    asymmetric = eye.copy()
    asymmetric[0, 1] = 0.2  # the Cholesky factor reads only the lower triangle
    for phi, sigma_u in ((np.zeros((1, 4, 4)), asymmetric),
                         (np.zeros((1, 4, 4)), -eye),
                         (np.zeros((0, 4, 4)), eye)):
        with pytest.raises(ValueError):
            SvarModel(phi=phi, sigma_u=sigma_u, intercept=np.zeros(4))


def test_structural_form_derived_from_reduced_form():
    # the structural form is stored in the parameter file's svar section
    svar_section = next(sec for sec in paramfile.SECTIONS if sec.tag == paramfile.SEC_SVAR)
    (m,) = svar_section.values(reference_bundle(orders=(3,)))
    assert m["p"] == 3
    assert np.array_equal(np.triu(m["a"], 1), np.zeros((4, 4))) and np.all(np.diag(m["a"]) == 1.0)
    assert np.array_equal(m["b"], np.diag(np.diag(m["b"]))) and np.all(np.diag(m["b"]) > 0.0)
    assert np.max(np.abs(np.linalg.solve(m["a"], m["b"]) - m["chol_u"])) < 1e-12
    assert np.max(np.abs(np.einsum("ij,pjk->pik", m["a"], m["phi"]) - m["c"])) < 1e-15


def test_fit_svar_identification_identity(source_normalized):
    m = fit_svar(source_normalized[:50_000], 3)
    recon = np.linalg.solve(*structural_decompose(m.sigma_u))
    assert np.max(np.abs(recon @ recon.T - m.sigma_u)) < 1e-10
    assert spectral_radius(m) < 1.0
