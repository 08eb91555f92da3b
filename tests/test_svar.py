import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

import stochsyn
from stochsyn import paramfile
from stochsyn.svar import (
    LYAPUNOV_TOL,
    SvarModel,
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
    assert np.allclose(np.diag(m.b), [0.984, 0.945, 0.908, 0.921])
    assert -m.a[1, 0] == pytest.approx(0.111)
    assert -m.a[2, 1] == pytest.approx(-0.139)
    assert -m.a[3, 2] == pytest.approx(0.180)
    assert m.c[0][2, 2] == pytest.approx(0.153)
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
    m = reference_svar(3)
    assert m.p == 3
    assert np.array_equal(np.triu(m.a, 1), np.zeros((4, 4))) and np.all(np.diag(m.a) == 1.0)
    assert np.array_equal(m.b, np.diag(np.diag(m.b))) and np.all(np.diag(m.b) > 0.0)
    assert np.max(np.abs(np.linalg.solve(m.a, m.b) - m.chol_u)) < 1e-12
    assert np.max(np.abs(np.einsum("ij,pjk->pik", m.a, m.phi) - m.c)) < 1e-15


def test_fit_svar_identification_identity(source_normalized):
    m = fit_svar(source_normalized[:50_000], 3)
    recon = np.linalg.solve(m.a, m.b)
    assert np.max(np.abs(recon @ recon.T - m.sigma_u)) < 1e-10
    assert spectral_radius(m) < 1.0
