import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsyn import synth
from stochsyn.conduction import (
    U0_DEFAULT,
    ConductionModel,
    DegenerateVoltageError,
    current,
    eval_poly,
    fit_conduction_poly,
    fit_conduction_polys,
    state_from_point,
    state_from_resistance,
    transition_current,
)


@pytest.fixture(scope="module")
def model():
    return ConductionModel(
        hhrs=[0.0, 1.15e-6, 0.0, 1.0e-7, 0.0, 5.0e-8],
        llrs=[0.0, 2.0e-4, 0.0, 1.0e-5],
    )


def test_eval_poly_zero_and_linear():
    assert eval_poly([0.0, 0.0, 0.0], 1.0) == 0.0
    assert eval_poly([0.0, 5e-6], 0.2) == pytest.approx(1.0e-6, rel=1e-15)


def test_eval_poly_empty_rejected():
    with pytest.raises(ValueError):
        eval_poly([], 1.0)


@given(
    coeffs=st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=6),
    u=st.floats(-2.0, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_horner_matches_naive_power_sum(coeffs, u):
    horner = eval_poly(coeffs, u)
    naive = math.fsum(c * u**k for k, c in enumerate(coeffs))
    scale = math.fsum(abs(c * u**k) for k, c in enumerate(coeffs))
    assert abs(horner - naive) <= 8 * np.finfo(np.float64).eps * max(scale, 1e-300)


def test_mixture_endpoints(model):
    for u in (0.1, 0.2, 1.0, -1.3):
        assert current(1.0, u, model) == pytest.approx(model.i_hhrs(u), rel=1e-14)
        assert current(0.0, u, model) == pytest.approx(model.i_llrs(u), rel=1e-14)
    assert current(0.5, 0.0, model) == 0.0  # both constant terms are zero


def test_mixture_monotone_decreasing_in_r(model):
    u = 0.7
    rs = np.linspace(0.0, 1.0, 11)
    i = current(rs, u, model)
    assert np.all(np.diff(i) < 0)


def test_state_from_point_endpoints_and_roundtrip(model):
    assert state_from_point(model.i_llrs(0.5), 0.5, model) == 0.0
    assert state_from_point(model.i_hhrs(0.5), 0.5, model) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.uniform(0.0, 1.0)
        u = rng.uniform(0.05, 1.5)
        i = current(r, u, model)
        assert current(state_from_point(i, u, model), u, model) == pytest.approx(i, rel=1e-12)


def test_state_from_point_degenerate_voltage(model):
    with pytest.raises(DegenerateVoltageError):
        state_from_point(0.0, 0.0, model)


def test_state_from_resistance_endpoints_and_roundtrip(model):
    u0 = U0_DEFAULT
    assert state_from_resistance(u0 / model.i_llrs(u0), model) == pytest.approx(0.0, abs=1e-15)
    assert state_from_resistance(u0 / model.i_hhrs(u0), model) == pytest.approx(1.0, abs=1e-15)
    for res in np.geomspace(6e3, 8e5, 25):
        r = state_from_resistance(res, model)
        assert u0 / current(r, u0, model) == pytest.approx(res, rel=1e-9)
    with pytest.raises(ValueError):
        state_from_resistance(-10.0, model)


def test_reset_curve_boundary_conditions(model):
    u_r, u_max = 0.72, 1.5
    r_lrs = state_from_resistance(8.2e3, model)
    r_next = state_from_resistance(200e3, model)

    def q(u):
        return transition_current(u, u_r, r_lrs, r_next, u_max, model)

    assert q(u_r) == pytest.approx(current(r_lrs, u_r, model), abs=1e-12)
    assert q(u_max) == pytest.approx(current(r_next, u_max, model), abs=1e-12)
    # zero slope at u_max: a central difference is exact on a parabola
    for h in (1e-2, 0.1):
        assert (q(u_max + h) - q(u_max - h)) / (2 * h) == pytest.approx(0.0, abs=1e-12)


def test_reset_curve_degenerate_same_state(model):
    r = state_from_resistance(50e3, model)
    assert transition_current(0.7, 0.7, r, r, 1.5, model) == pytest.approx(
        current(r, 0.7, model), abs=1e-12)
    assert transition_current(1.5, 0.7, r, r, 1.5, model) == pytest.approx(
        current(r, 1.5, model), abs=1e-12)


def test_reset_curve_rejects_narrow_span(model):
    # the transition's input gates live where the parabola is rendered
    feats = np.array([[50e3, 0.85, 8.2e3, 0.72]] * 3)
    for u_r in (1.4995, -0.1):
        feats[1, 3] = u_r
        with pytest.raises(ValueError, match="u_r"):
            synth.reconstruct_trace(feats, model, u_max=1.5, noise_sigma=0.0)


def test_model_invariants_enforced():
    with pytest.raises(ValueError):
        ConductionModel(hhrs=[1e-9, 1e-6], llrs=[0.0, 1e-4])  # nonzero constant
    with pytest.raises(ValueError):
        ConductionModel(hhrs=[0.0, 1e-10], llrs=[0.0, 1e-4])  # linear term too small
    with pytest.raises(ValueError):
        ConductionModel(hhrs=[0.0, 1e-4], llrs=[0.0, 1e-6])   # branches swapped


def test_fit_conduction_poly_exact_and_clamped():
    u = np.linspace(-1.0, 1.5, 200)
    coef = fit_conduction_poly(u, u / 10e3, degree=3)
    assert coef[0] == 0.0
    assert coef[1] == pytest.approx(1e-4, rel=1e-12)
    assert np.allclose(coef[2:], 0.0, atol=1e-18)
    # unconstrained slope below the floor comes back exactly clamped
    coef = fit_conduction_poly(u, 1e-10 * u, degree=3)
    assert coef[1] == 1e-9


def test_fit_drops_columns_beyond_the_distinct_voltages():
    # 8 points on 2 distinct voltages determine c1 and c2 of a degree-5 row:
    # the kernel drops the columns u**3 .. u**5, whose coefficients come
    # back exactly 0, and the rest still passes through every point.  Beside
    # a full-rank row in one block, each row gets the bits it gets alone
    u = np.stack([np.repeat([0.1, 0.3], 4), np.linspace(0.05, 1.0, 8)])
    i = 1e-5 * u + 2e-5 * u**2 + 1e-6 * u**4
    block = fit_conduction_polys(u, i, 5)
    alone = np.stack([fit_conduction_polys(u[r : r + 1], i[r : r + 1], 5)[0] for r in range(2)])
    assert np.array_equal(block, alone)
    coef = block[0]
    assert coef[0] == 0.0
    assert np.all(coef[1:3] != 0.0)
    assert np.array_equal(coef[3:], np.zeros(3))
    assert np.allclose(eval_poly(coef, u[0]), i[0], rtol=1e-14, atol=0.0)
