import threading

import numpy as np
import pytest
from scipy.constants import e as Q_E
from scipy.constants import k as K_B

from stochsyn.array import (
    MIN_PARALLEL_CELLS,
    PHASE_HRS,
    PHASE_IRS,
    PHASE_LRS,
    ReadoutConfig,
    dequantize,
    init_array,
    noise_sigma,
    quantize,
    stationary_factor32,
)
from stochsyn.conduction import (
    eval_poly,
    state_from_point,
    state_from_resistance,
    transition_current,
    transition_state,
)
from stochsyn.svar import stationary_factor
from stochsyn.transform import inverse_map


@pytest.fixture()
def small(ref_bundle):
    return init_array(ref_bundle, m=32, a=0.0, seed=101, p=10)


def test_init_state(small):
    assert np.all(small.phase == PHASE_HRS)
    assert np.all(small.cycle == 1)
    assert np.array_equal(small.scale, np.ones((32, 4), dtype=np.float32))
    assert np.all((small.r > 0) & (small.r <= 1))
    assert np.array_equal(small.u_reset, small.features[:, 3])


def test_init_validation(ref_bundle):
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=0, seed=1)
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=4, a=-0.5, seed=1)
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=4, seed=1, p=7)


def test_footprint_formula(ref_bundle):
    arr = init_array(ref_bundle, m=1000, a=0.0, seed=2, p=10)
    assert arr.bytes_per_cell() == 16 * 10 + 77
    arr = init_array(ref_bundle, m=1000, a=0.0, seed=2, p=1)
    assert arr.bytes_per_cell() == 16 * 1 + 77


def test_contraction_operands_have_pinned_layouts(ref_bundle):
    for p in (1, 10, 100):
        arr = init_array(ref_bundle, m=4, a=0.0, seed=5, p=p)
        assert arr._w32.dtype == np.float32 and arr._w32.flags.f_contiguous
        factor = stationary_factor32(arr.model)
        assert factor.dtype == np.float32 and factor.flags.c_contiguous


@pytest.mark.parametrize("p", [10, 100])
def test_init_of_first_cells_independent_of_array_size(ref_bundle, p):
    big = init_array(ref_bundle, m=MIN_PARALLEL_CELLS, a=0.4, seed=21, p=p, threads=2)
    small = init_array(ref_bundle, m=256, a=0.4, seed=21, p=p)
    for a, b in zip(big._state_arrays(), small._state_arrays()):
        assert a[:256].tobytes() == b.tobytes()


def test_initial_lags_match_stationary_covariance(ref_bundle):
    m, p = 100_000, 10
    arr = init_array(ref_bundle, m=m, a=0.0, seed=22, p=p)
    factor = stationary_factor(arr.model)
    gamma = factor @ factor.T
    lags = arr._lags.astype(np.float64)
    second_moment = lags.T @ lags / m
    # standard error of a Gaussian second moment: sqrt((g_ii g_jj + g_ij^2) / m)
    var = np.outer(np.diag(gamma), np.diag(gamma)) + gamma ** 2
    z = np.abs(second_moment - gamma) / np.sqrt(var / m)
    assert z.max() < 5.0


def test_hrs_positive_pulse_noop(small):
    digest = small.state_digest()
    rep = small.apply_pulses(1.5)
    assert rep.n_noop == 32 and rep.n_set == 0 and rep.n_full_reset == 0
    assert small.state_digest() == digest


def test_abrupt_switch_and_cycle_advance(small):
    rep = small.apply_pulses(-1.5)
    assert rep.n_set == 32
    assert np.all(small.phase == PHASE_LRS)
    expect = state_from_resistance(small.features[:, 2], small.conduction)
    assert np.array_equal(small.r, expect)
    rep = small.apply_pulses(-1.5)
    assert rep.n_noop == 32  # already switched
    rep = small.apply_pulses(1.5)
    assert rep.n_full_reset == 32
    assert np.all(small.phase == PHASE_HRS)
    assert np.all(small.cycle == 2)


def test_pulse_pair_advances_one_cycle_each(ref_bundle):
    arr = init_array(ref_bundle, m=16, a=0.0, seed=11, p=10)
    for _ in range(1000):
        arr.apply_pulses(-1.5)
        arr.apply_pulses(1.5)
    assert np.all(arr.cycle == 1001)
    assert np.all(arr.phase == PHASE_HRS)


def test_partial_ladder_monotone_and_threshold_tracking(ref_bundle):
    arr = init_array(ref_bundle, m=64, a=0.0, seed=12, p=10)
    arr.apply_pulses(-1.5)
    res_prev = arr.static_resistance()
    lo = np.float32(arr.u_reset.max())
    for amp in np.linspace(lo + 0.02, 1.45, 6):
        rep = arr.apply_pulses(float(amp))
        assert rep.n_partial_reset == 64
        assert np.all(arr.phase == PHASE_IRS)
        res = arr.static_resistance()
        assert np.all(res >= res_prev * (1 - 1e-6))
        res_prev = res
        assert np.allclose(arr.u_reset, amp)
    # below the tracked threshold: nothing moves
    rep = arr.apply_pulses(float(lo + 0.01))
    assert rep.n_noop == 64
    # intermediate states stay inside the cycle's bracket
    r_l_state = state_from_resistance(arr.features[:, 2].astype(float), arr.conduction)
    r_h_state = state_from_resistance(arr.next_features[:, 0].astype(float), arr.conduction)
    assert np.all(arr.r >= r_l_state - 1e-6)
    assert np.all(arr.r <= r_h_state + 1e-6)
    # completing the transition makes further positive pulses no-ops
    arr.apply_pulses(1.5)
    assert np.all(arr.phase == PHASE_HRS)
    rep = arr.apply_pulses(1.5)
    assert rep.n_noop == 64


def test_partial_matches_scalar_transition_curve(ref_bundle):
    arr = init_array(ref_bundle, m=8, a=0.0, seed=13, p=10)
    arr.apply_pulses(-1.5)
    feat = arr.features.astype(np.float64).copy()
    amp = float(arr.u_reset.max() + 0.1)
    arr.apply_pulses(amp)
    nxt = arr.next_features.astype(np.float64)
    for c in range(8):
        i_at = transition_current(
            amp, feat[c, 3],
            state_from_resistance(feat[c, 2], arr.conduction),
            state_from_resistance(nxt[c, 0], arr.conduction),
            arr.u_max, arr.conduction,
        )
        want = state_from_point(i_at, amp, arr.conduction)
        assert arr.r[c] == pytest.approx(want, rel=2e-5)


def test_set_from_partial_enters_following_cycle(ref_bundle):
    arr = init_array(ref_bundle, m=16, a=0.0, seed=14, p=10)
    arr.apply_pulses(-1.5)
    arr.apply_pulses(float(arr.u_reset.max() + 0.05))
    assert np.all(arr.phase == PHASE_IRS)
    nxt = arr.next_features.copy()
    arr.apply_pulses(-1.5)
    assert np.all(arr.phase == PHASE_LRS)
    assert np.all(arr.cycle == 2)
    assert np.array_equal(arr.features, nxt)


def test_sparse_addressing(small):
    before = small.features.copy()
    rep = small.apply_pulses(-1.5, cells=np.array([1, 5, 9]))
    assert rep.n_addressed == 3 and rep.n_set == 3
    assert small.phase[1] == PHASE_LRS and small.phase[0] == PHASE_HRS
    assert np.array_equal(small.features, before)
    rep = small.apply_pulses(1.5, cells=np.array([], dtype=int))
    assert rep.n_addressed == 0
    with pytest.raises(IndexError):
        small.apply_pulses(1.0, cells=[64])
    rep = small.apply_pulse(3, -1.5)
    assert rep.n_set == 1


def test_non_finite_amplitudes_rejected(small):
    digest = small.state_digest()
    for u_a, cells in ((np.nan, None), (np.inf, [3]), (np.full(32, -np.inf), None)):
        with pytest.raises(ValueError):
            small.apply_pulses(u_a, cells=cells)
    assert small.state_digest() == digest


def test_per_cell_amplitudes(small):
    amps = np.zeros(32, dtype=np.float32)
    amps[:16] = -1.5
    rep = small.apply_pulses(amps)
    assert rep.n_set == 16
    assert np.all(small.phase[:16] == PHASE_LRS)
    assert np.all(small.phase[16:] == PHASE_HRS)
    with pytest.raises(ValueError):
        small.apply_pulses(np.zeros(7))


def test_partition_independence_bit_exact(ref_bundle):
    runs = []
    for threads in (1, 3, 8):
        arr = init_array(ref_bundle, m=8192, a=0.4, seed=55, p=10,
                         threads=threads)
        rng = np.random.default_rng(7)
        for _ in range(40):
            arr.apply_pulses(float(rng.uniform(-1.7, 1.7)))
        arr.apply_pulses(-1.5, cells=np.arange(0, 8192, 5))
        arr.read_all()
        runs.append(arr.state_digest())
    assert runs[0] == runs[1] == runs[2]


def test_raising_threads_grows_the_pool(ref_bundle):
    m = MIN_PARALLEL_CELLS
    arr = init_array(ref_bundle, m=m, a=0.4, seed=56, p=10, threads=2)
    arr.apply_pulses(-1.5)
    arr.threads = 4

    # every partition must be running at once, which needs four workers
    barrier = threading.Barrier(4, timeout=10.0)
    apply_chunk = arr._apply_chunk

    def gated_chunk(lo, hi, ua):
        barrier.wait()
        return apply_chunk(lo, hi, ua)

    arr._apply_chunk = gated_chunk
    arr.apply_pulses(1.5)
    assert not barrier.broken

    ref = init_array(ref_bundle, m=m, a=0.4, seed=56, p=10, threads=1)
    ref.apply_pulses(-1.5)
    ref.apply_pulses(1.5)
    assert arr.state_digest() == ref.state_digest()


def test_same_seed_same_result(ref_bundle):
    a = init_array(ref_bundle, m=256, a=1.0, seed=9, p=10)
    b = init_array(ref_bundle, m=256, a=1.0, seed=9, p=10)
    assert a.state_digest() == b.state_digest()
    c = init_array(ref_bundle, m=256, a=1.0, seed=10, p=10)
    assert a.state_digest() != c.state_digest()


# -- readout --------------------------------------------------------------------

def test_noise_sigma_against_direct_formula():
    cfg = ReadoutConfig(u_read=0.2, delta_f=1e6, temperature=300.0)
    thermal = 4 * K_B * 300.0 * 10e-6 * 1e6 / 0.2
    shot = 2 * Q_E * 10e-6 * 1e6
    assert noise_sigma(10e-6, cfg) == pytest.approx(np.sqrt(thermal + shot), rel=1e-12)
    assert noise_sigma(10e-6, cfg) == pytest.approx(2.01e-9, rel=0.005)


def test_quantizer_paper_constants():
    cfg = ReadoutConfig(n_bits=4, i_min=0.0, i_max=40e-6, noise_enabled=False)
    assert quantize(20e-6, cfg) == 8          # midpoint rounds up to code 8 of 15
    assert quantize(-5e-6, cfg) == 0          # clamped
    assert quantize(50e-6, cfg) == 15
    lsb = 40e-6 / 15
    assert dequantize(8, cfg) == pytest.approx(8 * lsb)
    codes = quantize(np.linspace(-5e-6, 45e-6, 20001), cfg)
    assert np.array_equal(np.unique(codes), np.arange(16))


def test_read_noise_off_deterministic_and_immutable(small):
    cfg = ReadoutConfig(noise_enabled=False)
    r_before = small.r.tobytes()
    i1, c1, d1 = small.read_all(cfg)
    i2, c2, d2 = small.read_all(cfg)
    assert np.array_equal(i1, i2) and np.array_equal(c1, c2)
    assert small.r.tobytes() == r_before
    # identical r implies identical readouts
    small.r[:] = np.float32(0.4)
    i3, _, _ = small.read_all(cfg)
    assert np.unique(i3).size == 1


def test_read_code_for_forced_current(ref_bundle):
    arr = init_array(ref_bundle, m=4, a=0.0, seed=3, p=10)
    cfg = ReadoutConfig(noise_enabled=False, n_bits=4, i_min=0.0, i_max=40e-6)
    arr.r[:] = np.float32(state_from_point(20e-6, 0.2, arr.conduction))
    i, codes, deq = arr.read_all(cfg)
    assert np.allclose(i, 20e-6, rtol=1e-5)
    assert np.all(codes == 8)
    assert np.allclose(deq, 8 * 40e-6 / 15)


def test_read_noise_statistics(ref_bundle):
    arr = init_array(ref_bundle, m=20_000, a=0.0, seed=4, p=10)
    arr.r[:] = np.float32(0.5)
    cfg = ReadoutConfig(noise_enabled=True, n_bits=12, i_min=0.0, i_max=60e-6)
    i_noisy, _, _ = arr.read_all(cfg)
    i_clean = float(np.float32(0.5) * (np.float32(arr.conduction.i_hhrs(0.2))
                    - np.float32(arr.conduction.i_llrs(0.2)))
                    + np.float32(arr.conduction.i_llrs(0.2)))
    sig = noise_sigma(i_clean, cfg)
    assert np.std(i_noisy) == pytest.approx(sig, rel=0.08)
    assert np.mean(i_noisy) == pytest.approx(i_clean, abs=4 * sig / np.sqrt(20_000))


def test_read_rejects_a_repeated_cell(small):
    # each read of a cell consumes one draw, so a cell addressed twice in one
    # call cannot be read once and reported twice
    digest = small.state_digest()
    with pytest.raises(ValueError, match="at most once"):
        small.read_all(cells=[5, 5, 6])
    assert small.state_digest() == digest


def test_read_single_cell(small):
    i, code, deq = small.read(5)
    assert isinstance(code, int)
    assert 0 <= code <= small.readout.levels


def test_state_table(small):
    table = small.state_table()
    assert set(table) == {"cell", "cycle", "phase", "r", "static_resistance"}
    assert table["phase"][0] in ("hrs", "lrs", "irs")
    assert np.all(table["static_resistance"] > 0)


def test_shared_kernels_compute_float32_for_float32_input(ref_bundle):
    cm, cfg = ref_bundle.conduction, ReadoutConfig()
    u = np.linspace(0.3, 1.4, 101, dtype=np.float32)
    r = np.linspace(0.0, 1.0, 101, dtype=np.float32)
    assert eval_poly(cm.hhrs, u).dtype == np.float32
    assert eval_poly(cm.hhrs, u[0]).dtype == np.float32
    z = np.repeat(np.linspace(-5, 5, 101, dtype=np.float32)[:, None], 4, axis=1)
    assert inverse_map(ref_bundle.gamma, z).dtype == np.float32
    assert state_from_resistance(u * np.float32(1e5), cm).dtype == np.float32
    assert transition_state(np.float32(1.45), u, r, r[::-1], 1.5, cm).dtype == np.float32
    assert noise_sigma(u * np.float32(1e-5), cfg).dtype == np.float32
    # quantize returns codes: float32 currents next to the half-code points
    # must be coded by float32 arithmetic, which differs from float64 there
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    half = ((np.arange(cfg.levels) + 0.5) * lsb + cfg.i_min).astype(np.float32)
    sweep = (half.view(np.int32)[:, None] + np.arange(-64, 65, dtype=np.int32)).view(np.float32)
    want32 = np.rint((sweep - np.float32(cfg.i_min)) * np.float32(1.0 / lsb))
    want64 = np.rint((sweep.astype(np.float64) - cfg.i_min) / lsb)
    assert np.any(want32 != want64)
    assert np.array_equal(quantize(sweep, cfg), want32.astype(np.int32))


def test_readout_config_rejects_negative_temperature_and_float32_overflow():
    # a negative temperature made the read noise NaN; a window that float32
    # cannot hold made the ADC codes garbage
    with pytest.raises(ValueError, match="temperature"):
        ReadoutConfig(temperature=-1e6)
    ReadoutConfig(temperature=0.0)
    for window in ({"i_min": -1e308}, {"i_max": 1e39}, {"i_max": 1e-300}):
        with pytest.raises(ValueError, match="i_min, i_max"):
            ReadoutConfig(**window)


def test_array_gates_its_effective_settings(ref_bundle):
    # the bundle's own defaults pass its load gates; settings given to the
    # array go through the same float32 checks
    with pytest.raises(ValueError, match="u_read"):
        init_array(ref_bundle, m=8, readout=ReadoutConfig(u_read=1e20))
    with pytest.raises(ValueError, match="dtd_scale"):
        init_array(ref_bundle, m=8, a=1e300)
    with pytest.raises(ValueError, match="u_max"):
        init_array(ref_bundle, m=8, u_max=1e39)
    arr = init_array(ref_bundle, m=8)
    with pytest.raises(ValueError, match="u_read"):
        arr.read_all(ReadoutConfig(u_read=1e20))


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(i_min=1e-6, i_max=1e-6)
    for name in ("u_read", "delta_f", "temperature", "i_min", "i_max"):
        with pytest.raises(ValueError, match="finite"):
            ReadoutConfig(**{name: float("nan")})
    with pytest.raises(ValueError):
        ReadoutConfig(n_bits=0)
    with pytest.raises(ValueError):
        ReadoutConfig(delta_f=0.0)
    with pytest.raises(ValueError):
        ReadoutConfig(u_read=0.0)
