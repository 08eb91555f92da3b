import tracemalloc

import numpy as np
import pytest

from stochsyn import synth
from stochsyn.conduction import (
    MIN_LINEAR_COEFF,
    current,
    fit_conduction_polys,
    fit_limiting_model,
    state_from_resistance,
    transition_current,
)
from stochsyn.stats import wasserstein1
from stochsyn.waveform import (
    HRS_FIT_DEGREE,
    HRS_FIT_MARGIN,
    HRS_FIT_U_MAX,
    LRS_FIT_DEGREE,
    LRS_FIT_MARGIN,
    LRS_FIT_U_MIN,
    CYCLE_BLOCK,
    MIN_FIT_POINTS,
    RESET_MIN_PROMINENCE,
    SET_CURRENT_THRESHOLD,
    SMOOTH_WINDOW_MAX,
    ExtractionError,
    RawTrace,
    _branch_fits,
    _one_row,
    _reset_voltages,
    _set_voltages,
    detect_set_locations,
    extract_features,
    extract_reset_voltage,
    extract_set_voltage,
    fit_state_polynomials,
    read_features_csv,
    read_trace_iuw,
    smooth_adaptive,
    smoothing_half_widths,
    split_cycles,
    write_features_csv,
    write_trace_iuw,
)


def triangle_u(n_periods, period=1042, amp=1.5, phase=0):
    k = np.arange(n_periods * period) + phase
    saw = (k % period) / period
    return amp * (1.0 - 4.0 * np.minimum(saw, 1.0 - saw))


# -- smoothing ----------------------------------------------------------------

def test_half_widths_far_and_at_transition():
    h = smoothing_half_widths(200, [100])
    assert h[100] == 1            # window of 3 at the flagged sample
    assert h[0] == 12             # window of 25 far away
    assert h[175] == 12
    mid = h[100:126]
    assert np.all(np.diff(mid) >= 0)  # linear recovery, monotone


def test_smoothing_constant_unchanged():
    trace = RawTrace(u=np.linspace(-1, 1, 500), i=np.full(500, 3.3e-6),
                     samples_per_cycle=500)
    out = smooth_adaptive(trace, [250])
    assert np.allclose(out.i, 3.3e-6, rtol=1e-12)
    assert out.u is trace.u


def test_smoothing_preserves_flagged_step():
    n = 400
    i = np.zeros(n)
    i[200:] = 1.0
    trace = RawTrace(u=np.zeros(n), i=i, samples_per_cycle=n)
    adaptive = smooth_adaptive(trace, [200]).i
    uniform = smooth_adaptive(trace, []).i
    # midpoint slope: adaptive keeps the edge within a 3-sample blur,
    # the uniform 25-sample window flattens it
    slope_a = adaptive[201] - adaptive[199]
    slope_u = uniform[201] - uniform[199]
    assert slope_a > 3 * slope_u
    assert slope_a > 0.6


def test_smoothing_peak_memory_per_sample():
    # one global cumulative sum, evaluated in fixed blocks: about 24 B per
    # sample (half-widths, cumulative sum, output) where the whole-trace
    # index arithmetic took about 61
    u = triangle_u(960)
    trace = RawTrace(u=u, i=np.random.default_rng(3).normal(0.0, 1e-6, u.size))
    locs = np.arange(600, u.size, 1042)
    tracemalloc.start()
    try:
        smooth_adaptive(trace, locs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * u.size


def test_smoothing_rejects_out_of_range_locations():
    trace = RawTrace(u=np.zeros(10), i=np.zeros(10), samples_per_cycle=10)
    with pytest.raises(ValueError):
        smooth_adaptive(trace, [99])


# -- segmentation ---------------------------------------------------------------

def test_split_pure_triangle_three_periods():
    u = triangle_u(3)
    trace = RawTrace(u=u, i=np.zeros_like(u))
    bounds, dropped = split_cycles(trace)
    assert len(bounds) == 3
    assert dropped == 0
    lengths = [b - a for a, b in bounds]
    assert all(abs(l - 1042) <= 1 for l in lengths)
    for a, _ in bounds:
        assert u[a] == pytest.approx(1.5)


def test_split_phase_shift_drops_partial():
    u = triangle_u(3, phase=400)
    trace = RawTrace(u=u, i=np.zeros_like(u))
    bounds, dropped = split_cycles(trace)
    assert dropped >= 1
    assert all(b - a >= 1040 for a, b in bounds)


def test_split_contiguous_partition():
    u = triangle_u(5, phase=123)
    trace = RawTrace(u=u, i=np.zeros_like(u))
    bounds, _ = split_cycles(trace)
    for (a0, b0), (a1, b1) in zip(bounds[:-1], bounds[1:]):
        assert b0 == a1


# -- transition detection ---------------------------------------------------------

def test_detect_one_crossing_per_cycle():
    u = triangle_u(4)
    i = np.where(u < -0.8, -80e-6, 0.0)
    trace = RawTrace(u=u, i=i)
    locs, missing = detect_set_locations(trace)
    assert len(locs) == 4
    assert missing == 0
    assert np.all(np.abs(u[locs] - (-0.8)) < 0.01)


def test_detect_flat_zero_trace_empty():
    trace = RawTrace(u=triangle_u(3), i=np.zeros(3 * 1042))
    locs, missing = detect_set_locations(trace)
    assert locs.size == 0
    assert missing == 3


def test_detect_requires_negative_threshold():
    trace = RawTrace(u=triangle_u(1), i=np.zeros(1042))
    with pytest.raises(ValueError):
        detect_set_locations(trace, threshold=10e-6)


def test_detect_on_model_trace_within_two_samples(ref_bundle):
    feats = synth.sample_features(ref_bundle, 40, seed=5)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, noise_sigma=0.0)
    bounds, _ = split_cycles(trace)
    locs, missing = detect_set_locations(trace, boundaries=bounds)
    assert missing == 0
    for (start, stop), loc in zip(bounds, locs):
        n = np.searchsorted([b for _, b in bounds], loc, side="right")
        u_at = trace.u[loc]
        du = 6.0 / 1042
        assert abs(-u_at - feats[n, 1]) < 2.5 * du


# -- per-cycle features: the batch kernels on one padded row ----------------------

def _set_voltage(u, i):
    _, u2, i2 = _one_row(u, i)
    u_s, why = _set_voltages(u2, i2, SET_CURRENT_THRESHOLD)
    return u_s[0], why[0]


def _reset_voltage(u, i, min_prominence=RESET_MIN_PROMINENCE, i_raw=None):
    n, u2, i2, *raw = _one_row(u, i) if i_raw is None else _one_row(u, i, i_raw)
    u_r, why = _reset_voltages(u2, i2, n, np.argmin(u2, axis=1), min_prominence, *raw)
    return u_r[0], why[0]


def _branch_fit(u, i, u_s, u_r):
    _, u2, i2 = _one_row(u, i)
    r_h, r_l, _, _, hrs, lrs, why = _branch_fits(
        u2, i2, np.argmin(u2, axis=1), np.array([u_s]), np.array([u_r]), 0.2)
    return r_h[0], r_l[0], hrs[0], lrs[0], why[0]


def test_set_voltage_exact_sample_and_midpoint():
    u = np.array([-0.70, -0.80, -0.85, -0.90])
    i = np.array([-10e-6, -30e-6, -50e-6, -70e-6])
    assert _set_voltage(u, i) == (pytest.approx(0.85), None)
    u = np.array([-0.70, -0.80, -0.90])
    i = np.array([-10e-6, -40e-6, -60e-6])
    assert _set_voltage(u, i) == (pytest.approx(0.85), None)
    u_s, why = _set_voltage(u, np.zeros(3))
    assert np.isnan(u_s) and why == "no crossing of -5e-05 A"


def test_reset_voltage_single_bump():
    u = np.concatenate([np.linspace(-1.5, 0, 50), np.linspace(0.0, 1.5, 150)[1:]])
    i = np.where(u < 0.72, u * 50e-6, (1.44 - u) * 50e-6)
    i = i * (u > 0)  # flat at zero before the rise
    assert _reset_voltage(u, i) == (pytest.approx(0.72, abs=0.02), None)


def test_reset_voltage_refined_on_raw_current():
    # the smoothed peak moves to the raw argmax, but only within the
    # smoothing support around it
    h = (SMOOTH_WINDOW_MAX - 1) // 2
    u = np.linspace(-1.5, 1.5, 301)
    i = _bump(u, 0.9, 0.05, 10e-6)
    raw = _bump(u, 0.93, 0.05, 10e-6)
    assert _reset_voltage(u, i, i_raw=raw) == (u[np.argmax(raw)], None)
    raw = _bump(u, 0.3, 0.05, 10e-6)
    assert _reset_voltage(u, i, i_raw=raw) == (u[np.argmax(i) - h], None)


def _bump(u, center, width, height):
    return height * np.exp(-0.5 * ((u - center) / width) ** 2)


def test_reset_voltage_prominence_rule():
    u = np.linspace(-1.5, 1.5, 600)
    # first peak too small (3 uA), second qualifies (10 uA)
    i = _bump(u, 0.4, 0.02, 3e-6) + _bump(u, 0.9, 0.05, 10e-6)
    assert _reset_voltage(u, i) == (pytest.approx(0.9, abs=0.02), None)
    # nothing qualifies: fall back to the most prominent peak
    i = _bump(u, 0.4, 0.02, 2e-6) + _bump(u, 0.9, 0.05, 4e-6)
    assert _reset_voltage(u, i) == (pytest.approx(0.9, abs=0.02), None)
    u_r, why = _reset_voltage(u, u * 1e-6)
    assert np.isnan(u_r) and why == "monotone section, no peak"


def _brute_prominences(x, peaks):
    out = []
    for p in peaks:
        h = x[p]
        j = p - 1
        lo = h
        while j >= 0 and x[j] <= h:
            lo = min(lo, x[j])
            j -= 1
        left = h - lo
        j = p + 1
        lo = h
        while j < x.size and x[j] <= h:
            lo = min(lo, x[j])
            j += 1
        right = h - lo
        out.append(min(left, right))
    return np.array(out)


def test_prominence_matches_brute_force():
    from scipy.signal import find_peaks, peak_prominences
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = np.cumsum(rng.normal(size=2000))
        peaks, _ = find_peaks(x)
        fast = peak_prominences(x, peaks)[0]
        assert np.allclose(fast, _brute_prominences(x, peaks), rtol=1e-12)


def test_reset_voltage_matches_scipy_peak_rule():
    # random walks rounded to 1 uA steps: many plateaus, and peaks on both
    # sides of the prominence floor
    from scipy.signal import find_peaks, peak_prominences
    rng = np.random.default_rng(5)
    u = np.linspace(-1.5, 1.5, 301)
    for _ in range(200):
        i = np.round(np.cumsum(rng.normal(size=u.size)) * 2.0) * 1e-6
        floor = rng.uniform(1e-6, 2e-5)
        sec = i[u > 0.0]
        peaks, _ = find_peaks(sec)
        if peaks.size == 0:
            assert _reset_voltage(u, i, floor)[1] == "monotone section, no peak"
            continue
        prom = peak_prominences(sec, peaks)[0]
        good = np.nonzero(prom >= floor)[0]
        pick = peaks[good[0]] if good.size else peaks[np.argmax(prom)]
        assert _reset_voltage(u, i, floor) == (u[u > 0.0][pick], None)


def test_state_fit_ohmic_exact():
    period = 1042
    u = triangle_u(1, period=period)
    i = u / 10e3
    r_h, r_l, _, lrs, why = _branch_fit(u, i, u_s=0.85, u_r=0.72)
    assert why is None
    assert r_l == pytest.approx(10e3, rel=1e-9)
    assert r_h == pytest.approx(10e3, rel=1e-9)
    assert lrs[0] == 0.0
    assert lrs[1] == pytest.approx(1e-4, rel=1e-9)
    assert np.allclose(lrs[2:], 0.0, atol=1e-15)


def test_state_fit_recovers_under_noise():
    rng = np.random.default_rng(31)
    u = triangle_u(1)
    truth_h = np.array([0.0, 1.5e-6, 2e-7, 1e-7, 0.0, 4e-8])
    truth_l = np.array([0.0, 2.2e-4, 1e-6, 8e-6])
    turn = np.argmin(u)
    i = np.empty_like(u)
    i[: turn + 1] = np.polynomial.polynomial.polyval(u[: turn + 1], truth_h)
    i[turn:] = np.polynomial.polynomial.polyval(u[turn:], truth_l)
    i *= 1.0 + 0.01 * rng.standard_normal(i.size)
    r_h, r_l, _, _, why = _branch_fit(u, i, u_s=0.85, u_r=0.72)
    r_h_true = 0.2 / np.polynomial.polynomial.polyval(0.2, truth_h)
    r_l_true = 0.2 / np.polynomial.polynomial.polyval(0.2, truth_l)
    assert why is None
    assert r_h == pytest.approx(r_h_true, rel=0.02)
    assert r_l == pytest.approx(r_l_true, rel=0.02)


def test_state_fit_insufficient_points():
    u = np.linspace(1.5, -1.5, 40)
    assert _branch_fit(u, np.zeros(40), u_s=0.85, u_r=0.72)[4] == \
        "only 0 points in low-resistance window"


def test_per_cycle_functions_are_one_row_kernel_calls(ref_bundle):
    feats = synth.sample_features(ref_bundle, 2, seed=3)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=4)
    u, i = trace.u[: trace.samples_per_cycle], trace.i[: trace.samples_per_cycle]
    u_s, why_s = _set_voltage(u, i)
    u_r, why_r = _reset_voltage(u, i)
    r_h, r_l, hrs, lrs, why_f = _branch_fit(u, i, u_s, u_r)
    assert (why_s, why_r, why_f) == (None, None, None)
    assert extract_set_voltage(u, i) == u_s
    assert extract_reset_voltage(u, i) == u_r
    sfit = fit_state_polynomials(u, i, u_s, u_r)
    assert (sfit.r_h, sfit.r_l) == (r_h, r_l)
    assert np.array_equal(sfit.hrs_coeffs, hrs) and np.array_equal(sfit.lrs_coeffs, lrs)
    with pytest.raises(ExtractionError, match="monotone section, no peak"):
        extract_reset_voltage(u, u * 1e-6)


# -- batch branch fits against np.linalg.lstsq -------------------------------------

def _lstsq_reference(u, i, degree):
    """One window's constrained fit as per-window np.linalg.lstsq solves it."""
    design = u[:, None] ** np.arange(1, degree + 1)
    coef = np.linalg.lstsq(design, i, rcond=None)[0]
    if coef[0] < MIN_LINEAR_COEFF:
        rest = np.linalg.lstsq(design[:, 1:], i - MIN_LINEAR_COEFF * u, rcond=None)[0]
        coef = np.concatenate([[MIN_LINEAR_COEFF], rest])
    return np.concatenate([[0.0], coef])


def _assert_fits_match_lstsq(windows, degree, u0=0.2, rel=1e-10):
    """The batch kernel on zero-padded windows against the per-window
    reference: coefficients relative to each row's largest, and u0 / I(u0)."""
    width = max(u.size for u, _ in windows)
    u_pad, i_pad = np.zeros((len(windows), width)), np.zeros((len(windows), width))
    for row, (u, i) in enumerate(windows):
        u_pad[row, : u.size], i_pad[row, : i.size] = u, i
    got = fit_conduction_polys(u_pad, i_pad, degree)
    want = np.array([_lstsq_reference(u, i, degree) for u, i in windows])
    assert np.all(np.abs(got - want) <= rel * np.abs(want).max(axis=1, keepdims=True))
    r_want = u0 / np.polynomial.polynomial.polyval(u0, want.T)
    r_got = u0 / np.polynomial.polynomial.polyval(u0, got.T)
    assert np.all(np.abs(r_got / r_want - 1.0) <= rel)
    return want, r_want


def test_branch_fits_match_lstsq_on_synthetic_trace(ref_bundle):
    n = 10_000
    feats = synth.sample_features(ref_bundle, n + 1, seed=77)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=78)
    keep = n * trace.samples_per_cycle
    result = extract_features(RawTrace(u=trace.u[:keep], i=trace.i[:keep]),
                              collect_windows=True)
    _, r_h = _assert_fits_match_lstsq(result.hrs_windows, HRS_FIT_DEGREE)
    _, r_l = _assert_fits_match_lstsq(result.lrs_windows, LRS_FIT_DEGREE)
    assert np.all(np.abs(result.features[:, 0] / r_h - 1.0) <= 1e-10)
    assert np.all(np.abs(result.features[:, 2] / r_l - 1.0) <= 1e-10)


def test_branch_fits_match_lstsq_clamped_and_narrowest_windows(ref_bundle):
    rng = np.random.default_rng(8)
    cm = ref_bundle.conduction
    # negative unconstrained slope: c1 is clamped and the rest refit
    u = np.linspace(HRS_FIT_MARGIN, HRS_FIT_U_MAX, 60)
    clamped = [(u, (-1e-6 * u + 2e-6 * u**3) * (1.0 + 0.01 * rng.standard_normal(u.size)))
               for _ in range(20)]
    for degree in (HRS_FIT_DEGREE, LRS_FIT_DEGREE):
        want, _ = _assert_fits_match_lstsq(clamped, degree)
        assert np.all(want[:, 1] == MIN_LINEAR_COEFF)
    # MIN_FIT_POINTS points over the narrowest spans the masks admit: the
    # high-resistance window at u_s -> 0, the low-resistance one at u_r -> 0
    for lo, hi, degree, res in ((HRS_FIT_MARGIN, HRS_FIT_U_MAX, HRS_FIT_DEGREE, 166e3),
                                (LRS_FIT_U_MIN, -LRS_FIT_MARGIN, LRS_FIT_DEGREE, 8.2e3)):
        u = np.linspace(lo, hi, MIN_FIT_POINTS)
        i = current(state_from_resistance(res, cm), u, cm)
        _assert_fits_match_lstsq(
            [(u, i * (1.0 + 0.05 * rng.standard_normal(u.size))) for _ in range(50)], degree)


# -- synthetic traces and exclusions -----------------------------------------------

def test_reconstruct_trace_matches_per_cycle_loop(ref_bundle):
    feats = synth.sample_features(ref_bundle, 1100, seed=21)
    cm, u_max, pp = ref_bundle.conduction, 1.5, 1042
    k = np.arange(pp)
    u_cycle = np.interp(k, [0, pp // 2, pp], [u_max, -u_max, u_max])
    down = k <= pp // 2
    want = []
    for n, (r_h, u_s, r_l, u_r) in enumerate(feats):
        r_next = feats[n + 1, 0] if n + 1 < len(feats) else r_h
        s_h, s_l, s_n = (state_from_resistance(r, cm) for r in (r_h, r_l, r_next))
        # one-element arrays: numpy squares an array by a multiply, a scalar by pow
        curve = transition_current(u_cycle, np.array([u_r]), s_l, s_n, u_max, cm)
        want.append(np.where(
            down,
            np.where(u_cycle > -u_s, current(s_h, u_cycle, cm), current(s_l, u_cycle, cm)),
            np.where(u_cycle <= u_r, current(s_l, u_cycle, cm), curve),
        ))
    trace = synth.reconstruct_trace(feats, cm, u_max=u_max, samples_per_cycle=pp,
                                    noise_sigma=0.0)
    assert np.array_equal(trace.u, np.tile(u_cycle, len(feats)))
    assert np.array_equal(trace.i, np.concatenate(want))


def _exclusion_trace(bundle):
    """16 model cycles, six of them broken, one for each exclusion reason."""
    n = 16
    feats = synth.sample_features(bundle, n + 1, seed=9)
    trace = synth.reconstruct_trace(feats, bundle.conduction, noise_sigma=0.0)
    pp = trace.samples_per_cycle
    u = trace.u[: n * pp].reshape(n, pp).copy()
    i = trace.i[: n * pp].reshape(n, pp).copy()
    k = np.arange(pp)
    down, rising = k <= pp // 2, k >= pp // 2
    hrs = down & (u > -feats[:n, 1, None])
    i[0, hrs[0]] = 100e-6                           # above the high-resistance current range
    i[2] = np.abs(i[2])                             # never reaches the set threshold
    u[4, rising] = -np.abs(u[4, rising])            # increasing sweep stays negative
    bump = 20e-6 * np.exp(-(((u[6] - 0.5) / 0.1) ** 2))
    i[6, rising] = 130e-6 + bump[rising]            # a reset peak above the low-resistance range
    i[8, hrs[8]] = -20e-6 * u[8, hrs[8]] ** 2       # fitted branch current <= 0 at u0
    i[15, rising] = 50e-6 * (u[15, rising] + 1.5)   # strictly increasing, last cycle
    return RawTrace(u=u.ravel(), i=i.ravel(), samples_per_cycle=pp)


def test_exclusion_reasons_one_cycle_each(ref_bundle):
    result = extract_features(_exclusion_trace(ref_bundle))
    assert result.exclusions == [
        (0, "only 0 points in high-resistance window"),
        (2, "no crossing of -5e-05 A"),
        (4, "no positive-voltage section"),
        (6, "only 0 points in low-resistance window"),
        (8, "fitted branch has non-positive current at u0"),
        (15, "monotone section, no peak"),
    ]
    assert result.set_missing == 1
    assert result.cycles.tolist() == [1, 3, 5, 7, 9, 10, 11, 12, 13, 14]


def test_windows_align_with_cycles_when_a_block_keeps_none(ref_bundle):
    """A last block whose only cycle is excluded adds no window."""
    n = CYCLE_BLOCK + 1
    feats = synth.sample_features(ref_bundle, n + 1, seed=11)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, noise_sigma=0.0)
    pp = trace.samples_per_cycle
    u, i = trace.u[: n * pp].copy(), trace.i[: n * pp].copy()
    last = slice((n - 1) * pp + pp // 2, n * pp)
    i[last] = 50e-6 * (u[last] + 1.5)               # strictly increasing: no reset peak
    result = extract_features(RawTrace(u=u, i=i, samples_per_cycle=pp), collect_windows=True)
    assert result.exclusions == [(n - 1, "monotone section, no peak")]
    assert len(result.hrs_windows) == len(result.lrs_windows) == len(result.cycles) == n - 1
    fit_limiting_model(result.hrs_windows, result.lrs_windows,
                       result.features[:, 0], result.features[:, 2])


# -- end to end -------------------------------------------------------------------

def test_extract_features_empty_trace():
    with pytest.raises(ExtractionError):
        extract_features(RawTrace(u=np.empty(0), i=np.empty(0)))


def test_extract_features_synthetic_end_to_end(ref_bundle):
    n = 10_000
    feats = synth.sample_features(ref_bundle, n + 1, seed=77)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=78)
    keep = n * trace.samples_per_cycle
    trace = RawTrace(u=trace.u[:keep], i=trace.i[:keep])
    result = extract_features(trace)
    assert result.features.shape[0] >= 0.99 * n
    truth = feats[result.cycles]
    for k in range(4):
        w1 = wasserstein1(result.features[:, k], truth[:, k])
        assert w1 / truth[:, k].mean() < 0.02
    # pooled extremal refit brackets the per-cycle branches
    result_w = extract_features(trace, collect_windows=True)
    limits = fit_limiting_model(result_w.hrs_windows, result_w.lrs_windows,
                                result_w.features[:, 0], result_w.features[:, 2])
    assert 0.2 / limits.i_hhrs(0.2) > np.quantile(result.features[:, 0], 0.98)
    assert 0.2 / limits.i_llrs(0.2) < np.quantile(result.features[:, 2], 0.02)


def test_trace_and_features_file_roundtrip(tmp_path, ref_bundle):
    feats = synth.sample_features(ref_bundle, 12, seed=3)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=4)
    path = tmp_path / "t.iuw"
    write_trace_iuw(trace, path)
    back = read_trace_iuw(path)
    assert np.allclose(back.u, trace.u, atol=1e-6)
    assert np.allclose(back.i, trace.i, atol=1e-9)

    fpath = tmp_path / "f.csv"
    write_features_csv(feats, fpath)
    cycles, back_f = read_features_csv(fpath)
    assert np.array_equal(cycles, np.arange(1, 13))
    assert np.array_equal(back_f, feats)  # full float precision survives
