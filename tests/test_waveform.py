import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from sample_stats import wasserstein1

from stochsyn import synth, waveform
from stochsyn.conduction import (
    LIMIT_PERCENTILE,
    MIN_LINEAR_COEFF,
    U0_DEFAULT,
    current,
    fit_conduction_polys,
    fit_limiting_model,
    state_from_resistance,
    transition_current,
)
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
    SMOOTH_RAMP_SPAN,
    SMOOTH_REACH,
    ExtractionError,
    RawTrace,
    detect_set_locations,
    extract_features,
    extract_reset_voltage,
    extract_set_voltage,
    fit_state_polynomials,
    read_features_csv,
    read_trace,
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


def _current_rows(i, starts, width):
    """Rows of a 1-D current as `smooth_adaptive` takes them: row k holds
    samples starts[k] - SMOOTH_REACH to starts[k] + width + SMOOTH_REACH - 1,
    zero outside the current."""
    ext = np.zeros(i.size + width + 2 * SMOOTH_REACH)
    ext[SMOOTH_REACH : SMOOTH_REACH + i.size] = i
    return sliding_window_view(ext, width + 2 * SMOOTH_REACH)[np.asarray(starts)]


def _smooth_whole(i, locs):
    """The whole of a 1-D current smoothed as one row."""
    return smooth_adaptive(_current_rows(i, [0], i.size), np.array([0]), locs, i.size)[0]


def test_smoothing_constant_unchanged():
    out = _smooth_whole(np.full(500, 3.3e-6), [250])
    assert np.allclose(out, 3.3e-6, rtol=1e-12)


def test_smoothing_preserves_flagged_step():
    n = 400
    i = np.zeros(n)
    i[200:] = 1.0
    adaptive = _smooth_whole(i, [200])
    uniform = _smooth_whole(i, [])
    # midpoint slope: adaptive keeps the edge within a 3-sample blur,
    # the uniform 25-sample window flattens it
    slope_a = adaptive[201] - adaptive[199]
    slope_u = uniform[201] - uniform[199]
    assert slope_a > 3 * slope_u
    assert slope_a > 0.6


def test_smoothing_peak_memory_per_sample():
    # each row's running sum overwrites the caller's rows, so the kernel holds
    # its output (8 B per sample), its int8 half-widths and the masks and
    # indices of the narrowed windows: about 12 B per sample, where the
    # whole-trace index arithmetic took about 61
    u = triangle_u(960)
    i = np.random.default_rng(3).normal(0.0, 1e-6, u.size)
    starts = np.arange(0, u.size, 1042)
    x = _current_rows(i, starts, 1042)
    tracemalloc.start()
    try:
        smooth_adaptive(x, starts, np.arange(600, u.size, 1042), u.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * u.size


def test_smoothing_half_widths_take_one_byte_per_sample():
    # the output takes 8 B per sample beside the caller's rows; int64
    # half-widths would add 8 more, int8 ones add 1
    n = 1 << 22
    starts = np.arange(0, n, 1024)
    x = _current_rows(np.random.default_rng(5).normal(0.0, 1e-6, n), starts, 1024)
    tracemalloc.start()
    try:
        smooth_adaptive(x, starts, np.arange(600, n, 1042), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * n


def _cycle_smoothing(i, locs, start, stop):
    """Samples start..stop-1 of a 1-D current smoothed from one float64
    cumulative sum over them and SMOOTH_REACH samples more on either side,
    zero outside the current: the per-cycle reference, to the bit."""
    n, base = i.size, start - SMOOTH_REACH
    x = np.zeros(stop - start + 2 * SMOOTH_REACH)
    lo, hi = max(base, 0), min(stop + SMOOTH_REACH, n)
    x[lo - base : hi - base] = i[lo:hi]
    cs = np.concatenate([[0.0], np.cumsum(x)])
    h = smoothing_half_widths(stop, locs, start)
    pos = np.arange(start, stop)
    left, right = np.maximum(pos - h, 0), np.minimum(pos + h, n - 1)
    return (cs[right + 1 - base] - cs[left - base]) / (right + 1 - left)


def _smoothed(trace):
    """The trace with each cycle's current smoothed on its own around the set
    locations (`_cycle_smoothing`); samples outside every cycle are NaN."""
    bounds, _ = split_cycles(trace)
    locs, _ = detect_set_locations(trace, bounds)
    i = np.full(len(trace), np.nan)
    for start, stop in bounds:
        i[start:stop] = _cycle_smoothing(trace.i, locs, start, stop)
    return RawTrace(u=trace.u, i=i)


def test_smoothing_rows_match_exact_window_sums(ref_bundle):
    # A window sum is a difference of two prefixes of a recursive sum, so the
    # rounding before the window cancels and each of the window's own
    # additions errs by at most eps / 2 times the running sum's size
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # section 4.2).  Summed over its row that size is at most sum|i over the
    # row|, so with the subtraction's and the division's roundings a window
    # mean lies within 2 * eps * sum|i over the row| of math.fsum's exact one
    # (measured: 0.08 of it).  A running sum carried along the whole trace
    # grows with the current's mean instead: on this trace it reached -15.9
    # A.samples, and the means taken from it erred by up to 35 times this
    # bound, beyond it in 490 of the 513 cycles.
    feats = synth.sample_features(ref_bundle, 2 * CYCLE_BLOCK + 1, seed=41)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=42)
    bounds, _ = split_cycles(trace)
    locs, _ = detect_set_locations(trace, bounds)
    assert len(bounds) >= 2 * CYCLE_BLOCK
    n, width = len(trace), int((bounds[:, 1] - bounds[:, 0]).max())
    x = _current_rows(trace.i, bounds[:, 0], width)
    bound = 2 * np.finfo(np.float64).eps * np.abs(x).sum(axis=1)
    sm = smooth_adaptive(x, bounds[:, 0], locs, n)
    h = smoothing_half_widths(n, locs)
    i = trace.i.tolist()
    for k, (start, stop) in enumerate(bounds):
        pos = np.arange(start, stop)
        left, right = np.maximum(pos - h[start:stop], 0), np.minimum(pos + h[start:stop], n - 1)
        count = right + 1 - left
        exact = np.array([math.fsum(i[a : b + 1]) for a, b in zip(left, right)]) / count
        assert np.all(np.abs(sm[k, : stop - start] - exact) <= bound[k]), k


EDGE_CASES = ("leading_partial_segment", "set_near_block_edges",
              "partial_last_block", "last_cycle_at_trace_end")


def _edge_trace(bundle, case, dtype):
    """A model trace for one edge of the blocks of cycles, as float64
    channels or as the float32 column views of a .iuw's pairs."""
    cycles = {"set_near_block_edges": 2 * CYCLE_BLOCK + 1,
              "last_cycle_at_trace_end": 2 * CYCLE_BLOCK}.get(case, 2 * CYCLE_BLOCK + 88)
    feats = synth.sample_features(bundle, cycles, seed=13)
    trace = synth.reconstruct_trace(feats, bundle.conduction, seed=14)
    pp = synth.SAMPLES_PER_CYCLE
    u, i = trace.u.copy(), trace.i.copy()
    if case == "set_near_block_edges":
        # first crossings just after the start of cycle 256 and just
        # before the ends of cycles 255 and 511
        edge = CYCLE_BLOCK * pp
        i[edge + 5 : edge + 10] = -80e-6
        i[edge - pp : edge] = np.abs(i[edge - pp : edge])
        i[edge - 8 : edge - 3] = -80e-6
        i[2 * edge - pp : 2 * edge] = np.abs(i[2 * edge - pp : 2 * edge])
        i[2 * edge - 8 : 2 * edge - 3] = -80e-6
    keep = {"leading_partial_segment": slice(300, None),
            "partial_last_block": slice(300, -400)}.get(case, slice(None))
    pairs = np.column_stack([u[keep], i[keep]]).astype(dtype)
    return RawTrace(u=pairs[:, 0], i=pairs[:, 1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_smoothing_in_block_alone_and_pooled_agree(ref_bundle, case, dtype, monkeypatch):
    trace = _edge_trace(ref_bundle, case, dtype)
    bounds, _ = split_cycles(trace)
    locs, _ = detect_set_locations(trace, boundaries=bounds)
    edges = np.append(0, bounds[CYCLE_BLOCK - 1 :: CYCLE_BLOCK, 1])
    near = np.abs(locs[:, None] - edges[1:]).min()
    assert {"leading_partial_segment": bounds[0, 0] > SMOOTH_REACH,
            "set_near_block_edges": near <= SMOOTH_REACH + SMOOTH_RAMP_SPAN,
            "partial_last_block": bounds.shape[0] % CYCLE_BLOCK and bounds[-1, 1] < len(trace),
            "last_cycle_at_trace_end": bounds[-1, 1] == len(trace)}[case]

    # every smoothed row of one extraction: its blocks', then each pooled cycle's
    cycle_rows, calls = waveform._cycle_rows, []

    def recording(trace, set_locations, starts, lengths, width):
        rows = cycle_rows(trace, set_locations, starts, lengths, width)
        calls.append([(int(s), row[:n]) for s, n, row in zip(starts, lengths, rows[2])])
        return rows

    monkeypatch.setattr(waveform, "_cycle_rows", recording)
    result = extract_features(trace)
    blocks = -(-len(bounds) // CYCLE_BLOCK)
    in_block = dict(row for call in calls[:blocks] for row in call)
    pooled = dict(row for call in calls[blocks:] for row in call)
    assert len(in_block) == len(bounds) and len(calls) - blocks == len(pooled) > 0
    for start, stop in bounds:
        _, _, alone = cycle_rows(trace, locs, np.array([start]), np.array([stop - start]),
                                 stop - start)
        want = _cycle_smoothing(trace.i, locs, start, stop)
        assert alone[0].tobytes() == in_block[start].tobytes() == want.tobytes()
        assert pooled.get(start, want).tobytes() == want.tobytes()
    _assert_pool_is_the_per_cycle_pool(trace, result)


def test_smoothing_rejects_out_of_range_locations():
    with pytest.raises(ValueError):
        smooth_adaptive(np.zeros((1, 10 + 2 * SMOOTH_REACH)), np.array([0]), [99], 10)


# -- segmentation ---------------------------------------------------------------

def test_split_pure_triangle_three_periods():
    u = triangle_u(3)
    trace = RawTrace(u=u, i=np.zeros_like(u))
    bounds, period = split_cycles(trace)
    assert bounds.shape == (3, 2) and bounds.dtype == np.int64
    assert period == 1042
    assert bounds[0, 0] == 0 and bounds[-1, 1] == u.size
    lengths = [b - a for a, b in bounds]
    assert all(abs(l - 1042) <= 1 for l in lengths)
    for a, _ in bounds:
        assert u[a] == pytest.approx(1.5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_split_by_blocks_finds_the_whole_trace_apexes(dtype):
    # more than two blocks of noisy periods, a leading and a trailing partial
    # segment, the float32 channel a strided column as a .iuw's
    period, n_periods = 1042, 2 * CYCLE_BLOCK + 5
    u = triangle_u(n_periods, phase=400)[:-500]
    u += np.random.default_rng(2).normal(0.0, 1e-3, u.size)
    pairs = np.column_stack([u, np.zeros_like(u)]).astype(dtype)
    trace = RawTrace(u=pairs[:, 0], i=pairs[:, 1])
    bounds, found = split_cycles(trace)
    k = u.size // period
    apex = np.argmax(trace.u[: k * period].reshape(k, period), axis=1) + period * np.arange(k)
    assert found == period
    assert bounds[0, 0] > 0 and bounds[-1, 1] < u.size
    assert np.array_equal(bounds[:, 0], apex[:-1]) and np.array_equal(bounds[:, 1], apex[1:])


def test_split_phase_shift_drops_partial():
    u = triangle_u(3, phase=400)
    trace = RawTrace(u=u, i=np.zeros_like(u))
    bounds, _ = split_cycles(trace)
    assert bounds[0, 0] > 0
    assert all(b - a >= 1040 for a, b in bounds)


@pytest.mark.parametrize("pp", [800, 2084])
def test_split_takes_the_period_from_a_noisy_sweep(ref_bundle, pp):
    # 20 mV of normal noise on u gives the period or one sample off; one 1e30
    # sample in the second cycle's trough, where u is low, does not move it
    feats = synth.sample_features(ref_bundle, 60, seed=31)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, samples_per_cycle=pp, seed=32)
    for seed in range(5):
        u = trace.u + np.random.default_rng(seed).normal(0.0, 0.02, trace.u.size)
        _, period = split_cycles(RawTrace(u=u, i=trace.i))
        assert abs(period - pp) <= 1, seed
    u = trace.u.copy()
    u[pp + pp // 2] = 1e30
    _, period = split_cycles(RawTrace(u=u, i=trace.i))
    assert period == pp


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
    locs, missing = detect_set_locations(trace, split_cycles(trace)[0])
    assert len(locs) == 4
    assert missing == 0
    assert np.all(np.abs(u[locs] - (-0.8)) < 0.01)


def test_detect_flat_zero_trace_empty():
    trace = RawTrace(u=triangle_u(3), i=np.zeros(3 * 1042))
    locs, missing = detect_set_locations(trace, split_cycles(trace)[0])
    assert locs.size == 0
    assert missing == 3


def _first_crossing_loop(i, start, stop):
    """The abrupt-transition rule written out for one span, in float64."""
    def below(k):
        return float(i[k]) <= SET_CURRENT_THRESHOLD

    for k in range(start + 1, stop):
        if below(k) and not below(k - 1):
            return k
    return stop


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_first_crossings_match_a_per_span_loop(dtype):
    rng = np.random.default_rng(11)
    i = rng.uniform(-100e-6, 20e-6, 3000)
    i[rng.random(i.size) < 0.1] = SET_CURRENT_THRESHOLD   # at the level counts as below
    for lo in rng.integers(0, i.size, 60):                # NaN runs
        i[lo : lo + rng.integers(1, 12)] = np.nan
    stops = np.cumsum(rng.choice([1, 2, 3, 7, 40], size=400))
    stops = stops[stops < i.size]
    starts = np.append(0, stops[:-1])
    # a crossing at a span's first index belongs to no span
    edge = starts[1::3]
    i[edge - 1], i[edge] = 0.0, -80e-6
    i = i.astype(dtype)
    got = waveform._first_crossings(i, starts, stops)
    assert got.tolist() == [_first_crossing_loop(i, a, b) for a, b in zip(starts, stops)]
    assert (got[1::3] > edge).all()
    assert {1, 2} <= set((stops - starts).tolist())


def test_set_voltage_of_a_width_one_block_is_no_crossing():
    u_s, why = extract_set_voltage(np.array([[-1.0], [-0.5]]), np.array([[-80e-6], [np.nan]]))
    assert np.isnan(u_s).all()
    assert why.tolist() == ["no crossing of -5e-05 A"] * 2


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

def _one_row(u, *currents):
    """One cycle as a one-row padded block: (lengths, u, *currents), the
    voltage padded with +inf (which argmin passes over), currents with NaN."""
    pad = [np.concatenate([np.asarray(x, dtype=np.float64), [fill]])[None, :]
           for x, fill in zip((u, *currents), (np.inf,) + (np.nan,) * len(currents))]
    return (np.array([pad[0].shape[1] - 1]), *pad)


def _set_voltage(u, i):
    _, u2, i2 = _one_row(u, i)
    u_s, why = extract_set_voltage(u2, i2)
    return u_s[0], why[0]


def _reset_voltage(u, i, min_prominence=RESET_MIN_PROMINENCE, i_raw=None):
    n, u2, i2, *raw = _one_row(u, i) if i_raw is None else _one_row(u, i, i_raw)
    u_r, why = extract_reset_voltage(u2, i2, n, np.argmin(u2, axis=1), min_prominence, *raw)
    return u_r[0], why[0]


def _branch_fit(u, i, u_s, u_r):
    _, u2, i2 = _one_row(u, i)
    r_h, r_l, hrs, lrs, why = fit_state_polynomials(
        u2, i2, np.argmin(u2, axis=1), np.array([u_s]), np.array([u_r]))
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
    u = np.linspace(-1.5, 1.5, 301)
    i = _bump(u, 0.9, 0.05, 10e-6)
    raw = _bump(u, 0.93, 0.05, 10e-6)
    assert _reset_voltage(u, i, i_raw=raw) == (u[np.argmax(raw)], None)
    raw = _bump(u, 0.3, 0.05, 10e-6)
    assert _reset_voltage(u, i, i_raw=raw) == (u[np.argmax(i) - SMOOTH_REACH], None)


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


def test_extract_features_calls_the_kernels_by_their_public_names(ref_bundle, monkeypatch):
    # perfbench's layer map times the kernels by wrapping these module names
    names = ("extract_set_voltage", "extract_reset_voltage", "fit_state_polynomials")
    calls = []

    def counting(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(waveform, name, counting(getattr(waveform, name)))
    feats = synth.sample_features(ref_bundle, 600, seed=3)
    result = extract_features(synth.reconstruct_trace(feats, ref_bundle.conduction, seed=4))
    assert 2 * CYCLE_BLOCK < result.n_cycles <= 3 * CYCLE_BLOCK
    assert sorted(calls) == sorted(names * 3)


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
    """The batch kernel on zero-padded (u, i) windows against the per-window
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


def _kept_windows(trace, result):
    """Every kept cycle's high- and low-resistance fit windows, in cycle
    order, from `waveform._branch_masks` on block rows of the smoothed trace."""
    bounds, _ = split_cycles(trace)
    work = _smoothed(trace)
    _, u_s, _, u_r = result.features.T
    hrs, lrs, done = [], [], 0
    for starts, lengths, width in waveform._cycle_blocks(bounds[result.cycles]):
        u = waveform._rows(work.u, starts, lengths, width, np.inf)
        i = waveform._rows(work.i, starts, lengths, width, np.nan)
        rows = slice(done, done + starts.size)
        m_h, m_l = waveform._branch_masks(u, i, np.argmin(u, axis=1), u_s[rows], u_r[rows])
        hrs += [(u[r, m_h[r]], i[r, m_h[r]]) for r in range(starts.size)]
        lrs += [(u[r, m_l[r]], i[r, m_l[r]]) for r in range(starts.size)]
        done += starts.size
    return hrs, lrs


def test_branch_fits_match_lstsq_on_synthetic_trace(ref_bundle):
    n = 10_000
    feats = synth.sample_features(ref_bundle, n + 1, seed=77)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=78)
    keep = n * synth.SAMPLES_PER_CYCLE
    trace = RawTrace(u=trace.u[:keep], i=trace.i[:keep])
    result = extract_features(trace)
    hrs, lrs = _kept_windows(trace, result)
    assert len(hrs) == len(lrs) == result.cycles.size
    _, r_h = _assert_fits_match_lstsq(hrs, HRS_FIT_DEGREE)
    _, r_l = _assert_fits_match_lstsq(lrs, LRS_FIT_DEGREE)
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
    pp = synth.SAMPLES_PER_CYCLE
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
    return RawTrace(u=u.ravel(), i=i.ravel())


def test_exclusion_reasons_one_cycle_each(ref_bundle):
    trace = _exclusion_trace(ref_bundle)
    result = extract_features(trace)
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
    _assert_pool_is_the_per_cycle_pool(trace, result)


def _assert_pool_is_the_per_cycle_pool(trace, result):
    """Each branch's pooled (u, i) points equal those pooled from every kept
    cycle on its own, through `_one_row` and `waveform._branch_masks`."""
    bounds, _ = split_cycles(trace)
    work = _smoothed(trace)
    r_h, u_s, r_l, u_r = result.features.T
    pools = (r_h >= np.quantile(r_h, 1.0 - LIMIT_PERCENTILE / 100.0),
             r_l <= np.quantile(r_l, LIMIT_PERCENTILE / 100.0))
    picked = ([], [])
    for k, (lo, hi) in enumerate(bounds[result.cycles]):
        _, u, i = _one_row(work.u[lo:hi], work.i[lo:hi])
        masks = waveform._branch_masks(u, i, np.argmin(u, axis=1), u_s[k : k + 1],
                                       u_r[k : k + 1])
        for pool, mask, points in zip(pools, masks, picked):
            if pool[k]:
                points.append((u[mask], i[mask]))
    for got, points in zip((result.hrs_points, result.lrs_points), picked):
        u, i = (np.concatenate(x) for x in zip(*points))
        assert np.array_equal(got[0], u) and np.array_equal(got[1], i)


def test_pooled_points_equal_the_per_cycle_pooling_when_a_block_keeps_none(ref_bundle):
    """A last block whose only cycle is excluded leaves the pool aligned."""
    n = CYCLE_BLOCK + 1
    feats = synth.sample_features(ref_bundle, n + 1, seed=11)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, noise_sigma=0.0)
    pp = synth.SAMPLES_PER_CYCLE
    u, i = trace.u[: n * pp].copy(), trace.i[: n * pp].copy()
    last = slice((n - 1) * pp + pp // 2, n * pp)
    i[last] = 50e-6 * (u[last] + 1.5)               # strictly increasing: no reset peak
    trace = RawTrace(u=u, i=i)
    result = extract_features(trace)
    assert result.exclusions == [(n - 1, "monotone section, no peak")]
    assert len(result.cycles) == n - 1
    _assert_pool_is_the_per_cycle_pool(trace, result)
    fit_limiting_model(result.hrs_points, result.lrs_points)


# -- end to end -------------------------------------------------------------------

def test_extract_features_empty_trace():
    with pytest.raises(ExtractionError):
        extract_features(RawTrace(u=np.empty(0), i=np.empty(0)))


def test_extract_features_synthetic_end_to_end(ref_bundle):
    n = 10_000
    feats = synth.sample_features(ref_bundle, n + 1, seed=77)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=78)
    keep = n * synth.SAMPLES_PER_CYCLE
    trace = RawTrace(u=trace.u[:keep], i=trace.i[:keep])
    result = extract_features(trace)
    assert result.features.shape[0] >= 0.99 * n
    truth = feats[result.cycles]
    for k in range(4):
        w1 = wasserstein1(result.features[:, k], truth[:, k])
        assert w1 / truth[:, k].mean() < 0.02
    # pooled extremal refit brackets the per-cycle branches
    limits = fit_limiting_model(result.hrs_points, result.lrs_points)
    assert 0.2 / limits.i_hhrs(0.2) > np.quantile(result.features[:, 0], 0.98)
    assert 0.2 / limits.i_llrs(0.2) < np.quantile(result.features[:, 2], 0.02)


def test_read_trace_keeps_an_iuw_at_its_float32_width(tmp_path):
    # the file's pairs take 8 B per pair; float64 channels added 16 more
    n = 1 << 20
    write_trace_iuw(RawTrace(u=np.zeros(n), i=np.random.default_rng(6).normal(0.0, 1e-6, n)),
                    tmp_path / "t.iuw")
    tracemalloc.start()
    try:
        trace = read_trace(tmp_path / "t.iuw")
        u, i = trace.read(0, len(trace))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.dtype == i.dtype == np.float32
    assert peak < 12 * n


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_write_trace_iuw_holds_only_the_float32_pairs(tmp_path, dtype):
    # the pairs take 8 B per sample; stacking the channels before the cast
    # added a copy at their width: 16 B more for float64, 8 B for float32
    n = 1 << 20
    rng = np.random.default_rng(7)
    trace = RawTrace(u=rng.normal(0.0, 1.0, n).astype(dtype),
                     i=rng.normal(0.0, 1e-6, n).astype(dtype))
    tracemalloc.start()
    try:
        write_trace_iuw(trace, tmp_path / "t.iuw")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * n
    pairs = np.column_stack([trace.u, trace.i]).astype("<f4")
    assert (tmp_path / "t.iuw").read_bytes()[8:] == pairs.tobytes()


def test_trace_and_features_file_roundtrip(tmp_path, ref_bundle):
    feats = synth.sample_features(ref_bundle, 12, seed=3)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=4)
    path = tmp_path / "t.iuw"
    write_trace_iuw(trace, path)
    back = read_trace_iuw(path)
    u, i = back.read(0, len(back))
    assert np.allclose(u, trace.u, atol=1e-6)
    assert np.allclose(i, trace.i, atol=1e-9)

    fpath = tmp_path / "f.csv"
    write_features_csv(feats, fpath)
    cycles, back_f = read_features_csv(fpath)
    assert np.array_equal(cycles, np.arange(1, 13))
    assert np.array_equal(back_f, feats)  # full float precision survives
