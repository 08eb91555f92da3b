"""Cycling-waveform ingestion and per-cycle feature extraction.

A raw trace is a pair of sampled voltage/current channels covering many
switching cycles.  The pipeline splits it into cycles at the positive apex
of the periodic voltage, pre-detects the abrupt negative-polarity
transitions, smooths the current with an adaptive moving average that
narrows around those transitions, and reduces each cycle to the four-feature
vector (r_h, u_s, r_l, u_r): high-resistance value, switching threshold
magnitude, low-resistance value, and the voltage where the gradual
positive-polarity transition begins.  Every step runs as array operations
over a block of cycles at once, one cycle per row of a padded view; the
per-cycle functions are one-row calls of the same kernels.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conduction import eval_poly, fit_conduction_polys

FEATURE_NAMES = ("r_h", "u_s", "r_l", "u_r")
FEATURES_HEADER = "cycle,r_h,u_s,r_l,u_r"

SET_CURRENT_THRESHOLD = -50e-6   # level crossing that marks the abrupt transition [A]
RESET_MIN_PROMINENCE = 5e-6      # peak prominence floor for the gradual one [A]

SMOOTH_WINDOW_MAX = 25           # samples, far from any abrupt transition
SMOOTH_WINDOW_MIN = 3            # samples, at a detected transition
SMOOTH_RAMP_SPAN = 25            # samples over which the window recovers
SMOOTH_BLOCK = 1 << 16           # samples per moving-average block
CYCLE_BLOCK = 256                # cycles per batch of the extraction kernels
PEAK_WALK_BLOCK = 32             # samples per pass of the prominence base search

HRS_FIT_DEGREE = 5
HRS_FIT_MARGIN = 0.1             # start the window this far above the (signed) threshold [V]
HRS_FIT_U_MAX = 1.5              # [V]
HRS_FIT_I_RANGE = (-25e-6, 80e-6)
LRS_FIT_DEGREE = 3
LRS_FIT_U_MIN = -0.7             # [V]
LRS_FIT_MARGIN = 0.05            # stop the window this far below u_r [V]
LRS_FIT_I_RANGE = (-80e-6, 120e-6)
MIN_FIT_POINTS = 8

IUW_MAGIC = b"IUW0"


class ExtractionError(ValueError):
    """A cycle (or the whole trace) could not be reduced to features."""


@dataclass
class RawTrace:
    """Sampled (voltage, current) channels with the nominal cycle length."""

    u: np.ndarray
    i: np.ndarray
    samples_per_cycle: int = 1042

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.i = np.asarray(self.i, dtype=np.float64)
        if self.u.shape != self.i.shape or self.u.ndim != 1:
            raise ValueError("u and i must be equal-length 1-D arrays")

    def __len__(self):
        return self.u.size


@dataclass
class ExtractionResult:
    features: np.ndarray              # (n, 4) float64
    cycles: np.ndarray                # (n,) original cycle indices
    exclusions: list                  # (cycle index, reason)
    n_cycles: int
    set_missing: int                  # cycles without a detectable abrupt transition
    boundaries: list = field(default_factory=list)
    hrs_windows: list | None = None   # per kept cycle: (u, i) arrays fed to the fits
    lrs_windows: list | None = None


# ---------------------------------------------------------------------------
# trace I/O

def read_trace(path, samples_per_cycle: int = 1042) -> RawTrace:
    """Load a trace from .csv (header ``u,i``) or .iuw (binary f32 pairs)."""
    path = str(path)
    if path.endswith(".iuw"):
        return read_trace_iuw(path, samples_per_cycle)
    return read_trace_csv(path, samples_per_cycle)


def read_trace_csv(path, samples_per_cycle: int = 1042) -> RawTrace:
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "u,i":
            raise ExtractionError(f"expected header 'u,i', got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ExtractionError(f"empty trace file {path}")
    if data.shape[1] != 2:
        raise ExtractionError(f"need 2 columns (u, i) in {path}, got {data.shape[1]}")
    return RawTrace(u=data[:, 0], i=data[:, 1], samples_per_cycle=samples_per_cycle)


def read_trace_iuw(path, samples_per_cycle: int = 1042) -> RawTrace:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != IUW_MAGIC:
            raise ExtractionError(f"bad magic {head[:4]!r} in {path}")
        if len(head) < 8:
            raise ExtractionError(f"truncated header in {path}")
        (count,) = struct.unpack("<I", head[4:])
        data = np.fromfile(fh, dtype="<f4", count=2 * count)
    if data.size != 2 * count:
        raise ExtractionError(f"truncated trace {path}: wanted {count} pairs")
    pairs = data.reshape(-1, 2)
    return RawTrace(u=pairs[:, 0], i=pairs[:, 1], samples_per_cycle=samples_per_cycle)


def write_trace_iuw(trace: RawTrace, path) -> None:
    pairs = np.column_stack([trace.u, trace.i]).astype("<f4")
    with open(path, "wb") as fh:
        fh.write(IUW_MAGIC)
        fh.write(struct.pack("<I", len(trace)))
        pairs.tofile(fh)


def write_features_csv(features: np.ndarray, path, cycles=None) -> None:
    features = np.asarray(features, dtype=np.float64).reshape(-1, 4)
    if cycles is None:
        cycles = np.arange(1, features.shape[0] + 1)
    data = np.column_stack([cycles, features])
    np.savetxt(path, data, delimiter=",", header=FEATURES_HEADER, comments="",
               fmt=["%d"] + ["%.17g"] * 4)


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (cycles, features (n, 4))."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != FEATURES_HEADER:
            raise ValueError(f"expected header {FEATURES_HEADER!r}, got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return np.empty(0, dtype=int), np.empty((0, 4))
    return data[:, 0].astype(int), data[:, 1:5]


# ---------------------------------------------------------------------------
# smoothing and segmentation

def smoothing_half_widths(n: int, set_locations) -> np.ndarray:
    """Per-sample half-width of the adaptive moving-average window.

    Far from any flagged location the window is SMOOTH_WINDOW_MAX samples
    wide; it ramps down linearly to SMOOTH_WINDOW_MIN at the locations over
    a +-SMOOTH_RAMP_SPAN span.  The ramp only grows with distance, so each
    sample takes the smallest ramp value any location writes onto it.
    """
    h_max = (SMOOTH_WINDOW_MAX - 1) // 2
    h_min = (SMOOTH_WINDOW_MIN - 1) // 2
    h = np.full(n, h_max, dtype=np.int64)
    locs = np.asarray(set_locations, dtype=np.int64)
    if locs.size:
        offsets = np.arange(-SMOOTH_RAMP_SPAN, SMOOTH_RAMP_SPAN + 1)
        frac = np.abs(offsets) / SMOOTH_RAMP_SPAN
        ramp = np.rint(h_min + (h_max - h_min) * frac).astype(np.int64)
        pos = (locs[:, None] + offsets).ravel()
        inside = (pos >= 0) & (pos < n)
        np.minimum.at(h, pos[inside], np.tile(ramp, locs.size)[inside])
    return h


def smooth_adaptive(trace: RawTrace, set_locations) -> RawTrace:
    """Adaptive moving average on the current channel; voltage untouched.

    Every window sum is a difference of one global cumulative sum, taken in
    fixed blocks of samples so the temporaries stay small."""
    n = len(trace)
    locs = np.asarray(set_locations, dtype=np.int64)
    if locs.size and (locs.min() < 0 or locs.max() >= n):
        raise ValueError("set locations out of range")
    h = smoothing_half_widths(n, locs)
    cs = np.zeros(n + 1)
    np.cumsum(trace.i, out=cs[1:])
    sm = np.empty(n)
    for start in range(0, n, SMOOTH_BLOCK):
        block = slice(start, min(start + SMOOTH_BLOCK, n))
        pos = np.arange(block.start, block.stop)
        lo = np.maximum(pos - h[block], 0)
        hi = np.minimum(pos + h[block], n - 1)
        sm[block] = (cs[hi + 1] - cs[lo]) / (hi + 1 - lo)
    return RawTrace(u=trace.u, i=sm, samples_per_cycle=trace.samples_per_cycle)


def split_cycles(trace: RawTrace):
    """Cycle boundaries at the positive apex of the voltage in each nominal
    period window.

    Returns (boundaries, n_dropped): contiguous, non-overlapping (start,
    stop) pairs, plus how many leading/trailing partial segments were cut.
    A trailing segment is kept only if it spans at least a nominal period
    minus 2 samples.
    """
    n = len(trace)
    period = trace.samples_per_cycle
    n_windows = n // period
    if n_windows < 1:
        return [], (1 if n else 0)
    windows = trace.u[: n_windows * period].reshape(n_windows, period)
    apex = (np.argmax(windows, axis=1) + period * np.arange(n_windows)).tolist()
    bounds = list(zip(apex[:-1], apex[1:]))
    dropped = 0
    if apex[0] > 0:
        dropped += 1
    tail = n - apex[-1]
    if tail >= period - 2:
        bounds.append((apex[-1], n))
    elif tail > 0:
        dropped += 1
    return bounds, dropped


# ---------------------------------------------------------------------------
# batch kernels: every cycle is one row of a padded (cycles, width) view

def _cycle_blocks(boundaries):
    """(starts, lengths, width) per block of CYCLE_BLOCK cycles.  The width
    leaves at least one padding column after every cycle."""
    bounds = np.asarray(boundaries, dtype=np.int64).reshape(-1, 2)
    lengths = bounds[:, 1] - bounds[:, 0]
    width = int(lengths.max(initial=0)) + 1
    for lo in range(0, bounds.shape[0], CYCLE_BLOCK):
        rows = slice(lo, lo + CYCLE_BLOCK)
        yield bounds[rows, 0], lengths[rows], width


def _rows(x, starts, lengths, width: int, fill) -> np.ndarray:
    """x[start : start + length] as the rows of a (len(starts), width) array,
    padded with ``fill``.  Rows are copied from a strided view of x; the few
    that would run past its end are gathered instead."""
    last = x.size - width
    if last >= 0:
        out = sliding_window_view(x, width)[np.minimum(starts, last)]
    else:
        out = np.empty((starts.size, width))
    cols = np.arange(width)
    late = np.flatnonzero(starts > last)
    out[late] = x[np.minimum(starts[late, None] + cols, x.size - 1)]
    out[cols >= lengths[:, None]] = fill
    return out


def _one_row(u, *currents):
    """One cycle as a one-row padded view: (lengths, u, *currents), the
    voltage padded with +inf (which argmin passes over), currents with NaN."""
    pad = [np.concatenate([np.asarray(x, dtype=np.float64), [fill]])[None, :]
           for x, fill in zip((u, *currents), (np.inf,) + (np.nan,) * len(currents))]
    return (np.array([pad[0].shape[1] - 1]), *pad)


def _first_crossings(i: np.ndarray, threshold: float):
    """Per row, the first k with i[k] above (or NaN) and i[k + 1] at or below
    ``threshold``; -1 where there is none.  NaN padding never crosses."""
    below = i <= threshold
    cross = below[:, 1:] & ~below[:, :-1]
    if cross.shape[1] == 0:
        return np.full(i.shape[0], -1)
    return np.where(cross.any(axis=1), cross.argmax(axis=1), -1)


def _set_voltages(u, i, threshold: float):
    """|U| at each row's first threshold crossing, interpolated between the
    bracketing samples; NaN and a reason where there is no crossing."""
    k = _first_crossings(i, threshold)
    r = np.arange(u.shape[0])
    k0 = np.maximum(k, 0)
    k1 = np.minimum(k0 + 1, u.shape[1] - 1)
    i0, i1, u0, u1 = i[r, k0], i[r, k1], u[r, k0], u[r, k1]
    with np.errstate(all="ignore"):
        frac = (threshold - i0) / (i1 - i0)
        u_s = np.abs(u0 + frac * (u1 - u0))
    missing = k < 0
    u_s[missing] = np.nan
    return u_s, _reasons(missing, f"no crossing of {threshold:g} A")


def _reasons(failed, message: str) -> np.ndarray:
    """Per-row exclusion reasons: ``message`` where ``failed``, else None."""
    out = np.full(failed.size, None, dtype=object)
    out[failed] = message
    return out


def _first_reason(*steps) -> np.ndarray:
    """Per row, the reason of the first step that failed (None if none did)."""
    out = steps[-1].copy()
    for why in steps[-2::-1]:
        failed = np.not_equal(why, None)
        out[failed] = why[failed]
    return out


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of a 1-D x by scipy's `find_peaks` rule: a
    run of equal samples is a peak when both neighbours are lower, placed at
    the run's midpoint rounded down.  NaN is never equal, lower or a peak, so
    NaN separators keep segments apart; x must start and end with NaN."""
    new_run = np.empty(x.size, dtype=bool)
    new_run[0] = True
    np.not_equal(x[1:], x[:-1], out=new_run[1:])
    runs = np.flatnonzero(new_run)
    start, end = runs[1:-1], runs[2:] - 1
    top = x[start]
    peak = (x[start - 1] < top) & (x[end + 1] < top)
    return (start[peak] + end[peak]) // 2


def _base_minima(x: np.ndarray, peaks: np.ndarray, step: int) -> np.ndarray:
    """Per peak, the minimum over the samples reached walking from it in
    direction ``step`` while they stay at or below the peak (scipy's
    `peak_prominences` base search), PEAK_WALK_BLOCK samples per pass.  x must
    start and end with NaN, which stops every walk."""
    top = x[peaks]
    low = top.copy()
    at = peaks.copy()
    todo = np.arange(peaks.size)
    offsets = step * np.arange(1, PEAK_WALK_BLOCK + 1)
    while todo.size:
        v = x.take(at[todo, None] + offsets, mode="clip")
        walk = np.logical_and.accumulate(v <= top[todo, None], axis=1)
        low[todo] = np.minimum(low[todo], np.where(walk, v, np.inf).min(axis=1))
        at[todo] += step * PEAK_WALK_BLOCK
        todo = todo[walk[:, -1]]
    return low


def _reset_voltages(u, i, lengths, turn, min_prominence: float, i_raw=None):
    """Per row, the voltage of the first peak of prominence >= min_prominence
    (else the most prominent one) on the increasing, positive-voltage section
    after the voltage minimum ``turn``; NaN and a reason where the section or
    its peaks are missing.  Peaks are plain neighbour-comparison local
    maxima, and prominence is computed within the section.

    When the unsmoothed current ``i_raw`` is given, the chosen peak moves to
    the raw argmax inside the smoothing support: the moving average locates
    the peak robustly but displaces an asymmetric peak toward its shallower
    flank."""
    n_rows, width = u.shape
    cols = np.arange(width)
    inside = cols < lengths[:, None]
    rising = (cols >= turn[:, None]) & inside & (u > 0.0)
    has_section = rising.any(axis=1)
    first = rising.argmax(axis=1)
    # the sections' column span, each row NaN outside its own section
    c0 = int(first[has_section].min(initial=width - 1))
    sec = (cols >= first[:, None]) & inside & has_section[:, None]
    section = np.where(sec[:, c0:], i[:, c0:], np.nan)
    flat = np.concatenate([[np.nan], section.ravel()])
    peaks = _local_maxima(flat)
    prom = flat[peaks] - np.maximum(_base_minima(flat, peaks, -1), _base_minima(flat, peaks, 1))
    row, col = np.divmod(peaks - 1, width - c0)
    col += c0
    # per row: the first qualifying peak, else the first of the most prominent
    good = prom >= min_prominence
    order = np.lexsort((peaks, np.where(good, 0.0, -prom), ~good, row))
    row, col = row[order], col[order]
    lead = np.ones(row.size, dtype=bool)
    lead[1:] = row[1:] != row[:-1]
    has_peak = np.zeros(n_rows, dtype=bool)
    has_peak[row[lead]] = True
    pick = np.zeros(n_rows, dtype=np.int64)
    pick[row[lead]] = col[lead]
    if i_raw is not None:
        h = (SMOOTH_WINDOW_MAX - 1) // 2
        lo = np.maximum(pick - h, first)
        hi = np.minimum(pick + h + 1, lengths)
        near = lo[:, None] + np.arange(2 * h + 1)
        raw = np.where(near < hi[:, None],
                       np.take_along_axis(i_raw, np.minimum(near, width - 1), axis=1), -np.inf)
        pick = lo + raw.argmax(axis=1)
    u_r = u[np.arange(n_rows), pick]
    u_r[~has_peak] = np.nan
    reason = _reasons(~has_peak, "monotone section, no peak")
    reason[~has_section] = "no positive-voltage section"
    return u_r, reason


def _masked_block(mask, u, i):
    """(u, i) over the columns any row's mask spans, zero where the mask is
    off: a zero point adds nothing to a `fit_conduction_polys` row."""
    span = np.flatnonzero(mask.any(axis=0))
    cut = slice(span[0], span[-1] + 1) if span.size else slice(0, 1)
    return np.where(mask[:, cut], u[:, cut], 0.0), np.where(mask[:, cut], i[:, cut], 0.0)


def _branch_fits(u, i, turn, u_s, u_r, u0: float):
    """Constrained fits of both static branches of every row.

    The high-resistance branch is fit with degree HRS_FIT_DEGREE on the
    decreasing sweep up to the voltage minimum ``turn``, from HRS_FIT_MARGIN
    above the signed switching threshold -u_s up to HRS_FIT_U_MAX, restricted
    to HRS_FIT_I_RANGE; the low-resistance branch with degree LRS_FIT_DEGREE
    on the increasing sweep from ``turn``, from LRS_FIT_U_MIN up to
    LRS_FIT_MARGIN below u_r, restricted to LRS_FIT_I_RANGE.  r_h and r_l are
    the static resistances of the fits at u0.  Returns r_h, r_l, the point
    masks of each branch, the coefficients and per-row reasons."""
    cols = np.arange(u.shape[1])
    m_h = (cols <= turn[:, None]) & (u >= -u_s[:, None] + HRS_FIT_MARGIN) \
        & (u <= HRS_FIT_U_MAX) & (i >= HRS_FIT_I_RANGE[0]) & (i <= HRS_FIT_I_RANGE[1])
    m_l = (cols >= turn[:, None]) & (u >= LRS_FIT_U_MIN) \
        & (u <= u_r[:, None] - LRS_FIT_MARGIN) & (i >= LRS_FIT_I_RANGE[0]) \
        & (i <= LRS_FIT_I_RANGE[1])
    n_h, n_l = m_h.sum(axis=1), m_l.sum(axis=1)
    fit = (n_h >= MIN_FIT_POINTS) & (n_l >= MIN_FIT_POINTS)
    hrs = np.full((u.shape[0], HRS_FIT_DEGREE + 1), np.nan)
    lrs = np.full((u.shape[0], LRS_FIT_DEGREE + 1), np.nan)
    hrs[fit] = fit_conduction_polys(*_masked_block(m_h[fit], u[fit], i[fit]), HRS_FIT_DEGREE)
    lrs[fit] = fit_conduction_polys(*_masked_block(m_l[fit], u[fit], i[fit]), LRS_FIT_DEGREE)
    ih, il = eval_poly(hrs.T, u0), eval_poly(lrs.T, u0)
    reason = _reasons(fit & ((ih <= 0.0) | (il <= 0.0)),
                      "fitted branch has non-positive current at u0")
    with np.errstate(divide="ignore", invalid="ignore"):
        r_h, r_l = u0 / ih, u0 / il
    for count, name in ((n_l, "low"), (n_h, "high")):
        for row in np.flatnonzero(count < MIN_FIT_POINTS):
            reason[row] = f"only {count[row]} points in {name}-resistance window"
    return r_h, r_l, m_h, m_l, hrs, lrs, reason


def detect_set_locations(trace: RawTrace, threshold: float = SET_CURRENT_THRESHOLD,
                         boundaries=None):
    """First downward crossing of ``threshold`` per cycle on the raw current.

    Returns (indices, n_missing); cycles without a crossing contribute no
    index and are counted.
    """
    if threshold >= 0:
        raise ValueError("threshold must be negative (abrupt transitions are negative polarity)")
    if boundaries is None:
        boundaries, _ = split_cycles(trace)
    locs = []
    for starts, lengths, width in _cycle_blocks(boundaries):
        k = _first_crossings(_rows(trace.i, starts, lengths, width, np.nan), threshold)
        locs.append((starts + k + 1)[k >= 0])
    locs = np.concatenate(locs) if locs else np.empty(0, dtype=np.int64)
    return locs, len(boundaries) - locs.size


# ---------------------------------------------------------------------------
# per-cycle extraction: one-row calls of the batch kernels, kept because
# perfbench's layer map times these names

def _raise_reason(reason) -> None:
    if reason[0] is not None:
        raise ExtractionError(reason[0])


def extract_set_voltage(u: np.ndarray, i: np.ndarray,
                        threshold: float = SET_CURRENT_THRESHOLD) -> float:
    """`_set_voltages` on one cycle; ExtractionError where it fails."""
    _, u2, i2 = _one_row(u, i)
    u_s, reason = _set_voltages(u2, i2, threshold)
    _raise_reason(reason)
    return float(u_s[0])


def extract_reset_voltage(u: np.ndarray, i: np.ndarray,
                          min_prominence: float = RESET_MIN_PROMINENCE,
                          i_raw: np.ndarray | None = None) -> float:
    """`_reset_voltages` on one cycle; ExtractionError where it fails."""
    arrays = (u, i) if i_raw is None else (u, i, i_raw)
    n, u2, i2, *raw2 = _one_row(*arrays)
    u_r, reason = _reset_voltages(u2, i2, n, np.argmin(u2, axis=1), min_prominence,
                                  raw2[0] if raw2 else None)
    _raise_reason(reason)
    return float(u_r[0])


@dataclass
class StatePolyFit:
    r_h: float
    r_l: float
    hrs_coeffs: np.ndarray
    lrs_coeffs: np.ndarray
    hrs_window: tuple   # (u, i) points used for the high-resistance fit
    lrs_window: tuple


def fit_state_polynomials(u: np.ndarray, i: np.ndarray, u_s: float, u_r: float,
                          u0: float = 0.2) -> StatePolyFit:
    """`_branch_fits` on one cycle; ExtractionError where it fails."""
    _, u2, i2 = _one_row(u, i)
    r_h, r_l, m_h, m_l, hrs, lrs, reason = _branch_fits(
        u2, i2, np.argmin(u2, axis=1), np.array([u_s], float), np.array([u_r], float), u0)
    _raise_reason(reason)
    return StatePolyFit(
        r_h=float(r_h[0]), r_l=float(r_l[0]), hrs_coeffs=hrs[0], lrs_coeffs=lrs[0],
        hrs_window=(u2[0, m_h[0]], i2[0, m_h[0]]), lrs_window=(u2[0, m_l[0]], i2[0, m_l[0]]),
    )


def _windows(mask, u, i) -> list:
    """Per row, the (u, i) points under its mask."""
    if mask.shape[0] == 0:
        return []      # np.split would still return one empty piece
    cut = np.cumsum(mask.sum(axis=1))[:-1]
    return list(zip(np.split(u[mask], cut), np.split(i[mask], cut)))


def extract_features(trace: RawTrace, smoothing: bool = True,
                     set_threshold: float = SET_CURRENT_THRESHOLD,
                     min_prominence: float = RESET_MIN_PROMINENCE,
                     u0: float = 0.2, collect_windows: bool = False) -> ExtractionResult:
    """Reduce a whole trace to the per-cycle feature series.

    Cycles run through the batch kernels CYCLE_BLOCK at a time.  Cycles
    failing any step are excluded (with the reason of the first failing
    step) rather than imputed; more than 50% exclusions is an error, as is a
    trace with no full cycle.
    """
    if len(trace) == 0:
        raise ExtractionError("empty trace")
    boundaries, _ = split_cycles(trace)
    if not boundaries:
        raise ExtractionError("no full cycle found")
    set_locs, set_missing = detect_set_locations(trace, set_threshold, boundaries)
    work = smooth_adaptive(trace, set_locs) if smoothing else trace

    features, reasons = [], []
    hrs_windows = [] if collect_windows else None
    lrs_windows = [] if collect_windows else None
    for starts, lengths, width in _cycle_blocks(boundaries):
        u = _rows(work.u, starts, lengths, width, np.inf)
        i = _rows(work.i, starts, lengths, width, np.nan)
        i_raw = _rows(trace.i, starts, lengths, width, np.nan) if smoothing else None
        turn = np.argmin(u, axis=1)
        u_s, why_s = _set_voltages(u, i, set_threshold)
        u_r, why_r = _reset_voltages(u, i, lengths, turn, min_prominence, i_raw)
        r_h, r_l, m_h, m_l, _, _, why_f = _branch_fits(u, i, turn, u_s, u_r, u0)
        reason = _first_reason(why_s, why_r, why_f)
        features.append(np.column_stack([r_h, u_s, r_l, u_r]))
        reasons.append(reason)
        if collect_windows:
            kept = np.flatnonzero(np.equal(reason, None))
            hrs_windows += _windows(m_h[kept], u[kept], i[kept])
            lrs_windows += _windows(m_l[kept], u[kept], i[kept])

    reasons = np.concatenate(reasons)
    kept = np.flatnonzero(np.equal(reasons, None))
    exclusions = [(int(n), reasons[n]) for n in np.flatnonzero(np.not_equal(reasons, None))]
    if len(exclusions) > 0.5 * len(boundaries):
        raise ExtractionError(
            f"{len(exclusions)} of {len(boundaries)} cycles failed extraction"
        )
    return ExtractionResult(
        features=np.concatenate(features)[kept], cycles=kept,
        exclusions=exclusions, n_cycles=len(boundaries), set_missing=set_missing,
        boundaries=boundaries, hrs_windows=hrs_windows, lrs_windows=lrs_windows,
    )
