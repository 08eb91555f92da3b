"""Cycling-waveform ingestion and per-cycle feature extraction.

A raw trace is a pair of sampled voltage/current channels covering many
switching cycles.  The pipeline splits it into cycles at the positive apex
of the periodic voltage, pre-detects the abrupt negative-polarity
transitions, smooths the current with an adaptive moving average that
narrows around those transitions, and reduces each cycle to the four-feature
vector (r_h, u_s, r_l, u_r): high-resistance value, switching threshold
magnitude, low-resistance value, and the voltage where the gradual
positive-polarity transition begins.
"""

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks, peak_prominences

from .conduction import eval_poly, fit_conduction_poly

FEATURE_NAMES = ("r_h", "u_s", "r_l", "u_r")
FEATURES_HEADER = "cycle,r_h,u_s,r_l,u_r"

SET_CURRENT_THRESHOLD = -50e-6   # level crossing that marks the abrupt transition [A]
RESET_MIN_PROMINENCE = 5e-6      # peak prominence floor for the gradual one [A]

SMOOTH_WINDOW_MAX = 25           # samples, far from any abrupt transition
SMOOTH_WINDOW_MIN = 3            # samples, at a detected transition
SMOOTH_RAMP_SPAN = 25            # samples over which the window recovers

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
        raise ExtractionError("empty trace file")
    return RawTrace(u=data[:, 0], i=data[:, 1], samples_per_cycle=samples_per_cycle)


def read_trace_iuw(path, samples_per_cycle: int = 1042) -> RawTrace:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != IUW_MAGIC:
            raise ExtractionError(f"bad magic {magic!r} in {path}")
        (count,) = struct.unpack("<I", fh.read(4))
        data = np.fromfile(fh, dtype="<f4", count=2 * count)
    if data.size != 2 * count:
        raise ExtractionError(f"truncated trace: wanted {count} pairs")
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
    a +-SMOOTH_RAMP_SPAN span.
    """
    h_max = (SMOOTH_WINDOW_MAX - 1) // 2
    h_min = (SMOOTH_WINDOW_MIN - 1) // 2
    locs = np.sort(np.asarray(set_locations, dtype=np.int64))
    if locs.size == 0:
        return np.full(n, h_max, dtype=np.int64)
    pos = np.arange(n)
    right = np.searchsorted(locs, pos)
    d_next = np.where(right < locs.size, locs[np.minimum(right, locs.size - 1)] - pos, n)
    d_prev = np.where(right > 0, pos - locs[np.maximum(right - 1, 0)], n)
    dist = np.minimum(np.abs(d_next), np.abs(d_prev))
    frac = np.minimum(dist, SMOOTH_RAMP_SPAN) / SMOOTH_RAMP_SPAN
    return np.rint(h_min + (h_max - h_min) * frac).astype(np.int64)


def smooth_adaptive(trace: RawTrace, set_locations) -> RawTrace:
    """Adaptive moving average on the current channel; voltage untouched."""
    n = len(trace)
    if any(not (0 <= k < n) for k in np.asarray(set_locations, dtype=np.int64)):
        raise ValueError("set locations out of range")
    h = smoothing_half_widths(n, set_locations)
    pos = np.arange(n)
    lo = np.maximum(pos - h, 0)
    hi = np.minimum(pos + h, n - 1)
    cs = np.concatenate([[0.0], np.cumsum(trace.i, dtype=np.float64)])
    sm = (cs[hi + 1] - cs[lo]) / (hi + 1 - lo)
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
    apex = np.array([
        k * period + int(np.argmax(trace.u[k * period : (k + 1) * period]))
        for k in range(n_windows)
    ])
    bounds = [(int(a), int(b)) for a, b in zip(apex[:-1], apex[1:])]
    dropped = 0
    if apex[0] > 0:
        dropped += 1
    tail = n - apex[-1]
    if tail >= period - 2:
        bounds.append((int(apex[-1]), n))
    elif tail > 0:
        dropped += 1
    return bounds, dropped


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
    missing = 0
    i = trace.i
    for start, stop in boundaries:
        seg = i[start:stop]
        below = seg <= threshold
        cross = below[1:] & ~below[:-1]
        idx = np.nonzero(cross)[0]
        if idx.size:
            locs.append(start + int(idx[0]) + 1)
        else:
            missing += 1
    return np.array(locs, dtype=np.int64), missing


# ---------------------------------------------------------------------------
# per-cycle extraction

def extract_set_voltage(u: np.ndarray, i: np.ndarray,
                        threshold: float = SET_CURRENT_THRESHOLD) -> float:
    """|U| at the first crossing of the threshold current, linearly
    interpolated between the bracketing samples."""
    below = i <= threshold
    cross = np.nonzero(below[1:] & ~below[:-1])[0]
    if cross.size == 0:
        raise ExtractionError(f"no crossing of {threshold:g} A")
    k = int(cross[0])
    i0, i1 = i[k], i[k + 1]
    u0, u1 = u[k], u[k + 1]
    frac = (threshold - i0) / (i1 - i0)
    return float(abs(u0 + frac * (u1 - u0)))


def extract_reset_voltage(u: np.ndarray, i: np.ndarray,
                          min_prominence: float = RESET_MIN_PROMINENCE,
                          i_raw: np.ndarray | None = None) -> float:
    """Voltage of the first sufficiently prominent current peak on the
    increasing, positive-voltage section of the cycle.

    Peaks are plain neighbor-comparison local maxima; prominence is computed
    within the section.  If no peak reaches ``min_prominence`` the most
    prominent one is taken; a monotone section (no peaks at all) is an error.

    When the unsmoothed current is supplied, the selected peak's position is
    refined to the raw argmax inside the smoothing support: the moving
    average locates the peak robustly but displaces an asymmetric peak
    toward its shallower flank.
    """
    rise_start = int(np.argmin(u))
    u_rise = u[rise_start:]
    i_rise = i[rise_start:]
    pos = u_rise > 0.0
    if not pos.any():
        raise ExtractionError("no positive-voltage section")
    first = int(np.argmax(pos))
    u_sec = u_rise[first:]
    i_sec = i_rise[first:]
    peaks, _ = find_peaks(i_sec)
    if peaks.size == 0:
        raise ExtractionError("monotone section, no peak")
    prom = peak_prominences(i_sec, peaks)[0]
    good = np.nonzero(prom >= min_prominence)[0]
    pick = int(peaks[good[0]] if good.size else peaks[int(np.argmax(prom))])
    if i_raw is not None:
        raw_sec = i_raw[rise_start:][first:]
        h = (SMOOTH_WINDOW_MAX - 1) // 2
        lo = max(pick - h, 0)
        hi = min(pick + h + 1, raw_sec.size)
        pick = lo + int(np.argmax(raw_sec[lo:hi]))
    return float(u_sec[pick])


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
    """Constrained polynomial fits of the two static branches of one cycle.

    The high-resistance branch is fit with degree 5 on the decreasing sweep,
    from HRS_FIT_MARGIN above the signed switching threshold up to
    HRS_FIT_U_MAX, restricted to HRS_FIT_I_RANGE; the low-resistance branch
    with degree 3 on the increasing sweep from LRS_FIT_U_MIN up to
    LRS_FIT_MARGIN below u_r, restricted to LRS_FIT_I_RANGE.  Resistance
    values are the static resistances of the fits at u0.
    """
    turn = int(np.argmin(u))
    u_dn, i_dn = u[: turn + 1], i[: turn + 1]
    u_up, i_up = u[turn:], i[turn:]

    m_h = (u_dn >= -u_s + HRS_FIT_MARGIN) & (u_dn <= HRS_FIT_U_MAX) \
        & (i_dn >= HRS_FIT_I_RANGE[0]) & (i_dn <= HRS_FIT_I_RANGE[1])
    if m_h.sum() < MIN_FIT_POINTS:
        raise ExtractionError(f"only {int(m_h.sum())} points in high-resistance window")
    m_l = (u_up >= LRS_FIT_U_MIN) & (u_up <= u_r - LRS_FIT_MARGIN) \
        & (i_up >= LRS_FIT_I_RANGE[0]) & (i_up <= LRS_FIT_I_RANGE[1])
    if m_l.sum() < MIN_FIT_POINTS:
        raise ExtractionError(f"only {int(m_l.sum())} points in low-resistance window")

    hrs = fit_conduction_poly(u_dn[m_h], i_dn[m_h], HRS_FIT_DEGREE)
    lrs = fit_conduction_poly(u_up[m_l], i_up[m_l], LRS_FIT_DEGREE)
    ih, il = eval_poly(hrs, u0), eval_poly(lrs, u0)
    if ih <= 0.0 or il <= 0.0:
        raise ExtractionError("fitted branch has non-positive current at u0")
    return StatePolyFit(
        r_h=u0 / ih, r_l=u0 / il, hrs_coeffs=hrs, lrs_coeffs=lrs,
        hrs_window=(u_dn[m_h].copy(), i_dn[m_h].copy()),
        lrs_window=(u_up[m_l].copy(), i_up[m_l].copy()),
    )


def extract_features(trace: RawTrace, smoothing: bool = True,
                     set_threshold: float = SET_CURRENT_THRESHOLD,
                     min_prominence: float = RESET_MIN_PROMINENCE,
                     u0: float = 0.2, collect_windows: bool = False) -> ExtractionResult:
    """Reduce a whole trace to the per-cycle feature series.

    Cycles failing any step are excluded (with a reason) rather than imputed;
    more than 50% exclusions is an error, as is a trace with no full cycle.
    """
    if len(trace) == 0:
        raise ExtractionError("empty trace")
    boundaries, _ = split_cycles(trace)
    if not boundaries:
        raise ExtractionError("no full cycle found")
    set_locs, set_missing = detect_set_locations(trace, set_threshold, boundaries)
    work = smooth_adaptive(trace, set_locs) if smoothing else trace

    rows = []
    kept = []
    exclusions = []
    hrs_windows = [] if collect_windows else None
    lrs_windows = [] if collect_windows else None
    for n, (start, stop) in enumerate(boundaries):
        u = work.u[start:stop]
        i = work.i[start:stop]
        i_raw = trace.i[start:stop] if smoothing else None
        try:
            u_s = extract_set_voltage(u, i, set_threshold)
            u_r = extract_reset_voltage(u, i, min_prominence, i_raw=i_raw)
            sfit = fit_state_polynomials(u, i, u_s, u_r, u0)
        except ExtractionError as exc:
            exclusions.append((n, str(exc)))
            continue
        rows.append((sfit.r_h, u_s, sfit.r_l, u_r))
        kept.append(n)
        if collect_windows:
            hrs_windows.append(sfit.hrs_window)
            lrs_windows.append(sfit.lrs_window)

    if len(exclusions) > 0.5 * len(boundaries):
        raise ExtractionError(
            f"{len(exclusions)} of {len(boundaries)} cycles failed extraction"
        )
    features = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return ExtractionResult(
        features=features, cycles=np.asarray(kept, dtype=int),
        exclusions=exclusions, n_cycles=len(boundaries), set_missing=set_missing,
        boundaries=boundaries, hrs_windows=hrs_windows, lrs_windows=lrs_windows,
    )
