"""Cycling-waveform ingestion and per-cycle feature extraction.

A raw trace is a pair of sampled voltage/current channels covering many
switching cycles.  The pipeline splits it into cycles at the positive apex
of the periodic voltage, pre-detects the abrupt negative-polarity
transitions, smooths the current with an adaptive moving average that
narrows around those transitions, and reduces each cycle to the four-feature
vector (r_h, u_s, r_l, u_r): high-resistance value, switching threshold
magnitude, low-resistance value, and the voltage where the gradual
positive-polarity transition begins.  Every step runs as array operations
over a block of cycles at once, one cycle per row of a padded view: the
kernels `extract_set_voltage`, `extract_reset_voltage` and
`fit_state_polynomials` each take such a block, and the cycles at the
LIMIT_PERCENTILE extremes give the limit fit its pooled branch points from
their rows alone.  Each cycle's current is smoothed from its own samples
and SMOOTH_REACH more on either side, so no other cycle enters it.

A trace is a reader of sample ranges: ``len(trace)`` and
``trace.read(lo, hi)``, the (u, i) samples lo..hi-1.  Every pass asks it for
its own block, so no stage holds the whole trace.  An in-memory `RawTrace`
(from `synth` or a CSV file) slices its channels; an `IuwTrace` reads only
the range's bytes from its .iuw file.  A trace keeps its samples' width (a
.iuw file's float32 stays float32, see `conduction.as_float`); each block
converts its own rows to float64, which is exact, so the kernels compute in
float64 whatever the input.  The voltage sweep gives the cycle period
(`split_cycles`).  The feature names (`conduction.FEATURE_NAMES`) and the
static-resistance voltage (`conduction.U0_DEFAULT`) are each defined once.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import csvtext
from .conduction import (FEATURE_NAMES, HRS_FIT_DEGREE, LIMIT_PERCENTILE, LRS_FIT_DEGREE,
                         U0_DEFAULT, as_float, eval_poly, fit_conduction_polys, quantile)

FEATURES_HEADER = ",".join(("cycle",) + FEATURE_NAMES)
CYCLE_SLACK = 2                  # samples a cycle's length may differ from the period

SET_CURRENT_THRESHOLD = -50e-6   # level crossing that marks the abrupt transition [A]
RESET_MIN_PROMINENCE = 5e-6      # peak prominence floor for the gradual one [A]

SMOOTH_WINDOW_MAX = 25           # samples, far from any abrupt transition
SMOOTH_WINDOW_MIN = 3            # samples, at a detected transition
SMOOTH_RAMP_SPAN = 25            # samples over which the window recovers
SMOOTH_REACH = (SMOOTH_WINDOW_MAX - 1) // 2   # samples a window reaches at most
SMOOTH_BLOCK = 1 << 16           # samples per finiteness-check read; the period search's prefix
CYCLE_BLOCK = 256                # cycles per batch of the extraction kernels
PEAK_WALK_BLOCK = 32             # samples per pass of the prominence base search

HRS_FIT_MARGIN = 0.1             # start the window this far above the (signed) threshold [V]
HRS_FIT_U_MAX = 1.5              # [V]
HRS_FIT_I_RANGE = (-25e-6, 80e-6)
LRS_FIT_U_MIN = -0.7             # [V]
LRS_FIT_MARGIN = 0.05            # stop the window this far below u_r [V]
LRS_FIT_I_RANGE = (-80e-6, 120e-6)
MIN_FIT_POINTS = 8

IUW_MAGIC = b"IUW0"


class ExtractionError(ValueError):
    """A cycle (or the whole trace) could not be reduced to features."""


@dataclass
class RawTrace:
    """Sampled (voltage, current) channels.  float32 channels stay float32;
    any other input becomes float64."""

    u: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        self.u, self.i = as_float(self.u), as_float(self.i)
        if self.u.shape != self.i.shape or self.u.ndim != 1:
            raise ValueError("u and i must be equal-length 1-D arrays")

    def __len__(self):
        return self.u.size

    def read(self, lo: int, hi: int):
        """The (u, i) samples lo..hi-1, as views of the channels."""
        return self.u[lo:hi], self.i[lo:hi]


@dataclass
class IuwTrace:
    """A .iuw trace file of ``n`` (u, i) float32 pairs, read range by range:
    `read` takes only the range's bytes from the file, so the trace is never
    held whole.  `read_trace_iuw` opens it, checks its header and size and
    records its ``identity`` (`_file_identity`), which every read checks."""

    path: str
    n: int
    identity: tuple

    def __len__(self):
        return self.n

    def read(self, lo: int, hi: int):
        """The (u, i) samples lo..hi-1 as float32 column views of their pairs.
        A file that has become shorter than its header says, or that was
        replaced or written since it was opened, fails the read."""
        pairs = np.empty((hi - lo, 2), dtype="<f4")
        with open(self.path, "rb", buffering=0) as fh:
            fh.seek(8 + 8 * lo)
            got = fh.readinto(pairs) // 8
            identity = _file_identity(fh)
        if got != hi - lo:
            raise ExtractionError(f"trace {self.path}: samples {lo}..{hi - 1} cut short at"
                                  f" {lo + got}: the file holds fewer than the header's"
                                  f" {self.n} pairs")
        if identity != self.identity:
            raise ExtractionError(f"trace {self.path}: replaced or written since it was"
                                  f" opened (read of samples {lo}..{hi - 1})")
        return pairs[:, 0], pairs[:, 1]


@dataclass
class ExtractionResult:
    """Features of the kept cycles, why the others were excluded, and the
    limit fit's pooled (u, i) points, in cycle order: the high-resistance
    ones of the kept cycles in the top LIMIT_PERCENTILE of r_h, and the
    low-resistance ones of those in the bottom LIMIT_PERCENTILE of r_l."""

    features: np.ndarray              # (n, 4) float64
    cycles: np.ndarray                # (n,) original cycle indices
    exclusions: list                  # (cycle index, reason)
    n_cycles: int
    period: int                       # samples per cycle, from `split_cycles`
    set_missing: int                  # cycles without a detectable abrupt transition
    hrs_points: tuple                 # (u, i) pooled from the high-resistance windows
    lrs_points: tuple                 # (u, i) pooled from the low-resistance windows
    pool_sizes: tuple                 # cycles in the high- and the low-resistance pool


# ---------------------------------------------------------------------------
# trace I/O

def read_trace(path):
    """Open a trace as a reader of sample ranges (see the module docstring):
    a .iuw (binary f32 pairs) as an `IuwTrace`, which reads each range from
    the file when asked, anything else as a CSV (header ``u,i``) loaded whole
    into a `RawTrace`.

    A NaN or infinite sample fails the open, checked SMOOTH_BLOCK samples at
    a time, so it fails loudly, naming the sample, not in the cycles around it.
    """
    path = str(path)
    if path.endswith(".iuw"):
        trace = read_trace_iuw(path)
    else:
        trace = read_trace_csv(path)
    for lo in range(0, len(trace), SMOOTH_BLOCK):
        u, i = trace.read(lo, min(lo + SMOOTH_BLOCK, len(trace)))
        bad = np.flatnonzero(~(np.isfinite(u) & np.isfinite(i)))
        if bad.size:
            k = int(bad[0])
            raise ExtractionError(f"{path}: sample {lo + k} is not finite"
                                  f" (u={u[k]:g}, i={i[k]:g})")
    return trace


def _read_csv(path, header: str, error=ValueError) -> np.ndarray:
    """The rows of a CSV file under ``header`` as a (rows, columns) float64
    array.  Another header, a row of another width or a value that does not
    parse raises ``error`` naming the file."""
    names = header.split(",")
    with open(path, "r", newline="") as fh:
        first = fh.readline().strip()
        if first.replace(" ", "") != header:
            raise error(f"expected header {header!r} in {path}, got {first!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise error(f"{path}: {exc}") from None
    if data.size and data.shape[1] != len(names):
        raise error(f"need {len(names)} columns ({', '.join(names)}) in {path},"
                    f" got {data.shape[1]}")
    return data


def read_trace_csv(path) -> RawTrace:
    data = _read_csv(path, "u,i", ExtractionError)
    if data.size == 0:
        raise ExtractionError(f"empty trace file {path}")
    return RawTrace(u=data[:, 0], i=data[:, 1])


def read_trace_iuw(path) -> IuwTrace:
    """The .iuw file as an `IuwTrace` with the file's identity, once its
    header and size agree."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] != IUW_MAGIC:
            raise ExtractionError(f"bad magic {head[:4]!r} in {path}")
        if len(head) < 8:
            raise ExtractionError(f"truncated header in {path}")
        (count,) = struct.unpack("<I", head[4:])
        identity = _file_identity(fh)
    size = identity[2] - 8
    if size != 8 * count:
        raise ExtractionError(f"trace {path}: header counts {count} pairs"
                              f" ({8 * count} bytes), the file holds {size} bytes")
    return IuwTrace(path=str(path), n=count, identity=identity)


def _file_identity(fh) -> tuple:
    """(device, inode, size, mtime in ns) of an open file: another file
    renamed over the path, or a write to it, changes it."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def write_trace_iuw(trace: RawTrace, path) -> None:
    pairs = np.empty((len(trace), 2), dtype="<f4")   # cast column by column: no float64 copy
    pairs[:, 0], pairs[:, 1] = trace.u, trace.i
    with open(path, "wb") as fh:
        fh.write(IUW_MAGIC)
        fh.write(struct.pack("<I", len(trace)))
        pairs.tofile(fh)


def write_features_csv(features: np.ndarray, path, cycles=None) -> None:
    """The header and one row per cycle: its number (default 1..n) and the
    four features as exact ``'%.17g'``, through `csvtext.write_rows`."""
    features = np.asarray(features, dtype=np.float64).reshape(-1, 4)
    cycles = np.arange(1, len(features) + 1) if cycles is None else np.asarray(cycles)
    if cycles.shape != (len(features),):
        raise ValueError(f"{cycles.size} cycle numbers for {len(features)} feature rows")
    with open(path, "wb") as fh:
        fh.write(FEATURES_HEADER.encode() + b"\n")
        csvtext.write_rows(fh, len(features), [cycles, *features.T], digits=17)


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (cycles, features (n, 4))."""
    data = _read_csv(path, FEATURES_HEADER)
    if data.size == 0:
        return np.empty(0, dtype=int), np.empty((0, 4))
    return data[:, 0].astype(int), data[:, 1:]


# ---------------------------------------------------------------------------
# smoothing and segmentation

def smoothing_half_widths(stop: int, set_locations, start: int = 0) -> np.ndarray:
    """Per-sample half-width of the adaptive moving-average window, for the
    samples start..stop-1.

    Far from any flagged location the window is SMOOTH_WINDOW_MAX samples
    wide; it ramps down linearly to SMOOTH_WINDOW_MIN at the locations over
    a +-SMOOTH_RAMP_SPAN span.  The ramp only grows with distance, so each
    sample takes the smallest ramp value any location writes onto it.  The
    half-widths are 1..SMOOTH_REACH, so they are int8: one byte per sample.
    """
    h_min = (SMOOTH_WINDOW_MIN - 1) // 2
    h = np.full(stop - start, SMOOTH_REACH, dtype=np.int8)
    locs = np.asarray(set_locations, dtype=np.int64)
    locs = locs[(locs >= start - SMOOTH_RAMP_SPAN) & (locs < stop + SMOOTH_RAMP_SPAN)]
    if locs.size:
        offsets = np.arange(-SMOOTH_RAMP_SPAN, SMOOTH_RAMP_SPAN + 1)
        frac = np.abs(offsets) / SMOOTH_RAMP_SPAN
        ramp = np.rint(h_min + (SMOOTH_REACH - h_min) * frac).astype(np.int8)
        pos = (locs[:, None] - start + offsets).ravel()
        inside = (pos >= 0) & (pos < h.size)
        np.minimum.at(h, pos[inside], np.tile(ramp, locs.size)[inside])
    return h


def smooth_adaptive(x, starts, set_locations, n: int) -> np.ndarray:
    """Adaptive moving average of an n-sample trace's current by rows: row k
    of x holds samples starts[k] - SMOOTH_REACH onward (zero outside the
    trace; the starts increase), row k of the result samples starts[k]
    onward.  Each window sum is a difference of its row's own float64
    cumulative sum, which overwrites x, so a row depends on its samples
    alone; a window reaching past the trace's ends is clipped to them."""
    locs = np.asarray(set_locations, dtype=np.int64)
    if locs.size and (locs.min() < 0 or locs.max() >= n):
        raise ValueError("set locations out of range")
    width = x.shape[1] - 2 * SMOOTH_REACH
    h = sliding_window_view(smoothing_half_widths(int(starts[-1]) + width, locs, int(starts[0])),
                            width)[starts - starts[0]]
    np.cumsum(x, axis=1, out=x)
    # the widest windows by slicing, the narrowed and the clipped ones by index
    sm = np.empty(h.shape)
    sm[:, 0] = x[:, 2 * SMOOTH_REACH]
    np.subtract(x[:, 2 * SMOOTH_REACH + 1 :], x[:, : width - 1], out=sm[:, 1:])
    sm /= 2 * SMOOTH_REACH + 1
    cols = np.arange(width)
    row, col = np.nonzero((h < SMOOTH_REACH) | (cols < SMOOTH_REACH - starts[:, None])
                          | (cols >= n - SMOOTH_REACH - starts[:, None]))
    pos, base = starts[row] + col, starts[row] - SMOOTH_REACH
    left = np.maximum(pos - h[row, col], 0) - base
    right = np.minimum(pos + h[row, col], n - 1) - base
    sm[row, col] = (x[row, right] - np.where(left > 0, x[row, left - 1], 0.0)) / (right + 1 - left)
    return sm


def _cycle_rows(trace, set_locations, starts, lengths, width: int):
    """Voltage, raw-current and smoothed-current rows of consecutive cycles as
    padded (cycles, width) blocks (+inf, NaN and NaN past each cycle), from
    one read of their samples and SMOOTH_REACH more on either side."""
    base, end = int(starts[0]) - SMOOTH_REACH, int(starts[-1]) + width + SMOOTH_REACH
    lo, hi = max(base, 0), min(end, len(trace))
    u, i = trace.read(lo, hi)
    x = sliding_window_view(np.concatenate([np.zeros(lo - base), i, np.zeros(end - hi)]),
                            width + 2 * SMOOTH_REACH)[starts - starts[0]]
    sm = smooth_adaptive(x, starts, set_locations, len(trace))
    sm[np.arange(width) >= lengths[:, None]] = np.nan
    return (_rows(u, starts - lo, lengths, width, np.inf),
            _rows(i, starts - lo, lengths, width, np.nan), sm)


def split_cycles(trace):
    """Cycle boundaries at the positive apex of u in each period window, and
    the period.  The sweep of u over the first SMOOTH_BLOCK samples gives it:
    levels at 1/4 and 3/4 of their 5-95 % range mark each low-to-high switch,
    k = round(span / d) periods span the first switch to the last, d their
    median spacing, and period = round(span / k).  Fewer than two switches
    raise `ExtractionError`.

    Returns (boundaries, period): boundaries is an (n, 2) int64 array of
    contiguous (start, stop) rows without the leading partial segment; a
    trailing one is kept if it spans at least the period minus CYCLE_SLACK
    samples.  The apexes are found CYCLE_BLOCK periods at a time, each
    block's voltage read and copied contiguous first.
    """
    n = len(trace)
    u, _ = trace.read(0, min(n, SMOOTH_BLOCK))
    p5, p95 = np.sort(u)[[u.size // 20, -1 - u.size // 20]]
    level = (u > p5 + 0.75 * (p95 - p5)).view(np.int8) - (u < p5 + 0.25 * (p95 - p5)).view(np.int8)
    at = np.flatnonzero(level)
    switches = at[1:][level[at[1:]] > level[at[:-1]]]
    if switches.size < 2:
        raise ExtractionError(f"no cycle period found: fewer than two upward voltage sweeps"
                              f" in samples 0..{u.size - 1}")
    span = int(switches[-1] - switches[0])
    period = round(span / round(span / np.median(np.diff(switches))))
    n_windows = n // period
    apex = period * np.arange(n_windows, dtype=np.int64)
    for lo in range(0, n_windows, CYCLE_BLOCK):
        u, _ = trace.read(lo * period, min(lo + CYCLE_BLOCK, n_windows) * period)
        apex[lo : lo + CYCLE_BLOCK] += np.argmax(
            np.ascontiguousarray(u).reshape(-1, period), axis=1)
    tail = n - int(apex[-1])
    stops = np.append(apex[1:], n) if tail >= period - CYCLE_SLACK else apex[1:]
    return np.column_stack([apex[: stops.size], stops]), period


# ---------------------------------------------------------------------------
# batch kernels: every cycle is one row of a padded (cycles, width) view

def _cycle_blocks(bounds):
    """(starts, lengths, width) per block of CYCLE_BLOCK rows of the (n, 2)
    ``bounds``.  The width leaves at least one padding column after every cycle."""
    lengths = bounds[:, 1] - bounds[:, 0]
    width = int(lengths.max(initial=0)) + 1
    for lo in range(0, bounds.shape[0], CYCLE_BLOCK):
        rows = slice(lo, lo + CYCLE_BLOCK)
        yield bounds[rows, 0], lengths[rows], width


def _rows(x, starts, lengths, width: int, fill) -> np.ndarray:
    """x[start : start + length] as the rows of a (len(starts), width) float64
    array, padded with ``fill``.  Rows are copied from a strided view of x;
    the few that would run past its end are gathered instead."""
    last = x.size - width
    if last >= 0:
        out = sliding_window_view(x, width)[np.minimum(starts, last)].astype(
            np.float64, copy=False)
    else:
        out = np.empty((starts.size, width))
    cols = np.arange(width)
    late = np.flatnonzero(starts > last)
    out[late] = x[np.minimum(starts[late, None] + cols, x.size - 1)]
    out[cols >= lengths[:, None]] = fill
    return out


def _first_crossings(i: np.ndarray, starts, stops) -> np.ndarray:
    """The abrupt-transition rule on spans of a 1-D current: per span
    starts[k]..stops[k]-1, the index of the first sample at or below
    SET_CURRENT_THRESHOLD after one above it (or NaN), compared in float64;
    the span's stop where there is none.  A sample at a span's first index
    never counts, and NaN never crosses.  Every span lies within i."""
    below = i <= np.float64(SET_CURRENT_THRESHOLD)
    # every crossing, then the current's end: no crossing
    cross = np.append(np.flatnonzero(below[1:] & ~below[:-1]) + 1, i.size)
    return np.minimum(cross[np.searchsorted(cross, starts + 1)], stops)


def extract_set_voltage(u, i):
    """Per row of a padded (cycles, width) block, |U| at the first
    SET_CURRENT_THRESHOLD crossing (`_first_crossings` on the block's rows as
    spans of one flat current), interpolated between the bracketing samples;
    NaN and a reason where there is no crossing."""
    width = u.shape[1]
    stops = width * np.arange(1, u.shape[0] + 1)
    k = _first_crossings(i.ravel(), stops - width, stops)
    missing = k == stops
    k1 = np.minimum(k, i.size - 1)   # a missing row's value is discarded
    u, i = u.ravel(), i.ravel()
    i0, i1, u0, u1 = i[k1 - 1], i[k1], u[k1 - 1], u[k1]
    with np.errstate(all="ignore"):
        frac = (SET_CURRENT_THRESHOLD - i0) / (i1 - i0)
        u_s = np.abs(u0 + frac * (u1 - u0))
    u_s[missing] = np.nan
    return u_s, _reasons(missing, f"no crossing of {SET_CURRENT_THRESHOLD:g} A")


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


def extract_reset_voltage(u, i, lengths, turn, min_prominence: float, i_raw=None):
    """Per row of a padded (cycles, width) block, the voltage of the first
    peak of prominence >= min_prominence (else the most prominent one) on the
    increasing, positive-voltage section after the voltage minimum ``turn``;
    NaN and a reason where the section or its peaks are missing.  Peaks are
    plain neighbour-comparison local maxima, and prominence is computed
    within the section.

    With the unsmoothed current ``i_raw`` (optional only so that tests can
    check the peak rule alone against scipy's), the chosen peak moves to the
    raw argmax inside the smoothing support: the moving average locates the
    peak robustly but displaces an asymmetric peak toward its shallower flank."""
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
        lo = np.maximum(pick - SMOOTH_REACH, first)
        hi = np.minimum(pick + SMOOTH_REACH + 1, lengths)
        near = lo[:, None] + np.arange(2 * SMOOTH_REACH + 1)
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


def _branch_masks(u, i, turn, u_s, u_r):
    """Per row of a padded (cycles, width) block, the points of the high- and
    of the low-resistance fit window (see `fit_state_polynomials`)."""
    cols = np.arange(u.shape[1])
    m_h = (cols <= turn[:, None]) & (u >= -u_s[:, None] + HRS_FIT_MARGIN) \
        & (u <= HRS_FIT_U_MAX) & (i >= HRS_FIT_I_RANGE[0]) & (i <= HRS_FIT_I_RANGE[1])
    m_l = (cols >= turn[:, None]) & (u >= LRS_FIT_U_MIN) \
        & (u <= u_r[:, None] - LRS_FIT_MARGIN) & (i >= LRS_FIT_I_RANGE[0]) \
        & (i <= LRS_FIT_I_RANGE[1])
    return m_h, m_l


def fit_state_polynomials(u, i, turn, u_s, u_r):
    """Constrained fits of both static branches of every row of a padded
    (cycles, width) block.

    The high-resistance branch is fit with degree HRS_FIT_DEGREE on the
    decreasing sweep up to the voltage minimum ``turn``, from HRS_FIT_MARGIN
    above the signed switching threshold -u_s up to HRS_FIT_U_MAX, restricted
    to HRS_FIT_I_RANGE; the low-resistance branch with degree LRS_FIT_DEGREE
    on the increasing sweep from ``turn``, from LRS_FIT_U_MIN up to
    LRS_FIT_MARGIN below u_r, restricted to LRS_FIT_I_RANGE.  r_h and r_l are
    the static resistances of the fits at U0_DEFAULT.  Returns r_h, r_l, the
    coefficients of each branch and per-row reasons."""
    m_h, m_l = _branch_masks(u, i, turn, u_s, u_r)
    n_h, n_l = m_h.sum(axis=1), m_l.sum(axis=1)
    fit = (n_h >= MIN_FIT_POINTS) & (n_l >= MIN_FIT_POINTS)
    hrs = np.full((u.shape[0], HRS_FIT_DEGREE + 1), np.nan)
    lrs = np.full((u.shape[0], LRS_FIT_DEGREE + 1), np.nan)
    hrs[fit] = fit_conduction_polys(*_masked_block(m_h[fit], u[fit], i[fit]), HRS_FIT_DEGREE)
    lrs[fit] = fit_conduction_polys(*_masked_block(m_l[fit], u[fit], i[fit]), LRS_FIT_DEGREE)
    ih, il = eval_poly(hrs.T, U0_DEFAULT), eval_poly(lrs.T, U0_DEFAULT)
    reason = _reasons(fit & ((ih <= 0.0) | (il <= 0.0)),
                      "fitted branch has non-positive current at u0")
    with np.errstate(divide="ignore", invalid="ignore"):
        r_h, r_l = U0_DEFAULT / ih, U0_DEFAULT / il
    for count, name in ((n_l, "low"), (n_h, "high")):
        for row in np.flatnonzero(count < MIN_FIT_POINTS):
            reason[row] = f"only {count[row]} points in {name}-resistance window"
    return r_h, r_l, hrs, lrs, reason


def detect_set_locations(trace, boundaries):
    """First downward crossing of SET_CURRENT_THRESHOLD on the raw current in
    each cycle of ``boundaries`` (`split_cycles`' rows), by the rule of
    `_first_crossings` that `extract_set_voltage` also applies: the cycles of
    a block are its spans, found over the block's samples at once.

    Returns (indices, n_missing); cycles without a crossing contribute no
    index and are counted.
    """
    locs = []
    for starts, lengths, _ in _cycle_blocks(boundaries):
        stops = starts + lengths
        _, i = trace.read(starts[0], stops[-1])
        first = starts[0] + _first_crossings(i, starts - starts[0], stops - starts[0])
        locs.append(first[first < stops])
    locs = np.concatenate(locs) if locs else np.empty(0, dtype=np.int64)
    return locs, len(boundaries) - locs.size


def _pooled_points(trace, bounds, features, set_locs):
    """The limit fit's pooled points (see `ExtractionResult`) and how many
    cycles each pool holds, from the rows of the pooled cycles alone, each
    read and smoothed again by `_cycle_rows`, in the blocks of `_cycle_blocks`.
    ``bounds`` and ``features`` are the kept cycles'."""
    r_h, u_s, r_l, u_r = features.T
    top = r_h >= quantile(r_h, 1.0 - LIMIT_PERCENTILE / 100.0)
    bottom = r_l <= quantile(r_l, LIMIT_PERCENTILE / 100.0)
    pool = np.flatnonzero(top | bottom)
    hrs, lrs = [], []
    for block, (starts, lengths, width) in enumerate(_cycle_blocks(bounds[pool])):
        rows = pool[block * CYCLE_BLOCK : block * CYCLE_BLOCK + starts.size]
        u, i = np.empty((2, starts.size, width))
        for k in range(starts.size):
            one = slice(k, k + 1)
            u[k], _, i[k] = _cycle_rows(trace, set_locs, starts[one], lengths[one], width)
        m_h, m_l = _branch_masks(u, i, np.argmin(u, axis=1), u_s[rows], u_r[rows])
        m_h &= top[rows, None]
        m_l &= bottom[rows, None]
        hrs.append((u[m_h], i[m_h]))
        lrs.append((u[m_l], i[m_l]))
    hrs, lrs = (tuple(map(np.concatenate, zip(*points))) for points in (hrs, lrs))
    return hrs, lrs, (int(top.sum()), int(bottom.sum()))


def extract_features(trace) -> ExtractionResult:
    """Reduce a whole trace to the per-cycle feature series and the pooled
    branch points of the limit fit (see `ExtractionResult`).

    The detection levels are constants: SET_CURRENT_THRESHOLD marks the
    abrupt transition and RESET_MIN_PROMINENCE is the gradual one's peak
    prominence floor.  Cycles run through the batch kernels CYCLE_BLOCK at a
    time, each block's rows from one `_cycle_rows` read, every cycle
    smoothed from its own samples.  Cycles failing any step are
    excluded (with the reason of the first failing step) rather than
    imputed.  The first step checks that a cycle ending at the next apex
    spans `split_cycles`' period within CYCLE_SLACK samples.  More than 50%
    exclusions is an error naming the most frequent reason, as is a trace
    with no period or no full cycle.
    """
    if len(trace) == 0:
        raise ExtractionError("empty trace")
    boundaries, period = split_cycles(trace)
    if not boundaries.size:
        raise ExtractionError("no full cycle found")
    set_locs, set_missing = detect_set_locations(trace, boundaries)

    features, reasons = np.empty((len(boundaries), 4)), np.empty(len(boundaries), dtype=object)
    for block, (starts, lengths, width) in enumerate(_cycle_blocks(boundaries)):
        rows = slice(block * CYCLE_BLOCK, block * CYCLE_BLOCK + starts.size)
        u, i_raw, i = _cycle_rows(trace, set_locs, starts, lengths, width)
        off = (np.abs(lengths - period) > CYCLE_SLACK) & (starts + lengths < len(trace))
        why_n = _reasons(off, f"cycle length not within {CYCLE_SLACK} samples of period {period}")
        turn = np.argmin(u, axis=1)
        u_s, why_s = extract_set_voltage(u, i)
        u_r, why_r = extract_reset_voltage(u, i, lengths, turn, RESET_MIN_PROMINENCE, i_raw)
        r_h, r_l, *_, why_f = fit_state_polynomials(u, i, turn, u_s, u_r)
        features[rows] = np.column_stack([r_h, u_s, r_l, u_r])
        reasons[rows] = _first_reason(why_n, why_s, why_r, why_f)

    kept = np.flatnonzero(np.equal(reasons, None))
    exclusions = [(int(n), reasons[n]) for n in np.flatnonzero(np.not_equal(reasons, None))]
    if len(exclusions) > 0.5 * len(boundaries):
        why, count = np.unique([r for _, r in exclusions], return_counts=True)
        raise ExtractionError(f"{len(exclusions)} of {len(boundaries)} cycles failed extraction;"
                              f" most often ({count.max()} cycles): {why[count.argmax()]}")
    features = features[kept]
    hrs_points, lrs_points, pool_sizes = _pooled_points(trace, boundaries[kept], features, set_locs)
    return ExtractionResult(
        features=features, cycles=kept, exclusions=exclusions, n_cycles=len(boundaries),
        period=period, set_missing=set_missing, hrs_points=hrs_points, lrs_points=lrs_points,
        pool_sizes=pool_sizes)
