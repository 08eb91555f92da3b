"""Vectorized runtime engine for large arrays of simulated cells.

Cell state lives in per-cell numpy arrays of 32-bit floats; numpy is the one
dependency.  The model equations are the dtype-generic kernels shared with
the float64 path (`transform.inverse_map`, `conduction.state_from_resistance`
and `transition_state`, `noise_sigma`, `quantize`), which compute in float32
on that state; only the autoregression's matrices are cast to float32, once,
at construction.  Every cell carries its own counter-based random stream, so
any partitioning of the cells over worker threads produces bit-identical
results; the lag contractions use `einsum` rather than BLAS so the
floating-point summation order is fixed.

Each cell starts from one exact draw of its p lags from the stationary
distribution of the autoregression (the model's cached
`svar.stationary_factor`), followed by the one `svar.step` that realizes its
first cycle's features; no warm-up steps are run.

Pulse semantics, per addressed cell and its float32 amplitude `u_a` (one per
cell, however the pulse was passed, so its bits do not depend on the form):

* ``u_a > u_reset_track`` enters the gradual positive-polarity branch.  A
  cell sitting in its high-resistance phase ignores it.  A cell leaving the
  low-resistance phase first realizes the next cycle's features (one
  autoregression step, lazily).  Amplitudes at or above ``u_max`` complete
  the transition (phase HRS, cycle counter advances, threshold reloads);
  smaller ones land on the parabolic transition curve as an intermediate
  state and raise the tracked threshold to ``u_a``.
* ``u_a <= -u_s`` (stored thresholds are positive magnitudes) switches any
  non-LRS cell abruptly to the low-resistance phase.  A cell interrupted
  mid-transition (intermediate phase) has already realized the following
  cycle's features, so that switch consumes them and advances the counter.
* anything else is a no-op.

Every mask is taken from the state before the pulse.  The cycle counter
always names the cycle whose features are loaded: one promotion step, shared
by completed transitions and by abrupt switches that cut a partial one short,
loads the pending features and advances it; generating them does not.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import streams
from .conduction import MIN_CURVE_SPAN, U0_DEFAULT, as_float, eval_poly, positive_definite_factor
from .conduction import state_from_resistance, transition_state
from .svar import mix_lower_triangular, step
from .transform import inverse_map

PHASE_HRS, PHASE_LRS, PHASE_IRS = 0, 1, 2
PHASE_NAMES = {PHASE_HRS: "hrs", PHASE_LRS: "lrs", PHASE_IRS: "irs"}

MAX_THREADS = 256          # worker threads an array may run on
# The smallest part of an operation that repays a worker thread (see
# `CellArray._partitions`).  A part runs dozens of small numpy calls that
# hand the GIL back and forth, so on a 2-core host a second thread slowed
# reads until a part held 32768-65536 cells, and pulses until a part carried
# about 2 ms of work.  A pulse costs a cell its 4p-entry lag contraction plus
# a fixed share (branch masks, normals, realization) worth about 256 lag
# entries: 124, 165 and 381 ns per cell at p = 1, 10 and 100.  So a write
# part counts (4p + WRITE_CELL_LAGS) lag entries per cell: 16131 cells at
# p = 1, 14169 at p = 10 and 6393 at p = 100.
READ_PART_CELLS = 1 << 16  # cells per read part, whole or addressed
WRITE_PART_LAGS = 1 << 22  # lag entries per pulse or init part
WRITE_CELL_LAGS = 256      # a write's per-cell work besides its contraction, in lag entries
MAX_SEED = (1 << 64) - 1   # seeds are the 64-bit stream-key words 0..MAX_SEED
INIT_BLOCK_DRAWS = 1 << 19  # lag entries per init block (2 MB)
SPARE_LAG_SLOTS = 16       # history slots beyond the p-slot lag window, at most p + 2

ELECTRON_CHARGE = 1.602176634e-19  # C, exact in the SI since 2019
BOLTZMANN = 1.380649e-23           # J/K, exact in the SI since 2019
FLOAT32_MAX = float(np.finfo(np.float32).max)
_DRAWS_DTD = 4
_DRAWS_STEP = 4
_DRAWS_READ = 2


@dataclass(frozen=True)
class ReadoutConfig:
    """Read voltage, noise bandwidth and ADC window."""

    u_read: float = U0_DEFAULT     # read where the static resistance is defined
    delta_f: float = 1e6
    temperature: float = 300.0
    n_bits: int = 4
    i_min: float = 0.0
    i_max: float = 40e-6
    noise_enabled: bool = True

    def __post_init__(self):
        if not (np.all(np.isfinite([self.u_read, self.delta_f, self.temperature, self.i_min,
                                    self.i_max])) and self.temperature >= 0):
            raise ValueError(f"readout settings must be finite, temperature >= 0: {self}")
        if self.i_max <= self.i_min:
            raise ValueError("need i_max > i_min")
        if not 1 <= self.n_bits <= 16:
            raise ValueError("n_bits must be in 1..16")
        if not max(-self.i_min, self.i_max, self.levels / (self.i_max - self.i_min)) <= FLOAT32_MAX:
            raise ValueError(f"i_min, i_max: `quantize`'s float32 window overflows: {self}")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.u_read == 0.0:
            raise ValueError("u_read must be nonzero")

    @property
    def levels(self) -> int:
        return (1 << self.n_bits) - 1


def noise_sigma(i_read, cfg: ReadoutConfig):
    """Thermal plus shot noise amplitude for a noiseless readout current.

    sigma = sqrt(4 k T |I| df / |U| + 2 q |I| df); magnitudes keep the
    expression defined for negative read voltages.  Dtype-generic (see
    `conduction.as_float`).
    """
    i_abs = np.abs(as_float(i_read))
    return np.sqrt(
        (4.0 * BOLTZMANN * cfg.temperature * cfg.delta_f / abs(cfg.u_read)
         + 2.0 * ELECTRON_CHARGE * cfg.delta_f) * i_abs
    )


def float32_problems(conduction, sigma, u_max: float, a: float, readout: ReadoutConfig):
    """(section, message) for each float32 gate that engine settings fail.

    The device-variability covariance a * sigma must fit; each limiting
    polynomial's absolute coefficients at the largest voltage applied, which
    bound every current and Horner partial sum, and the read noise must be
    finite.  `ParameterBundle.validate` runs this on a file's defaults and
    `CellArray` on the settings it actually runs with.
    """
    problems = []
    if not a * np.max(np.diag(np.asarray(sigma))) <= FLOAT32_MAX:
        problems.append(("defaults", "field dtd_scale: dtd_scale (a) * sigma overflows float32"))
    with np.errstate(all="ignore"):
        u_top = np.float32(max(1.0, u_max, abs(readout.u_read)))
        bounds = [eval_poly(np.abs(c), u_top) for c in (conduction.hhrs, conduction.llrs)]
        i_read = np.float32([conduction.i_hhrs(readout.u_read), conduction.i_llrs(readout.u_read)])
        noise = noise_sigma(i_read, readout)
    if not np.all(np.isfinite(bounds)):
        problems.append(("conduction", f"fields hhrs, llrs: float32 currents overflow below"
                                       f" {u_top:g} V = max(1, u_max, |u_read|)"))
    if not np.all(np.isfinite(noise)):
        problems.append(("defaults",
                         "fields u_read, delta_f, temperature: float32 read noise is not finite"))
    return problems


def quantize(i, cfg: ReadoutConfig):
    """ADC code for a current: round-to-nearest of (i - i_min) * (1 / lsb),
    clamped to the window.  Dtype-generic (see `conduction.as_float`)."""
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    x = as_float(i) - cfg.i_min
    x *= 1.0 / lsb
    out = x if isinstance(x, np.ndarray) else None   # a scalar has no buffer to reuse
    x = np.rint(x, out=out)
    x = np.maximum(x, 0, out=out)
    return np.minimum(x, cfg.levels, out=out).astype(np.int32)


def dequantize(codes, cfg: ReadoutConfig):
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    x = np.asarray(codes, dtype=np.float64) * lsb
    x += cfg.i_min
    return x


def stationary_factor32(model) -> np.ndarray:
    """float32 copy of the model's cached `svar.stationary_factor`, pinned
    C-contiguous (the layout fixes the initial-lag contraction's summation
    order).  Entries below 2^-64 of the largest, far below the float32
    resolution of any lag, are set to zero: their products with the draws
    can be subnormal, which slows the contraction."""
    factor = np.ascontiguousarray(model.stationary_factor, dtype=np.float32)
    factor[np.abs(factor) < 2.0**-64 * np.abs(factor).max()] = 0.0
    return factor


@dataclass
class PulseReport:
    n_addressed: int = 0
    n_set: int = 0
    n_full_reset: int = 0
    n_partial_reset: int = 0

    @property
    def n_noop(self) -> int:
        return self.n_addressed - self.n_set - self.n_full_reset - self.n_partial_reset


class CellArray:
    """M independent stochastic cells sharing one parameter set.

    Construct via :func:`init_array` (or directly from a parameter bundle).
    Per-cell state: a lag history of p + B slots (B = min(16, p + 2)) with
    a window offset, state variable r, phase, cycle index, tracked
    transition threshold, current and pending feature vectors, device scale
    vector, stream key and draw counter.  The cell's lags are the p slots
    from its offset on, newest first (`lags()`); an advance writes the new
    slot in front of them, so no slot moves until the window reaches slot 0.
    The readout is fixed at construction: its settings pass the float32
    gates once, the two limiting currents at `u_read` are kept, and
    `readout` is read-only, so they cannot go stale.

    `threads` (1..MAX_THREADS, checked at every operation) is an upper bound.
    An operation over n cells runs in min(threads, n // part) equal parts on
    a thread pool, and inline, without a pool, when that is 1.  `part` is
    READ_PART_CELLS = 2^16 cells for a read, whole or addressed, and
    floor(2^22 / (4p + 256)) cells for a pulse or the init (`_write_part`):
    14169 at p = 10, 6393 at p = 100.  Smaller parts ran slower on two
    threads than on one (see the README's notes on performance).  No draw
    or contraction depends on the parts, so neither do the bits.
    """

    def __init__(self, bundle, m: int, a: float | None = None, seed: int = 0,
                 p: int | None = None, threads: int = 1,
                 readout: ReadoutConfig | None = None):
        if m < 1:
            raise ValueError(f"need at least one cell, got m={m}")
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must be in 0..{MAX_SEED}, got {seed}")
        defaults = bundle.defaults
        a = defaults.dtd_scale if a is None else float(a)
        if not (a >= 0 and np.isfinite(a)):
            raise ValueError(f"device-variability scale a must be finite and >= 0, got {a}")
        self.model = bundle.model(p)

        self.m = int(m)
        self.p = self.model.p
        self.a = a
        self.seed = int(seed)
        self.threads = int(threads)
        self.u_max = float(defaults.u_max)
        self._readout = readout = readout or defaults.readout
        self.conduction = cm = bundle.conduction
        self.gamma = bundle.gamma
        for where, what in float32_problems(cm, bundle.sigma, self.u_max, a, readout):
            raise ValueError(f"{where}: {what}")
        # float32 (i_hhrs, i_llrs) at the read voltage, for every read
        self._i_read = tuple(np.float32(i(readout.u_read)) for i in (cm.i_hhrs, cm.i_llrs))

        # float32 working copies of the model; the lag weights are pinned
        # Fortran-ordered, which fixes the einsum's summation order and speed
        self._w32 = np.asfortranarray(self.model.lag_weights(), dtype=np.float32)  # (4p, 4)
        self._cholu32 = self.model.chol_u.astype(np.float32)

        # per-cell state; each window starts at the end of its history.  B
        # spare slots copy a window back once per B advances; B <= p + 2
        # keeps a cell's 16(p + B) + 78 bytes within 2(16p + 56).  A slot is
        # one 16-byte record of 4 float32, so a new slot is one element write
        self._spare = min(SPARE_LAG_SLOTS, self.p + 2)
        self._slots = np.zeros((m, self.p + self._spare), dtype="V16")
        self._offset = np.full(m, self._spare, dtype=np.uint8)
        self.r = np.zeros(m, dtype=np.float32)
        self.phase = np.zeros(m, dtype=np.int8)
        self.cycle = np.zeros(m, dtype=np.int32)
        self.u_reset = np.zeros(m, dtype=np.float32)
        self.features = np.zeros((m, 4), dtype=np.float32)
        self.next_features = np.full((m, 4), np.nan, dtype=np.float32)
        self.scale = np.ones((m, 4), dtype=np.float32)
        self._keys = streams.stream_keys(seed, np.arange(m))
        self._counters = np.zeros(m, dtype=np.uint64)
        self._pool = None
        self._pool_workers = 0

        self._init_cells(bundle)

    # -- construction ------------------------------------------------------

    def _init_cells(self, bundle) -> None:
        if self.a > 0.0:
            chol = positive_definite_factor(self.a * np.asarray(bundle.sigma, float), "a * sigma")
            shat = mix_lower_triangular(self._normals(slice(None), _DRAWS_DTD), chol)
            med = inverse_map(self.gamma, np.zeros(4, dtype=np.float32))
            self.scale[:] = inverse_map(self.gamma, shat) / med
        factor = stationary_factor32(self.model)
        self._run_partitioned(lambda lo, hi: self._draw_stationary_lags(lo, hi, factor), self.m,
                              self._write_part())
        self._advance(slice(0, self.m), out=self.features)
        self.phase[:] = PHASE_HRS
        self.cycle[:] = 1
        self.r[:] = state_from_resistance(self.features[:, 0], self.conduction)
        self.u_reset[:] = self.features[:, 3]

    def _draw_stationary_lags(self, lo: int, hi: int, factor) -> None:
        """Lags of cells [lo, hi) as one draw from their stationary distribution.

        Per cell, 4p normals drawn slot by slot (oldest slot first) into the
        initial lag window, then multiplied in place by the lower-triangular
        `factor`: slot i takes the first 4(i + 1) normals, so the slots are
        written newest last and no slot reads one already written.  The
        blocks keep a block's lags in cache across the p contractions; the
        einsum's order per row does not depend on how many rows go in, so
        they leave no trace in the bits.
        """
        block = max(1, INIT_BLOCK_DRAWS // (4 * self.p))
        for b_lo in range(lo, hi, block):
            cells = slice(b_lo, min(b_lo + block, hi))
            lags = self._slots[cells, self._spare :].view(np.float32)
            for j in range(self.p):
                slot = self.p - 1 - j
                lags[:, 4 * slot : 4 * slot + 4] = self._normals(cells, _DRAWS_STEP).T
            x = np.empty((lags.shape[0], 4), dtype=np.float32)
            for i in reversed(range(self.p)):
                w = 4 * (i + 1)
                np.einsum("mk,jk->mj", lags[:, :w], factor[w - 4 : w, :w], out=x, optimize=False)
                lags[:, w - 4 : w] = x

    # -- internals ---------------------------------------------------------

    def _normals(self, idx, n: int, sines: bool = True) -> np.ndarray:
        """(n, cells) standard normals from the streams of the cells that a
        slice or an index array `idx` selects, advancing their counters;
        the first n/2 rows only without `sines` (see `streams.normals`)."""
        ctrs = self._counters[idx]          # view for slices, copy otherwise
        z = streams.normals(self._keys[idx], ctrs, n, sines)
        if not isinstance(idx, slice):
            self._counters[idx] = ctrs
        return z

    def _advance(self, idx, out) -> None:
        """One autoregression step for the selected cells.

        Each cell steps from its lag window where it lies, writes the new
        slot in front of it and moves its offset one slot down; a cell at
        offset 0 first copies its window back to slot B.  Cells that share
        one offset read their windows as one strided view (no copy for a
        slice of cells); otherwise one indexed read gathers each cell's
        window alone.  Only the new slot is written back.  Realizes the
        scaled feature vector of the new cycle into out[idx].
        """
        def rows():     # a slice's own range, or the index array as given
            return np.arange(*idx.indices(self.m)) if isinstance(idx, slice) else idx

        innov = mix_lower_triangular(self._normals(idx, _DRAWS_STEP), self._cholu32)
        off = self._offset[idx]
        if not off.all():
            back = rows()[off == 0]
            # the windows are gathered before they are written back, so the
            # overlap is safe; blocks bound the gathered copy
            for lo in range(0, back.size, 65536):
                block = back[lo : lo + 65536]
                self._slots[block, self._spare :] = self._slots[block, : self.p]
            self._offset[back] = self._spare
            off = self._offset[idx]
        if off.min() == off.max():
            cells, cols = idx, int(off[0])
        else:
            cells, cols = rows(), off.astype(np.intp)
        # sliding_window_view(s, p, axis=1)[c, j] is s[c, j : j + p]
        windows = sliding_window_view(self._slots, self.p, axis=1)
        x = step(windows[cells, cols].view(np.float32), self._w32, innov)
        self._slots[cells, cols - 1] = x.view("V16")[:, 0]
        self._offset[idx] -= 1
        y = inverse_map(self.gamma, x)
        y *= self.scale[idx]
        y[:, 3] = np.minimum(y[:, 3], self.u_max - MIN_CURVE_SPAN)
        out[idx] = y

    def _apply_chunk(self, lo: int, hi: int, ua) -> tuple[int, int, int]:
        """Pulse branch logic for cells [lo, hi), given their float32
        amplitudes `ua`; returns the counts of sets, full and partial resets."""
        sl = slice(lo, hi)
        phase = self.phase[sl]
        u_reset = self.u_reset[sl]
        feat = self.features[sl]
        nfeat = self.next_features[sl]
        r = self.r[sl]
        cycle = self.cycle[sl]

        # every mask from the state before the pulse
        in_lrs = phase == PHASE_LRS
        in_irs = phase == PHASE_IRS
        reset_m = ua > u_reset
        gen_m = reset_m & in_lrs
        trans = reset_m & (phase != PHASE_HRS)
        full = trans & (ua >= self.u_max)
        part = trans & ~full
        set_m = ~reset_m & (ua <= -np.where(in_irs, nfeat[:, 1], feat[:, 1])) & ~in_lrs

        if gen_m.any():
            idx = sl if gen_m.all() else lo + np.nonzero(gen_m)[0]
            self._advance(idx, out=self.next_features)

        cm = self.conduction
        if part.any():
            ua_p = ua[part]
            r[part] = transition_state(
                ua_p, feat[part, 3], state_from_resistance(feat[part, 2], cm),
                state_from_resistance(nfeat[part, 0], cm), self.u_max, cm)
            phase[part] = PHASE_IRS
            u_reset[part] = ua_p

        # promotion loads the pending cycle, switch takes the loaded state
        promote = full | (set_m & in_irs)
        # each 16-byte feature row is one record: a 1-d masked copy, bit for bit
        np.copyto(feat.view("V16")[:, 0], nfeat.view("V16")[:, 0], where=promote)
        cycle += promote
        switch = np.flatnonzero(full | set_m)   # an index array is the fastest gather here
        if switch.size:
            to_lrs = set_m[switch]
            r[switch] = state_from_resistance(
                np.where(to_lrs, feat[switch, 2], feat[switch, 0]), cm)
            phase[switch] = np.where(to_lrs, PHASE_LRS, PHASE_HRS)
            u_reset[switch] = feat[switch, 3]

        return tuple(int(np.count_nonzero(mask)) for mask in (set_m, full, part))

    def _write_part(self) -> int:
        """Cells per pulse or init part: WRITE_PART_LAGS lag entries at
        4p + WRITE_CELL_LAGS per cell."""
        return WRITE_PART_LAGS // (4 * self.p + WRITE_CELL_LAGS)

    def _partitions(self, n: int, part: int):
        """[lo, hi) parts of n items: min(threads, n // part) equal parts, so
        none is smaller than `part`, the smallest that repays a worker thread;
        one part when that count is at most 1.  ValueError for `threads`
        outside 1..MAX_THREADS, whatever the size."""
        t = self.threads
        if not 1 <= t <= MAX_THREADS:
            raise ValueError(f"threads must be in 1..{MAX_THREADS}, got {t}")
        k = min(t, n // part)
        if k <= 1:
            return [(0, n)]
        bounds = [n * i // k for i in range(k + 1)]
        return list(zip(bounds[:-1], bounds[1:]))

    def _run_partitioned(self, fn, n: int, part: int):
        """fn(lo, hi) over `_partitions(n, part)`: inline for one part, else
        on the pool, which is created only then."""
        parts = self._partitions(n, part)
        if len(parts) == 1:
            return [fn(*parts[0])]
        if self._pool_workers != self.threads:
            # `threads` may be changed between calls (bench does); a pool
            # sized for an earlier count would run the partitions on fewer
            # workers than requested
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = ThreadPoolExecutor(max_workers=self.threads)
            self._pool_workers = self.threads
        futures = [self._pool.submit(fn, lo, hi) for lo, hi in parts]
        return [f.result() for f in futures]

    def _addresses(self, cells) -> tuple[np.ndarray, int]:
        """The one address rule of pulses and reads: (int64 indices, distinct
        count) of a 1-d list of integers in 0..m-1 or [], else IndexError."""
        idx = np.asarray(cells)
        if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0
                                          or idx.max() >= self.m):
            raise IndexError(f"cell indices must be a 1-d list of integers in 0..{self.m - 1}")
        s = np.sort(idx)   # a sort and a neighbour compare: np.unique hashes, slower here
        return idx.astype(np.int64), int(s.size and 1 + np.count_nonzero(s[1:] != s[:-1]))

    # -- public operations ---------------------------------------------------

    def apply_pulses(self, u_a, cells=None) -> PulseReport:
        """Apply one voltage pulse to all cells (or an addressed subset).

        `u_a` is one amplitude for every addressed cell or an array (per
        cell for a broadcast call, per addressed cell otherwise); `cells=[c]`
        addresses one cell (see `_addresses`).  Every form becomes one
        float32 amplitude per cell, a broadcast view of a single one or
        addressed ones scattered into 0 V no-ops, so an amplitude's bits do
        not depend on its form or on the thread count.  Addressing the same
        cell twice in one call with one amplitude collapses to a single
        application (`n_addressed` counts distinct cells); two different
        amplitudes for one cell raise ValueError, as do amplitudes that are
        not finite in float32 (1e39 is not).
        """
        with np.errstate(over="ignore"):
            ua = np.asarray(u_a, dtype=np.float32)
        if not np.all(np.isfinite(ua)):
            raise ValueError("pulse amplitudes must be finite in float32")
        n_addr = self.m
        if cells is not None:
            cells, n_addr = self._addresses(cells)
            full = np.zeros(self.m, dtype=np.float32)
            full[cells] = ua
            if np.any(full[cells] != ua):
                raise ValueError("a pulse gives a repeated cell two different amplitudes")
            ua = full
        elif ua.shape not in ((), (self.m,)):
            raise ValueError(f"per-cell amplitudes must have shape ({self.m},)")
        ua = np.broadcast_to(ua, (self.m,))
        counts = self._run_partitioned(lambda lo, hi: self._apply_chunk(lo, hi, ua[lo:hi]), self.m,
                                       self._write_part())
        return PulseReport(n_addr, *(sum(c) for c in zip(*counts)))

    def read_all(self, cells=None):
        """Noisy quantized readout of every cell (or a subset), with the
        readout the array was built with.

        Returns (i_noisy, codes, i_dequantized).  Reads never modify r; with
        noise enabled each read consumes one draw from the cell's stream.
        `cells` (see `_addresses`) names each cell at most once (ValueError
        otherwise); addressed reads split over the worker threads like whole
        ones.
        """
        cfg = self._readout
        ih, il = self._i_read

        if cells is not None:
            cells, n_distinct = self._addresses(cells)
            if n_distinct < cells.size:
                raise ValueError("a read addresses each cell at most once")

        def run(lo, hi):
            sl = slice(lo, hi) if cells is None else cells[lo:hi]
            i_read = self.r[sl] * (ih - il)
            i_read += il
            if cfg.noise_enabled:
                noise = noise_sigma(i_read, cfg)
                noise *= self._normals(sl, _DRAWS_READ, False)[0]
                i_read += noise
            return i_read, quantize(i_read, cfg)

        chunks = self._run_partitioned(run, self.m if cells is None else cells.size,
                                       READ_PART_CELLS)
        # one part's arrays are its own temporaries, fresh like a concatenation
        i_noisy, codes = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
        return i_noisy, codes, dequantize(codes, cfg)

    # -- inspection ----------------------------------------------------------

    @property
    def readout(self) -> ReadoutConfig:
        """The readout settings the array was built with; they cannot be
        reassigned."""
        return self._readout

    def static_resistance(self) -> np.ndarray:
        """u0 / I(r, u0) per cell, in float64."""
        return self.conduction.static_resistance(self.r.astype(np.float64))

    def state_table(self) -> dict:
        return {
            "cell": np.arange(self.m),
            "cycle": self.cycle.copy(),
            "phase": np.array([PHASE_NAMES[k] for k in range(len(PHASE_NAMES))])[self.phase],
            "r": self.r.astype(np.float64),
            "static_resistance": self.static_resistance(),
        }

    def lags(self) -> np.ndarray:
        """Each cell's p lag slots, newest first, as one (m, 4p) copy."""
        windows = sliding_window_view(self._slots, self.p, axis=1)
        return windows[np.arange(self.m), self._offset.astype(np.intp)].view(np.float32)

    def _cell_arrays(self):
        return (self.r, self.phase, self.cycle, self.u_reset,
                self.features, self.next_features, self.scale,
                self._keys, self._counters)

    def _state_arrays(self):
        """Every per-cell state array, the lags in canonical form: the same
        state gives the same arrays wherever the windows lie."""
        return (self.lags(),) + self._cell_arrays()

    def bytes_per_cell(self) -> float:
        """Resident per-cell state, measured from the live arrays (the whole
        lag history and the window offsets included)."""
        live = (self._slots, self._offset) + self._cell_arrays()
        return sum(arr.nbytes for arr in live) / self.m

    def state_digest(self) -> str:
        """SHA-256 over all per-cell state in canonical form (see
        `_state_arrays`); equal digests mean bit-identical states."""
        h = hashlib.sha256()
        for arr in self._state_arrays():
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def init_array(bundle, m: int, a: float | None = None, seed: int = 0,
               p: int | None = None, threads: int = 1,
               readout: ReadoutConfig | None = None) -> CellArray:
    """Instantiate an array of `m` cells from a parameter bundle.

    With a > 0 each cell draws a scale vector from the device-variability
    distribution (normal with covariance a * sigma in normalized space,
    mapped through the inverse normalizing transform and divided by its
    median image); a = 0 pins every scale to exactly one.  Each cell's lag
    history is one exact draw from the stationary distribution of the
    order-p model, and one autoregression step from there realizes the
    features of its first cycle.  Cells are drawn on at most `threads`
    workers (1..MAX_THREADS), in parts no smaller than a pulse's (see
    `CellArray`); the result depends on neither.  `seed` is one 64-bit word
    (0..MAX_SEED); ValueError outside either range.
    `readout` (default: the bundle's) is fixed for the array's life; the
    settings, `a` and `u_max` must pass `float32_problems` (ValueError).
    """
    return CellArray(bundle, m, a=a, seed=seed, p=p, threads=threads, readout=readout)
