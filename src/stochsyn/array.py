"""Vectorized runtime engine for large arrays of simulated cells.

Cell state lives in per-cell numpy arrays (32-bit floats; model matrices stay
64-bit and are cast once at construction).  Every cell carries its own
counter-based random stream, so any partitioning of the cells over worker
threads produces bit-identical results; the lag contractions deliberately use
`einsum` rather than BLAS so the floating-point summation order is fixed.

Each cell starts from one exact draw of its p lags from the stationary
distribution of the autoregression (`svar.stationary_factor`), followed by
the one step that realizes its first cycle's features; no warm-up steps are
run.

Pulse semantics (single scalar amplitude `u_a` per pulse):

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

The cycle counter therefore always names the cycle whose features are loaded,
advancing when a transition completes (or when an abrupt switch cuts a
partial transition short), not when the features are generated.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.constants import e as ELECTRON_CHARGE
from scipy.constants import k as BOLTZMANN

from . import streams
from .conduction import eval_poly
from .svar import stationary_factor

PHASE_HRS, PHASE_LRS, PHASE_IRS = 0, 1, 2
PHASE_NAMES = {PHASE_HRS: "hrs", PHASE_LRS: "lrs", PHASE_IRS: "irs"}

U_RESET_CLEARANCE = 1e-3   # generated thresholds stay this far below u_max [V]
MIN_PARALLEL_CELLS = 4096  # below this a thread pool is pure overhead
INIT_BLOCK_DRAWS = 1 << 19  # lag entries per init block (2 MB)

_DRAWS_DTD = 4
_DRAWS_STEP = 4
_DRAWS_READ = 2


@dataclass(frozen=True)
class ReadoutConfig:
    """Read voltage, noise bandwidth and ADC window."""

    u_read: float = 0.2
    delta_f: float = 1e6
    temperature: float = 300.0
    n_bits: int = 4
    i_min: float = 0.0
    i_max: float = 40e-6
    noise_enabled: bool = True

    def __post_init__(self):
        if self.i_max <= self.i_min:
            raise ValueError("need i_max > i_min")
        if not 1 <= self.n_bits <= 16:
            raise ValueError("n_bits must be in 1..16")
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
    expression defined for negative read voltages.
    """
    i_abs = np.abs(i_read)
    return np.sqrt(
        (4.0 * BOLTZMANN * cfg.temperature * cfg.delta_f / abs(cfg.u_read)
         + 2.0 * ELECTRON_CHARGE * cfg.delta_f) * i_abs
    )


def quantize(i, cfg: ReadoutConfig):
    """ADC code for a current: round-to-nearest over the window, clamped."""
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    codes = np.rint((np.asarray(i, dtype=np.float64) - cfg.i_min) / lsb)
    return np.clip(codes, 0, cfg.levels).astype(np.int32)


def dequantize(codes, cfg: ReadoutConfig):
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    return cfg.i_min + np.asarray(codes, dtype=np.float64) * lsb


def stationary_factor32(model) -> np.ndarray:
    """float32 copy of `svar.stationary_factor`, pinned C-contiguous: the
    layout fixes the initial-lag contraction's summation order.

    Entries below 2^-64 of the largest are set to zero.  They lie far below
    the float32 resolution of any lag, and their products with the draws can
    be subnormal, which slows the contraction (models whose far lags barely
    matter have thousands of such entries).
    """
    factor = np.ascontiguousarray(stationary_factor(model), dtype=np.float32)
    factor[np.abs(factor) < 2.0**-64 * np.abs(factor).max()] = 0.0
    return factor


def mix_lower_triangular(eps: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """(tri @ eps).T for a lower-triangular 4x4 and word-major draws (4, M).

    Expanded term by term with a fixed left-to-right evaluation order so the
    result is bit-identical for every batch shape and stride (einsum picks
    its summation order from the memory layout, which would break the
    partition-independence guarantee).
    """
    out = np.empty((eps.shape[1], 4), dtype=np.float32)
    out[:, 0] = tri[0, 0] * eps[0]
    out[:, 1] = tri[1, 0] * eps[0] + tri[1, 1] * eps[1]
    out[:, 2] = (tri[2, 0] * eps[0] + tri[2, 1] * eps[1]) + tri[2, 2] * eps[2]
    out[:, 3] = ((tri[3, 0] * eps[0] + tri[3, 1] * eps[1]) + tri[3, 2] * eps[2]) \
        + tri[3, 3] * eps[3]
    return out


@dataclass
class PulseReport:
    n_addressed: int = 0
    n_set: int = 0
    n_full_reset: int = 0
    n_partial_reset: int = 0

    @property
    def n_noop(self) -> int:
        return self.n_addressed - self.n_set - self.n_full_reset - self.n_partial_reset

    def merge(self, other: "PulseReport") -> None:
        self.n_addressed += other.n_addressed
        self.n_set += other.n_set
        self.n_full_reset += other.n_full_reset
        self.n_partial_reset += other.n_partial_reset


class CellArray:
    """M independent stochastic cells sharing one parameter set.

    Construct via :func:`init_array` (or directly from a parameter bundle).
    Per-cell state: flattened lag history (newest first), state variable r,
    phase, cycle index, tracked transition threshold, current and pending
    feature vectors, device scale vector, stream key and draw counter.
    """

    def __init__(self, bundle, m: int, a: float | None = None, seed: int = 0,
                 p: int | None = None, threads: int = 1,
                 u_max: float | None = None, readout: ReadoutConfig | None = None):
        if m < 1:
            raise ValueError(f"need at least one cell, got m={m}")
        defaults = bundle.defaults
        a = defaults.dtd_scale if a is None else float(a)
        if a < 0:
            raise ValueError(f"device-variability scale must be >= 0, got {a}")
        orders = sorted(bundle.svar)
        if p is None:
            p = 10 if 10 in bundle.svar else orders[-1]
        if p not in bundle.svar:
            raise ValueError(f"no order-{p} model in bundle (available: {orders})")

        self.m = int(m)
        self.p = int(p)
        self.a = a
        self.seed = int(seed)
        self.threads = max(1, int(threads))
        self.u_max = float(defaults.u_max if u_max is None else u_max)
        self.readout = readout or defaults.readout
        self.conduction = bundle.conduction
        self.gamma = bundle.gamma
        self.model = bundle.svar[p]

        # float32 working copies of the model; the lag weights are pinned
        # Fortran-ordered, which fixes the einsum's summation order and speed
        self._w32 = np.asfortranarray(self.model.lag_weights(), dtype=np.float32)  # (4p, 4)
        self._cholu32 = self.model.chol_u.astype(np.float32)
        self._gamma32 = self.gamma.coeffs.astype(np.float32)
        self._zlo = np.float32(self.gamma.z_range[0])
        self._zhi = np.float32(self.gamma.z_range[1])
        self._hhrs32 = self.conduction.hhrs.astype(np.float32)
        self._llrs32 = self.conduction.llrs.astype(np.float32)
        cm = self.conduction
        il0, ih0 = cm.i_llrs(cm.u0), cm.i_hhrs(cm.u0)
        self._state_ca = np.float32(il0 / (il0 - ih0))
        self._state_cb = np.float32(cm.u0 / (il0 - ih0))
        self._il_umax = np.float32(cm.i_llrs(self.u_max))
        self._ih_umax = np.float32(cm.i_hhrs(self.u_max))
        self._umax32 = np.float32(self.u_max)
        self._ur_cap = np.float32(self.u_max - U_RESET_CLEARANCE)

        # per-cell state
        self._lags = np.zeros((m, 4 * p), dtype=np.float32)
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
            try:
                chol = np.linalg.cholesky(self.a * np.asarray(bundle.sigma, dtype=np.float64))
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"a * sigma is not positive definite: {exc}") from exc
            z = streams.normals(self._keys, self._counters, _DRAWS_DTD)
            shat = np.clip(mix_lower_triangular(z, chol.astype(np.float32)),
                           self._zlo, self._zhi)
            med = np.exp(self._gamma32[:, 0])
            for k in range(4):
                self.scale[:, k] = np.exp(eval_poly(self._gamma32[k], shat[:, k])) / med[k]
        factor = stationary_factor32(self.model)
        self._run_partitioned(lambda lo, hi: self._draw_stationary_lags(lo, hi, factor))
        self._advance(slice(0, self.m), out=self.features)
        self.phase[:] = PHASE_HRS
        self.cycle[:] = 1
        self.r[:] = self._state_from_res32(self.features[:, 0])
        self.u_reset[:] = self.features[:, 3]

    def _draw_stationary_lags(self, lo: int, hi: int, factor) -> None:
        """Lags of cells [lo, hi) as one draw from their stationary distribution.

        Per cell, 4p normals drawn slot by slot (oldest slot first) into the
        lag history, then multiplied in place by the lower-triangular
        `factor`: slot i takes the first 4(i + 1) normals, so the slots are
        written newest last and no slot reads one already written.  The
        blocks keep a block's lags in cache across the p contractions; the
        einsum's order per row does not depend on how many rows go in, so
        they leave no trace in the bits.
        """
        k = 4 * self.p
        block = max(1, INIT_BLOCK_DRAWS // k)
        for b_lo in range(lo, hi, block):
            cells = slice(b_lo, min(b_lo + block, hi))
            lags = self._lags[cells]
            for j in range(self.p):
                slot = self.p - 1 - j
                lags[:, 4 * slot : 4 * slot + 4] = streams.normals(
                    self._keys[cells], self._counters[cells], _DRAWS_STEP).T
            x = np.empty((lags.shape[0], 4), dtype=np.float32)
            for i in reversed(range(self.p)):
                w = 4 * (i + 1)
                np.einsum("mk,jk->mj", lags[:, :w], factor[w - 4 : w, :w], out=x, optimize=False)
                lags[:, w - 4 : w] = x

    # -- internals ---------------------------------------------------------

    def _state_from_res32(self, res):
        return np.clip(self._state_ca - self._state_cb / res, np.float32(0.0), np.float32(1.0))

    def _advance(self, idx, out) -> None:
        """One autoregression step for the selected cells.

        Shifts their lag history and, when `out` is given, realizes the
        scaled feature vector of the new cycle into out[idx].
        """
        sliced = isinstance(idx, slice)
        keys = self._keys[idx]
        ctrs = self._counters[idx]          # view for slices, copy otherwise
        eps = streams.normals(keys, ctrs, _DRAWS_STEP)
        if not sliced:
            self._counters[idx] = ctrs
        noise = mix_lower_triangular(eps, self._cholu32)
        lags = self._lags[idx]
        x = np.einsum("mk,kj->mj", lags, self._w32, optimize=False) + noise
        # numpy buffers overlapping copies; chunk rows to bound the temporary
        for lo in range(0, lags.shape[0], 65536):
            block = lags[lo : lo + 65536]
            block[:, 4:] = block[:, :-4]
        lags[:, :4] = x
        if not sliced:
            self._lags[idx] = lags
        if out is not None:
            z = np.clip(x, self._zlo, self._zhi)
            y = np.empty_like(z)
            for k in range(4):
                y[:, k] = np.exp(eval_poly(self._gamma32[k], z[:, k]))
            y *= self.scale[idx]
            y[:, 3] = np.minimum(y[:, 3], self._ur_cap)
            out[idx] = y

    def _apply_chunk(self, lo: int, hi: int, ua) -> PulseReport:
        """Pulse branch logic for cells [lo, hi); `ua` is a scalar or the
        matching slice of per-cell amplitudes."""
        sl = slice(lo, hi)
        phase = self.phase[sl]
        u_reset = self.u_reset[sl]
        feat = self.features[sl]
        nfeat = self.next_features[sl]
        r = self.r[sl]
        cycle = self.cycle[sl]

        in_hrs = phase == PHASE_HRS
        in_lrs = phase == PHASE_LRS
        in_irs = phase == PHASE_IRS
        reset_m = ua > u_reset

        gen_m = reset_m & in_lrs
        if gen_m.any():
            idx = sl if gen_m.all() else lo + np.nonzero(gen_m)[0]
            self._advance(idx, out=self.next_features)

        trans = reset_m & ~in_hrs
        full = trans & (ua >= self._umax32)
        part = trans & ~full

        if part.any():
            ua_p = ua if np.isscalar(ua) else ua[part]
            u_start = feat[part, 3]
            r_lrs = self._state_from_res32(feat[part, 2])
            r_hend = self._state_from_res32(nfeat[part, 0])
            i_start = r_lrs * eval_poly(self._hhrs32, u_start) \
                + (np.float32(1.0) - r_lrs) * eval_poly(self._llrs32, u_start)
            i_end = r_hend * self._ih_umax + (np.float32(1.0) - r_hend) * self._il_umax
            curv = (i_start - i_end) / (u_start - self._umax32) ** 2
            i_at = i_end + curv * (ua_p - self._umax32) ** 2
            il = eval_poly(self._llrs32, ua_p)
            ih = eval_poly(self._hhrs32, ua_p)
            denom = np.maximum(il - ih, np.float32(1e-12))
            r[part] = np.clip((il - i_at) / denom, np.float32(0.0), np.float32(1.0))
            phase[part] = PHASE_IRS
            u_reset[part] = ua_p

        if full.any():
            feat[full] = nfeat[full]
            cycle[full] += 1
            r[full] = self._state_from_res32(feat[full, 0])
            phase[full] = PHASE_HRS
            u_reset[full] = feat[full, 3]

        thresh = np.where(in_irs, nfeat[:, 1], feat[:, 1])
        set_m = ~reset_m & (ua <= -thresh) & ~in_lrs
        n_set = int(np.count_nonzero(set_m))
        if n_set:
            promote = set_m & in_irs
            if promote.any():
                feat[promote] = nfeat[promote]
                cycle[promote] += 1
            r[set_m] = self._state_from_res32(feat[set_m, 2])
            phase[set_m] = PHASE_LRS
            u_reset[set_m] = feat[set_m, 3]

        return PulseReport(
            n_addressed=hi - lo,
            n_set=n_set,
            n_full_reset=int(np.count_nonzero(full)),
            n_partial_reset=int(np.count_nonzero(part)),
        )

    def _partitions(self):
        t = self.threads
        if t == 1 or self.m < MIN_PARALLEL_CELLS:
            return [(0, self.m)]
        bounds = [self.m * i // t for i in range(t + 1)]
        return [(bounds[i], bounds[i + 1]) for i in range(t) if bounds[i] < bounds[i + 1]]

    def _run_partitioned(self, fn):
        parts = self._partitions()
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

    # -- public operations ---------------------------------------------------

    def apply_pulses(self, u_a, cells=None) -> PulseReport:
        """Apply one voltage pulse to all cells (or an addressed subset).

        `u_a` is a scalar amplitude or an array (per cell for a broadcast
        call, per addressed cell otherwise).  Results are independent of the
        thread count; addressing the same cell twice in one call collapses to
        a single application.  Amplitudes that are not finite raise
        ValueError.
        """
        if not np.all(np.isfinite(u_a)):
            raise ValueError("pulse amplitudes must be finite")
        n_addr = self.m
        if cells is not None:
            cells = np.asarray(cells, dtype=np.int64)
            if cells.size == 0:
                return PulseReport()
            if cells.min() < 0 or cells.max() >= self.m:
                raise IndexError(f"cell index out of range 0..{self.m - 1}")
            full = np.zeros(self.m, dtype=np.float32)  # 0 V never changes state
            full[cells] = u_a
            ua = full
            n_addr = int(np.unique(cells).size)
        elif np.isscalar(u_a):
            ua = np.float32(u_a)
        else:
            ua = np.asarray(u_a, dtype=np.float32)
            if ua.shape != (self.m,):
                raise ValueError(f"per-cell amplitudes must have shape ({self.m},)")

        if np.isscalar(ua) or ua.ndim == 0:
            reports = self._run_partitioned(lambda lo, hi: self._apply_chunk(lo, hi, ua))
        else:
            reports = self._run_partitioned(lambda lo, hi: self._apply_chunk(lo, hi, ua[lo:hi]))
        out = PulseReport()
        for rep in reports:
            out.merge(rep)
        out.n_addressed = n_addr
        return out

    def apply_pulse(self, cell: int, u_a: float) -> PulseReport:
        return self.apply_pulses(u_a, cells=[cell])

    def read_all(self, cfg: ReadoutConfig | None = None, cells=None):
        """Noisy quantized readout of every cell (or a subset).

        Returns (i_noisy, codes, i_dequantized).  Reads never modify r; with
        noise enabled each read consumes one draw from the cell's stream.
        """
        cfg = cfg or self.readout
        cm = self.conduction
        ih = np.float32(cm.i_hhrs(cfg.u_read))
        il = np.float32(cm.i_llrs(cfg.u_read))
        sig_scale = np.float32(
            4.0 * BOLTZMANN * cfg.temperature * cfg.delta_f / abs(cfg.u_read)
            + 2.0 * ELECTRON_CHARGE * cfg.delta_f
        )
        lsb = (cfg.i_max - cfg.i_min) / cfg.levels
        inv_lsb = np.float32(1.0 / lsb)
        i_min32 = np.float32(cfg.i_min)

        if cells is not None:
            cells = np.asarray(cells, dtype=np.int64)
            if cells.size and (cells.min() < 0 or cells.max() >= self.m):
                raise IndexError(f"cell index out of range 0..{self.m - 1}")

        def run(lo, hi):
            sl = slice(lo, hi) if cells is None else cells[lo:hi]
            i_read = self.r[sl] * (ih - il) + il
            if cfg.noise_enabled:
                keys = self._keys[sl]
                ctrs = self._counters[sl]
                z = streams.normals(keys, ctrs, _DRAWS_READ)[0]
                if not isinstance(sl, slice):
                    self._counters[sl] = ctrs
                i_noisy = i_read + np.sqrt(sig_scale * np.abs(i_read)) * z
            else:
                i_noisy = i_read
            codes = np.clip(np.rint((i_noisy - i_min32) * inv_lsb),
                            0, cfg.levels).astype(np.int32)
            return i_noisy, codes

        if cells is None:
            chunks = self._run_partitioned(run)
        else:
            chunks = [run(0, cells.size)]
        i_noisy = np.concatenate([c[0] for c in chunks])
        codes = np.concatenate([c[1] for c in chunks])
        return i_noisy, codes, dequantize(codes, cfg)

    def read(self, cell: int, cfg: ReadoutConfig | None = None):
        i_noisy, codes, deq = self.read_all(cfg, cells=[cell])
        return float(i_noisy[0]), int(codes[0]), float(deq[0])

    # -- inspection ----------------------------------------------------------

    def static_resistance(self) -> np.ndarray:
        """u0 / I(r, u0) per cell, in float64."""
        cm = self.conduction
        r = self.r.astype(np.float64)
        i0 = r * cm.i_hhrs(cm.u0) + (1.0 - r) * cm.i_llrs(cm.u0)
        return cm.u0 / i0

    def state_table(self) -> dict:
        return {
            "cell": np.arange(self.m),
            "cycle": self.cycle.copy(),
            "phase": np.array([PHASE_NAMES[int(ph)] for ph in self.phase]),
            "r": self.r.astype(np.float64),
            "static_resistance": self.static_resistance(),
        }

    def _state_arrays(self):
        return (self._lags, self.r, self.phase, self.cycle, self.u_reset,
                self.features, self.next_features, self.scale,
                self._keys, self._counters)

    def bytes_per_cell(self) -> float:
        """Resident per-cell state, measured from the live arrays."""
        return sum(arr.nbytes for arr in self._state_arrays()) / self.m

    def state_digest(self) -> str:
        """SHA-256 over all per-cell state; equal digests mean bit-identical arrays."""
        h = hashlib.sha256()
        for arr in self._state_arrays():
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def init_array(bundle, m: int, a: float | None = None, seed: int = 0,
               p: int | None = None, threads: int = 1,
               u_max: float | None = None,
               readout: ReadoutConfig | None = None) -> CellArray:
    """Instantiate an array of `m` cells from a parameter bundle.

    With a > 0 each cell draws a scale vector from the device-variability
    distribution (normal with covariance a * sigma in normalized space,
    mapped through the inverse normalizing transform and divided by its
    median image); a = 0 pins every scale to exactly one.  Each cell's lag
    history is one exact draw from the stationary distribution of the
    order-p model, and one autoregression step from there realizes the
    features of its first cycle.  Cells are drawn on `threads` workers;
    the result does not depend on that number.
    """
    return CellArray(bundle, m, a=a, seed=seed, p=p, threads=threads,
                     u_max=u_max, readout=readout)
