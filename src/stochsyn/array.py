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

from . import streams
from .conduction import as_float, eval_poly
from .conduction import state_from_resistance, transition_state
from .svar import mix_lower_triangular, step
from .transform import inverse_map

PHASE_HRS, PHASE_LRS, PHASE_IRS = 0, 1, 2
PHASE_NAMES = {PHASE_HRS: "hrs", PHASE_LRS: "lrs", PHASE_IRS: "irs"}

U_RESET_CLEARANCE = 1e-3   # generated thresholds stay this far below u_max [V]
MIN_PARALLEL_CELLS = 4096  # below this a thread pool is pure overhead
INIT_BLOCK_DRAWS = 1 << 19  # lag entries per init block (2 MB)

ELECTRON_CHARGE = 1.602176634e-19  # C, exact in the SI since 2019
BOLTZMANN = 1.380649e-23           # J/K, exact in the SI since 2019
FLOAT32_MAX = float(np.finfo(np.float32).max)
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
    codes = np.rint((as_float(i) - cfg.i_min) * (1.0 / lsb))
    return np.clip(codes, 0, cfg.levels).astype(np.int32)


def dequantize(codes, cfg: ReadoutConfig):
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    return cfg.i_min + np.asarray(codes, dtype=np.float64) * lsb


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
        if p is not None and p not in bundle.svar:
            raise ValueError(f"no order-{p} model in bundle (available: {sorted(bundle.svar)})")
        self.model = bundle.model(p)

        self.m = int(m)
        self.p = self.model.p
        self.a = a
        self.seed = int(seed)
        self.threads = max(1, int(threads))
        self.u_max = float(defaults.u_max if u_max is None else u_max)
        self.readout = readout or defaults.readout
        self.conduction = bundle.conduction
        self.gamma = bundle.gamma
        self.sigma = bundle.sigma
        self._check_float32(self.readout)

        # float32 working copies of the model; the lag weights are pinned
        # Fortran-ordered, which fixes the einsum's summation order and speed
        self._w32 = np.asfortranarray(self.model.lag_weights(), dtype=np.float32)  # (4p, 4)
        self._cholu32 = self.model.chol_u.astype(np.float32)

        # per-cell state
        self._lags = np.zeros((m, 4 * self.p), dtype=np.float32)
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

    def _check_float32(self, readout: ReadoutConfig) -> None:
        """`float32_problems` on the settings this array runs with."""
        for where, what in float32_problems(self.conduction, self.sigma, self.u_max, self.a,
                                            readout):
            raise ValueError(f"{where}: {what}")

    def _init_cells(self, bundle) -> None:
        if self.a > 0.0:
            try:
                chol = np.linalg.cholesky(self.a * np.asarray(bundle.sigma, dtype=np.float64))
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"a * sigma is not positive definite: {exc}") from exc
            z = streams.normals(self._keys, self._counters, _DRAWS_DTD)
            shat = mix_lower_triangular(z, chol.astype(np.float32))
            med = inverse_map(self.gamma, np.zeros(4, dtype=np.float32))
            self.scale[:] = inverse_map(self.gamma, shat) / med
        factor = stationary_factor32(self.model)
        self._run_partitioned(lambda lo, hi: self._draw_stationary_lags(lo, hi, factor))
        self._advance(slice(0, self.m), out=self.features)
        self.phase[:] = PHASE_HRS
        self.cycle[:] = 1
        self.r[:] = state_from_resistance(self.features[:, 0], self.conduction)
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
        lags = self._lags[idx]
        x = step(lags, self._w32, mix_lower_triangular(eps, self._cholu32))
        # numpy buffers overlapping copies; chunk rows to bound the temporary
        for lo in range(0, lags.shape[0], 65536):
            block = lags[lo : lo + 65536]
            block[:, 4:] = block[:, :-4]
        lags[:, :4] = x
        if not sliced:
            self._lags[idx] = lags
        if out is not None:
            y = inverse_map(self.gamma, x)
            y *= self.scale[idx]
            y[:, 3] = np.minimum(y[:, 3], self.u_max - U_RESET_CLEARANCE)
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
        full = trans & (ua >= self.u_max)
        part = trans & ~full
        cm = self.conduction

        if part.any():
            ua_p = ua if np.isscalar(ua) else ua[part]
            r[part] = transition_state(
                ua_p, feat[part, 3], state_from_resistance(feat[part, 2], cm),
                state_from_resistance(nfeat[part, 0], cm), self.u_max, cm)
            phase[part] = PHASE_IRS
            u_reset[part] = ua_p

        if full.any():
            feat[full] = nfeat[full]
            cycle[full] += 1
            r[full] = state_from_resistance(feat[full, 0], cm)
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
            r[set_m] = state_from_resistance(feat[set_m, 2], cm)
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
        Each cell may be addressed once per call (ValueError otherwise).
        """
        cfg = cfg or self.readout
        if cfg is not self.readout:
            self._check_float32(cfg)
        cm = self.conduction
        ih = np.float32(cm.i_hhrs(cfg.u_read))
        il = np.float32(cm.i_llrs(cfg.u_read))

        if cells is not None:
            cells = np.asarray(cells, dtype=np.int64)
            if cells.size and (cells.min() < 0 or cells.max() >= self.m):
                raise IndexError(f"cell index out of range 0..{self.m - 1}")
            if np.unique(cells).size != cells.size:
                raise ValueError("a read addresses each cell at most once")

        def run(lo, hi):
            sl = slice(lo, hi) if cells is None else cells[lo:hi]
            i_read = self.r[sl] * (ih - il) + il
            if cfg.noise_enabled:
                keys = self._keys[sl]
                ctrs = self._counters[sl]
                z = streams.normals(keys, ctrs, _DRAWS_READ)[0]
                if not isinstance(sl, slice):
                    self._counters[sl] = ctrs
                i_read = i_read + noise_sigma(i_read, cfg) * z
            return i_read, quantize(i_read, cfg)

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
        return self.conduction.static_resistance(self.r.astype(np.float64))

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
