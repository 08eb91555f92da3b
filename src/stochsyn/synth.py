"""Hand-built reference parameters and synthetic measurement corpus.

No measurement data ships with the package, so tests and demos run against a
known ground truth: a stable hand-chosen autoregression with log-space
polynomial marginals on realistic resistance/threshold scales, a conduction
model wide enough to represent every feature vector the generator can emit,
and as sigma the autoregression's C(0) (`svar.autocovariances`), its
reduced form solved by `svar.forward_substitution`, without LAPACK.  From
that bundle the module can sample feature series and render full sweep
waveforms (one triangular voltage period per cycle, the abrupt transition at
the threshold, the parabolic transition back up to the apex), which gives the
whole extraction/fitting pipeline something to round-trip against.  The
corpus always stores the reference orders, samples from the lowest one and
renders at most one trace cycle per sampled feature vector.
"""

import json
from pathlib import Path

import numpy as np

from . import waveform
from .conduction import (MIN_CURVE_SPAN, ConductionModel, current, state_from_resistance,
                         transition_current)
from .paramfile import ParameterBundle, SimDefaults, save
from .svar import SvarModel, autocovariances, forward_substitution, generate
from .transform import NormalizingMap, inverse_map
from .waveform import RawTrace

REFERENCE_ORDERS = (1, 10, 100)
RENDER_BLOCK = 512               # cycles per block of `reconstruct_trace`
SAMPLES_PER_CYCLE = 1042         # samples per rendered cycle, by default


def reference_conduction() -> ConductionModel:
    # static resistances at u0: ~866 kOhm and ~4.99 kOhm, bracketing
    # everything reference_gamma() can generate
    return ConductionModel(
        hhrs=[0.0, 1.15e-6, 0.0, 1.0e-7, 0.0, 5.0e-8],
        llrs=[0.0, 2.0e-4, 0.0, 1.0e-5],
    )


def reference_gamma() -> NormalizingMap:
    # log-space quantile polynomials; medians ~(166.5 kOhm, 0.85 V, 8.2 kOhm,
    # 0.72 V) with mild curvature so the marginals are not exactly lognormal
    coeffs = np.array([
        [np.log(166.5e3), 0.30, 0.015, 0.002, 0.0, 0.0],
        [np.log(0.85), 0.06, 0.004, 0.0, 0.0, 0.0],
        [np.log(8.2e3), 0.10, 0.008, 0.0005, 0.0, 0.0],
        [np.log(0.72), 0.05, 0.003, 0.0, 0.0, 0.0],
    ])
    return NormalizingMap(coeffs=coeffs)


def reference_svar(p: int = 1) -> SvarModel:
    """Stable order-1 structure, optionally zero-padded to a higher order.

    The contemporaneous chain and noise amplitudes are chosen so recent
    history matters most.  These structural weights enter as their reduced
    form, phi_1 = a^-1 c_1 and sigma_u = (a^-1 b)(a^-1 b)^T, the model's only
    inputs; `svar.structural_decompose` recovers a and b from sigma_u, as for
    any fitted model, when the parameter file stores them.  Padding
    with zero lag matrices leaves the process unchanged while exercising the
    longer history machinery.
    """
    a = np.eye(4)
    a[1, 0] = -0.111
    a[2, 0] = -0.023
    a[2, 1] = 0.139
    a[3, 0] = 0.008
    a[3, 1] = -0.070
    a[3, 2] = -0.180
    b = np.diag([0.984, 0.945, 0.908, 0.921])
    c1 = np.array([
        [0.043, 0.021, 0.037, -0.002],
        [0.0, 0.057, 0.028, -0.011],
        [0.0, 0.0, 0.153, 0.010],
        [0.0, 0.0, 0.0, 0.085],
    ])
    chol_u, phi_1 = np.split(forward_substitution(a, np.concatenate([b, c1], axis=1)), 2, axis=1)
    return SvarModel(phi=np.concatenate([phi_1[None], np.zeros((p - 1, 4, 4))]),
                     sigma_u=np.einsum("ik,jk->ij", chol_u, chol_u), intercept=np.zeros(4))


def reference_bundle(orders=REFERENCE_ORDERS) -> ParameterBundle:
    models = {p: reference_svar(p) for p in orders}
    return ParameterBundle(
        conduction=reference_conduction(),
        gamma=reference_gamma(),
        sigma=autocovariances(models[min(orders)], 0)[0],
        svar=models,
        defaults=SimDefaults(u_max=1.5, dtd_scale=0.0),
    )


def sample_features(bundle: ParameterBundle, n: int, seed) -> np.ndarray:
    """n feature vectors from the bundle's lowest-order model (float64 path)."""
    z = generate(bundle.svar[min(bundle.svar)], n, seed)
    return inverse_map(bundle.gamma, z)


def reconstruct_trace(features: np.ndarray, conduction: ConductionModel,
                      u_max: float = 1.5, samples_per_cycle: int = SAMPLES_PER_CYCLE,
                      noise_sigma: float = 1e-6, seed=0) -> RawTrace:
    """Render a full sweep waveform from a feature series.

    Each cycle is one triangular voltage period starting and ending at the
    positive apex: the high-resistance branch down to the (negative)
    switching threshold, the low-resistance branch through the bottom and up
    to u_r, then the parabolic transition to the next cycle's
    high-resistance point at the apex.  Additive normal noise lands on the
    current channel only.  Cycles are rendered as the rows of one
    (cycles, samples_per_cycle) evaluation, RENDER_BLOCK rows at a time.
    """
    x = np.asarray(features, dtype=np.float64)
    n_cycles = x.shape[0]
    if n_cycles == 0:
        raise ValueError("need at least one feature vector")
    pp = samples_per_cycle
    k = np.arange(pp)
    half = pp // 2
    u_cycle = np.interp(k, [0, half, pp], [u_max, -u_max, u_max])
    down = k <= half

    # per-cycle columns; the last cycle ends on its own high-resistance state
    r_h, u_s, r_l, u_r = (x[:, col, None] for col in range(4))
    r_h_next = np.append(x[1:, 0], x[-1, 0])[:, None]
    # the transition parabola needs 0 < u_r and a span u_max - u_r of at
    # least MIN_CURVE_SPAN to stay well conditioned
    bad = ~((0.0 < u_r) & (u_max - u_r >= MIN_CURVE_SPAN))
    if bad.any():
        raise ValueError(f"need 0 < u_r <= u_max - {MIN_CURVE_SPAN:g} V with u_max = "
                         f"{u_max!r}, got u_r = {float(u_r[bad][0])!r}")
    s_h = state_from_resistance(r_h, conduction)
    s_l = state_from_resistance(r_l, conduction)
    s_next = state_from_resistance(r_h_next, conduction)
    u = np.tile(u_cycle, n_cycles)
    i = np.empty((n_cycles, pp), dtype=np.float64)
    for lo in range(0, n_cycles, RENDER_BLOCK):
        rows = slice(lo, lo + RENDER_BLOCK)
        i_lrs = current(s_l[rows], u_cycle, conduction)
        i[rows] = np.where(
            down,
            np.where(u_cycle > -u_s[rows], current(s_h[rows], u_cycle, conduction), i_lrs),
            np.where(u_cycle <= u_r[rows], i_lrs,
                     transition_current(u_cycle, u_r[rows], s_l[rows], s_next[rows],
                                        u_max, conduction)),
        )
    i = i.ravel()
    if noise_sigma > 0:
        i += np.random.default_rng(seed).normal(0.0, noise_sigma, i.size)
    return RawTrace(u=u, i=i)


def make_corpus(outdir, n: int, seed: int, trace_cycles: int | None = None) -> dict:
    """Write the test corpus: parameter file, sampled features, waveform.

    Returns a manifest dict (also written as meta.json).
    """
    if trace_cycles is None:
        trace_cycles = min(n, 20_000)
    if trace_cycles > n:
        raise ValueError(f"cannot render {trace_cycles} trace cycles from {n} feature vectors")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = reference_bundle()
    root = np.random.SeedSequence(seed)
    s_feat, s_noise = root.spawn(2)

    params_path = outdir / "params.ssyn"
    save(bundle, params_path)

    features = sample_features(bundle, n, s_feat)
    features_path = outdir / "features.csv"
    waveform.write_features_csv(features, features_path)

    manifest = {
        "seed": seed,
        "n_cycles": n,
        "trace_cycles": int(trace_cycles),
        "params": params_path.name,
        "features": features_path.name,
        "trace": None,
    }
    if trace_cycles > 0:
        # one extra feature row (when available) supplies the final cycle's endpoint
        trace = reconstruct_trace(features[: trace_cycles + 1], bundle.conduction,
                                  u_max=bundle.defaults.u_max, seed=s_noise)
        trace = RawTrace(*trace.read(0, trace_cycles * SAMPLES_PER_CYCLE))
        trace_path = outdir / "trace.iuw"
        waveform.write_trace_iuw(trace, trace_path)
        manifest["trace"] = trace_path.name
    with open(outdir / "meta.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
