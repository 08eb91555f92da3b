"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` builds a ground-truth corpus,
``extract`` reduces waveforms to feature series, ``fit`` turns features into a
parameter file, ``generate`` samples feature series from parameters, ``sim``
drives a cell array through scripted or preset pulse/read schedules, and
``bench`` measures read/write throughput.  All stochastic commands require an
explicit --seed and are deterministic for a given seed and thread count.

Exit codes: 0 success, 1 validation or fit failure, 2 usage or I/O error.
"""

import argparse
import json
import os
import platform
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import paramfile, synth, waveform
from .array import ReadoutConfig, dequantize, init_array
from .conduction import ConductionModel, fit_limiting_model
from .svar import fit_svar, spectral_radius
from .transform import MonotonicityError, fit_map_with_fallback, forward_map, inverse_map
from .svar import generate as svar_generate

PARAMS_ENV = "STOCHSYN_PARAMS"
BENCH_AMPLITUDE = 1.5
BENCH_MODES = ("write", "read")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"need positive integers, got {text!r}")
    return values


def _mode_list(text):
    modes = [tok for tok in text.split(",") if tok]
    if not modes or not set(modes) <= set(BENCH_MODES):
        raise argparse.ArgumentTypeError(f"need modes from {','.join(BENCH_MODES)}, got {text!r}")
    return modes


def _params_path(args) -> str:
    path = getattr(args, "params", None) or os.environ.get(PARAMS_ENV)
    if not path:
        raise FileNotFoundError(
            f"no parameter file given and ${PARAMS_ENV} is not set"
        )
    return path


def _readout_from_args(args, base: ReadoutConfig) -> ReadoutConfig:
    given = {"u_read": args.u_read, "delta_f": args.bandwidth, "n_bits": args.n_bits,
             "i_min": args.i_min, "i_max": args.i_max,
             "noise_enabled": False if args.no_noise else None}
    return replace(base, **{name: value for name, value in given.items() if value is not None})


# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    trace = waveform.read_trace(args.input, samples_per_cycle=args.samples_per_cycle)
    result = waveform.extract_features(
        trace,
        smoothing=not args.no_smoothing,
        set_threshold=args.set_threshold,
        min_prominence=args.min_prominence,
        collect_windows=args.limits_out is not None,
    )
    waveform.write_features_csv(result.features, args.output, cycles=result.cycles + 1)
    report = {
        "cycles_total": result.n_cycles,
        "cycles_extracted": int(result.features.shape[0]),
        "set_detect_missing": result.set_missing,
        "excluded": [{"cycle": int(c), "reason": r} for c, r in result.exclusions],
    }
    report_path = args.report or str(args.output) + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
    if args.limits_out:
        model = fit_limiting_model(
            result.hrs_windows, result.lrs_windows,
            r_h=result.features[:, 0], r_l=result.features[:, 2],
        )
        with open(args.limits_out, "w") as fh:
            json.dump({"u0": model.u0, "hhrs": model.hhrs.tolist(),
                       "llrs": model.llrs.tolist()}, fh, indent=2)
    print(f"extracted {result.features.shape[0]}/{result.n_cycles} cycles -> {args.output}")
    return 0


def cmd_fit(args) -> int:
    _, features = waveform.read_features_csv(args.features)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gamma = fit_map_with_fallback(features, degree=args.gamma_degree)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    z, clipped = forward_map(gamma, features)
    sigma = np.cov(z, rowvar=False)

    degree_used = int(np.max(np.nonzero(np.any(gamma.coeffs != 0.0, axis=0))[0]))
    models = {}
    diagnostics = {
        "orders": {},
        "clipped_inputs": int(np.count_nonzero(clipped)),
        "gamma_degree_requested": args.gamma_degree,
        "gamma_degree_used": degree_used,
        "gamma_fallbacks": [str(w.message) for w in caught],
    }
    for p in args.order:
        model = fit_svar(z, p)
        models[p] = model
        diagnostics["orders"][str(p)] = {
            "spectral_radius": spectral_radius(model),
            "intercept": model.intercept.tolist(),
            "max_abs_intercept": float(np.max(np.abs(model.intercept))),
            "sigma_u": model.sigma_u.tolist(),
        }

    if args.conduction:
        with open(args.conduction) as fh:
            lims = json.load(fh)
        conduction = ConductionModel(hhrs=lims["hhrs"], llrs=lims["llrs"], u0=lims["u0"])
        diagnostics["conduction_source"] = str(args.conduction)
    else:
        conduction = synth.reference_conduction()
        diagnostics["conduction_source"] = "built-in reference"

    bundle = paramfile.ParameterBundle(
        conduction=conduction, gamma=gamma, sigma=sigma, svar=models,
        defaults=paramfile.SimDefaults(),
    )
    paramfile.save(bundle, args.output)
    diag_path = args.diagnostics or str(args.output) + ".diag.json"
    with open(diag_path, "w") as fh:
        json.dump(diagnostics, fh, indent=2)
    print(f"fit orders {sorted(models)} on {features.shape[0]} cycles -> {args.output}")
    return 0


def cmd_generate(args) -> int:
    bundle = paramfile.load(_params_path(args))
    model = bundle.model(args.order)
    z = svar_generate(model, args.n, args.seed)
    features = inverse_map(bundle.gamma, z)
    waveform.write_features_csv(features, args.output)
    print(f"generated {args.n} cycles (order {model.p}) -> {args.output}")
    return 0


# ---------------------------------------------------------------------------

def _parse_target(token: str, m: int):
    """None for 'all', else the cells of an index 'i' or a range 'lo:hi'."""
    token = token.strip()
    if token == "all":
        return None
    if ":" in token:
        lo, hi = (int(t) for t in token.split(":"))
        if not 0 <= lo < hi <= m:
            raise ValueError(f"range {token!r} is not lo:hi with 0 <= lo < hi <= {m}")
        return np.arange(lo, hi)
    cell = int(token)
    if not 0 <= cell < m:
        raise ValueError(f"cell {cell} out of range 0..{m - 1}")
    return np.array([cell])


def _read_schedule(pulse_path, read_path, m: int):
    """Merge pulse and read scripts into one ordered event list.

    Events at the same step run pulses first, then reads; within a step,
    file order is preserved.  A malformed row, an amplitude that is not
    finite, or a target outside the m cells raises ValueError naming the
    script and line.
    """
    events = []
    scripts = ((pulse_path, "step,target,u_a", 0, "pulse"), (read_path, "step,target", 1, "read"))
    for path, header, order, kind in scripts:
        if not path:
            continue
        with open(path) as fh:
            first = fh.readline().strip().replace(" ", "")
            if first != header:
                raise ValueError(f"{kind} script must start with {header!r}, got {first!r}")
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    fields = line.split(",")
                    if len(fields) != len(header.split(",")):
                        raise ValueError(f"expected {header!r}, got {line.strip()!r}")
                    amp = float(fields[2]) if kind == "pulse" else None
                    if amp is not None and not np.isfinite(amp):
                        raise ValueError(f"amplitude {amp} is not finite")
                    events.append((int(fields[0]), order, line_no, kind,
                                   _parse_target(fields[1], m), amp))
                except ValueError as exc:
                    raise ValueError(f"{path} line {line_no}: {exc}") from None
    events.sort(key=lambda ev: ev[:3])
    return events


def _preset_schedule(preset: str, cycles: int, u_max: float):
    events = []
    step = 0
    if preset == "full-cycling":
        ramp = np.linspace(0.1, u_max, 15)
        amps = np.concatenate([-ramp, ramp])
        for _ in range(cycles):
            for amp in amps:
                events.append((step, 0, 0, "pulse", None, float(amp)))
                events.append((step, 1, 0, "read", None, None))
                step += 1
    elif preset == "multilevel":
        tops = np.linspace(0.7, u_max, cycles)
        for top in tops:
            events.append((step, 0, 0, "pulse", None, -u_max))
            step += 1
            events.append((step, 0, 0, "pulse", None, float(top)))
            events.append((step, 1, 0, "read", None, None))
            step += 1
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return events


def cmd_sim(args) -> int:
    bundle = paramfile.load(_params_path(args))
    readout = _readout_from_args(args, bundle.defaults.readout)
    array = init_array(bundle, args.m, a=args.a, seed=args.seed, p=args.order,
                       threads=args.threads, readout=readout)
    if args.preset:
        events = _preset_schedule(args.preset, args.cycles, array.u_max)
    else:
        events = _read_schedule(args.pulses, args.reads, args.m)

    # the dequantized current is a function of the code: format each once
    deq_text = [f"{v:.9g}" for v in dequantize(np.arange(readout.levels + 1), readout).tolist()]
    with open(args.readout_out, "w") as fh:
        fh.write("step,cell,i_noisy,code,i_dequant\n")
        for step, _, _, kind, target, amp in events:
            if kind == "pulse":
                array.apply_pulses(amp, cells=target)
            else:
                i_noisy, codes, _ = array.read_all(cells=target)
                cells = range(array.m) if target is None else target.tolist()
                fh.write("".join(
                    f"{step},{c},{ino:.9g},{code},{deq_text[code]}\n"
                    for c, ino, code in zip(cells, i_noisy.tolist(), codes.tolist())))

    table = array.state_table()
    columns = [table[name].tolist() for name in ("cell", "cycle", "phase", "r", "static_resistance")]
    with open(args.state_out, "w") as fh:
        fh.write("cell,cycle,phase,r,static_resistance\n")
        fh.write("".join(f"{c},{cy},{ph},{r:.9g},{res:.9g}\n" for c, cy, ph, r, res in zip(*columns)))
    print(f"simulated {len(events)} events on {args.m} cells"
          f" -> {args.readout_out}, {args.state_out}")
    return 0


def cmd_bench(args) -> int:
    bundle = paramfile.load(_params_path(args))
    rows = []
    init_seconds = {}
    for p in args.orders:
        t0 = time.perf_counter()
        array = init_array(bundle, args.m, a=args.a, seed=args.seed, p=p)
        init_seconds[str(p)] = time.perf_counter() - t0
        for threads in args.threads_list:
            array.threads = threads
            for mode in args.modes:
                if mode == "write":
                    # pre-generated alternating schedule; every pulse switches
                    # every cell (abrupt transition or full positive transition)
                    amps = [-BENCH_AMPLITUDE if k % 2 == 0 else BENCH_AMPLITUDE
                            for k in range(args.pulses + 2)]
                    array.apply_pulses(amps[0])
                    array.apply_pulses(amps[1])  # warmup pair, untimed
                    t0 = time.perf_counter()
                    for amp in amps[2:]:
                        array.apply_pulses(amp)
                    dt = time.perf_counter() - t0
                    ops = args.m * args.pulses
                else:
                    array.read_all()  # warmup, untimed
                    t0 = time.perf_counter()
                    for _ in range(args.reads):
                        array.read_all()
                    dt = time.perf_counter() - t0
                    ops = args.m * args.reads
                rows.append((mode, args.m, p, threads, ops, dt, ops / dt))
                print(f"bench {mode:5s} m={args.m} p={p} threads={threads}:"
                      f" {ops / dt:.3e} ops/s")
        del array

    with open(args.output, "w") as fh:
        fh.write("mode,m,p,threads,ops,seconds,ops_per_second\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},"
                     f"{row[5]:.6f},{row[6]:.6g}\n")
    meta = {
        "contract": "timing excludes array initialization, schedule generation and file I/O;"
                    " init_seconds holds each order's single-threaded initialization time",
        "init_seconds": init_seconds,
        "warmup": "one untimed pulse pair (write) or one untimed pass (read)",
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    with open(str(args.output) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    return 0


def cmd_synth(args) -> int:
    manifest = synth.make_corpus(args.outdir, args.n, args.seed,
                                 trace_cycles=args.trace_cycles)
    print(f"corpus written to {args.outdir}: {manifest}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsyn",
        description="fit and simulate stochastic resistive-memory synapse arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="reduce a cycling waveform to per-cycle features")
    p.add_argument("input", help="trace file (.csv with 'u,i' header, or .iuw)")
    p.add_argument("output", help="features CSV to write")
    p.add_argument("--no-smoothing", action="store_true")
    p.add_argument("--set-threshold", type=float, default=waveform.SET_CURRENT_THRESHOLD,
                   help="level-crossing current for the abrupt transition [A]")
    p.add_argument("--min-prominence", type=float, default=waveform.RESET_MIN_PROMINENCE,
                   help="peak prominence floor for the gradual transition [A]")
    p.add_argument("--samples-per-cycle", type=_positive_int, default=1042)
    p.add_argument("--report", default=None, help="exclusion report JSON path")
    p.add_argument("--limits-out", default=None,
                   help="write pooled limiting-polynomial estimates to this JSON")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit normalizing map and autoregression from features")
    p.add_argument("features")
    p.add_argument("-o", "--output", required=True, help="parameter file to write")
    p.add_argument("-p", "--order", type=_int_list, default=[10],
                   help="model order(s), comma separated")
    p.add_argument("--conduction", default=None,
                   help="limiting-polynomial JSON from `extract --limits-out`")
    p.add_argument("--gamma-degree", type=_positive_int, default=5,
                   help="quantile polynomial degree (falls back if non-monotone)")
    p.add_argument("--diagnostics", default=None, help="diagnostics JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="sample a feature series from fitted parameters")
    p.add_argument("params", nargs="?", default=None,
                   help=f"parameter file (default ${PARAMS_ENV})")
    p.add_argument("-n", type=_nonneg_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sim", help="drive a simulated array through pulses and readouts")
    p.add_argument("params", nargs="?", default=None)
    p.add_argument("-m", type=_positive_int, required=True, help="number of cells")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-a", type=float, default=None, help="device-variability scale")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1)
    schedule = p.add_mutually_exclusive_group(required=True)
    schedule.add_argument("--preset", choices=["full-cycling", "multilevel"], default=None)
    schedule.add_argument("--pulses", default=None, help="pulse script CSV (step,target,u_a)")
    p.add_argument("--cycles", type=_positive_int, default=300, help="preset cycle count")
    p.add_argument("--reads", default=None, help="read script CSV (step,target)")
    p.add_argument("--readout-out", default="sim_readouts.csv")
    p.add_argument("--state-out", default="sim_state.csv")
    p.add_argument("--u-read", type=float, default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--n-bits", type=int, default=None)
    p.add_argument("--i-min", type=float, default=None)
    p.add_argument("--i-max", type=float, default=None)
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("bench", help="measure write/read throughput")
    p.add_argument("params", nargs="?", default=None)
    p.add_argument("-m", type=_positive_int, default=1 << 20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-a", type=float, default=None)
    p.add_argument("--orders", type=_int_list, default=[10])
    p.add_argument("--threads-list", type=_int_list, default=[1], dest="threads_list")
    p.add_argument("--modes", type=_mode_list, default=list(BENCH_MODES))
    p.add_argument("--pulses", type=_positive_int, default=16)
    p.add_argument("--reads", type=_positive_int, default=16)
    p.add_argument("-o", "--output", required=True, help="benchmark CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic ground-truth corpus")
    p.add_argument("outdir")
    p.add_argument("-n", type=_nonneg_int, required=True, help="feature vectors to sample")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-cycles", type=_nonneg_int, default=None,
                   help="cycles rendered into the waveform (default min(n, 20000))")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, MonotonicityError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
