"""Command-line entry point.

Subcommands cover the whole workflow: ``synth`` builds a ground-truth corpus,
``extract`` reduces waveforms to feature series, ``fit`` turns features into a
parameter file, ``generate`` samples feature series from parameters, ``sim``
drives a cell array through scripted or preset pulse/read schedules, and
``bench`` measures read/write throughput.  ``generate``, ``sim`` and
``bench`` take the parameter file as their first argument, and no other way.
All stochastic commands require an explicit --seed and are deterministic for
a given seed and thread count.

Exit codes: 0 success, 1 validation or fit failure, 2 usage or I/O error.
Usage errors include option combinations that argparse cannot reject on its
own (`UsageError`), such as ``sim --preset`` with ``--reads``, and an output
path that names an input or another output (`_check_outputs`).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import csvtext, paramfile, synth, waveform
from .array import MAX_SEED, MAX_THREADS, ReadoutConfig, dequantize, init_array
from .conduction import LIMIT_PERCENTILE, U0_DEFAULT, ConductionModel, fit_limiting_model
from .svar import MAX_ORDER, fit_svar, spectral_radius
from .transform import GAMMA_DEGREE, fit_map_with_fallback, forward_map, inverse_map
from .svar import generate as svar_generate

PRESET_CYCLES = 300
FLOAT_OPTIONS = ("-a", "--u-read", "--bandwidth", "--i-min", "--i-max")   # sim's; bench takes none


class UsageError(Exception):
    """Options that parse one by one but do not go together (exit 2)."""


def _ints(lo: int, hi: float = float("inf"), many: bool = False):
    """argparse type: an integer in lo..hi, or with ``many`` a comma list of them."""
    def parse(text):
        try:
            values = [int(tok) for tok in (text.split(",") if many else [text]) if tok]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not values or not all(lo <= v <= hi for v in values):
            raise argparse.ArgumentTypeError(f"need integers in {lo}..{hi}, got {text!r}")
        return values if many else values[0]
    return parse


_seed = _ints(0, MAX_SEED)   # one range for every command's random streams


def _join_float_values(argv):
    """argv with each FLOAT_OPTIONS option joined by ``=`` to a separate
    value that parses as a float: argparse takes a separate ``-1e-6`` for an
    option, not for a value, but reads ``--i-min=-1e-6`` as meant."""
    out = []
    for tok in argv:
        if out and out[-1] in FLOAT_OPTIONS and _parses_as_float(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parses_as_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_limits(path) -> ConductionModel:
    """The conduction model in an `extract --limits-out` JSON; a missing or
    malformed field, or a `u0` other than the U0_DEFAULT at which extraction
    defines r_h and r_l, fails with ValueError naming the file and the field."""
    with open(path) as fh:
        try:
            lims = json.load(fh)
        except (ValueError, RecursionError) as exc:   # also bad UTF-8, deep nesting
            raise ValueError(f"{path}: not JSON ({exc})") from None
    fields = {}
    for name, ndim in (("u0", 0), ("hhrs", 1), ("llrs", 1)):
        if not isinstance(lims, dict) or name not in lims:
            raise ValueError(f"{path}: missing field {name!r}")
        value = lims[name]
        numbers = value if ndim == 1 else [value]
        try:   # JSON numbers only: a string or a boolean (a Python int) is not one
            valid = isinstance(numbers, list) and all(
                type(v) in (int, float) and math.isfinite(v) for v in numbers)
        except OverflowError:   # an integer too large for a float
            valid = False
        if not valid:
            kind = "a finite number" if ndim == 0 else "a list of finite numbers"
            raise ValueError(f"{path}: field {name!r} is not {kind}: {value!r}")
        fields[name] = value
    if fields["u0"] != U0_DEFAULT:
        raise ValueError(f"{path}: field 'u0' is {fields['u0']!r}, not the"
                         f" {U0_DEFAULT} V at which extraction defines r_h and r_l")
    try:
        return ConductionModel(hhrs=fields["hhrs"], llrs=fields["llrs"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_outputs(inputs, *outputs) -> None:
    """Before any work: UsageError (exit 2) if an output names an input or
    another output, the same `os.path.realpath` or, where both exist, the
    same file by `os.path.samefile`; then OSError (exit 2) if an output
    cannot be opened for writing, a file this creates to find out being
    removed again.  An empty path or None is one not given."""
    named = [(path, "input") for path in filter(None, inputs)]
    outputs = list(filter(None, outputs))
    for path in outputs:
        for other, role in named:
            if _same_file(path, other):
                raise UsageError(f"output {path} names the same file as the {role} {other}")
        named.append((path, "output"))
    for path in outputs:
        existed = os.path.lexists(path)
        open(path, "ab").close()
        if not existed:
            os.remove(path)


def _same_file(a, b) -> bool:
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:   # one of them does not exist
        return False


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def _readout_from_args(args, base: ReadoutConfig) -> ReadoutConfig:
    given = {"u_read": args.u_read, "delta_f": args.bandwidth, "n_bits": args.n_bits,
             "i_min": args.i_min, "i_max": args.i_max,
             "noise_enabled": False if args.no_noise else None}
    return replace(base, **{name: value for name, value in given.items() if value is not None})


# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    report_path = args.report or str(args.output) + ".report.json"
    _check_outputs([args.input], args.output, report_path, args.limits_out)
    trace = waveform.read_trace(args.input)
    result = waveform.extract_features(trace)
    waveform.write_features_csv(result.features, args.output, cycles=result.cycles + 1)
    report = {
        "period": result.period,
        "cycles_total": result.n_cycles,
        "cycles_extracted": int(result.features.shape[0]),
        "set_detect_missing": result.set_missing,
        "excluded": [{"cycle": int(c), "reason": r} for c, r in result.exclusions],
    }
    _write_json(report_path, report)
    if args.limits_out:
        try:
            model = fit_limiting_model(result.hrs_points, result.lrs_points)
        except ValueError as exc:
            (n_h, n_l), (u_h, _), (u_l, _) = result.pool_sizes, result.hrs_points, result.lrs_points
            raise ValueError(f"limit fit of the cycles at the {LIMIT_PERCENTILE:g} % extremes"
                             f" ({n_h} HRS cycles, {u_h.size} points; {n_l} LRS cycles,"
                             f" {u_l.size} points): {exc}") from None
        _write_json(args.limits_out, {"u0": U0_DEFAULT, "hhrs": model.hhrs.tolist(),
                                      "llrs": model.llrs.tolist()})
    print(f"extracted {result.features.shape[0]}/{result.n_cycles} cycles -> {args.output}")
    return 0


def cmd_fit(args) -> int:
    diag_path = args.diagnostics or str(args.output) + ".diag.json"
    _check_outputs([args.features, args.conduction], args.output, diag_path)
    _, features = waveform.read_features_csv(args.features)
    if args.conduction:   # read before fitting: a bad file fails at once
        conduction, source = _read_limits(args.conduction), str(args.conduction)
    else:
        conduction, source = synth.reference_conduction(), "built-in reference"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gamma = fit_map_with_fallback(features)
        except ValueError as exc:   # a failed fit still records the fallbacks it tried
            _write_json(diag_path, {"gamma_fallbacks": [str(w.message) for w in caught],
                                    "error": str(exc)})
            raise
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    z, clipped = forward_map(gamma, features)
    centred = z - z.mean(axis=0)
    sigma = np.einsum("si,sj->ij", centred, centred) / (len(z) - 1)

    models = {}
    diagnostics = {
        "orders": {},
        "clipped_inputs": int(np.count_nonzero(clipped)),
        "gamma_degree_requested": GAMMA_DEGREE,
        "gamma_degree_used": gamma.coeffs.shape[1] - 1,
        "gamma_fallbacks": [str(w.message) for w in caught],
        "conduction_source": source,
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

    bundle = paramfile.ParameterBundle(
        conduction=conduction, gamma=gamma, sigma=sigma, svar=models,
        defaults=paramfile.SimDefaults(),
    )
    paramfile.save(bundle, args.output)
    _write_json(diag_path, diagnostics)
    print(f"fit orders {sorted(models)} on {features.shape[0]} cycles -> {args.output}")
    return 0


def cmd_generate(args) -> int:
    _check_outputs([args.params], args.output)
    bundle = paramfile.load(args.params)
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
    try:
        lo, hi = (int(t) for t in token.split(":")) if ":" in token else (int(token), None)
    except ValueError:
        raise ValueError(f"target {token!r} is not 'all', a cell index or a range lo:hi") from None
    if hi is None:
        if not 0 <= lo < m:
            raise ValueError(f"cell {lo} out of range 0..{m - 1}")
        return np.array([lo])
    if not 0 <= lo < hi <= m:
        raise ValueError(f"range {token!r} is not lo:hi with 0 <= lo < hi <= {m}")
    return np.arange(lo, hi)


def _read_schedule(pulse_path, read_path, m: int):
    """Merge pulse and read scripts into one ordered event list.

    Events at the same step run pulses first, then reads; within a step,
    file order is preserved.  A malformed row, a negative step, an amplitude
    that is not finite in float32, or a target outside the m cells raises
    ValueError naming the script and line.
    """
    events = []
    for path, header, kind in ((pulse_path, "step,target,u_a", "pulse"),
                               (read_path, "step,target", "read")):
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
                    step = int(fields[0])
                    if step < 0:
                        raise ValueError(f"step {step} is negative")
                    amp = float(fields[2]) if kind == "pulse" else None
                    with np.errstate(over="ignore"):   # the engine runs it in float32
                        if amp is not None and not np.isfinite(np.float32(amp)):
                            raise ValueError(f"amplitude {amp} is not finite in float32")
                    events.append((step, kind, _parse_target(fields[1], m), amp))
                except ValueError as exc:
                    raise ValueError(f"{path} line {line_no}: {exc}") from None
    events.sort(key=lambda ev: (ev[0], ev[1] == "read"))   # stable: file order kept
    return events


def _preset_schedule(preset: str, cycles: int, u_max: float):
    events = []
    step = 0
    if preset == "full-cycling":
        ramp = np.linspace(0.1, u_max, 15)
        amps = np.concatenate([-ramp, ramp])
        for _ in range(cycles):
            for amp in amps:
                events.append((step, "pulse", None, float(amp)))
                events.append((step, "read", None, None))
                step += 1
    elif preset == "multilevel":
        tops = np.linspace(0.7, u_max, cycles)
        for top in tops:
            events.append((step, "pulse", None, -u_max))
            step += 1
            events.append((step, "pulse", None, float(top)))
            events.append((step, "read", None, None))
            step += 1
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return events


def cmd_sim(args) -> int:
    if args.preset and args.reads:
        raise UsageError("--reads applies only to --pulses; a preset schedules its own reads")
    if args.pulses and args.cycles is not None:
        raise UsageError("--cycles counts preset cycles; it does not apply to --pulses")
    _check_outputs([args.params, args.pulses, args.reads], args.readout_out, args.state_out)
    bundle = paramfile.load(args.params)
    readout = _readout_from_args(args, bundle.defaults.readout)
    array = init_array(bundle, args.m, a=args.a, seed=args.seed, p=args.order,
                       threads=args.threads, readout=readout)
    if args.preset:
        events = _preset_schedule(args.preset, args.cycles or PRESET_CYCLES, array.u_max)
    else:
        events = _read_schedule(args.pulses, args.reads, args.m)

    # texts formatted once per run: cell indices, and `code,i_dequant` per code
    all_cells = np.arange(array.m)
    cell_text = csvtext.value_chars(all_cells)
    deq = dequantize(np.arange(readout.levels + 1), readout).tolist()
    code_text = csvtext.chars([f"{code},{v:.9g}" for code, v in enumerate(deq)])
    with open(args.readout_out, "wb") as fh:
        fh.write(b"step,cell,i_noisy,code,i_dequant\n")
        for step, kind, target, amp in events:
            if kind == "pulse":
                array.apply_pulses(amp, cells=target)
            else:
                i_noisy, codes, _ = array.read_all(cells=target)
                cells = all_cells if target is None else target
                csvtext.write_rows(fh, i_noisy.size, [
                    (csvtext.chars([str(step)]), 0), (cell_text, cells), i_noisy,
                    (code_text, codes)])

    table = array.state_table()
    with open(args.state_out, "wb") as fh:
        fh.write(",".join(table).encode() + b"\n")
        csvtext.write_rows(fh, array.m, list(table.values()))
    print(f"simulated {len(events)} events on {args.m} cells"
          f" -> {args.readout_out}, {args.state_out}")
    return 0


def math_fingerprint() -> str:
    """SHA-256 of numpy's `exp`, `log`, `sin` and `cos` on fixed float32 and
    float64 probe vectors.  numpy picks these loops at run time from the
    CPU's features, and their last bits differ between loops, so outputs
    compare bit for bit only between runs with one fingerprint (README,
    "Notes on determinism and performance")."""
    h = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        x = np.linspace(2.0**-10, 40.0, 16384, dtype=dtype)
        for values in (np.exp(x - dtype(20.0)), np.log(x), np.sin(x), np.cos(x)):
            h.update(values.tobytes())
    return h.hexdigest()


def cmd_bench(args) -> int:
    meta_path = str(args.output) + ".meta.json"
    _check_outputs([args.params], args.output, meta_path)
    bundle = paramfile.load(args.params)
    # alternating broadcast pulses at -u_max and +u_max: every pulse switches
    # every cell (abrupt transition or full positive transition)
    u_max = bundle.defaults.u_max
    amps = [-u_max if k % 2 == 0 else u_max for k in range(args.pulses + 2)]
    rows = []
    init_seconds = {}
    for p in args.orders:
        t0 = time.perf_counter()
        array = init_array(bundle, args.m, seed=args.seed, p=p)
        init_seconds[str(p)] = time.perf_counter() - t0
        for threads in args.threads_list:
            array.threads = threads
            array.apply_pulses(amps[0])
            array.apply_pulses(amps[1])  # warmup pair, untimed
            t0 = time.perf_counter()
            for amp in amps[2:]:
                array.apply_pulses(amp)
            write_dt = time.perf_counter() - t0
            array.read_all()  # warmup, untimed
            t0 = time.perf_counter()
            for _ in range(args.reads):
                array.read_all()
            read_dt = time.perf_counter() - t0
            for mode, ops, dt in (("write", args.m * args.pulses, write_dt),
                                  ("read", args.m * args.reads, read_dt)):
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
        "amplitude": u_max,
        "warmup": "one untimed pulse pair before the writes and one untimed pass before the reads",
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "math_fingerprint": math_fingerprint(),
    }
    _write_json(meta_path, meta)
    return 0


def cmd_synth(args) -> int:
    if args.trace_cycles is None or args.trace_cycles <= args.n:   # else make_corpus refuses
        os.makedirs(args.outdir, exist_ok=True)
        rendered = args.n > 0 and args.trace_cycles != 0   # min(n, 20000) cycles by default
        names = ("params.ssyn", "features.csv", "meta.json", "trace.iuw")[: 3 + rendered]
        _check_outputs([], *(os.path.join(args.outdir, name) for name in names))
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
    p.add_argument("--report", default=None, help="exclusion report JSON path")
    p.add_argument("--limits-out", default=None,
                   help="write pooled limiting-polynomial estimates to this JSON")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", help="fit normalizing map and autoregression from features")
    p.add_argument("features")
    p.add_argument("-o", "--output", required=True, help="parameter file to write")
    p.add_argument("-p", "--order", type=_ints(1, MAX_ORDER, many=True), default=[10],
                   help="model order(s), comma separated")
    p.add_argument("--conduction", default=None,
                   help="limiting-polynomial JSON from `extract --limits-out`")
    p.add_argument("--diagnostics", default=None, help="diagnostics JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="sample a feature series from fitted parameters")
    p.add_argument("params", help="parameter file")
    p.add_argument("-n", type=_ints(0), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--order", type=_ints(1, MAX_ORDER), default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sim", help="drive a simulated array through pulses and readouts")
    p.add_argument("params", help="parameter file")
    p.add_argument("-m", type=_ints(1), required=True, help="number of cells")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("-a", type=float, default=None, help="device-variability scale")
    p.add_argument("--order", type=_ints(1, MAX_ORDER), default=None)
    p.add_argument("--threads", type=_ints(1, MAX_THREADS), default=1)
    schedule = p.add_mutually_exclusive_group(required=True)
    schedule.add_argument("--preset", choices=["full-cycling", "multilevel"], default=None)
    schedule.add_argument("--pulses", default=None, help="pulse script CSV (step,target,u_a)")
    p.add_argument("--cycles", type=_ints(1), default=None,
                   help=f"preset cycle count (default {PRESET_CYCLES})")
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
    p.add_argument("params", help="parameter file")
    p.add_argument("-m", type=_ints(1), default=1 << 20)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--orders", type=_ints(1, MAX_ORDER, many=True), default=[10])
    p.add_argument("--threads-list", type=_ints(1, MAX_THREADS, many=True), default=[1],
                   dest="threads_list")
    p.add_argument("--pulses", type=_ints(1), default=16)
    p.add_argument("--reads", type=_ints(1), default=16)
    p.add_argument("-o", "--output", required=True, help="benchmark CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic ground-truth corpus")
    p.add_argument("outdir")
    p.add_argument("-n", type=_ints(0), required=True, help="feature vectors to sample")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--trace-cycles", type=_ints(0), default=None,
                   help="cycles rendered into the waveform (default min(n, 20000))")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:   # MonotonicityError and FormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Large frees raise glibc's trim threshold; the freed heap it keeps would
        # sit under the next peak of a process that runs several commands.
        import ctypes   # numpy has loaded it already
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (AttributeError, OSError, TypeError):   # not glibc
            pass


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
