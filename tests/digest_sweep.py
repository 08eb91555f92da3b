"""Print the array engine's outputs over a fixed sweep, one line per step.

Not a test (pytest does not collect it): run it on two trees and diff the
outputs to see whether a change moves any engine bit.

    PYTHONPATH=src python tests/digest_sweep.py > sweep.txt

Only the sweep's lines go to standard output.  The in-process commands'
messages, which name a temporary directory, and `bench`'s measured rates go
to standard error (`command`), so two runs of one tree print the same lines.

The sweep covers the reference bundle's orders 1, 10 and 100 and the orders
10 and 100 of a bundle fitted to its sampled features, device variability
a = 0 and 0.5, and 1 and 2 worker threads, on arrays of 4500 cells.  For
its own run the sweep lowers the engine's smallest part to 2048 cells for
reads (`READ_PART_CELLS`) and for pulses and init (`CellArray._write_part`)
at every order, so 2 threads split each of its operations on 4096 cells or
more in two, and none of its smaller ones; parts of the engine's own size
would keep them all whole.  Each configuration
runs 16 pulses in each of four forms: one broadcast amplitude, one float32
amplitude per cell, and addressed cells with repeats, given one amplitude
or the per-cell amplitude of each address (a repeated cell gets one
amplitude).  After every pulse a line gives the `state_digest` and the
`PulseReport` counts; after every third pulse two more give SHA-256 hashes
of the outputs of a whole read and of an addressed read of 4300 cells in
shuffled order.  Two more arrays per configuration are built with a
non-default readout each: 12 bits over 0-60 uA with noise, and the same
window without it.  They run the addressed per-cell pulses and give the
same read lines.  A last line per configuration gives the digest and the
`PulseReport` counts of one more addressed pulse on that last array: every
cell, shuffled with 500 repeats, each address with its cell's per-cell
amplitude, so the distinct-cell count covers all m cells.

A long configuration then runs the reference orders 10 and 100 on 1 and 2
threads for 56 rounds, each a set/reset pair on a random half of the cells
and then one on all of them.  The halves advance some cells twice as often
as others, so their lag windows lie at different offsets, and every cell
advances at least 56 times, more than three times `SPARE_LAG_SLOTS`, so each
window is copied back several times.  Each pulse gives a digest line, each
eighth round a whole read's hash, and the last line the smallest cycle
count.

Then come the features CSVs: for each of the five models above and seeds 1-3,
the SHA-256 of `write_features_csv(inverse_map(gamma, generate(model, 20000,
seed)))`, and of one file of 20000 rows whose features are random float64
bit patterns (NaN, infinities, subnormals and every magnitude).

Then come `csvtext.float_chars`'s routes, one line each: the SHA-256 of the
texts of 1e5 random float32 bit patterns at 9 digits, of the same values as
float64 at 9 and at 17 digits, and of the two float columns of a `read_all`
of a 4500-cell array (the float32 noisy currents and the float64
dequantized ones).

Then come the extraction lines.  Two 2000-cycle traces are rendered from
the reference model's features, one at the default current noise and one
at a noise that makes `extract_features` exclude some cycles.  Each is
extracted as rendered (float64) and after a `.iuw` round trip (float32).
So is a shifted copy of the first trace, without its first 300 and last
400 samples: its 1998 cycles, not a multiple of `CYCLE_BLOCK`, start after
a leading partial segment and end before a trailing one.  One line gives
the SHA-256 of the features' bytes, the kept cycles and the exclusions
with their reasons; a second line gives that of the pooled high- and
low-resistance points of the limit fit.  Then the `extract --limits-out`
command runs on each trace written as `.iuw` and as a `u,i` CSV of its
float64 samples (exact 17-digit text), and a line gives its exit code and
the SHA-256 of the files it wrote: the features CSV, `.report.json` and
`limits.json` (which a failed limit fit does not write).

Then come the command lines: one per output file of each command,
giving the command's exit code and the file's SHA-256.  Each `.ssyn`, the
fitted bundle's too, is followed by one line per stored field of each
section (`paramfile.SECTIONS`), the SHA-256 of that field's bytes, so a
diff names the field that moved, such as "svar p=10 chol_u".  The commands run in
the temporary directory on relative paths, so no file names it.  `synth`
writes a corpus with a 5000-cycle trace (`params.ssyn`, `features.csv`,
`trace.iuw`, `meta.json`); `extract --limits-out` reduces that trace; `fit
-p 10,100` fits its features with those limits (`.ssyn`, `.diag.json`), as
does the fit of the fitted bundle above with the built-in reference.
`generate` samples orders 10 and 100 of the first file, and `sim` drives it
through both presets, one of them with every readout flag, and through
pulse and read scripts on more cells than one block of `csvtext` rows (the
readout and the state CSV of each).  `bench` gives its CSV rows without the
timing columns: mode, m, p, threads and ops.

Then come the stream lines: the SHA-256 of `streams.normals` on fixed keys
of 1000 streams at n = 2, 4 and 50, whole and cosine half only, with the
counters it leaves.  The counters are random 64-bit words, the last 100 of
them within 8 of 2^64 so that the keyed sums wrap.

Last come the autocovariance lines: for each of the five models
of the sweep, the SHA-256 of `svar.autocovariances(model, 30)`, its C(0..30).

The first line of all is `cli.math_fingerprint()`: two sweeps with
different fingerprints ran different `exp`, `log`, `sin` or `cos` loops, so
their lines need not compare.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from stochsyn import array, csvtext, paramfile, streams, synth
from stochsyn.array import ReadoutConfig, init_array
from stochsyn.cli import main, math_fingerprint
from stochsyn.svar import autocovariances, generate
from stochsyn.transform import inverse_map
from stochsyn.waveform import (RawTrace, extract_features, read_trace, write_features_csv,
                               write_trace_iuw)

M = 4500
ADDRESSED = 3000      # addresses drawn with repeats for the addressed pulses
READ_CELLS = 4300     # cells of the addressed reads, each once
REPEATS = 500         # repeated addresses added to the pulse naming every cell
AMPLITUDES = (-1.5, 0.9, 1.1, -1.5, 0.8, 1.5, 1.23236083984375, -1.5,
              0.95, -0.7, 1.2, 1.5, -1.5, 1.0, 1.4, -1.5)
LONG_ROUNDS = 56      # rounds of the long configuration
FEATURE_ROWS = 20000  # cycles per features CSV, more than two of its writer's blocks
FLOAT_VALUES = 100_000  # random float32 bit patterns formatted by each float route
TRACE_CYCLES = 2000   # cycles per trace of the extraction lines
TRACE_NOISES = (1e-6, 2e-5)  # current noise [A]: none excluded, and some
SHIFTED_CUT = (300, -400)  # samples kept of the shifted trace: both ends are partial segments
SIM_SCRIPT_CELLS = csvtext.BLOCK_ROWS + 300   # the script run's CSVs span two blocks
SPLIT_PART = 2048     # cells per part that the sweep sets, see the docstring
STREAMS = 1000        # streams of the stream lines, the last WRAPPING near 2^64
WRAPPING = 100
AUTOCOVARIANCE_LAGS = 30   # C(0..30) per autocovariance line, past p = 10 and short of 100
READOUTS = (("noisy12", ReadoutConfig(n_bits=12, i_min=0.0, i_max=60e-6)),
            ("clean12", ReadoutConfig(n_bits=12, i_min=0.0, i_max=60e-6, noise_enabled=False)))


def command(argv) -> int:
    """``main(argv)``'s exit code; the command's messages, which name the
    temporary directory, go to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return main(argv)


def fitted_bundle(workdir: Path):
    """Orders 10 and 100 fitted to 20000 features sampled from the reference."""
    corpus = workdir / "corpus"
    for argv in (["synth", str(corpus), "-n", "20000", "--seed", "1", "--trace-cycles", "0"],
                 ["fit", str(corpus / "features.csv"), "-o", str(workdir / "fit.ssyn"),
                  "-p", "10,100", "--diagnostics", str(workdir / "fit.diag.json")]):
        if command(argv) != 0:
            raise SystemExit(f"{argv[0]} failed")
    return paramfile.load(workdir / "fit.ssyn")


def pulse_forms(rng):
    """(name, pulse(arr, amp)) for each form an amplitude can take."""
    cells = rng.integers(0, M, ADDRESSED)
    jitter = rng.normal(0.0, 0.1, M).astype(np.float32)
    return [
        ("broadcast", lambda arr, amp: arr.apply_pulses(amp)),
        ("per_cell", lambda arr, amp: arr.apply_pulses(np.float32(amp) + jitter)),
        ("addressed", lambda arr, amp: arr.apply_pulses(amp, cells=cells)),
        ("addressed_per_cell",
         lambda arr, amp: arr.apply_pulses(np.float32(amp) + jitter[cells], cells=cells)),
    ]


def read_hash(outputs) -> str:
    h = hashlib.sha256()
    for x in outputs:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def sweep(bundles, out) -> None:
    for name, bundle, orders in bundles:
        for p in orders:
            for a in (0.0, 0.5):
                for threads in (1, 2):
                    config = f"{name} p={p} a={a} threads={threads}"
                    rng = np.random.default_rng(p * 10 + int(a * 10))
                    read_cells = rng.permutation(M)[:READ_CELLS]
                    forms = pulse_forms(rng)
                    runs = [(form, pulse, None) for form, pulse in forms]
                    runs += [(f"{forms[-1][0]} {label}", forms[-1][1], readout)
                             for label, readout in READOUTS]
                    for form, pulse, readout in runs:
                        arr = init_array(bundle, M, a=a, seed=7, p=p, threads=threads,
                                         readout=readout)
                        print(f"{config} {form} init {arr.state_digest()}", file=out)
                        for k, amp in enumerate(AMPLITUDES):
                            rep = pulse(arr, amp)
                            print(f"{config} {form} pulse {k} {amp!r} {arr.state_digest()}"
                                  f" {rep.n_addressed} {rep.n_set} {rep.n_full_reset}"
                                  f" {rep.n_partial_reset} {rep.n_noop}", file=out)
                            if k % 3 == 2:
                                print(f"{config} {form} read {k} whole"
                                      f" {read_hash(arr.read_all())}", file=out)
                                print(f"{config} {form} read {k} addressed"
                                      f" {read_hash(arr.read_all(cells=read_cells))}", file=out)
                    every = rng.permutation(np.concatenate([np.arange(M),
                                                            rng.integers(0, M, REPEATS)]))
                    amps = (np.float32(1.2) + rng.normal(0.0, 0.1, M).astype(np.float32))[every]
                    rep = arr.apply_pulses(amps, cells=every)
                    print(f"{config} every cell {arr.state_digest()} {rep.n_addressed}"
                          f" {rep.n_set} {rep.n_full_reset} {rep.n_partial_reset} {rep.n_noop}",
                          file=out)


def long_sweep(bundle, out) -> None:
    for p in (10, 100):
        for threads in (1, 2):
            config = f"long p={p} threads={threads}"
            rng = np.random.default_rng(p)
            arr = init_array(bundle, M, a=0.0, seed=9, p=p, threads=threads)
            print(f"{config} init {arr.state_digest()}", file=out)
            for k in range(LONG_ROUNDS):
                half = rng.permutation(M)[: M // 2]
                for cells, amp in ((half, -1.5), (half, 1.5), (None, -1.5), (None, 1.5)):
                    rep = arr.apply_pulses(amp, cells=cells)
                    print(f"{config} round {k} {'all' if cells is None else 'half'} {amp!r}"
                          f" {arr.state_digest()} {rep.n_set} {rep.n_full_reset}", file=out)
                if k % 8 == 7:
                    print(f"{config} read {k} {read_hash(arr.read_all())}", file=out)
            print(f"{config} min cycle {arr.cycle.min()}", file=out)


def features_sweep(bundles, path: Path, out) -> None:
    def digest(features) -> str:
        write_features_csv(features, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    for name, bundle, orders in bundles:
        for p in orders:
            for seed in (1, 2, 3):
                z = generate(bundle.model(p), FEATURE_ROWS, seed)
                print(f"features {name} p={p} seed={seed}"
                      f" {digest(inverse_map(bundle.gamma, z))}", file=out)
    bits = np.random.default_rng(3).integers(0, 1 << 64, (FEATURE_ROWS, 4), dtype=np.uint64)
    print(f"features random bits {digest(bits.view(np.float64))}", file=out)


def float_route_sweep(bundle, out) -> None:
    def digest(values, digits) -> str:
        return hashlib.sha256(b"\n".join(bytes(row[row != 0]) for row in
                                         csvtext.float_chars(values, digits))).hexdigest()

    bits = np.random.default_rng(11).integers(0, 1 << 32, FLOAT_VALUES, dtype=np.uint64)
    x = bits.astype(np.uint32).view(np.float32)
    with np.errstate(invalid="ignore"):
        x64 = x.astype(np.float64)
    print(f"float_chars float32 bits 9 {digest(x, 9)}", file=out)
    print(f"float_chars float64 of float32 bits 9 {digest(x64, 9)}", file=out)
    print(f"float_chars float64 of float32 bits 17 {digest(x64, 17)}", file=out)
    arr = init_array(bundle, M, a=0.5, seed=7, p=10)
    arr.apply_pulses(-1.5)
    i_noisy, _, i_dequantized = arr.read_all()
    print(f"float_chars read_all i_noisy {digest(i_noisy, 9)}", file=out)
    print(f"float_chars read_all i_dequantized {digest(i_dequantized, 9)}", file=out)


def file_hash(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def extraction_lines(config, result, out) -> None:
    h = hashlib.sha256(result.features.tobytes())
    h.update(result.cycles.astype(np.int64).tobytes())
    h.update(repr(result.exclusions).encode())
    print(f"{config} {len(result.exclusions)} {h.hexdigest()}", file=out)
    print(f"{config} pooled {read_hash((*result.hrs_points, *result.lrs_points))}", file=out)


def extraction_sweep(bundle, workdir: Path, out) -> None:
    features = synth.sample_features(bundle, TRACE_CYCLES, seed=5)
    iuw, csv = workdir / "trace.iuw", workdir / "trace.csv"
    feats, limits = workdir / "extracted.csv", workdir / "limits.json"
    for noise in TRACE_NOISES:
        rendered = synth.reconstruct_trace(features, bundle.conduction, noise_sigma=noise, seed=6)
        write_trace_iuw(rendered, iuw)
        with open(csv, "wb") as fh:
            fh.write(b"u,i\n")
            csvtext.write_rows(fh, len(rendered), [rendered.u, rendered.i], digits=17)
        traces = [(f"noise={noise:g}", rendered, iuw)]
        if noise == TRACE_NOISES[0]:
            cut = slice(*SHIFTED_CUT)
            shifted = RawTrace(u=rendered.u[cut], i=rendered.i[cut])
            write_trace_iuw(shifted, workdir / "shifted.iuw")
            traces.append(("shifted", shifted, workdir / "shifted.iuw"))
        for name, trace64, path in traces:
            for form, trace in (("float64", trace64), ("iuw", read_trace(path))):
                extraction_lines(f"extract {name} {form}", extract_features(trace), out)
        outputs = (feats, workdir / "extracted.csv.report.json", limits)
        for path in (csv, iuw):
            for x in outputs:
                x.unlink(missing_ok=True)
            rc = command(["extract", str(path), str(feats), "--limits-out", str(limits)])
            written = [x for x in outputs if x.exists()]
            print(f"extract cli noise={noise:g} {path.suffix[1:]}"
                  f" exit {rc} {len(written)} {file_hash(*written)}", file=out)


def field_lines(prefix, path: Path, out) -> None:
    """One line per field of a `.ssyn`: the SHA-256 of the bytes the format
    stores for it, from `paramfile.SECTIONS`' values of the bundle loaded
    without validation, so a diff names the field that moved.  The derived
    a, b, c and chol_u are the loading code's, which match the stored ones
    within the load check's 1e-10."""
    bundle = paramfile.load(path, validate=False)
    for sec in paramfile.SECTIONS:
        for values in sec.values(bundle):
            entry = f"{sec.name} {sec.key}={values[sec.key]}" if sec.key else sec.name
            for name, kind in sec.fields:
                digest = hashlib.sha256(paramfile._encode_field(kind, values[name])).hexdigest()
                print(f"{prefix} field {entry} {name} {digest}", file=out)


def command_lines(name, argv, outputs, out) -> None:
    rc = command(argv)
    for path in outputs:
        digest = file_hash(Path(path)) if Path(path).exists() else "missing"
        print(f"command {name} exit {rc} {path} {digest}", file=out)
        if path.endswith(".ssyn") and Path(path).exists():
            field_lines(f"command {name} {path}", Path(path), out)


def command_sweep(workdir: Path, out) -> None:
    with contextlib.chdir(workdir):
        command_lines("synth", ["synth", "cmd", "-n", "6000", "--seed", "2",
                                "--trace-cycles", "5000"],
                      [f"cmd/{name}" for name in ("params.ssyn", "features.csv", "trace.iuw",
                                                  "meta.json")], out)
        command_lines("extract", ["extract", "cmd/trace.iuw", "cmd/extracted.csv",
                                  "--limits-out", "cmd/limits.json"],
                      ["cmd/extracted.csv", "cmd/extracted.csv.report.json", "cmd/limits.json"],
                      out)
        command_lines("fit", ["fit", "cmd/extracted.csv", "-o", "cmd/fit.ssyn", "-p", "10,100",
                              "--conduction", "cmd/limits.json"],
                      ["cmd/fit.ssyn", "cmd/fit.ssyn.diag.json"], out)
        for path in ("fit.ssyn", "fit.diag.json"):   # the fitted bundle's
            print(f"command fit reference {path} {file_hash(Path(path))}", file=out)
        field_lines("command fit reference fit.ssyn", Path("fit.ssyn"), out)
        for p in (10, 100):
            command_lines(f"generate p={p}", ["generate", "cmd/fit.ssyn", "-n", "20000",
                                              "--seed", "3", "--order", str(p),
                                              "-o", f"cmd/gen{p}.csv"],
                          [f"cmd/gen{p}.csv"], out)
        pulses, reads = Path("cmd/pulses.csv"), Path("cmd/reads.csv")
        m = SIM_SCRIPT_CELLS
        pulses.write_text(f"step,target,u_a\n0,all,-1.5\n1,0:{m // 2},1.5\n2,5,0.9\n"
                          f"3,all,1.1\n4,100:{m // 2},-1.5\n")
        reads.write_text(f"step,target\n0,all\n1,17\n2,all\n3,{m // 3}:{m}\n4,all\n")
        sims = [("full-cycling", ["-m", "300", "--seed", "4", "--order", "10", "-a", "0.5",
                                  "--threads", "2", "--preset", "full-cycling",
                                  "--cycles", "3"]),
                ("multilevel readout", ["-m", "300", "--seed", "5", "--order", "100",
                                        "--preset", "multilevel", "--cycles", "20",
                                        "--u-read", "0.25", "--bandwidth", "4e6",
                                        "--n-bits", "7", "--i-min=-2e-6", "--i-max", "50e-6"]),
                ("script", ["-m", str(m), "--seed", "9", "--order", "10", "-a", "0.5",
                            "--threads", "2", "--pulses", str(pulses), "--reads", str(reads)])]
        for k, (name, flags) in enumerate(sims):
            files = [f"cmd/sim{k}_readout.csv", f"cmd/sim{k}_state.csv"]
            command_lines(f"sim {name}", ["sim", "cmd/fit.ssyn", *flags, "--readout-out",
                                          files[0], "--state-out", files[1]], files, out)
        bench = Path("cmd/bench.csv")
        rc = command(["bench", "cmd/fit.ssyn", "-m", "4096", "--seed", "6", "--orders", "10,100",
                      "--threads-list", "1,2", "--pulses", "3", "--reads", "3", "-o", str(bench)])
        print(f"command bench exit {rc}", file=out)
        for row in bench.read_text().splitlines() if bench.exists() else []:
            print(f"command bench {','.join(row.split(',')[:5])}", file=out)


def streams_sweep(out) -> None:
    keys = streams.stream_keys(21, np.arange(STREAMS))
    start = np.random.default_rng(21).integers(0, 1 << 64, STREAMS, dtype=np.uint64)
    start[-WRAPPING:] = np.uint64(2**64 - 8) + np.arange(WRAPPING, dtype=np.uint64) % np.uint64(8)
    for n in (2, 4, 50):
        for sines in (True, False):
            counters = start.copy()
            z = streams.normals(keys, counters, n, sines)
            print(f"streams normals n={n} sines={sines} {read_hash((z, counters))}", file=out)


def autocovariance_lines(bundles, out) -> None:
    for name, bundle, orders in bundles:
        for p in orders:
            cov = autocovariances(bundle.model(p), AUTOCOVARIANCE_LAGS)
            print(f"autocovariances {name} p={p} {read_hash((cov,))}", file=out)


def run(out=sys.stdout) -> None:
    print(f"math fingerprint {math_fingerprint()}", file=out)
    with (mock.patch.object(array, "READ_PART_CELLS", SPLIT_PART),
          mock.patch.object(array.CellArray, "_write_part", lambda self: SPLIT_PART),
          tempfile.TemporaryDirectory() as tmp):
        fitted = fitted_bundle(Path(tmp))
        reference = synth.reference_bundle()
        bundles = [("reference", reference, (1, 10, 100)), ("fitted", fitted, (10, 100))]
        sweep(bundles, out)
        long_sweep(reference, out)
        features_sweep(bundles, Path(tmp) / "features.csv", out)
        float_route_sweep(reference, out)
        extraction_sweep(reference, Path(tmp), out)
        command_sweep(Path(tmp), out)
    streams_sweep(out)
    autocovariance_lines(bundles, out)


if __name__ == "__main__":
    run()
