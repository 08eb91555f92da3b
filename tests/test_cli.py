import ast
import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr
from test_waveform import _one_row, _smoothed

import stochsyn
from stochsyn import cli, csvtext, paramfile, synth
from stochsyn.array import MAX_SEED, MAX_THREADS, CellArray, ReadoutConfig, dequantize, init_array
from stochsyn.cli import main, math_fingerprint
from stochsyn.conduction import LIMIT_PERCENTILE, U0_DEFAULT, fit_conduction_poly
from stochsyn.svar import MAX_ORDER
from stochsyn.transform import GAMMA_DEGREE
from stochsyn.waveform import (
    SMOOTH_BLOCK,
    RawTrace,
    _branch_masks,
    extract_features,
    read_features_csv,
    read_trace,
    split_cycles,
    write_trace_iuw,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", str(root), "-n", "6000", "--seed", "41", "--trace-cycles", "400"])
    assert rc == 0
    return root


def test_synth_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["synth", str(out), "-n", "500", "--seed", "77", "--trace-cycles", "50"])
        assert rc == 0
    for name in ("params.ssyn", "features.csv", "trace.iuw"):
        ha = hashlib.sha256((a / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((b / name).read_bytes()).hexdigest()
        assert ha == hb, name


def test_synth_rejects_more_trace_cycles_than_features(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["synth", str(out), "-n", "5", "--seed", "1", "--trace-cycles", "10"]) == 1
    assert "10 trace cycles from 5 feature vectors" in capsys.readouterr().err
    assert not out.exists()


def test_extract_and_flags(corpus, tmp_path):
    out = tmp_path / "f.csv"
    report = tmp_path / "rep.json"
    rc = main(["extract", str(corpus / "trace.iuw"), str(out), "--report", str(report)])
    assert rc == 0
    cycles, feats = read_features_csv(out)
    rep = json.loads(report.read_text())
    assert rep["cycles_extracted"] == feats.shape[0] == len(cycles)
    assert rep["cycles_total"] == 400


@pytest.mark.parametrize("command, source, flags", [
    ("extract", "trace.iuw", ["--min-prominence", "1e-6"]),
    ("extract", "trace.iuw", ["--set-threshold=-5e-05"]),
    ("extract", "trace.iuw", ["--no-smoothing"]),
    ("extract", "trace.iuw", ["--samples-per-cycle", "800"]),
    ("fit", "features.csv", ["--gamma-degree", "3"]),
    ("bench", "params.ssyn", ["--seed", "1", "--modes", "read"]),
    ("bench", "params.ssyn", ["--seed", "1", "-a", "0.5"]),
], ids=["min_prominence", "set_threshold", "no_smoothing", "samples_per_cycle", "gamma_degree",
        "bench_modes", "bench_scale"])
def test_removed_options_are_rejected(corpus, tmp_path, capsys, command, source, flags):
    # extraction's detection levels, its smoothing and the quantile degree
    # are constants, not options, and the cycle period comes from the sweep;
    # bench runs one schedule, both modes, on the bundle's own cells
    out = str(tmp_path / "out")
    outputs = [out] if command == "extract" else ["-o", out]
    assert main([command, str(corpus / source), *outputs, *flags]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_names_exactly_the_accepted_flags(capsys):
    # every --flag the README names is in some subcommand's --help, so a
    # deleted flag leaves the docs with the code, and every accepted one is
    # documented; pip's and --help are the exemptions
    flag = r"(?<![\w-])--[a-z][a-z0-9-]*"
    assert main(["--help"]) == 0
    commands = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    accepted = set()
    for command in commands:
        assert main([command, "--help"]) == 0
        accepted |= set(re.findall(flag, capsys.readouterr().out))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(flag, readme)) - {"--no-build-isolation"}
    assert named and named <= accepted, named - accepted
    assert accepted - {"--help"} <= named, accepted - {"--help"} - named


@pytest.mark.parametrize("pp, shift, cycles", [(800, 0, 60), (2084, 0, 60), (800, 267, 59),
                                               (1042, 0, 60)],
                         ids=["800", "2084", "800_shifted", "1042"])
def test_extract_takes_the_period_from_the_sweep(ref_bundle, tmp_path, capsys, pp, shift,
                                                 cycles):
    # with no flag every cycle is extracted and the report states the period;
    # the shifted render loses its leading partial segment.  A 1042-sample
    # render once read at a period of 2084 gave 30 cycles, each spanning two.
    feats = synth.sample_features(ref_bundle, 60, seed=21)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, samples_per_cycle=pp, seed=22)
    path = tmp_path / "t.iuw"
    write_trace_iuw(RawTrace(u=trace.u[shift:], i=trace.i[shift:]), path)
    out = tmp_path / "f.csv"
    assert main(["extract", str(path), str(out)]) == 0
    assert capsys.readouterr().out == f"extracted {cycles}/{cycles} cycles -> {out}\n"
    report = json.loads((tmp_path / "f.csv.report.json").read_text())
    assert report["period"] == pp
    assert report["cycles_total"] == report["cycles_extracted"] == cycles
    assert report["excluded"] == []
    assert read_features_csv(out)[0].tolist() == list(range(1, cycles + 1))


def _per_cycle_limits_json(trace_path) -> str:
    """`extract --limits-out`'s JSON text from per-cycle (u, i) windows, each
    taken from the branch masks of that cycle alone (`waveform._branch_masks`)
    on its own smoothing (`_smoothed`), pooled window by window: the reference."""
    trace = read_trace(trace_path)
    result = extract_features(trace)
    bounds, _ = split_cycles(trace)
    work = _smoothed(RawTrace(*trace.read(0, len(trace))))
    windows = []
    for k, (_, u_s, _, u_r) in zip(result.cycles, result.features):
        lo, hi = bounds[k]
        _, u, i = _one_row(work.u[lo:hi], work.i[lo:hi])
        m_h, m_l = _branch_masks(u, i, np.argmin(u, axis=1), np.array([u_s]), np.array([u_r]))
        windows.append(((u[m_h], i[m_h]), (u[m_l], i[m_l])))
    r_h, r_l = result.features[:, 0], result.features[:, 2]
    pools = (r_h >= np.quantile(r_h, 1.0 - LIMIT_PERCENTILE / 100.0),
             r_l <= np.quantile(r_l, LIMIT_PERCENTILE / 100.0))
    limits = {"u0": U0_DEFAULT}
    for branch, (name, degree) in enumerate((("hhrs", 5), ("llrs", 3))):
        picked = [windows[k][branch] for k in np.flatnonzero(pools[branch])]
        u, i = (np.concatenate(x) for x in zip(*picked))
        limits[name] = fit_conduction_poly(u, i, degree).tolist()
    return json.dumps(limits, indent=2)


def test_extract_limits_equal_the_per_cycle_pooling(corpus, tmp_path):
    out = tmp_path / "limits.json"
    rc = main(["extract", str(corpus / "trace.iuw"), str(tmp_path / "f.csv"),
               "--limits-out", str(out)])
    assert rc == 0
    assert out.read_bytes() == _per_cycle_limits_json(corpus / "trace.iuw").encode()


@pytest.mark.parametrize("flags, bound", [([], 28.5)], ids=["smoothing"])
def test_extract_limits_out_peak_memory_per_sample(ref_bundle, tmp_path, flags, bound):
    # The tracemalloc peak per sample of a 2000-cycle .iuw, bounded between
    # the two measured designs.  Keeping every kept cycle's branch-fit points
    # for the limit fit peaked at 30.9 B; pooling only the extreme cycles'
    # points peaked at 26.3 B with the smoothing's trace-sized cumulative sum
    # and output, and peaks at 8.9 B with every cycle's rows smoothed block
    # by block.
    feats = synth.sample_features(ref_bundle, 2000, seed=5)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=6)
    write_trace_iuw(trace, tmp_path / "t.iuw")
    argv = ["extract", str(tmp_path / "t.iuw"), str(tmp_path / "f.csv"),
            "--limits-out", str(tmp_path / "limits.json"), *flags]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * len(trace)


def _extract_peak(path, out_dir) -> int:
    """The tracemalloc peak of one `extract --limits-out` of ``path``."""
    argv = ["extract", str(path), str(out_dir / "f.csv"),
            "--limits-out", str(out_dir / "limits.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def iuw_extract_peaks(ref_bundle, tmp_path_factory):
    """The samples of a 2000- and a 4000-cycle .iuw and the tracemalloc peak
    of one `extract --limits-out` of each."""
    tmp_path = tmp_path_factory.mktemp("peaks")
    peaks, samples = [], []
    for cycles in (2000, 4000):
        feats = synth.sample_features(ref_bundle, cycles, seed=5)
        trace = synth.reconstruct_trace(feats, ref_bundle.conduction, seed=6)
        write_trace_iuw(trace, tmp_path / f"t{cycles}.iuw")
        samples.append(len(trace))
        del trace
        peaks.append(_extract_peak(tmp_path / f"t{cycles}.iuw", tmp_path))
    return samples, peaks


def test_extract_peak_grows_by_little_more_than_the_file(iuw_extract_peaks):
    # Doubling a .iuw from 2000 to 4000 cycles adds 8 B per added sample of
    # file.  Smoothing the whole trace in one pass added 17 B more (its int8
    # half-widths, float64 cumulative sum and output: 24.9 B in all);
    # smoothing the cycles' rows block by block holds none of them for the
    # whole trace.
    samples, peaks = iuw_extract_peaks
    assert (peaks[1] - peaks[0]) / (samples[1] - samples[0]) < 10.0


def test_extract_peak_does_not_grow_with_an_iuw(iuw_extract_peaks):
    # Holding the file's float32 pairs took 8.1 B per added sample; reading
    # each block from the file leaves the per-cycle results, about 0.1 B.
    samples, peaks = iuw_extract_peaks
    assert (peaks[1] - peaks[0]) / (samples[1] - samples[0]) < 1.0


@pytest.mark.parametrize("suffix", [".iuw", ".csv"])
def test_extract_failed_limit_fit_names_its_pool(ref_bundle, tmp_path, capsys, suffix):
    # At 2e-5 A of current noise the cycles at the r_h extreme are those
    # whose noisy fits put i(u0) nearest zero, and their pooled high-resistance
    # fit goes negative at u0: the error says which fit failed and on what.
    feats = synth.sample_features(ref_bundle, 2000, seed=5)
    trace = synth.reconstruct_trace(feats, ref_bundle.conduction, noise_sigma=2e-5, seed=6)
    path = tmp_path / f"t{suffix}"
    if suffix == ".iuw":
        write_trace_iuw(trace, path)
    else:
        with open(path, "wb") as fh:
            fh.write(b"u,i\n")
            csvtext.write_rows(fh, len(trace), [trace.u, trace.i], digits=17)
    rc = main(["extract", str(path), str(tmp_path / "f.csv"),
               "--limits-out", str(tmp_path / "limits.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(rf"limit fit of the cycles at the {LIMIT_PERCENTILE:g} % extremes"
                     r" \(\d+ HRS cycles, \d+ points; \d+ LRS cycles, \d+ points\):"
                     r" need i_llrs\(u0\) > i_hhrs\(u0\) > 0", err), err
    assert not (tmp_path / "limits.json").exists()


def test_extract_missing_file_exits_2(tmp_path):
    rc = main(["extract", str(tmp_path / "nope.iuw"), str(tmp_path / "o.csv")])
    assert rc == 2


@pytest.mark.parametrize("name, content, why", [
    ("short.iuw", b"IUW0\x01\x00", "truncated header in"),
    ("one_column.csv", b"u,i\n0.1\n0.2\n", "need 2 columns (u, i) in"),
], ids=["short_iuw_header", "one_column_csv"])
def test_extract_hostile_trace_exits_1(tmp_path, capsys, name, content, why):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert why in err and name in err


def test_extract_reads_a_csv_trace_as_its_iuw(corpus, tmp_path):
    # the first 300 cycles of the corpus trace, as .iuw and as a CSV of the
    # same float32 values written with repr
    trace = read_trace(corpus / "trace.iuw")
    n = 300 * synth.SAMPLES_PER_CYCLE
    part = RawTrace(*trace.read(0, n))
    write_trace_iuw(part, tmp_path / "t.iuw")
    (tmp_path / "t.csv").write_text("u,i\n" + "".join(
        f"{u!r},{i!r}\n" for u, i in zip(part.u.tolist(), part.i.tolist())))
    for name in ("t.iuw", "t.csv"):
        assert main(["extract", str(tmp_path / name), str(tmp_path / f"{name}.features"),
                     "--limits-out", str(tmp_path / f"{name}.limits")]) == 0
    for suffix in ("features", "features.report.json", "limits"):
        want = (tmp_path / f"t.iuw.{suffix}").read_bytes()
        assert (tmp_path / f"t.csv.{suffix}").read_bytes() == want, suffix
    assert len(want) > 0


def _cosine_trace(cycles: float, period: int = 1042) -> str:
    """A CSV trace whose voltage peaks at the start of every period and whose
    current is zero, so no cycle has an abrupt transition."""
    u = 1.5 * np.cos(2 * np.pi * np.arange(int(cycles * period)) / period)
    return "u,i\n" + "".join(f"{v!r},0.0\n" for v in u.tolist())


@pytest.mark.parametrize("text, why", [
    ("u,i\n" + "0.1,0.0\n" * 100,
     "no cycle period found: fewer than two upward voltage sweeps in samples 0..99"),
    ("u,i\n" + "0.1,1e-06\n" * 5000,
     "no cycle period found: fewer than two upward voltage sweeps in samples 0..4999"),
    (_cosine_trace(1.5),
     "no cycle period found: fewer than two upward voltage sweeps in samples 0..1562"),
    (_cosine_trace(4), "4 of 4 cycles failed extraction;"
                       " most often (4 cycles): no crossing of -5e-05 A"),
], ids=["shorter_than_a_cycle", "flat_voltage", "one_and_a_half_periods",
        "every_cycle_excluded"])
def test_extract_fails_on_a_trace_without_usable_cycles(tmp_path, capsys, text, why):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not (tmp_path / "o.csv").exists()


_EXTRACT_UNDER_LIMIT = r"""
import resource, sys
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from stochsyn.cli import main
sys.exit(main(["extract", sys.argv[1], sys.argv[2]]))
"""


def test_extract_rejects_an_iuw_count_beyond_the_file_without_allocating(tmp_path):
    # the header claims 2**32 - 1 pairs (32 GiB) over 20 bytes of data
    path = tmp_path / "huge.iuw"
    path.write_bytes(b"IUW0" + b"\xff" * 4 + bytes(20))
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _EXTRACT_UNDER_LIMIT, str(path),
                          str(tmp_path / "o.csv")], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 1 and "Traceback" not in run.stderr, run.stderr
    assert "4294967295 pairs" in run.stderr and "huge.iuw" in run.stderr


def _tiled_trace(corpus, path, copies):
    """The corpus trace repeated `copies` times, written as .iuw."""
    trace = read_trace(corpus / "trace.iuw")
    u, i = trace.read(0, len(trace))
    write_trace_iuw(RawTrace(u=np.tile(u, copies), i=np.tile(i, copies)), path)
    return len(trace) * copies


def test_extract_rejects_an_iuw_count_below_the_file(corpus, tmp_path, capsys):
    # an 8000-cycle trace whose header counts half its pairs
    path = tmp_path / "half.iuw"
    pairs = _tiled_trace(corpus, path, 20)
    with open(path, "r+b") as fh:
        fh.seek(4)
        fh.write((pairs // 2).to_bytes(4, "little"))
    assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{pairs // 2} pairs" in err and "half.iuw" in err
    assert not (tmp_path / "o.csv").exists()


def test_extract_rejects_non_finite_samples(corpus, tmp_path, capsys):
    # 100 NaN currents in cycle 1000 of a 2000-cycle trace fail loudly,
    # naming the first, not in the cycles smoothed over them.  The file is
    # checked SMOOTH_BLOCK samples at a time, so a NaN voltage at the first
    # sample of a block and a NaN current at the last sample, in the last,
    # partial block, are named too.
    path = tmp_path / "nan.iuw"
    n = _tiled_trace(corpus, path, 5)
    trace = read_trace(path)
    clean = trace.read(0, n)
    assert n % SMOOTH_BLOCK
    for first, count, channel in ((1000 * synth.SAMPLES_PER_CYCLE + 300, 100, 1),
                                  (3 * SMOOTH_BLOCK, 1, 0), (n - 1, 1, 1)):
        u, i = (c.copy() for c in clean)
        (u, i)[channel][first:first + count] = np.nan
        write_trace_iuw(RawTrace(u=u, i=i), path)
        assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert f"sample {first} is not finite" in err and "nan.iuw" in err


def test_extract_fails_on_an_iuw_cut_short_after_it_was_opened(corpus, tmp_path, capsys,
                                                              monkeypatch):
    # the header and size checks pass when the file is opened; a file cut to
    # 50 of its 400 cycles before extraction reads it fails the first read
    # past the cut, the period search's first SMOOTH_BLOCK samples, naming the
    # file and the range
    path = tmp_path / "cut.iuw"
    path.write_bytes((corpus / "trace.iuw").read_bytes())
    open_trace = cli.waveform.read_trace

    def open_then_cut(*args, **kwargs):
        trace = open_trace(*args, **kwargs)
        os.truncate(path, 8 + 8 * 50 * synth.SAMPLES_PER_CYCLE)
        return trace

    monkeypatch.setattr(cli.waveform, "read_trace", open_then_cut)
    assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert f"cut.iuw: samples 0..{SMOOTH_BLOCK - 1} cut short at {50 * 1042}" in err, err
    assert not (tmp_path / "o.csv").exists()


def test_extract_fails_on_an_iuw_replaced_after_it_was_opened(corpus, tmp_path, capsys,
                                                             monkeypatch):
    # after ten reads a copy of the trace with its current negated, of the
    # same length, is renamed over it: the next read, which would take the
    # copy's samples, fails naming the file
    path = tmp_path / "swapped.iuw"
    data = (corpus / "trace.iuw").read_bytes()
    path.write_bytes(data)
    pairs = np.frombuffer(data, dtype="<f4", offset=8).reshape(-1, 2) * np.float32([1, -1])
    negated = tmp_path / "negated.iuw"
    negated.write_bytes(data[:8] + pairs.astype("<f4").tobytes())
    read = cli.waveform.IuwTrace.read
    reads = []

    def read_then_replace(self, lo, hi):
        reads.append((lo, hi))
        if len(reads) == 11:
            os.replace(negated, path)
        return read(self, lo, hi)

    monkeypatch.setattr(cli.waveform.IuwTrace, "read", read_then_replace)
    assert main(["extract", str(path), str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    lo, hi = reads[10]
    assert (f"swapped.iuw: replaced or written since it was opened"
            f" (read of samples {lo}..{hi - 1})") in err, err
    assert len(reads) == 11
    assert not (tmp_path / "o.csv").exists()


_SCIPY_MODULES = ("sorted(name for name in sys.modules"
                  " if name == 'scipy' or name.startswith('scipy.'))")


def _fresh_python(code, *args):
    """Standard output of ``code`` run in a new interpreter that imports this
    checkout's stochsyn."""
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: the runtime needs numpy alone.  `fit_map`
    # imports `statistics` (which loads `decimal` and `fractions`) when it
    # runs, so no other command pays for them at start
    out = _fresh_python(f"import sys, stochsyn.cli; print({_SCIPY_MODULES});"
                        " print([m for m in ('statistics', 'decimal', 'fractions')"
                        " if m in sys.modules])")
    assert out.strip().splitlines() == ["[]", "[]"]


def test_no_command_loads_scipy(tmp_path):
    # every command, `fit` among them, in one interpreter: `fit`'s normal
    # quantiles come from the standard library's `NormalDist`, not from
    # scipy.  The sample quantiles of `extract`'s limit pools and of `fit`'s
    # map come from `conduction.quantile`, so numpy.ma, which np.quantile
    # imports, stays unloaded too
    code = f"""
import sys
from stochsyn.cli import main
d = sys.argv[1]
for argv in (["synth", d + "/c", "-n", "1500", "--seed", "3", "--trace-cycles", "60"],
             ["extract", d + "/c/trace.iuw", d + "/x.csv"],
             ["fit", d + "/c/features.csv", "-o", d + "/f.ssyn", "-p", "2"],
             ["generate", d + "/f.ssyn", "-n", "100", "--seed", "4", "-o", d + "/g.csv"],
             ["sim", d + "/f.ssyn", "-m", "8", "--seed", "5", "--preset", "multilevel",
              "--cycles", "2", "--readout-out", d + "/r.csv", "--state-out", d + "/s.csv"],
             ["bench", d + "/f.ssyn", "-m", "8", "--seed", "6", "--orders", "2",
              "--pulses", "1", "--reads", "1", "-o", d + "/b.csv"]):
    assert main(argv) == 0, argv
print({_SCIPY_MODULES})
print("numpy.ma" in sys.modules)
"""
    out = _fresh_python(code, str(tmp_path))
    assert out.strip().splitlines()[-2:] == ["[]", "False"]


def test_fit_generate_pipeline(corpus, tmp_path):
    limits = tmp_path / "limits.json"
    feats_x = tmp_path / "fx.csv"
    rc = main(["extract", str(corpus / "trace.iuw"), str(feats_x),
               "--limits-out", str(limits)])
    assert rc == 0

    params = tmp_path / "fit.ssyn"
    rc = main(["fit", str(corpus / "features.csv"), "-o", str(params),
               "-p", "2", "--conduction", str(limits)])
    assert rc == 0
    with open(str(params) + ".diag.json") as fh:
        diag = json.load(fh)
    assert "2" in diag["orders"]
    assert diag["orders"]["2"]["spectral_radius"] < 1.0
    bundle = paramfile.load(params)
    assert sorted(bundle.svar) == [2]

    out = tmp_path / "gen.csv"
    rc = main(["generate", str(params), "-n", "1000", "--seed", "5",
               "-o", str(out), "--order", "2"])
    assert rc == 0
    _, gen = read_features_csv(out)
    assert gen.shape == (1000, 4)
    # deterministic output file for a fixed seed
    out2 = tmp_path / "gen2.csv"
    main(["generate", str(params), "-n", "1000", "--seed", "5",
          "-o", str(out2), "--order", "2"])
    assert out.read_bytes() == out2.read_bytes()


def test_fit_supports_order_100(corpus, tmp_path):
    params = tmp_path / "p100.ssyn"
    rc = main(["fit", str(corpus / "features.csv"), "-o", str(params), "-p", "100"])
    assert rc == 0
    assert sorted(paramfile.load(params).svar) == [100]


def test_fit_bits_do_not_depend_on_the_blas_thread_count(corpus, tmp_path):
    # every least-squares solve and product of `extract` and `fit` is a
    # fixed-order einsum and the spectral radius is rounded, so no file they
    # write may move with OPENBLAS_NUM_THREADS (`fit` at order 100 too)
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    outputs = ["x.csv", "x.csv.report.json", "limits.json", "fit.ssyn", "fit.ssyn.diag.json"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv in (["extract", corpus / "trace.iuw", out / "x.csv",
                      "--limits-out", out / "limits.json"],
                     ["fit", corpus / "features.csv", "-o", out / "fit.ssyn", "-p", "10,100"]):
            subprocess.run([sys.executable, "-m", "stochsyn.cli", *map(str, argv)], env=env,
                           capture_output=True, check=True)
        written.append([(out / name).read_bytes() for name in outputs])
    for name, one, two in zip(outputs, *written):
        assert one == two, f"{name} differs between 1 and 2 BLAS threads"


class _Forbidden(Exception):
    pass


def test_extract_and_fit_call_no_lapack_solver_or_np_cov(corpus, tmp_path, monkeypatch):
    # every fit goes through `conduction.normal_solver`, and every covariance
    # factor and positive-definiteness gate through `conduction.cholesky`; of
    # LAPACK the commands keep only the rounded spectral radius (eigvals)
    def forbidden(*args, **kwargs):
        raise _Forbidden("called")

    for module, name in ((np.linalg, "lstsq"), (np.linalg, "solve"), (np.linalg, "eigh"),
                         (np.linalg, "inv"), (np.linalg, "cholesky"), (np.linalg, "eigvalsh"),
                         (np.polynomial.polynomial, "polyfit"), (np, "cov")):
        monkeypatch.setattr(module, name, forbidden)
    limits, params = tmp_path / "limits.json", str(tmp_path / "fit.ssyn")
    for argv in (["synth", str(tmp_path / "c"), "-n", "1000", "--seed", "1",
                  "--trace-cycles", "20"],
                 ["extract", str(corpus / "trace.iuw"), str(tmp_path / "x.csv"),
                  "--limits-out", str(limits)],
                 ["fit", str(corpus / "features.csv"), "-o", params, "-p", "10,100",
                  "--conduction", str(limits)],
                 ["generate", params, "-n", "100", "--seed", "1", "-o", str(tmp_path / "g.csv")],
                 ["sim", params, "-m", "16", "--seed", "1", "-a", "0.5", "--preset", "multilevel",
                  "--cycles", "2", "--readout-out", str(tmp_path / "r.csv"),
                  "--state-out", str(tmp_path / "s.csv")],
                 ["bench", params, "-m", "64", "--seed", "1", "--orders", "10,100",
                  "--pulses", "1", "--reads", "1", "-o", str(tmp_path / "b.csv")]):
        assert main(argv) == 0, argv[0]


def test_the_package_asks_lapack_only_for_eigvals():
    # a static backstop for the paths that the test above does not run
    found = []
    for path in sorted(Path(stochsyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in (
                    "np.linalg", "numpy.linalg") and node.attr != "eigvals":
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "linalg" in f"{getattr(node, 'module', '')}.{alias.name}"
                    for alias in node.names):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def _package_imports():
    """The package modules that each package module imports.  The package
    imports itself relatively: `from .x import ...` or `from . import x`."""
    imports = {}
    for path in Path(stochsyn.__file__).parent.glob("*.py"):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[path.stem].update([node.module] if node.module else
                                          [a.name for a in node.names])
    return imports


def test_every_package_module_has_a_caller_in_the_package():
    # a module that only `__init__` and the tests import is test code and
    # belongs under tests/; `cli` is the entry point
    imports = _package_imports()
    called = set().union(*(deps - {name} for name, deps in imports.items() if name != "__init__"))
    assert sorted(imports.keys() - called - {"__init__", "cli"}) == []


def test_the_engine_imports_no_extraction_or_command_code():
    # the model layers and the array engine run without the trace reader,
    # the text codec, the corpus builder or the command line
    imports = _package_imports()
    banned, found = {"waveform", "csvtext", "synth", "cli"}, {}
    for root in ("conduction", "streams", "svar", "transform", "array", "paramfile"):
        seen, todo = set(), [root]
        while todo:
            for dep in imports[todo.pop()] - seen:
                seen.add(dep)
                todo.append(dep)
        if seen & banned:
            found[root] = sorted(seen & banned)
    assert found == {}


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def test_a_command_leaves_no_freed_heap_top_resident(corpus, tmp_path):
    # Large frees raise glibc's mmap and trim thresholds, so later arrays,
    # extract's block arrays among them, come from the heap, and without a
    # trim their freed top (33 MiB after the tests before this one) stays
    # resident under the next command's peak.
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        pytest.skip("needs glibc's mallinfo2")
    mallinfo2.restype = _Mallinfo2
    assert main(["fit", str(corpus / "features.csv"), "-o", str(tmp_path / "p.ssyn"),
                 "-p", "100"]) == 0
    assert main(["extract", str(corpus / "trace.iuw"), str(tmp_path / "f.csv")]) == 0
    assert mallinfo2().keepcost < 1 << 20


def test_fit_falls_back_one_degree(corpus, tmp_path, capsys):
    # the corpus' r_h quantiles take no monotone degree-5 polynomial, but a
    # degree-4 one
    params = tmp_path / "d4.ssyn"
    assert main(["fit", str(corpus / "features.csv"), "-o", str(params), "-p", "2"]) == 0
    coeffs = paramfile.load(params).gamma.coeffs
    assert coeffs.shape == (4, GAMMA_DEGREE)   # degree 4, unpadded
    assert np.any(coeffs[:, -1] != 0.0)
    diag = json.loads(Path(str(params) + ".diag.json").read_text())
    assert (diag["gamma_degree_requested"], diag["gamma_degree_used"]) == (GAMMA_DEGREE, 4)
    assert len(diag["gamma_fallbacks"]) == 1
    assert diag["gamma_fallbacks"][0].startswith("degree-5 quantile fit not monotone")
    assert "warning: degree-5 quantile fit not monotone" in capsys.readouterr().err


def test_fit_prints_its_fallbacks_when_it_fails(tmp_path, capsys):
    # r_h from two well-separated modes: no quantile polynomial of degree 5,
    # 4 or 3 is monotone
    rng = np.random.default_rng(0)
    n = 2000
    modes = np.where(rng.random(n) < 0.5, 1e4, 1e5)
    feats = np.column_stack([modes * np.exp(0.05 * rng.standard_normal(n))]
                            + [c * np.exp(0.1 * rng.standard_normal(n)) for c in (0.8, 1e3, 0.6)])
    path = tmp_path / "bimodal.csv"
    cli.waveform.write_features_csv(feats, path)
    assert main(["fit", str(path), "-o", str(tmp_path / "b.ssyn")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: degree-5 quantile fit not monotone (r_h)")
    assert err[1].startswith("warning: degree-4 quantile fit not monotone (r_h)")
    assert err[2].startswith("error: quantile polynomial for 'r_h' not increasing")
    # fit takes no degree: the advice is only what the command line can do
    assert err[2].endswith("; fit a features file with more cycles")
    # the diagnostics record the same fallbacks and error; no parameter file is written
    diag = json.loads((tmp_path / "b.ssyn.diag.json").read_text())
    assert diag["gamma_fallbacks"] == [line.removeprefix("warning: ") for line in err[:2]]
    assert diag["error"] == err[2].removeprefix("error: ")
    assert not (tmp_path / "b.ssyn").exists()


@pytest.mark.parametrize("limits, why", [
    ({"u0": 0.2, "hhrs": [0.0, 1e-4]}, "missing field 'llrs'"),
    ({"u0": "x", "hhrs": [0.0, 1e-4], "llrs": [0.0, 2e-4]}, "field 'u0' is not a finite number"),
    ({"u0": 0.2, "hhrs": [0.0, None], "llrs": [0.0, 2e-4]},
     "field 'hhrs' is not a list of finite numbers"),
    ({"u0": 0.2, "hhrs": [1.0, 1e-4], "llrs": [0.0, 2e-4]}, "hhrs constant term must be 0 A"),
    ([], "missing field 'u0'"),
    (b'{"u0": 1' + b"0" * 400 + b', "hhrs": [0, 1e-4], "llrs": [0, 2e-4]}',
     "field 'u0' is not a finite number"),
    (b"[" * 100_000 + b"]" * 100_000, "not JSON"),
    (b'{"u0": 0.2, "hhrs": "\xff"}', "not JSON"),
    ({"u0": "0.2", "hhrs": [0.0, 1e-4], "llrs": [0.0, 2e-4]}, "field 'u0' is not a finite number"),
    ({"u0": True, "hhrs": [0.0, 1e-4], "llrs": [0.0, 2e-4]}, "field 'u0' is not a finite number"),
    ({"u0": 0.2, "hhrs": ["0", "1e-4"], "llrs": [0.0, 2e-4]},
     "field 'hhrs' is not a list of finite numbers"),
    ({"u0": 0.2, "hhrs": [0.0, 1e-4], "llrs": [0.0, True]},
     "field 'llrs' is not a list of finite numbers"),
    ({"u0": 0.25, "hhrs": [0.0, 1e-4], "llrs": [0.0, 2e-4]},
     f"field 'u0' is 0.25, not the {U0_DEFAULT} V at which extraction defines r_h and r_l"),
], ids=["missing", "text", "null", "constant_term", "not_an_object", "huge_integer",
        "deep_nesting", "not_utf8", "numeric_text", "boolean", "text_list", "boolean_in_list",
        "other_u0"])
def test_fit_rejects_a_bad_limits_file_naming_it(corpus, tmp_path, capsys, limits, why):
    path = tmp_path / "limits.json"
    path.write_bytes(limits if isinstance(limits, bytes) else json.dumps(limits).encode())
    rc = main(["fit", str(corpus / "features.csv"), "-o", str(tmp_path / "x.ssyn"),
               "-p", "2", "--conduction", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}: {why}" in err


@pytest.mark.parametrize("argv", [
    ["synth", "{file}", "-n", "5", "--seed", "1"],
    ["extract", "{corpus}/trace.iuw", "{file}/f.csv"],
    ["generate", "{corpus}/params.ssyn", "-n", "5", "--seed", "1", "-o", "{file}/g.csv"],
    ["fit", "{corpus}/features.csv", "-o", "{file}/f.ssyn", "-p", "1"],
    ["sim", "{corpus}/params.ssyn", "-m", "4", "--seed", "1", "--preset", "multilevel",
     "--cycles", "1", "--readout-out", "{file}/r.csv", "--state-out", "{file}/s.csv"],
    ["bench", "{corpus}/params.ssyn", "-m", "4", "--seed", "1", "--pulses", "1", "--reads", "1",
     "-o", "{file}/b.csv"],
], ids=["synth_into_a_file", "extract_under_a_file", "generate_under_a_file",
        "fit_under_a_file", "sim_under_a_file", "bench_under_a_file"])
def test_an_os_error_is_an_io_error(corpus, tmp_path, capsys, argv):
    # FileExistsError and NotADirectoryError exit 2 like a missing file does
    file = tmp_path / "file"
    file.write_text("x")
    assert main([a.format(corpus=corpus, file=file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and str(file) in err
    assert "Traceback" not in err
    assert file.read_text() == "x"


def test_fit_reads_the_limits_file_before_fitting(tmp_path, capsys):
    # 999 rows are too few to fit; the bad limits file must be the error
    feats = tmp_path / "short.csv"
    cli.waveform.write_features_csv(np.full((999, 4), 2.0), feats)
    limits = tmp_path / "limits.json"
    limits.write_text(json.dumps({"u0": 0.2, "hhrs": [0.0, 1e-4]}))
    rc = main(["fit", str(feats), "-o", str(tmp_path / "x.ssyn"), "--conduction", str(limits)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {limits}: missing field 'llrs'\n"


@pytest.mark.parametrize("rows", ["all", "one"])
def test_fit_rejects_features_rows_of_another_width(corpus, tmp_path, capsys, rows):
    lines = (corpus / "features.csv").read_text().splitlines()
    wide = [line + ",7" for line in lines[1:]] if rows == "all" else \
        lines[1:5] + [lines[5] + ",7"] + lines[6:]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join([lines[0], *wide]) + "\n")
    rc = main(["fit", str(path), "-o", str(tmp_path / "x.ssyn"), "-p", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    if rows == "all":
        assert "need 5 columns (cycle, r_h, u_s, r_l, u_r)" in err and "got 6" in err
    assert not (tmp_path / "x.ssyn").exists()


def test_fit_usage_errors(corpus, tmp_path):
    rc = main(["fit", str(corpus / "features.csv"), "-o", str(tmp_path / "x.ssyn"),
               "-p", "0"])
    assert rc == 2
    rc = main(["fit", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "x.ssyn")])
    assert rc == 2


def test_fit_order_above_max_order_is_a_usage_error(corpus, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("fit read its features before it checked -p")

    monkeypatch.setattr(cli.waveform, "read_features_csv", no_work)
    assert main(["fit", str(corpus / "features.csv"), "-o", str(tmp_path / "x.ssyn"),
                 "-p", f"10,{MAX_ORDER + 1}"]) == 2
    assert f"need integers in 1..{MAX_ORDER}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["0", str(MAX_ORDER + 1)])
@pytest.mark.parametrize("command", ["generate", "sim", "bench"])
def test_order_options_outside_one_to_max_order_are_usage_errors(
        corpus, tmp_path, monkeypatch, capsys, command, order):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} loaded its parameters before it checked the order")

    monkeypatch.setattr(cli.paramfile, "load", no_work)
    argv = {"generate": ["-n", "10", "-o", str(tmp_path / "g.csv"), "--order", order],
            "sim": ["-m", "8", "--preset", "multilevel", "--order", order],
            "bench": ["-m", "8", "--orders", f"10,{order}", "-o", str(tmp_path / "b.csv")]}
    assert main([command, str(corpus / "params.ssyn"), "--seed", "1", *argv[command]]) == 2
    assert f"need integers in 1..{MAX_ORDER}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_names_a_feature_with_no_spread(corpus, tmp_path, capsys):
    # a constant feature has no quantile map at any degree: fit says which
    # one, before any polynomial fit, so no degree fallback is tried
    cycles, features = read_features_csv(corpus / "features.csv")
    features[:, 3] = 0.7
    flat = tmp_path / "flat.csv"
    cli.waveform.write_features_csv(features, flat, cycles)
    out = tmp_path / "fit.ssyn"
    assert main(["fit", str(flat), "-o", str(out), "-p", "10"]) == 1
    err = capsys.readouterr().err
    assert "'u_r' has no spread" in err and "warning" not in err, err
    diag = json.loads((tmp_path / "fit.ssyn.diag.json").read_text())
    assert diag["gamma_fallbacks"] == [] and "'u_r'" in diag["error"]
    assert not out.exists()


def test_synth_checks_its_outputs_before_any_work(tmp_path, capsys):
    out = tmp_path / "outdir"
    (out / "trace.iuw").mkdir(parents=True)
    assert main(["synth", str(out), "-n", "20000", "--seed", "1"]) == 2
    assert "trace.iuw" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["trace.iuw"]


def test_generate_n_zero_header_only(corpus, tmp_path):
    out = tmp_path / "empty.csv"
    rc = main(["generate", str(corpus / "params.ssyn"), "-n", "0", "--seed", "1",
               "-o", str(out), "--order", "1"])
    assert rc == 0
    assert out.read_text().strip() == "cycle,r_h,u_s,r_l,u_r"


def test_generate_and_sim_share_the_default_order(tmp_path):
    # no order 10 stored: both commands take the highest order, here 3
    params = tmp_path / "p13.ssyn"
    paramfile.save(synth.reference_bundle(orders=(1, 3)), params)
    outs = []
    for extra in ([], ["--order", "3"]):
        out = tmp_path / f"gen{len(extra)}.csv"
        assert main(["generate", str(params), "-n", "200", "--seed", "4", "-o", str(out),
                     *extra]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert init_array(paramfile.load(params), 4, seed=1).p == 3


def test_generate_and_sim_name_a_missing_order_alike(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    params = str(corpus / "params.ssyn")
    errors = []
    for argv in (["generate", params, "-n", "5", "--seed", "1", "-o", "g.csv"],
                 ["sim", params, "-m", "8", "--seed", "1", "--preset", "multilevel"]):
        assert main([*argv, "--order", "5"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: no order-5 model (available: [1, 10, 100])\n"] * 2


def test_generate_seed_required(corpus, tmp_path):
    rc = main(["generate", str(corpus / "params.ssyn"), "-n", "10",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_the_parameter_file_comes_only_from_the_command_line(corpus, tmp_path, monkeypatch,
                                                             capsys):
    # STOCHSYN_PARAMS, once a fallback, names a valid file and does not stand in for it
    monkeypatch.setenv("STOCHSYN_PARAMS", str(corpus / "params.ssyn"))
    monkeypatch.chdir(tmp_path)
    for argv in (["generate", "-n", "5", "--seed", "2", "-o", "g.csv", "--order", "1"],
                 ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel", "--cycles", "1"],
                 ["bench", "-m", "8", "--seed", "1", "--pulses", "1", "--reads", "1",
                  "-o", "b.csv"]):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sim_m_zero_usage_error(corpus, tmp_path):
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "0", "--seed", "1",
               "--preset", "multilevel"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel", "--pulses", "nonexistent.csv"],
    ["sim", "-m", "8", "--seed", "1"],
    ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel", "--reads", "nonexistent.csv"],
    ["sim", "-m", "8", "--seed", "1", "--pulses", "nonexistent.csv", "--cycles", "2"],
    ["generate", "-n", "5", "--seed", "-1", "-o", "g.csv"],
    ["synth", "-n", "5", "--seed", "-1"],
    ["sim", "-m", "8", "--seed", str(MAX_SEED + 1), "--preset", "multilevel"],
    ["bench", "-m", "64", "--seed", "-1", "-o", "bench.csv"],
    ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel", "--threads", "0"],
    ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel",
     "--threads", str(MAX_THREADS + 1)],
    ["bench", "-m", "64", "--seed", "1", "--threads-list", "0", "-o", "bench.csv"],
    ["bench", "-m", "64", "--seed", "1", "--threads-list", f"1,{MAX_THREADS + 1}",
     "-o", "bench.csv"],
], ids=["preset_and_pulses", "no_schedule", "preset_and_reads",
        "pulses_and_cycles", "generate_negative_seed",
        "synth_negative_seed", "sim_seed_past_64_bits", "bench_negative_seed",
        "zero_threads", "threads_past_the_bound", "zero_in_threads_list",
        "threads_list_past_the_bound"])
def test_usage_errors_exit_2_before_any_work(corpus, tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a usage error reached init_array")

    monkeypatch.setattr(cli, "init_array", no_work)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(corpus / "params.ssyn"), *argv[1:]]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["fit", "FEATURES", "-o", "afile/p.ssyn"],
    ["fit", "FEATURES", "-o", "p.ssyn", "--diagnostics", "afile/d.json"],
    ["fit", "FEATURES", "-o", "adir"],
    ["bench", "PARAMS", "-m", "8", "--seed", "1", "-o", "afile/b.csv"],
    ["sim", "PARAMS", "-m", "8", "--seed", "1", "--preset", "multilevel",
     "--readout-out", "afile/r.csv"],
    ["sim", "PARAMS", "-m", "8", "--seed", "1", "--preset", "multilevel",
     "--readout-out", "r.csv", "--state-out", "adir"],
    ["extract", "TRACE", "afile/f.csv"],
    ["extract", "TRACE", "f.csv", "--report", "afile/r.json"],
    ["extract", "TRACE", "f.csv", "--limits-out", "afile/l.json"],
    ["generate", "PARAMS", "-n", "10", "--seed", "1", "-o", "afile/g.csv"],
    ["sim", "PARAMS", "-m", "8", "--seed", "1", "--preset", "multilevel",
     "--readout-out", "x.csv", "--state-out", "x.csv"],
    ["fit", "FEATURES", "-o", "x", "--diagnostics", "x"],
    ["generate", "PARAMS", "-n", "10", "--seed", "1", "-o", "PARAMS"],
    ["extract", "TRACE", "TRACE"],
    ["extract", "alink", "f.csv", "--report", "afile"],
    ["sim", "PARAMS", "-m", "8", "--seed", "1", "--pulses", "afile",
     "--state-out", "adir/../afile"],
    ["fit", "FEATURES", "-o", "p.ssyn", "--conduction", "afile", "--diagnostics", "afile"],
    ["bench", "PARAMS", "-m", "8", "--seed", "1", "-o", "PARAMS"],
], ids=["fit_output", "fit_diagnostics", "fit_output_a_directory", "bench_output",
        "sim_readout", "sim_state_a_directory", "extract_features", "extract_report",
        "extract_limits", "generate_output", "sim_readout_is_state", "fit_diagnostics_is_output",
        "generate_output_is_params", "extract_output_is_trace",
        "extract_report_is_a_hard_link_to_the_trace", "sim_state_is_pulses_by_another_path",
        "fit_diagnostics_is_conduction", "bench_output_is_params"])
def test_unwritable_output_exits_2_before_any_work(corpus, tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command worked before it checked its output paths")

    monkeypatch.setattr(cli, "init_array", no_work)
    monkeypatch.setattr(cli, "fit_map_with_fallback", no_work)
    monkeypatch.setattr(cli.waveform, "read_trace", no_work)
    monkeypatch.setattr(cli, "svar_generate", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a regular file\n")
    os.link(tmp_path / "afile", tmp_path / "alink")
    (tmp_path / "adir").mkdir()
    inputs = {"FEATURES": str(corpus / "features.csv"), "PARAMS": str(corpus / "params.ssyn"),
              "TRACE": str(corpus / "trace.iuw")}
    assert main([inputs.get(a, a) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err
    # the paths checked before the failing one are not left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "alink"]
    assert (tmp_path / "afile").read_text() == "a regular file\n"


def test_sim_full_cycling_preset(corpus, tmp_path):
    ro = tmp_path / "ro.csv"
    st = tmp_path / "st.csv"
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "8", "--seed", "3",
               "--preset", "full-cycling", "--cycles", "5", "--order", "10",
               "--readout-out", str(ro), "--state-out", str(st)])
    assert rc == 0
    lines = ro.read_text().strip().splitlines()
    assert lines[0] == "step,cell,i_noisy,code,i_dequant"
    assert len(lines) == 1 + 5 * 30 * 8  # a read of all cells after every pulse
    codes = np.array([int(l.split(",")[3]) for l in lines[1:]])
    assert codes.min() >= 0 and codes.max() <= 15  # 4-bit window from defaults
    state = st.read_text().strip().splitlines()
    assert state[0] == "cell,cycle,phase,r,static_resistance"
    assert len(state) == 9


def test_sim_multilevel_resistance_tracks_amplitude(corpus, tmp_path):
    ro = tmp_path / "ro.csv"
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "256", "--seed", "4",
               "--preset", "multilevel", "--cycles", "40", "--order", "10",
               "--no-noise",
               "--readout-out", str(ro), "--state-out", str(tmp_path / "st.csv")])
    assert rc == 0
    lines = ro.read_text().strip().splitlines()[1:]
    step = np.array([int(l.split(",")[0]) for l in lines])
    i_deq = np.array([float(l.split(",")[4]) for l in lines])
    mean_i = np.array([i_deq[step == s].mean() for s in np.unique(step)])
    tops = np.linspace(0.7, 1.5, 40)
    # higher transition amplitude -> higher resistance -> lower read current
    rho = spearmanr(tops, -mean_i).statistic
    assert rho > 0.9


def test_sim_custom_script(corpus, tmp_path):
    pulses = tmp_path / "pulses.csv"
    reads = tmp_path / "reads.csv"
    pulses.write_text("step,target,u_a\n0,all,-1.5\n1,0:4,1.5\n2,7,1.5\n")
    reads.write_text("step,target\n2,all\n")
    ro = tmp_path / "ro.csv"
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "8", "--seed", "5",
               "--order", "10", "--pulses", str(pulses),
               "--reads", str(reads), "--readout-out", str(ro),
               "--state-out", str(tmp_path / "st.csv")])
    assert rc == 0
    table = (tmp_path / "st.csv").read_text().strip().splitlines()[1:]
    cycles = [int(row.split(",")[1]) for row in table]
    phases = [row.split(",")[2] for row in table]
    assert cycles[0] == 2 and phases[0] == "hrs"   # cells 0..3 completed a cycle
    assert cycles[7] == 2 and phases[7] == "hrs"
    assert cycles[4] == 1 and phases[4] == "lrs"   # pulsed down, never reset


def _f_string_sim(params, m, seed, events, readout=None, **init):
    """`sim`'s readout and state CSV texts from a per-row f-string, the reference;
    the readout is the file's default unless one is given."""
    bundle = paramfile.load(params)
    readout = readout or bundle.defaults.readout
    array = init_array(bundle, m, seed=seed, readout=readout, **init)
    deq_text = [f"{v:.9g}" for v in dequantize(np.arange(readout.levels + 1), readout).tolist()]
    rows = ["step,cell,i_noisy,code,i_dequant\n"]
    for step, kind, target, amp in events:
        if kind == "pulse":
            array.apply_pulses(amp, cells=target)
        else:
            i_noisy, codes, _ = array.read_all(cells=target)
            cells = range(array.m) if target is None else target.tolist()
            rows += [f"{step},{c},{ino:.9g},{code},{deq_text[code]}\n"
                     for c, ino, code in zip(cells, i_noisy.tolist(), codes.tolist())]
    table = array.state_table()
    columns = [table[name].tolist() for name in ("cell", "cycle", "phase", "r", "static_resistance")]
    state = ["cell,cycle,phase,r,static_resistance\n"]
    state += [f"{c},{cy},{ph},{r:.9g},{res:.9g}\n" for c, cy, ph, r, res in zip(*columns)]
    return "".join(rows), "".join(state)


def test_sim_csvs_equal_the_f_string_rendering(corpus, tmp_path):
    m = csvtext.BLOCK_ROWS + 300      # full reads and the state table span two blocks
    pulses, reads = tmp_path / "pulses.csv", tmp_path / "reads.csv"
    pulses.write_text(f"step,target,u_a\n0,all,-1.5\n1,0:{m // 2},1.5\n2,5,0.9\n"
                      f"3,all,1.1\n4,100:{m // 2},-1.5\n")
    reads.write_text(f"step,target\n0,all\n1,17\n2,all\n3,{m // 3}:{m}\n4,all\n")
    ro, st = tmp_path / "ro.csv", tmp_path / "st.csv"
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", str(m), "--seed", "9", "-a", "0.5",
               "--order", "10", "--threads", "2", "--pulses", str(pulses), "--reads", str(reads),
               "--readout-out", str(ro), "--state-out", str(st)])
    assert rc == 0
    events = cli._read_schedule(pulses, reads, m)
    want_ro, want_st = _f_string_sim(corpus / "params.ssyn", m, 9, events, a=0.5, p=10,
                                     threads=2)
    assert ro.read_bytes() == want_ro.encode()
    assert st.read_bytes() == want_st.encode()
    phases = {row.split(",")[2] for row in want_st.splitlines()[1:]}
    assert phases == {"hrs", "lrs", "irs"}


def test_sim_readout_flags_set_their_fields(corpus, tmp_path):
    # a distinct value per flag, so a flag that sets another field moves the
    # output or fails the readout's checks
    readout = ReadoutConfig(u_read=0.25, delta_f=4e6, n_bits=7, i_min=-2e-6, i_max=50e-6)
    ro, st = tmp_path / "ro.csv", tmp_path / "st.csv"
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "64", "--seed", "8", "--order", "10",
               "--preset", "full-cycling", "--cycles", "2", "--u-read", "0.25",
               "--bandwidth", "4e6", "--n-bits", "7", "--i-min=-2e-6", "--i-max", "50e-6",
               "--readout-out", str(ro), "--state-out", str(st)])
    assert rc == 0
    events = cli._preset_schedule("full-cycling", 2, paramfile.load(corpus / "params.ssyn")
                                  .defaults.u_max)
    want_ro, want_st = _f_string_sim(corpus / "params.ssyn", 64, 8, events, readout, p=10)
    assert ro.read_bytes() == want_ro.encode()
    assert st.read_bytes() == want_st.encode()


@pytest.mark.parametrize("option", ["-a", "--u-read", "--bandwidth", "--i-min", "--i-max"])
@pytest.mark.parametrize("value, want", [
    ("-1e-6", -1e-6), ("-2E-1", -0.2), ("-.5e+1", -5.0), ("-0.2", -0.2), ("3e-6", 3e-6),
    ("=-1e-6", -1e-6), ("abc", None), ("-abc", None), ("=-x", None),
])
def test_float_options_take_a_negative_value_in_scientific_notation(monkeypatch, option,
                                                                    value, want):
    # argparse alone reads a separate -1e-6 as an option and exits 2; a value
    # that is not a number still does
    parsed = []
    monkeypatch.setattr(cli, "cmd_sim", lambda args: parsed.append(args) or 0)
    given = [option + value] if value.startswith("=") else [option, value]
    rc = main(["sim", "p.ssyn", "-m", "4", "--seed", "1", "--preset", "multilevel", *given])
    if want is None:
        assert rc == 2 and not parsed
    else:
        assert rc == 0
        assert getattr(parsed[0], option.lstrip("-").replace("-", "_")) == want


@pytest.mark.parametrize("script, row", [
    ("pulses", "0,0:40,-1.5"),   # range past the last of 16 cells
    ("pulses", "0,all,nan"),     # amplitude that is not finite
    ("pulses", "0,all,1e39"),    # finite, but not in float32
    ("reads", "0,5:3"),          # reversed range
    ("pulses", "-1,all,1.5"),    # negative step
    ("reads", "-2,0"),
])
def test_sim_hostile_script_row_fails_naming_the_line(corpus, tmp_path, capsys, script, row):
    scripts = {"pulses": "step,target,u_a\n0,all,-1.5\n", "reads": "step,target\n0,all\n"}
    scripts[script] += row + "\n"
    for name, text in scripts.items():
        (tmp_path / f"{name}.csv").write_text(text)
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "16", "--seed", "5",
               "--order", "10", "--pulses", str(tmp_path / "pulses.csv"),
               "--reads", str(tmp_path / "reads.csv"),
               "--readout-out", str(tmp_path / "ro.csv"),
               "--state-out", str(tmp_path / "st.csv")])
    assert rc == 1
    assert f"{script}.csv line 3" in capsys.readouterr().err


@pytest.mark.parametrize("script", ["pulses", "reads"])
@pytest.mark.parametrize("target", ["1:3:5", "1.5", "3:", "x"])
def test_sim_malformed_target_fails_naming_it(corpus, tmp_path, capsys, script, target):
    # these failed with Python's own "too many values to unpack" or "invalid
    # literal for int()", which named neither the target nor its forms
    scripts = {"pulses": "step,target,u_a\n0,all,-1.5\n", "reads": "step,target\n0,all\n"}
    scripts[script] += f"0,{target},1.0\n" if script == "pulses" else f"0,{target}\n"
    for name, text in scripts.items():
        (tmp_path / f"{name}.csv").write_text(text)
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "16", "--seed", "5",
               "--order", "10", "--pulses", str(tmp_path / "pulses.csv"),
               "--reads", str(tmp_path / "reads.csv"),
               "--readout-out", str(tmp_path / "ro.csv"),
               "--state-out", str(tmp_path / "st.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{script}.csv line 3" in err
    assert f"target {target!r}" in err and "'all', a cell index or a range lo:hi" in err


@pytest.mark.parametrize("flags, field", [
    (["--u-read", "1e20"], "u_read"),   # conduction polynomials overflow float32 there
    (["-a", "1e300"], "dtd_scale"),     # a * sigma overflows float32
])
def test_sim_overrides_fail_the_float32_gates(corpus, tmp_path, capsys, flags, field):
    # unchecked, these overrides reach the engine: NaN reads, out-of-range
    # ADC codes and an IndexError in the readout writer
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "16", "--seed", "1",
               "--preset", "multilevel", "--cycles", "2", *flags,
               "--readout-out", str(tmp_path / "ro.csv"),
               "--state-out", str(tmp_path / "st.csv")])
    assert rc == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_scale_is_named(corpus, tmp_path, capsys, value):
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "16", "--seed", "1", "-a", value,
               "--preset", "multilevel", "--cycles", "2",
               "--readout-out", str(tmp_path / "ro.csv"), "--state-out", str(tmp_path / "st.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "device-variability scale" in err and value in err
    assert "defaults" not in err


def test_bench_csv_schema(corpus, tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(corpus / "params.ssyn"), "-m", "4096", "--seed", "6",
               "--orders", "1,10", "--threads-list", "1,2", "--pulses", "4",
               "--reads", "4", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mode,m,p,threads,ops,seconds,ops_per_second"
    assert len(lines) == 1 + 2 * 2 * 2  # orders x threads x modes
    with open(str(out) + ".meta.json") as fh:
        meta = json.load(fh)
    assert "timing excludes" in meta["contract"]
    assert "init_seconds" in meta["contract"]
    assert set(meta["init_seconds"]) == {"1", "10"}
    assert all(t > 0 for t in meta["init_seconds"].values())
    assert meta["amplitude"] == paramfile.load(corpus / "params.ssyn").defaults.u_max
    assert meta["numpy"] == np.__version__
    assert meta["math_fingerprint"] == math_fingerprint()
    assert len(meta["math_fingerprint"]) == 64


def test_bench_pulses_switch_every_cell_at_the_bundles_u_max(corpus, tmp_path, monkeypatch):
    # the schedule's amplitude is the bundle's u_max: at 2.0 V every timed
    # pulse sets or fully resets every cell, where 1.5 V pulses reset partially
    bundle = paramfile.load(corpus / "params.ssyn")
    bundle.defaults = replace(bundle.defaults, u_max=2.0)
    params = tmp_path / "u_max_2.ssyn"
    paramfile.save(bundle, params)
    reports = []
    apply_pulses = CellArray.apply_pulses

    def recorded(self, *args, **kwargs):
        reports.append(apply_pulses(self, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(CellArray, "apply_pulses", recorded)
    out = tmp_path / "bench.csv"
    assert main(["bench", str(params), "-m", "64", "--seed", "6", "--orders", "1,10",
                 "--threads-list", "1,2", "--pulses", "5", "--reads", "1", "-o", str(out)]) == 0
    assert len(reports) == 2 * 2 * (2 + 5)   # orders x threads x (warm-up pair + timed)
    timed = [r for k, r in enumerate(reports) if k % 7 >= 2]
    assert [(r.n_set + r.n_full_reset, r.n_partial_reset) for r in timed] == [(64, 0)] * 20
    assert json.loads(Path(str(out) + ".meta.json").read_text())["amplitude"] == 2.0
