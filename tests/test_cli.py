import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import stochsyn
from stochsyn import cli, paramfile, synth
from stochsyn.array import init_array
from stochsyn.cli import main
from stochsyn.waveform import read_features_csv


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


def test_extract_and_flags(corpus, tmp_path):
    out = tmp_path / "f.csv"
    report = tmp_path / "rep.json"
    rc = main(["extract", str(corpus / "trace.iuw"), str(out), "--report", str(report)])
    assert rc == 0
    cycles, feats = read_features_csv(out)
    rep = json.loads(report.read_text())
    assert rep["cycles_extracted"] == feats.shape[0] == len(cycles)
    assert rep["cycles_total"] == 400

    out2 = tmp_path / "f2.csv"
    rc = main(["extract", str(corpus / "trace.iuw"), str(out2), "--no-smoothing"])
    assert rc == 0
    _, feats2 = read_features_csv(out2)
    assert not np.array_equal(feats, feats2)  # smoothing flag is live


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # no scipy module at all: only `fit` imports it, inside `transform.fit_map`
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, stochsyn.cli; print(sorted(name for name in"
         " sys.modules if name == 'scipy' or name.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


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


def test_fit_usage_errors(corpus, tmp_path):
    rc = main(["fit", str(corpus / "features.csv"), "-o", str(tmp_path / "x.ssyn"),
               "-p", "0"])
    assert rc == 2
    rc = main(["fit", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "x.ssyn")])
    assert rc == 2


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


def test_generate_seed_required(corpus, tmp_path):
    rc = main(["generate", str(corpus / "params.ssyn"), "-n", "10",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_params_env_fallback(corpus, tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv("STOCHSYN_PARAMS", str(corpus / "params.ssyn"))
    rc = main(["generate", "-n", "5", "--seed", "2", "-o", str(out), "--order", "1"])
    assert rc == 0
    monkeypatch.delenv("STOCHSYN_PARAMS")
    rc = main(["generate", "-n", "5", "--seed", "2", "-o", str(out), "--order", "1"])
    assert rc == 2


def test_sim_m_zero_usage_error(corpus, tmp_path):
    rc = main(["sim", str(corpus / "params.ssyn"), "-m", "0", "--seed", "1",
               "--preset", "multilevel"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["sim", "-m", "8", "--seed", "1", "--preset", "multilevel", "--pulses", "nonexistent.csv"],
    ["sim", "-m", "8", "--seed", "1"],
    ["bench", "-m", "64", "--seed", "1", "--modes", "wrte", "-o", "bench.csv"],
], ids=["preset_and_pulses", "no_schedule", "unknown_mode"])
def test_usage_errors_exit_2_before_any_work(corpus, tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a usage error reached init_array")

    monkeypatch.setattr(cli, "init_array", no_work)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(corpus / "params.ssyn"), *argv[1:]]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("script, row", [
    ("pulses", "0,0:40,-1.5"),   # range past the last of 16 cells
    ("pulses", "0,all,nan"),     # amplitude that is not finite
    ("reads", "0,5:3"),          # reversed range
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


def test_bench_scale_fails_the_float32_gate(corpus, tmp_path, capsys):
    rc = main(["bench", str(corpus / "params.ssyn"), "-m", "16", "--seed", "1",
               "-a", "1e300", "-o", str(tmp_path / "bench.csv")])
    assert rc == 1
    assert "dtd_scale" in capsys.readouterr().err


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
