"""Acceptance suite: every criterion as one test, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Criterion 9 is split in two: its thread-scaling check needs at least 8
usable hardware threads and is skipped below that, with the count found as
the reason; the single-thread floors and the order-cost checks run
everywhere.

Tolerances are fixed here, not calibrated: distribution fidelity 5% of the
feature mean, correlation agreement 0.05, fit recovery 0.03, transform
round trip 1e-9, readout sigma 5%, memory 2x(16p + 56) bytes per cell,
single-thread floors of 1e6 write / 5e6 read ops per second at order 10 and
2^20 cells, 3x thread scaling from 1 to 8 threads, and bit-exact
reproducibility.
"""

import gc
import hashlib
import os
import time

import numpy as np
import pytest

from mirror_machine import HRS, IRS, LRS, MirrorCell
from sample_stats import lagged_pearson, wasserstein1
from stochsyn import paramfile
from stochsyn.array import PHASE_HRS, PHASE_IRS, PHASE_LRS, ReadoutConfig, init_array, noise_sigma, quantize
from stochsyn.cli import main
from stochsyn.conduction import state_from_resistance
from stochsyn.svar import SvarModel, fit_svar, generate, structural_decompose
from stochsyn.transform import (
    MONOTONIC_GRID_STEP,
    fit_map,
    forward_map,
    inverse_map,
)
from stochsyn.waveform import read_features_csv


def _criterion(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_distribution_fidelity(source_features):
    t0 = time.perf_counter()
    gamma = fit_map(source_features)
    z, _ = forward_map(gamma, source_features)
    model = fit_svar(z, 10)
    gen = inverse_map(gamma, generate(model, 100_000, seed=1001))
    ratios = [
        wasserstein1(gen[:, k], source_features[:, k]) / source_features[:, k].mean()
        for k in range(4)
    ]
    elapsed = time.perf_counter() - t0
    ok = max(ratios) < 0.05 and elapsed < 60.0
    _criterion(1, "per-feature W1 / mean < 5% after fit+generate of 1e5",
               ok, f"ratios={['%.4f' % r for r in ratios]}, {elapsed:.1f}s")


def test_criterion_2_correlation_fidelity(source_normalized):
    t0 = time.perf_counter()
    p = 30
    model = fit_svar(source_normalized, p)
    gen = generate(model, source_normalized.shape[0], seed=1002)
    rho_src = lagged_pearson(source_normalized, p).rho
    rho_gen = lagged_pearson(gen, p).rho
    worst = float(np.max(np.abs(rho_src - rho_gen)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 120.0
    _criterion(2, "all 16 lagged correlation curves within +-0.05 up to lag 30",
               ok, f"max deviation {worst:.4f}, {elapsed:.1f}s")


def test_criterion_3_fit_recovery():
    phi = np.array([
        [[0.25, 0.10, 0.00, -0.05],
         [0.05, 0.20, -0.10, 0.00],
         [0.00, -0.15, 0.30, 0.10],
         [0.10, 0.00, 0.05, 0.15]],
        [[-0.10, 0.05, 0.00, 0.00],
         [0.00, -0.20, 0.05, 0.10],
         [0.05, 0.00, -0.15, 0.00],
         [0.00, 0.10, 0.00, -0.25]],
    ])
    chol = np.array([
        [1.00, 0.00, 0.00, 0.00],
        [0.20, 0.90, 0.00, 0.00],
        [0.00, -0.10, 0.80, 0.00],
        [0.10, 0.00, 0.15, 1.10],
    ])
    truth = SvarModel(phi=phi, sigma_u=chol @ chol.T, intercept=np.zeros(4))
    series = generate(truth, 100_000, seed=1003)
    fit = fit_svar(series, 2)
    coeff_err = float(np.max(np.abs(fit.phi - phi)))
    a, b = structural_decompose(fit.sigma_u)
    recon = np.linalg.solve(a, b)
    ident_err = float(np.max(np.abs(recon @ recon.T - fit.sigma_u)))
    ok = coeff_err <= 0.03 and ident_err < 1e-10
    _criterion(3, "SVAR(2) coefficients recovered to 0.03, identification exact",
               ok, f"max coeff err {coeff_err:.4f}, identity err {ident_err:.2e}")


def test_criterion_4_transform_round_trip(fitted_map):
    zg = np.linspace(-3.9, 3.9, 301)
    grid = np.stack([zg] * 4, axis=1)
    z2, flags = forward_map(fitted_map, inverse_map(fitted_map, grid))
    rt_err = float(np.max(np.abs(z2 - grid)))
    check = np.arange(-4.0, 4.0 + MONOTONIC_GRID_STEP / 2, MONOTONIC_GRID_STEP)
    deriv_min = min(
        float(np.min(np.polynomial.polynomial.polyval(
            check, np.polynomial.polynomial.polyder(fitted_map.coeffs[k]))))
        for k in range(4)
    )
    ok = rt_err < 1e-9 and not flags.any() and deriv_min > 0.0
    _criterion(4, "forward(inverse) identity to 1e-9 and monotone on +-4 sigma",
               ok, f"round trip {rt_err:.2e}, min derivative {deriv_min:.4f}")


def test_criterion_5_pulse_state_machine(ref_bundle):
    notes = []

    # deterministic branch walk on one cell with pinned features
    arr = init_array(ref_bundle, m=1, a=0.0, seed=31, p=10)
    arr.features[0] = np.array([150e3, 0.9, 8e3, 0.7], dtype=np.float32)
    arr.u_reset[0] = np.float32(0.7)
    arr.r[0] = state_from_resistance(arr.features[0:1, 0], arr.conduction)[0]
    arr.apply_pulses(1.5)
    notes.append(("hrs positive noop", arr.phase[0] == PHASE_HRS and arr.cycle[0] == 1))
    arr.apply_pulses(-0.89)
    notes.append(("below threshold noop", arr.phase[0] == PHASE_HRS))
    arr.apply_pulses(-0.9)  # exact threshold switches
    notes.append(("abrupt switch at threshold", arr.phase[0] == PHASE_LRS
                  and arr.u_reset[0] == np.float32(0.7)))
    res0 = arr.static_resistance()[0]
    arr.apply_pulses(0.69)
    notes.append(("below tracked reset noop", arr.phase[0] == PHASE_LRS))
    arr.apply_pulses(1.0)
    res1 = arr.static_resistance()[0]
    notes.append(("partial transition", arr.phase[0] == PHASE_IRS
                  and arr.u_reset[0] == np.float32(1.0) and res1 > res0))
    arr.apply_pulses(0.95)
    notes.append(("stale amplitude noop", arr.phase[0] == PHASE_IRS))
    arr.apply_pulses(1.2)
    res2 = arr.static_resistance()[0]
    notes.append(("ladder monotone", res2 > res1))
    arr.apply_pulses(1.5)
    notes.append(("full transition", arr.phase[0] == PHASE_HRS and arr.cycle[0] == 2))
    arr.apply_pulses(1.5)
    notes.append(("terminal until next switch", arr.phase[0] == PHASE_HRS
                  and arr.cycle[0] == 2))

    # randomized cross-check against the straight-line reimplementation
    m, n_pulses, seed = 24, 500, 41
    engine = init_array(ref_bundle, m=m, a=0.0, seed=seed, p=10)
    mirrors = [MirrorCell(ref_bundle, p=10, seed=seed, index=c)
               for c in range(m)]
    phase_map = {HRS: PHASE_HRS, LRS: PHASE_LRS, IRS: PHASE_IRS}
    rng = np.random.default_rng(1234)
    agree = True
    for _ in range(n_pulses):
        ua = float(rng.uniform(-1.7, 1.7))
        engine.apply_pulses(ua)
        for c, cell in enumerate(mirrors):
            cell.pulse(ua)
            if (phase_map[cell.phase] != engine.phase[c]
                    or cell.cycle != engine.cycle[c]
                    or np.float32(cell.r) != engine.r[c]
                    or np.float32(cell.u_reset) != engine.u_reset[c]):
                agree = False
                break
        if not agree:
            break
    notes.append((f"straight-line mirror agrees over {m * n_pulses} pulses", agree))

    bad = [name for name, ok in notes if not ok]
    _criterion(5, "pulse state machine branches and mirror cross-check",
               not bad, f"failed: {bad}" if bad else f"{len(notes)} checks")


def test_criterion_6_readout_statistics(ref_bundle):
    cfg = ReadoutConfig(noise_enabled=True, n_bits=12, i_min=0.0, i_max=60e-6)
    arr = init_array(ref_bundle, m=100_000, a=0.0, seed=32, p=10, readout=cfg)
    arr.r[:] = np.float32(0.5)
    i_noisy, _, _ = arr.read_all()
    cm = arr.conduction
    i_clean = float(np.float32(0.5) * (np.float32(cm.i_hhrs(0.2)) - np.float32(cm.i_llrs(0.2)))
                    + np.float32(cm.i_llrs(0.2)))
    sigma = noise_sigma(i_clean, cfg)
    sig_err = abs(float(np.std(i_noisy)) - sigma) / sigma

    adc = ReadoutConfig(n_bits=4, i_min=0.0, i_max=40e-6, noise_enabled=False)
    lsb = 40e-6 / 15
    sweep = np.linspace(-2e-6, 42e-6, 44001)
    codes = quantize(sweep, adc)
    inside = (sweep >= 0.0) & (sweep <= 40e-6)
    edges_ok = bool(
        np.array_equal(np.unique(codes), np.arange(16))
        and np.all(quantize(np.arange(16) * lsb, adc) == np.arange(16))
        and np.all(codes[sweep < -0.5 * lsb] == 0)
        and np.all(codes[sweep > 40e-6 + 0.5 * lsb] == 15)
        and np.all(np.abs(sweep[inside] - (np.arange(16) * lsb)[codes[inside]])
                   <= 0.5 * lsb + 1e-12)
    )
    ok = sig_err < 0.05 and edges_ok
    _criterion(6, "noise sigma within 5% over 1e5 reads, 4-bit window exact",
               ok, f"sigma err {sig_err:.4f}, edges {'ok' if edges_ok else 'bad'}")


def test_criterion_7_end_to_end_round_trip(tmp_path):
    t0 = time.perf_counter()
    corpus = tmp_path / "corpus"
    n = 20_000
    assert main(["synth", str(corpus), "-n", str(n), "--seed", "71",
                 "--trace-cycles", str(n)]) == 0
    feats_x = tmp_path / "extracted.csv"
    assert main(["extract", str(corpus / "trace.iuw"), str(feats_x)]) == 0
    refit = tmp_path / "refit.ssyn"
    assert main(["fit", str(feats_x), "-o", str(refit), "-p", "10"]) == 0
    gen_csv = tmp_path / "gen.csv"
    assert main(["generate", str(refit), "-n", str(n), "--seed", "72",
                 "-o", str(gen_csv), "--order", "10"]) == 0

    _, truth = read_features_csv(corpus / "features.csv")
    _, gen = read_features_csv(gen_csv)
    ratios = [wasserstein1(gen[:, k], truth[:, k]) / truth[:, k].mean()
              for k in range(4)]
    elapsed = time.perf_counter() - t0
    ok = max(ratios) < 0.05
    _criterion(7, "waveform -> extract -> fit -> generate reproduces distributions",
               ok, f"ratios={['%.4f' % r for r in ratios]}, {elapsed:.0f}s")


def test_criterion_8_memory_budget(ref_bundle):
    gc.collect()
    results = {}
    for p in (10, 100):
        arr = init_array(ref_bundle, m=1_000_000, a=0.0, seed=33, p=p)
        results[p] = (arr.bytes_per_cell(), 2 * (16 * p + 56))
        del arr
        gc.collect()
    ok = all(measured <= budget for measured, budget in results.values())
    detail = ", ".join(f"p={p}: {meas:.0f}B <= {bud}B"
                       for p, (meas, bud) in results.items())
    _criterion(8, "per-cell state within 2x(16p+56) bytes at m=1e6", ok, detail)


def _usable_hardware_threads() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


HARDWARE_THREADS = _usable_hardware_threads()


def _bench_rows(path):
    """Rates keyed by (mode, p, threads); a key timed more than once (a
    repeated thread count) keeps its best rate."""
    table = {}
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mode,m,p,threads,ops,seconds,ops_per_second"
    for line in lines[1:]:
        mode, m, p, threads, ops, secs, rate = line.split(",")
        key = (mode, int(p), int(threads))
        table[key] = max(table.get(key, 0.0), float(rate))
    return table


def _bench_p10_m20(tmp_path, params, threads_list):
    """Write and read rates at p=10 and m=2^20, keyed by (mode, p, threads)."""
    out = tmp_path / "bench_a.csv"
    assert main(["bench", str(params), "-m", str(1 << 20), "--seed", "91",
                 "--orders", "10", "--threads-list", threads_list, "--pulses", "16",
                 "--reads", "16", "-o", str(out)]) == 0
    return _bench_rows(out)


def test_criterion_9_throughput(tmp_path, ref_bundle):
    params = tmp_path / "bench_params.ssyn"
    paramfile.save(ref_bundle, params)

    a = _bench_p10_m20(tmp_path, params, "1")
    # three timings per (mode, order) of one array each, the best kept: the
    # order-cost check then measures the code, not the host's busiest moment
    out_b = tmp_path / "bench_b.csv"
    assert main(["bench", str(params), "-m", str(1 << 18), "--seed", "92",
                 "--orders", "10,100", "--threads-list", "1,1,1", "--pulses", "8",
                 "--reads", "8", "-o", str(out_b)]) == 0
    b = _bench_rows(out_b)

    write_1 = a[("write", 10, 1)]
    read_1 = a[("read", 10, 1)]
    checks = {
        "write >= 1e6 ops/s (1 thread, p=10, m=2^20)": write_1 >= 1e6,
        "read >= 5e6 ops/s (1 thread, p=10, m=2^20)": read_1 >= 5e6,
        "write strictly slower at p=100 than p=10": b[("write", 100, 1)] < b[("write", 10, 1)],
        "read >= 5x write at p=100": b[("read", 100, 1)] >= 5 * b[("write", 100, 1)],
    }
    bad = [name for name, ok in checks.items() if not ok]
    detail = (f"write1={write_1:.2e}, read1={read_1:.2e}, "
              f"p100 write={b[('write', 100, 1)]:.2e}, p100 read={b[('read', 100, 1)]:.2e}"
              + (f"; failed: {bad}" if bad else ""))
    _criterion(9, "single-thread throughput floors, order cost direction",
               not bad, detail)


@pytest.mark.skipif(
    HARDWARE_THREADS < 8,
    reason=f"write scaling 1->8 threads needs at least 8 usable hardware "
           f"threads; found {HARDWARE_THREADS}")
def test_criterion_9_thread_scaling(tmp_path, ref_bundle):
    params = tmp_path / "bench_params.ssyn"
    paramfile.save(ref_bundle, params)

    a = _bench_p10_m20(tmp_path, params, "1,8")
    scaling = a[("write", 10, 8)] / a[("write", 10, 1)]
    _criterion(9, "write scaling 1->8 threads >= 3x", scaling >= 3.0,
               f"scaling={scaling:.2f}x on {HARDWARE_THREADS} hardware threads")


def test_criterion_10_determinism(tmp_path, ref_bundle):
    params = tmp_path / "det_params.ssyn"
    paramfile.save(ref_bundle, params)

    # identical command, identical bytes
    out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    for out in (out1, out2):
        assert main(["generate", str(params), "-n", "5000", "--seed", "7",
                     "-o", str(out), "--order", "10"]) == 0
    files_ok = out1.read_bytes() == out2.read_bytes()

    # identical run digests across partition counts, mixed workload
    digests = []
    for threads in (1, 8):
        arr = init_array(ref_bundle, m=32_768, a=0.7, seed=1234, p=10,
                         threads=threads)
        rng = np.random.default_rng(5)
        for _ in range(30):
            arr.apply_pulses(float(rng.uniform(-1.7, 1.7)))
        arr.apply_pulses(-1.5, cells=np.arange(0, 32_768, 7))
        arr.read_all()
        digests.append(arr.state_digest())
        del arr
    threads_ok = digests[0] == digests[1]

    # corpus generation is reproducible end to end
    h = []
    for name in ("c1", "c2"):
        assert main(["synth", str(tmp_path / name), "-n", "400", "--seed", "3",
                     "--trace-cycles", "40"]) == 0
        h.append(hashlib.sha256((tmp_path / name / "trace.iuw").read_bytes()).hexdigest())
    corpus_ok = h[0] == h[1]

    ok = files_ok and threads_ok and corpus_ok
    _criterion(10, "bit-identical outputs across runs and thread counts", ok,
               f"files={files_ok}, threads={threads_ok}, corpus={corpus_ok}")
