"""Tests of the benchmark's own machinery: tracer, inputs, gates, manifest."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times, union_length  # noqa: E402

import stochsyn  # noqa: E402
from stochsyn import conduction, synth  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "child", 1.0, 4.0),
        Span(3, 1, "child", 3.0, 6.0),      # overlaps the first child
        Span(4, 1, "child", 8.0, 12.0),     # runs past the parent: clipped to 8..10
        Span(5, 2, "grandchild", 1.5, 3.5),  # counts against its parent only
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(2.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_worker_thread_spans_attach_to_the_spawning_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: threading.get_ident(), "leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf) for _ in range(8)]]

    spawner = tracer.wrap(fan_out, "spawner", spawner=True)
    other = tracer.wrap(lambda: None, "other")
    spawner()
    other()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["spawner"]
    assert len(by_name["leaf"]) == 8
    assert all(s.parent == root.sid for s in by_name["leaf"])
    assert by_name["other"][0].parent is None
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 8
    assert 0.0 <= summary["spawner"]["self_s"] <= summary["spawner"]["s"]


def test_install_wraps_every_alias_and_reports_missing_names():
    from stochsyn import array, cli, paramfile, svar
    originals = (svar.spectral_radius, conduction.eval_poly, array.CellArray.apply_pulses)
    tracer = Tracer()
    targets = layers.TARGETS + [("stochsyn.svar:LagBufferGone", "svar.gone", {}),
                                ("stochsyn.nosuchmodule:f", "nowhere.f", {})]
    tracer.install(layers.PACKAGE, targets)
    try:
        assert cli.spectral_radius is svar.spectral_radius is paramfile.spectral_radius
        assert svar.spectral_radius.__wrapped__ is originals[0]
        assert cli.svar_generate is svar.generate
        # the engine's eval_poly is wrapped under its own name; the definer is not
        assert array.eval_poly.__wrapped__ is originals[1]
        assert conduction.eval_poly is originals[1]
        assert tracer.absent == ["svar.gone", "nowhere.f"]
        model = synth.reference_svar(1)
        svar.spectral_radius(model)
        cli.spectral_radius(model)
        assert tracer.summary()["svar.spectral_radius"]["calls"] == 2
    finally:
        tracer.uninstall()
    assert (svar.spectral_radius, conduction.eval_poly, array.CellArray.apply_pulses) == originals
    assert cli.spectral_radius is originals[0] and array.eval_poly is originals[1]

    metrics, missing = layers.per_layer_metrics({}, {}, ["svar.step", "array.apply_pulses"], 0.01)
    assert set(metrics) == {name for name, *_ in layers.PER_LAYER}
    assert {"svar.step.s", "svar.step.calls", "array.pulse.set"} <= set(missing)
    assert metrics["svar.step.calls"]["value"] == 0
    assert metrics["trace_overhead"]["value"] == 0.01


def test_exclusion_reasons_map_to_fixed_slugs():
    assert layers.reason_slug("no crossing of -5e-05 A") == "no_crossing_of"
    assert layers.reason_slug("only 3 points in high-resistance window") == \
        "only_points_in_high_resistance_window"
    assert layers.reason_slug("fitted branch has non-positive current at u0") == \
        "fitted_branch_has_non_positive_current_at"
    assert layers.reason_slug("monotone section, no peak") in layers.EXCLUSION_REASONS


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    made = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        inputs.fitted_params(d, seed=3, cycles=1500, orders="2,10")
        inputs.trace(d, seed=3, cycles=12)
        inputs.sim_schedule(9, 4096, d)
        made.append(_tree_bytes(d))
    assert made[0].keys() == made[1].keys()
    assert "fitted.ssyn" in made[0] and "sim-pulses.csv" in made[0]
    assert all(made[0][k] == made[1][k] for k in made[0])

    other = tmp_path / "c"
    other.mkdir()
    inputs.sim_schedule(10, 4096, other)
    assert (other / "sim-pulses.csv").read_bytes() != made[0]["sim-pulses.csv"]


def test_sim_schedule_covers_every_amplitude_class(tmp_path):
    pulses, reads, n_reads = inputs.sim_schedule(5, 1024, tmp_path)
    rows = [line.split(",") for line in pulses.read_text().splitlines()[1:]]
    amps = np.array([float(r[2]) for r in rows])
    assert len(rows) == inputs.SIM_STEPS and n_reads == inputs.SIM_STEPS // inputs.SIM_READ_EVERY
    for lo, hi in inputs.SIM_AMPLITUDES.values():
        assert np.any((amps >= lo) & (amps <= hi))
    for r in rows:
        lo, hi = map(int, r[1].split(":"))
        assert 0 <= lo < hi <= 1024


def test_replay_gate_rejects_a_perturbed_array():
    bundle = synth.reference_bundle(orders=(workloads.ENGINE_P,))
    seed = 11
    big = stochsyn.array.init_array(bundle, 300, seed=seed, p=workloads.ENGINE_P)
    log = [("pulse", amp) for amp in workloads.engine_schedule()[:6]] + [("read", None)] * 3
    for kind, amp in log:
        if kind == "pulse":
            big.apply_pulses(amp)
        else:
            big.read_all()
    small = workloads.replay(bundle, seed, log, cells=40)
    assert workloads.replay_mismatches(big, small) == []

    big.r[7] = np.nextafter(big.r[7], np.float32(2.0))
    assert workloads.replay_mismatches(big, small) == ["r"]
    big.r[7] = small.r[7]
    big._counters[39] += np.uint64(1)
    assert workloads.replay_mismatches(big, small) == ["_counters"]
    big._counters[39] -= np.uint64(1)
    big.apply_pulses(-1.5, cells=[3])
    assert workloads.replay_mismatches(big, small) != []


def test_manifest_matches_the_code():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == [BENCH.name]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
