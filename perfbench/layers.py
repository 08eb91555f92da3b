"""What the traced run wraps, and how its spans become per-layer metrics.

The layers are the package's modules.  ``synth`` and ``stats`` only make
inputs and check outputs, so nothing of theirs is wrapped.  Each target names
the place a caller looks the function up; see ``Tracer.install`` for how
aliases imported into other modules are covered.
"""

import re

from stochsyn.transform import MonotonicityError

PACKAGE = "stochsyn"


def _count_draws(tracer, args, kwargs):
    keys = args[0] if args else kwargs["keys"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.count("streams.normals.draws", int(n) * len(keys))


def _count_advance(tracer, args, kwargs):
    array, idx = args[0], args[1]
    cells = len(range(array.m)[idx]) if isinstance(idx, slice) else len(idx)
    k = 4 * array.p
    tracer.count("array.advanced_cells", cells)
    # the history shift reads and writes every lag slot but the newest
    tracer.count("array.lag_bytes_moved", cells * (k - 4) * 4 * 2)
    # one multiply and one add per weight of the (4p, 4) contraction
    tracer.count("array.contract_flops", cells * k * 4 * 2)


def _count_pulse(tracer, args, report):
    tracer.count("array.pulse.addressed", report.n_addressed)
    tracer.count("array.pulse.set", report.n_set)
    tracer.count("array.pulse.full_reset", report.n_full_reset)
    tracer.count("array.pulse.partial_reset", report.n_partial_reset)
    tracer.count("array.pulse.noop", report.n_noop)


EXCLUSION_REASONS = (
    "no_crossing_of",
    "no_positive_voltage_section",
    "monotone_section_no_peak",
    "only_points_in_high_resistance_window",
    "only_points_in_low_resistance_window",
    "fitted_branch_has_non_positive_current_at",
)


def reason_slug(message: str) -> str:
    """Exclusion message -> metric slug; digits and one-letter words drop out,
    so messages of one class share a name."""
    words = re.findall(r"[a-z]+", re.sub(r"[0-9.eE+-]*[0-9][0-9.eE+-]*", " ", message.lower()))
    return "_".join(w for w in words if len(w) > 1)


def _count_extraction(tracer, args, result):
    tracer.count("waveform.cycles_total", result.n_cycles)
    tracer.count("waveform.cycles_extracted", int(result.features.shape[0]))
    for _, reason in result.exclusions:
        slug = reason_slug(reason)
        tracer.count("waveform.exclusions." + (slug if slug in EXCLUSION_REASONS else "other"))


def _count_rows(tracer, args, rc):
    ns = args[0]
    for path in (ns.readout_out, ns.state_out):
        with open(path, "rb") as fh:
            tracer.count("cli.sim.rows_written", sum(1 for _ in fh) - 1)


TARGETS = [
    ("stochsyn.streams:normals", "streams.normals", {"on_call": _count_draws}),
    ("stochsyn.array:init_array", "array.init_array", {}),
    ("stochsyn.array:CellArray._advance", "array.advance",
     {"timed": False, "on_call": _count_advance}),
    ("stochsyn.array:CellArray.apply_pulses", "array.apply_pulses",
     {"spawner": True, "on_result": _count_pulse}),
    ("stochsyn.array:CellArray.read_all", "array.read_all", {"spawner": True}),
    ("stochsyn.array:CellArray.state_table", "array.state_table", {}),
    ("stochsyn.array:mix_lower_triangular", "array.mix_lower_triangular", {}),
    ("stochsyn.array:eval_poly", "array.eval_poly", {}),
    ("stochsyn.paramfile:load", "paramfile.load", {}),
    ("stochsyn.paramfile:save", "paramfile.save", {}),
    ("stochsyn.cli:cmd_sim", "cli.sim", {"on_result": _count_rows}),
    ("stochsyn.cli:cmd_extract", "cli.extract", {}),
    ("stochsyn.cli:cmd_fit", "cli.fit", {}),
    ("stochsyn.cli:cmd_generate", "cli.generate", {}),
    ("stochsyn.waveform:read_trace", "waveform.read_trace", {}),
    ("stochsyn.waveform:split_cycles", "waveform.split_cycles", {}),
    ("stochsyn.waveform:detect_set_locations", "waveform.detect_set_locations", {}),
    ("stochsyn.waveform:smooth_adaptive", "waveform.smooth_adaptive", {}),
    ("stochsyn.waveform:extract_set_voltage", "waveform.extract_set_voltage", {}),
    ("stochsyn.waveform:extract_reset_voltage", "waveform.extract_reset_voltage", {}),
    ("stochsyn.waveform:fit_state_polynomials", "waveform.fit_state_polynomials", {}),
    ("stochsyn.waveform:extract_features", "waveform.extract_features",
     {"on_result": _count_extraction}),
    ("stochsyn.waveform:write_features_csv", "waveform.write_features_csv", {}),
    ("stochsyn.waveform:read_features_csv", "waveform.read_features_csv", {}),
    ("stochsyn.conduction:fit_limiting_model", "conduction.fit_limiting_model", {}),
    ("stochsyn.transform:fit_map_with_fallback", "transform.fit_map_with_fallback", {}),
    ("stochsyn.transform:fit_map", "transform.fit_map",
     {"count_errors": MonotonicityError}),
    ("stochsyn.transform:forward_map", "transform.forward_map", {}),
    ("stochsyn.transform:inverse_map", "transform.inverse_map", {}),
    ("stochsyn.svar:fit_svar", "svar.fit_svar", {}),
    ("stochsyn.svar:spectral_radius", "svar.spectral_radius", {}),
    ("stochsyn.svar:generate", "svar.generate", {}),
    ("stochsyn.svar:step", "svar.step", {}),
]

# (metric, unit, better, source).  Sources: ("span", target, field) with
# field s / self_s / calls from the span summary; ("count", counter, target)
# for a counter fed by that target's hooks; ("ratio", numerator counters,
# denominator counter); ("overhead",).


def _span(target, field):
    unit = "count" if field == "calls" else "s"
    return (f"{target}.{field}", unit, "lower", ("span", target, field))


def _count(name, target, better="lower", unit="count", counter=None):
    return (name, unit, better, ("count", counter or name, target))


PULSE_COUNTS = ("array.pulse.set", "array.pulse.full_reset", "array.pulse.partial_reset")

PER_LAYER = [
    _span("streams.normals", "s"),
    _span("streams.normals", "calls"),
    _count("streams.normals.draws", "streams.normals"),
    _span("array.init_array", "s"),
    _span("array.init_array", "self_s"),
    _span("array.apply_pulses", "s"),
    _span("array.apply_pulses", "self_s"),
    _span("array.mix_lower_triangular", "s"),
    _span("array.eval_poly", "s"),
    _span("array.read_all", "s"),
    _span("array.read_all", "self_s"),
    _span("array.state_table", "s"),
    _count("array.advanced_cells", "array.advance"),
    *[_count(name, "array.apply_pulses", "higher") for name in PULSE_COUNTS],
    _count("array.pulse.noop", "array.apply_pulses"),
    ("array.pulse.switch_ratio", "ratio", "higher",
     ("ratio", PULSE_COUNTS, "array.pulse.addressed")),
    _count("array.lag_bytes_moved", "array.advance", unit="B"),
    _count("array.contract_flops", "array.advance", unit="flop"),
    _span("paramfile.load", "s"),
    _span("paramfile.save", "s"),
    _span("cli.sim", "s"),
    _span("cli.sim", "self_s"),
    _count("cli.sim.rows_written", "cli.sim", "higher"),
    _span("cli.extract", "self_s"),
    _span("cli.fit", "self_s"),
    _span("cli.generate", "self_s"),
    *[_span("waveform." + fn, "s") for fn in (
        "read_trace", "split_cycles", "detect_set_locations", "smooth_adaptive",
        "extract_set_voltage", "extract_reset_voltage", "fit_state_polynomials")],
    _span("waveform.extract_features", "self_s"),
    _span("waveform.write_features_csv", "s"),
    _span("waveform.read_features_csv", "s"),
    _count("waveform.cycles_total", "waveform.extract_features", "higher"),
    _count("waveform.cycles_extracted", "waveform.extract_features", "higher"),
    ("waveform.extract_ratio", "ratio", "higher",
     ("ratio", ("waveform.cycles_extracted",), "waveform.cycles_total")),
    *[_count("waveform.exclusions." + slug, "waveform.extract_features")
      for slug in EXCLUSION_REASONS + ("other",)],
    _span("conduction.fit_limiting_model", "s"),
    _span("transform.fit_map_with_fallback", "s"),
    _span("transform.forward_map", "s"),
    _count("transform.fallbacks", "transform.fit_map", counter="transform.fit_map.errors"),
    _span("transform.inverse_map", "s"),
    _span("svar.fit_svar", "s"),
    _span("svar.spectral_radius", "s"),
    _span("svar.spectral_radius", "calls"),
    _span("svar.generate", "s"),
    _span("svar.generate", "self_s"),
    _span("svar.step", "s"),
    _span("svar.step", "calls"),
    ("trace_overhead", "ratio", "lower", ("overhead",)),
]


def per_layer_metrics(summary: dict, counts: dict, absent, overhead: float):
    """(metrics, absent metric names) from a tracer's summary and counters.

    A metric whose wrapped function no longer exists reads 0 and is listed
    as absent.
    """
    metrics, missing = {}, []
    for name, unit, _, source in PER_LAYER:
        kind = source[0]
        if (kind == "span" and source[1] in absent) or (kind == "count" and source[2] in absent):
            missing.append(name)
        if kind == "span":
            value = summary.get(source[1], {}).get(source[2], 0)
        elif kind == "count":
            value = counts.get(source[1], 0)
        elif kind == "ratio":
            den = counts.get(source[2], 0)
            value = sum(counts.get(n, 0) for n in source[1]) / den if den else 0.0
        else:
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing
