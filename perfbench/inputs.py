"""Workload inputs, generated before any timing.

Everything here is a pure function of its seed: the same seed gives
byte-identical files.  The generators run through the package's own CLI
(``synth`` and ``fit``).

The device corpus (the fitted model and the pipeline's waveform) comes from
the fixed ``CORPUS_SEED``; the workload seed drives the array seeds, the
``sim`` scripts and the ``generate`` seed.  The package's stationarity check
(``svar.spectral_radius``, a power iteration) costs 0.6 s to 19.6 s on the
order-100 models fitted from corpus seeds 1-10, so a per-seed model made run
times neither steady nor bounded.  Seed 1, the first, costs 1.2 s per
load (third cheapest of the ten), so the benchmark still pays that cost.
"""

import contextlib
import sys
from pathlib import Path

import numpy as np

from stochsyn import cli

CORPUS_SEED = 1
# A fitted order-100 model: OLS on a synthetic corpus gives dense lag
# matrices (every lag entry nonzero).  The zero-padded reference_svar(100)
# would let a sparsity shortcut look faster than any fitted model can be.
FIT_CORPUS_CYCLES = 20_000
FIT_ORDERS = "10,100"
TRACE_CYCLES = 8000

SIM_STEPS = 40
SIM_READ_EVERY = 2
# (amplitude low, high) per class; u_max is 1.5 V and generated thresholds
# stay below it, so -1.5 V sets every high-resistance cell, +1.5 V completes
# every reset, mid-range positive pulses stop on the transition curve and
# small pulses change nothing.
SIM_AMPLITUDES = {
    "set": (-1.5, -1.5),
    "full_reset": (1.5, 1.5),
    "partial_reset": (0.85, 1.35),
    "noop": (-0.15, 0.15),
}


def _cli(argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"input generation failed: stochsyn {' '.join(map(str, argv))} -> {rc}")


def fitted_params(workdir: Path, seed: int = CORPUS_SEED, cycles: int = FIT_CORPUS_CYCLES,
                  orders: str = FIT_ORDERS) -> Path:
    """``synth -n cycles --trace-cycles 0`` then ``fit -p orders`` on its features."""
    corpus = workdir / "fit-corpus"
    _cli(["synth", corpus, "-n", cycles, "--seed", seed, "--trace-cycles", 0])
    out = workdir / "fitted.ssyn"
    _cli(["fit", corpus / "features.csv", "-o", out, "-p", orders,
          "--diagnostics", workdir / "fitted.diag.json"])
    return out


def trace(workdir: Path, seed: int = CORPUS_SEED, cycles: int = TRACE_CYCLES) -> Path:
    """A ``cycles``-cycle waveform (``trace.iuw``) rendered by ``synth``."""
    corpus = workdir / "trace-corpus"
    _cli(["synth", corpus, "-n", cycles, "--seed", seed, "--trace-cycles", cycles])
    return corpus / "trace.iuw"


def sim_schedule(seed: int, m: int, workdir: Path, steps: int = SIM_STEPS):
    """Pulse and read scripts for ``sim``: one ranged pulse per step.

    Step 0 sets every cell so the reset classes have cells to act on; the
    remaining steps cycle through the amplitude classes in a seeded order,
    each on a random ``lo:hi`` range of m/8 to m/2 cells.  Every
    ``SIM_READ_EVERY``-th step also reads all cells.
    """
    rng = np.random.default_rng([seed, 7])
    classes = [list(SIM_AMPLITUDES)[k] for k in rng.permutation(len(SIM_AMPLITUDES))]
    pulses = ["step,target,u_a", f"0,0:{m},{SIM_AMPLITUDES['set'][0]:.6f}"]
    for step in range(1, steps):
        kind = classes[(step - 1) % len(classes)]
        lo_amp, hi_amp = SIM_AMPLITUDES[kind]
        amp = rng.uniform(lo_amp, hi_amp)
        width = int(rng.integers(m // 8, m // 2 + 1))
        lo = int(rng.integers(0, m - width + 1))
        pulses.append(f"{step},{lo}:{lo + width},{amp:.6f}")
    reads = ["step,target"] + [f"{step},all" for step in range(0, steps, SIM_READ_EVERY)]
    pulse_path, read_path = workdir / "sim-pulses.csv", workdir / "sim-reads.csv"
    pulse_path.write_text("\n".join(pulses) + "\n")
    read_path.write_text("\n".join(reads) + "\n")
    return pulse_path, read_path, len(reads) - 1
