"""The benchmark's workloads; each runs in a process of its own.

    python3 perfbench/workloads.py --workload NAME --inputs DIR --seed N \
        --seconds S --setup-reps K --bodies B --trace 0|1 --out RESULT.json

``run.py`` starts this with the package on PYTHONPATH and the BLAS/OpenMP
thread caps in the environment, after it has generated the inputs.  The
workload sets up ``--setup-reps`` times and runs its measured body
``--bodies`` times, or with ``--bodies 0`` at least its own minimum number of
times and until ``--seconds`` of bodies have run; then it checks every
output.  With ``--trace 1`` the layer wrappers are installed for set-up and
bodies and removed before the checks.  The result (metrics, check outcomes,
state digests) is written as JSON to ``--out``.

Why each workload exists, and what it loads and bypasses: WORKLOADS.md.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from inputs import FIT_ORDERS
from stochsyn import array as sarray
from stochsyn import cli, paramfile

ENGINE_M = 1 << 12
ENGINE_P = 100
ENGINE_PULSES = 64           # per body: alternating -1.5 V / +1.5 V, from a set
ENGINE_AMPLITUDE = 1.5
ENGINE_READ_PASSES = 1024    # per body
REPLAY_CELLS = 256

SIM_M = 1 << 14
SIM_ORDER = 10
SIM_A = 0.7
SIM_THREADS = 2
SIM_BODIES = 4

PIPELINE_BODIES = 2
GENERATE_N = 100_000
GENERATE_ORDER = 100
MIN_EXTRACT_RATIO = 0.5


class Run:
    """Measurements, checks and operation counts of one workload process."""

    def __init__(self):
        self.setup_s = []
        self.wall_s = []
        self.details = {}      # workload-specific metrics: name -> (value, unit)
        self.info = {}
        self.attempted = 0
        self.failed = 0
        self.checks = []       # (name, passed, note)

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def check(self, name: str, passed: bool, note: str = "") -> bool:
        self.attempted += 1
        self.failed += 0 if passed else 1
        self.checks.append((name, bool(passed), note))
        return passed

    def detail(self, name: str, value, unit: str) -> None:
        self.details[name] = (float(value), unit)


class Body:
    """Times one measured body (wall clock)."""

    def __init__(self, run: Run):
        self.run = run

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.run.wall_s.append(time.perf_counter() - self.t0)


def _keep_going(run: Run, bodies: int | None, seconds: float, at_least: int = 1) -> bool:
    """Another body?  A fixed count, or (None) at least `at_least` bodies and
    until `seconds` of bodies have run."""
    if bodies is not None:
        return len(run.wall_s) < bodies
    return len(run.wall_s) < at_least or sum(run.wall_s) < seconds


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set.  VmHWM starts afresh at exec, while
    ru_maxrss keeps the peak of the process that started this one."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# engine-p100


def engine_schedule():
    return [-ENGINE_AMPLITUDE if k % 2 == 0 else ENGINE_AMPLITUDE for k in range(ENGINE_PULSES)]


def engine_setup(params, seed: int):
    t0 = time.perf_counter()
    bundle = paramfile.load(params)
    arr = sarray.init_array(bundle, ENGINE_M, seed=seed, p=ENGINE_P)
    return time.perf_counter() - t0, bundle, arr


def state_arrays(arr) -> dict:
    """The array's per-cell state arrays, by attribute name."""
    names = {id(v): k for k, v in vars(arr).items()}
    return {names.get(id(a), f"state{k}"): a for k, a in enumerate(arr._state_arrays())}


def replay_mismatches(big, small) -> list:
    """Names of state arrays where `small` differs from the first cells of `big`.

    Arrays with one row per cell are compared on the first small.m rows;
    anything else must be equal as a whole.  Bit for bit: NaN payloads and
    signed zeros count.
    """
    mine, ref = state_arrays(big), state_arrays(small)
    bad = []
    for name, b in ref.items():
        a = mine.get(name)
        if a is None:
            bad.append(name)
            continue
        if a.shape[:1] == (big.m,) and b.shape[:1] == (small.m,):
            a = a[: small.m]
        if a.dtype != b.dtype or a.shape != b.shape or \
                np.ascontiguousarray(a).tobytes() != np.ascontiguousarray(b).tobytes():
            bad.append(name)
    return sorted(bad)


def replay(bundle, seed: int, log, cells: int = REPLAY_CELLS):
    """An independent `cells`-cell array driven through the logged operations."""
    small = sarray.init_array(bundle, cells, seed=seed, p=ENGINE_P)
    for kind, amp in log:
        if kind == "pulse":
            small.apply_pulses(amp)
        else:
            small.read_all()
    return small


def run_engine(run: Run, inputs: dict, seed: int, seconds: float, setup_reps: int,
               bodies: int | None, stop_trace):
    """Set-ups and bodies alternate, so the body samples span the whole run
    and a slow spell of the host does not fall on all of them."""
    arr = bundle = None
    amps = engine_schedule()
    log, advance_s, write_rates, read_rates = [], [], [], []
    bad_reads = 0
    for rep in range(setup_reps):
        dt, b, a = engine_setup(inputs["params"], seed)
        run.setup_s.append(dt)
        run.ops(1)
        if arr is None:
            bundle, arr = b, a
        levels = arr.readout.levels
        share = None if bodies is None else bodies * (rep + 1) // setup_reps
        while _keep_going(run, share, seconds * (rep + 1) / setup_reps):
            with Body(run):
                t_pulses = time.perf_counter()
                for amp in amps:
                    t0 = time.perf_counter()
                    arr.apply_pulses(amp)
                    if amp > 0:
                        advance_s.append(time.perf_counter() - t0)
                t_pulses = time.perf_counter() - t_pulses
                t_reads = 0.0
                for _ in range(ENGINE_READ_PASSES):
                    t0 = time.perf_counter()
                    i_noisy, codes, _ = arr.read_all()
                    t_reads += time.perf_counter() - t0
                    if not (np.isfinite(i_noisy).all() and 0 <= codes.min()
                            and codes.max() <= levels):
                        bad_reads += 1
            run.ops(len(amps) + ENGINE_READ_PASSES)
            log += [("pulse", amp) for amp in amps] + [("read", None)] * ENGINE_READ_PASSES
            write_rates.append(arr.m * len(amps) / t_pulses)
            read_rates.append(arr.m * ENGINE_READ_PASSES / t_reads)
    stop_trace()

    run.detail("write_cells_per_s", statistics.median(write_rates), "1/s")
    run.detail("advance_ms_p50", 1e3 * percentile(advance_s, 50), "ms")
    run.detail("advance_ms_p90", 1e3 * percentile(advance_s, 90), "ms")
    run.detail("advance_samples", len(advance_s), "count")
    run.detail("read_cells_per_s", statistics.median(read_rates), "1/s")
    run.detail("state_bytes_per_cell", arr.bytes_per_cell(), "B")
    run.check("readouts finite with codes in [0, levels]", bad_reads == 0,
              f"{bad_reads} of {len(read_rates) * ENGINE_READ_PASSES} read passes bad")
    small = replay(bundle, seed, log)
    bad = replay_mismatches(arr, small)
    run.check(f"replay on an independent {REPLAY_CELLS}-cell array is bit-identical",
              not bad, ", ".join(bad))
    run.info["state_digest"] = arr.state_digest()
    run.info["replay_state_digest"] = small.state_digest()


# ---------------------------------------------------------------------------
# sim-p10 and pipeline: command-line workloads


def cli_startup_s(reps: int) -> list:
    """Wall time of a fresh interpreter importing the CLI, as each command pays."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import stochsyn.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_sim(run: Run, inputs: dict, seed: int, seconds: float, setup_reps: int,
            bodies: int | None, stop_trace):
    params, m = inputs["params"], SIM_M
    run.setup_s += cli_startup_s(setup_reps)
    run.ops(setup_reps)
    out = Path(inputs["workdir"])
    readouts, states = out / "sim-readouts.csv", out / "sim-state.csv"
    argv = ["sim", params, "-m", m, "--seed", seed, "-a", SIM_A, "--order", SIM_ORDER,
            "--threads", SIM_THREADS, "--pulses", inputs["pulses"], "--reads", inputs["reads"],
            "--readout-out", readouts, "--state-out", states]
    codes = []
    while _keep_going(run, bodies, seconds, at_least=SIM_BODIES):
        with Body(run):
            codes.append(cli.main([str(a) for a in argv]))
        run.ops(1, failed=int(codes[-1] != 0))
    stop_trace()

    run.detail("sim_s", statistics.median(run.wall_s), "s")
    if not run.check("sim exits 0", all(c == 0 for c in codes), f"exit codes {codes}"):
        return
    levels = paramfile.load(params, validate=False).defaults.readout.levels
    rows = np.loadtxt(readouts, delimiter=",", skiprows=1, ndmin=2)
    want = inputs["n_reads"] * m
    run.check("readout CSV row count", rows.shape[0] == want, f"{rows.shape[0]} rows, want {want}")
    codes_ok = rows[:, 3].min() >= 0 and rows[:, 3].max() <= levels
    run.check("readouts finite with codes in [0, levels]",
              bool(np.isfinite(rows).all() and codes_ok))
    with open(states) as fh:
        n_state = sum(1 for _ in fh) - 1
    run.check("state CSV row count", n_state == m, f"{n_state} rows, want {m}")
    run.info["readouts_sha256"] = _sha256(readouts)
    run.info["state_sha256"] = _sha256(states)


def run_pipeline(run: Run, inputs: dict, seed: int, seconds: float, setup_reps: int,
                 bodies: int | None, stop_trace):
    run.setup_s += cli_startup_s(setup_reps)
    run.ops(setup_reps)
    out = Path(inputs["workdir"])
    feats, limits = out / "features.csv", out / "limits.json"
    params, generated = out / "pipeline.ssyn", out / "generated.csv"
    stages = [
        ("extract_s", ["extract", inputs["trace"], feats, "--limits-out", limits]),
        ("fit_s", ["fit", feats, "-o", params, "-p", FIT_ORDERS, "--conduction", limits]),
        ("generate_s", ["generate", params, "-n", GENERATE_N, "--seed", seed, "-o", generated,
                        "--order", GENERATE_ORDER]),
    ]
    stage_s = {name: [] for name, _ in stages}
    failures = []
    while _keep_going(run, bodies, seconds, at_least=PIPELINE_BODIES) and not failures:
        with Body(run):
            for name, argv in stages:
                t0 = time.perf_counter()
                rc = cli.main([str(a) for a in argv])
                stage_s[name].append(time.perf_counter() - t0)
                run.ops(1, failed=int(rc != 0))
                if rc != 0:
                    failures.append(f"{argv[0]} -> {rc}")
                    break
    stop_trace()

    for name, values in stage_s.items():
        if values:
            run.detail(name, statistics.median(values), "s")
    if not run.check("every stage exits 0", not failures, "; ".join(failures)):
        return
    with open(str(feats) + ".report.json") as fh:
        report = json.load(fh)
    ratio = report["cycles_extracted"] / report["cycles_total"]
    run.detail("extract_ratio", ratio, "ratio")
    run.check(f"extract_ratio >= {MIN_EXTRACT_RATIO}", ratio >= MIN_EXTRACT_RATIO, f"{ratio:.4f}")
    rows = np.loadtxt(generated, delimiter=",", skiprows=1, ndmin=2)
    run.check("generated CSV has n rows", rows.shape[0] == GENERATE_N,
              f"{rows.shape[0]} rows, want {GENERATE_N}")
    feats_only = rows[:, 1:]
    run.check("generated features finite and positive",
              bool(np.isfinite(feats_only).all() and (feats_only > 0).all()))
    run.info["params_sha256"] = _sha256(params)
    run.info["generated_sha256"] = _sha256(generated)


WORKLOADS = {"engine-p100": run_engine, "sim-p10": run_sim, "pipeline": run_pipeline}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True, help="inputs.json written by run.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-reps", type=int, required=True)
    ap.add_argument("--bodies", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.inputs) as fh:
        inputs = json.load(fh)

    run = Run()
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(layers.PACKAGE, layers.TARGETS)
    stop_trace = tracer.uninstall if tracer else (lambda: None)
    t0 = time.perf_counter()
    error = None
    try:
        WORKLOADS[args.workload](run, inputs, args.seed, args.seconds, args.setup_reps,
                                 args.bodies or None, stop_trace)
    except Exception:  # the result file must still say what failed
        error = traceback.format_exc()
        run.ops(1, failed=1)
    finally:
        stop_trace()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - t0,
        "timed_s": sum(run.setup_s) + sum(run.wall_s),
        "setup_s": run.setup_s,
        "wall_s": run.wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "details": run.details,
        "checks": run.checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "info": run.info,
        "error": error,
    }
    if tracer is not None:
        result["trace_summary"] = tracer.summary()
        result["trace_counts"] = dict(tracer.counts)
        result["trace_absent"] = tracer.absent
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    if error:
        print(error, file=sys.stderr)
    return 0 if error is None and run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
