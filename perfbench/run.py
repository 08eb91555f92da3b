"""stochsyn benchmark: one command, three workloads, each in its own process.

    python3 perfbench/run.py --workload engine-p100|sim-p10|pipeline|all \
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` before anything is timed, in
``.perfbench_work/`` (deleted again at exit); a copy of every result is kept
in ``.perfbench_work/results/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  Any failed check makes the exit code 1.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("engine-p100", "sim-p10", "pipeline")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPS = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def thread_caps() -> dict:
    """BLAS/OpenMP thread limits: the usable CPUs, or a lower preset value."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        preset = os.environ.get(var, "")
        caps[var] = str(min(int(preset), nproc)) if preset.isdigit() and int(preset) > 0 \
            else str(nproc)
    return caps


def cache_sizes() -> dict:
    """Data/unified cache sizes of CPU 0 by level, from sysfs or lscpu."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    if not sizes and shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                sizes[key.split()[0]] = value.strip()
    return sizes


def environment(seed: int, caps: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "caches_cpu0": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": caps,
    }


def corpus(kind: str, make) -> Path:
    """A seed-independent corpus file, made once per source tree and kept.

    The key hashes the package source and the input generators, so a change
    to either makes the corpus again.
    """
    h = hashlib.sha256(kind.encode())
    for path in sorted(SRC.rglob("*.py")) + [HERE / "inputs.py"]:
        h.update(path.read_bytes())
    final = WORK / "corpus" / f"{kind}-{h.hexdigest()[:16]}"
    if not final.is_dir():
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=final.parent))
        made = make(tmp)
        (tmp / "made").write_text(str(made.relative_to(tmp)))
        os.rename(tmp, final)
    return final / (final / "made").read_text()


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    import inputs
    from workloads import SIM_M
    made = {"workdir": str(workdir)}
    if workload in ("engine-p100", "sim-p10"):
        made["params"] = str(corpus("fitted", inputs.fitted_params))
    if workload == "sim-p10":
        pulses, reads, n_reads = inputs.sim_schedule(seed, SIM_M, workdir)
        made.update(pulses=str(pulses), reads=str(reads), n_reads=n_reads)
    if workload == "pipeline":
        made["trace"] = str(corpus("trace", inputs.trace))
    return made


def run_worker(workload, seed, seconds, workdir, env, deadline, trace=0, setup_reps=SETUP_REPS,
               bodies=0) -> dict:
    out = workdir / f"result-{trace}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--inputs", str(workdir / "inputs.json"), "--seed", str(seed),
           "--seconds", str(seconds), "--setup-reps", str(setup_reps),
           "--bodies", str(bodies), "--trace", str(trace), "--out", str(out)]
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} worker ran past the {RUN_LIMIT_S:.0f} s limit",
                "attempted": 1, "failed": 1, "checks": []}
    if not out.is_file():
        return {"error": f"{workload} worker wrote no result", "attempted": 1, "failed": 1,
                "checks": []}
    with open(out) as fh:
        return json.load(fh)


def end_to_end(res: dict) -> dict:
    values = {"setup_s": statistics.median(res["setup_s"]),
              "wall_s": min(res["wall_s"]),
              "peak_rss_mb": res["peak_rss_mb"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(workload: str, args, env: dict, caps: dict) -> dict:
    """Generate inputs, run the worker(s), return the printed record."""
    deadline = time.time() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=WORK))
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            made = make_inputs(workload, args.seed, workdir)
        input_s = time.perf_counter() - t0
        (workdir / "inputs.json").write_text(json.dumps(made))
        if args.trace:
            # both runs do the same work once, so their timed sums compare
            base = run_worker(workload, args.seed, args.seconds, workdir, env, deadline,
                              setup_reps=1, bodies=1)
            res = run_worker(workload, args.seed, args.seconds, workdir, env, deadline,
                             trace=1, setup_reps=1, bodies=1)
            runs = [base, res]
        else:
            res = run_worker(workload, args.seed, args.seconds, workdir, env, deadline)
            runs = [res]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": workload,
        "correct": failed == 0 and all(not r.get("error") for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "input_s": input_s,
        "environment": environment(args.seed, caps),
        "runs": runs,
    }
    if not record["correct"]:
        return record
    if args.trace:
        import layers
        overhead = res["timed_s"] / base["timed_s"] - 1.0
        record["metrics"], record["absent"] = layers.per_layer_metrics(
            res["trace_summary"], res["trace_counts"], res["trace_absent"], overhead)
    else:
        record["metrics"] = end_to_end(res)
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric with its unit, then the checks."""
    w = record["workload"]
    for r in record["runs"]:
        for name, passed, note in r.get("checks", []):
            note = f" ({note})" if note else ""
            print(f"[{w}] check {'PASS' if passed else 'FAIL'}: {name}{note}")
        if r.get("error"):
            print(f"[{w}] error: {r['error'].strip().splitlines()[-1]}")
        for name, (value, unit) in sorted(r.get("details", {}).items()):
            if r.get("trace") == 0:
                print(f"[{w}] {name} = {value:.6g} {unit}")
    print(f"[{w}] environment: {json.dumps(record['environment'])}")
    fail_ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"[{w}] fail_ratio = {fail_ratio:.6g} ({record['failed']} of {record['attempted']})")
    for name, m in record.get("metrics", {}).items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    if record.get("absent"):
        print(f"[{w}] absent (wrapped function no longer exists, reads 0): "
              + ", ".join(record["absent"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stochsyn benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=4.0,
                    help="measure bodies until this much time has been spent in them")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stochsyn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'stochsyn'}; run from a source checkout",
              file=sys.stderr)
        return 2
    caps = thread_caps()
    os.environ.update(caps)  # before numpy is imported here or in a worker
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in chosen:
        record = run_workload(workload, args, env, caps)
        records.append(record)
        report(record)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
        (results / name).write_text(json.dumps(record, indent=1))

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0].get("metrics", {})
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r.get("metrics", {}).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
