"""Fuzz tests of the text inputs: the trace CSV, the features CSV,
`limits.json` and the `sim` pulse and read scripts; and of the binary `.iuw`
trace.

Each test mutates a valid file (fields replaced by hostile tokens, added or
dropped, lines deleted, duplicated or swapped, the text cut short; for the
`.iuw` file, its magic, count, length and float pairs) and runs the command
that reads it through `cli.main`.  Every run must exit 0 with
finite outputs, or exit 1 or 2 with a one-line `error:` message (after the
`warning:` lines `fit` prints for its fallbacks); an exception escaping
`cli.main` fails the test.  The examples are derandomized with a fixed count,
so every run checks the same files.  Each test runs in a child interpreter
under an address-space limit, so an input that makes a command allocate
gigabytes fails the test instead of exhausting the machine's memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import stochsyn

_PRELUDE = r"""
import resource
limit = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

import contextlib, io, json, re, tempfile, warnings
from pathlib import Path
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from stochsyn import cli, paramfile, synth
from stochsyn.array import init_array

warnings.simplefilter("ignore")
WORK_DIR = tempfile.TemporaryDirectory()   # removed when the interpreter exits
WORK = Path(WORK_DIR.name)
NUMBERS = ("nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308", "3.5e38", "1e39", "-1e39",
           "1e400", "1" + "0" * 400, "18446744073709551617", "1e30", "-1e30", "1e-30", "1e-45",
           "5e-324", "0", "-0", "0.0", "-1", "1", "2", "0.5", "-0.5", "100", "65536")
# the named numbers twice as often as random floats or small integers
NUMBER = st.sampled_from(NUMBERS) | st.sampled_from(NUMBERS) | st.floats().map(repr) \
    | st.integers(-20, 20).map(str)
TOKEN = st.sampled_from(("", " ", "x", "1e", "--1", "+1", "1_0", "0x10", "all", "0:4", "3:1",
                         "0:99", "-2:3", ":", "#", '"', "null", "true", "[]", "{}", "[1e400]",
                         '"0.2"')) | st.text(alphabet="0123456789.,:-+eEnaif ", max_size=8)


def mutations(lines, columns, rows=None):
    '''Lists of edits to a text made of `lines`: up to four values drawn
    from `columns[c]` put in place of field c of one of `rows` (default:
    every line but the header), which keeps the file's shape, then at most
    one edit that may break it.'''
    at = st.integers(0, len(lines) - 1)
    cell = st.one_of(*[st.tuples(st.just(c), values) for c, values in enumerate(columns)])
    values = st.lists(st.tuples(st.sampled_from(rows or range(1, len(lines))), cell)
                      .map(lambda pick: ("replace", pick[0], *pick[1])), max_size=4)
    shape = st.lists(st.one_of(
        st.tuples(st.just("replace"), at, st.integers(0, 8), TOKEN),
        st.tuples(st.just("append"), at, TOKEN),
        st.tuples(st.just("drop"), at, st.integers(0, 8)),
        st.tuples(st.just("delete"), at),
        st.tuples(st.just("dup"), at),
        st.tuples(st.just("swap"), at, at),
        st.tuples(st.just("cut"), st.integers(0, sum(map(len, lines)) + len(lines))),
    ), max_size=1)
    return st.tuples(values, shape).map(lambda pair: pair[0] + pair[1])


def mutate(lines, edits) -> str:
    lines = list(lines)
    for kind, *args in edits:
        if kind == "cut":
            return "\n".join(lines)[: args[0]]
        if not lines:
            break
        k = args[0] % len(lines)
        fields = lines[k].split(",")
        if kind == "replace":
            fields[args[1] % len(fields)] = args[2]
        elif kind == "append":
            fields.append(args[1])
        elif kind == "drop" and len(fields) > 1:
            del fields[args[1] % len(fields)]
        elif kind == "delete":
            del lines[k]
            continue
        elif kind == "dup":
            lines.insert(k, lines[k])
            continue
        elif kind == "swap":
            j = args[1] % len(lines)
            lines[k], lines[j] = lines[j], lines[k]
            continue
        lines[k] = ",".join(fields)
    return "\n".join(lines) + "\n"


def finite_json(path):
    def reject(name):
        raise AssertionError(f"{path}: {name}")
    json.loads(Path(path).read_text(), parse_constant=reject)


def finite_csv(path):
    text = Path(path).read_text()
    assert not re.search("nan|inf", text, re.IGNORECASE), path


def runs_finite(params):
    bundle = paramfile.load(params)
    for p in sorted(bundle.svar):
        arr = init_array(bundle, 8, seed=1, p=p)
        u = arr.u_max
        for amp in (-u, 0.5 * u, -u, u):
            arr.apply_pulses(amp)
            current, _, dequantized = arr.read_all()
            for out in (current, dequantized, arr.r, arr.features):
                assert np.all(np.isfinite(out)), p


def run(argv, *checks):
    '''cli.main(argv): exit 0 and every check passes, or exit 1 or 2 with
    one `error:` line after any `warning:` lines.'''
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    if rc == 0:
        assert lines == [], err.getvalue()
        for check in checks:
            check()
    else:
        assert rc in (1, 2), (rc, err.getvalue())
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def fuzz(strategy, examples):
    return lambda check: settings(max_examples=examples, derandomize=True, deadline=None,
                                  database=None, suppress_health_check=list(HealthCheck))(
        given(strategy)(check))


CORPUS = WORK / "corpus"
assert cli.main(["synth", str(CORPUS), "-n", "1200", "--seed", "1", "--trace-cycles", "6"]) == 0
"""

_TRACE = r"""
trace = cli.waveform.read_trace(CORPUS / "trace.iuw")
U, I = trace.read(0, len(trace))
LINES = ["u,i"] + [f"{u!r},{i!r}" for u, i in zip(U.tolist(), I.tolist())]


@fuzz(mutations(LINES, [NUMBER] * 2), 120)
def check(edits):
    path, out, limits = WORK / "t.csv", WORK / "f.csv", WORK / "limits.json"
    path.write_text(mutate(LINES, edits))
    run(["extract", path, out, "--limits-out", limits],
        lambda: finite_csv(out), lambda: finite_json(str(out) + ".report.json"),
        lambda: finite_json(limits))


check()
"""

_IUW = r"""
import struct

BASE = (CORPUS / "trace.iuw").read_bytes()
PAIRS = len(BASE) // 8 - 1
FLOATS = (float("nan"), float("inf"), -float("inf"), 3.4028234663852886e38, -1e30, 1e-45, 0.0,
          -0.0, 1.0, -1.5)
# the named floats twice as often as random float32 values
FLOAT = st.sampled_from(FLOATS) | st.sampled_from(FLOATS) | st.floats(width=32)
COUNT = st.sampled_from((0, 1, PAIRS - 1, PAIRS + 1, PAIRS // 2, 2 * PAIRS, 2**32 - 1)) \
    | st.integers(0, 2**32 - 1)
PAIR_EDIT = st.tuples(st.just("pair"), st.integers(0, PAIRS - 1), st.integers(0, 1), FLOAT)
SHAPE_EDIT = st.one_of(
    st.tuples(st.just("magic"), st.binary(min_size=4, max_size=4)),
    st.tuples(st.just("count"), COUNT),
    st.tuples(st.just("cut"), st.integers(0, 12) | st.integers(0, len(BASE))),   # header too
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
)


def mutate_iuw(edits) -> bytes:
    data = bytearray(BASE)
    for kind, *args in edits:
        if kind == "pair":
            struct.pack_into("<f", data, 8 + 8 * args[0] + 4 * args[1], args[2])
        elif kind == "magic":
            data[:4] = args[0]
        elif kind == "count":
            struct.pack_into("<I", data, 4, args[0])
        elif kind == "cut":
            del data[args[0]:]
        else:
            data += args[0]
    return bytes(data)


# up to four float pairs changed, then at most one edit of the file's shape
@fuzz(st.tuples(st.lists(PAIR_EDIT, max_size=4), st.lists(SHAPE_EDIT, max_size=1))
      .map(lambda pair: pair[0] + pair[1]), 100)
def check(edits):
    path, out, limits = WORK / "t.iuw", WORK / "f.csv", WORK / "limits.json"
    path.write_bytes(mutate_iuw(edits))
    run(["extract", path, out, "--limits-out", limits],
        lambda: finite_csv(out), lambda: finite_json(str(out) + ".report.json"),
        lambda: finite_json(limits))


check()
"""

_FEATURES = r"""
LINES = (CORPUS / "features.csv").read_text().splitlines()


@fuzz(mutations(LINES, [NUMBER] * 5), 60)
def check(edits):
    path, out = WORK / "f.csv", WORK / "f.ssyn"
    path.write_text(mutate(LINES, edits))
    run(["fit", path, "-o", out, "-p", "1"], lambda: runs_finite(out),
        lambda: finite_json(str(out) + ".diag.json"))


check()
"""

_LIMITS = r"""
assert cli.main(["extract", str(CORPUS / "trace.iuw"), str(WORK / "x.csv"),
                 "--limits-out", str(WORK / "base.json")]) == 0
# one value per line, so that a value edit keeps the JSON well formed
LINES = json.dumps(json.loads((WORK / "base.json").read_text()), indent=0) \
    .replace(": ", ":\n").splitlines()


def number(text):
    try:
        float(text.rstrip(","))
    except ValueError:
        return False
    return True


@fuzz(mutations(LINES, [NUMBER], [k for k, line in enumerate(LINES) if number(line)]), 100)
def check(edits):
    path, out = WORK / "limits.json", WORK / "l.ssyn"
    path.write_text(mutate(LINES, edits))
    run(["fit", CORPUS / "features.csv", "-o", out, "-p", "1", "--conduction", path],
        lambda: runs_finite(out), lambda: finite_json(str(out) + ".diag.json"))


check()
"""

_SCRIPTS = r"""
PARAMS = WORK / "p1.ssyn"
paramfile.save(synth.reference_bundle(orders=(1,)), PARAMS)
PULSES = ["step,target,u_a", "0,all,-1.5", "1,0:4,1.5", "2,7,0.9", "2,3,-0.4", "3,8:16,1.1",
          "4,all,-1.5", "5,15,1.5"]
READS = ["step,target", "0,all", "2,3", "2,4:9", "3,all", "5,0"]
STEP = st.integers(-2, 12).map(str) | st.sampled_from(("18446744073709551617", "1e3", "0.5"))
TARGET = st.sampled_from(("all", "16", "-1", "0:17", "3:3", "4:2", " 3 ", "2:", "0:0")) \
    | st.integers(0, 15).map(str) \
    | st.tuples(st.integers(0, 16), st.integers(0, 16)).map(lambda t: f"{t[0]}:{t[1]}")


@fuzz(st.tuples(mutations(PULSES, [STEP, TARGET, NUMBER]), mutations(READS, [STEP, TARGET])),
      200)
def check(edits):
    pulses, reads = WORK / "pulses.csv", WORK / "reads.csv"
    pulses.write_text(mutate(PULSES, edits[0]))
    reads.write_text(mutate(READS, edits[1]))
    ro, state = WORK / "ro.csv", WORK / "st.csv"
    run(["sim", PARAMS, "-m", "16", "--seed", "3", "--pulses", pulses, "--reads", reads,
         "--readout-out", ro, "--state-out", state],
        lambda: finite_csv(ro), lambda: finite_csv(state))


check()
"""


def _run_child(body):
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _PRELUDE + body], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-4000:]


def test_mutated_trace_csv_extracts_finite_or_fails_cleanly():
    _run_child(_TRACE)


def test_mutated_iuw_trace_extracts_finite_or_fails_cleanly():
    _run_child(_IUW)


def test_mutated_features_csv_fits_finite_or_fails_cleanly():
    _run_child(_FEATURES)


def test_mutated_limits_json_fits_finite_or_fails_cleanly():
    _run_child(_LIMITS)


def test_mutated_sim_scripts_run_finite_or_fail_cleanly():
    _run_child(_SCRIPTS)
