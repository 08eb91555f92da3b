"""Fuzz test of `.ssyn` loading.

A reference bundle of orders (1, 3) is mutated by byte flips, by one float64
field overwritten with an extreme value, or by truncation, each with the CRC
recomputed.  Every mutated file must either fail `load` with FormatError, or
start a 64-cell array at every order, pulse it, read it and generate from it
with all-finite outputs.  The examples are derandomized, so every run checks
the same files.  It runs in a child interpreter under an address-space limit,
so a file that makes `load` allocate gigabytes fails the test instead of
exhausting the machine's memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import stochsyn

_FUZZ = r"""
import resource
limit = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

import struct, tempfile, warnings, zlib
from pathlib import Path
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from stochsyn import paramfile
from stochsyn.array import init_array
from stochsyn.svar import generate
from stochsyn.synth import reference_bundle
from stochsyn.transform import inverse_map

warnings.simplefilter("ignore")
BUNDLE = reference_bundle(orders=(1, 3))
BLOB = paramfile._encode(BUNDLE)
BODY = len(BLOB) - 4
EXTREMES = (1e308, -1e308, 3.5e38, 1e38, -1e38, 1e6, -1e6, 200.0, -200.0, 0.0, -0.0,
            5e-324, 1e-300, float("nan"), float("inf"), float("-inf"))


def float64_offsets():
    # walks the sections as `paramfile._encode` writes them
    out, pos = [], 6
    for sec in paramfile.SECTIONS:
        for values in sec.values(BUNDLE):
            pos += 12
            for name, kind in sec.fields:
                chunk = paramfile._encode_field(kind, values[name])
                if not isinstance(kind, str):
                    head = 4 * kind.count(None)
                    out += range(pos + head, pos + len(chunk), 8)
                pos += len(chunk)
    return out


MUTATIONS = st.one_of(
    st.lists(st.tuples(st.integers(0, BODY - 1), st.integers(1, 255)), min_size=1, max_size=3)
    .map(lambda flips: ("flip", flips)),
    st.tuples(st.just("f64"), st.sampled_from(float64_offsets()), st.sampled_from(EXTREMES)),
    st.tuples(st.just("cut"), st.integers(0, BODY - 1)),
)
PATH = Path(tempfile.mkdtemp()) / "m.ssyn"


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(MUTATIONS)
def check(mutation):
    body = bytearray(BLOB[:BODY])
    if mutation[0] == "flip":
        for at, mask in mutation[1]:
            body[at] ^= mask
    elif mutation[0] == "f64":
        body[mutation[1] : mutation[1] + 8] = struct.pack("<d", mutation[2])
    else:
        del body[mutation[1] :]
    PATH.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    try:
        bundle = paramfile.load(PATH)
    except paramfile.FormatError:
        return
    u = bundle.defaults.u_max
    for p in sorted(bundle.svar):
        arr = init_array(bundle, 64, seed=1, p=p)
        for amp in (-u, 0.5 * u, -u, 0.9 * u, u, -u):
            arr.apply_pulses(amp)
            current, _, dequantized = arr.read_all()
            for out in (current, dequantized, arr.r, arr.features):
                assert np.all(np.isfinite(out)), (mutation, p)
        z = generate(bundle.model(p), 50, seed=2)
        assert np.all(np.isfinite(inverse_map(bundle.gamma, z))), (mutation, p)


check()
"""


def test_mutated_files_fail_load_or_run_finite():
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _FUZZ], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-4000:]
