import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import stochsyn
from stochsyn import paramfile
from stochsyn.cli import main
from stochsyn.paramfile import (
    BadMagicError,
    ChecksumError,
    FormatError,
    UnsupportedVersionError,
    load,
    save,
)
from stochsyn.svar import fit_svar
from stochsyn.synth import reference_bundle, reference_svar
from stochsyn.transform import fit_map, forward_map


def test_roundtrip_bit_exact(tmp_path, ref_bundle):
    p1 = tmp_path / "a.ssyn"
    p2 = tmp_path / "b.ssyn"
    save(ref_bundle, p1)
    again = load(p1)
    save(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for p, m in ref_bundle.svar.items():
        m2 = again.svar[p]
        for name in ("a", "b", "c", "phi", "sigma_u", "chol_u", "intercept"):
            assert np.array_equal(getattr(m, name), getattr(m2, name))
    assert np.array_equal(again.gamma.coeffs, ref_bundle.gamma.coeffs)
    assert np.array_equal(again.sigma, ref_bundle.sigma)
    assert again.defaults == ref_bundle.defaults


def test_truncated_file_fails_checksum(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-17])
    with pytest.raises(ChecksumError):
        load(p)


def test_bad_magic_distinct_error(tmp_path):
    p = tmp_path / "junk.ssyn"
    p.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(BadMagicError):
        load(p)


def test_wrong_version_distinct_error(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    blob = bytearray(p.read_bytes())
    blob[4:6] = struct.pack("<H", 99)
    # keep the checksum consistent so the version check is what trips
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    p.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        load(p)


def test_corrupt_payload_fails_checksum(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    blob = bytearray(p.read_bytes())
    blob[100] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load(p)


def test_unknown_section_skipped(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    blob = bytearray(p.read_bytes())
    body = blob[:-4]
    body += struct.pack("<IQ", 999, 12) + b"hello world!"
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    p.write_bytes(bytes(body))
    again = load(p)
    assert sorted(again.svar) == sorted(ref_bundle.svar)


@pytest.mark.parametrize("tag, match", [
    (paramfile.SEC_GAMMA, "section gamma: stored twice"),
    (paramfile.SEC_SVAR, "section svar: p = 1 stored twice"),
], ids=["gamma", "svar_same_order"])
def test_repeated_section_rejected(tmp_path, ref_bundle, tag, match):
    blob = paramfile._encode(ref_bundle)[:-4]
    pos = 6
    while struct.unpack("<I", blob[pos : pos + 4])[0] != tag:
        pos += 12 + struct.unpack("<Q", blob[pos + 4 : pos + 12])[0]
    end = pos + 12 + struct.unpack("<Q", blob[pos + 4 : pos + 12])[0]
    blob += blob[pos:end]  # the first section with this tag, once more
    p = tmp_path / "a.ssyn"
    p.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(FormatError, match=match):
        load(p)


def test_missing_section_rejected(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    # rebuild the file with the gamma section renamed to an unknown tag
    save(ref_bundle, p)
    blob = bytearray(p.read_bytes())
    pos = 6
    while pos < len(blob) - 4:
        tag, length = struct.unpack("<IQ", blob[pos : pos + 12])
        if tag == paramfile.SEC_GAMMA:
            blob[pos : pos + 4] = struct.pack("<I", 777)
            break
        pos += 12 + length
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load(p)


def test_size_accounting_p200(tmp_path):
    bundle = reference_bundle(orders=(200,))
    p = tmp_path / "big.ssyn"
    save(bundle, p)
    blob = p.read_bytes()
    # walk the sections and check the autoregression payload length formula:
    # u32 order + (a, b) + (c, phi) stacks + intercept + (sigma_u, chol_u)
    pos = 6
    seen = {}
    while pos < len(blob) - 4:
        tag, length = struct.unpack("<IQ", blob[pos : pos + 12])
        seen[tag] = length
        pos += 12 + length
    assert pos == len(blob) - 4
    expected = 4 + 8 * (2 * 16 + 2 * 200 * 16 + 4 + 2 * 16)
    assert seen[paramfile.SEC_SVAR] == expected


def test_fitted_bundle_roundtrips_and_validates(tmp_path, source_features):
    gamma = fit_map(source_features[:20_000])
    z, _ = forward_map(gamma, source_features[:20_000])
    bundle = paramfile.ParameterBundle(
        conduction=reference_bundle().conduction,
        gamma=gamma,
        sigma=np.cov(z, rowvar=False),
        svar={2: fit_svar(z, 2)},
    )
    p = tmp_path / "fit.ssyn"
    save(bundle, p)
    again = load(p)  # load() validates
    assert again.model(2).p == 2
    with pytest.raises(KeyError):
        again.model(10)


def test_validate_rejects_unstable_model(tmp_path):
    bundle = reference_bundle(orders=(1,))
    m = reference_svar(1)
    phi = m.phi.copy()
    phi[0] = 1.2 * np.eye(4)
    unstable = paramfile.ParameterBundle(
        conduction=bundle.conduction, gamma=bundle.gamma, sigma=bundle.sigma,
        svar={1: type(m)(phi=phi, sigma_u=m.sigma_u, intercept=m.intercept)},
    )
    with pytest.raises(FormatError):
        unstable.validate()


def test_json_export_complete(ref_bundle):
    doc = paramfile.bundle_to_json(ref_bundle)
    assert set(doc) == {"format_version", "conduction", "gamma", "sigma",
                        "defaults", "svar"}
    assert doc["svar"]["1"]["p"] == 1
    assert len(doc["gamma"]["coeffs"]) == 4


def test_non_finite_model_parameter_rejected(tmp_path, ref_bundle):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    blob = bytearray(p.read_bytes())
    # the last section is the highest order's model, which ends with chol_u
    last = ref_bundle.svar[max(ref_bundle.svar)]
    assert struct.unpack("<d", blob[-12:-4])[0] == last.chol_u[3, 3]
    blob[-12:-4] = struct.pack("<d", float("nan"))
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load(p)
    rc = main(["generate", str(p), "-n", "10", "--seed", "1",
               "-o", str(tmp_path / "gen.csv"), "--order", str(last.p)])
    assert rc == 1


def _overwrite_f64(path, tag, offset, value):
    """Overwrite the float64 at `offset` in the first `tag` section's
    payload and recompute the checksum."""
    blob = bytearray(path.read_bytes())
    pos = 6
    while struct.unpack("<I", blob[pos : pos + 4])[0] != tag:
        pos += 12 + struct.unpack("<Q", blob[pos + 4 : pos + 12])[0]
    at = pos + 12 + offset
    blob[at : at + 8] = struct.pack("<d", value)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("tag, offset, field, command", [
    # gamma: u32 rows, u32 cols, then coeffs[0, 0]
    (paramfile.SEC_GAMMA, 8, "gamma: field coeffs", "generate"),
    (paramfile.SEC_SIGMA, 0, "sigma: field sigma", "sim"),
    # defaults: u_max, dtd_scale, u_read, delta_f, temperature, ...
    (paramfile.SEC_DEFAULTS, 32, "defaults: field temperature", "sim"),
    (paramfile.SEC_DEFAULTS, 0, "defaults: field u_max", "sim"),
], ids=["gamma-nan", "sigma-nan", "temperature-inf", "u_max-nan"])
def test_non_finite_field_rejected(tmp_path, capsys, ref_bundle, tag, offset, field, command):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    _overwrite_f64(p, tag, offset, float("inf") if "temperature" in field else float("nan"))
    with pytest.raises(FormatError, match=field):
        load(p)
    if command == "generate":
        argv = ["generate", str(p), "-n", "10", "--seed", "1", "-o", str(tmp_path / "g.csv")]
    else:
        argv = ["sim", str(p), "-m", "8", "--seed", "1", "-a", "0.5", "--preset", "multilevel",
                "--cycles", "2", "--readout-out", str(tmp_path / "ro.csv"),
                "--state-out", str(tmp_path / "st.csv")]
    assert main(argv) == 1
    assert field in capsys.readouterr().err


def test_validate_and_load_reject_model_past_the_stationary_factor(tmp_path):
    bundle = reference_bundle(orders=(1,))
    m = reference_svar(1)
    near_unit = paramfile.ParameterBundle(
        conduction=bundle.conduction, gamma=bundle.gamma, sigma=bundle.sigma,
        svar={1: type(m)(phi=0.9998 * np.eye(4)[None], sigma_u=m.sigma_u, intercept=m.intercept)},
    )
    with pytest.raises(FormatError, match="order-1"):
        near_unit.validate()
    p = tmp_path / "near.ssyn"
    p.write_bytes(paramfile._encode(near_unit))
    with pytest.raises(FormatError, match="order-1"):
        load(p)


def test_load_rejects_structure_inconsistent_with_reduced_form(tmp_path, capsys, ref_bundle):
    # the first SVAR section (order 1): u32 p, then a, b and c as float64
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    for i in range(4):
        _overwrite_f64(p, paramfile.SEC_SVAR, 4 + 128 + 8 * (5 * i), 5.0)  # b = 5 I
        for j in range(4):
            _overwrite_f64(p, paramfile.SEC_SVAR, 4 + 256 + 8 * (4 * i + j), 7.0)  # c = 7
            if j < i:
                _overwrite_f64(p, paramfile.SEC_SVAR, 4 + 8 * (4 * i + j), 3.0)
    with pytest.raises(FormatError, match="section svar: field a disagrees"):
        load(p)
    argv = ["generate", str(p), "-n", "10", "--seed", "1", "-o", str(tmp_path / "g.csv"),
            "--order", "1"]
    assert main(argv) == 1
    assert "section svar: field a" in capsys.readouterr().err


def test_stationary_factor_solved_once_per_model(tmp_path, monkeypatch, ref_bundle):
    from stochsyn import array, svar
    from stochsyn.svar import generate

    calls = []
    original = svar.stationary_factor

    def counting(model):
        calls.append(model.p)
        return original(model)

    for module in (svar, paramfile, array):  # wherever the solver is looked up by name
        if getattr(module, "stationary_factor", None) is original:
            monkeypatch.setattr(module, "stationary_factor", counting)
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    calls.clear()
    bundle = load(p)
    for order in sorted(bundle.svar):
        stochsyn.init_array(bundle, 64, seed=1, p=order)
        generate(bundle.model(order), 10, seed=2)
    assert sorted(calls) == sorted(bundle.svar)
    with pytest.raises(ValueError):  # the one cached factor is shared read-only
        bundle.model(1).stationary_factor[0, 0] = 1.0


_LOAD_UNDER_LIMIT = """
import resource, sys
limit = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from stochsyn import paramfile
try:
    paramfile.load(sys.argv[1])
except paramfile.FormatError as exc:
    print("FormatError:", exc)
"""


def test_unbounded_z_range_fails_load_without_allocating(tmp_path, ref_bundle):
    # gamma: u32 rows, u32 cols, the (4, 6) coeffs, then z_range = (lo, hi)
    p = tmp_path / "z.ssyn"
    save(ref_bundle, p)
    _overwrite_f64(p, paramfile.SEC_GAMMA, 8 + 8 * 24 + 8, 1e6)
    src = str(Path(stochsyn.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _LOAD_UNDER_LIMIT, str(p)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("FormatError: section gamma:") and "z_range" in run.stdout


@pytest.mark.parametrize("tag, offset, value, match", [
    (paramfile.SEC_GAMMA, 8 + 8 * 24, 5.0, "section gamma: z_range"),       # (5, 4)
    (paramfile.SEC_GAMMA, 8, 200.0, "section gamma: field coeffs"),         # exp overflows float32
    (paramfile.SEC_DEFAULTS, 32, -1e6, "section defaults: .*temperature >= 0"),
    (paramfile.SEC_DEFAULTS, 0, -1e308, "section defaults: u_max"),
    (paramfile.SEC_DEFAULTS, 0, 1e308, "section defaults: u_max"),          # inf in float32
    (paramfile.SEC_DEFAULTS, 8, -1.0, "section defaults: u_max .* dtd_scale"),
    # conduction: u32 size and the 6 hhrs coefficients, u32 size, then llrs
    (paramfile.SEC_CONDUCTION, 52 + 4 + 8 * 3, 1e300, "section conduction: fields hhrs, llrs"),
], ids=["z_range-reversed", "gamma-float32-overflow", "temperature-negative", "u_max-negative",
        "u_max-float32-inf", "dtd_scale-negative", "llrs-float32-overflow"])
def test_out_of_domain_field_rejected(tmp_path, capsys, ref_bundle, tag, offset, value, match):
    p = tmp_path / "a.ssyn"
    save(ref_bundle, p)
    _overwrite_f64(p, tag, offset, value)
    with pytest.raises(FormatError, match=match):
        load(p)
    argv = ["sim", str(p), "-m", "8", "--seed", "1", "--preset", "multilevel", "--cycles", "2",
            "--readout-out", str(tmp_path / "ro.csv"), "--state-out", str(tmp_path / "st.csv")]
    assert main(argv) == 1
    assert re.search(match, capsys.readouterr().err)
