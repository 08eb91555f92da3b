import struct
import zlib

import numpy as np
import pytest

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
        svar={1: type(m)(p=1, a=m.a, b=m.b, c=m.c, phi=phi, sigma_u=m.sigma_u,
                         chol_u=m.chol_u, intercept=m.intercept)},
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
