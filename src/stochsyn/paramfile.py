"""Bit-exact binary persistence of all fitted model parameters.

Layout (little-endian throughout)::

    magic   'SSYN' (4 bytes)
    version u16
    sections, each:  tag u32, payload-length u64, payload
    crc32   u32 over every preceding byte

Section payloads hold counts ahead of their float64 data, so the file is
self-describing; unknown tags are skipped on load for forward compatibility.
The autoregression section may repeat, one entry per stored model order;
any other repeated section, or a repeated order, fails to load.
Each section's payload layout is written once, in `SECTIONS`, which encoding
and decoding both walk; a float64 field that is not finite fails to load.
The conduction u0 and the gamma z_range are written as U0_DEFAULT and
Z_RANGE, and any other value fails to load; an autoregression section's
a, b, c and chol_u are derived from phi and sigma_u by `conduction.cholesky`, and checked on load.
"""

import math
import struct
import zlib
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .array import FLOAT32_MAX, ReadoutConfig, float32_problems
from .conduction import U0_DEFAULT, ConductionModel, cholesky
from .svar import SvarModel, spectral_radius, structural_decompose
from .transform import Z_RANGE, MonotonicityError, NormalizingMap, _check_monotone, inverse_map

MAGIC = b"SSYN"
VERSION = 1

SEC_CONDUCTION = 1
SEC_GAMMA = 2
SEC_SIGMA = 3
SEC_DEFAULTS = 4
SEC_SVAR = 5


class FormatError(ValueError):
    """Base class for parameter-file problems."""


class BadMagicError(FormatError):
    pass


class UnsupportedVersionError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


@dataclass(frozen=True)
class SimDefaults:
    """Array-level defaults carried with the fitted parameters."""

    u_max: float = 1.5
    dtd_scale: float = 0.0
    readout: ReadoutConfig = field(default_factory=ReadoutConfig)

    def __post_init__(self):
        if not (0.0 < self.u_max <= FLOAT32_MAX and 0.0 <= self.dtd_scale < np.inf):
            raise ValueError(f"u_max must be positive and finite in float32 (the engine's dtype),"
                             f" and dtd_scale finite and >= 0; got {self.u_max}, {self.dtd_scale}")


@dataclass
class ParameterBundle:
    conduction: ConductionModel
    gamma: NormalizingMap
    sigma: np.ndarray                 # (4, 4) covariance of the normalized data
    svar: dict                        # order -> SvarModel
    defaults: SimDefaults = field(default_factory=SimDefaults)

    def model(self, p: int | None = None) -> SvarModel:
        """The order-p model (default: 10 if stored, else the highest); ValueError if absent."""
        p = (10 if 10 in self.svar else max(self.svar)) if p is None else p
        if p not in self.svar:
            raise ValueError(f"no order-{p} model (available: {sorted(self.svar)})")
        return self.svar[p]

    def validate(self) -> None:
        """Cross-checks beyond the member constructors, in float32 where the
        engine computes in float32: sigma passes `conduction.cholesky`'s rule; γ, monotone
        on Z_RANGE, is finite and positive at its ends; the defaults pass
        `array.float32_problems`; every model passes the (cached)
        `svar.stationary_factor` gates, so the bundle can start an array."""
        sigma, gamma, cm, d = np.asarray(self.sigma), self.gamma, self.conduction, self.defaults

        def need(ok, where: str, what: str) -> None:
            if not ok:
                raise FormatError(f"section {where}: {what}")

        need(sigma.shape == (4, 4) and np.max(np.abs(sigma - sigma.T)) <= 1e-12
             and not cholesky(sigma)[1].any(),
             "sigma", "field sigma is not a symmetric 4x4 matrix, or not positive definite")
        try:
            _check_monotone(gamma)
        except MonotonicityError as exc:
            need(False, "gamma", f"field coeffs: {exc}")
        with np.errstate(all="ignore"):
            ends = inverse_map(gamma, np.float32(Z_RANGE)[:, None].repeat(4, 1))
        need(np.all((ends > 0.0) & np.isfinite(ends)), "gamma", f"field coeffs: float32"
             f" realization at the Z_RANGE ends is not finite and positive: {ends.tolist()}")
        for where, what in float32_problems(cm, sigma, d.u_max, d.dtd_scale, d.readout):
            need(False, where, what)
        for p, model in self.svar.items():
            need(p == model.p, "svar", f"model order mismatch: key {p} vs model {model.p}")
            try:
                model.stationary_factor
            except ValueError as exc:
                need(False, "svar", f"order-{p} model unstable (spectral radius"
                     f" {spectral_radius(model):.4f}): {exc}")


# Field kinds: a struct code, "I" (u32) or "?" (u8 flag), or the shape of a
# float64 array, whose entries are fixed sizes, the name of an earlier field
# ("p"), or None for a u32 size stored ahead of the data.
U32, FLAG, F64, VEC, MAT = "I", "?", (), (None,), (None, None)
_READOUT_FIELDS = (("u_read", F64), ("delta_f", F64), ("temperature", F64), ("n_bits", U32),
                   ("i_min", F64), ("i_max", F64), ("noise_enabled", FLAG))


def _svar_fields(model: SvarModel) -> dict:
    """The model's fields with the structural form the file stores beside
    them: a and b from `structural_decompose(sigma_u)`, and c_i = a phi_i."""
    a, b = structural_decompose(model.sigma_u)
    return {**vars(model), "a": a, "b": b, "c": np.einsum("ij,pjk->pik", a, model.phi)}


def _svar_model(fields) -> SvarModel:
    """The model from its primary fields; the derived ones must agree."""
    model = SvarModel(phi=fields["phi"], sigma_u=fields["sigma_u"], intercept=fields["intercept"])
    derived = _svar_fields(model)
    for name in ("a", "b", "c", "chol_u"):
        if not np.max(np.abs(fields[name] - derived[name])) <= 1e-10:
            raise ValueError(f"field {name} disagrees with phi and sigma_u by more than 1e-10")
    return model


class _Section(namedtuple("_Section", "tag name fields read build fixed key",
                          defaults=({}, None))):
    """A section: its tag, name, (field, kind) pairs in file order, the field
    values read off a bundle (one dict per stored section), the bundle member
    built back from them, the fields whose value the format fixes and, for a
    section that may repeat, the field that keys its entries."""

    def values(self, bundle) -> list:
        """Every field's value, the fixed ones included, per stored section."""
        return [{**entry, **self.fixed} for entry in self.read(bundle)]


SECTIONS = (
    _Section(SEC_CONDUCTION, "conduction", (("hhrs", VEC), ("llrs", VEC), ("u0", F64)),
             lambda b: [vars(b.conduction)],
             lambda f: ConductionModel(hhrs=f["hhrs"], llrs=f["llrs"]), {"u0": U0_DEFAULT}),
    _Section(SEC_GAMMA, "gamma", (("coeffs", MAT), ("z_range", (2,))),
             lambda b: [vars(b.gamma)], lambda f: NormalizingMap(coeffs=f["coeffs"]),
             {"z_range": Z_RANGE}),
    _Section(SEC_SIGMA, "sigma", (("sigma", (4, 4)),),
             lambda b: [{"sigma": b.sigma}], lambda f: f["sigma"]),
    _Section(SEC_DEFAULTS, "defaults", (("u_max", F64), ("dtd_scale", F64), *_READOUT_FIELDS),
             lambda b: [{"u_max": b.defaults.u_max, "dtd_scale": b.defaults.dtd_scale,
                         **vars(b.defaults.readout)}],
             lambda f: SimDefaults(u_max=f["u_max"], dtd_scale=f["dtd_scale"], readout=ReadoutConfig(
                 **{name: f[name] for name, _ in _READOUT_FIELDS}))),
    _Section(SEC_SVAR, "svar", (("p", U32), ("a", (4, 4)), ("b", (4, 4)), ("c", ("p", 4, 4)),
                                ("phi", ("p", 4, 4)), ("intercept", (4,)), ("sigma_u", (4, 4)),
                                ("chol_u", (4, 4))),
             lambda b: [_svar_fields(b.svar[p]) for p in sorted(b.svar)], _svar_model,
             key="p"),
)
_BY_TAG = {sec.tag: sec for sec in SECTIONS}


def _encode_field(kind, value) -> bytes:
    if isinstance(kind, str):
        return struct.pack("<" + kind, value)
    data = np.ascontiguousarray(value, dtype="<f8")
    stored = [n for n, d in zip(data.shape, kind) if d is None]
    return struct.pack(f"<{len(stored)}I", *stored) + data.tobytes()


def _encode(bundle: ParameterBundle) -> bytes:
    blob = MAGIC + struct.pack("<H", VERSION)
    for sec in SECTIONS:
        for values in sec.values(bundle):
            payload = b"".join(_encode_field(kind, values[name]) for name, kind in sec.fields)
            blob += struct.pack("<IQ", sec.tag, len(payload)) + payload
    return blob + struct.pack("<I", zlib.crc32(blob))


def save(bundle: ParameterBundle, path) -> None:
    bundle.validate()
    with open(path, "wb") as fh:
        fh.write(_encode(bundle))


def _decode(sec, payload: bytes) -> dict:
    """Field values of one section payload; trailing bytes are ignored."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(payload):
            raise FormatError("section payload truncated")
        pos += n
        return payload[pos - n : pos]

    values = {}
    for name, kind in sec.fields:
        if isinstance(kind, str):
            values[name] = struct.unpack("<" + kind, take(struct.calcsize("<" + kind)))[0]
            continue
        stored = iter(struct.unpack(f"<{kind.count(None)}I", take(4 * kind.count(None))))
        shape = tuple(next(stored) if d is None else values[d] if isinstance(d, str) else d
                      for d in kind)
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"section {sec.name}: field {name} is not finite")
        values[name] = data.item() if kind == F64 else data.copy()
        if name in sec.fixed and not np.array_equal(values[name], sec.fixed[name]):
            raise FormatError(f"section {sec.name}: {name} is {np.asarray(values[name]).tolist()},"
                              f" not the fixed {sec.fixed[name]}")
    return values


def load(path, validate: bool = True) -> ParameterBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10 or blob[:4] != MAGIC:
        raise BadMagicError(f"not a parameter file: magic {blob[:4]!r}")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != VERSION:
        raise UnsupportedVersionError(f"file version {version}, supported: {VERSION}")
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != crc_stored:
        raise ChecksumError("crc mismatch; file is corrupt or truncated")

    body = blob[6:-4]
    pos = 0
    found: dict = {}
    while pos < len(body):
        if pos + 12 > len(body):
            raise FormatError("dangling section header")
        tag, length = struct.unpack("<IQ", body[pos : pos + 12])
        pos += 12
        if pos + length > len(body):
            raise FormatError(f"section {tag} overruns the file")
        payload = body[pos : pos + length]
        pos += length
        sec = _BY_TAG.get(tag)
        if sec is None:
            continue  # unknown tags are skipped for forward compatibility
        values = _decode(sec, payload)
        entries, key = ((found, sec.name) if sec.key is None
                        else (found.setdefault(sec.name, {}), values[sec.key]))
        if key in entries:
            raise FormatError(f"section {sec.name}: stored twice" if sec.key is None
                              else f"section {sec.name}: {sec.key} = {key} stored twice")
        try:
            entries[key] = sec.build(values)
        except ValueError as exc:
            raise FormatError(f"section {sec.name}: {exc}") from None

    missing = [sec.name for sec in SECTIONS if sec.name not in found]
    if missing:
        raise FormatError(f"incomplete file, missing sections: {missing}")
    bundle = ParameterBundle(**found)
    if validate:
        bundle.validate()
    return bundle

