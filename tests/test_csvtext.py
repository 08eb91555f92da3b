import io
from decimal import Decimal

import numpy as np
import pytest

from stochsyn import csvtext


def _texts(mat):
    return [bytes(row[row != 0]).decode() for row in mat]


def _g9(values):
    return [f"{v:.9g}" for v in np.asarray(values, dtype=np.float64).tolist()]


def _f32(*values):
    return np.array(values, dtype=np.float32)


def _around(values):
    """Each float32 value with its two float32 neighbours."""
    v = np.asarray(values, dtype=np.float32)
    return np.concatenate([v, np.nextafter(v, np.float32(np.inf)),
                           np.nextafter(v, np.float32(-np.inf))])


def _ties():
    """float32 values whose exact decimal expansion has 10 significant digits
    ending in 5, so '%.9g' rounds half to even: odd j / 2**k has k decimals,
    and with 10 - k integer digits (none for k = 10) it is a tie."""
    ties = []
    for k in range(3, 11):
        first = int(np.ceil(10.0 ** (9 - k) * 2**k)) | 1
        ties += [j / 2**k for j in range(first, first + 80, 2)]
    return np.array(ties, dtype=np.float32)


def _g9_range_sample():
    """Log-uniform float32 values over the integer range, both signs."""
    rng = np.random.default_rng(7)
    return (10.0 ** rng.uniform(-9, 8, 50_000) * rng.choice([-1, 1], 50_000)).astype(np.float32)


EDGES = np.concatenate([
    _f32(0.0, -0.0, 1.0, -1.0, 0.5, 0.1, -0.1),                   # ±0, r of exactly 0 and 1
    _around(_f32(1e-45, 1.1754942e-38, 1.1754944e-38, 3e-40)),    # subnormals and the normal floor
    _around(_f32(*[10.0**k for k in range(-12, 11)])),             # powers of ten, each side:
    # below each, the only float32 that could round up to a tenth digit
    _around(_f32(1e-9, -1e-9, 1e8, -1e8)),                         # the integer range's ends
    _f32(99999992.0, 99999999.0, 999999.999, 9.99999999e-5, 9.9999999e-9, 0.999999999),
    _f32(np.nan, np.inf, -np.inf, 3.4028235e38, -3.4028235e38),
    _ties(), -_ties(),
])


def test_g9_matches_python_on_edge_values():
    ties = [Decimal(v).normalize() for v in _ties().astype(np.float64).tolist()]
    assert all(len(t.as_tuple().digits) == 10 and t.as_tuple().digits[-1] == 5 for t in ties)
    got = _texts(csvtext.g9_chars(EDGES))
    want = _g9(EDGES)
    assert [(w, g) for w, g in zip(want, got) if w != g] == []
    assert {"1000000.12", "1000000.38"} <= set(got)   # 1000000.125 and .375: half to even


def test_g9_matches_python_on_random_float32_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 1 << 32, 200_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        x = bits.astype(np.uint32).view(np.float32)
    fast = (np.abs(x) >= 1e-9) & (np.abs(x) < 1e8)
    assert fast.sum() > 20_000          # the integer path is exercised, not only the fallback
    with np.errstate(invalid="ignore"):
        want = _g9(x)
    assert [(w, g) for w, g in zip(want, _texts(csvtext.g9_chars(x))) if w != g] == []


def test_g9_corrects_a_misjudged_decimal_exponent(monkeypatch):
    # the exponent comes from log10, whose last-bit rounding is the platform's;
    # shifted by one either way at random, the result must not change
    x = np.concatenate([EDGES, _g9_range_sample()])
    want = _texts(csvtext.g9_chars(x))
    log10, rng = np.log10, np.random.default_rng(4)
    monkeypatch.setattr(csvtext.np, "log10",
                        lambda a: log10(a) + rng.integers(-1, 2, np.shape(a)))
    assert _texts(csvtext.g9_chars(x)) == want


def test_g9_falls_back_for_float64_values_that_are_not_float32():
    x = np.array([0.1, 1 / 3, 148667.47791234, 2.5, 1e300, 5e-324])
    assert _texts(csvtext.g9_chars(x)) == _g9(x)


@pytest.mark.parametrize("values", [
    np.array([0, 7, -12, 123456789, -(1 << 40)]),
    np.arange(1000, dtype=np.uint16),
    np.array(["hrs", "lrs", "irs"]),
], ids=["int64", "uint16", "str"])
def test_value_chars_of_integers_and_strings_is_str(values):
    assert _texts(csvtext.value_chars(values)) == [str(v) for v in values.tolist()]


def test_write_rows_equals_the_f_string_across_blocks():
    rng = np.random.default_rng(3)
    n = 2 * csvtext.BLOCK_ROWS + 17
    cells = rng.permutation(5 * n)[:n]
    x = (rng.standard_normal(n) * 1e-5).astype(np.float32)
    x[::97] = 0.0
    codes = rng.integers(0, 16, n)
    code_text = [f"{c},{c * 2.5e-6:.9g}" for c in range(16)]
    cell_text = csvtext.value_chars(np.arange(5 * n))
    fh = io.BytesIO()
    csvtext.write_rows(fh, n, [(csvtext.chars(["42"]), 0), (cell_text, cells), x,
                               (csvtext.chars(code_text), codes), x.astype(np.float64) * 3])
    want = "".join(f"42,{c},{v:.9g},{code_text[k]},{v * 3:.9g}\n" for c, v, k
                   in zip(cells.tolist(), x.astype(np.float64).tolist(), codes.tolist()))
    assert fh.getvalue() == want.encode()
