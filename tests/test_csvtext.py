import io
from decimal import Decimal

import numpy as np
import pytest

from stochsyn import csvtext, waveform


def _texts(mat):
    return [bytes(row[row != 0]).decode() for row in mat]


def _py(values, digits=9):
    return [f"{v:.{digits}g}" for v in np.asarray(values, dtype=np.float64).tolist()]


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
    got = _texts(csvtext.float_chars(EDGES))
    want = _py(EDGES)
    assert [(w, g) for w, g in zip(want, got) if w != g] == []
    assert {"1000000.12", "1000000.38"} <= set(got)   # 1000000.125 and .375: half to even


def _float32_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 1 << 32, 200_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):
        return bits.astype(np.uint32).view(np.float32)


def test_g9_matches_python_on_random_float32_bit_patterns():
    x = _float32_bit_patterns()
    fast = (np.abs(x) >= 1e-9) & (np.abs(x) < 1e8)
    assert fast.sum() > 20_000          # the integer path is exercised, not only the fallback
    with np.errstate(invalid="ignore"):
        want = _py(x)
    assert [(w, g) for w, g in zip(want, _texts(csvtext.float_chars(x))) if w != g] == []


@pytest.mark.parametrize("dtype, digits", [(np.float64, 9), (np.float32, 17)],
                         ids=["float64-9", "float32-17"])
def test_the_column_dtype_picks_the_route(dtype, digits):
    # float32 values held in float64 take the 53-bit route, which leaves
    # 1e-9 <= |x| < 1e-7 to Python; float32 at 17 digits is cast to float64
    with np.errstate(invalid="ignore"):
        x = _float32_bit_patterns().astype(dtype)
        tiny = (np.abs(x) >= 1e-9) & (np.abs(x) < 1e-7)
        want = _py(x, digits)
    assert tiny.sum() > 1_000
    assert [(w, g) for w, g in zip(want, _texts(csvtext.float_chars(x, digits))) if w != g] == []


def test_g9_corrects_a_misjudged_decimal_exponent(monkeypatch):
    # the exponent comes from log10, whose last-bit rounding is the platform's;
    # shifted by one either way at random, the result must not change
    x = np.concatenate([EDGES, _g9_range_sample()])
    want = _texts(csvtext.float_chars(x))
    log10, rng = np.log10, np.random.default_rng(4)
    monkeypatch.setattr(csvtext.np, "log10",
                        lambda a: log10(a) + rng.integers(-1, 2, np.shape(a)))
    assert _texts(csvtext.float_chars(x)) == want


def test_g9_falls_back_for_float64_values_that_are_not_float32():
    x = np.array([0.1, 1 / 3, 148667.47791234, 2.5, 1e300, 5e-324])
    assert _texts(csvtext.float_chars(x)) == _py(x)


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


def _around64(values):
    """Each float64 value with its two float64 neighbours."""
    v = np.asarray(values, dtype=np.float64)
    return np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])


def _ties64(digits, ks):
    """float64 values whose exact decimal expansion has digits + 1 significant
    digits ending in 5, so '%.{digits}g' rounds half to even: odd j / 2**k
    is j * 5**k / 10**k, and j * 5**k has digits + 1 digits.  Each j is
    below 2**53, so the value is exact; for 9 digits it is above 2**24, so
    the value is not a float32 and takes the float64 path."""
    ties = []
    for k in ks:
        first = max(-(-10**digits // 5**k), 1 << 24 if digits == 9 else 1) | 1
        ties += [j / 2**k for j in range(first, first + 80, 2)]
    return np.array(ties)


TIES17 = _ties64(17, range(2, 23))    # 1e-5 <= |x| < 1e16
TIES9 = _ties64(9, (2, 3))            # the ks with such j in 1e-7 <= |x| < 1e8

EDGES64 = np.concatenate([
    [0.0, -0.0, 1.0, -1.0, 0.5, 0.1, -0.1, 1 / 3, 2 / 3],
    _around64([5e-324, 2.2250738585072014e-308, 1e-310]),      # subnormals and the normal floor
    _around64([10.0**k for k in range(-12, 21)]),               # powers of ten, each side
    _around64([1e-5, -1e-5, 1e16, -1e16, 1e-7, -1e-7, 1e8, -1e8]),  # the ranges' ends
    [99999999.97, 999999.99999, 9.99999999996e-5, 0.099999999999999999,   # carries at 9 digits
     9999999999999998.0, 0.99999999999999989, 9.9999999999999991e-6],
    [np.nan, np.inf, -np.inf, np.finfo(np.float64).max, -np.finfo(np.float64).max],
    TIES17, -TIES17, TIES9, -TIES9,
])


def _float64_range_sample():
    """Log-uniform float64 values over both ranges, both signs."""
    rng = np.random.default_rng(19)
    return 10.0 ** rng.uniform(-7, 16, 100_000) * rng.choice([-1, 1], 100_000)


def test_float64_ties_are_ties():
    for ties, digits in ((TIES17, 17), (TIES9, 9)):
        exact = [Decimal(v).normalize().as_tuple() for v in ties.tolist()]
        assert all(len(t.digits) == digits + 1 and t.digits[-1] == 5 for t in exact)
    assert not np.any(TIES9.astype(np.float32) == TIES9)


@pytest.mark.parametrize("digits", [9, 17])
def test_float64_matches_python_on_edge_values(digits):
    got = _texts(csvtext.float_chars(EDGES64, digits))
    assert [(w, g) for w, g in zip(_py(EDGES64, digits), got) if w != g] == []


@pytest.mark.parametrize("digits", [9, 17])
def test_float64_matches_python_on_random_bit_patterns(digits):
    bits = np.random.default_rng(20261019).integers(0, 1 << 64, 100_000, dtype=np.uint64,
                                                    endpoint=False)
    x = np.concatenate([bits.view(np.float64), _float64_range_sample()])
    with np.errstate(invalid="ignore"):
        want = _py(x, digits)
    assert [(w, g) for w, g in zip(want, _texts(csvtext.float_chars(x, digits))) if w != g] == []


@pytest.mark.parametrize("digits", [9, 17])
def test_float64_corrects_a_misjudged_decimal_exponent(monkeypatch, digits):
    x = np.concatenate([EDGES64, _float64_range_sample()[:20_000]])
    want = _texts(csvtext.float_chars(x, digits))
    log10, rng = np.log10, np.random.default_rng(5)
    monkeypatch.setattr(csvtext.np, "log10",
                        lambda a: log10(a) + rng.integers(-1, 2, np.shape(a)))
    assert _texts(csvtext.float_chars(x, digits)) == want


def test_float_chars_takes_9_or_17_digits():
    with pytest.raises(ValueError, match="digits"):
        csvtext.float_chars(np.ones(3), 12)


@pytest.mark.parametrize("rows", [0, 1, 2 * csvtext.BLOCK_ROWS + 5])
def test_write_features_csv_equals_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    with np.errstate(invalid="ignore"):
        features = rng.integers(0, 1 << 64, (rows, 4), dtype=np.uint64).view(np.float64)
    features[::3] = 10.0 ** rng.uniform(-6, 17, features[::3].shape)
    cycles = rng.permutation(10 * rows)[:rows] + 1
    for given in (None, cycles):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        waveform.write_features_csv(features, got, cycles=given)
        number = np.arange(1, rows + 1) if given is None else given
        with np.errstate(invalid="ignore"):
            np.savetxt(want, np.column_stack([number, features]), delimiter=",",
                       header=waveform.FEATURES_HEADER, comments="", fmt=["%d"] + ["%.17g"] * 4)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("count", [3, 7])
def test_write_features_csv_rejects_a_cycle_count_that_does_not_match(tmp_path, count):
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError, match="cycle numbers"):
        waveform.write_features_csv(np.ones((5, 4)), path, cycles=np.arange(count))
    assert not path.exists()
