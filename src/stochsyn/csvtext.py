"""CSV rows written from numpy character matrices, without per-row Python.

Every column of a block of rows becomes a ``(rows, width)`` uint8 matrix of
ASCII characters padded with byte 0; the block's matrix is the columns side
by side with ``,`` and a newline between them, and the row text is its
non-zero bytes in order.  The text is exactly what Python's formatting
gives: ``str`` of integers and strings, and ``'%.9g'`` of floats.

``'%.9g'`` of a float32 value with 1e-9 <= |x| < 1e8 is computed exactly in
integers.  The value is M * 2**E with M < 2**24; M * 5**s fits in uint64 for
the scale s = 8 - d <= 17 that brings its decimal exponent d to the ninth
digit, the shift by E + s that completes the multiplication by 10**s rounds
half to even on the bits it drops, and a d that log10 misjudged is corrected
and the value redone.  Rounding never carries into a tenth digit: the float32
values nearest below the powers of ten in range are further from them than
the 5e-10 relative that would take.  The text is then assembled from lookup
tables of 4- and 8-byte words: the sign with the "0.000" of the fixed form
below 1, three groups of three digits that carry the point and drop trailing
zeros, and the exponent.  Every other value (zero, subnormals and |x| < 1e-9, |x| >= 1e8,
NaN and infinities, float64 values that are not exactly a float32) is
formatted by Python, one element at a time.
"""

import numpy as np

BLOCK_ROWS = 1 << 13           # rows per character matrix; its temporaries stay in cache

# range of the integer '%.9g', compared in float64; decimal exponents -9..7
_G9_MIN, _G9_MAX = np.float64(1e-9), np.float64(1e8)
_POW5 = np.array([5**k for k in range(18)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(10)], dtype=np.uint64)


def chars(texts, width: int | None = None) -> np.ndarray:
    """Character matrix of ASCII strings, padded with byte 0 to `width` (default: the longest)."""
    arr = np.array(texts, dtype=f"S{width}" if width else "S")
    return arr.view(np.uint8).reshape(arr.size, arr.itemsize)


def _group_words() -> np.ndarray:
    """Word (at * 4 + kept) * 1000 + v: the first `kept` of the 3 digits of v,
    with the point after digit `at` (none for at = 3)."""
    v = np.arange(1000)
    digits = np.stack([v // 100, v // 10 % 10, v % 10], axis=1).astype(np.uint8) + ord("0")
    out = np.zeros((4, 4, 1000, 4), np.uint8)
    for kept in range(4):
        head = digits * (np.arange(3) < kept)
        out[3, kept, :, :3] = head
        for at in range(3):
            out[at, kept, :, :at + 1] = head[:, :at + 1]
            out[at, kept, :, at + 1] = ord(".")
            out[at, kept, :, at + 2:] = head[:, at + 1:]
    return out.view(np.uint32).ravel()


def _group_rows() -> np.ndarray:
    """Row g, column (point + 1) * 10 + keep: the offset into `_GROUPS` of digit
    group g when the point follows digit `point` (-1: none) and `keep` digits
    are written.  The point is dropped when no digit follows it."""
    point, keep = np.arange(-1, 8)[:, None], np.arange(10)
    rows = []
    for g in range(3):
        at = point - 3 * g
        at = np.where((at >= 0) & (at <= 2) & (keep > point + 1), at, 3)
        rows.append(((at * 4 + np.clip(keep - 3 * g, 0, 3)) * 1000).ravel())
    return np.stack(rows)


_GROUPS = _group_words()
_GROUP_ROWS = _group_rows()
_TRAILING_ZEROS = sum((np.arange(1000) % 10**k == 0).astype(np.int64) for k in (1, 2, 3))
# indexed by decimal exponent + 9 (+ 17 for a negative value): the sign with
# the "0.000" of the fixed form below 1, and the exponent of the exponent form
_PREFIX = chars([sign + ("0." + "0" * (-d - 1) if -4 <= d < 0 else "")
                 for sign in ("", "-") for d in range(-9, 8)], 8).view(np.uint64).ravel()
_EXPONENT = chars([f"e-{-d:02d}" if d < -4 else "" for d in range(-9, 8)],
                  4).view(np.uint32).ravel()


def value_chars(values) -> np.ndarray:
    """Character matrix of a column: ``str`` of integers and strings, ``'%.9g'`` of floats."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return g9_chars(values)
    if values.dtype.kind in "iu":
        width = max(len(str(values.min())), len(str(values.max())))
        values = values.astype(f"S{width}")
    else:
        values = values.astype("S")
    return values.view(np.uint8).reshape(values.size, values.itemsize)


def g9_chars(values) -> np.ndarray:
    """Character matrix of ``f"{v:.9g}"`` for each value."""
    values = np.asarray(values).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        x = values.astype(np.float32, copy=False)
        fast = (np.abs(x) >= _G9_MIN) & (np.abs(x) < _G9_MAX) & (x == values)
    if fast.all():
        return _g9_float32(x)
    quick = _g9_float32(x[fast])
    slow = chars([f"{v:.9g}" for v in values[~fast].tolist()])
    out = np.zeros((x.size, max(quick.shape[1], slow.shape[1])), np.uint8)
    out[fast, :quick.shape[1]] = quick
    out[~fast, :slow.shape[1]] = slow
    return out


def _g9_float32(x: np.ndarray) -> np.ndarray:
    """``'%.9g'`` of float32 values with 1e-9 <= |x| < 1e8."""
    ax = np.abs(x)
    frac, e2 = np.frexp(ax)
    mant = (frac * np.float32(2**24)).astype(np.uint64)
    e2 = e2.astype(np.int64) - 24                # ax == mant * 2**e2 exactly
    d = np.clip(np.floor(np.log10(ax)).astype(np.int64), -9, 7)
    q, off = _nine_digits(mant, e2, d)
    bad = np.flatnonzero(off)
    while bad.size:                              # log10 misjudged the exponent
        d[bad] += off[bad]
        q[bad], off[bad] = _nine_digits(mant[bad], e2[bad], d[bad])
        bad = bad[off[bad] != 0]

    q = q.astype(np.int64)
    thousands, hi = q // 1000, q // 1000000
    groups = (hi, thousands - hi * 1000, q - thousands * 1000)
    zeros = np.take(_TRAILING_ZEROS, groups[2])
    zeros += (groups[2] == 0) * (np.take(_TRAILING_ZEROS, groups[1])
                                 + (groups[1] == 0) * np.take(_TRAILING_ZEROS, hi))
    exp = d < -4
    point = np.where(exp, 0, np.maximum(d, -1))  # the digit the point follows; -1: "0.00…"
    column = (point + 1) * 10 + np.maximum(9 - zeros, point + 1)

    # words: the prefix (a uint64 over the first two), 3 digit groups, the exponent
    out = np.empty((x.size, 6), np.uint32)
    for g, v in enumerate(groups):
        out[:, 2 + g] = np.take(_GROUPS, np.take(_GROUP_ROWS[g], column) + v)
    first, last = 2, 5
    neg = x < 0
    if neg.any() or (point < 0).any():
        out[:, :2].view(np.uint64)[:, 0] = np.take(_PREFIX, d + 9 + 17 * neg)
        first = 0
    if exp.any():
        out[:, 5] = np.take(_EXPONENT, d + 9)
        last = 6
    return out[:, first:last].view(np.uint8)


def _nine_digits(mant, e2, d):
    """round(mant * 2**e2 * 10**(8 - d)), ties to even, and per value the
    correction to d (-1, 0 or 1) that the truncated value's length asks for."""
    s = 8 - d
    shift = e2 + s
    scaled = (mant * _POW5[s]) << np.maximum(shift, 0).astype(np.uint64)
    drop = np.maximum(-shift, 0).astype(np.uint64)
    t = scaled >> drop
    off = (t >= _POW10[9]).astype(np.int64) - (t < _POW10[8])
    twice_rem = (scaled - (t << drop)) << np.uint64(1)
    unit = np.uint64(1) << drop
    t += (twice_rem > unit) | ((twice_rem == unit) & (t & np.uint64(1) == 1))
    return t, off


def write_rows(fh, n: int, columns) -> None:
    """Write `n` CSV rows to the binary file `fh`, `BLOCK_ROWS` rows at a time.

    A column is an array of `n` values, or a pair ``(texts, index)`` of a
    character matrix and the row of it that each CSV row takes (an array of
    `n` indices, or one index for every row).
    """
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        pieces = []
        for col in columns:
            if isinstance(col, tuple):
                texts, index = col
                pieces.append(texts[index] if np.isscalar(index)
                              else np.take(texts, index[lo:hi], axis=0))
            else:
                pieces.append(value_chars(col[lo:hi]))
        mat = np.empty((hi - lo, sum(p.shape[-1] + 1 for p in pieces)), np.uint8)
        at = 0
        for piece in pieces:
            mat[:, at:at + piece.shape[-1]] = piece
            at += piece.shape[-1]
            mat[:, at] = ord(",")
            at += 1
        mat[:, -1] = ord("\n")
        fh.write(mat[mat != 0])
