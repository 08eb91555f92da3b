"""CSV rows written from numpy character matrices, without per-row Python.

Every column of a block of rows becomes a ``(rows, width)`` uint8 matrix of
ASCII characters padded with byte 0; the block's matrix is the columns side
by side with ``,`` and a newline between them, and the row text is its
non-zero bytes in order.  The text is exactly what Python's formatting
gives: ``str`` of integers and strings, and ``'%.9g'`` or ``'%.17g'`` of
floats (`write_rows` takes the digit count).

The n significant digits of a float are computed exactly in integers.  The
value is M * 2**E; for the scale s = n - 1 - d that brings its decimal
exponent d to the n-th digit, M * 5**s is formed exactly, and the shift by
E + s that completes the multiplication by 10**s rounds half to even on the
bits it drops.  A d that log10 misjudged is corrected and the value redone.
The column's dtype picks M's width: a float32 column at 9 digits keeps its
24-bit mantissas, with 1e-9 <= |x| < 1e8, and every other column is cast to
float64, with 53-bit mantissas and 1e-7 <= |x| < 1e8 at 9 digits or
1e-5 <= |x| < 1e16 at 17.  One product serves both: M < 2**53 and s <= 21,
so M * 5**s < 2**102 is formed in two uint64 words from 32-bit limbs, and
over these ranges the shift drops at most 62 bits, even after a misjudged d,
so the rounding reads the low word alone.  A value that rounds up to 10**n
is written as 10**(n - 1) with d + 1; a float32 value at 9 digits never
does, since those nearest below the powers of ten are further from them
than the 5e-10 relative that would take.

The text is then assembled from lookup tables of 4- and 8-byte words: the
sign with the "0.000" of the fixed form below 1, up to six groups of three
digits that carry the point and drop trailing zeros (17 digits are written
as 18 with a trailing zero), and the exponent.  Every other value (zero,
subnormals, values outside the ranges, NaN and infinities) is formatted by
Python, one element at a time.
"""

import numpy as np

BLOCK_ROWS = 1 << 13           # rows per character matrix; its temporaries stay in cache

# (dtype, digits) -> the decimal exponents written in integers: 10**lo <= |x| < 10**(hi + 1);
# a column whose pair is not here is cast to float64
_EXPONENTS = {(np.float32, 9): (-9, 7), (np.float64, 9): (-7, 7), (np.float64, 17): (-5, 15)}
_POW5 = np.array([5**k for k in range(22)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)

_GROUP_COUNT = 6               # digit groups of 3: the 17 digits and a trailing zero
_COLUMNS = 3 * _GROUP_COUNT + 1
_D_MIN, _D_MAX = -9, 16        # decimal exponents the tables cover, carries included


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
    """Row g, column (point + 1) * _COLUMNS + keep: the offset into `_GROUPS`
    of digit group g when the point follows digit `point` (-1: none) and
    `keep` digits are written.  The point is dropped when no digit follows it."""
    point, keep = np.arange(-1, _COLUMNS - 1)[:, None], np.arange(_COLUMNS)
    rows = []
    for g in range(_GROUP_COUNT):
        at = point - 3 * g
        at = np.where((at >= 0) & (at <= 2) & (keep > point + 1), at, 3)
        rows.append(((at * 4 + np.clip(keep - 3 * g, 0, 3)) * 1000).ravel())
    return np.stack(rows)


def _exponent_words(digits: int) -> np.ndarray:
    """The exponent of '%.{digits}g' for each decimal exponent, "" in the fixed form."""
    return chars([f"e{d:+03d}" if d < -4 or d >= digits else ""
                  for d in range(_D_MIN, _D_MAX + 1)], 4).view(np.uint32).ravel()


_GROUPS = _group_words()
_GROUP_ROWS = _group_rows()
_TRAILING_ZEROS = sum((np.arange(1000) % 10**k == 0).astype(np.int64) for k in (1, 2, 3))
# indexed by decimal exponent - _D_MIN (+ _D_SPAN for a negative value): the
# sign with the "0.000" of the fixed form below 1
_D_SPAN = _D_MAX - _D_MIN + 1
_PREFIX = chars([sign + ("0." + "0" * (-d - 1) if -4 <= d < 0 else "")
                 for sign in ("", "-") for d in range(_D_MIN, _D_MAX + 1)],
                8).view(np.uint64).ravel()
_EXPONENT = {digits: _exponent_words(digits) for _, digits in _EXPONENTS}


def value_chars(values, digits: int = 9) -> np.ndarray:
    """Character matrix of a column: ``str`` of integers and strings,
    ``'%.{digits}g'`` of floats (`digits` 9 or 17)."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return float_chars(values, digits)
    if values.dtype.kind in "iu":
        width = max(len(str(values.min())), len(str(values.max())))
        values = values.astype(f"S{width}")
    else:
        values = values.astype("S")
    return values.view(np.uint8).reshape(values.size, values.itemsize)


def float_chars(values, digits: int = 9) -> np.ndarray:
    """Character matrix of ``f"{v:.{digits}g}"`` for each value, `digits` 9 or 17."""
    if (np.float64, digits) not in _EXPONENTS:
        raise ValueError(f"digits must be 9 or 17, got {digits}")
    x = np.asarray(values).ravel()
    with np.errstate(invalid="ignore"):          # casts of signalling NaNs
        if (x.dtype.type, digits) not in _EXPONENTS:
            x = x.astype(np.float64)
        lo, hi = _EXPONENTS[x.dtype.type, digits]
        ax = np.abs(x)                           # compared in float64, as the bounds are
        fast = (ax >= np.float64(10.0**lo)) & (ax < np.float64(10.0**(hi + 1)))
    if fast.all():
        return _exact_g(x, digits, (lo, hi))
    exact = _exact_g(x[fast], digits, (lo, hi))
    python = chars([f"{v:.{digits}g}" for v in x[~fast].tolist()])
    out = np.zeros((x.size, max(exact.shape[1], python.shape[1])), np.uint8)
    out[fast, :exact.shape[1]] = exact
    out[~fast, :python.shape[1]] = python
    return out


def _decompose(ax: np.ndarray, d_range):
    """ax == mant * 2**e2 with mant below 2**(the dtype's mantissa bits), and
    log10's decimal exponent clipped to `d_range`."""
    bits = np.finfo(ax.dtype).nmant + 1
    frac, e2 = np.frexp(ax)
    mant = (frac * ax.dtype.type(2**bits)).astype(np.uint64)
    d = np.clip(np.floor(np.log10(ax)).astype(np.int64), *d_range)
    return mant, e2.astype(np.int64) - bits, d


def _exact_digits(mant, e2, d, digits: int):
    """`_round_digits`, with each d that log10 misjudged corrected."""
    q, off = _round_digits(mant, e2, d, digits)
    bad = np.flatnonzero(off)
    while bad.size:
        d[bad] += off[bad]
        q[bad], off[bad] = _round_digits(mant[bad], e2[bad], d[bad], digits)
        bad = bad[off[bad] != 0]
    return q, d


def _exact_g(x: np.ndarray, digits: int, d_range) -> np.ndarray:
    """``'%.{digits}g'`` of float32 or float64 values with decimal exponents
    in `d_range`."""
    q, d = _exact_digits(*_decompose(np.abs(x), d_range), digits)
    carry = q == _POW10[digits]
    q[carry] = _POW10[digits - 1]
    return _assemble(q, d + carry, x < 0, digits)


def _round_digits(mant, e2, d, digits: int):
    """round(mant * 2**e2 * 10**(digits - 1 - d)), ties to even, for
    mant < 2**53, and per value the correction to d (-1, 0 or 1) that the
    truncated value's length asks for.  The product mant * 5**s is the two
    words (hi, lo), from 32-bit limbs; the shift drops at most 62 bits."""
    s = digits - 1 - d
    p5 = _POW5[s]
    m_hi, m_lo, p_hi, p_lo = mant >> 32, mant & _LOW32, p5 >> 32, p5 & _LOW32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi              # < 2**54
    lo = low + (mid << 32)
    hi = m_hi * p_hi + (mid >> 32) + (lo < low)  # the carry out of the low word
    shift = e2 + s
    drop = np.maximum(-shift, 0).astype(np.uint64)
    t = ((lo >> drop) | ((hi << 1) << (63 - drop))) << np.maximum(shift, 0).astype(np.uint64)
    off = (t >= _POW10[digits]).astype(np.int64) - (t < _POW10[digits - 1])
    twice_rem = (lo & ((np.uint64(1) << drop) - 1)) << 1
    unit = np.uint64(1) << drop
    t += (twice_rem > unit) | ((twice_rem == unit) & (t & 1 == 1))
    return t, off


def _assemble(q, d, neg, digits: int) -> np.ndarray:
    """Character matrix of '%.{digits}g' from its `digits` decimal digits q,
    decimal exponent d and sign."""
    count = (digits + 2) // 3
    q = q.astype(np.int64) * 10 ** (3 * count - digits)
    groups = []
    for _ in range(count - 1):
        head = q // 1000                         # numpy's // by a scalar; divmod is slower
        groups.insert(0, q - head * 1000)
        q = head
    groups.insert(0, q)
    zeros = np.take(_TRAILING_ZEROS, groups[-1])
    for k, v in enumerate(groups[-2::-1], 1):    # the k later groups are 0 iff zeros == 3k
        zeros += np.take(_TRAILING_ZEROS, v) * (zeros == 3 * k)
    exp = (d < -4) | (d >= digits)
    point = np.where(exp, 0, np.maximum(d, -1))  # the digit the point follows; -1: "0.00…"
    column = (point + 1) * _COLUMNS + np.maximum(3 * count - zeros, point + 1)

    # words: the prefix (a uint64 over the first two), the digit groups, the
    # exponent, and a spare word that keeps the rows' uint64 aligned
    out = np.empty((q.size, count + 3 + (count + 3) % 2), np.uint32)
    for g, v in enumerate(groups):
        out[:, 2 + g] = np.take(_GROUPS, np.take(_GROUP_ROWS[g], column) + v)
    first, last = 2, count + 2
    if neg.any() or (point < 0).any():
        out[:, :2].view(np.uint64)[:, 0] = np.take(_PREFIX, d - _D_MIN + _D_SPAN * neg)
        first = 0
    if exp.any():
        out[:, last] = np.take(_EXPONENT[digits], d - _D_MIN)
        last += 1
    return out[:, first:last].view(np.uint8)


def write_rows(fh, n: int, columns, digits: int = 9) -> None:
    """Write `n` CSV rows to the binary file `fh`, `BLOCK_ROWS` rows at a time,
    floats as ``'%.{digits}g'`` (`digits` 9 or 17).

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
                pieces.append(value_chars(col[lo:hi], digits))
        mat = np.empty((hi - lo, sum(p.shape[-1] + 1 for p in pieces)), np.uint8)
        at = 0
        for piece in pieces:
            mat[:, at:at + piece.shape[-1]] = piece
            at += piece.shape[-1]
            mat[:, at] = ord(",")
            at += 1
        mat[:, -1] = ord("\n")
        fh.write(mat[mat != 0])
