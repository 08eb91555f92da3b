"""Counter-based splittable random streams, one per simulated cell.

Every cell owns an independent stream addressed by (array seed, cell index)
together with a per-cell draw counter.  A draw is a pure function of
(key, counter), so results never depend on how cells are partitioned across
threads, and a cell can be replayed in isolation.  Word o of a stream at
counter c is the splitmix64 finalizer of key ^ (c + o)·STEP, which
vectorizes cheaply with numpy; statistical quality is more than sufficient
for Monte-Carlo use.  The keys take the whole finalizer (`mix64`); a draw
uses only its words' top 24 bits (`uniforms`), which the first two of the
finalizer's three rounds already fix (`raw_words`), and `uniforms` feeds
the Box-Muller pairs of `normals`.
"""

import numpy as np

_PHI = np.uint64(0x9E3779B97F4A7C15)
_STEP = np.uint64(0xD6E8FEB86659FD93)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U40 = np.uint64(40)

_TWO_PI = np.float32(2.0 * np.pi)
_HALF = np.float32(0.5)
_INV24 = np.float32(2.0 ** -24)


def _two_rounds(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The first two xorshift-multiply rounds of the splitmix64 finalizer,
    on the array ``z`` in place, with ``tmp`` (z's shape) as scratch;
    returns ``z``.  uint64 array products wrap mod 2^64 without a warning."""
    np.right_shift(z, _U30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _U27, out=tmp)
    z ^= tmp
    z *= _MIX2
    return z


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, an avalanching bijection of uint64, applied to
    the array ``z`` in place (one temporary of its size); returns ``z``."""
    tmp = np.empty_like(z)
    z = _two_rounds(z, tmp)
    np.right_shift(z, _U31, out=tmp)
    z ^= tmp
    return z


def stream_keys(seed: int, cells) -> np.ndarray:
    """Per-cell stream keys for a seed in 0..2**64 - 1; `cells` is an integer array."""
    cells = np.asarray(cells, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(np.uint64(seed) + _PHI * (cells + np.uint64(1)))


def raw_words(keys: np.ndarray, counters: np.ndarray, n: int) -> np.ndarray:
    """The next `n` words of each stream, shape (n, len(keys)); bits 33-63
    of each are those of its full splitmix64 word.

    Word j of stream m sits at [j, m]; the word-major layout keeps every
    downstream pass contiguous.  Pure function of the inputs; counters are
    not advanced here.  The full word is mix64(key ^ (counter + j + 1)·STEP),
    computed in fewer passes:

    * (c + o)·STEP = c·STEP + o·STEP mod 2^64, so c·STEP is one (m,)
      multiply and each word adds its own constant o·STEP.
    * The finalizer's last round, w ^= w >> 31, changes bit k only through
      bit k + 31, which is past bit 63 for every k >= 33, so the words stop
      after two rounds.  `uniforms` reads bits 40-63 only.
    """
    z = (np.arange(1, n + 1, dtype=np.uint64) * _STEP)[:, None] + counters * _STEP
    z ^= keys
    return _two_rounds(z, np.empty_like(z))


def uniforms(words: np.ndarray) -> np.ndarray:
    """Map words to float32 uniforms strictly inside (0, 1) by their bits
    40-63, (w >> 40 + 1/2)·2^-24.  Consumes ``words``: they are shifted in
    place.  w >> 40 is below 2^24, so uint64 -> int32 -> float32 casts it
    exactly, and faster than numpy's uint64 -> float32 loop."""
    words >>= _U40
    u = words.astype(np.int32).astype(np.float32)
    u += _HALF
    u *= _INV24
    return u


def normals(keys: np.ndarray, counters: np.ndarray, n: int, sines: bool = True) -> np.ndarray:
    """`n` standard-normal float32 deviates per stream via Box-Muller,
    shape (n, len(keys)).

    `n` must be even (one transform pair per two words).  Advances
    `counters` in place by n.  With `sines` false only the cosine half of
    each pair is made: the first n/2 rows, bit for bit, for the same n
    words and the same counter advance.
    """
    if n % 2:
        raise ValueError("normals() draws words in pairs; n must be even")
    u = uniforms(raw_words(keys, counters, n))
    counters += np.uint64(n)
    half = n // 2
    # first half of the uniforms feeds the radii, second half the angles
    rad = u[:half]
    ang = u[half:]
    np.log(rad, out=rad)
    rad *= np.float32(-2.0)
    np.sqrt(rad, out=rad)
    ang *= _TWO_PI
    if not sines:
        np.cos(ang, out=ang)
        ang *= rad
        return ang
    out = np.empty_like(u)
    np.cos(ang, out=out[:half])
    np.sin(ang, out=out[half:])
    pairs = out.reshape(2, half, -1)
    np.multiply(pairs, rad, out=pairs)
    return out
