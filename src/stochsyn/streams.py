"""Counter-based splittable random streams, one per simulated cell.

Every cell owns an independent stream addressed by (array seed, cell index)
together with a per-cell draw counter.  A draw is a pure function of
(key, counter), so results never depend on how cells are partitioned across
threads, and a cell can be replayed in isolation.  Words are produced by a
splitmix64-style finalizer applied to the keyed counter, which vectorizes
cheaply with numpy; statistical quality is more than sufficient for
Monte-Carlo use.  The finalizer (`mix64`, in place) makes both the keys and
the words, and `uniforms` feeds the Box-Muller pairs of `normals`.
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


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, an avalanching bijection of uint64, applied to
    the array ``z`` in place (one temporary of its size); returns ``z``."""
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, _U30, out=tmp)
        z ^= tmp
        z *= _MIX1
        np.right_shift(z, _U27, out=tmp)
        z ^= tmp
        z *= _MIX2
        np.right_shift(z, _U31, out=tmp)
        z ^= tmp
    return z


def stream_keys(seed: int, cells) -> np.ndarray:
    """Per-cell stream keys for a seed in 0..2**64 - 1; `cells` is an integer array."""
    cells = np.asarray(cells, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(np.uint64(seed) + _PHI * (cells + np.uint64(1)))


def raw_words(keys: np.ndarray, counters: np.ndarray, n: int) -> np.ndarray:
    """The next `n` raw 64-bit words of each stream, shape (n, len(keys)).

    Word j of stream m sits at [j, m]; the word-major layout keeps every
    downstream pass contiguous.  Pure function of the inputs; counters are
    not advanced here.  Each word is mix64 of (key xor scrambled counter).
    """
    offs = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = offs[:, None] + counters[None, :]
        z *= _STEP
        z ^= keys[None, :]
    return mix64(z)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Map raw words to float32 uniforms strictly inside (0, 1).  Consumes
    ``words``: they are shifted in place."""
    words >>= _U40
    u = words.astype(np.float32)
    u += _HALF
    u *= _INV24
    return u


def normals(keys: np.ndarray, counters: np.ndarray, n: int) -> np.ndarray:
    """`n` standard-normal float32 deviates per stream via Box-Muller,
    shape (n, len(keys)).

    `n` must be even (one transform pair per two words).  Advances
    `counters` in place by n.
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
    out = np.empty_like(u)
    np.cos(ang, out=out[:half])
    np.sin(ang, out=out[half:])
    out[:half] *= rad
    out[half:] *= rad
    return out
