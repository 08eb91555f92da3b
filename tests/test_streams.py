import numpy as np
import pytest

from stochsyn import streams


def test_keys_distinct():
    keys = streams.stream_keys(1234, np.arange(10_000))
    assert np.unique(keys).size == 10_000


def test_seeds_outside_64_bits_raise():
    # masked to 64 bits, 2**64 gave seed 0's keys and -1 those of 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            streams.stream_keys(seed, np.arange(3))


def test_raw_words_pure_and_partition_invariant():
    keys = streams.stream_keys(7, np.arange(1000))
    ctr = np.arange(1000, dtype=np.uint64) * np.uint64(13)
    full = streams.raw_words(keys, ctr, 6)
    again = streams.raw_words(keys, ctr, 6)
    assert np.array_equal(full, again)
    # any chunking of the cells reproduces the same words
    for lo, hi in [(0, 1), (17, 400), (400, 1000)]:
        part = streams.raw_words(keys[lo:hi], ctr[lo:hi], 6)
        assert np.array_equal(part, full[:, lo:hi])


def test_counter_advance_and_continuation():
    keys = streams.stream_keys(3, np.arange(5))
    ctr = np.zeros(5, dtype=np.uint64)
    first = streams.normals(keys, ctr, 4)
    assert ctr[0] == 4
    # drawing again continues the stream rather than repeating it
    second = streams.normals(keys, ctr, 4)
    assert ctr[0] == 8
    assert not np.allclose(first, second)


def test_normals_shape_and_odd_count_rejected():
    keys = streams.stream_keys(3, np.arange(7))
    ctr = np.zeros(7, dtype=np.uint64)
    z = streams.normals(keys, ctr, 2)
    assert z.shape == (2, 7) and z.dtype == np.float32
    with pytest.raises(ValueError):
        streams.normals(keys, ctr, 3)


def test_uniforms_strictly_inside_unit_interval():
    keys = streams.stream_keys(11, np.arange(200))
    ctr = np.zeros(200, dtype=np.uint64)
    u = streams.uniforms(streams.raw_words(keys, ctr, 50))
    assert u.min() > 0.0 and u.max() < 1.0


def test_normals_moments():
    keys = streams.stream_keys(99, np.arange(100_000))
    ctr = np.zeros(100_000, dtype=np.uint64)
    z = streams.normals(keys, ctr, 8).ravel()
    assert abs(z.mean()) < 5e-3
    assert abs(z.std() - 1.0) < 5e-3
    # tail mass roughly normal
    assert abs(np.mean(np.abs(z) > 1.96) - 0.05) < 2e-3


def test_streams_decorrelated_across_cells():
    keys = streams.stream_keys(5, np.arange(2))
    ctr = np.zeros(2, dtype=np.uint64)
    z = streams.normals(keys, ctr, 20_000)
    rho = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(rho) < 0.03


# the splitmix64 constants (Steele, Lea and Flood, OOPSLA 2014) and the
# counter scramble, written out here so the tests pin the definition of a word
STEP = np.uint64(0xD6E8FEB86659FD93)


def _splitmix64(z):
    """The whole splitmix64 finalizer, on a copy of ``z``."""
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _keys_and_wrapping_counters(seed, m=512):
    """Random keys and counters, half of them within 8 of 2^64 so that the
    counter sums wrap."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 64, m, dtype=np.uint64)
    ctr = rng.integers(0, 1 << 64, m, dtype=np.uint64)
    ctr[: m // 2] = np.uint64(2**64 - 8) + rng.integers(0, 8, m // 2, dtype=np.uint64)
    return keys, ctr


def _full_words(keys, ctr, n):
    """Word j of each stream: the whole finalizer of key ^ (counter + j + 1)·STEP."""
    return _splitmix64(keys ^ ((ctr + np.arange(1, n + 1, dtype=np.uint64)[:, None]) * STEP))


@pytest.mark.parametrize("n", [2, 4, 50])
def test_words_keep_the_top_bits_of_the_full_finalizer(n):
    # the words skip the finalizer's last xorshift, which moves no bit above 32
    keys, ctr = _keys_and_wrapping_counters(n)
    full = _full_words(keys, ctr, n)
    words = streams.raw_words(keys, ctr, n)
    assert np.array_equal(words >> np.uint64(40), full >> np.uint64(40))
    assert np.array_equal(words >> np.uint64(33), full >> np.uint64(33))
    assert not np.array_equal(words, full)
    # the keys' finalizer is the whole one
    z = keys ^ ((ctr + np.arange(1, n + 1, dtype=np.uint64)[:, None]) * STEP)
    assert np.array_equal(streams.mix64(z), full)


@pytest.mark.parametrize("n", [2, 4, 50])
def test_normals_match_the_full_word_formula(n):
    # the definition the draws had with whole words and numpy's single
    # uint64 -> float32 cast: `normals` must give its bits, cosine half too
    keys, ctr = _keys_and_wrapping_counters(100 + n)
    u = (_full_words(keys, ctr, n) >> np.uint64(40)).astype(np.float32)
    u += np.float32(0.5)
    u *= np.float32(2.0**-24)
    rad = np.sqrt(np.log(u[: n // 2]) * np.float32(-2.0))
    ang = u[n // 2 :] * np.float32(2.0 * np.pi)
    want = np.concatenate([np.cos(ang) * rad, np.sin(ang) * rad])
    after = ctr.copy()
    assert streams.normals(keys, after, n).tobytes() == want.tobytes()
    assert np.array_equal(after, ctr + np.uint64(n))
    after = ctr.copy()
    assert streams.normals(keys, after, n, False).tobytes() == want[: n // 2].tobytes()
    assert np.array_equal(after, ctr + np.uint64(n))
