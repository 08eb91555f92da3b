import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mirror_machine import MirrorCell
from scipy.constants import e as Q_E
from scipy.constants import k as K_B

from stochsyn import array
from stochsyn.array import (
    MAX_SEED,
    MAX_THREADS,
    PHASE_HRS,
    PHASE_IRS,
    PHASE_LRS,
    READ_PART_CELLS,
    CellArray,
    ReadoutConfig,
    dequantize,
    init_array,
    noise_sigma,
    quantize,
    stationary_factor32,
)
from stochsyn.conduction import (
    eval_poly,
    state_from_point,
    state_from_resistance,
    transition_current,
    transition_state,
)
from stochsyn.svar import stationary_factor
from stochsyn.transform import inverse_map


@pytest.fixture()
def part_counts(monkeypatch):
    """The part count of each partitioned operation, in call order."""
    counts = []
    partitions = CellArray._partitions

    def spy(self, n, part):
        parts = partitions(self, n, part)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(CellArray, "_partitions", spy)
    return counts


@pytest.fixture()
def small_parts(monkeypatch, part_counts):
    """`part_counts`, with the engine's smallest part lowered to 512 cells
    for reads, pulses and init, so that arrays of a few thousand cells split."""
    monkeypatch.setattr(array, "READ_PART_CELLS", 512)
    monkeypatch.setattr(CellArray, "_write_part", lambda self: 512)
    return part_counts


@pytest.fixture()
def small(ref_bundle):
    return init_array(ref_bundle, m=32, a=0.0, seed=101, p=10)


def test_init_state(small):
    assert np.all(small.phase == PHASE_HRS)
    assert np.all(small.cycle == 1)
    assert np.array_equal(small.scale, np.ones((32, 4), dtype=np.float32))
    assert np.all((small.r > 0) & (small.r <= 1))
    assert np.array_equal(small.u_reset, small.features[:, 3])


def test_init_validation(ref_bundle):
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=0, seed=1)
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=4, a=-0.5, seed=1)
    with pytest.raises(ValueError):
        init_array(ref_bundle, m=4, seed=1, p=7)
    with pytest.raises(ValueError, match="thread"):
        init_array(ref_bundle, m=4, seed=1, threads=0)


def test_seeds_outside_64_bits_raise(ref_bundle):
    # stream keys take the seed as one 64-bit word: 2**64 would alias seed 0
    # and -1 seed 2**64 - 1
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="seed"):
            init_array(ref_bundle, m=4, seed=seed)
    assert init_array(ref_bundle, m=4, seed=MAX_SEED).state_digest() \
        != init_array(ref_bundle, m=4, seed=0).state_digest()


def test_thread_counts_outside_the_bound_raise(ref_bundle):
    # few cells, below every part size: a count the check missed would
    # still run one part
    with pytest.raises(ValueError, match="thread"):
        init_array(ref_bundle, m=16, seed=1, threads=MAX_THREADS + 1)
    arr = init_array(ref_bundle, m=16, seed=1)
    digest = arr.state_digest()
    for threads in (0, MAX_THREADS + 1):
        arr.threads = threads
        with pytest.raises(ValueError, match="thread"):
            arr.apply_pulses(-1.5)
        with pytest.raises(ValueError, match="thread"):
            arr.read_all()
    assert arr.state_digest() == digest


def test_footprint_formula(ref_bundle):
    # p + B lag slots of 16 bytes, a 1-byte window offset and 77 bytes of
    # other state, within criterion 8's budget at every reference order
    for p in (10, 1, 100):
        arr = init_array(ref_bundle, m=1000, a=0.0, seed=2, p=p)
        assert arr.bytes_per_cell() == 16 * (p + min(16, p + 2)) + 78
        assert arr.bytes_per_cell() <= 2 * (16 * p + 56)


def test_windowed_history_matches_a_shifted_history(ref_bundle, small_parts):
    # addressed halves advance some cells twice as often as others, so the
    # windows lie at different offsets, and each is copied back at least
    # three times; the canonical lags must equal the mirror's shifted ones
    m, p, seed = 4096, 10, 17
    spare = min(16, p + 2)
    arr = init_array(ref_bundle, m=m, a=0.0, seed=seed, p=p, threads=2)
    rng = np.random.default_rng(3)
    watched = rng.choice(m, 48, replace=False)
    mirrors = {int(c): MirrorCell(ref_bundle, p=p, seed=seed, index=int(c)) for c in watched}
    offsets_seen = set()
    for _ in range(3 * spare + 1):
        half = rng.permutation(m)[: m // 2]
        for cells, amp in ((half, -1.5), (half, 1.5), (None, -1.5), (None, 1.5)):
            arr.apply_pulses(amp, cells=cells)
            for c in mirrors if cells is None else set(mirrors) & set(half.tolist()):
                mirrors[c].pulse(amp)
            offsets_seen.add(np.unique(arr._offset).size)
    assert max(offsets_seen) > 1 and arr.cycle.min() > 3 * spare
    assert set(small_parts) == {2}      # the init and every pulse split
    lags = arr.lags()
    for c, cell in mirrors.items():
        assert cell.cycle == arr.cycle[c]
        assert lags[c].tobytes() == cell.lags[0].tobytes()


@pytest.mark.parametrize("readout", [None, ReadoutConfig(n_bits=12, i_min=0.0, i_max=60e-6,
                                                         noise_enabled=False)])
def test_reads_match_the_mirror(ref_bundle, readout, small_parts):
    # whole and shuffled addressed reads on 2 threads, between pulses that
    # spread the window offsets; a noisy read's draw moves the cell's stream
    m, p, seed = 4096, 10, 19
    arr = init_array(ref_bundle, m=m, a=0.0, seed=seed, p=p, threads=2, readout=readout)
    cfg = arr.readout
    rng = np.random.default_rng(8)
    watched = rng.choice(m, 48, replace=False)
    mirrors = {int(c): MirrorCell(ref_bundle, p=p, seed=seed, index=int(c)) for c in watched}
    for _ in range(6):
        half = rng.permutation(m)[: m // 2]
        for cells, amp in ((half, -1.5), (half, 1.5), (None, -1.5), (half, 1.1), (None, 0.9)):
            arr.apply_pulses(amp, cells=cells)
            for c in mirrors if cells is None else set(mirrors) & set(half.tolist()):
                mirrors[c].pulse(amp)
        for cells in (None, rng.permutation(m)[: 3 * m // 4]):
            i_noisy, codes, deq = arr.read_all(cells=cells)
            slot = {int(c): k for k, c in enumerate(range(m) if cells is None else cells)}
            for c in set(mirrors) & set(slot):
                i, code = mirrors[c].read(cfg)
                k = slot[c]
                assert i.tobytes() == i_noisy[k : k + 1].tobytes() and code[0] == codes[k]
    assert np.unique(arr._offset).size > 1
    assert set(small_parts) == {2}      # the reads split as the pulses do
    assert np.array_equal(deq, dequantize(codes, cfg))


def test_contraction_operands_have_pinned_layouts(ref_bundle):
    for p in (1, 10, 100):
        arr = init_array(ref_bundle, m=4, a=0.0, seed=5, p=p)
        assert arr._w32.dtype == np.float32 and arr._w32.flags.f_contiguous
        factor = stationary_factor32(arr.model)
        assert factor.dtype == np.float32 and factor.flags.c_contiguous


@pytest.mark.parametrize("p", [10, 100])
def test_init_of_first_cells_independent_of_array_size(ref_bundle, p, small_parts):
    big = init_array(ref_bundle, m=4096, a=0.4, seed=21, p=p, threads=2)
    small = init_array(ref_bundle, m=256, a=0.4, seed=21, p=p)
    assert small_parts == [2, 1]
    for a, b in zip(big._state_arrays(), small._state_arrays()):
        assert a[:256].tobytes() == b.tobytes()


def test_initial_lags_match_stationary_covariance(ref_bundle):
    m, p = 100_000, 10
    arr = init_array(ref_bundle, m=m, a=0.0, seed=22, p=p)
    factor = stationary_factor(arr.model)
    gamma = factor @ factor.T
    lags = arr.lags().astype(np.float64)
    second_moment = lags.T @ lags / m
    # standard error of a Gaussian second moment: sqrt((g_ii g_jj + g_ij^2) / m)
    var = np.outer(np.diag(gamma), np.diag(gamma)) + gamma ** 2
    z = np.abs(second_moment - gamma) / np.sqrt(var / m)
    assert z.max() < 5.0


def test_hrs_positive_pulse_noop(small):
    digest = small.state_digest()
    rep = small.apply_pulses(1.5)
    assert rep.n_noop == 32 and rep.n_set == 0 and rep.n_full_reset == 0
    assert small.state_digest() == digest


def test_abrupt_switch_and_cycle_advance(small):
    rep = small.apply_pulses(-1.5)
    assert rep.n_set == 32
    assert np.all(small.phase == PHASE_LRS)
    expect = state_from_resistance(small.features[:, 2], small.conduction)
    assert np.array_equal(small.r, expect)
    rep = small.apply_pulses(-1.5)
    assert rep.n_noop == 32  # already switched
    rep = small.apply_pulses(1.5)
    assert rep.n_full_reset == 32
    assert np.all(small.phase == PHASE_HRS)
    assert np.all(small.cycle == 2)


def test_pulse_pair_advances_one_cycle_each(ref_bundle):
    arr = init_array(ref_bundle, m=16, a=0.0, seed=11, p=10)
    for _ in range(1000):
        arr.apply_pulses(-1.5)
        arr.apply_pulses(1.5)
    assert np.all(arr.cycle == 1001)
    assert np.all(arr.phase == PHASE_HRS)


def test_partial_ladder_monotone_and_threshold_tracking(ref_bundle):
    arr = init_array(ref_bundle, m=64, a=0.0, seed=12, p=10)
    arr.apply_pulses(-1.5)
    res_prev = arr.static_resistance()
    lo = np.float32(arr.u_reset.max())
    for amp in np.linspace(lo + 0.02, 1.45, 6):
        rep = arr.apply_pulses(float(amp))
        assert rep.n_partial_reset == 64
        assert np.all(arr.phase == PHASE_IRS)
        res = arr.static_resistance()
        assert np.all(res >= res_prev * (1 - 1e-6))
        res_prev = res
        assert np.allclose(arr.u_reset, amp)
    # below the tracked threshold: nothing moves
    rep = arr.apply_pulses(float(lo + 0.01))
    assert rep.n_noop == 64
    # intermediate states stay inside the cycle's bracket
    r_l_state = state_from_resistance(arr.features[:, 2].astype(float), arr.conduction)
    r_h_state = state_from_resistance(arr.next_features[:, 0].astype(float), arr.conduction)
    assert np.all(arr.r >= r_l_state - 1e-6)
    assert np.all(arr.r <= r_h_state + 1e-6)
    # completing the transition makes further positive pulses no-ops
    arr.apply_pulses(1.5)
    assert np.all(arr.phase == PHASE_HRS)
    rep = arr.apply_pulses(1.5)
    assert rep.n_noop == 64


def test_partial_matches_scalar_transition_curve(ref_bundle):
    arr = init_array(ref_bundle, m=8, a=0.0, seed=13, p=10)
    arr.apply_pulses(-1.5)
    feat = arr.features.astype(np.float64).copy()
    amp = float(arr.u_reset.max() + 0.1)
    arr.apply_pulses(amp)
    nxt = arr.next_features.astype(np.float64)
    for c in range(8):
        i_at = transition_current(
            amp, feat[c, 3],
            state_from_resistance(feat[c, 2], arr.conduction),
            state_from_resistance(nxt[c, 0], arr.conduction),
            arr.u_max, arr.conduction,
        )
        want = state_from_point(i_at, amp, arr.conduction)
        assert arr.r[c] == pytest.approx(want, rel=2e-5)


def test_set_from_partial_enters_following_cycle(ref_bundle):
    arr = init_array(ref_bundle, m=16, a=0.0, seed=14, p=10)
    arr.apply_pulses(-1.5)
    arr.apply_pulses(float(arr.u_reset.max() + 0.05))
    assert np.all(arr.phase == PHASE_IRS)
    nxt = arr.next_features.copy()
    arr.apply_pulses(-1.5)
    assert np.all(arr.phase == PHASE_LRS)
    assert np.all(arr.cycle == 2)
    assert np.array_equal(arr.features, nxt)


def test_sparse_addressing(small):
    before = small.features.copy()
    rep = small.apply_pulses(-1.5, cells=np.array([1, 5, 9]))
    assert rep.n_addressed == 3 and rep.n_set == 3
    assert small.phase[1] == PHASE_LRS and small.phase[0] == PHASE_HRS
    assert np.array_equal(small.features, before)
    rep = small.apply_pulses(1.5, cells=np.array([], dtype=int))
    assert rep.n_addressed == 0
    with pytest.raises(IndexError):
        small.apply_pulses(1.0, cells=[64])
    rep = small.apply_pulses(-1.5, cells=[3])
    assert rep.n_set == 1


def test_repeated_cell_with_two_amplitudes_raises(ref_bundle):
    # the last amplitude given for a cell used to win silently: [-1.5, 0.0]
    # left cell 3 in HRS, [0.0, -1.5] switched it
    arr = init_array(ref_bundle, m=8, seed=1, p=1)
    digest = arr.state_digest()
    for amps in ([-1.5, 0.0], [0.0, -1.5]):
        with pytest.raises(ValueError, match="two different amplitudes"):
            arr.apply_pulses(amps, cells=[3, 3])
    assert arr.state_digest() == digest
    rep = arr.apply_pulses([-1.5, 0.5, -1.5], cells=[3, 4, 3])
    assert (rep.n_addressed, rep.n_set) == (2, 1) and arr.phase[3] == PHASE_LRS


@pytest.mark.parametrize("cells", [[1.5], np.array([0.0, 2.0]), [True, True] + [False] * 30,
                                   5, [[1, 2], [3, 4]]],
                         ids=["float_list", "float_array", "boolean_mask", "scalar", "nested_list"])
def test_non_integer_cells_raise(small, cells):
    # once cast to int64: [1.5] addressed cell 1 and the mask cells 0 and 1;
    # a scalar and a nested list were pulsed, while a read failed inside numpy
    digest = small.state_digest()
    with pytest.raises(IndexError, match="integers"):
        small.apply_pulses(-1.5, cells=cells)
    with pytest.raises(IndexError, match="integers"):
        small.read_all(cells=cells)
    assert small.state_digest() == digest


def test_distinct_cell_count_matches_a_set(ref_bundle):
    # the engine counts distinct addresses by sorting; a Python set is the
    # reference.  Cells come with repeats in random order, as a list (None)
    # or an array of each integer dtype.  0 V pulses change no cell.
    arr = init_array(ref_bundle, m=100, a=0.0, seed=3, p=10)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.integers(0, 99) | st.integers(0, 4), max_size=150),
           st.sampled_from((np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                            np.uint32, np.uint64, None)))
    @example([], None)
    @example([], np.uint64)
    def check(cells, dtype):
        c = cells if dtype is None else np.array(cells, dtype=dtype)
        assert arr.apply_pulses(0.0, cells=c).n_addressed == len(set(cells))
        if len(set(cells)) < len(cells):
            with pytest.raises(ValueError, match="at most once"):
                arr.read_all(cells=c)
        else:
            assert arr.read_all(cells=c)[0].size == len(cells)

    check()


def test_integer_cell_forms_are_one_form(ref_bundle):
    outs = set()
    for cells in ([3, 9, 4], np.array([3, 9, 4]), np.array([3, 9, 4], np.uint8),
                  np.array([3, 9, 4], np.int32)):
        arr = init_array(ref_bundle, m=16, a=0.3, seed=2, p=10)
        rep = arr.apply_pulses(-1.5, cells=cells)
        assert (rep.n_addressed, rep.n_set) == (3, 3)
        reads = arr.read_all(cells=cells)
        assert [x.shape for x in reads] == [(3,)] * 3
        outs.add((arr.state_digest(), *(x.tobytes() for x in reads)))
        digest = arr.state_digest()
        assert arr.apply_pulses(1.5, cells=[]).n_addressed == 0
        assert [x.size for x in arr.read_all(cells=[])] == [0, 0, 0]
        assert arr.state_digest() == digest
    assert len(outs) == 1


def test_non_finite_amplitudes_rejected(small):
    # 1e39 is finite in float64 but not in the float32 the engine runs: it
    # used to pass with an overflow warning and act as a full reset
    digest = small.state_digest()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u_a, cells in ((np.nan, None), (np.inf, [3]), (np.full(32, -np.inf), None),
                           (1e39, None), ([-1e39], [3])):
            with pytest.raises(ValueError):
                small.apply_pulses(u_a, cells=cells)
    assert small.state_digest() == digest


def test_per_cell_amplitudes(small):
    amps = np.zeros(32, dtype=np.float32)
    amps[:16] = -1.5
    rep = small.apply_pulses(amps)
    assert rep.n_set == 16
    assert np.all(small.phase[:16] == PHASE_LRS)
    assert np.all(small.phase[16:] == PHASE_HRS)
    with pytest.raises(ValueError):
        small.apply_pulses(np.zeros(7))


def test_scalar_amplitude_forms_are_one_form(ref_bundle):
    # a Python float, numpy scalars, a 0-d array, a per-cell array and an
    # amplitude for every addressed cell are one per-cell float32 amplitude,
    # through set, partial and full resets.  The partial reset at
    # 1.23236083984375 V once left other bits for a broadcast scalar, whose
    # square was a float32 scalar power that is not correctly rounded.
    m = 64
    forms = [lambda arr, amp, to=to: arr.apply_pulses(to(amp))
             for to in (float, np.float32, np.float64, np.asarray)]
    forms += [lambda arr, amp: arr.apply_pulses(np.full(m, amp, np.float32)),
              lambda arr, amp: arr.apply_pulses(amp, cells=np.arange(m))]
    digests = set()
    for form in forms:
        arr = init_array(ref_bundle, m=m, a=0.3, seed=5, p=10)
        for amp in (-1.5, 0.9, 1.1, -1.5, 0.8, 1.5, -1.5, 1.23236083984375):
            form(arr, amp)
        digests.add(arr.state_digest())
    assert len(digests) == 1


def test_partition_independence_bit_exact(ref_bundle, small_parts):
    runs = []
    for threads in (1, 2, 3, 8):
        small_parts.clear()
        arr = init_array(ref_bundle, m=8192, a=0.4, seed=55, p=10,
                         threads=threads)
        rng = np.random.default_rng(7)
        for _ in range(40):
            arr.apply_pulses(float(rng.uniform(-1.7, 1.7)))
        arr.apply_pulses(-1.5, cells=np.arange(0, 8192, 5))
        arr.read_all()
        # an addressed read is split too
        reads = arr.read_all(cells=rng.permutation(8192)[:5000])
        runs.append((arr.state_digest(), *(x.tobytes() for x in reads)))
        assert set(small_parts) == {threads}
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize("p, write_part", [(1, 16131), (10, 14169), (100, 6393)])
def test_an_operation_splits_only_into_parts_that_repay_a_worker(ref_bundle, p, write_part):
    # reads split into parts of READ_PART_CELLS = 2^16 cells at least,
    # pulses and init into parts of 2^22 lag entries at 4p + 256 a cell;
    # below two such parts an operation runs whole
    arr = init_array(ref_bundle, m=4, a=0.0, seed=1, p=p)
    assert (READ_PART_CELLS, arr._write_part()) == (1 << 16, write_part)
    for part in (READ_PART_CELLS, write_part):
        for n in (1, part - 1, part, 2 * part - 1, 2 * part, 3 * part + 7, 300 * part):
            for threads in (1, 2, 3, 8, MAX_THREADS):
                arr.threads = threads
                parts = arr._partitions(n, part)
                k = min(threads, n // part)
                assert len(parts) == max(k, 1)
                assert [lo for lo, _ in parts] == [0] + [hi for _, hi in parts[:-1]]
                assert parts[-1][1] == n
                assert k < 2 or min(hi - lo for lo, hi in parts) >= part
            # the bound is checked before the rule can give one part
            for threads in (0, MAX_THREADS + 1):
                arr.threads = threads
                with pytest.raises(ValueError, match="thread"):
                    arr._partitions(n, part)


@pytest.mark.parametrize("p, m, write_parts, read_parts", [(10, 3 * READ_PART_CELLS, 3, 3),
                                                           (100, 16384, 2, 1)])
def test_engine_sized_parts_leave_the_bits_alone(ref_bundle, part_counts, p, m, write_parts,
                                                 read_parts):
    # arrays big enough that 2 and 3 threads split at the engine's own part
    # sizes: reads and writes at p = 10, writes at p = 100
    cells = np.random.default_rng(p).permutation(m)
    runs = []
    for threads in (1, 2, 3):
        part_counts.clear()
        arr = init_array(ref_bundle, m=m, a=0.4, seed=57, p=p, threads=threads)
        for amp in (-1.5, 1.1, 1.5, -1.5):
            arr.apply_pulses(amp)
        arr.apply_pulses(1.5, cells=cells[: m // 3])
        reads = (*arr.read_all(), *arr.read_all(cells=cells))
        runs.append((arr.state_digest(), *(x.tobytes() for x in reads)))
        # the init and five pulses, then two reads
        assert part_counts == [min(threads, write_parts)] * 6 + [min(threads, read_parts)] * 2
    assert runs[0] == runs[1] == runs[2]


def test_raising_threads_grows_the_pool(ref_bundle, small_parts):
    m = 4096
    arr = init_array(ref_bundle, m=m, a=0.4, seed=56, p=10, threads=2)
    arr.apply_pulses(-1.5)
    arr.threads = 4

    # every partition must be running at once, which needs four workers
    barrier = threading.Barrier(4, timeout=10.0)
    apply_chunk = arr._apply_chunk

    def gated_chunk(lo, hi, ua):
        barrier.wait()
        return apply_chunk(lo, hi, ua)

    arr._apply_chunk = gated_chunk
    arr.apply_pulses(1.5)
    assert not barrier.broken
    assert small_parts == [2, 2, 4]

    ref = init_array(ref_bundle, m=m, a=0.4, seed=56, p=10, threads=1)
    ref.apply_pulses(-1.5)
    ref.apply_pulses(1.5)
    assert arr.state_digest() == ref.state_digest()


def test_same_seed_same_result(ref_bundle):
    a = init_array(ref_bundle, m=256, a=1.0, seed=9, p=10)
    b = init_array(ref_bundle, m=256, a=1.0, seed=9, p=10)
    assert a.state_digest() == b.state_digest()
    c = init_array(ref_bundle, m=256, a=1.0, seed=10, p=10)
    assert a.state_digest() != c.state_digest()


# -- readout --------------------------------------------------------------------

def test_noise_sigma_against_direct_formula():
    cfg = ReadoutConfig(u_read=0.2, delta_f=1e6, temperature=300.0)
    thermal = 4 * K_B * 300.0 * 10e-6 * 1e6 / 0.2
    shot = 2 * Q_E * 10e-6 * 1e6
    assert noise_sigma(10e-6, cfg) == pytest.approx(np.sqrt(thermal + shot), rel=1e-12)
    assert noise_sigma(10e-6, cfg) == pytest.approx(2.01e-9, rel=0.005)


def test_quantizer_paper_constants():
    cfg = ReadoutConfig(n_bits=4, i_min=0.0, i_max=40e-6, noise_enabled=False)
    assert quantize(20e-6, cfg) == 8          # midpoint rounds up to code 8 of 15
    assert quantize(-5e-6, cfg) == 0          # clamped
    assert quantize(50e-6, cfg) == 15
    lsb = 40e-6 / 15
    assert dequantize(8, cfg) == pytest.approx(8 * lsb)
    codes = quantize(np.linspace(-5e-6, 45e-6, 20001), cfg)
    assert np.array_equal(np.unique(codes), np.arange(16))


@pytest.mark.parametrize("cfg", [ReadoutConfig(n_bits=4, i_min=0.0, i_max=40e-6),
                                 ReadoutConfig(n_bits=7, i_min=-2e-6, i_max=50e-6),
                                 ReadoutConfig(n_bits=4, i_min=0.0, i_max=15 * 2.0**-20)])
def test_quantize_codes_scalars_as_arrays(cfg):
    # at the clamp edges and the half-LSB points, in both dtypes, a scalar
    # gets the code its value gets in an array, and both get the codes of
    # the formula written with np.clip; the last window has lsb = 2^-20, so
    # its half-LSB points are exact ties
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    halves = (np.arange(-1, cfg.levels + 1) + 0.5) * lsb + cfg.i_min
    edges = np.array([cfg.i_min, cfg.i_max, -1.0, 1.0, 0.0, -0.0, 2 * cfg.i_max])
    values = np.concatenate([halves, edges])
    values = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    for dtype in (np.float64, np.float32):
        x = values.astype(dtype)
        codes = quantize(x, cfg)
        want = np.clip(np.rint((x - cfg.i_min) * (1.0 / lsb)), 0, cfg.levels).astype(np.int32)
        assert np.array_equal(codes, want)
        for v, code in zip(x, codes):
            for form in (v, np.asarray(v), np.array([v])):
                got = quantize(form, cfg)
                assert got.dtype == np.int32 and got.shape == np.shape(form) and got == code
            if dtype == np.float64:
                assert quantize(float(v), cfg) == code
    if lsb == 2.0**-20:
        assert np.array_equal(quantize(halves[1:-1], cfg), 2 * ((np.arange(cfg.levels) + 1) // 2))


@pytest.mark.parametrize("readout", [None, ReadoutConfig(noise_enabled=False)])
def test_whole_split_and_addressed_reads_agree(ref_bundle, readout, small_parts):
    # a read in one part hands out its own arrays, one in two parts joins
    # them, an addressed read gathers: the same cells read the same bits
    m = 1024
    order = np.random.default_rng(4).permutation(m)
    runs = []
    for threads, cells in ((1, None), (2, None), (2, order), (1, order)):
        arr = init_array(ref_bundle, m=m, a=0.5, seed=23, p=10, threads=threads,
                         readout=readout)
        for amp in (-1.5, 1.1, -1.5, 0.9):
            arr.apply_pulses(amp)
        small_parts.clear()
        outputs = arr.read_all(cells=cells)
        if cells is not None:
            outputs = [x[np.argsort(cells)] for x in outputs]
        runs.append((list(small_parts), arr.state_digest(), [x.tobytes() for x in outputs]))
    assert [r[0] for r in runs] == [[1], [2], [2], [1]]
    assert all(r[1:] == runs[0][1:] for r in runs)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("readout", [None, ReadoutConfig(noise_enabled=False)])
def test_read_outputs_are_fresh_arrays(ref_bundle, readout, threads, small_parts):
    # a one-part read returns its own temporaries, not copies: writing into
    # them must change neither the state nor the next read
    arr, twin = (init_array(ref_bundle, m=1024, a=0.5, seed=29, p=10, threads=threads,
                            readout=readout) for _ in range(2))
    for a in (arr, twin):
        a.apply_pulses(-1.5)
    state = arr._cell_arrays() + (arr._slots, arr._offset)
    for cells in (None, np.arange(1024)[::-1]):
        outputs = arr.read_all(cells=cells)
        twin.read_all(cells=cells)
        for k, x in enumerate(outputs):
            assert not any(np.shares_memory(x, y) for y in state + outputs[k + 1:])
            x[...] = 7
        assert arr.state_digest() == twin.state_digest()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(arr.read_all(cells=cells), twin.read_all(cells=cells)))
    assert set(small_parts[-4:]) == {threads}


def test_read_noise_off_deterministic_and_immutable(ref_bundle):
    arr = init_array(ref_bundle, m=32, a=0.0, seed=101, p=10,
                     readout=ReadoutConfig(noise_enabled=False))
    r_before = arr.r.tobytes()
    i1, c1, d1 = arr.read_all()
    i2, c2, d2 = arr.read_all()
    assert np.array_equal(i1, i2) and np.array_equal(c1, c2)
    assert arr.r.tobytes() == r_before
    # identical r implies identical readouts
    arr.r[:] = np.float32(0.4)
    i3, _, _ = arr.read_all()
    assert np.unique(i3).size == 1


def test_read_code_for_forced_current(ref_bundle):
    cfg = ReadoutConfig(noise_enabled=False, n_bits=4, i_min=0.0, i_max=40e-6)
    arr = init_array(ref_bundle, m=4, a=0.0, seed=3, p=10, readout=cfg)
    arr.r[:] = np.float32(state_from_point(20e-6, 0.2, arr.conduction))
    i, codes, deq = arr.read_all()
    assert np.allclose(i, 20e-6, rtol=1e-5)
    assert np.all(codes == 8)
    assert np.allclose(deq, 8 * 40e-6 / 15)


def test_read_noise_statistics(ref_bundle):
    cfg = ReadoutConfig(noise_enabled=True, n_bits=12, i_min=0.0, i_max=60e-6)
    arr = init_array(ref_bundle, m=20_000, a=0.0, seed=4, p=10, readout=cfg)
    arr.r[:] = np.float32(0.5)
    i_noisy, _, _ = arr.read_all()
    i_clean = float(np.float32(0.5) * (np.float32(arr.conduction.i_hhrs(0.2))
                    - np.float32(arr.conduction.i_llrs(0.2)))
                    + np.float32(arr.conduction.i_llrs(0.2)))
    sig = noise_sigma(i_clean, cfg)
    assert np.std(i_noisy) == pytest.approx(sig, rel=0.08)
    assert np.mean(i_noisy) == pytest.approx(i_clean, abs=4 * sig / np.sqrt(20_000))


def test_read_rejects_a_repeated_cell(small):
    # each read of a cell consumes one draw, so a cell addressed twice in one
    # call cannot be read once and reported twice
    digest = small.state_digest()
    with pytest.raises(ValueError, match="at most once"):
        small.read_all(cells=[5, 5, 6])
    assert small.state_digest() == digest


def test_state_table(small):
    table = small.state_table()
    assert set(table) == {"cell", "cycle", "phase", "r", "static_resistance"}
    assert table["phase"][0] in ("hrs", "lrs", "irs")
    assert np.all(table["static_resistance"] > 0)


def test_shared_kernels_compute_float32_for_float32_input(ref_bundle):
    cm, cfg = ref_bundle.conduction, ReadoutConfig()
    u = np.linspace(0.3, 1.4, 101, dtype=np.float32)
    r = np.linspace(0.0, 1.0, 101, dtype=np.float32)
    assert eval_poly(cm.hhrs, u).dtype == np.float32
    assert eval_poly(cm.hhrs, u[0]).dtype == np.float32
    z = np.repeat(np.linspace(-5, 5, 101, dtype=np.float32)[:, None], 4, axis=1)
    assert inverse_map(ref_bundle.gamma, z).dtype == np.float32
    assert state_from_resistance(u * np.float32(1e5), cm).dtype == np.float32
    assert transition_state(np.float32(1.45), u, r, r[::-1], 1.5, cm).dtype == np.float32
    assert noise_sigma(u * np.float32(1e-5), cfg).dtype == np.float32
    # quantize returns codes: float32 currents next to the half-code points
    # must be coded by float32 arithmetic, which differs from float64 there
    lsb = (cfg.i_max - cfg.i_min) / cfg.levels
    half = ((np.arange(cfg.levels) + 0.5) * lsb + cfg.i_min).astype(np.float32)
    sweep = (half.view(np.int32)[:, None] + np.arange(-64, 65, dtype=np.int32)).view(np.float32)
    want32 = np.rint((sweep - np.float32(cfg.i_min)) * np.float32(1.0 / lsb))
    want64 = np.rint((sweep.astype(np.float64) - cfg.i_min) / lsb)
    assert np.any(want32 != want64)
    assert np.array_equal(quantize(sweep, cfg), want32.astype(np.int32))


def test_readout_config_rejects_negative_temperature_and_float32_overflow():
    # a negative temperature made the read noise NaN; a window that float32
    # cannot hold made the ADC codes garbage
    with pytest.raises(ValueError, match="temperature"):
        ReadoutConfig(temperature=-1e6)
    ReadoutConfig(temperature=0.0)
    for window in ({"i_min": -1e308}, {"i_max": 1e39}, {"i_max": 1e-300}):
        with pytest.raises(ValueError, match="i_min, i_max"):
            ReadoutConfig(**window)


def test_array_gates_its_effective_settings(ref_bundle):
    # the bundle's own defaults pass its load gates; settings given to the
    # array go through the same float32 checks
    with pytest.raises(ValueError, match="u_read"):
        init_array(ref_bundle, m=8, readout=ReadoutConfig(u_read=1e20))
    with pytest.raises(ValueError, match="dtd_scale"):
        init_array(ref_bundle, m=8, a=1e300)


def test_readout_is_fixed_at_construction(ref_bundle):
    # the limiting currents are taken once, at the readout's u_read; a
    # readout that could be reassigned would change or stale the reads
    cfg = ReadoutConfig(u_read=0.3, noise_enabled=False, n_bits=12, i_max=60e-6)
    arr = init_array(ref_bundle, m=8, a=0.0, seed=2, p=10, readout=cfg)
    before = arr.read_all()
    with pytest.raises(AttributeError):
        arr.readout = ReadoutConfig()
    assert arr.readout is cfg
    for x, y in zip(before, arr.read_all()):
        assert x.tobytes() == y.tobytes()
    cm = arr.conduction
    ih, il = np.float32(cm.i_hhrs(0.3)), np.float32(cm.i_llrs(0.3))
    assert before[0].tobytes() == (arr.r * (ih - il) + il).tobytes()
    with pytest.raises(IndexError):     # a config is no cell address
        arr.read_all(ReadoutConfig())


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(i_min=1e-6, i_max=1e-6)
    for name in ("u_read", "delta_f", "temperature", "i_min", "i_max"):
        with pytest.raises(ValueError, match="finite"):
            ReadoutConfig(**{name: float("nan")})
    with pytest.raises(ValueError):
        ReadoutConfig(n_bits=0)
    with pytest.raises(ValueError):
        ReadoutConfig(delta_f=0.0)
    with pytest.raises(ValueError):
        ReadoutConfig(u_read=0.0)
