import functools
import inspect
import itertools
import math
import random
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree import arith, sieve
from sqfree.sieve import (
    CLASS_ENUMERATION_CAP,
    MAX_THREADS,
    PRESIEVE_GROUPS,
    Window,
    count_congruent,
    count_squarefree,
    count_tuples,
    square_multiples,
    verify_congruent_asymptotic,
    window_products,
    _count_congruent_classes,
    _congruence_classes,
    _segments,
)
from sqfree.arith import (
    _icbrt,
    as_offsets,
    is_tuple_squarefree,
    primes_up_to,
    residue_class_count_squarefree,
)

from conftest import (
    naive_count_congruent,
    naive_count_tuples,
    naive_is_squarefree,
    naive_primes,
)


# ------------------------------------------------------------- Q(x)

@pytest.mark.parametrize("x,expected", [(10, 7), (100, 61), (1, 1), (2, 2), (1000, 608)])
def test_count_squarefree_known_values(x, expected):
    assert count_squarefree(x) == expected


def test_count_squarefree_matches_trial_division():
    for x in (57, 500, 4321, 10**4):
        assert count_squarefree(x) == sum(1 for n in range(1, x + 1) if naive_is_squarefree(n))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_count_squarefree_is_the_same_in_any_block(monkeypatch, block):
    # blocks of 1 and 7 moduli end at every d of the small sums; blocks of
    # 1000 split the million moduli of Q(10^12)
    monkeypatch.setattr(arith, "MOBIUS_BLOCK", block)
    for x in (1, 3, 4, 48, 49, 50, 4321):
        assert count_squarefree(x) == sum(1 for n in range(1, x + 1) if naive_is_squarefree(n))
    if block == 1000:
        assert count_squarefree(10**12) == 607_927_102_274


def test_count_squarefree_holds_a_few_bytes_per_modulus():
    # the sum goes MOBIUS_BLOCK moduli at a time beside the int8 Mobius
    # table; int64 arrays over every d up to sqrt(x) held 32 bytes per d,
    # 128 MiB here
    x = 1 << 44
    tracemalloc.start()
    try:
        assert count_squarefree(x) == 10_694_766_677_567
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * math.isqrt(x)  # the Mobius build's 6 bytes per d, and a block


def test_count_squarefree_range_check():
    with pytest.raises(ValueError):
        count_squarefree(0)


def test_window_counts_match_prefix_difference():
    for x, h in [(0, 10), (999, 137), (12345, 678)]:
        prefix = count_squarefree(x) if x >= 1 else 0
        assert count_tuples((x, h), [0]) == count_squarefree(x + h) - prefix


def _kernel(x, h, offsets=(0,), threads=1, tops=None):
    """The segment kernel alone, at the full level unless tops are given,
    whichever path count_tuples would take."""
    w, l = sieve._window_args((x, h), offsets)
    if tops is None:
        tops = [math.isqrt(w.end + off) for off in l.offsets]
    return sieve._count_kernel(w, l, tops, threads)


def test_kernel_window_counts_match_prefix_difference():
    for x, h in [(0, 10), (999, 137), (12345, 678)]:
        prefix = count_squarefree(x) if x >= 1 else 0
        assert _kernel(x, h) == count_squarefree(x + h) - prefix


def test_count_squarefree_holds_the_same_peak_at_four_times_the_range():
    # one block of d at a time: the Mobius table, a cofactor array and a
    # mask over every d <= sqrt(x) held 27.4 MiB at 2^44 and 54.7 MiB at 2^46
    primes_up_to(1 << 12)
    peaks = []
    for x, expected in ((1 << 44, 10_694_766_677_567), (1 << 46, 42_779_066_708_781)):
        arith._spare_buffers.buffers = None  # each call makes its block buffers
        tracemalloc.start()
        try:
            assert count_squarefree(x) == expected
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def _squarefree_prefix(n):
    """#{squarefree m <= k} for every k <= n, from one table of n + 1 flags
    struck at the multiples of every square."""
    free = np.ones(n + 1, dtype=bool)
    free[0] = False
    for m in range(2, math.isqrt(n) + 1):
        free[m * m::m * m] = False
    return np.cumsum(free)


def _spy_on_gathers(monkeypatch):
    """The (lo, hi, m_lo, m_hi, k, m) of every square_multiples call from
    here on, in a list that grows as they are made."""
    calls, pairs = [], sieve.square_multiples

    def spy(lo, hi, m_lo, m_hi):
        k, m = pairs(lo, hi, m_lo, m_hi)
        calls.append((lo, hi, m_lo, m_hi, k, m))
        return k, m

    monkeypatch.setattr(sieve, "square_multiples", spy)
    return calls


def _assert_gathers_keep_the_rule(calls):
    """Each gathered block of d from start = m_lo + 1 starts past
    4*isqrt(h) and holds at most a 64th as many cofactors as d and at most
    one pair per d."""
    for lo, hi, m_lo, m_hi, k, m in calls:
        n = m_hi - m_lo
        assert m_lo + 1 > 4 * math.isqrt(hi - lo)
        assert np.unique(k).size <= n // 64
        assert m.size <= n


@pytest.mark.parametrize("block", [1, 7, 64, 1000, 1 << 16])
def test_mobius_sum_matches_a_square_sieve_in_any_block(monkeypatch, block):
    # Small blocks put most d of the short windows in blocks gathered per
    # k, and the first blocks and the long windows' in blocks of divisions.
    monkeypatch.setattr(arith, "MOBIUS_BLOCK", block)
    prefix = _squarefree_prefix(300_000)
    rng = random.Random(block)
    windows = [(0, 300_000), (0, 1), (299_999, 1), (1, 299_999)]
    windows += [(lo, rng.randrange(1, 300_001 - lo))
                for lo in (rng.randrange(300_000) for _ in range(60))]
    calls = _spy_on_gathers(monkeypatch)
    for lo, h in windows:
        assert sieve._squarefree_between(lo, lo + h) == prefix[lo + h] - prefix[lo]
    # a block of 1000 or more d holds d = 1 .. isqrt(300_000), so it divides
    assert bool(calls) == (block < 1000)
    _assert_gathers_keep_the_rule(calls)


@pytest.mark.parametrize("x,h", [(10**12, 10**8), (10**14, 10**10)])
def test_mobius_sum_gathers_by_the_closed_form_rule(monkeypatch, x, h):
    # the reference sums every block by divisions: count_squarefree never
    # gathers, since its blocks start at or below sqrt(h)
    expected = count_squarefree(x + h) - count_squarefree(x)
    calls = _spy_on_gathers(monkeypatch)
    assert sieve._squarefree_between(x, x + h) == expected
    assert calls
    _assert_gathers_keep_the_rule(calls)


def test_mobius_sum_gathers_a_block_of_many_pairs(monkeypatch):
    # d = 4033..4096 lies past 4*isqrt(1e6) = 4000 with one cofactor, k = 1,
    # and 64 pairs: a gather of more than a 16th of the block's d in pairs
    x, h = 16_000_000, 1_000_000
    expected = _kernel(x, h)
    assert expected == 607_943
    monkeypatch.setattr(arith, "MOBIUS_BLOCK", 64)
    calls = _spy_on_gathers(monkeypatch)
    assert sieve._squarefree_between(x, x + h) == expected
    _assert_gathers_keep_the_rule(calls)
    assert any(m.size > 64 // 16 for *_, m in calls)


# ------------------------------------------------------------- windows

def test_window_validation():
    with pytest.raises(ValueError):
        Window(-1, 10)
    with pytest.raises(ValueError):
        Window(0, 0)
    with pytest.raises(ValueError):
        Window(2**62, 1)
    with pytest.raises(ValueError):
        count_tuples((2**62 - 5, 4), [0, 10])  # end + offset past the cap


def test_window_args_coerces_and_admits_the_range_up_to_its_end():
    w, l = sieve._window_args((2**62 - 110, 10), [0, 100])  # end + offset = 2^62
    assert (w, l) == (Window(2**62 - 110, 10), as_offsets([0, 100]))
    assert sieve._window_args(w, l) == (w, l)
    with pytest.raises(ValueError, match=r"^window end plus largest offset exceeds the "
                                         r"supported range 2\^62$"):
        sieve._window_args((2**62 - 110, 10), [0, 101])


def _window_functions():
    from sqfree import buchstab, selberg

    system = selberg.optimal_weights(5, [0, 1000], prime_cutoff=1000)
    return [
        lambda w, l: count_tuples(w, l),
        lambda w, l: window_products(w, l, [2, 3]),
        lambda w, l: count_congruent(6, w, l),
        lambda w, l: verify_congruent_asymptotic(6, w, l),
        lambda w, l: sieve.full_level(w, l),
        lambda w, l: selberg.quadratic_form_bound(w, l, system),
        lambda w, l: buchstab.count_square_hits(w, l, 1, 2, 10**6),
        lambda w, l: buchstab.count_square_hits_split(w, l, 1, 2, 10),
        lambda w, l: buchstab.buchstab_decompose(w, l, 5.0),
    ]


@pytest.mark.parametrize("index", range(9))
def test_every_window_function_refuses_past_the_range_at_entry(monkeypatch, index):
    # x + h is inside 2^62 and the largest offset takes it past: each window
    # function refuses with the one message before it asks for a prime table,
    # a prime factorisation or a count
    call = _window_functions()[index]
    from sqfree import buchstab, selberg

    def reached(*args, **kwargs):
        raise AssertionError("work ran before the window was checked")

    for module in (sieve, selberg, buchstab):
        monkeypatch.setattr(module, "primes_up_to", reached)
    monkeypatch.setattr(sieve, "squarefree_prime_factors", reached)
    monkeypatch.setattr(selberg, "count_congruent", reached)
    monkeypatch.setattr(buchstab, "count_tuples", reached)
    with pytest.raises(ValueError, match=r"^window end plus largest offset exceeds the "
                                         r"supported range 2\^62$"):
        call((4611686018427387800, 100), [0, 1000])


# --------------------------------------------------------- count_tuples

def test_count_tuples_examples():
    assert count_tuples((0, 10), [0]) == 7
    assert count_tuples((0, 10), [0, 1]) == 5  # survivors 1, 2, 5, 6, 10
    assert count_tuples((5, 20), [0], z=2) == 20  # vacuous condition


def test_count_tuples_per_coordinate_levels():
    w = (100, 50)
    assert count_tuples(w, [0, 3], z=[2, 2]) == 50
    mixed = count_tuples(w, [0, 3], z=[10, 2])
    only_first = count_tuples(w, [0], z=10)
    assert mixed == only_first


def test_count_tuples_level_validation():
    with pytest.raises(ValueError):
        count_tuples((0, 10), [0], z=1.5)
    with pytest.raises(ValueError):
        count_tuples((0, 10), [0, 1], z=[3, 3, 3])
    for level in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"sieve level z must be finite, not {level}"):
            count_tuples((0, 10), [0, 1], z=[3, level])


def test_count_tuples_matches_bruteforce_random():
    rng = random.Random(2024)
    for _ in range(25):
        x = rng.randrange(0, 10**6)
        h = rng.randrange(1, 400)
        r = rng.randrange(1, 5)
        offs = sorted(rng.sample(range(0, 10**4), r))
        assert count_tuples((x, h), offs) == naive_count_tuples(x, h, offs)


def _levelled_count(x, h, offsets, levels, primes):
    """Trial division: n in (x, x+h] with no prime p < z_i, p^2 | n + offset_i."""
    def ok(n):
        for off, z in zip(offsets, levels):
            m = n + off
            for p in primes:
                if p >= z or p * p > m:
                    break
                if m % (p * p) == 0:
                    return False
        return True

    return sum(1 for n in range(x + 1, x + h + 1) if ok(n))


def test_count_tuples_general_levels_match_bruteforce(oracle_primes_2000):
    rng = random.Random(99)
    for _ in range(25):
        x = rng.randrange(0, 10**5)
        h = rng.randrange(1, 300)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 500), r))
        levels = [rng.uniform(2.0, 80.0) for _ in range(r)]
        expected = _levelled_count(x, h, offs, levels, oracle_primes_2000)
        assert count_tuples((x, h), offs, z=levels) == expected


def test_count_tuples_monotone_in_level():
    w = (10**4, 500)
    previous = None
    for z in (2, 3, 5, 10, 30, 100, 300):
        value = count_tuples(w, [0, 2], z=z)
        if previous is not None:
            assert value <= previous
        previous = value


@given(
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=150),
)
@settings(max_examples=50, deadline=None)
def test_count_tuples_window_additivity(x, h1, h2):
    offs = [0, 4]
    total = count_tuples((x, h1 + h2), offs)
    assert total == count_tuples((x, h1), offs) + count_tuples((x + h1, h2), offs)


def test_count_tuples_segmentation_invariant(monkeypatch):
    w = (10**6, 5000)
    offs = [0, 1, 7]
    whole = count_tuples(w, offs)
    for segment in (64, 997, 4096):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment)
        assert count_tuples(w, offs) == whole


def test_count_tuples_thread_independence(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1 << 16)
    w = (10**7, 300_000)
    offs = [0, 2]
    base = count_tuples(w, offs)
    for threads in (2, 4):
        assert count_tuples(w, offs, threads=threads) == base


def test_workers_share_segments_without_loss_under_contention(monkeypatch):
    # Eight workers on two cores each count every eighth of 3125 segments
    # with a very short switch interval: a lost or repeated segment changes
    # the sum.
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 64)
    w, offs = (10**6, 200_000), [0, 1, 5]
    base = count_tuples(w, offs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        assert count_tuples(w, offs, threads=8) == base
        assert time.perf_counter() - start < 60
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 3, 4, 5])
def test_workers_count_every_segment_exactly_once(monkeypatch, threads):
    # 28 segments, the last 1 long: 3 and 5 workers get unequal shares.
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 37)
    counted = []
    kernel = sieve._count_segment

    def spy(alive, base, length, plan):
        counted.append((base, length))
        return kernel(alive, base, length, plan)

    monkeypatch.setattr(sieve, "_count_segment", spy)
    w, offs = (10**6, 1000), [0, 2]
    assert count_tuples(w, offs, threads=threads) == naive_count_tuples(*w, offs)
    expected = list(_segments(10**6, 1000, 37))
    assert len(expected) == 28
    assert sorted(counted) == expected


def test_count_tuples_rejects_thread_counts_out_of_range():
    for threads in (0, -3, MAX_THREADS + 1, 10**9):
        with pytest.raises(ValueError, match="threads"):
            count_tuples((0, 10), [0], threads=threads)
    assert count_tuples((0, 10), [0], threads=MAX_THREADS) == 7


def test_segments_are_lazy():
    segments = _segments(0, 2**61, 1 << 24)
    assert inspect.isgenerator(segments)  # an eager list here would exhaust memory
    head = list(itertools.islice(segments, 3))
    assert head == [(0, 1 << 24), (1 << 24, 1 << 24), (2 << 24, 1 << 24)]
    assert list(_segments(10, 5, 2)) == [(10, 2), (12, 2), (14, 1)]


# --------------------------------------------------- segment kernel

@functools.lru_cache(maxsize=None)
def _oracle(x, h, offsets, levels=None):
    if levels is None:
        return naive_count_tuples(x, h, offsets)
    return _levelled_count(x, h, offsets, levels, naive_primes(1100))


# Windows on both sides of multiples of the pre-sieve periods and of the
# pre-sieve block, offsets past both periods, and per-coordinate levels that
# keep some of 2, 3, 5, 7, 11, 13 and drop others.
PRESIEVE_PERIODS = (4 * 9 * 25 * 49, 121 * 169)  # the unwheeled tiles' periods
_P, _Q = PRESIEVE_PERIODS
_B = sieve.PRESIEVE_BLOCK
_KERNEL_CASES = [
    (3 * _P - 1, 3000, (0,), None),
    (3 * _P, 3000, (0, 1), None),
    (3 * _P + 1, 3000, (0, 2, 6), None),
    (7 * _P - 2, 90_000, (0, _P + 1), None),
    (5 * _P - 700, 4000, (_P, 2 * _P + 3, 5 * _P + 7), None),
    (11 * _P + 5, 4000, (0, 1, 2), (3.0, 6.0, 1000.0)),
    (2 * _P - 3, 4000, (1, _P + 2), (7.0, 7.5)),
    (9 * _P + 9, 4000, (0, 4, _P), (2.0, 5.5, 50.0)),
    (13 * _P - 11, 4000, (0, 3, 10), (20.0, 1000.0, 12.5)),
    (3 * _Q - 1, 3000, (0, 2), None),
    (5 * _Q - 1500, 3000, (0, _Q - 1, 2 * _Q + 5), None),
    (17 * _Q + 3, 45_000, (0, 1, _Q + 7), None),
    (4 * _B - 7, 3000, (0, 6), None),
    (9 * _B - 1000, 70_000, (2, _Q + 121), None),
    (7 * _Q - 1000, 4000, (0, 1, 2), (12.5, 10.5, 1000.0)),
    (6 * _B - 20, 4000, (0, 169, 3 * _Q), (10.5, 12.5, 14.0)),
]


@pytest.mark.parametrize("segment_size", [1, 64, 997, 44099, 44100, 44101, 1 << 16])
@pytest.mark.parametrize("x,h,offsets,levels", _KERNEL_CASES)
def test_kernel_matches_bruteforce(monkeypatch, segment_size, x, h, offsets, levels):
    if segment_size == 1 and h > 5000:
        h = 5000  # one segment per element: keep the Python loop short
    expected = _oracle(x, h, offsets, levels)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    assert count_tuples((x, h), offsets, z=levels) == expected


_BLOCK_SIZES = [1, 7, 20448, 20449, 20450, 1 << 15]


@pytest.mark.parametrize("block", _BLOCK_SIZES)
@pytest.mark.parametrize("segment_size", [64, 20449, 1 << 16])
@pytest.mark.parametrize("x,h,offsets,levels", _KERNEL_CASES)
def test_kernel_blocks_match_bruteforce(monkeypatch, block, segment_size, x, h, offsets, levels):
    if block == 1 and h > 5000:
        h = 5000  # one block per element: keep the Python loop short
    expected = _oracle(x, h, offsets, levels)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    monkeypatch.setattr(sieve, "PRESIEVE_BLOCK", block)
    assert count_tuples((x, h), offsets, z=levels) == expected


@given(
    st.integers(min_value=0, max_value=20 * _P),
    st.integers(min_value=1, max_value=600),
    st.lists(st.integers(min_value=0, max_value=3 * _P),
             min_size=1, max_size=3, unique=True),
    st.sampled_from([1, 7, 64, 997, 44099, 44100, 44101]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_bruteforce_random(x, h, offsets, segment_size):
    offsets = sorted(offsets)
    expected = naive_count_tuples(x, h, offsets)
    with mock.patch.object(sieve, "SEGMENT_SIZE", segment_size):
        assert count_tuples((x, h), offsets) == expected


@given(
    st.integers(min_value=0, max_value=40 * _Q),
    st.integers(min_value=1, max_value=2500),
    st.lists(st.integers(min_value=0, max_value=3 * _P),
             min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from([2.0, 7.5, 10.5, 12.5, 13.5, 1100.0]), min_size=3, max_size=3),
    st.sampled_from([1, 7, 64, 997, 20449, 44100]),
    st.sampled_from(_BLOCK_SIZES),
)
@settings(max_examples=60, deadline=None)
def test_kernel_blocks_match_bruteforce_random(x, h, offsets, levels, segment_size, block):
    offsets = sorted(offsets)
    levels = levels[:len(offsets)]
    expected = _levelled_count(x, h, offsets, levels, naive_primes(1100))
    with mock.patch.object(sieve, "SEGMENT_SIZE", segment_size), \
            mock.patch.object(sieve, "PRESIEVE_BLOCK", block):
        assert count_tuples((x, h), offsets, z=levels) == expected


@pytest.mark.parametrize("offsets,tops,block", [
    ((0,), (10**6,), 1 << 15),
    ((0, 1, 2), (12, 10, 1000), 7),
    ((3, _Q + 5, 2 * _P + 1), (6, 13, 11), 20449),
    ((0, 4, 6, 8), (2, 3, 7, 12), 1),
])
def test_each_tile_marks_exactly_its_groups_squares(monkeypatch, offsets, tops, block):
    # Tile entry i stands for the n with n = i modulo the tile's period.
    monkeypatch.setattr(sieve, "PRESIEVE_BLOCK", block)
    bound = 10**4
    plan = sieve._plan(offsets, tops, primes_up_to(min(max(tops), bound)), bound, 1 << 24, 1)
    assert len(plan.tiles) == len(PRESIEVE_GROUPS) == len(PRESIEVE_PERIODS)
    for tile, group, period in zip(plan.tiles, PRESIEVE_GROUPS, PRESIEVE_PERIODS):
        assert len(tile) == period + block and not tile.flags.writeable
        expected = [not any(p <= top and (i + off) % (p * p) == 0
                            for off, top in zip(offsets, tops) for p in group)
                    for i in range(len(tile))]
        assert tile.tolist() == expected


def test_kernel_spans_several_segments_against_prefix_difference():
    # Six and three segments of the default size, both wheeled: Q(x + h) -
    # Q(x) shares no code with the kernel.
    for x, h in ((10**12, 10**8), (10**10, 4 * 10**7)):
        assert sieve._wheel(h) == sieve.WHEEL
        assert count_tuples((x, h), [0]) == count_squarefree(x + h) - count_squarefree(x)


def test_kernel_alone_spans_several_segments_against_prefix_difference():
    # The same windows through the kernel itself: (1e10, 4e7) is counted by
    # the Mobius sum in count_tuples, so only this keeps the kernel checked
    # against Q(x + h) - Q(x) there.
    for x, h in ((10**12, 10**8), (10**10, 4 * 10**7)):
        assert _kernel(x, h) == count_squarefree(x + h) - count_squarefree(x)


def _squarefree_by_trial_division(values):
    """Per-value trial division, vectorised over values up to about 1.001e12:
    a value with no p^2 | m for p <= 10^4 keeps, after dividing out those p,
    a cofactor of at most two primes above 10^4, squarefree unless it is a
    square."""
    m = np.array(values, dtype=np.int64)
    free = np.ones(len(m), dtype=bool)
    for p in naive_primes(10**4):
        free &= m % (p * p) != 0
        m = np.where(m % p == 0, m // p, m)
    root = np.sqrt(m).astype(np.int64)
    square = (m > 1) & ((root * root == m) | ((root + 1) ** 2 == m))
    return free & ~square


@pytest.mark.parametrize("offsets", [(0,), (0, 1), (0, 2, 6), (0, 2, 6, 8)])
def test_kernel_across_blocks_and_segments_near_1e12_matches_trial_division(monkeypatch, offsets):
    # 12,000 elements in segments of 5,000 and blocks of 777 and 20,449: the
    # tiles' phases wrap inside blocks, blocks end inside segments, and
    # squares of primes up to 10^6 fall in every piece.
    x, h = 10**12 - 5_003, 12_000
    n = np.arange(x + 1, x + h + 1, dtype=np.int64)
    expected = int(np.all([_squarefree_by_trial_division(n + off) for off in offsets],
                          axis=0).sum())
    if offsets == (0,):
        assert expected == count_squarefree(x + h) - count_squarefree(x)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 5_000)
    for block in (777, 20_449):
        monkeypatch.setattr(sieve, "PRESIEVE_BLOCK", block)
        assert count_tuples((x, h), offsets) == expected


@pytest.mark.parametrize("offsets", [[0], [0, 1, 2], [0, 2, 6, 8]])
def test_kernel_peak_memory_is_bounded_by_segment_buffers(offsets):
    # The kernel holds one sub-block buffer (466,034 bytes: one wheel class
    # of a 2^24 segment), two tiles shared by every class, and each
    # segment's sparse strike keys (about 15k int64 entries per coordinate
    # here) however long the window; numpy reports its buffers to
    # tracemalloc.  The traced peaks were 1.2, 2.0 and 2.4 MiB.
    assert sieve._wheel(10**8) == sieve.WHEEL
    tracemalloc.start()
    try:
        count_tuples((10**12, 10**8), offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------------------ the Mobius sum's path


class _Paths:
    """Counts the calls of each path count_tuples can take."""

    def __init__(self, monkeypatch):
        self.mobius = self.kernel = 0
        between, kernel = sieve._squarefree_between, sieve._count_kernel

        def mobius_sum(*args):
            self.mobius += 1
            return between(*args)

        def segment_kernel(*args):
            self.kernel += 1
            return kernel(*args)

        monkeypatch.setattr(sieve, "_squarefree_between", mobius_sum)
        monkeypatch.setattr(sieve, "_count_kernel", segment_kernel)


def _rule_windows():
    """(x, h, offset, Mobius sum expected) on both sides of the rule
    h >= C * isqrt(x + h + offset): window ends at d^2 - 1, d^2 and d^2 + 1,
    offsets 0 and 5, and windows from x = 0."""
    c = sieve.MOBIUS_SUM_RATIO
    out = [(0, h, 0, h >= c * math.isqrt(h)) for h in (c * c - c - 1, c * c - 1, c * c, 3 * c * c)]
    for d in (c + 7, 2 * c + 1, 3 * c):
        for end in (d * d - 1, d * d, d * d + 1):
            root = math.isqrt(end)
            for off in (0, 5):
                for h in (c * root - 1, c * root):
                    out.append((end - off - h, h, off, h == c * root))
    return out


def test_mobius_sum_and_rule_match_per_n_trial_division(monkeypatch):
    windows = _rule_windows()
    assert {taken for *_, taken in windows} == {True, False}
    paths = _Paths(monkeypatch)
    for x, h, off, taken in windows:
        n = np.arange(x + 1, x + h + 1, dtype=np.int64) + off
        expected = int(_squarefree_by_trial_division(n).sum())
        before = paths.mobius, paths.kernel
        assert count_tuples((x, h), [off]) == expected
        assert (paths.mobius - before[0], paths.kernel - before[1]) == (
            (1, 0) if taken else (0, 1))


def test_windows_off_the_rule_stay_on_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Mobius sum ran")

    # all long enough for the sum: 1e8 + 1e7 has root 10,488
    x, h = 10**8, 10**7
    full = math.isqrt(x + h)
    expected = {
        "partial level": _kernel(x, h, tops=[full - 1]),
        "r = 2": _kernel(x, h, [0, 1]),
        "deep window": _kernel(10**15, 10**6),
    }
    monkeypatch.setattr(sieve, "_squarefree_between", refuse)
    with pytest.raises(AssertionError, match="the Mobius sum ran"):
        count_tuples((x, h), [0])
    assert count_tuples((x, h), [0], z=full) == expected["partial level"]
    assert count_tuples((x, h), [0, 1]) == expected["r = 2"]
    assert count_tuples((10**15, 10**6), [0]) == expected["deep window"]


def test_mobius_sum_peak_does_not_grow_with_the_root(monkeypatch):
    # sqrt(end) = 1e6 and 1e7: one block of d at a time (0.58 and 0.60 MiB
    # traced); the int8 Mobius table to 1e7 alone would be 9.5 MiB
    paths = _Paths(monkeypatch)
    primes_up_to(1 << 12)
    peaks = []
    for x, h, expected in ((10**12 - 10**9, 10**9, 607_927_192),
                           (10**14 - 10**10, 10**10, 6_079_270_866)):
        arith._spare_buffers.buffers = None  # each call makes its block buffers
        tracemalloc.start()
        try:
            assert count_tuples((x, h), [0]) == expected
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (paths.mobius, paths.kernel) == (2, 0)
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 8 * 2**20


# ------------------------------------------------------------ wheel
#
# The same inputs with the wheel rule forced to W = 36 and to W = 1.  Short
# segments give classes of fewer than 36 elements and classes with none;
# short sub-blocks split a class's run into several.

def _count_at(wheel, *args, **kwargs):
    with mock.patch.object(sieve, "_wheel", lambda h: wheel):
        return count_tuples(*args, **kwargs)


_WHEEL_CASES = [
    # (x, h, offsets, levels): levels in [2, 4) sieve 2 and 3 on some
    # coordinates only; offsets past 36 and congruent modulo 36.
    (0, 3000, (0,), None),
    (10**6 - 4321, 3000, (0, 1), None),
    (35, 2500, (0, 1, 2), None),
    (5 * _P + 17, 3000, (0, 2, 6, 8), None),
    (999_983, 2000, (0, 36), None),
    (12_345, 2500, (5, 41, 77), None),
    (71, 3000, (36, 72, 109), None),
    (3 * _Q - 5, 3000, (0, 1, 2), (2.0, 3.5, 1000.0)),
    (777, 3000, (0, 1), (2.5, 1000.0)),
    (1_000, 3000, (0, 2, 4), (3.0, 2.0, 3.5)),
    (_P - 36, 3000, (0, 36, 40), (4.0, 2.5, 13.5)),
    (50_000, 3000, (1, 2, 3, 4), (2.0, 2.0, 2.0, 2.0)),
]
_WHEEL_BLOCKING = [
    # (segment, sub-block, pre-sieve block)
    (1, 1 << 20, 1 << 15),
    (20, 1 << 20, 1 << 15),
    (36, 1, 1),
    (37, 3, 7),
    (777, 7, 5),
    (997, 1 << 20, 1 << 15),
    (5_000, 50, 20_449),
    (1 << 16, 1 << 20, 1 << 15),
]


@pytest.mark.parametrize("segment,sub,block", _WHEEL_BLOCKING)
@pytest.mark.parametrize("x,h,offsets,levels", _WHEEL_CASES)
def test_wheel_and_no_wheel_match_bruteforce(monkeypatch, segment, sub, block, x, h, offsets,
                                             levels):
    if segment == 1 and h > 600:
        h = 600  # one segment per element: keep the Python loop short
    expected = _oracle(x, h, offsets, levels)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment)
    monkeypatch.setattr(sieve, "SUB_BLOCK", sub)
    monkeypatch.setattr(sieve, "PRESIEVE_BLOCK", block)
    assert _count_at(sieve.WHEEL, (x, h), offsets, z=levels) == expected
    assert _count_at(1, (x, h), offsets, z=levels) == expected


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=1500),
    st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from([2.0, 2.5, 3.0, 3.5, 5.5, 13.5, 1100.0]), min_size=4, max_size=4),
    st.sampled_from([1, 7, 35, 36, 37, 997, 1 << 16]),
    st.sampled_from([1, 3, 29, 1 << 20]),
    st.sampled_from([1, 7, 1225, 1 << 15]),
)
@settings(max_examples=60, deadline=None)
def test_wheel_and_no_wheel_match_bruteforce_random(x, h, offsets, levels, segment, sub, block):
    offsets = sorted(offsets)
    levels = levels[:len(offsets)]
    if segment == 1:
        h = min(h, 300)  # one segment per element: keep the Python loop short
    expected = _levelled_count(x, h, offsets, levels, naive_primes(1100))
    with mock.patch.object(sieve, "SEGMENT_SIZE", segment), \
            mock.patch.object(sieve, "SUB_BLOCK", sub), \
            mock.patch.object(sieve, "PRESIEVE_BLOCK", block):
        assert _count_at(sieve.WHEEL, (x, h), offsets, z=levels) == expected
        assert _count_at(1, (x, h), offsets, z=levels) == expected


@pytest.mark.parametrize("offsets,live", [((0,), 24), ((0, 1), 14), ((0, 1, 2), 6),
                                          ((0, 2, 6, 8), 10)])
def test_live_classes_of_the_wide_window_patterns(offsets, live):
    tops = [10**6] * len(offsets)
    plan = sieve._plan(offsets, tops, primes_up_to(10**4), 10**4, 1 << 24, sieve.WHEEL)
    assert sum(plan.live) == live
    assert plan.live == tuple(all((a + off) % 4 and (a + off) % 9 for off in offsets)
                              for a in range(sieve.WHEEL))


@pytest.mark.parametrize("offsets,tops,block", [
    ((0,), (10**6,), 1 << 15),
    ((0, 1, 2), (3, 2, 1000), 7),
    ((3, _Q + 5, 40), (6, 13, 11), 1225),
    ((0, 4, 6, 8), (2, 5, 7, 12), 1),
])
def test_each_wheel_tile_marks_exactly_its_groups_squares(monkeypatch, offsets, tops, block):
    # Tile entry i stands for the n with n = 36*i modulo the tile's period;
    # 2 and 3 leave the tiles and decide the live classes instead.
    monkeypatch.setattr(sieve, "PRESIEVE_BLOCK", block)
    bound, wheel = 10**4, sieve.WHEEL
    plan = sieve._plan(offsets, tops, primes_up_to(min(max(tops), bound)), bound, 1 << 24, wheel)
    assert plan.periods == (25 * 49, 121 * 169)
    for tile, group, period in zip(plan.tiles, ((5, 7), (11, 13)), plan.periods):
        assert len(tile) == period + block and not tile.flags.writeable
        expected = [not any(p <= top and (wheel * i + off) % (p * p) == 0
                            for off, top in zip(offsets, tops) for p in group)
                    for i in range(len(tile))]
        assert tile.tolist() == expected
    assert plan.live == tuple(not any(p <= top and (a + off) % (p * p) == 0
                                      for off, top in zip(offsets, tops) for p in (2, 3))
                              for a in range(wheel))
    for off, squares in plan.dense:
        assert all(wheel * inverse % p2 == 1 for p2, inverse in squares)


def test_wheel_rule_keeps_windows_below_a_segment_unwheeled():
    assert sieve._wheel(sieve.SEGMENT_SIZE - 1) == 1
    assert sieve._wheel(10**6) == 1
    assert sieve._wheel(sieve.SEGMENT_SIZE) == sieve.WHEEL


def test_wheel_counts_are_thread_independent(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 997)
    monkeypatch.setattr(sieve, "SUB_BLOCK", 13)
    w, offs = (10**9 + 11, 30_000), [0, 2, 6, 8]
    base = _count_at(1, w, offs)
    for threads in (1, 2):
        assert _count_at(sieve.WHEEL, w, offs, threads=threads) == base


def test_density_convergence_smoke():
    q = count_tuples((10**6, 10**5), [0])
    assert abs(q / 10**5 - 0.6079271) < 1e-2


def test_huge_offsets_supported():
    # memory depends on the window length, not on the offsets
    q = count_tuples((10**12, 10**4), [0, 10**12 // 2])
    # 4 and 25 divide the second offset, so u(2) = u(5) = 1 and the density
    # is 0.72/0.46 times the adjacent-pair constant, about 0.505
    assert abs(q / 10**4 - 0.505) < 2e-2


def test_full_count_near_2_62_is_exact_in_bounded_memory():
    # Squares up to 2^62 are tested, yet only primes to four cube roots
    # (6.6e6) are sieved; placement holds about 450k int64 entries per
    # array and the cofactor pass about 1e5.  The traced peak was 15 MiB
    # with the prime table built inside the trace, 12 MiB for h = 1e6.
    x, h, offs = 2**62 - 700, 600, [0, 2]
    tracemalloc.start()
    try:
        q = count_tuples((x, h), offs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q == sum(1 for n in range(x + 1, x + h + 1) if is_tuple_squarefree(n, offs)) == 192
    assert peak < 48 * 2**20


def test_count_tuples_needs_primes_only_to_four_cube_roots(monkeypatch):
    # The same constant as sieve._cofactor_bound, written out, so that a
    # table to sqrt(end) (1e6 for the first window) fails here.
    asked = []

    def spy(bound, **kwargs):
        asked.append(bound)
        return primes_up_to(bound, **kwargs)

    monkeypatch.setattr(sieve, "primes_up_to", spy)
    for (x, h), offs in [((10**12, 10**5), [0, 1]), ((10**15, 1000), [0, 2, 6]),
                         ((2**62 - 10**4, 1000), [0])]:
        asked.clear()
        count_tuples((x, h), offs)
        assert asked and max(asked) <= 4 * _icbrt(x + h + offs[-1]) + 1


# ------------------------------------------- sub-blocks and sparse strikes
#
# Windows end below 101^3, so the cofactor bound is 400.  Each case sets a
# sub-block length, a dense limit and a segment length that do not divide
# one another, and puts one strike on the first or last element of a
# sub-block after the first: that of a sparse prime (the least q with
# q^2 >= the dense limit) or of the cofactor pass (401^2).  The struck
# element is otherwise a survivor, so a lost or shifted strike changes the
# count.

_BLOCKING = [
    # (sub-block, dense limit, segment, h)
    (1, 300, 997, 2_500),
    (7, 300, 9_973, 12_000),
    (777, 1_000, 9_973, 12_000),
    ((1 << 15) + 3, 5_003, 33_001, 33_271),
]
_PATTERNS = [(0,), (0, 1), (0, 2, 6), (0, 2, 6, 8)]


@functools.lru_cache(maxsize=None)
def _per_n(x, h, offsets):
    return sum(1 for n in range(x + 1, x + h + 1) if is_tuple_squarefree(n, offsets))


def _struck_survivor_window(t, q, offsets, h):
    """(x, h) with element t (0-based) of the window struck only by q^2 on
    the last coordinate: n + offsets[-1] = c*q^2 with c squarefree and prime
    to q, and n + every other offset squarefree."""
    q2, last = q * q, offsets[-1]
    for c in range(1, 101**3 // q2):
        n = c * q2 - last
        x = n - 1 - t
        if (x >= 0 and x + h + last < 101**3 and c % q and is_tuple_squarefree(c, [0])
                and (len(offsets) == 1 or is_tuple_squarefree(n, offsets[:-1]))):
            return x, h
    raise AssertionError("no window")


_KINDS = ["sparse-first", "sparse-last", "cofactor-first", "cofactor-last"]


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("blocking", _BLOCKING)
def test_sub_block_edges_match_per_n_test(monkeypatch, blocking, kind):
    sub, dense, segment, h = blocking
    # Across its four kinds, each blocking meets every pattern once.
    offsets = _PATTERNS[(_BLOCKING.index(blocking) + _KINDS.index(kind)) % 4]
    q = 401 if kind.startswith("cofactor") else next(p for p in naive_primes(400) if p * p >= dense)
    assert q == 401 or q * q < segment
    # The second segment's second sub-block, or its first when it has one.
    first = segment + (sub if sub < segment else 0)
    t = first if kind.endswith("first") else first - 1
    x, h = _struck_survivor_window(t, q, offsets, h)
    expected = _per_n(x, h, offsets)
    monkeypatch.setattr(sieve, "SUB_BLOCK", sub)
    monkeypatch.setattr(sieve, "DENSE_LIMIT", dense)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment)
    assert count_tuples((x, h), offsets) == expected
    assert count_tuples((x, h), offsets, threads=2) == expected
    # one r = 1 window here is long enough for the Mobius sum
    assert _kernel(x, h, offsets, threads=2) == expected


@given(
    st.integers(min_value=0, max_value=10**6 - 3000),
    st.integers(min_value=1, max_value=3000),
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=4, unique=True),
    st.sampled_from([1, 7, 777, (1 << 15) + 3]),
    st.sampled_from([1, 300, 1_000, 5_003, 1 << 15]),
    st.sampled_from([1, 97, 997, 9_973, (1 << 15) + 5]),
    st.sampled_from([None, 13, 50]),
)
@settings(max_examples=60, deadline=None)
def test_sub_blocks_match_per_n_test_random(x, h, offsets, sub, dense, segment, bound):
    offsets = sorted(offsets)
    if sub == 1:
        h = min(h, 600)  # one sub-block per element: keep the Python loop short
    expected = _per_n(x, h, tuple(offsets))
    with mock.patch.object(sieve, "SUB_BLOCK", sub), \
            mock.patch.object(sieve, "DENSE_LIMIT", dense), \
            mock.patch.object(sieve, "SEGMENT_SIZE", segment), \
            mock.patch.object(sieve, "_cofactor_bound",
                              sieve._cofactor_bound if bound is None else lambda end: bound):
        assert count_tuples((x, h), offsets) == expected


def test_sparse_strikes_are_sorted_and_complete():
    # Every strike of the sparse phase, against the same strikes by Python
    # loops, on a segment with sparse, placed and cofactor primes.
    x, length, offsets = 10**6 - 7, 9_973, (0, 2, 6)
    end = x + length + offsets[-1]
    tops = [math.isqrt(end + off) for off in offsets]
    bound = sieve._cofactor_bound(end)
    with mock.patch.object(sieve, "DENSE_LIMIT", 1_000):
        plan = sieve._plan(offsets, tops, primes_up_to(bound), bound, length, 1)
    strikes = sieve._sparse_strikes(x, length, plan)
    expected = sorted(
        t for off, top in zip(offsets, tops)
        for m in [*(p for p in naive_primes(bound) if p * p >= 1_000), *range(bound + 1, top + 1)]
        for t in range((-(x + off + 1)) % (m * m), length, m * m))
    assert strikes.tolist() == expected


@pytest.mark.parametrize("level", [np.int64(50), np.int32(7), np.float32(50), np.float64(12.5),
                                   np.uint16(1000)])
def test_numpy_scalar_levels_equal_python_numbers(level):
    w, offsets = (1000, 100), [0, 2]
    python_level = level.item()
    assert count_tuples(w, offsets, z=level) == count_tuples(w, offsets, z=python_level)
    assert count_tuples(w, offsets, z=[level, level]) == count_tuples(w, offsets, z=python_level)


# ------------------------------------------- strided / placed split
#
# Windows end in [100^3, 101^3), so the cofactor bound is 4 * 100 = 400:
# 2 to 13 come from the tiles, primes from 17 with p^2 below the segment
# length are strided (all dense here: every segment size below is under
# DENSE_LIMIT), the rest up to 397 placed with one remainder per segment,
# and squares above 400 struck through their cofactors.  Each h leaves a
# shorter last segment; h = 1000 is shorter than most of the segment sizes,
# which then give one segment.

_SPLIT_WINDOWS = [
    (10**6, 24_500, (0, 2)),
    (10**6 + 20_000, 1_000, (0, 1, 7)),
]


@pytest.mark.parametrize("segment_size", [
    120, 121, 122,           # 11^2 = 121 at size + 1, size, size - 1
    168, 169, 170,           # 13^2
    288, 289, 290,           # 17^2, the first square that can be strided
    10_200, 10_201, 10_202,  # 101^2
])
@pytest.mark.parametrize("x,h,offsets", _SPLIT_WINDOWS)
def test_placed_squares_at_the_split_match_bruteforce(monkeypatch, segment_size, x, h, offsets):
    expected = _oracle(x, h, offsets)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    assert count_tuples((x, h), offsets) == expected


@pytest.mark.parametrize("p", [11, 13, 17, 101])
def test_a_square_one_below_the_buffer_length_hits_twice(monkeypatch, p):
    # Segment length p^2 + 1 with the first segment starting on k*p^2: p must
    # not be placed, since it strikes positions 0 and p^2 of that segment
    # (11 and 13 are in a tile, 17 and 101 strided).
    p2 = p * p
    k = next(k for k in range(10**6 // p2, 10**6) if naive_is_squarefree(k + 1))
    x, h = k * p2 - 1, 3 * (p2 + 1) + 5
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", p2 + 1)
    assert count_tuples((x, h), [0]) == _oracle(x, h, (0,))
    assert count_tuples((x, h), [0, 2]) == _oracle(x, h, (0, 2))


@pytest.mark.parametrize("segment_size", [121, 122, 10_201, 10_202])
def test_coordinate_tops_below_inside_and_above_the_placed_range(monkeypatch, segment_size):
    # Tops 8 (first tile only), 11 (both tiles, no strides), 200 (placed, no
    # cofactor pass) and isqrt(end) = 1011 (placed up to 397, cofactors
    # above 400).
    x, h, offsets = 10**6, 24_000, (0, 2, 6, 8)
    levels = (9.0, 12.0, 200.5, 1100.0)
    expected = _oracle(x, h, offsets, levels)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
    assert count_tuples((x, h), offsets, z=levels) == expected


@pytest.mark.parametrize("bound", [5, 11, 13, 30, 150])
def test_tile_strides_placement_and_cofactors_overlap(monkeypatch, bound):
    # With a low bound every phase clears some of the same elements: the
    # tiles 2..13 up to the bound, strides from 17 below sqrt(10201),
    # placement from 17 to the bound, cofactors above it.
    monkeypatch.setattr(sieve, "_cofactor_bound", lambda end: bound)
    x, h, offsets = 10**6, 24_000, (0, 2, 6, 8)
    levels = (9.0, 12.0, 200.5, 1100.0)
    for segment_size in (122, 10_201):
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", segment_size)
        assert count_tuples((x, h), offsets, z=levels) == _oracle(x, h, offsets, levels)
        assert count_tuples((x, h), offsets[:2]) == _oracle(x, h, offsets[:2])


_SPLIT_SIZES = sorted({p * p + d for p in (11, 13, 17, 23, 31, 43) for d in (-1, 0, 1)})


@given(
    st.integers(min_value=0, max_value=10**6 - 3000),
    st.integers(min_value=1, max_value=2500),
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=3, unique=True),
    st.lists(st.floats(min_value=2.0, max_value=1100.0), min_size=3, max_size=3),
    st.sampled_from(_SPLIT_SIZES),
    st.sampled_from([None, 7, 13, 50, 400]),
)
@settings(max_examples=60, deadline=None)
def test_split_matches_trial_division_random(x, h, offsets, levels, segment_size, bound):
    offsets = sorted(offsets)
    levels = levels[:len(offsets)]
    expected = _levelled_count(x, h, offsets, levels, naive_primes(1100))
    with mock.patch.object(sieve, "_cofactor_bound",
                           sieve._cofactor_bound if bound is None else lambda end: bound), \
            mock.patch.object(sieve, "SEGMENT_SIZE", segment_size):
        got = count_tuples((x, h), offsets, z=levels)
    assert got == expected


@pytest.mark.parametrize("force", ["2", "7", "isqrt(h)"])
def test_cofactor_pass_with_a_low_bound_matches_trial_division(monkeypatch, force,
                                                               oracle_primes_2000):
    # A low bound sends most squares, those of 2..7 included, through the
    # cofactor pass, which may clear an element the tile already cleared.
    rng = random.Random(f"cofactor-{force}")
    for _ in range(12):
        x = rng.randrange(0, 10**5)
        h = rng.randrange(1, 400)
        bound = {"2": 2, "7": 7, "isqrt(h)": math.isqrt(h)}[force]
        monkeypatch.setattr(sieve, "_cofactor_bound", lambda end: bound)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 500), r))
        levels = [rng.uniform(2.0, 400.0) for _ in range(r)]
        expected = _levelled_count(x, h, offs, levels, oracle_primes_2000)
        for segment_size in (h, 37):
            with mock.patch.object(sieve, "SEGMENT_SIZE", segment_size):
                assert count_tuples((x, h), offs, z=levels) == expected
        assert count_tuples((x, h), offs) == naive_count_tuples(x, h, offs)


def _square_multiples_by_m(lo, hi, m_lo, m_hi):
    return sorted((k, m) for m in range(m_lo + 1, m_hi + 1)
                  for k in range(lo // (m * m) + 1, hi // (m * m) + 1))


def _square_multiples(lo, hi, m_lo, m_hi):
    """The pairs of ``square_multiples``, checked for their order, their
    window and their m range, with their int64 values k*m^2."""
    k, m = square_multiples(lo, hi, m_lo, m_hi)
    assert k.dtype == m.dtype == np.int64 and k.shape == m.shape
    pairs = list(zip(k.tolist(), m.tolist()))
    assert pairs == sorted(pairs)  # ascending k, then m
    values = k * m * m
    assert ((lo < values) & (values <= hi) & (m_lo < m) & (m <= m_hi)).all()
    assert values.tolist() == [a * b * b for a, b in pairs]
    return pairs


@pytest.mark.parametrize("m_lo,m_hi", [(5, 5), (7, 3), (0, 0)])
def test_square_multiples_of_an_empty_m_range_are_two_empty_arrays(m_lo, m_hi):
    k, m = square_multiples(0, 1000, m_lo, m_hi)
    assert (k.size, m.size, k.dtype, m.dtype) == (0, 0, np.int64, np.int64)


@given(
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=300),
)
@settings(max_examples=80, deadline=None)
def test_square_multiples_match_enumeration_by_m(lo, width, m_lo, m_hi):
    assert _square_multiples(lo, lo + width, m_lo, m_hi) == _square_multiples_by_m(
        lo, lo + width, m_lo, m_hi)


@given(
    st.integers(min_value=1, max_value=2**14),
    st.integers(min_value=2**24, max_value=2**31),
    st.sampled_from(["lo", "lo+1", "hi"]),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=80, deadline=None)
def test_square_multiples_exact_at_the_window_edges_near_2_62(k, m, edge, width, below, above):
    # v = k*m^2 sits on an edge of the window, where a float square root
    # without its integer correction would put it on the wrong side.
    m = min(m, math.isqrt(2**62 // k))
    v = k * m * m
    lo, hi = {"lo": (v, v + 1 + width), "lo+1": (v - 1, v + width),
              "hi": (v - 1 - width, v)}[edge]
    hi = min(hi, 2**62)
    m_lo, m_hi = m - below, min(m + above, 2**31)
    got = _square_multiples(lo, hi, m_lo, m_hi)
    assert got == _square_multiples_by_m(lo, hi, m_lo, m_hi)
    assert ((k, m) in got) == (edge != "lo")


# ------------------------------------------------------ count_congruent

def test_count_congruent_examples():
    assert count_congruent(2, (0, 10), [0]) == 2  # n in {4, 8}
    assert count_congruent(1, (17, 93), [0, 5]) == 93
    assert count_congruent(2, (0, 12), [0, 1]) == 6


def test_count_congruent_rejects_non_squarefree():
    with pytest.raises(ValueError):
        count_congruent(12, (0, 10), [0])


def test_count_congruent_matches_bruteforce():
    rng = random.Random(5)
    squarefree_d = [d for d in range(1, 31) if naive_squarefree(d)]
    for _ in range(40):
        d = rng.choice(squarefree_d)
        x = rng.randrange(0, 10**5)
        h = rng.randrange(1, 500)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 100), r))
        expected = 0
        for n in range(x + 1, x + h + 1):
            if all(any((n + o) % (p * p) == 0 for o in offs) for p in prime_factors(d)):
                expected += 1
        assert count_congruent(d, (x, h), offs) == expected


def naive_squarefree(d):
    return all(d % (p * p) for p in range(2, d + 1))


def prime_factors(d):
    out = []
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def test_walk_and_class_paths_agree():
    w = Window(10**4, 2000)
    offs = as_offsets([0, 3, 11])
    for d in (2, 6, 10, 15, 30, 42, 70, 105):
        classes = [_congruence_classes(offs, p) for p in prime_factors(d)]
        walked = window_products(w, offs, prime_factors(d)).get(d, 0)
        assert walked == _count_congruent_classes(w, classes)


@given(
    st.sampled_from([2, 3, 5, 6, 7, 10, 13, 15, 21, 30, 42, 105]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3000),
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=120, deadline=None)
def test_walk_and_class_paths_agree_random(d, x, h, offs):
    w = Window(x, h)
    offsets = as_offsets(sorted(offs))
    classes = [_congruence_classes(offsets, p) for p in prime_factors(d)]
    walked = window_products(w, offsets, prime_factors(d)).get(d, 0)
    assert walked == _count_congruent_classes(w, classes)


def test_rebuilt_rows_keep_their_multiplicities(monkeypatch):
    # With the int64 ceiling lowered to 100, every D(n) above about 50 is
    # rebuilt with Python ints, and such D recur (D = 30 alone on about 3%
    # of the rows); the counts must equal the plain walk's.
    window, offs = Window(10**6, 5000), as_offsets([0, 2, 6])
    primes = primes_up_to(100).tolist()
    plain = window_products(window, offs, primes)
    monkeypatch.setattr(sieve, "_INT64_MAX", 100)
    rebuilt = window_products(window, offs, primes)
    assert rebuilt == plain
    assert sum(k for d, k in plain.items() if d > 100) > 100


def _congruent_by_trial_division(d, x, h, offs):
    ps = prime_factors(d)
    return sum(1 for n in range(x + 1, x + h + 1)
               if all(any((n + o) % (p * p) == 0 for o in offs) for p in ps))


@pytest.mark.parametrize("int64_max", [None, 100, 1000])
def test_walked_congruent_count_matches_classes_and_trial_division(monkeypatch, int64_max):
    # A cap of 0 sends every modulus but 1 through the window walk; a lower
    # int64 ceiling sends the rows with D(n) above it through the Python-int
    # rebuild, which must count D(n) = d there too (d = 105, 210, 1155 pass
    # the ceiling of 100 and 1000 in turn).
    rng = random.Random(f"walk-{int64_max}")
    monkeypatch.setattr(sieve, "CLASS_ENUMERATION_CAP", 0)
    if int64_max is not None:
        monkeypatch.setattr(sieve, "_INT64_MAX", int64_max)
    for d in (2, 6, 30, 105, 210, 1155, 2 * 3 * 5 * 7 * 11 * 13):
        for _ in range(4):
            x, h = rng.randrange(0, 10**6), rng.choice([rng.randrange(1, 5000),
                                                        rng.randrange(1, 1 << 17)])
            offs = sorted(rng.sample(range(0, 60), rng.randrange(3, 7)))
            classes = [_congruence_classes(as_offsets(offs), p) for p in prime_factors(d)]
            got = count_congruent(d, (x, h), offs)
            assert got == _count_congruent_classes(Window(x, h), classes)
            if h <= 5000:
                assert got == _congruent_by_trial_division(d, x, h, offs)


def test_count_congruent_large_modulus_uses_classes():
    # 103^2 alone passes h: its two classes each name at most one n, which
    # is tested against the classes of 101^2
    w = (10**7, 50)
    offs = [0, 1]
    d = 101 * 103
    direct = sum(
        1 for n in range(10**7 + 1, 10**7 + 51)
        if any((n + o) % 101**2 == 0 for o in offs)
        and any((n + o) % 103**2 == 0 for o in offs)
    )
    assert count_congruent(d, w, offs) == direct


def test_count_congruent_above_class_cap_scans():
    # 4 * 9 * 25 * 30^3 = 24.3M solution classes modulo 30030^2, above the
    # enumeration cap: answered by the bounded-memory window walk
    d, x, h, offs = 30030, 10**6, 2000, list(range(30))
    ps = prime_factors(d)
    assert math.prod(min(len(offs), p * p) for p in ps) > CLASS_ENUMERATION_CAP
    direct = sum(
        1 for n in range(x + 1, x + h + 1)
        if all(any((n + o) % (p * p) == 0 for o in offs) for p in ps)
    )
    assert direct == 65
    assert count_congruent(d, (x, h), offs) == direct


@pytest.mark.parametrize("r, enumerated, peak_mib", [(13, True, 64), (14, False, 1), (20, False, 1)])
def test_count_congruent_memory_is_bounded_at_the_class_cap(r, enumerated, peak_mib):
    # Enumeration holds one Python int per class: 13 offsets give 1,028,196
    # classes modulo 30030^2, just under the cap (traced peak 42.5 MiB); 14
    # offsets (1,382,976) and 20 (5.76M) go past it and are walked.
    d, x, h, offs = 30030, 10**6, 2000, list(range(r))
    ps = prime_factors(d)
    assert (residue_class_count_squarefree(d, offs) <= CLASS_ENUMERATION_CAP) == enumerated
    tracemalloc.start()
    try:
        got = count_congruent(d, (x, h), offs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mib * 2**20
    assert got == sum(
        1 for n in range(x + 1, x + h + 1)
        if all(any((n + o) % (p * p) == 0 for o in offs) for p in ps)
    )


def _full_enumeration_count(window, class_lists):
    """Every CRT class modulo d^2 built, each counted by two floor divisions."""
    residues, modulus = [0], 1
    for p2, classes in class_lists:
        inv = pow(modulus % p2, -1, p2)
        residues = [a + modulus * (((c - a) * inv) % p2) for a in residues for c in classes]
        modulus *= p2
    return sum((window.end - a) // modulus - (window.x - a) // modulus for a in residues)


def _check_congruent_count(d, x, h, offs):
    got = count_congruent(d, (x, h), offs)
    assert got == naive_count_congruent(d, x, h, offs)
    if residue_class_count_squarefree(d, offs) <= 4096:
        classes = [_congruence_classes(as_offsets(offs), p) for p in prime_factors(d)]
        assert got == _full_enumeration_count(Window(x, h), classes)


# The last four patterns have u(p) < r for a p of the moduli below: 0, 2,
# 6, 8 and 0, 4, 8 collide modulo 4, 0, 4, 9, 13 modulo 4 and 9, and 0, 1,
# 49, 50 modulo 49.
_BOUNDARY_OFFSETS = [[0], [0, 2], [0, 2, 6, 8], [0, 4, 8], [0, 4, 9, 13], [0, 1, 49, 50]]


@pytest.mark.parametrize("d, square", [
    (210, 49), (210, 35**2), (2310, 121), (2310, 77**2), (442, 289), (442, 221**2),
    (10403, 103**2),
])
@pytest.mark.parametrize("step", [-1, 0, 1])
@pytest.mark.parametrize("x", [0, 987654321, 2**62 - 5 * 10**4])
def test_count_congruent_where_the_fold_stops_matches_trial_division(d, square, step, x):
    # The moduli fold largest p^2 first, so h = p^2 - 1, p^2, p^2 + 1 for
    # the largest p | d, and the same around (p*q)^2 for the two largest,
    # stop the fold at, just before and just after the modulus reaches h.
    h = square + step
    for offs in _BOUNDARY_OFFSETS:
        _check_congruent_count(d, x, h, offs)


@pytest.mark.parametrize("offs", _BOUNDARY_OFFSETS)
def test_count_congruent_at_the_range_edges_matches_trial_division(offs):
    top = 2**62
    for d in (1, 2, 6, 13, 210, 2310, 30030, 10403):
        for x, h in [(0, 1), (0, 97), (0, 5000),
                     (top - 1 - offs[-1], 1), (top - 5000 - offs[-1], 5000)]:
            _check_congruent_count(d, x, h, offs)
    assert count_congruent(1, (0, 1), offs) == 1
    assert count_congruent(1, (top - 7 - offs[-1], 7), offs) == 7


_PRIMES_TO_50 = naive_primes(50)
_PRIMES_NEAR_100 = [p for p in naive_primes(130) if p >= 79]


@given(
    st.one_of(
        st.lists(st.sampled_from(_PRIMES_TO_50), max_size=5, unique=True).map(math.prod),
        st.lists(st.sampled_from(_PRIMES_NEAR_100), min_size=2, max_size=2,
                 unique=True).map(math.prod),
    ),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=5000),
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_count_congruent_matches_trial_division_random(d, x, h, offs):
    _check_congruent_count(d, x, h, sorted(offs))


def test_count_congruent_holds_only_the_folded_classes():
    # 1,028,196 classes modulo 30030^2, under the cap: 13^2 and 11^2 fold
    # before the modulus passes h = 2000, so 169 classes are held.
    d, x, h, offs = 30030, 10**6, 2000, list(range(13))
    tracemalloc.start()
    try:
        got = count_congruent(d, (x, h), offs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == naive_count_congruent(d, x, h, offs)


# ------------------------------------------- congruent count main term

def test_congruent_main_term_example():
    check = verify_congruent_asymptotic(2, (0, 10), [0])
    assert check.exact == 2
    assert check.main_term == pytest.approx(2.5)
    assert check.abs_error == pytest.approx(0.5)
    assert check.class_count == 1


def test_congruent_main_term_trivial_modulus():
    check = verify_congruent_asymptotic(1, (123, 456), [0, 9])
    assert check.abs_error == 0.0


def test_congruent_error_never_exceeds_class_count():
    rng = random.Random(11)
    squarefree_d = [d for d in range(1, 31) if naive_squarefree(d)]
    for _ in range(150):
        d = rng.choice(squarefree_d)
        x = rng.randrange(0, 10**6)
        h = rng.randrange(1, 10**4)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 10**3), r))
        check = verify_congruent_asymptotic(d, (x, h), offs)
        assert check.abs_error <= check.class_count
        assert check.class_count == residue_class_count_squarefree(d, offs)
