import bisect
import math
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree import arith
from sqfree.arith import (
    OffsetTuple,
    as_offsets,
    is_prime,
    is_tuple_squarefree,
    mobius_up_to,
    primes_up_to,
    residue_class_count,
    residue_class_count_squarefree,
    residue_class_counts,
    squarefree_prime_factors,
    squarefull_product,
    squarefull_radical,
)
from sqfree.errors import MemoryBudgetError
from sqfree.sieve import count_congruent

from conftest import naive_primes, naive_squarefull_radical


# ---------------------------------------------------------------- offsets

def test_offsets_validation():
    assert as_offsets([0, 1, 4]).r == 3
    assert as_offsets(0).offsets == (0,)
    with pytest.raises(ValueError):
        OffsetTuple(())
    with pytest.raises(ValueError):
        OffsetTuple((1, 1))
    with pytest.raises(ValueError):
        OffsetTuple((3, 2))
    with pytest.raises(ValueError):
        OffsetTuple((-1, 0))
    with pytest.raises(ValueError, match=r"^offsets exceed the supported range 2\^62$"):
        OffsetTuple((0, 2**62 + 1))
    assert OffsetTuple((0, 2**62)).offsets[-1] == 2**62


@pytest.mark.parametrize("call, message", [
    (lambda: primes_up_to(0), "bound must be at least 1"),
    (lambda: squarefull_product(0, [0]), "n must be a positive integer"),
    (lambda: is_tuple_squarefree(0, [0]), "n must be a positive integer"),
    (lambda: squarefree_prime_factors(0), "d must be a positive integer"),
    (lambda: mobius_up_to(0), "n must be at least 1"),
])
def test_arguments_below_1_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_offsets_span():
    assert as_offsets([2, 5, 11]).span == 9


# ------------------------------------------------------- squarefull radical

@pytest.mark.parametrize("k,expected", [
    (12, 2), (1, 1), (72, 6), (8, 2), (9, 3), (4, 2), (6, 1),
    (360, 6), (2**20, 2), (3 * 5 * 5, 5), (997 * 997, 997),
])
def test_squarefull_radical_examples(k, expected):
    assert squarefull_radical(k) == expected


def test_integer_cube_root_is_exact_at_any_size():
    for n in [0, 1, 7, 8, 9, 26, 27, 10**18, 2**62, 10**150 - 1, 10**150, 10**200]:
        c = arith._icbrt(n)
        assert c**3 <= n < (c + 1) ** 3


def test_squarefull_radical_rejects_nonpositive():
    with pytest.raises(ValueError):
        squarefull_radical(0)
    with pytest.raises(ValueError):
        squarefull_radical(-4)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_squarefull_radical_matches_naive(k):
    assert squarefull_radical(k) == naive_squarefull_radical(k)


def test_squarefree_flag_matches_mu_squared_up_to_1e6():
    n = 10**6
    flags = np.ones(n + 1, dtype=bool)
    d = 2
    while d * d <= n:
        flags[d * d :: d * d] = False
        d += 1
    mismatch = [k for k in range(1, n + 1) if (squarefull_radical(k) == 1) != flags[k]]
    assert mismatch == []


# ---------------------------------------------------- squarefull product

def test_squarefull_product_examples():
    assert squarefull_product(8, [0, 1]) == 6
    assert squarefull_product(1, [0, 1]) == 1
    assert squarefull_product(3, [0, 1, 2]) == 2


def test_is_tuple_squarefree():
    assert is_tuple_squarefree(1, [0, 1])
    assert not is_tuple_squarefree(3, [0, 1])  # 4 is not squarefree
    assert is_tuple_squarefree(5, [0, 1])


@given(
    st.integers(min_value=1, max_value=10**4),
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_product_divisible_by_p_iff_square_divides_some_coordinate(n, offs):
    offs = sorted(offs)
    xi = squarefull_product(n, offs)
    for p in (2, 3, 5, 7):
        expected = any((n + o) % (p * p) == 0 for o in offs)
        assert (xi % p == 0) == expected


# -------------------------------------------------------- residue counts

# The smallest strong pseudoprime to every prime base up to 37.
_PSEUDOPRIME = 399165290221 * 798330580441


def test_residue_class_count_examples():
    assert residue_class_count(2, [0, 4]) == 1
    assert residue_class_count(2, [0, 1]) == 2
    assert residue_class_count(3, [0, 1, 9, 10]) == 2


def test_residue_class_count_rejects_composite():
    with pytest.raises(ValueError):
        residue_class_count(4, [0, 1])
    with pytest.raises(ValueError):
        residue_class_count(1, [0])
    with pytest.raises(ValueError):
        residue_class_count(_PSEUDOPRIME, [0])


def test_residue_class_count_squarefree_examples():
    assert residue_class_count_squarefree(6, [0, 1]) == 4
    assert residue_class_count_squarefree(1, [0, 77]) == 1
    assert residue_class_count_squarefree(2, [0, 4]) == 1
    with pytest.raises(ValueError):
        residue_class_count_squarefree(12, [0])


@given(
    st.sampled_from([(2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7), (2, 11)]),
    st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=5, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_residue_count_multiplicative(pq, offs):
    p, q = pq
    offs = sorted(offs)
    assert residue_class_count_squarefree(p * q, offs) == (
        residue_class_count(p, offs) * residue_class_count(q, offs)
    )


@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 101]),
    st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=8, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_residue_count_bounds(p, offs):
    offs = sorted(offs)
    u = residue_class_count(p, offs)
    assert 1 <= u <= min(len(offs), p * p)


@pytest.mark.parametrize("offs", [
    [0, 10**12],                      # span 1e12: collisions up to p = 1e6
    [0, 10**14, 2 * 10**14],          # span 2e14
    [0, 1, 2, 3],                     # degenerate: u(2) = 4 = 2^2
    [0, 2, 6, 8, 12, 18, 20, 26],
    [0, 4 * 9 * 25 * 49 * 121],
    [5],                              # r = 1: no difference
    [0, 19997**2],                    # a square prime past the cube root
    [0, 3 * 19997**2],                # the same, beside a prime found by division
    [0, 2**62 - 1],                   # the widest span (2^62 - 1 is cube-free)
    list(range(0, 157, 4)),           # 40 offsets, 780 differences
])
def test_residue_class_counts_match_the_per_prime_count(offs):
    _assert_exceptions_match(offs)


def _assert_exceptions_match(offs):
    """The dict names u(p) at every prime to 2e4 that falls short of r, and
    only such primes, in ascending order."""
    r = len(offs)
    counts = residue_class_counts(offs)
    for p in primes_up_to(20_000).tolist():
        assert counts.get(p, r) == residue_class_count(p, offs), p
    assert all(u < r for u in counts.values())
    assert list(counts) == sorted(counts)


@st.composite
def _square_collisions(draw):
    """Up to 6 offsets, each base + k*p^2 for p from a few primes <= 2e4,
    so offsets drawn with one p share its classes modulo p^2."""
    ps = draw(st.lists(st.sampled_from(primes_up_to(20_000).tolist()), min_size=1, max_size=3))
    top = arith.MAX_SUPPORTED
    base = draw(st.integers(0, top // 2))
    offs = set()
    for _ in range(draw(st.integers(1, 6))):
        p = draw(st.sampled_from(ps))
        offs.add(base + p * p * draw(st.integers(0, (top - base) // (p * p))))
    return sorted(offs)


@given(_square_collisions())
@settings(max_examples=40, deadline=None)
def test_residue_class_counts_match_at_square_collisions(offs):
    _assert_exceptions_match(offs)


# --------------------------------------------------------------- primes

def test_primes_up_to_examples():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert primes_up_to(1).tolist() == []
    assert len(primes_up_to(100)) == 25


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(200_000).tolist() == naive_primes(200_000)


def test_primes_up_to_views_one_table():
    big = primes_up_to(10**6)
    small = primes_up_to(10**4)
    for primes in (big, small):
        assert primes.dtype == np.int64
        assert not primes.flags.writeable
    assert np.shares_memory(small, big)
    assert small.tolist() == big[:small.size].tolist()


def test_growing_the_table_keeps_one_table(monkeypatch):
    monkeypatch.setattr(arith, "_table", (1, np.empty(0, dtype=np.int64)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        primes_up_to(1 << 20)
        primes_up_to(1 << 21)
        table = primes_up_to(1 << 22)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.size == 295_947  # pi(2^22)
    assert held < 1.2 * table.nbytes
    kept = arith._table[1]  # one array, trimmed to its primes in place
    assert kept.base is None and kept.size == table.size


def test_the_table_grows_under_a_trace_function():
    # A trace function's snapshot of a frame's locals adds a reference to the
    # table being trimmed; the import itself grows the table.
    code = (
        "import sys\n"
        "sys.settrace(lambda *a: None)\n"
        "from sqfree.arith import primes_up_to\n"
        "from sqfree.density import density_constant\n"
        "assert primes_up_to(1 << 20).size == 82_025\n"
        "est = density_constant([0, 2], 10**6)\n"
        "assert est.lower < 0.3226341 < est.upper\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_runs_under_cprofile(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"), "-m", "sqfree",
         "density", "--offsets", "0,2", "--prime-cutoff", "1000"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "profile").stat().st_size > 0


def _reset_table(monkeypatch):
    empty = np.empty(0, dtype=np.int64)
    empty.setflags(write=False)
    monkeypatch.setattr(arith, "_table", (1, empty))


@pytest.mark.parametrize("old,new,tables", [(16, 24, 1.25), (23, 24, 1.75)])
def test_a_growth_step_holds_the_old_table_and_one_new_one(monkeypatch, old, new, tables):
    # the step writes into one array sized by Dusart's bound, beside the old
    # table and one block: 1.12 and 1.62 new tables; a list of per-block
    # arrays and their concatenation held 2.03 in both steps
    _reset_table(monkeypatch)
    tracemalloc.start()
    try:
        primes_up_to(1 << old)
        tracemalloc.reset_peak()
        table = primes_up_to(1 << new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.size == 1_077_871  # pi(2^24)
    assert peak < tables * table.nbytes


def test_the_allocation_bound_covers_every_prime_count():
    primes = primes_up_to(1 << 22).tolist()
    # pi(p) at the prime p is where the bound is tightest
    assert all(arith._prime_count_bound(p) >= i for i, p in enumerate(primes, 1))
    for k in range(25):
        assert arith._prime_count_bound(1 << k) >= primes_up_to(1 << k).size
    assert arith._prime_count_bound(1) == 0


_PRIMES_TO_4096 = naive_primes(4096)


def _primes_to(bound):
    return _PRIMES_TO_4096[:bisect.bisect_right(_PRIMES_TO_4096, bound)]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_sieve_matches_trial_division(monkeypatch, block):
    # blocks of 1, 7 and 64 odd numbers put a block end at every residue
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", block)
    _reset_table(monkeypatch)
    for bound in range(1, 3001):  # the table grows to each power of two on the way
        assert primes_up_to(bound).tolist() == _primes_to(bound)
    # ranges that start or end at p^2 - 1, p^2 or p^2 + 1, where a new base
    # prime starts striking
    ends = [1, 2, 3, *(p * p + e for p in _PRIMES_TO_4096[1:12] for e in (-1, 0, 1))]
    for start, end in zip(ends, ends[1:]):
        old = np.array(_primes_to(start), dtype=np.int64)
        assert arith._extend_primes(old, start, end).tolist() == _primes_to(end)
    for end in ends:
        assert arith._extend_primes(np.empty(0, dtype=np.int64), 1, end).tolist() == _primes_to(end)
    for k in range(12):
        _reset_table(monkeypatch)
        fresh = primes_up_to(1 << k)
        assert fresh.tolist() == _primes_to(1 << k)
        for j in range(k):
            _reset_table(monkeypatch)
            primes_up_to(1 << j)
            grown = primes_up_to(1 << k)
            assert arith._table[0] == 1 << k
            assert grown.dtype == np.int64
            assert not grown.flags.writeable
            assert np.array_equal(grown, fresh)


def test_a_late_small_sieve_never_replaces_a_larger_table(monkeypatch):
    # A request for 2^10 is held inside its sieve until a request for 2^16 in
    # another thread has published its table, or for 0.5 s when the lock keeps
    # that request out.  Publishing the small table last would shrink the one
    # table and lose the large one.
    monkeypatch.setattr(arith, "_table", (1, np.empty(0, dtype=np.int64)))
    extend = arith._extend_primes
    small_sieving = threading.Event()

    def late_small_sieve(primes, bound, new_bound):
        if new_bound == 1 << 10:
            small_sieving.set()
            deadline = time.monotonic() + 0.5
            while arith._table[0] < 1 << 16 and time.monotonic() < deadline:
                time.sleep(0.01)
        return extend(primes, bound, new_bound)

    monkeypatch.setattr(arith, "_extend_primes", late_small_sieve)
    small = threading.Thread(target=primes_up_to, args=(1 << 10,))
    small.start()
    assert small_sieving.wait(timeout=30)
    assert primes_up_to(1 << 16).tolist() == naive_primes(1 << 16)
    small.join(timeout=30)
    assert not small.is_alive()
    assert arith._table[0] == 1 << 16


def test_primes_up_to_cap(monkeypatch):
    monkeypatch.setattr(arith, "PRIME_SIEVE_CAP", 10**5)
    with pytest.raises(MemoryBudgetError):
        primes_up_to(10**6)


def test_is_prime_agrees_with_table():
    table = set(primes_up_to(3000).tolist())
    for n in range(3000):
        assert is_prime(n) == (n in table)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**59 - 1)
    assert not is_prime(_PSEUDOPRIME)


def test_primorial_growth_cap():
    # product of primes up to w stays below 4^w, exactly in integers
    product = 1
    for p in primes_up_to(10**4).tolist():
        product *= p
        assert product <= 4**p  # check at each prime; constant in between
    assert product <= 4**10**4


def test_squarefree_prime_factors():
    assert squarefree_prime_factors(1) == []
    assert squarefree_prime_factors(30) == [2, 3, 5]
    assert squarefree_prime_factors(997) == [997]
    with pytest.raises(ValueError):
        squarefree_prime_factors(12)
    with pytest.raises(ValueError):
        squarefree_prime_factors(49)


def _naive_factorization(n: int) -> dict[int, int]:
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _fresh_trial_copy(monkeypatch):
    monkeypatch.setattr(arith, "_trial_primes", (64, tuple(naive_primes(64))))


@pytest.mark.parametrize("primes", [naive_primes(43)[1:], naive_primes(53)],
                         ids=["3-to-43", "2-to-53"])
def test_trial_division_grows_only_as_far_as_the_cofactor_needs(monkeypatch, primes):
    # every factor is at most 53, but the square roots of 3*5*...*43 and
    # 2*3*...*53 are near 8.1e7 and 5.7e9
    _fresh_trial_copy(monkeypatch)
    d = math.prod(primes)
    x, h, offs = 10, 100, [0, 1]
    brute = sum(1 for n in range(x + 1, x + h + 1)
                if all(any((n + o) % (p * p) == 0 for o in offs) for p in primes))
    tracemalloc.start()
    try:
        assert squarefree_prime_factors(d) == primes
        assert squarefull_radical(d) == 1
        assert squarefull_radical(d * d) == d
        assert count_congruent(d, (x, h), offs) == brute
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert max(arith._trial_primes[1]) < 2**7


_PRIMES_TO_20000 = naive_primes(20000)


@st.composite
def _factored_integers(draw):
    small = draw(st.lists(st.sampled_from(_PRIMES_TO_20000[:46]), max_size=25, unique=True))
    large = draw(st.lists(st.sampled_from(_PRIMES_TO_20000[46:]), max_size=2, unique=True))
    factors = {p: draw(st.integers(min_value=1, max_value=3)) for p in small}
    for q in large:
        factors[q] = factors.get(q, 0) + 1
    return math.prod(p**e for p, e in factors.items())


@given(_factored_integers())
@settings(max_examples=300, deadline=None)
def test_trial_division_matches_naive_factoring(n):
    # up to 25 primes below 200 with exponents up to 3 reach far past 2^63;
    # up to two primes from 211 to 20000 make the copy grow
    factors = _naive_factorization(n)
    assert squarefull_radical(n) == math.prod(p for p, e in factors.items() if e > 1)
    if all(e == 1 for e in factors.values()):
        assert squarefree_prime_factors(n) == sorted(factors)
    else:
        with pytest.raises(ValueError):
            squarefree_prime_factors(n)


def test_trial_division_returns_when_the_copy_covers_the_root(monkeypatch):
    # 3847 is prime, isqrt(3847) = 62: every prime below 64 is tried and
    # none passes the root, so the copy's end ends the division unchanged
    _fresh_trial_copy(monkeypatch)
    assert squarefree_prime_factors(3847) == [3847]
    assert arith._trial_primes[0] == 64


def test_a_late_small_trial_copy_never_replaces_a_larger_one(monkeypatch):
    # Factoring 67 * 71 grows the copy to 128; that growth is held until
    # factoring 2053 * 2063 in this thread has grown it to 4096, or for 0.5 s.
    # Publishing the small copy last would shrink the copy.
    _fresh_trial_copy(monkeypatch)
    sieve = arith.primes_up_to
    held = threading.Event()

    def late_small_copy(bound):
        if bound == 128 and not held.is_set():
            held.set()
            deadline = time.monotonic() + 0.5
            while arith._trial_primes[0] < 4096 and time.monotonic() < deadline:
                time.sleep(0.01)
        return sieve(bound)

    monkeypatch.setattr(arith, "primes_up_to", late_small_copy)
    small = []
    thread = threading.Thread(target=lambda: small.append(squarefree_prime_factors(67 * 71)))
    thread.start()
    assert held.wait(timeout=30)
    assert squarefree_prime_factors(2053 * 2063) == [2053, 2063]
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert small == [[67, 71]]
    assert arith._trial_primes == (4096, tuple(naive_primes(4096)))


def test_trial_division_rejects_a_large_prime_at_once(monkeypatch):
    # the square root of a prime near 1e17 is past the 2^27 cap: rejected
    # before the copy grows at all
    _fresh_trial_copy(monkeypatch)
    p = 10**17 + 3
    assert is_prime(p)
    start = time.perf_counter()
    with pytest.raises(MemoryBudgetError):
        squarefree_prime_factors(p)
    with pytest.raises(MemoryBudgetError):
        count_congruent(p, (10, 100), [0])
    assert time.perf_counter() - start < 0.5
    assert arith._trial_primes[0] == 64


# --------------------------------------------------------------- mobius

def test_mobius_matches_naive():
    def naive_mu(k):
        if k == 1:
            return 1
        count = 0
        m = k
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                count += 1
            p += 1
        if m > 1:
            count += 1
        return -1 if count % 2 else 1

    mu = mobius_up_to(3000)
    for k in range(1, 3001):
        assert mu[k] == naive_mu(k)


def test_mobius_cap(monkeypatch):
    monkeypatch.setattr(arith, "MOBIUS_SIEVE_CAP", 10**5)
    with pytest.raises(MemoryBudgetError):
        mobius_up_to(10**6)


@pytest.mark.parametrize("block", [1, 2, 7, 64, 1000, 1 << 16])
def test_mobius_blocks_cover_the_range_in_any_block(monkeypatch, block):
    # every block edge of the small blocks, and the per-block prime bound
    # and placed squares of the larger ones
    mu = mobius_up_to(5000).tolist()
    monkeypatch.setattr(arith, "MOBIUS_BLOCK", block)
    for stop in (1, 2, 3, 4, 5, 48, 49, 50, 4999, 5000):
        seen = [0]
        for lo, values in arith.mobius_blocks(stop):
            assert lo == len(seen) and 1 <= values.size <= block
            seen += values.tolist()
        assert seen == mu[:stop + 1]


def test_mobius_up_to_holds_the_table_and_one_block():
    # an int32 cofactor array and a bool mask over the whole range held
    # 6.8 bytes per entry beside the table
    n = 1 << 22
    primes_up_to(1 << 12)
    arith._spare_buffers.buffers = None  # the call makes its block buffers
    tracemalloc.start()
    try:
        mu = mobius_up_to(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mu.dtype == np.int8 and mu.size == n + 1
    assert int(mu.sum()) == 228  # Mertens M(2^22)
    assert peak < n + 16 * arith.MOBIUS_BLOCK


def test_mobius_blocks_reuse_buffers_but_never_share_them(monkeypatch):
    # a generator drawn inside another takes buffers of its own; once both
    # end, the next call takes the ones left behind
    expected = mobius_up_to(5000).tolist()
    monkeypatch.setattr(arith, "MOBIUS_BLOCK", 1000)
    outer = arith.mobius_blocks(5000)
    lo, first = next(outer)
    kept = first.copy()
    assert [v for _, values in arith.mobius_blocks(5000)
            for v in values.tolist()] == expected[1:]
    assert first.tolist() == kept.tolist() == expected[1:1001]
    assert [v for _, values in outer for v in values.tolist()] == expected[1001:]
    left = arith._spare_buffers.buffers
    lo, again = next(arith.mobius_blocks(5000))
    assert np.shares_memory(again, left[1])


@pytest.mark.parametrize("stop", [0, -1, (1 << 31) + 1])
def test_mobius_blocks_refuse_a_stop_outside_1_to_2_31(stop):
    with pytest.raises(ValueError, match=r"stop must lie in \[1, 2\^31\]"):
        next(arith.mobius_blocks(stop))
