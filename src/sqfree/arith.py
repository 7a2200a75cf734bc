"""Exact elementary arithmetic underpinning the interval sieves.

Everything here is a pure function of its inputs.  The prime table is
read-only, grows by extension and is safe to share across threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import MemoryBudgetError

# Inclusive cap on any sieved integer (window end plus largest offset).
MAX_SUPPORTED = 1 << 62
# Largest bound primes_up_to will sieve: a table of 7,603,553 int64 primes (~61 MB).
PRIME_SIEVE_CAP = 1 << 27
# Largest Mobius table mobius_up_to returns (the table dominates memory).
MOBIUS_SIEVE_CAP = 1 << 26
# d per block of mobius_blocks: 6 bytes per d of buffers.
MOBIUS_BLOCK = 1 << 16
# i for each entry i of a block, shared read-only by every call (256 KiB).
_BLOCK_INDEX = np.arange(MOBIUS_BLOCK, dtype=np.uint32)
_BLOCK_INDEX.flags.writeable = False
# The block buffers a finished mobius_blocks call left in this thread, for
# the next call to take.  Made and freed anew per call, they left the heap
# top to be trimmed and faulted in again by the segment kernel: a 10 s
# wide_window benchmark run took about 450k minor faults, against 230k with
# the buffers kept.
_spare_buffers = threading.local()

# Witnesses making Miller-Rabin deterministic for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact far beyond the supported range."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class OffsetTuple:
    """Strictly increasing non-negative offsets defining a tuple pattern."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        offs = tuple(int(o) for o in self.offsets)
        object.__setattr__(self, "offsets", offs)
        if not offs:
            raise ValueError("offset tuple must contain at least one offset")
        if offs[0] < 0:
            raise ValueError("offsets must be non-negative")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if offs[-1] > MAX_SUPPORTED:
            raise ValueError("offsets exceed the supported range 2^62")

    @property
    def r(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return self.offsets[-1] - self.offsets[0]

    def __str__(self):
        return ";".join(str(o) for o in self.offsets)


def as_offsets(value) -> OffsetTuple:
    """Coerce an int or iterable of ints into an OffsetTuple."""
    if isinstance(value, OffsetTuple):
        return value
    if isinstance(value, int):
        return OffsetTuple((value,))
    return OffsetTuple(tuple(value))


# Odd numbers per sieve block: a 256 KiB flag buffer, reused.  The table to
# 2^27 from nothing, median of 9 processes on a 2-vCPU Xeon (2 MiB L2 per
# core): 2^17 0.40 s, 2^18 0.29 s, 2^19 0.25 s, 2^20 0.23 s; to 2^24: 38,
# 37, 35 and 31 ms.  Larger blocks save per-prime slice calls, but the
# buffer and its block's primes are held beside the old and the new table
# while the table grows: the traced peak of growing 2^21 -> 2^22 is 1.71
# times the new table at 2^17, 1.89 at 2^18, 2.23 at 2^19 and 2.45 at 2^20,
# and of 2^16 -> 2^24 1.07, 1.12, 1.22 and 1.41.
_SIEVE_BLOCK = 1 << 18


def _prime_count_bound(x: int) -> int:
    """An upper bound on the number of primes up to x: Dusart's
    pi(x) <= x/ln x * (1 + 1.2762/ln x) for x > 1 (Math. Comp. 68, 1999),
    rounded up.  It is 0.70-0.75% over pi(x) from 2^20 to 2^27, and at
    least 0.0029 over it at every prime up to 2^27."""
    if x < 2:
        return 0
    log = math.log(x)
    return math.ceil(x / log * (1 + 1.2762 / log))


def _extend_primes(primes: np.ndarray, bound: int, new_bound: int) -> np.ndarray:
    """Every prime up to new_bound, as a read-only int64 array, from primes,
    every prime up to bound: only the odd numbers in (bound, new_bound] are
    sieved, _SIEVE_BLOCK at a time, each odd prime up to isqrt(new_bound)
    struck from its first odd multiple at or past both p^2 and the block.

    The new table is one array of _prime_count_bound(new_bound) entries:
    the old primes are copied in once, each block's primes are written
    straight after them, and the array is trimmed in place to the primes
    found.  While it grows, the process holds the old table, the new one and
    one block."""
    root = math.isqrt(new_bound)
    if root > bound:  # the base primes first
        primes, bound = _extend_primes(primes, bound, root), root
    table = np.empty(_prime_count_bound(new_bound), dtype=np.int64)
    count = primes.size
    table[:count] = primes
    if bound < 2 <= new_bound:
        table[count] = 2
        count += 1
    # the odd primes up to root (primes[0] is 2); odd n = 2i + 1 sits at
    # index i, and the odd multiples of p at the i = (p - 1)/2 mod p
    base = primes[1:int(np.searchsorted(primes, root, side="right"))]
    squares = (base * base - 1) // 2
    lo, hi = (bound + 1) // 2, (new_bound + 1) // 2
    flags = np.empty(min(_SIEVE_BLOCK, hi - lo), dtype=bool)
    for start in range(lo, hi, _SIEVE_BLOCK):
        block = flags[:min(_SIEVE_BLOCK, hi - start)]
        block[:] = True
        live = int(np.searchsorted(squares, start + block.size))
        ps = base[:live]
        first = np.maximum(squares[:live], start)
        first += ((ps - 1) // 2 - first) % ps
        first -= start
        for p, j in zip(ps.tolist(), first.tolist()):
            block[j::p] = False
        # intp: int64 on every 64-bit platform
        found = np.flatnonzero(block)
        end = count + found.size
        np.multiply(found, 2, out=table[count:end])
        table[count:end] += 2 * start + 1
        count = end
    # Trims the one array in place, safe only while no view of table is
    # alive, as none is here.  No reference check: a trace or profile
    # function's snapshot of this frame's locals holds table itself, not a
    # view, and the check would refuse it.
    table.resize(count, refcheck=False)
    table.setflags(write=False)
    return table


# The one prime table, as a (bound, primes) pair replaced whole, so a reader
# in any thread sees a matching pair.  It only grows, by extension: the lock
# keeps two threads from sieving (and holding) two new ranges at once, and a
# late small table from replacing a larger one.
_table: tuple[int, np.ndarray] = (1, np.empty(0, dtype=np.int64))
_table[1].setflags(write=False)
_table_lock = threading.Lock()


def primes_up_to(bound: int) -> np.ndarray:
    """Exact primes in [2, bound], ascending: a read-only int64 prefix view of
    the one shared prime table."""
    global _table
    bound = int(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if bound > PRIME_SIEVE_CAP:
        raise MemoryBudgetError(
            f"prime sieve bound {bound} exceeds the configured cap {PRIME_SIEVE_CAP}"
        )
    table_bound, primes = _table
    if bound > table_bound:
        with _table_lock:
            table_bound, primes = _table
            if bound > table_bound:
                # Extend to the next power of two, at most the cap, so nearby requests reuse it.
                grown = min(1 << (bound - 1).bit_length(), PRIME_SIEVE_CAP)
                primes = _extend_primes(primes, table_bound, grown)
                _table = (grown, primes)
    return primes[:int(np.searchsorted(primes, bound, side="right"))]


# The Python-int copy of a prefix of the table that trial division walks, as
# a (bound, primes) pair replaced whole.  It only grows, by doubling, when a
# cofactor still needs a prime past its end.
_trial_primes: tuple[int, tuple[int, ...]] = (64, tuple(primes_up_to(64).tolist()))


def _trial_division(n: int, root) -> tuple[list[tuple[int, int]], int]:
    """Divide n by the primes p in turn while p is at most root(what is
    left), root being math.isqrt or _icbrt: the (p, exponent) pairs found,
    and the cofactor, which has no prime factor up to its root."""
    global _trial_primes
    limit = root(n)
    pairs = []
    while True:
        # after a growth the primes already tried divide nothing and pass fast
        bound, primes = _trial_primes
        for p in primes:
            if p > limit:
                return pairs, n
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
                limit = root(n)
        if limit <= bound:
            return pairs, n
        if limit > PRIME_SIEVE_CAP:
            raise MemoryBudgetError(
                f"trial division of the cofactor {n} needs primes to {limit}, "
                f"past the configured cap {PRIME_SIEVE_CAP}"
            )
        grown = min(2 * bound, PRIME_SIEVE_CAP)
        copy = tuple(primes_up_to(grown).tolist())
        with _table_lock:
            if grown > _trial_primes[0]:
                _trial_primes = (grown, copy)


def _icbrt(n: int) -> int:
    # Newton's step from a power of two above the root, exact at any size
    c = 1 << -(-n.bit_length() // 3)
    while c * c * c > n:
        c = (2 * c + n // (c * c)) // 3
    return c


def squarefull_radical(k: int) -> int:
    """Product of the distinct primes whose square divides k; 1 iff k squarefree.

    Trial division stops at the cube root of the cofactor; what remains can
    contain a square factor only by being a perfect square itself.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    pairs, m = _trial_division(k, _icbrt)
    s = math.isqrt(m)
    return math.prod(p for p, e in pairs if e > 1) * (s if s * s == m else 1)


def squarefull_product(n: int, offsets) -> int:
    """Product of squarefull_radical(n + offset) over the pattern; 1 iff every
    shifted value is squarefree."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    l = as_offsets(offsets)
    result = 1
    for off in l.offsets:
        result *= squarefull_radical(n + off)
    return result


def is_tuple_squarefree(n: int, offsets) -> bool:
    """True iff n + offset is squarefree for every offset (early exit)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    l = as_offsets(offsets)
    return all(squarefull_radical(n + off) == 1 for off in l.offsets)


def _congruence_classes(offsets: OffsetTuple, p: int) -> tuple[int, list[int]]:
    """p^2 and the sorted residues of n modulo p^2 with p^2 | n + some offset."""
    p2 = p * p
    return p2, sorted({(-off) % p2 for off in offsets.offsets})


def residue_class_count(p: int, offsets) -> int:
    """Number of distinct residues of the offsets modulo p**2."""
    l = as_offsets(offsets)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return len(_congruence_classes(l, p)[1])


def residue_class_counts(primes: np.ndarray, offsets) -> list[int]:
    """residue_class_count at each entry of an ascending array of primes: r
    but at the primes whose square divides an offset difference."""
    l = as_offsets(offsets)
    counts = [l.r] * len(primes)
    for p in {p for a, b in combinations(l.offsets, 2)
              for p in squarefree_prime_factors(squarefull_radical(b - a))}:
        i = int(np.searchsorted(primes, p))
        if i < len(primes) and primes[i] == p:
            counts[i] = len(_congruence_classes(l, p)[1])
    return counts


def squarefree_prime_factors(d: int) -> list[int]:
    """Ascending prime factors of a squarefree d; rejects non-squarefree input."""
    d = int(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    pairs, m = _trial_division(d, math.isqrt)
    factors = [p for p, e in pairs if e == 1]
    if len(factors) < len(pairs):
        raise ValueError(f"{d} is not squarefree")
    return factors + [m] if m > 1 else factors


def residue_class_count_squarefree(d: int, offsets) -> int:
    """Multiplicative extension of residue_class_count over squarefree d; the
    factors of squarefree_prime_factors are prime, so none is tested again."""
    l = as_offsets(offsets)
    return math.prod(len(_congruence_classes(l, p)[1]) for p in squarefree_prime_factors(d))


def mobius_blocks(stop: int, block: int = MOBIUS_BLOCK):
    """The Mobius function on [1, stop], stop <= 2^31, as (lo, mu) pairs in
    ascending order: mu[i] = mu(lo + i), an int8 view of a reused buffer of
    at most ``block`` entries, valid until the next pair is drawn or the
    generator ends.

    The one Mobius builder.  Per block [lo, hi), each prime p up to
    isqrt(hi - 1) multiplies -p into an int32 product at its multiples and
    p^2 zeroes it at its multiples, so entry d ends as 0 (p^2 | d) or
    +-(the product of d's primes up to that root), the sign mu's.  A
    squarefree d whose product is not d has exactly one prime factor above
    the root, and its sign flips.  The product divides d's radical, which
    is below 2^31, so it fits int32.  The buffers are those the last
    finished call in this thread left, or new ones, and are left for the
    next call."""
    stop, block = int(stop), int(block)
    if not 1 <= stop <= 1 << 31:
        raise ValueError("stop must lie in [1, 2^31]")
    primes = primes_up_to(max(1, math.isqrt(stop)))
    squares = primes * primes
    plist = primes.tolist()
    size = min(block, stop)
    index = _BLOCK_INDEX if size <= _BLOCK_INDEX.size else np.arange(size, dtype=np.uint32)
    buffers, _spare_buffers.buffers = getattr(_spare_buffers, "buffers", None), None
    if buffers is None or buffers[0].size < size:
        buffers = (np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int8),
                   np.empty(size, dtype=bool))
    product, mu, same = buffers
    try:
        for lo in range(1, stop + 1, block):
            n = min(block, stop + 1 - lo)
            live = int(np.searchsorted(primes, math.isqrt(lo + n - 1), side="right"))
            # p^2 below the block length strikes it strided, the rest at most once
            strided = int(np.searchsorted(squares, n))
            a = product[:n]
            a.fill(1)
            for p in plist[:live]:
                a[(-lo) % p::p] *= -p
            for p2 in squares[:min(strided, live)].tolist():
                a[(-lo) % p2::p2] = 0
            if live > strided:
                first = np.remainder(-lo, squares[strided:live])
                a[first[first < n]] = 0
            m, f = mu[:n], same[:n]
            np.sign(a, out=m, casting="unsafe")
            np.abs(a, out=a)
            # |product| == lo + i, as |product| - i == lo: a product below i
            # wraps past 2^31 >= lo
            u = a.view(np.uint32)
            u -= index[:n]
            np.equal(u, lo, out=f)
            # mu = sign * (2*same - 1): a masked negate takes ten times as long
            f = f.view(np.int8)
            f *= 2
            f -= 1
            m *= f
            yield lo, m
    finally:
        _spare_buffers.buffers = buffers


def mobius_up_to(n: int) -> np.ndarray:
    """Mobius function on [0, n] as an int8 array (index 0 is 0), copied
    block by block from ``mobius_blocks``: the table and one block's
    buffers are all it holds."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MOBIUS_SIEVE_CAP:
        raise MemoryBudgetError(
            f"Mobius sieve bound {n} exceeds the configured cap {MOBIUS_SIEVE_CAP}"
        )
    mu = np.empty(n + 1, dtype=np.int8)
    mu[0] = 0
    for lo, values in mobius_blocks(n):
        mu[lo:lo + values.size] = values
    return mu
