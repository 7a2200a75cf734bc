"""Exact window counts via segmented marking of prime-square multiples.

The central operation counts n in a half-open window (x, x+h] such that for
every coordinate i no prime p below a per-coordinate level z_i has p^2
dividing n + offset_i.  With the default levels this is exactly "every
n + offset_i is squarefree".
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import (
    MAX_SUPPORTED,
    OffsetTuple,
    _congruence_classes,
    _icbrt,
    as_offsets,
    mobius_blocks,
    primes_up_to,
    residue_class_count_squarefree,
    squarefree_prime_factors,
)

# Elements per segment: the unit a worker takes, over which the sparse
# strikes are gathered and sorted once.  Re-timed on wide windows with the
# sub-blocks below, 2^23 and 2^25 were no faster (ROADMAP "Settled").
SEGMENT_SIZE = 1 << 24
# Elements per sub-block, the length of each worker's reused buffer: a
# sub-block is filled, densely struck, sparsely cleared and counted while
# it stays in L2.  Of 2^18 .. 2^21, 2^20 timed best.
SUB_BLOCK = 1 << 20
# The primes from 17 with p^2 below this are strided sub-block by
# sub-block; the larger ones go to each segment's sparse strike array.  Of
# 2^12 .. 2^16, 2^14 .. 2^16 timed alike and faster than 2^12 and 2^13.
DENSE_LIMIT = 1 << 15
# Pre-sieve groups, one tile each; a tile's period is the product of its
# group's prime squares less those of the wheel's primes (44100 and 20449,
# or 1225 and 20449 with the wheel).  The strides start at 17.
PRESIEVE_GROUPS = ((2, 3, 5, 7), (11, 13))
# Elements per pre-sieve block: a sub-block is filled block by block with
# one logical_and of the two tiles.  2^17 blocks slowed 1e6 windows; 2^15
# did not.
PRESIEVE_BLOCK = 1 << 15
# The wheel modulus 4*9 of windows of a segment or more: n = 36k + a, and
# for offsets 0; 0,1; 0,1,2; 0,2,6,8, 4 or 9 strikes 12, 22, 30 and 26 of
# the 36 classes a before any other prime is read.
WHEEL = 36
# Most worker threads count_tuples accepts.
MAX_THREADS = 64
# C of the path rule: a full-level window of one coordinate with h >= C *
# sqrt(window end + offset) is counted by the Mobius sum, not the kernel.
# The sum costs about 7-10 ns per d <= sqrt(end) (its first block of d,
# all divisions, more), the wheeled kernel at r = 1 about 0.17 ns per
# element.  Kernel time over sum time, r = 1, h = c*sqrt(x), median of 5
# alternating runs in one process on a 2-vCPU Xeon:
#   c        12.5  25    50    100   200   400   800
#   x = 1e8  1.08  1.16  1.57  1.90  2.91  4.77  8.77
#   x = 1e10 0.43  0.57  0.98  1.65  3.24  5.14  11.9
#   x = 1e12 0.38  0.61  1.19  2.41  4.67  9.82  14.7
#   x = 1e14 0.14  0.54  1.16  1.77  3.70  7.00  14.0
# They break even near c = 50 from 1e10 on; from c = 100 the sum is at
# least 1.65 times as fast at every x, a margin over this machine's noise.
MOBIUS_SUM_RATIO = 100


@dataclass(frozen=True)
class Window:
    """Half-open integer window (x, x + h]."""

    x: int
    h: int

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))
        object.__setattr__(self, "h", int(self.h))
        if self.x < 0:
            raise ValueError("window start must be non-negative")
        if self.h < 1:
            raise ValueError("window length must be positive")
        if self.x + self.h > MAX_SUPPORTED:
            raise ValueError("window exceeds the supported range 2^62")

    @property
    def end(self) -> int:
        return self.x + self.h


def as_window(value) -> Window:
    if isinstance(value, Window):
        return value
    x, h = value
    return Window(x, h)


def _window_args(window, offsets) -> tuple[Window, OffsetTuple]:
    """The one intake of every window function: the window and offsets
    coerced, and refused unless window end plus largest offset <= 2^62."""
    w = as_window(window)
    l = as_offsets(offsets)
    if w.end + l.offsets[-1] > MAX_SUPPORTED:
        raise ValueError("window end plus largest offset exceeds the supported range 2^62")
    return w, l


def _squarefree_between(lo: int, hi: int) -> int:
    """#{squarefree n in (lo, hi]}, 0 <= lo < hi <= 2^62: the sum of
    mu(d) * (hi // d^2 - lo // d^2) over d <= isqrt(hi), in one pass over
    the blocks of ``mobius_blocks`` (``_mobius_block_sum``)."""
    return sum(_mobius_block_sum(mu, start, lo, hi)
               for start, mu in mobius_blocks(math.isqrt(hi)))


def _mobius_block_sum(mu: np.ndarray, start: int, lo: int, hi: int) -> int:
    """The sum of mu(d) * (hi // d^2 - lo // d^2) over the block of d from
    start, mu[i] = mu(start + i).

    The sum counts the pairs (k, d) with lo < k*d^2 <= hi, weighted by
    mu(d).  A block with at most a 64th as many cofactors k as d, from d
    past 4*isqrt(hi - lo), gathers mu at its pairs (``square_multiples``).
    A d past sqrt(hi - lo) has at most one multiple of d^2 in the window,
    so such a block holds at most one pair per d: its temporaries are
    bounded by the block, never by hi.  For a short window all but the
    first block or two gather; ``count_squarefree`` (lo = 0) never does.
    Any other block takes two divisions per d, in pieces of 2^13 d.  The
    int64 sums are exact: the terms' magnitudes add up to less than
    2*hi <= 2^63."""
    n = mu.size
    last = start + n - 1
    if hi // (start * start) - lo // (last * last) <= n // 64 and start > 4 * math.isqrt(hi - lo):
        _, m = square_multiples(lo, hi, start - 1, last)
        return int(mu[m - start].sum(dtype=np.int64))
    total = 0
    # int64 temporaries of 64 KiB, reused from the heap rather than mapped
    # and faulted in anew
    for j in range(0, n, 1 << 13):
        d2 = np.arange(start + j, start + min(j + (1 << 13), n), dtype=np.int64)
        d2 *= d2
        terms = hi // d2
        if lo:
            terms -= lo // d2
        total += int(np.dot(mu[j:j + d2.size], terms))
    return total


def count_squarefree(x: int) -> int:
    """Exact number of squarefree integers in [1, x], x <= 2^62.

    Inclusion-exclusion over square moduli: the sum of mu(d) * floor(x /
    d^2) over d up to sqrt(x), the window (0, x] of the one Mobius sum that
    ``count_tuples`` also reads, ``_squarefree_between``.  It holds one
    block of arith.MOBIUS_BLOCK moduli at a time, whatever x is: a traced
    peak of 0.61 MiB at 2^44 and at 2^46.
    """
    x = int(x)
    if x < 1 or x > MAX_SUPPORTED:
        raise ValueError("x must lie in [1, 2^62]")
    return _squarefree_between(0, x)


def full_level(window, offsets) -> float:
    """The level 2*sqrt(window end + largest offset), above every prime whose
    square can divide a shifted window element: sieving to it is the full
    squarefree test."""
    w, l = _window_args(window, offsets)
    return 2.0 * math.sqrt(w.end + l.offsets[-1])


def _normalize_levels(z, window: Window, offsets) -> list[float]:
    r = offsets.r
    if z is None:
        return [full_level(window, offsets)] * r
    if isinstance(z, numbers.Real):  # numpy scalars included
        return [float(z)] * r
    levels = [float(v) for v in z]
    if len(levels) != r:
        raise ValueError("need one sieve level per offset")
    return levels


def _segments(x: int, h: int, size: int):
    """Yield (base, length) pieces of (x, x+h], lazily."""
    for done in range(0, h, size):
        yield x + done, min(size, h - done)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of int64 values in [0, 2^62]: there the float
    root of j^2 is exactly j and rounding is monotone, so the float root of
    n in [j^2, (j+1)^2) is j or j + 1, and one downward correction suffices."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    return s


def square_multiples(lo: int, hi: int, m_lo: int, m_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (k, m) with k*m^2 in (lo, hi] and m in (m_lo, m_hi], as
    int64 arrays k and m, one entry per pair, in ascending k and then m.
    For each cofactor k in (lo // m_hi^2, hi // (m_lo+1)^2] the m form one
    interval, (max(isqrt(lo // k), m_lo), min(isqrt(hi // k), m_hi)], so
    memory grows as m_lo falls."""
    if m_hi <= m_lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    k = np.arange(lo // (m_hi * m_hi) + 1, hi // ((m_lo + 1) ** 2) + 1, dtype=np.int64)
    first = np.maximum(_isqrt(lo // k), m_lo)
    counts = np.maximum(np.minimum(_isqrt(hi // k), m_hi) - first, 0)
    # Run j of each k's block takes m = first + 1 + j.
    starts = np.cumsum(counts) - counts
    m = np.repeat(first + 1 - starts, counts) + np.arange(int(counts.sum()), dtype=np.int64)
    return np.repeat(k, counts), m


def _cofactor_bound(end: int) -> int:
    """Primes to P = 4*end^(1/3) are sieved, squares above P^2 struck through
    their cofactors k <= end / P^2 = end^(1/3)/16.  Near 2^62 placing a
    prime costs about 5 ns and striking a cofactor about 30 ns, so P sits
    above the cube root.  Of c*end^(1/3) for c = 1, 2, 4, 6, 8, c = 4 and 6
    timed best on 1e6-windows from 1e15 to 2^62; c = 4 needs the smaller
    prime table (6.6e6 at 2^62)."""
    return 4 * _icbrt(end)


@dataclass(frozen=True)
class _Plan:
    """Per-call tables the segment kernel reads; shared by every worker."""

    wheel: int        # W: the dense phase runs over n = W*k + a, k by k, per live class a
    live: tuple       # live[a], a < W: no coordinate has p^2 | a + offset for a p | W, p <= top
    tiles: tuple      # per PRESIEVE_GROUPS entry without the primes of W, period + block
                      # read-only flags: entry i is False where some p of the group,
                      # p <= top, has p^2 | n + offset for the n = W*i modulo the period
    periods: tuple    # the tiles' periods, the products of their groups' p^2
    inverse: int      # W^-1 modulo the product of the periods: n*inverse is n's tile phase
    block: int        # elements per pre-sieve block
    sub: int          # elements per sub-block, the length of each worker's buffer
    dense: tuple      # (offset, [(p^2, W^-1 mod p^2), ...]) for the primes from 17 with
                      # p^2 < DENSE_LIMIT
    sparse: tuple     # (offset, p^2 array) for the next primes with p^2 < segment length
    placed: tuple     # (offset, p^2 array) for the rest up to min(top, bound)
    cofactor: tuple   # (offset, top) for coordinates whose squares m^2 go past the bound
    bound: int        # the cofactor bound


def _wheel(h: int) -> int:
    """The wheel modulus W for a window of h elements: WHEEL once the window
    fills a segment, else 1.  Each live class costs a fixed 30-65 us per
    segment in Python (its strides, tile blocks and cuts); from h = 1.6e7
    on, the dense work the wheel saves outweighs it at every r and x timed
    (ROADMAP "Settled")."""
    return WHEEL if h >= SEGMENT_SIZE else 1


def _plan(offsets, tops, primes: np.ndarray, bound: int, size: int, wheel: int) -> _Plan:
    # ``primes`` runs to min(max(tops), bound); each coordinate takes the
    # prefix up to its own top, so the first six are 2, 3, 5, 7, 11, 13.
    # Past the dense primes, one read-only array of squares serves every
    # coordinate: those below the segment length are sparse, and the rest
    # hit a segment of at most size elements at most once.  The primes of
    # the wheel (2 and 3 when W = 36, whose squares divide W) leave the
    # tiles and decide which classes a of n mod W are live instead.
    pre = sum(len(group) for group in PRESIEVE_GROUPS)

    def split(limit):
        return max(pre, int(np.searchsorted(primes, math.isqrt(limit - 1), side="right")))

    groups = [[p for p in group if wheel % p] for group in PRESIEVE_GROUPS]
    wheel_primes = [p for group in PRESIEVE_GROUPS for p in group if wheel % p == 0]
    periods = tuple(math.prod(p * p for p in group) for group in groups)
    inverse = pow(wheel, -1, math.prod(periods))
    sub = min(SUB_BLOCK, -(-size // wheel))
    dense_end, sparse_end = split(min(DENSE_LIMIT, size)), split(size)
    strides = [(p * p, pow(wheel, -1, p * p)) for p in primes[pre:dense_end].tolist()]
    squares = primes[dense_end:] * primes[dense_end:]
    squares.flags.writeable = False
    # A period and a block hold one block from any phase; every p^2 of a
    # group divides its tile's period, so the marks repeat with it.
    block = min(PRESIEVE_BLOCK, sub)
    tiles = tuple(np.ones(period + block, dtype=bool) for period in periods)
    live = np.ones(wheel, dtype=bool)
    dense, sparse, placed, cofactor = [], [], [], []
    for off, top in zip(offsets, tops):
        for group, tile in zip(groups, tiles):
            for p in group:
                if p <= min(top, bound):
                    tile[(-off * inverse) % (p * p)::p * p] = False
        for p in wheel_primes:
            if p <= min(top, bound):
                live[(-off) % (p * p)::p * p] = False
        count = int(np.searchsorted(primes, top, side="right"))
        if min(count, dense_end) > pre:
            dense.append((off, strides[:min(count, dense_end) - pre]))
        if min(count, sparse_end) > dense_end:
            sparse.append((off, squares[:min(count, sparse_end) - dense_end]))
        if count > sparse_end:
            placed.append((off, squares[sparse_end - dense_end:count - dense_end]))
        if top > bound:
            cofactor.append((off, top))
    for tile in tiles:
        tile.flags.writeable = False
    return _Plan(wheel, tuple(live.tolist()), tiles, periods, inverse, block, sub, tuple(dense),
                 tuple(sparse), tuple(placed), tuple(cofactor), bound)


def _sparse_strikes(base: int, length: int, plan: _Plan) -> np.ndarray:
    """The indices s into (base, base+length] that the sparse and placed
    primes and the cofactor pass strike, repeats kept, as sorted keys
    (s mod W)*span + s // W with span = ceil(length / W): the strikes of
    each class of s mod W in one run, in order of k = s // W.  With W = 1
    the key is s."""
    strikes = [np.empty(0, dtype=np.int64)]
    for off, squares in plan.sparse:
        # Prime j strikes start_j + i*p_j^2 for i < counts_j, entry first_j + i
        # of the result: that is (start_j - first_j*p_j^2) + entry*p_j^2.
        start = np.remainder(-(base + off + 1), squares)
        counts = (length - 1 - start) // squares + 1
        first = np.cumsum(counts) - counts
        strikes.append(np.repeat(start - first * squares, counts)
                       + np.repeat(squares, counts) * np.arange(int(counts.sum())))
    for off, squares in plan.placed:
        # p^2 is at least the segment length, so each prime hits at most once.
        start = np.remainder(-(base + off + 1), squares)
        strikes.append(start[start < length])
    for off, top in plan.cofactor:
        # Every m in (bound, top], composite or not: a prime q | m has
        # q < m <= top < z_i and q^2 | m^2, so a composite m only strikes an
        # n that q strikes anyway.
        m1 = base + off + 1
        k, m = square_multiples(m1 - 1, m1 - 1 + length, plan.bound, top)
        strikes.append(k * m * m - m1)
    # The keys take two strike-sized arrays, the strike list freed first:
    # larger temporaries (about 3 MB a segment at r = 4), freed at the top
    # of the heap, let malloc hand them back to the system and fault them
    # in again every segment.  Strikes lie below length <= 2^24 and keys
    # below W*span < 2^25, so int32 holds them; a scalar floor division
    # takes a tenth of the time of np.divmod.
    k = np.concatenate(strikes, dtype=np.int32)
    del strikes
    q = k // plan.wheel
    q *= plan.wheel
    k -= q  # s mod W
    q //= plan.wheel  # s // W again, with no third array
    k *= -(-length // plan.wheel)
    k += q
    k.sort()
    return k


def _count_segment(alive: np.ndarray, base: int, length: int, plan: _Plan) -> int:
    """Survivors among n in (base, base+length], counted class by class of
    n mod W, one sub-block of ``alive`` at a time, element j of a class's
    sub-block standing for n = m + W*j."""
    wheel = plan.wheel
    span = -(-length // wheel)
    keys = _sparse_strikes(base, length, plan)
    (tile_a, tile_b), (period_a, period_b) = plan.tiles, plan.periods
    total = 0
    for s in range(min(wheel, length)):
        n1 = base + 1 + s  # first element of the class in the segment
        if not plan.live[n1 % wheel]:
            continue
        count = (length - 1 - s) // wheel + 1
        starts = range(0, count, plan.sub)
        cuts = np.searchsorted(keys, [s * span + j for j in (*starts, count)]).tolist()
        for start, lo, hi in zip(starts, cuts, cuts[1:]):
            view = alive[:min(plan.sub, count - start)]
            m = n1 + wheel * start  # first element of the sub-block
            phase = m * plan.inverse
            # Each block is the AND of the two tiles at the block's phases.
            for b in range(0, len(view), plan.block):
                a, c = (phase + b) % period_a, (phase + b) % period_b
                stop = min(b + plan.block, len(view))
                np.logical_and(tile_a[a:a + stop - b], tile_b[c:c + stop - b], out=view[b:stop])
            for off, squares in plan.dense:
                for p2, inverse in squares:
                    view[(-(m + off) * inverse) % p2::p2] = False
            view[keys[lo:hi] - (s * span + start)] = False
            total += int(np.count_nonzero(view))
    return total


def _count_kernel(w: Window, l: OffsetTuple, tops: list, threads: int) -> int:
    """The segment kernel: count n in the window with no m <= tops[i],
    m^2 | n + offset_i, for every coordinate i (see ``count_tuples``)."""
    bound = _cofactor_bound(w.end + l.offsets[-1])
    size = min(SEGMENT_SIZE, w.h)
    plan = _plan(l.offsets, tops, primes_up_to(min(max(tops), bound)), bound, size, _wheel(w.h))
    workers = min(threads, -(-w.h // size))

    def worker(k: int) -> int:
        alive = np.empty(plan.sub, dtype=bool)
        segments = itertools.islice(_segments(w.x, w.h, size), k, None, workers)
        return sum(_count_segment(alive, *segment, plan) for segment in segments)

    if workers == 1:
        return worker(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(worker, range(workers)))


def _mobius_sum_wins(w: Window, l: OffsetTuple, tops: list) -> bool:
    """The path rule: the Mobius sum counts a full-level window of one
    coordinate once h >= MOBIUS_SUM_RATIO * isqrt(window end + offset);
    every other window goes to the kernel."""
    root = math.isqrt(w.end + l.offsets[0])
    return l.r == 1 and tops[0] == root and w.h >= MOBIUS_SUM_RATIO * root


def count_tuples(window, offsets, z=None, *, threads: int = 1) -> int:
    """Count n in the window with no prime p < z_i whose square divides
    n + offset_i, for every coordinate i.

    ``z`` may be a single level applied to every coordinate or a sequence of
    per-coordinate levels; the default level 2*sqrt(window end + largest
    offset) turns the test into full squarefreeness of every shifted value.

    A window of one coordinate at a full level (every m^2 up to window end
    plus offset) with h >= MOBIUS_SUM_RATIO * sqrt(window end + offset) is
    counted as the sum of mu(d) * (floor((x + h + l)/d^2) - floor((x +
    l)/d^2)) over d <= sqrt(x + h + l), in O(sqrt(x)) with one block of
    Mobius values at a time (``_squarefree_between``); ``threads`` does not
    enter it.  Every other window goes to the segment kernel:

    The window is cut into segments of SEGMENT_SIZE.  Per segment, one
    sorted int32 array lists every strike of the prime squares from
    DENSE_LIMIT up to the segment length (repeated from each first hit), of
    the larger squares up to four times the cube root of the window end
    (placed with one array remainder) and of the squares above that bound
    (through their cofactors, ``square_multiples``), so only primes up to
    the bound are needed.  Windows of a segment or more are wheeled by
    WHEEL = 36: the strikes are keyed by class of n mod 36 and sorted once,
    and each segment is counted class by class over n = 36k + a, only for
    the classes a that 4 and 9 leave alive; shorter windows run the same
    code with one class (W = 1).  Each class's run is counted one SUB_BLOCK
    of a reused buffer at a time: filled PRESIEVE_BLOCK elements at a time
    as the AND of two pre-sieve tiles, one for 4, 9, 25 and 49 (25 and 49
    when wheeled) and one for 121 and 169, struck by strides for the
    squares from 17^2 below DENSE_LIMIT, cleared at its range of the strike
    keys and counted.
    ``threads`` must lie in [1, MAX_THREADS]; at most one worker per segment
    runs.  Of T workers, worker k counts segments k, k + T, k + 2T, ... into
    its own buffer: the plan is read-only, so the workers share nothing
    they write.
    """
    threads = int(threads)
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must lie in [1, {MAX_THREADS}]")
    w, l = _window_args(window, offsets)
    levels = _normalize_levels(z, w, l)
    tops = []
    for off, level in zip(l.offsets, levels):
        if not 2.0 <= level < math.inf:  # NaN fails too
            raise ValueError("sieve levels must be at least 2" if level < 2.0
                             else f"sieve level z must be finite, not {level}")
        # Only m < level with m^2 <= window end + offset matter.
        tops.append(min(math.isqrt(w.end + off), math.ceil(level) - 1))
    if _mobius_sum_wins(w, l, tops):
        return _squarefree_between(w.x + l.offsets[0], w.end + l.offsets[0])
    return _count_kernel(w, l, tops, threads)


# Elements per window-walk segment (8 bytes each).  Of 2^12 .. 2^20, 2^16
# and above timed within 30% of each other on windows of 1e4 .. 1e7; 2^16
# keeps the buffer at 0.5 MiB.
SUPPORT_SEGMENT = 1 << 16
_INT64_MAX = (1 << 63) - 1


def window_products(window, offsets, primes) -> dict[int, int]:
    """{D: number of n in the window with D(n) = D}, where D(n) is the
    product of the given primes p with p^2 dividing some n + offset.

    The one D(n) walk: per SUPPORT_SEGMENT piece of the window, one reused
    int64 buffer multiplies each prime into its residue classes and is
    tallied with np.unique.  D(n) divides the product of the primes, and
    D(n)^2 divides the product of the n + offset, so D fits in int64 unless
    both pass 2^63 (r >= 3 and many primes).  Then each multiply is checked:
    a row that would pass 2^63 is set to 0, which stays 0, and its D(n) is
    rebuilt with Python ints.
    """
    w, l = _window_args(window, offsets)
    primes = [int(p) for p in primes]
    class_lists = [_congruence_classes(l, p) for p in primes]
    checked = (math.isqrt(math.prod(w.end + off for off in l.offsets)) > _INT64_MAX
               and math.prod(primes) > _INT64_MAX)
    size = min(SUPPORT_SEGMENT, w.h)
    buf = np.empty(size, dtype=np.int64)
    products = Counter()
    for base, length in _segments(w.x, w.h, size):
        d = buf[:length]
        d.fill(1)
        for p, (p2, classes) in zip(primes, class_lists):
            for c in classes:
                rows = d[(c - base - 1) % p2::p2]
                if checked:
                    rows[rows > _INT64_MAX // p] = 0
                rows *= p
        values, counts = np.unique(d, return_counts=True)
        products.update(dict(zip(values.tolist(), counts.tolist())))
        if checked:
            for k in np.flatnonzero(d == 0).tolist():
                n = base + 1 + k
                products[math.prod(p for p, (p2, classes) in zip(primes, class_lists)
                                   if n % p2 in classes)] += 1
    products.pop(0, None)  # D(n) >= 1: a 0 marks a rebuilt row
    return dict(products)


# Most solution classes u(d) counted by class enumeration; inputs with more
# are counted by the window walk instead.  The enumeration holds only the
# classes of the primes it folds before their modulus passes h, one Python
# int each: at most min(u(d), r*h) of them.
CLASS_ENUMERATION_CAP = 1 << 20


def _count_congruent_classes(window: Window, class_lists) -> int:
    """#{n in the window : n mod p^2 lies in the classes of every (p^2,
    classes) entry}.  The classes are folded by CRT, largest p^2 first, only
    while the modulus M is at most h.  With q, t = divmod(h, M), each folded
    residue a names q elements, plus n = x + 1 + s when s = (a - x - 1) mod
    M < t.  If primes are left, M > h, so q = 0 and that n counts only if
    it lies in their classes too.  Folding every prime (all u(d) classes,
    two floor divisions each) took 188 ms against 80 over the 8,597 form
    moduli of 18 selberg jobs at levels 60-300, and 42.5 MiB against 0.01
    for count_congruent(30030, (10**6, 2000), range(13))."""
    # (1, [0]) is d = 1: every n lies in the one class modulo 1.
    pending = sorted(class_lists, reverse=True) or [(1, [0])]
    modulus, residues = pending.pop(0)
    while pending and modulus <= window.h:
        p2, classes = pending.pop(0)
        inv = pow(modulus, -1, p2)
        residues = [a + modulus * (((c - a) * inv) % p2)
                    for a in residues for c in classes]
        modulus *= p2
    q, t = divmod(window.h, modulus)
    first = window.x + 1
    hits = [first + s for a in residues if (s := (a - first) % modulus) < t]
    for p2, classes in pending:
        hits = [n for n in hits if n % p2 in classes]
    return q * len(residues) + len(hits)


def count_congruent(d: int, window, offsets) -> int:
    """Exact #{n in (x, x+h] : every prime p | d has p^2 | n + some offset}.

    For squarefree d this is the count of n whose squarefull product over the
    pattern is divisible by d.  The solutions form u(d) residue classes
    modulo d^2.  They are built prime by prime, largest p^2 first, only
    until the modulus passes h; then each class built names at most one n
    in the window, tested against the primes left
    (``_count_congruent_classes``).  Past CLASS_ENUMERATION_CAP classes
    the count is read from the one D(n) walk, ``window_products`` over the
    primes of d: n counts exactly when D(n) = d.
    """
    d = int(d)
    w, l = _window_args(window, offsets)
    factors = squarefree_prime_factors(d)
    class_lists = [_congruence_classes(l, p) for p in factors]
    if math.prod(len(classes) for _, classes in class_lists) <= CLASS_ENUMERATION_CAP:
        return _count_congruent_classes(w, class_lists)
    return window_products(w, l, factors).get(d, 0)


@dataclass(frozen=True)
class CongruentMainTerm:
    """Exact congruent count against its density main term h*u(d)/d^2."""

    exact: int
    main_term: float
    abs_error: float
    class_count: int


def verify_congruent_asymptotic(d: int, window, offsets) -> CongruentMainTerm:
    """Compare the exact congruent count with h*u(d)/d^2.

    The absolute error never exceeds u(d): each of the u(d) residue classes
    modulo d^2 contributes a count within 1 of h/d^2.
    """
    w, l = _window_args(window, offsets)
    exact = count_congruent(d, w, l)
    u_d = residue_class_count_squarefree(d, l)
    main = w.h * u_d / (d * d)
    return CongruentMainTerm(exact, main, abs(exact - main), u_d)
