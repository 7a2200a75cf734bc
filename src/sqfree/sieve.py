"""Exact window counts via segmented marking of prime-square multiples.

The central operation counts n in a half-open window (x, x+h] such that for
every coordinate i no prime p below a per-coordinate level z_i has p^2
dividing n + offset_i.  With the default levels this is exactly "every
n + offset_i is squarefree".
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import (
    MAX_SUPPORTED,
    as_offsets,
    mobius_up_to,
    primes_up_to,
    residue_class_count_squarefree,
    squarefree_prime_factors,
)

# Elements per segment.  Large segments keep the per-segment Python loop over
# small primes cheap; memory stays bounded by the segment, not the window.
SEGMENT_SIZE = 1 << 26

_EMPTY = np.empty(0, dtype=np.int64)


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


def _require_range(window: Window, offsets) -> None:
    if window.end + offsets.offsets[-1] > MAX_SUPPORTED:
        raise ValueError("window end plus largest offset exceeds the supported range 2^62")


def count_squarefree(x: int) -> int:
    """Exact number of squarefree integers in [1, x].

    Inclusion-exclusion over square moduli: sum of mu(d) * floor(x / d^2)
    for d up to sqrt(x).
    """
    x = int(x)
    if x < 1 or x > MAX_SUPPORTED:
        raise ValueError("x must lie in [1, 2^62]")
    s = math.isqrt(x)
    if s < 2:
        return x
    mu = mobius_up_to(s).astype(np.int64)
    d = np.arange(1, s + 1, dtype=np.int64)
    return int(np.sum(mu[1:] * (x // (d * d))))


def _normalize_levels(z, window: Window, offsets) -> list[float]:
    r = offsets.r
    if z is None:
        level = 2.0 * math.sqrt(window.end + offsets.offsets[-1])
        return [level] * r
    if isinstance(z, (int, float)):
        return [float(z)] * r
    levels = [float(v) for v in z]
    if len(levels) != r:
        raise ValueError("need one sieve level per offset")
    return levels


def _segments(x: int, h: int, size: int) -> list[tuple[int, int]]:
    out = []
    done = 0
    while done < h:
        length = min(size, h - done)
        out.append((x + done, length))
        done += length
    return out


def _count_segment(base: int, length: int, pairs) -> int:
    alive = np.ones(length, dtype=bool)
    small_cap = math.isqrt(length)
    for off, ps in pairs:
        if ps.size == 0:
            continue
        m1 = base + off + 1  # first shifted element of the segment
        k = int(np.searchsorted(ps, small_cap, side="right"))
        for p in ps[:k].tolist():
            p2 = p * p
            start = (-m1) % p2
            alive[start::p2] = False
        big = ps[k:]
        if big.size:
            p2 = big * big
            start = (p2 - m1 % p2) % p2
            hits = start[start < length]
            if hits.size:
                alive[hits] = False
    return int(np.count_nonzero(alive))


def count_tuples(window, offsets, z=None, *, threads: int = 1,
                 segment_size: int = SEGMENT_SIZE) -> int:
    """Count n in the window with no prime p < z_i whose square divides
    n + offset_i, for every coordinate i.

    ``z`` may be a single level applied to every coordinate or a sequence of
    per-coordinate levels; the default level 2*sqrt(window end + largest
    offset) turns the test into full squarefreeness of every shifted value.
    """
    w = as_window(window)
    l = as_offsets(offsets)
    _require_range(w, l)
    levels = _normalize_levels(z, w, l)
    bounds = []
    for off, level in zip(l.offsets, levels):
        if level < 2.0:
            raise ValueError("sieve levels must be at least 2")
        # Only primes p < level with p^2 <= window end + offset matter.
        bounds.append(max(0, min(math.isqrt(w.end + off), math.ceil(level) - 1)))
    table_bound = max(bounds)
    table = primes_up_to(table_bound) if table_bound >= 2 else None
    pairs = []
    for off, bound in zip(l.offsets, bounds):
        ps = table.upto(bound) if table is not None else _EMPTY
        pairs.append((off, ps))
    segments = _segments(w.x, w.h, segment_size)
    if threads > 1 and len(segments) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return sum(pool.map(lambda seg: _count_segment(seg[0], seg[1], pairs), segments))
    return sum(_count_segment(base, length, pairs) for base, length in segments)


def _congruence_classes(offsets, p: int) -> tuple[int, list[int]]:
    p2 = p * p
    return p2, sorted({(-off) % p2 for off in offsets.offsets})


def _count_congruent_scan(window: Window, class_lists, segment_size: int) -> int:
    total = 0
    for base, length in _segments(window.x, window.h, segment_size):
        good = np.ones(length, dtype=bool)
        for p2, classes in class_lists:
            hit = np.zeros(length, dtype=bool)
            for c in classes:
                start = (c - base - 1) % p2
                hit[start::p2] = True
            good &= hit
        total += int(np.count_nonzero(good))
    return total


# Most solution classes enumerated; inputs with more are scanned instead.
CLASS_ENUMERATION_CAP = 1 << 24


def _count_congruent_classes(window: Window, class_lists) -> int:
    residues = [0]
    modulus = 1
    for p2, classes in class_lists:
        inv = pow(modulus % p2, -1, p2)
        residues = [a + modulus * (((c - a) * inv) % p2)
                    for a in residues for c in classes]
        modulus *= p2
    x, hi = window.x, window.end
    return sum((hi - a) // modulus - (x - a) // modulus for a in residues)


def count_congruent(d: int, window, offsets) -> int:
    """Exact #{n in (x, x+h] : every prime p | d has p^2 | n + some offset}.

    For squarefree d this is the count of n whose squarefull product over the
    pattern is divisible by d.  Small moduli are scanned segment by segment;
    large moduli enumerate the solution classes modulo d^2 directly, unless
    there are more than CLASS_ENUMERATION_CAP of them, in which case the
    bounded-memory scan answers instead.
    """
    d = int(d)
    w = as_window(window)
    l = as_offsets(offsets)
    _require_range(w, l)
    factors = squarefree_prime_factors(d)
    if d == 1:
        return w.h
    class_lists = [_congruence_classes(l, p) for p in factors]
    class_count = math.prod(len(classes) for _, classes in class_lists)
    if d * d <= 4 * w.h or class_count > CLASS_ENUMERATION_CAP:
        return _count_congruent_scan(w, class_lists, SEGMENT_SIZE)
    return _count_congruent_classes(w, class_lists)


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
    w = as_window(window)
    l = as_offsets(offsets)
    exact = count_congruent(d, w, l)
    u_d = residue_class_count_squarefree(d, l)
    main = w.h * u_d / (d * d)
    return CongruentMainTerm(exact, main, abs(exact - main), u_d)
