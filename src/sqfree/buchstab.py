"""Exact removal-ledger decomposition of window counts.

Repeatedly trading the full squarefree condition on one coordinate for a
low-level condition plus removal rows gives the exact identity

    full count = base count - sum of ledger rows,

where the base count constrains every coordinate only below the chosen
cutoff and row (coord, q) counts the n whose coordinate is divisible by q^2
with q the smallest obstructing prime there, earlier coordinates already
reduced and later ones still fully squarefree.  Everything here is exact.
LEDGER_ROW_CAP bounds the rows, one per prime from the cutoff to sqrt(window
end + offset) and coordinate, before any count runs; even tiny windows stop
past about 1.05e15 (r = 1), 2.4e14 (r = 2), 1.0e14 (r = 3) and 5.4e13
(r = 4).  The module also hosts the square-multiple count used to study how
many moduli obstruct a short window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import _icbrt, as_offsets, primes_up_to, residue_class_counts
from .sieve import (Window, _segments, _window_args, count_tuples, full_level,
                    square_multiples)

# Ledger rows (one int64 tally each) allowed per decomposition.
LEDGER_ROW_CAP = 2_000_000
# int32 marks per ledger segment, all coordinates together.  2^17 .. 2^20 per coordinate
# timed alike from x = 1e6 to 1e14; 2^15 was up to 2.7x slower on long windows.
LEDGER_MARKS = 1 << 20


@dataclass(frozen=True)
class MainTermEstimate:
    """Main-term data for the base count of a decomposition.

    ``density_product`` multiplies the window length for the expected base
    count; ``divisor_cap`` (the exact product of 1 + u(p) over p below the
    cutoff) bounds the absolute error; ``crude_cap`` is the weaker closed
    form (1 + r)^cutoff, reported alongside.
    """

    density_product: float
    divisor_cap: int
    crude_cap: float


def base_main_term(offsets, cutoff: float) -> MainTermEstimate:
    l = as_offsets(offsets)
    if not 2 <= cutoff < math.inf:  # NaN fails too
        raise ValueError("cutoff must be at least 2" if cutoff < 2
                         else f"cutoff must be finite, not {cutoff}")
    bound = math.ceil(cutoff) - 1  # primes strictly below the cutoff
    ps = primes_up_to(bound)
    us = residue_class_counts(ps, l)
    product = 1.0
    for p, u in zip(ps.tolist(), us):
        product *= 1.0 - u / (p * p)  # a degenerate factor reports as 0
    # u(p) = r for every p^2 > span: those factors are one power.
    cap = math.prod(1 + u for u in us if u != l.r) * (1 + l.r) ** us.count(l.r)
    try:
        crude = math.exp(cutoff * math.log1p(l.r))
    except OverflowError:
        crude = math.inf
    return MainTermEstimate(product, cap, crude)


def count_square_hits(window, offsets, coord: int, q_lo: float, q_hi: float) -> int:
    """Sum over primes q in [q_lo, q_hi) of #{n in window : q^2 | n + offset}.

    ``coord`` is 1-based.  Primes whose square exceeds every shifted window
    element contribute nothing and are skipped.
    """
    w, l = _window_args(window, offsets)
    if not 1 <= coord <= l.r:
        raise ValueError("coordinate index out of range")
    off = l.offsets[coord - 1]
    ps = primes_up_to(math.isqrt(w.end + off))
    qs = ps[(ps >= q_lo) & (ps < q_hi)]
    q2 = qs * qs
    lo = w.x + off
    return int(np.sum((lo + w.h) // q2 - lo // q2))


def count_square_hits_split(window, offsets, coord: int, cutoff: float,
                            split_at: float) -> tuple[int, int]:
    """Split the square-hit sum at a threshold: primes in [cutoff, split_at)
    versus [split_at, top), where top is sieve.full_level."""
    w, l = _window_args(window, offsets)
    top = full_level(w, l)
    if not cutoff <= split_at <= top:
        raise ValueError("need cutoff <= split threshold <= 2*sqrt(window end + largest offset)")
    below = count_square_hits(w, l, coord, cutoff, split_at)
    above = count_square_hits(w, l, coord, split_at, top)
    return below, above


@dataclass(frozen=True)
class BuchstabReport:
    """Exact decomposition ledger for one window and offset pattern."""

    window: Window
    offsets: object
    cutoff: float
    base_count: int                      # count with every coordinate below the cutoff
    base_main: float                     # window length * density product
    base_error: float                    # |base_count - base_main|
    divisor_cap: int                     # proven cap on base_error
    ledger_rows: int                     # len(ledger), counted without building the rows
    removed_total: int                   # sum of ledger rows
    per_coord_hits: tuple                # plain square-hit sums per coordinate
    removed_cap: int                     # r * max per-coordinate hit sum
    exact_count: int                     # fully squarefree count
    reconciliation: int                  # base_count - removed_total - exact_count
    # (q array, removed array) per coordinate, read by ``ledger``
    tallies: tuple = field(repr=False, compare=False)

    @cached_property
    def ledger(self) -> tuple:
        """Rows (coord, q, removed), one per prime q from the cutoff up to
        sqrt(window end + offset), built on first access."""
        return tuple((i + 1, q, removed) for i, (qs, removed_counts) in enumerate(self.tallies)
                     for q, removed in zip(qs.tolist(), removed_counts.tolist()))


def buchstab_decompose(window, offsets, cutoff: float) -> BuchstabReport:
    """Build the exact removal ledger; reconciliation must come out zero.

    Rows (coord, q) run over primes q from the cutoff up to the full level
    (sieve.full_level); rows whose q^2 exceeds every window element are identically
    zero and omitted from the ledger.  The rows share no code with the counts
    they reconcile: each segment marks, per coordinate, the least prime whose
    square divides n + offset, and tallies row (i, q) from those marks.
    """
    w, l = _window_args(window, offsets)
    top = full_level(w, l)
    if not 2.0 <= cutoff <= top:
        raise ValueError("cutoff must lie in [2, 2*sqrt(window end + largest offset)]")
    primes = primes_up_to(math.isqrt(w.end + l.offsets[-1]))
    lo = int(np.searchsorted(primes, cutoff))  # first prime not below the cutoff
    tops = [int(np.searchsorted(primes, math.isqrt(w.end + off), side="right"))
            for off in l.offsets]
    ledger_rows = sum(max(0, top_i - lo) for top_i in tops)
    if ledger_rows > LEDGER_ROW_CAP:
        raise ValueError(f"window too large for an exact ledger "
                         f"({ledger_rows} rows > cap {LEDGER_ROW_CAP})")
    base_count = count_tuples(w, l, z=cutoff)
    exact = count_tuples(w, l)
    main = base_main_term(l, cutoff)

    squares = primes * primes
    sentinel = primes.size
    size = min(max(1, LEDGER_MARKS // l.r), w.h)
    split = int(np.searchsorted(primes, math.isqrt(size - 1), side="right"))
    strided = squares[:split].tolist()
    least = np.empty((l.r, size), dtype=np.int32)
    tallies = [np.zeros(max(0, top_i - lo), dtype=np.int64) for top_i in tops]
    for base, length in _segments(w.x, w.h, size):
        marks = least[:, :length]
        marks.fill(sentinel)
        for i, (off, top_i) in enumerate(zip(l.offsets, tops)):
            # marks[i, k]: the index of the least prime whose square divides
            # m1 + k.  Placed squares hit at most once each, but two can meet
            # (3^2 and 5^2 on 225 at length 5), so the minimum is kept.
            m1 = base + off + 1
            start = np.remainder(-m1, squares[split:top_i])
            hit = np.flatnonzero(start < length)
            np.minimum.at(marks[i], start[hit], (hit + split).astype(np.int32))
            # Strided primes lie below the placed ones; the smallest writes last.
            for t in range(min(split, top_i) - 1, -1, -1):
                marks[i, (-m1) % strided[t]::strided[t]] = t
        # Row (i, q) takes the n with no coordinate hit below the cutoff (the
        # sentinel is above it) whose last hit coordinate is i, hit at q: so
        # each n lands in at most one row, found walking the coordinates back.
        open_ = marks.min(axis=0) >= lo
        for i in range(l.r - 1, -1, -1):
            hit = marks[i] < sentinel
            tallies[i] += np.bincount(marks[i][open_ & hit] - lo, minlength=tallies[i].size)
            open_ &= ~hit

    for tally in tallies:
        tally.flags.writeable = False
    rows = tuple((primes[lo:top_i], tally) for top_i, tally in zip(tops, tallies))
    removed_total = sum(int(removed.sum()) for _, removed in rows)

    per_coord = tuple(
        count_square_hits(w, l, coord, cutoff, top) for coord in range(1, l.r + 1)
    )
    removed_cap = l.r * max(per_coord)
    return BuchstabReport(
        window=w,
        offsets=l,
        cutoff=float(cutoff),
        base_count=base_count,
        base_main=w.h * main.density_product,
        base_error=abs(base_count - w.h * main.density_product),
        divisor_cap=main.divisor_cap,
        ledger_rows=ledger_rows,
        removed_total=removed_total,
        per_coord_hits=per_coord,
        removed_cap=removed_cap,
        exact_count=exact,
        reconciliation=base_count - removed_total - exact,
        tallies=rows,
    )


@dataclass(frozen=True)
class SquareMultipleQuery:
    """Which moduli d in [d_lo, d_hi] have a multiple of d^2 inside (x, x+h]?"""

    x: int
    h: int
    d_lo: float
    d_hi: float

    def __post_init__(self):
        Window(self.x, self.h)  # the window checks and their messages
        # NaN fails both comparisons, so it gets the finiteness message
        if not 1 <= self.d_lo < math.inf:
            raise ValueError("d_lo must be at least 1" if self.d_lo < 1
                             else f"d_lo must be finite, not {self.d_lo}")
        if not self.d_lo <= self.d_hi < math.inf:
            raise ValueError("d_lo must not exceed d_hi" if self.d_lo > self.d_hi
                             else f"d_hi must be finite, not {self.d_hi}")


def count_square_multiples(query: SquareMultipleQuery) -> int:
    """Exact count of integers d in [d_lo, d_hi] with floor((x+h)/d^2) > floor(x/d^2).

    Every d with d^2 <= h qualifies.  The d above that and below the cube
    root of x + h are tested as one vector.  Each larger d has at most one
    multiple k*d^2 in the window, with k below the cube root, so those count
    as the (k, d) pairs of ``square_multiples``.
    """
    x, top = query.x, query.x + query.h
    lo = math.ceil(query.d_lo)
    hi = min(math.floor(query.d_hi), math.isqrt(top))
    if lo > hi:
        return 0
    short = math.isqrt(query.h)
    total = max(0, min(hi, short) - lo + 1)
    # The helper's cofactor range is top // d1^2: keep d1 at the cube root or above.
    d1 = max(lo, short + 1, _icbrt(top))
    d2 = np.arange(max(lo, short + 1), min(hi + 1, d1), dtype=np.int64) ** 2
    total += int(np.count_nonzero(top // d2 > x // d2))
    if d1 <= hi:
        total += square_multiples(x, top, d1 - 1, hi).size
    return total


def _parse_growth(choice):
    text = str(choice)
    if text.startswith("const:"):
        return "const", float(text.split(":", 1)[1])
    if text in ("loglog", "pow23"):
        return text, None
    raise ValueError(f"unknown growth kind {text!r}; use loglog, pow23 or const:C")


@dataclass(frozen=True)
class AsymptoticParameters:
    """Cutoff and minimal window length for the asymptotic counting regime."""

    growth_value: float            # the chosen slowly growing function at x
    cutoff: float                  # exp(10 sqrt(r)) * growth value
    min_window: float              # cutoff * x^(1/5) * log x
    growth_ok: bool                # 2 <= growth <= e^-10 (log x)^(2/3)
    scale_ok: bool                 # exp(10 sqrt(r)) <= (log x)^(2/3) / growth

    @property
    def hypotheses_ok(self) -> bool:
        return self.growth_ok and self.scale_ok


def asymptotic_parameters(x: float, r: int, growth="loglog") -> AsymptoticParameters:
    """Evaluate the asymptotic-regime parameters and report whether its
    hypotheses hold at this x (they fail for every desk-scale x)."""
    if x < math.e ** math.e:
        raise ValueError("x must be at least e^e")
    if r < 1:
        raise ValueError("tuple size must be at least 1")
    kind, c = _parse_growth(growth)
    lx = math.log(x)
    if kind == "loglog":
        psi = math.log(lx)
    elif kind == "pow23":
        psi = math.exp(-10.0) * lx ** (2.0 / 3.0)
    else:
        psi = c
    scale = math.exp(10.0 * math.sqrt(r))
    cutoff = scale * psi
    min_window = cutoff * x ** 0.2 * lx
    growth_ok = 2.0 <= psi <= math.exp(-10.0) * lx ** (2.0 / 3.0)
    scale_ok = scale <= lx ** (2.0 / 3.0) / psi
    return AsymptoticParameters(psi, cutoff, min_window, growth_ok, scale_ok)
