"""Certified enclosures for the density constant of an offset pattern.

The density of n with every n + offset squarefree is the product over all
primes p of (1 - u(p)/p^2), where u(p) counts the distinct offset residues
modulo p^2.  We bracket it rigorously: the partial product up to a prime
cutoff from above, and the same product damped by a proven tail bound from
below.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arith import as_offsets, primes_up_to, residue_class_counts
from .errors import ContractViolation, DegenerateTupleError

DEFAULT_PRIME_CUTOFF = 10_000_000

# Log-space widening applied per retained factor to absorb float rounding.
FLOAT_SLOP_PER_FACTOR = 10.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class EulerEstimate:
    """Rigorous bracket [lower, upper] for the density of a tuple pattern.

    ``tail_log_bound`` is the total log-space width: the proven bound on the
    omitted prime tail plus the accumulated rounding slop, so that
    upper/lower <= exp(tail_log_bound) whenever the density is nonzero.
    """

    lower: float
    upper: float
    prime_cutoff: int
    tail_log_bound: float
    degenerate_zero: bool = False

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def density_constant(offsets, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> EulerEstimate:
    """Bracket the infinite product of local densities (1 - u(p)/p^2).

    Factors are accumulated in log space with exactly rounded summation, in
    one pass over the prime table, _CHUNK primes at a time: each chunk's
    logs are made by np.log1p, the few primes with u(p) < r written in
    first, and cut into exact limbs in two reused buffers (see
    ``_add_limbs``; per-chunk int64 sums put no bound on the table size).
    Every log v lies in the limbs' domain.  It is log1p(-u/p^2) with
    1 <= u <= r <= cutoff/2 <= 2^26, u < p^2 and p < PRIME_SIEVE_CAP = 2^27,
    so u/p^2 and 1 - u/p^2 are both above 1/2^54, and rounding keeps them
    at 2^-55 or more.  Hence 2^-55 <= |v| <= 55*log(2) < 39, below 2^6,
    and the lowest bit of v is at least 2^-107, on the 2^-114 grid.
    The omitted tail over primes beyond the cutoff is covered by
    2r/(prime_cutoff - 1): each omitted factor satisfies
    -log(1 - u(p)/p^2) <= 2r/p^2 (valid since p > cutoff >= 2r forces
    u(p)/p^2 < 1/2), and the sum of 1/p^2 over p > cutoff is below
    1/(cutoff - 1).
    """
    l = as_offsets(offsets)
    r = l.r
    cutoff = int(prime_cutoff)
    if cutoff < 2 * r:
        raise ValueError("prime_cutoff must be at least twice the tuple size")
    ps = primes_up_to(cutoff)
    # u(p) = r but at these primes.  The degenerate u(p) = p^2 needs
    # p^2 <= r, and the first isqrt(r) primes hold every such p.
    special = residue_class_counts(l)
    if any(special.get(p, r) == p * p for p in ps[:math.isqrt(r)].tolist()):
        return EulerEstimate(0.0, 0.0, cutoff, 0.0, True)
    listed = [p for p in special if p <= cutoff]
    slots = np.searchsorted(ps, listed)
    args = [-special[p] / (p * p) for p in listed]
    # chunk i's special primes are slots[cuts[i]:cuts[i + 1]]
    cuts = np.searchsorted(slots, range(0, ps.size + _CHUNK, _CHUNK)).tolist()

    limbs = [0, 0, 0]
    chunk = np.empty(min(_CHUNK, ps.size), dtype=np.float64)
    scratch = np.empty_like(chunk)
    for lo, a, b in zip(range(0, ps.size, _CHUNK), cuts, cuts[1:]):
        logs = chunk[:min(_CHUNK, ps.size - lo)]
        # -r/p^2 made in place, the special primes' -u(p)/p^2 written over
        # theirs before any log: a p^2 <= r would give log1p(-1) or a NaN
        np.square(ps[lo:lo + logs.size], out=logs, dtype=np.float64)
        np.divide(-r, logs, out=logs)
        logs[slots[a:b] - lo] = args[a:b]
        np.log1p(logs, out=logs)
        _add_limbs(limbs, logs, scratch)
    total = _round_limbs(limbs)
    slop = FLOAT_SLOP_PER_FACTOR * ps.size
    tail = 2.0 * r / (cutoff - 1.0)
    upper = min(1.0, math.exp(total + slop))
    lower = math.exp(total - tail - 2.0 * slop)
    return EulerEstimate(lower, upper, cutoff, tail + 3.0 * slop, False)


# Values per chunk of the limb pass.  Two float64 buffers of 2^15 (256 KiB
# each) stay in a core's 2 MiB L2 cache.  density_constant([0, 2], 10**7),
# median of 25 alternating calls on a 2-vCPU Xeon: 2^13 5.2 ms, 2^14 4.5 ms,
# 2^15 4.2 ms, 2^16 4.3 ms, 2^17 5.0 ms; the whole table at once took 11.4 ms.
_CHUNK = 1 << 15


def _add_limbs(limbs: list, values: np.ndarray, scratch: np.ndarray) -> None:
    """Add the three limb sums of ``values`` (at most _CHUNK of them) to the
    Python ints ``limbs``, overwriting ``values``; ``scratch`` holds at least
    as many floats.  Raises ContractViolation, with ``limbs`` incomplete,
    when a value has bits below 2^-114 or is not below 2^6 in magnitude
    (NaN included): ``density_constant`` proves that none of its logs does.

    Each value v is cut on the 2^-114 grid into limbs a, b, c with
    v = a*2^-34 + b*2^-74 + c*2^-114, every |limb| < 2^40 when |v| < 2^6.
    At most _CHUNK = 2^15 such limbs sum below 2^55, so every int64 chunk
    sum is exact.  When every |v| < 2^-34 the first limb is 0 and is
    skipped.
    """
    top = max(-values.min(), values.max()) if values.size else 0.0
    if not top < 2.0**6:
        raise ContractViolation(f"a value of magnitude {top} is not below 2^6")
    first = 1 if top < 2.0**-34 else 0
    np.multiply(values, 2.0 ** (34 + 40 * first), out=values)
    trunc = scratch[:values.size]
    for i in range(first, 3):
        np.trunc(values, out=trunc)
        limbs[i] += int(trunc.sum(dtype=np.int64))
        np.subtract(values, trunc, out=values)  # both steps exact in float64
        np.multiply(values, 2.0**40, out=values)
    if values.any():
        raise ContractViolation("a value has bits below 2^-114")


def _round_limbs(limbs: list) -> float:
    """One rounding of the exact total a*2^-34 + b*2^-74 + c*2^-114."""
    return ((limbs[0] << 80) + (limbs[1] << 40) + limbs[2]) / (1 << 114)


@dataclass(frozen=True)
class InverseDensityBound:
    """Numeric check that the inverse density stays below exp(9 sqrt(r))."""

    inverse_upper: float
    cap: float
    holds: bool
    estimate: EulerEstimate


def inverse_density_cap(r: int) -> float:
    """The uniform cap exp(9 sqrt(r)) on the inverse density of an r-pattern."""
    return math.exp(9.0 * math.sqrt(r))


def certify_inverse_bound(offsets, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> InverseDensityBound:
    l = as_offsets(offsets)
    est = density_constant(l, prime_cutoff)
    if est.degenerate_zero:
        raise DegenerateTupleError(
            "density is exactly zero; the inverse bound is not applicable"
        )
    inverse_upper = 1.0 / est.lower
    cap = inverse_density_cap(l.r)
    return InverseDensityBound(inverse_upper, cap, inverse_upper <= cap, est)
