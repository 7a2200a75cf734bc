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
from .errors import DegenerateTupleError

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

    Factors are accumulated in log space with exactly rounded summation.
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
    # u(p) can fall short of r (offset collisions) only when p^2 <= span, and
    # can reach the degenerate value p^2 only when p^2 <= r.
    explicit_bound = math.isqrt(max(l.span, r))
    split = int(np.searchsorted(ps, explicit_bound, side="right"))
    logs = np.empty(ps.size, dtype=np.float64)
    explicit = ps[:split]
    for i, (p, u) in enumerate(zip(explicit.tolist(), residue_class_counts(explicit, l))):
        if u == p * p:
            return EulerEstimate(0.0, 0.0, cutoff, 0.0, True)
        logs[i] = math.log1p(-u / (p * p))
    bulk = ps[split:].astype(np.float64)
    np.log1p(-r / (bulk * bulk), out=logs[split:])
    total = _exact_sum(logs)
    slop = FLOAT_SLOP_PER_FACTOR * len(logs)
    tail = 2.0 * r / (cutoff - 1.0)
    upper = min(1.0, math.exp(total + slop))
    lower = math.exp(total - tail - 2.0 * slop)
    return EulerEstimate(lower, upper, cutoff, tail + 3.0 * slop, False)


def _exact_sum(values: np.ndarray) -> float:
    """The sum of ``values`` correctly rounded, the same float as
    ``math.fsum``, from three int64 limbs per value.

    Each value v is cut on the 2^-114 grid into limbs a, b, c with
    v = a*2^-34 + b*2^-74 + c*2^-114, every |limb| < 2^40.  For a log of a
    local factor 1 - u/p^2 with u < p^2 and p <= PRIME_SIEVE_CAP = 2^27,
    |v| <= log(p^2) < 38 < 2^6, so |a| < 2^40.  Fewer than pi(2^27) < 2^23
    values then keep every limb sum below 2^63: the int64 sums are exact,
    and one rounding of the exact rational total remains.  A value with bits
    below 2^-114, possible only when |v| < 2^-62, falls back to ``math.fsum``.
    """
    limbs = []
    scaled = values * 2.0**34
    for _ in range(3):
        limb = np.trunc(scaled)
        limbs.append(int(limb.astype(np.int64).sum()))
        scaled = (scaled - limb) * 2.0**40  # both steps exact in float64
    if np.any(scaled):
        return math.fsum(values.tolist())
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
