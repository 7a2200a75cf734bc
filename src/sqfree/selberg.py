"""Optimal square-detecting sieve weights and certified upper bounds.

A weight system at level z assigns a real weight to every squarefree d <= z
with weight(1) = 1, chosen to minimize the quadratic form

    V = sum over d1, d2 of weight(d1) weight(d2) u(lcm) / lcm^2

whose value governs the main term of the resulting upper bound on window
counts.  The minimizer has a closed form built from the normalizing sums
below, and the minimal V equals the reciprocal of the normalizing sum at the
level itself.  Levels up to EXACT_LEVEL_CAP run in exact rational
arithmetic; larger levels fall back to floats with exactly rounded sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import (as_offsets, mobius_up_to, primes_up_to, residue_class_counts,
                    squarefree_prime_factors)
from .density import DEFAULT_PRIME_CUTOFF, EulerEstimate, density_constant
from .errors import DegenerateTupleError
from .sieve import Window, _window_args, count_congruent, count_tuples, window_products

Number = Union[Fraction, float]

LEVEL_CAP = 10_000.0
EXACT_LEVEL_CAP = 100.0
# The shortest window given an excess exponent: the exponent is positive
# only for h > e^e = 15.15, where log log h passes 1.
EXCESS_MIN_LENGTH = 16


class _LocalData:
    """Per-(offsets, level) tables for a level zi >= 1 over the squarefree
    k <= zi (None elsewhere): the products g and inv_prod of the local
    factors u(p) / (p^2 - u(p)) and p^2 / (p^2 - u(p)), u(k), and mu(k).
    Each prime multiplies its factors into its squarefree multiples, largest
    prime first, so a float entry is its primes' factors multiplied from the
    largest prime down: the emitted float weights rest on that order."""

    def __init__(self, offsets, zi: int, exact: bool):
        self.offsets = as_offsets(offsets)
        self.zi = zi
        self.exact = exact
        self.one = one = Fraction(1) if exact else 1.0
        primes, r = primes_up_to(zi).tolist(), self.offsets.r
        counts = residue_class_counts(self.offsets)
        for q in primes:  # ascending: the least covered prime is named
            if counts.get(q, r) == q * q:
                raise DegenerateTupleError(
                    f"offsets cover all residues modulo {q}^2; system not constructible"
                )
        self.mobius = mobius = mobius_up_to(zi).tolist()
        self.g = g = [one if mu else None for mu in mobius]
        self.inv_prod = inv_prod = g[:]
        self.u_val = u_val = [1 if mu else None for mu in mobius]
        for q in reversed(primes):
            u = counts.get(q, r)
            # one * u and one * q * q are exact floats (q^2 < 2^53): each float
            # quotient is correctly rounded, as int / int is
            local = one * u / (q * q - u)
            inv_local = one * q * q / (q * q - u)
            for k in range(q, zi + 1, q):
                if mobius[k]:
                    g[k] *= local
                    inv_prod[k] *= inv_local
                    u_val[k] *= u

    def squarefree_values(self) -> list[int]:
        return [k for k in range(1, self.zi + 1) if self.g[k] is not None]

    def normalizing_sum(self, yi: int, m: int) -> Number:
        terms = [self.g[k] for k in range(1, min(yi, self.zi) + 1)
                 if self.g[k] is not None and math.gcd(k, m) == 1]
        return sum(terms) if self.exact else math.fsum(terms)


def normalizing_sum(y: float, coprime_to: int, offsets) -> Fraction:
    """Sum of the local density ratios u(k)/(k^2 - ...) products over
    squarefree k <= y coprime to the given modulus; equals 1 at y = 1."""
    l = as_offsets(offsets)
    if not 1 <= y < math.inf:  # NaN fails too
        raise ValueError("y must be at least 1" if y < 1 else f"y must be finite, not {y}")
    if y > LEVEL_CAP:  # the tables grow linearly in the level
        raise ValueError(f"sieve level above the weight-table cap {LEVEL_CAP:g}")
    yi = math.floor(y)
    data = _LocalData(l, yi, exact=True)
    return data.normalizing_sum(yi, int(coprime_to))


@dataclass(frozen=True)
class SelbergSystem:
    """Closed-form optimal weight system at a given sieve level."""

    level: float
    offsets: object
    weights: dict                  # squarefree d <= level -> weight; weight[1] = 1
    normalizer: Number             # normalizing sum at the level itself
    form_minimum: Number           # minimal quadratic-form value = 1/normalizer
    weight_mass: float             # sum over d of |weight(d)| * u(d)
    inv_density_upper: float       # certified upper bound on 1/density
    tail_defect: float             # inv_density_upper - normalizer (>= 0 up to bracket width)
    density: EulerEstimate
    exact: bool

    @property
    def r(self) -> int:
        return self.offsets.r


def optimal_weights(level: float, offsets, *,
                    prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> SelbergSystem:
    """Construct the variance-minimizing weight system at the given level."""
    l = as_offsets(offsets)
    level = float(level)
    if not level > 2.0:
        raise ValueError("sieve level must exceed 2")
    if level > LEVEL_CAP:
        raise ValueError(f"sieve level above the weight-table cap {LEVEL_CAP:g}")
    exact = level <= EXACT_LEVEL_CAP
    est = density_constant(l, prime_cutoff)
    if est.degenerate_zero:
        raise DegenerateTupleError(
            "offsets cover all residues modulo some prime square; system not constructible"
        )
    zi = math.floor(level)
    data = _LocalData(l, zi, exact)
    norm = data.normalizing_sum(zi, 1)
    weights = {}
    for d in data.squarefree_values():
        # floor(level / d) = floor(floor(level) / d) for integer d >= 1
        part = data.normalizing_sum(zi // d, d)
        weights[d] = data.mobius[d] * data.inv_prod[d] * part / norm
    form_min = data.one / norm
    mass = math.fsum(abs(float(w)) * data.u_val[d] for d, w in weights.items())
    inv_upper = 1.0 / est.lower
    return SelbergSystem(
        level=level,
        offsets=l,
        weights=weights,
        normalizer=norm,
        form_minimum=form_min,
        weight_mass=mass,
        inv_density_upper=inv_upper,
        tail_defect=inv_upper - float(norm),
        density=est,
        exact=exact,
    )


def excess_exponent(h: float) -> float:
    """The exponent drift 2 log log log h / log log h used in upper-bound
    excess reporting."""
    if not -math.inf < h < math.inf:  # NaN fails too
        raise ValueError(f"h must be finite, not {h}")
    # log log h > 0 needs h > e, and log h rounds to 1 just above e
    if h <= math.e or math.log(h) <= 1.0:
        raise ValueError("h is too small for the excess exponent")
    llh = math.log(math.log(h))
    return 2.0 * math.log(llh) / llh


def sieve_level(h: float, r: int) -> float:
    """Canonical level h^(1/3) * (log(h)/r)^(-r/3) for a window of length h."""
    if not 1 < h < math.inf:  # NaN fails too
        raise ValueError(f"h must exceed 1 for the canonical sieve level, not {h}" if h <= 1
                         else f"h must be finite, not {h}")
    if not (isinstance(r, numbers.Integral) and r >= 1):
        raise ValueError(f"r must be an integer at least 1, not {r!r}")
    return h ** (1.0 / 3.0) * (math.log(h) / r) ** (-r / 3.0)


@dataclass(frozen=True)
class UpperBoundParameters:
    """Canonical level and excess exponent, with side-condition report."""

    level: float
    excess_exponent: float
    nu: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def upper_bound_parameters(h: float, r: int, x: Optional[float] = None) -> UpperBoundParameters:
    """Evaluate the canonical sieve level and excess exponent for (h, r).

    Requires h >= 10^3 and 1 <= r <= log h / log log h; the side conditions
    level < 2 sqrt(x) and nu = 1 + r/log(level) <= 2 are reported, not
    enforced.  When x is omitted it defaults to h, the smallest window
    position the regime allows.
    """
    if h < 1000:
        raise ValueError("window length must be at least 10^3")
    if r < 1:
        raise ValueError("tuple size must be at least 1")
    r_max = math.log(h) / math.log(math.log(h))
    if r > r_max:
        raise ValueError(
            f"tuple size {r} exceeds log h / log log h = {r_max:.6g}"
        )
    # With L = log h the level is exp(L/3 - (r/3) log(L/r)), and
    # r log(L/r) <= L/e, so it is at least exp(L (1 - 1/e)/3) >= 4.28: the
    # side condition level > 2 always holds, and log(level) > 0.
    level = sieve_level(h, r)
    rho = excess_exponent(h)
    nu = 1.0 + r / math.log(level)
    x_ref = float(x) if x is not None else float(h)
    violations = []
    if not level < 2.0 * math.sqrt(x_ref):
        violations.append("level >= 2*sqrt(x)")
    if not nu <= 2.0:
        violations.append("nu > 2")
    return UpperBoundParameters(level, rho, nu, tuple(violations))


@dataclass(frozen=True)
class UpperBoundCertificate:
    """Quadratic-form upper bound for a window, with its exact count."""

    window: Window
    offsets: object
    level: float
    form_value: Number             # sum of weight(d1) weight(d2) N(lcm), N exact
    form_exact: Fraction           # the same sum in exact arithmetic
    exact_count: int
    reference_rhs: float           # density * h * (1 + h^(-1/3 + excess exponent))

    @property
    def certified(self) -> bool:
        return self.exact_count <= self.form_exact


def _form_support(window: Window, offsets, top: int) -> set[int]:
    """Every squarefree m <= top^2 dividing D(n) for some n in the window,
    D(n) taken over the primes up to top.  The set is closed under
    divisors, and N(m) = 0 off it."""
    bound = top * top
    support = set()
    for product in window_products(window, offsets, primes_up_to(top)):
        divisors = [1]
        for p in squarefree_prime_factors(product):
            divisors += [q * p for q in divisors if q * p <= bound]
        support.update(divisors)
    return support


def quadratic_form_bound(window, offsets, system: SelbergSystem, *,
                         threads: int = 1) -> UpperBoundCertificate:
    """Evaluate the weight quadratic form with exact congruent counts.

    The form equals the sum over n in the window of the squared total
    weight of the d dividing D(n) (see ``_form_support``); with weight(1) = 1
    that is 1 wherever every shifted value is squarefree and >= 0 elsewhere,
    so the form is an upper bound on the exact tuple count.  Only moduli
    dividing some D(n) are counted: every other term is zero.  Float
    weights are dyadic rationals, so scaled to integers they give the form
    exactly, and ``certified`` is an exact comparison.
    """
    w, l = _window_args(window, offsets)
    if l.offsets != system.offsets.offsets:
        raise ValueError("system was built for different offsets")
    weights = system.weights
    if weights.get(1) != 1:
        raise ValueError("the form bounds the count only when weight(1) = 1")
    ds = sorted(weights)
    support = _form_support(w, l, ds[-1])
    kept = [d for d in ds if d in support]
    ratios = [weights[d].as_integer_ratio() for d in kept]
    scale = math.lcm(*(den for _, den in ratios))
    scaled = [num * (scale // den) for num, den in ratios]
    counts: dict[int, int] = {}
    form = 0.0
    total = 0
    for i, d1 in enumerate(kept):
        w1, s1 = weights[d1], scaled[i]
        for j in range(i, len(kept)):
            d2 = kept[j]
            m = d1 * d2 // math.gcd(d1, d2)
            if m not in support:
                continue
            n_m = counts.get(m)
            if n_m is None:
                n_m = count_congruent(m, w, l)
                counts[m] = n_m
            term = s1 * scaled[j] * n_m
            total += term if i == j else 2 * term
            if not system.exact:
                contrib = w1 * weights[d2] * n_m
                form += contrib if i == j else 2 * contrib
    exact_form = Fraction(total, scale * scale)
    exact = count_tuples(w, l, threads=threads)
    if system.density is not None and w.h >= EXCESS_MIN_LENGTH:
        rho = excess_exponent(w.h)
        rhs = system.density.midpoint * w.h * (1.0 + w.h ** (-1.0 / 3.0 + rho))
    else:
        rhs = math.nan
    return UpperBoundCertificate(w, l, system.level, exact_form if system.exact else form,
                                 exact_form, exact, rhs)


def _check_moment_args(r: int, level: float) -> None:
    if not isinstance(r, numbers.Integral):  # 2.5 and NaN too
        raise ValueError(f"r must be an integer at least 1, not {r!r}")
    if r < 1:
        raise ValueError("r must be at least 1")
    if not 1 <= level < math.inf:  # NaN fails too
        raise ValueError("level must be at least 1" if level < 1
                         else f"level must be finite, not {level}")


def squarefree_moment(r: int, level: float) -> int:
    """Exact sum of r^(number of prime factors) over squarefree d <= level."""
    _check_moment_args(r, level)
    if level > LEVEL_CAP:  # the table grows linearly in the level
        raise ValueError(f"sieve level above the weight-table cap {LEVEL_CAP:g}")
    zi = math.floor(level)
    vals = [abs(mu) for mu in mobius_up_to(zi).tolist()]
    for q in primes_up_to(zi).tolist():
        vals[q::q] = [v * r for v in vals[q::q]]
    return sum(vals)


def moment_cap(r: int, level: float) -> float:
    """The closed-form cap level * (2 e log(level) / r)^r on the moment sum;
    a closed form, so no weight-table cap applies."""
    _check_moment_args(r, level)
    return level * (2.0 * math.e * math.log(level) / r) ** r


@dataclass(frozen=True)
class MomentBounds:
    """Moment sum and weight mass against their closed-form caps."""

    moment: int
    moment_cap: float
    weight_mass: float
    weight_mass_cap: float
    nu: float
    applicable: bool               # caps proven only for nu <= 2


def weight_moment_bounds(system: SelbergSystem) -> MomentBounds:
    r, level = system.r, system.level
    moment = squarefree_moment(r, level)
    cap = moment_cap(r, level)
    nu = 1.0 + r / math.log(level)
    return MomentBounds(
        moment=moment,
        moment_cap=cap,
        weight_mass=system.weight_mass,
        weight_mass_cap=system.inv_density_upper * moment,
        nu=nu,
        applicable=nu <= 2.0,
    )
