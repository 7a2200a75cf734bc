import collections
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree import selberg, sieve
from sqfree.arith import (as_offsets, primes_up_to, residue_class_count,
                          residue_class_count_squarefree)
from sqfree.errors import DegenerateTupleError
from sqfree.selberg import (
    LEVEL_CAP,
    SelbergSystem,
    UpperBoundCertificate,
    excess_exponent,
    moment_cap,
    normalizing_sum,
    optimal_weights,
    quadratic_form_bound,
    sieve_level,
    squarefree_moment,
    upper_bound_parameters,
    weight_moment_bounds,
)
from sqfree.sieve import Window, count_congruent, count_tuples, window_products


# ------------------------------------------------------ normalizing sums

def test_normalizing_sum_examples():
    assert normalizing_sum(1, 1, [0]) == 1
    assert normalizing_sum(1, 30, [0, 4]) == 1
    assert normalizing_sum(2, 1, [0]) == Fraction(4, 3)
    assert normalizing_sum(3, 2, [0]) == Fraction(9, 8)


def test_normalizing_sum_excludes_shared_factors():
    # modulus 6 removes k in {2, 3, 6}
    full = normalizing_sum(6, 1, [0])
    coprime = normalizing_sum(6, 6, [0])
    assert coprime < full
    assert coprime == 1 + Fraction(1, 24)  # only k = 1 and k = 5


@pytest.mark.parametrize("y, offs, prime", [
    (5, [0, 1, 2, 3], 2),
    # every class modulo 4 and 9: the error names the least prime
    (50, list(range(9)), 2),
    # every class modulo 9, one modulo 4
    (50, list(range(0, 33, 4)), 3),
])
def test_normalizing_sum_rejects_degenerate(y, offs, prime):
    message = f"offsets cover all residues modulo {prime}^2; system not constructible"
    with pytest.raises(DegenerateTupleError, match=f"^{re.escape(message)}$"):
        normalizing_sum(y, 1, offs)


# ------------------------------------------------------- weight tables

def _trial_factor(k):
    """The prime factors of k in increasing order, and whether k is squarefree."""
    primes, m, p = [], k, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            m //= p
            if m % p == 0:
                return primes, False
        p += 1
    if m > 1:
        primes.append(m)
    return primes, True


@pytest.mark.parametrize("offs", [[0], [0, 2], [0, 6, 12], [0, 2, 6, 8], [0, 49 * 121 * 10**9]])
@pytest.mark.parametrize("level", [1, 2, 60, 100, 300, 1000, int(LEVEL_CAP)])
def test_weight_tables_match_a_trial_division_product(offs, level):
    l = as_offsets(offs)
    for exact in [True, False] if level <= 100 else [False]:
        data = selberg._LocalData(l, level, exact)
        one = Fraction(1) if exact else 1.0
        for k in range(level + 1):
            primes, squarefree = _trial_factor(k) if k else ([], False)
            if not squarefree:
                assert data.g[k] is data.inv_prod[k] is data.u_val[k] is None, k
                assert data.mobius[k] == 0, k
                continue
            us = {p: residue_class_count(p, l) for p in primes}
            # the local factors multiplied from the largest prime down
            g, inv = one, one
            for p in reversed(primes):
                g = g * (one * us[p] / (p * p - us[p]))
                inv = inv * (one * p * p / (p * p - us[p]))
            if exact:
                assert (data.g[k], data.inv_prod[k]) == (g, inv), k
            else:
                assert (data.g[k].hex(), data.inv_prod[k].hex()) == (g.hex(), inv.hex()), k
            assert data.u_val[k] == math.prod(us.values()), k
            assert data.mobius[k] == (-1) ** len(primes), k


def test_weight_tables_read_the_shared_prime_and_mobius_tables(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(n):
            calls.append((name, n))
            return fn(n)
        monkeypatch.setattr(selberg, name, wrapped)

    spy("primes_up_to", selberg.primes_up_to)
    spy("mobius_up_to", selberg.mobius_up_to)
    normalizing_sum(50, 1, [0, 2])
    assert calls == [("primes_up_to", 50), ("mobius_up_to", 50)]
    calls.clear()
    squarefree_moment(3, 40.5)
    assert sorted(calls) == [("mobius_up_to", 40), ("primes_up_to", 40)]


# ------------------------------------------------------- weight systems

def test_weights_at_small_level():
    system = optimal_weights(2.5, [0])
    assert system.weights == {1: Fraction(1), 2: Fraction(-1)}
    assert system.form_minimum == Fraction(3, 4)
    assert system.normalizer == Fraction(4, 3)


def test_unit_weight_everywhere():
    for level, offs in [(2.5, [0]), (10, [0, 1]), (35.5, [0, 2, 6]), (99, [0, 4])]:
        system = optimal_weights(level, offs)
        assert system.weights[1] == 1


def test_level_validation():
    with pytest.raises(ValueError):
        optimal_weights(2.0, [0])
    with pytest.raises(ValueError):
        optimal_weights(10**5, [0])
    with pytest.raises(DegenerateTupleError):
        optimal_weights(10, [0, 1, 2, 3])


def test_weight_magnitude_bounded_by_inverse_density():
    for level, offs in [(2.5, [0]), (30, [0, 1]), (50, [0, 2, 6]), (97.5, [0, 12])]:
        system = optimal_weights(level, offs)
        for w in system.weights.values():
            assert abs(float(w)) <= system.inv_density_upper + 1e-12


def test_minimum_times_normalizer_is_one_exactly():
    for level, offs in [(2.5, [0]), (20, [0, 1]), (50, [0, 2, 6])]:
        system = optimal_weights(level, offs)
        assert system.form_minimum * system.normalizer == 1


def test_form_value_of_weights_equals_minimum_exactly():
    # independent evaluation of the quadratic form at the closed-form weights
    for level, offs in [(2.5, [0]), (12, [0, 1]), (30, [0, 4]), (25, [0, 2, 6])]:
        system = optimal_weights(level, offs)
        ds = sorted(system.weights)
        value = Fraction(0)
        for d1 in ds:
            for d2 in ds:
                m = d1 * d2 // math.gcd(d1, d2)
                value += (
                    system.weights[d1]
                    * system.weights[d2]
                    * Fraction(residue_class_count_squarefree(m, offs), m * m)
                )
        assert value == system.form_minimum


def test_weights_match_independent_stationarity_solve():
    # dense linear solve of the stationarity system, float arithmetic
    for level, offs in [(2.5, [0]), (10, [0]), (30, [0, 1]), (25, [0, 2, 6]), (30, [0, 4])]:
        system = optimal_weights(level, offs)
        ds = sorted(system.weights)
        n = len(ds)
        matrix = np.zeros((n, n))
        for i, d1 in enumerate(ds):
            for j, d2 in enumerate(ds):
                m = d1 * d2 // math.gcd(d1, d2)
                matrix[i, j] = residue_class_count_squarefree(m, offs) / m**2
        solved = np.concatenate([[1.0], np.linalg.solve(matrix[1:, 1:], -matrix[1:, 0])])
        closed = np.array([float(system.weights[d]) for d in ds])
        assert np.max(np.abs(solved - closed)) < 1e-9


def test_tail_defect_nonnegative_and_consistent():
    for level, offs in [(5, [0]), (50, [0, 1]), (80, [0, 2, 6])]:
        system = optimal_weights(level, offs)
        assert system.tail_defect >= -1e-12
        assert float(system.normalizer) + system.tail_defect == pytest.approx(
            system.inv_density_upper, rel=1e-15
        )
        # the normalizer never overshoots the certified inverse-density range
        assert float(system.normalizer) <= 1.0 / system.density.lower + 1e-12


def test_tail_defect_shrinks_with_level():
    defects = [optimal_weights(level, [0, 1]).tail_defect for level in (5, 20, 80)]
    assert defects[0] > defects[1] > defects[2] >= 0


def test_tail_defect_constant_recorded():
    # the tail is predicted to scale like level^-1 (2e log(level)/r)^r; the
    # constant is measured and printed, never asserted
    measured = []
    for level, offs in [(10, [0]), (30, [0]), (80, [0]), (30, [0, 1]), (80, [0, 1])]:
        system = optimal_weights(level, offs)
        r = len(offs)
        shape = (2.0 * math.e * math.log(level) / r) ** r / level
        assert system.tail_defect >= -1e-12
        measured.append(system.tail_defect / (system.inv_density_upper * shape))
    print(f"tail-defect constant across probes: max {max(measured):.4f} "
          f"(values {['%.4f' % c for c in measured]})")


def test_float_path_matches_exact_path():
    for level, offs in [(40, [0]), (60, [0, 1])]:
        exact = optimal_weights(level, offs, exact=True)
        fast = optimal_weights(level, offs, exact=False)
        for d, w in exact.weights.items():
            assert float(w) == pytest.approx(fast.weights[d], abs=1e-12)
        assert float(exact.normalizer) == pytest.approx(fast.normalizer, rel=1e-14)


# -------------------------------------------------- quadratic-form bound

def test_form_bound_small_example():
    system = optimal_weights(2.5, [0])
    cert = quadratic_form_bound((0, 100), [0], system)
    # weights 1, -1 give N_1 - N_2 = 100 - 25
    assert cert.form_value == 75
    assert cert.exact_count == 61
    assert cert.certified


def test_trivial_system_returns_window_length():
    from sqfree.arith import as_offsets

    # levels at or below 2 are rejected by the constructor, so the trivial
    # one-weight system is assembled by hand; its bound is the window length
    system = SelbergSystem(
        level=2.0, offsets=as_offsets([0]), weights={1: Fraction(1)},
        normalizer=Fraction(1), form_minimum=Fraction(1), weight_mass=1.0,
        inv_density_upper=1.0, tail_defect=0.0, density=None, exact=True,
    )
    cert = quadratic_form_bound((50, 40), [0], system)
    assert cert.form_value == 40


def test_form_bound_dominates_exact_count_randomized():
    rng = random.Random(77)
    for _ in range(12):
        x = rng.randrange(0, 10**6)
        h = rng.randrange(100, 10**4)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 50), r))
        level = rng.uniform(3.0, 50.0)
        system = optimal_weights(level, offs)
        cert = quadratic_form_bound((x, h), offs, system)
        assert cert.exact_count <= cert.form_value  # exact rational comparison


def test_form_bound_requires_matching_offsets():
    system = optimal_weights(5, [0])
    with pytest.raises(ValueError):
        quadratic_form_bound((0, 10), [0, 1], system)


def test_float_path_certificate_still_dominates():
    # levels above the exact-arithmetic cap switch to floats
    system = optimal_weights(150.0, [0, 1])
    assert not system.exact
    cert = quadratic_form_bound((10**5, 5000), [0, 1], system)
    assert isinstance(cert.form_exact, Fraction)
    assert cert.exact_count <= cert.form_exact  # exact rational comparison, no slack
    assert cert.certified


def test_certified_is_the_exact_comparison():
    # a form a billionth below the count is not a certificate, whatever its float
    cert = UpperBoundCertificate(
        window=Window(0, 10), offsets=as_offsets([0]), level=3.0, form_value=10.0,
        form_exact=Fraction(10) - Fraction(1, 10**9), exact_count=10, reference_rhs=math.nan,
    )
    assert not cert.certified
    assert cert.exact_count <= cert.form_value


def test_form_bound_requires_unit_weight_at_one():
    system = optimal_weights(10, [0])
    bad = SelbergSystem(**{**vars(system), "weights": {**system.weights, 1: Fraction(1, 2)}})
    with pytest.raises(ValueError, match="weight\\(1\\) = 1"):
        quadratic_form_bound((0, 100), [0], bad)
    float_system = optimal_weights(150.0, [0])
    assert float_system.weights[1] == 1.0  # the float path keeps it exactly


# --------------------------------------------- support-pruned form

def _unpruned_form(window, offsets, system):
    """The per-lcm form over every pair of weights, in the float or
    Fraction arithmetic of the system, and exactly in Fractions."""
    ds = sorted(system.weights)
    counts = {}
    form = Fraction(0) if system.exact else 0.0
    exact = Fraction(0)
    for i, d1 in enumerate(ds):
        w1 = system.weights[d1]
        for d2 in ds[i:]:
            m = d1 * d2 // math.gcd(d1, d2)
            if m not in counts:
                counts[m] = count_congruent(m, window, offsets)
            n_m = counts[m]
            contrib = w1 * system.weights[d2] * n_m
            form += contrib if d1 == d2 else 2 * contrib
            term = Fraction(w1) * Fraction(system.weights[d2]) * n_m
            exact += term if d1 == d2 else 2 * term
    return form, exact


def _assert_matches_unpruned(window, offsets, system):
    cert = quadratic_form_bound(window, offsets, system)
    form, exact = _unpruned_form(window, offsets, system)
    assert type(cert.form_value) is type(form)
    assert cert.form_value == form  # float: bit-identical; Fraction: equal
    assert cert.form_exact == exact
    assert cert.certified == (cert.exact_count <= exact)
    assert cert.certified
    return cert


def _random_pattern(rng, r):
    while True:
        offs = sorted(rng.sample(range(0, 60), r))
        if all(residue_class_count_squarefree(p, offs) < p * p for p in (2, 3)):
            return offs


def test_pruned_form_matches_the_unpruned_oracle():
    rng = random.Random(2024)
    for level, h in [(3.5, 100), (12.0, 10**5), (40.0, 3000), (99.0, 10**4), (100.0, 500),
                     (101.5, 2000), (150.0, 10**5), (217.3, 300), (300.0, 10**4)]:
        for r in (1, 2, 3, 4):
            if level > 200 and r > 2:
                continue  # the unpruned oracle is slow there; (217.3, r <= 2) and (300, r <= 2) stay
            offs = _random_pattern(rng, r)
            x = rng.choice([rng.randrange(0, 10**7), rng.randrange(0, 10**13)])
            system = optimal_weights(level, offs, prime_cutoff=10**4)
            _assert_matches_unpruned((x, h), offs, system)


@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=100, max_value=3000),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3, unique=True),
    st.floats(min_value=3.0, max_value=130.0),
)
@settings(max_examples=40, deadline=None)
def test_pruned_form_matches_the_unpruned_oracle_random(x, h, offs, level):
    offs = sorted(offs)
    try:
        system = optimal_weights(level, offs, prime_cutoff=10**4)
    except DegenerateTupleError:
        return
    _assert_matches_unpruned((x, h), offs, system)


def _lcms(system):
    ds = sorted(system.weights)
    return {d1 * d2 // math.gcd(d1, d2) for i, d1 in enumerate(ds) for d2 in ds[i:]}


@pytest.mark.parametrize("window, offs, level", [
    ((10**6, 5000), [0], 60.0),
    ((123456789, 2000), [0, 2, 6], 50.0),
    ((10**12, 800), [0, 1, 4, 9], 120.0),
])
def test_support_is_exactly_the_moduli_with_a_count(window, offs, level):
    system = optimal_weights(level, offs, prime_cutoff=10**4)
    support = selberg._form_support(Window(*window), as_offsets(offs), math.floor(level))
    for m in _lcms(system):
        assert (m in support) == (count_congruent(m, window, offs) > 0), m
    for m in support:  # closed under divisors
        assert all(m // p in support for p in range(2, m + 1) if m % p == 0)


def test_form_counts_only_support_moduli(monkeypatch):
    window, offs, level = (987654321, 20000), [0, 2, 8], 150.0
    system = optimal_weights(level, offs, prime_cutoff=10**4)
    support = selberg._form_support(Window(*window), as_offsets(offs), 150)
    asked = []

    def spy(m, *args):
        asked.append(m)
        return count_congruent(m, *args)

    monkeypatch.setattr(selberg, "count_congruent", spy)
    quadratic_form_bound(window, offs, system)
    assert asked and set(asked) <= support
    assert len(asked) == len(set(asked))  # memoised per modulus
    assert len(asked) < len(_lcms(system)) // 5


@pytest.mark.parametrize("segment", [1, 7, 48, 49, 50, 1000])
def test_support_segments_do_not_change_the_form(monkeypatch, segment):
    window, offs = (10**8 - 37, 3000), [0, 2, 6]
    system = optimal_weights(150.0, offs, prime_cutoff=10**4)
    whole = quadratic_form_bound(window, offs, system)
    monkeypatch.setattr(sieve, "SUPPORT_SEGMENT", segment)
    cut = quadratic_form_bound(window, offs, system)
    assert cut.form_value == whole.form_value
    assert cut.form_exact == whole.form_exact


def test_window_longer_than_one_support_segment():
    h = 2 * sieve.SUPPORT_SEGMENT + 12345
    system = optimal_weights(40.0, [0, 2], prime_cutoff=10**4)
    _assert_matches_unpruned((10**10, h), [0, 2], system)


@pytest.mark.parametrize("segment", [7, 1000])
def test_wide_products_are_exact(monkeypatch, segment):
    # n0 + offset_i is divisible by the square of the i-th prime set, so
    # D(n0) = a * b * c is about 7.9e24 and would wrap in int64
    a = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    b = 29 * 31 * 37 * 41 * 43
    c = 47 * 53 * 59 * 61 * 67
    n0 = a * a
    offs = [0, b * b * (n0 // (b * b) + 1) - n0, c * c * (n0 // (c * c) + 1) - n0]
    assert a * b * c > 2**63
    window = Window(n0 - 1, 1000)
    primes = [p for p in range(2, 71) if all(p % q for q in range(2, p))]
    expected = collections.Counter(
        math.prod(p for p in primes if any((n + off) % (p * p) == 0 for off in offs))
        for n in range(window.x + 1, window.end + 1))
    monkeypatch.setattr(sieve, "SUPPORT_SEGMENT", segment)
    products = window_products(window, as_offsets(offs), primes)
    assert products == expected
    assert max(products) == a * b * c
    system = optimal_weights(70.0, offs, prime_cutoff=10**4)
    _assert_matches_unpruned(window, offs, system)


def test_support_pass_memory_is_bounded():
    # The 2^16-element int64 buffer is 0.5 MiB and np.unique sorts a copy;
    # the traced peak was 1.2 MiB over 153 segments.
    window, offs = Window(10**9, 10**7), as_offsets([0, 2])
    selberg._form_support(Window(10**9, 10), offs, 100)  # grow the shared prime table first
    tracemalloc.start()
    try:
        support = selberg._form_support(window, offs, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 in support and 2 * 3 * 5 in support
    assert peak < 4 * 2**20


def _assert_products_give_counts(window, offs, top):
    # The N(m) identity: n counts for m exactly when m divides D(n), so the
    # multiplicities of the D that m divides add up to count_congruent(m).
    w, l = Window(*window), as_offsets(offs)
    products = window_products(w, l, primes_up_to(top).tolist())
    assert sum(products.values()) == w.h
    for m in selberg._form_support(w, l, top):
        assert sum(k for d, k in products.items() if d % m == 0) == count_congruent(m, w, l), m


def test_window_products_give_congruent_counts_grid():
    rng = random.Random(29)
    for r in (1, 2, 3, 4):
        for top, h in ((30, 1), (100, 777), (300, 10**5)):
            offs = sorted(rng.sample(range(0, 60), r))
            _assert_products_give_counts((rng.randrange(0, 10**12), h), offs, top)


@given(
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=1, max_value=10**5),
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=4, unique=True),
    st.integers(min_value=2, max_value=300),
)
@settings(max_examples=40, deadline=None)
def test_window_products_give_congruent_counts_random(x, h, offs, top):
    _assert_products_give_counts((x, h), sorted(offs), top)


@given(
    st.sampled_from([2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35]),
    st.sampled_from([2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35]),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_residue_count_submultiplicative_on_lcm(d1, d2, offs):
    # the remainder-versus-mass argument needs u(lcm) <= u(d1) u(d2)
    offs = sorted(offs)
    m = d1 * d2 // math.gcd(d1, d2)
    assert residue_class_count_squarefree(m, offs) <= (
        residue_class_count_squarefree(d1, offs) * residue_class_count_squarefree(d2, offs)
    )


# ----------------------------------------------------- canonical levels

def test_excess_exponent_value():
    assert excess_exponent(10**3) == pytest.approx(0.6818525741070294, rel=1e-12)


def test_sieve_level_value():
    assert sieve_level(10**6, 1) == pytest.approx(41.67519945116069, rel=1e-12)


@pytest.mark.parametrize("h, message", [
    (1, "h must exceed 1 for the canonical sieve level, not 1"),
    (0.5, "h must exceed 1 for the canonical sieve level, not 0.5"),
    (math.nan, "h must be finite, not nan"),
    (math.inf, "h must be finite, not inf"),
])
def test_sieve_level_needs_a_finite_length_above_1(h, message):
    # log(1) = 0 to a negative power, and log(0.5) < 0 to a fractional one
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sieve_level(h, 1)


@pytest.mark.parametrize("r", [0, -1, 1.5, 2.0, "2", None])
def test_sieve_level_needs_an_integer_r_of_at_least_1(r):
    # r = 0 divided by zero and r = -1 gave a complex level
    with pytest.raises(ValueError, match=f"^{re.escape(f'r must be an integer at least 1, not {r!r}')}$"):
        sieve_level(100, r)
    assert sieve_level(100, np.int64(2)) == sieve_level(100, 2)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_excess_exponent_needs_a_finite_length(h):
    with pytest.raises(ValueError, match=f"^{re.escape(f'h must be finite, not {h}')}$"):
        excess_exponent(h)


@pytest.mark.parametrize("h", [0.5, 1, 2, math.e, math.nextafter(math.e, math.inf)])
def test_excess_exponent_refuses_h_up_to_e_before_any_log(h):
    # 0.5 and 1 gave "math domain error"; just above e, log h still rounds to 1
    with pytest.raises(ValueError, match="^h is too small for the excess exponent$"):
        excess_exponent(h)


def test_excess_min_length_is_where_the_exponent_turns_positive():
    # between e and e^e the exponent is defined but negative
    assert excess_exponent(3) == pytest.approx(-50.27, abs=0.01)
    assert excess_exponent(selberg.EXCESS_MIN_LENGTH - 1) < 0 < excess_exponent(
        selberg.EXCESS_MIN_LENGTH)
    assert selberg.EXCESS_MIN_LENGTH == math.ceil(math.e ** math.e)


def test_upper_bound_parameters_reports():
    params = upper_bound_parameters(10**6, 1)
    assert params.level == pytest.approx(41.675199, rel=1e-6)
    assert params.ok
    assert params.nu < 2

    params = upper_bound_parameters(10**3, 1)
    assert params.excess_exponent == pytest.approx(0.6818526, rel=1e-6)


def test_upper_bound_parameters_gate():
    with pytest.raises(ValueError, match="log h / log log h"):
        upper_bound_parameters(10**3, 5)
    with pytest.raises(ValueError):
        upper_bound_parameters(500, 1)
    with pytest.raises(ValueError):
        upper_bound_parameters(10**4, 0)


def test_upper_bound_parameters_side_condition_reporting():
    # at the largest admissible tuple size the canonical level can break the
    # nu side condition; it must be reported, not raised
    params = upper_bound_parameters(10**3, 3)
    assert params.violations == ("nu > 2",)
    assert not params.ok
    # x below level^2 / 4 breaks the other side condition
    assert upper_bound_parameters(10**3, 1, x=1).violations == ("level >= 2*sqrt(x)",)


def test_upper_bound_level_is_far_above_2_under_the_preconditions():
    # level = exp(L/3 - (r/3) log(L/r)) with L = log h, and r log(L/r) <= L/e,
    # so level >= exp(L (1 - 1/e) / 3) >= 4.28 from h = 10^3 on: the side
    # condition level > 2 cannot fail and needs no report
    lowest = math.inf
    for h in [10**3, 2 * 10**3, 10**4, 10**6, 10**12, 10**30]:
        for r in range(1, math.floor(math.log(h) / math.log(math.log(h))) + 1):
            level = upper_bound_parameters(h, r).level
            assert level >= math.exp(math.log(h) * (1 - 1 / math.e) / 3)
            lowest = min(lowest, level)
    assert lowest == pytest.approx(4.34, abs=0.01)


# ------------------------------------------------------- moment bounds

@pytest.mark.parametrize("call, message", [
    (lambda v: normalizing_sum(v, 1, [0]), "y must be"),
    (lambda v: squarefree_moment(2, v), "level must be"),
])
def test_lower_bounds_name_non_finite_values(call, message):
    # NaN fails both comparisons, so it gets the finiteness message
    for value, tail in [(0.5, "at least 1"), (-math.inf, "at least 1"),
                        (math.nan, "finite, not nan"), (math.inf, "finite, not inf")]:
        with pytest.raises(ValueError, match=f"^{message} {tail}$"):
            call(value)


@pytest.mark.parametrize("call", [
    lambda v: normalizing_sum(v, 1, [0]),
    lambda v: squarefree_moment(2, v),
    lambda v: optimal_weights(v, [0]),
])
def test_weight_tables_stop_at_the_level_cap(call):
    # the tables grow linearly in the level (about 48 bytes a level for the
    # moment), so the refusal comes before any table is built
    call(LEVEL_CAP)
    for level in [math.nextafter(LEVEL_CAP, math.inf), 1e12]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^sieve level above the weight-table cap 10000$"):
            call(level)
        assert time.perf_counter() - start < 0.05


def test_squarefree_moment_needs_r_of_at_least_1():
    with pytest.raises(ValueError, match="^r must be at least 1$"):
        squarefree_moment(0, 10)


@pytest.mark.parametrize("r", [2.5, math.nan])
def test_squarefree_moment_needs_an_integer_r(r):
    # 2.5 gave 329.125 at level 100, and NaN gave NaN
    with pytest.raises(ValueError, match=f"^r must be an integer at least 1, not {r!r}$"):
        squarefree_moment(r, 100)


def test_squarefree_moment_values():
    assert squarefree_moment(1, 2.5) == 2
    assert squarefree_moment(1, 1.5) == 1
    # squarefree d <= 10: 1,2,3,5,6,7,10 with 0,1,1,1,2,1,2 prime factors
    assert squarefree_moment(2, 10) == 1 + 2 + 2 + 2 + 4 + 2 + 4
    # levels up to 2000 against trial division: sum of r^omega(d) over
    # squarefree d <= level
    omega = {d: len(f[0]) for d in range(1, 2001) if (f := _trial_factor(d))[1]}
    for r in range(1, 6):
        for level in [*range(1, 301), *range(301, 2000, 37), 1999.5, 2000]:
            expected = sum(r ** w for d, w in omega.items() if d <= level)
            assert squarefree_moment(r, level) == expected, (r, level)


def test_moment_cap_example():
    assert moment_cap(1, 2.5) == pytest.approx(12.453682230194776, rel=1e-12)
    assert squarefree_moment(1, 2.5) <= moment_cap(1, 2.5)


def test_moment_bounds_on_systems():
    for level, offs in [(30, [0]), (50, [0, 1]), (99, [0, 1]), (99, [0, 2, 6])]:
        system = optimal_weights(level, offs)
        bounds = weight_moment_bounds(system)
        assert bounds.moment <= bounds.moment_cap
        if bounds.applicable:
            assert bounds.weight_mass <= bounds.weight_mass_cap + 1e-9


def test_moment_bounds_flags_nu():
    system = optimal_weights(2.5, [0])
    bounds = weight_moment_bounds(system)
    assert not bounds.applicable  # log 2.5 < 1 makes nu exceed 2
    system = optimal_weights(30, [0])
    assert weight_moment_bounds(system).applicable
