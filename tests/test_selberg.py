import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree.arith import residue_class_count_squarefree
from sqfree.errors import DegenerateTupleError
from sqfree.selberg import (
    SelbergSystem,
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
from sqfree.sieve import count_tuples


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


def test_normalizing_sum_rejects_degenerate():
    with pytest.raises(DegenerateTupleError):
        normalizing_sum(5, 1, [0, 1, 2, 3])  # all residues mod 4 covered


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
    assert cert.exact_count <= float(cert.form_value) + 1e-6
    assert cert.certified


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
    assert "nu > 2" in params.violations
    assert not params.ok


# ------------------------------------------------------- moment bounds

def test_squarefree_moment_values():
    assert squarefree_moment(1, 2.5) == 2
    assert squarefree_moment(1, 1.5) == 1
    # squarefree d <= 10: 1,2,3,5,6,7,10 with 0,1,1,1,2,1,2 prime factors
    assert squarefree_moment(2, 10) == 1 + 2 + 2 + 2 + 4 + 2 + 4
    # every level up to 300 against trial division: sum of r^omega(d) over
    # squarefree d <= level
    omega = {}
    for d in range(1, 301):
        m, count, squarefree = d, 0, True
        for p in range(2, d + 1):
            if m % p == 0:
                count += 1
                m //= p
                squarefree = squarefree and m % p != 0
        if squarefree:
            omega[d] = count
    for r in range(1, 5):
        for level in range(1, 301):
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
