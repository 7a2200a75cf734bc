import math
import random
import time
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree.buchstab import (
    SquareMultipleQuery,
    asymptotic_parameters,
    base_main_term,
    buchstab_decompose,
    count_square_hits,
    count_square_hits_split,
    count_square_multiples,
)
from sqfree import buchstab, sieve
from sqfree.arith import _icbrt, primes_up_to
from sqfree.sieve import count_tuples

from conftest import naive_is_squarefree, naive_primes


# -------------------------------------------------------- decomposition

def test_vacuous_cutoff_removes_everything_nonsquarefree():
    report = buchstab_decompose((10**4, 1000), [0], 2.0)
    assert report.base_count == 1000
    assert report.removed_total == 1000 - report.exact_count
    assert report.reconciliation == 0


def test_decomposition_examples_reconcile():
    report = buchstab_decompose((10**4, 1000), [0], 10.0)
    assert report.reconciliation == 0
    report = buchstab_decompose((10**4, 1000), [0, 2], 5.0)
    assert report.reconciliation == 0
    assert report.removed_total <= report.removed_cap
    # 363 rows, each over a window far longer than q^2
    report = buchstab_decompose((10**6, 5 * 10**6), [0], 2.0)
    assert report.ledger_rows == 363
    assert report.reconciliation == 0


def test_decomposition_randomized_reconciliation():
    rng = random.Random(314)
    for _ in range(40):
        x = rng.randrange(10, 10**6)
        h = rng.randrange(1, 10**3)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 300), r))
        cutoff = rng.uniform(2.0, 50.0)
        report = buchstab_decompose((x, h), offs, cutoff)
        assert report.reconciliation == 0
        assert 0 <= report.removed_total <= report.removed_cap
        total_rows = sum(row[2] for row in report.ledger)
        assert total_rows == report.removed_total
        assert report.ledger_rows == len(report.ledger)
        assert total_rows <= sum(report.per_coord_hits)


def _passes(n, offs, cutoff, coord, q):
    """Brute-force ledger membership: q is the least prime whose square
    divides the coordinate, earlier coordinates have no square of a prime
    below the cutoff, later ones are squarefree."""
    m = n + offs[coord - 1]
    if m % (q * q) != 0:
        return False
    for p in range(2, q):
        if all(p % d for d in range(2, p)) and m % (p * p) == 0:
            return False
    for j in range(coord - 1):
        mj = n + offs[j]
        for p in range(2, math.ceil(cutoff)):
            if p < cutoff and all(p % d for d in range(2, p)) and mj % (p * p) == 0:
                return False
    for j in range(coord, len(offs)):
        if not naive_is_squarefree(n + offs[j]):
            return False
    return True


def _oracle_ledger(x, h, offs, cutoff):
    """Every ledger row: each prime q in [ceil(cutoff), isqrt(end + offset)]
    per coordinate, in order, recounted by ``_passes``."""
    primes = naive_primes(math.isqrt(x + h + offs[-1]))
    return tuple(
        (coord, q, sum(1 for n in range(x + 1, x + h + 1) if _passes(n, offs, cutoff, coord, q)))
        for coord in range(1, len(offs) + 1)
        for q in primes
        if math.ceil(cutoff) <= q <= math.isqrt(x + h + offs[coord - 1])
    )


def test_ledger_rows_are_exact():
    x, h, offs, cutoff = 2000, 400, (0, 3), 7.0
    report = buchstab_decompose((x, h), offs, cutoff)
    assert report.ledger == _oracle_ledger(x, h, offs, cutoff)


@pytest.mark.parametrize("length", [1, 7, 120, 121, 122, 168, 169, 170])
def test_ledger_segment_edges_match_the_oracle(monkeypatch, length):
    # 11^2 and 13^2 sit one below, at and one above the segment length, and
    # no window is a whole number of segments.  The marks are shared, so a
    # segment holds LEDGER_MARKS // r elements.
    for (x, h), offs, cutoff in [((5000, 1000), (0, 2), 5.5), ((14_000, 611), (0, 1, 4), 3.0),
                                 ((9000, 400), (0, 1, 3, 4, 6), 4.0)]:
        monkeypatch.setattr(buchstab, "LEDGER_MARKS", length * len(offs))
        report = buchstab_decompose((x, h), offs, cutoff)
        assert report.ledger == _oracle_ledger(x, h, offs, cutoff), length
        assert report.reconciliation == 0


def test_two_placed_squares_on_one_element_go_to_the_smaller_prime(monkeypatch):
    # At length 5 both 3^2 and 5^2 are placed, and both divide 225, the last
    # element of the window (220, 225] and its only odd-square hit.
    monkeypatch.setattr(buchstab, "LEDGER_MARKS", 5)
    report = buchstab_decompose((220, 5), [0], 3.0)
    rows = {q: removed for _, q, removed in report.ledger}
    assert rows[3] == 1 and rows[5] == 0
    assert report.ledger == _oracle_ledger(220, 5, (0,), 3.0)


@pytest.mark.parametrize("window, offs, cutoff", [
    ((3000, 500), (0, 2, 6, 8), 5.0),   # r = 4, a prime cutoff
    ((3000, 500), (0, 2, 6, 8), 5.5),   # a non-integer cutoff
    ((0, 300), (0, 1), 3.0),            # x = 0
    ((0, 20), (0, 100), 6.0),           # isqrt(20) = 4 < 6: coordinate 1 has no rows
])
def test_ledger_edge_inputs_match_the_oracle(window, offs, cutoff):
    report = buchstab_decompose(window, offs, cutoff)
    assert report.ledger == _oracle_ledger(*window, offs, cutoff)
    assert report.reconciliation == 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ledger_matches_the_oracle_random(data):
    x = data.draw(st.integers(min_value=0, max_value=10**5))
    h = data.draw(st.integers(min_value=1, max_value=400))
    offs = tuple(sorted(data.draw(st.sets(st.integers(0, 60), min_size=1, max_size=4))))
    top = 2.0 * math.sqrt(x + h + offs[-1])
    cutoff = data.draw(st.floats(min_value=2.0, max_value=min(top, 40.0)))
    length = data.draw(st.sampled_from([1, 5, 9, 48, 49, 50, 1 << 18]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(buchstab, "LEDGER_MARKS", length * len(offs))
        report = buchstab_decompose((x, h), offs, cutoff)
    assert report.ledger == _oracle_ledger(x, h, offs, cutoff)


@pytest.mark.parametrize("window, offs, cutoff", [
    ((10**7, 10**5), [0, 2], 5.0),
    ((10**6, 10**5), [0, 1], 3.0),
    ((10**8, 10**5), [0, 6], 10.0),
    ((10**6, 4 * 10**5), [0, 2, 6, 8], 10.0),
    ((12345, 1000), [0, 1, 2], 2.5),
    ((10**9, 10**4), [0, 2, 6], 50.0),
])
def test_each_coordinate_rows_equal_a_mixed_level_count_difference(window, offs, cutoff):
    # S_i puts the first i coordinates at the cutoff and the rest at the full
    # level, so S_0 is the exact count and S_r the base count.  Coordinate
    # i + 1's rows remove exactly the n that S_i keeps and S_{i+1} adds.
    report = buchstab_decompose(window, offs, cutoff)
    r, full = len(offs), sieve.full_level(window, offs)
    s = [count_tuples(window, offs, z=[cutoff] * i + [full] * (r - i)) for i in range(r + 1)]
    assert (s[0], s[r]) == (report.exact_count, report.base_count)
    for i, (_, removed) in enumerate(report.tallies):
        assert int(removed.sum()) == s[i + 1] - s[i]


def test_ledger_rows_are_counted_without_building_them():
    report = buchstab_decompose((10**9, 10**4), [0, 2, 6], 5.0)
    assert report.ledger_rows == 3 * (len(naive_primes(math.isqrt(10**9 + 10**4))) - 2)
    assert "ledger" not in vars(report)  # the tuple is built on first access only
    assert len(report.ledger) == report.ledger_rows
    assert report.ledger is report.ledger


@pytest.mark.parametrize("cutoff", [2.0, 5.0, 31.0])
def test_r1_exact_count_by_the_mobius_sum_reconciles(monkeypatch, cutoff):
    # h = 3e5 is 335 times sqrt(x + h): the exact count takes the Mobius
    # sum, the base count (a partial level) the kernel, and the ledger its
    # own marks, so reconciliation == 0 ties the sum to the other two.
    window = (5 * 10**5, 3 * 10**5)
    assert window[1] >= sieve.MOBIUS_SUM_RATIO * math.isqrt(sum(window))
    paths = []
    between, kernel = sieve._squarefree_between, sieve._count_kernel
    monkeypatch.setattr(sieve, "_squarefree_between",
                        lambda *a: paths.append("mobius") or between(*a))
    monkeypatch.setattr(sieve, "_count_kernel", lambda *a: paths.append("kernel") or kernel(*a))
    report = buchstab_decompose(window, [0], cutoff)
    assert paths == ["kernel", "mobius"]
    assert report.exact_count == sum(naive_is_squarefree(n) for n in range(5 * 10**5 + 1, 8 * 10**5 + 1))
    assert report.reconciliation == 0


def test_ledger_adds_no_window_count(monkeypatch):
    # Only the base and exact counts run the sieve; the rows come from their
    # own marks, so reconciliation compares two independent paths.
    calls = []
    plans = []
    real_count, real_plan = buchstab.count_tuples, sieve._plan
    monkeypatch.setattr(buchstab, "count_tuples",
                        lambda *a, **k: calls.append(k) or real_count(*a, **k))
    monkeypatch.setattr(sieve, "_plan", lambda *a: plans.append(1) or real_plan(*a))
    report = buchstab_decompose((10**6, 3 * 10**5), [0, 2, 6], 5.5)
    assert report.reconciliation == 0
    assert len(calls) == len(plans) == 2
    assert calls == [{"z": 5.5}, {}]


def test_ledger_memory_is_bounded():
    for window, offs, cutoff, bound in [
        # 2^20 int32 marks shared by the coordinates are 4 MiB and their
        # squarefree flags 1.25 MiB; the traced peak was 7.0 MiB.
        ((10**6, 4 * 10**6), [0, 2, 6, 8], 10.0, 8),
        # 40 coordinates with primes to 1e7 but 2,120 rows: the tallies cover
        # the rows only.  The peak was 31 MiB, nearly all of it the main term
        # over the primes below the cutoff.
        ((10**14, 1000), list(range(0, 160, 4)), 9_999_000, 48),
        # 200 coordinates still share 2^20 marks; the peak was 6.1 MiB.
        ((1, 2**18), list(range(200)), 500, 16),
    ]:
        x, h = window
        primes_up_to(math.isqrt(x + h + offs[-1]))  # grow the shared prime table first
        tracemalloc.start()
        try:
            report = buchstab_decompose(window, offs, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.reconciliation == 0
        assert peak < bound * 2**20, (window, peak)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        buchstab_decompose((100, 10), [0], 1.5)
    with pytest.raises(ValueError):
        buchstab_decompose((100, 10), [0], 10**6)
    # NaN fails both comparisons, so it gets the finiteness message
    for cutoff, message in [(1.5, "cutoff must be at least 2"), (-math.inf, "at least 2"),
                            (math.nan, "cutoff must be finite, not nan"),
                            (math.inf, "cutoff must be finite, not inf")]:
        with pytest.raises(ValueError, match=message):
            base_main_term([0], cutoff)


def test_past_the_supported_range_is_a_value_error():
    # x + h is inside 2^62 and the largest offset takes it past; the range
    # check runs before any prime table is asked for
    with pytest.raises(ValueError, match="supported range 2"):
        count_square_hits((4611686018427387800, 100), [0, 1000], 2, 2, 10**6)
    with pytest.raises(ValueError, match="supported range 2"):
        buchstab_decompose((4611686018427387800, 100), [0, 1000], 5.0)


def test_work_cap(monkeypatch):
    # 168 rows against a cap of 10, refused before either count or the main
    # term runs.
    calls = []
    monkeypatch.setattr(buchstab, "LEDGER_ROW_CAP", 10)
    monkeypatch.setattr(buchstab, "count_tuples", lambda *a, **k: calls.append("count"))
    monkeypatch.setattr(buchstab, "base_main_term", lambda *a, **k: calls.append("main"))
    with pytest.raises(ValueError, match=r"exact ledger \(168 rows > cap 10\)"):
        buchstab_decompose((10**6, 10**3), [0], 2.0)
    assert calls == []


# ------------------------------------------------------------ main term

def test_base_main_term_trivial():
    est = base_main_term([0], 2.0)
    assert est.density_product == 1.0
    assert est.divisor_cap == 1


def test_base_main_term_single_prime():
    est = base_main_term([0], 3.0)
    assert est.density_product == pytest.approx(0.75)
    assert est.divisor_cap == 2
    assert est.crude_cap == pytest.approx(2.0**3)


def test_divisor_cap_is_the_product_over_every_prime_below_the_cutoff():
    rng = random.Random(5)
    for _ in range(300):
        r = rng.randrange(1, 7)
        offs = sorted(rng.sample(range(0, rng.choice([r, 50, 5000])), r))
        cutoff = rng.uniform(2.0, 300.0)
        cap = math.prod(1 + len({off % (p * p) for off in offs})
                        for p in naive_primes(math.ceil(cutoff) - 1))
        assert base_main_term(offs, cutoff).divisor_cap == cap


def test_base_main_term_degenerate_reports_zero():
    est = base_main_term([0, 1, 2, 3], 3.0)
    assert est.density_product == 0.0


def test_base_error_within_divisor_cap():
    rng = random.Random(21)
    for _ in range(50):
        x = rng.randrange(1, 10**6)
        h = rng.randrange(1, 10**4)
        r = rng.randrange(1, 4)
        offs = sorted(rng.sample(range(0, 100), r))
        cutoff = rng.choice([2.0, 3.0, 4.0, 5.5, 8.0, 12.0])
        report = buchstab_decompose((x, h), offs, cutoff)
        assert report.base_error <= report.divisor_cap


# ------------------------------------------------------- square hits

def test_square_hit_split_edges():
    w = (10**4, 10**3)
    top = 2.0 * math.sqrt(10**4 + 10**3)
    below, above = count_square_hits_split(w, [0], 1, 10.0, 10.0)
    assert below == 0
    below2, above2 = count_square_hits_split(w, [0], 1, 10.0, top)
    assert above2 == 0
    assert above == below2  # same total either way
    with pytest.raises(ValueError):
        count_square_hits_split(w, [0], 1, 50.0, 10.0)


@pytest.mark.parametrize("coord", [0, 3])
def test_square_hits_refuse_a_coordinate_outside_1_to_r(coord):
    with pytest.raises(ValueError, match="^coordinate index out of range$"):
        count_square_hits((10**4, 10**3), [0, 2], coord, 2, 50)


def test_square_hit_split_matches_direct_sum():
    w = (10**4, 10**3)
    below, above = count_square_hits_split(w, [0], 1, 10.0, 50.0)
    top = 2.0 * math.sqrt(10**4 + 10**3)
    assert below + above == count_square_hits(w, [0], 1, 10.0, top)


def test_square_hits_match_bruteforce(oracle_primes_2000):
    rng = random.Random(8)
    for _ in range(20):
        x = rng.randrange(0, 10**5)
        h = rng.randrange(1, 10**3)
        offs = sorted(rng.sample(range(0, 50), rng.randrange(1, 3)))
        coord = rng.randrange(1, len(offs) + 1)
        q_lo = rng.uniform(2, 20)
        q_hi = rng.uniform(q_lo, 400)
        direct = sum(
            1
            for q in oracle_primes_2000
            if q_lo <= q < q_hi
            for n in range(x + 1, x + h + 1)
            if (n + offs[coord - 1]) % (q * q) == 0
        )
        assert count_square_hits((x, h), offs, coord, q_lo, q_hi) == direct


def test_low_range_hits_respect_elementary_cap(oracle_primes_2000):
    # sum over primes q in [cutoff, split) of h/q^2 + 1 dominates the hits
    rng = random.Random(13)
    for _ in range(25):
        x = rng.randrange(0, 10**6)
        h = rng.randrange(1, 10**4)
        cutoff = rng.uniform(2, 20)
        split = rng.uniform(cutoff, 100)
        below = count_square_hits((x, h), [0], 1, cutoff, split)
        cap = sum(h / (q * q) + 1 for q in oracle_primes_2000 if cutoff <= q < split)
        assert below <= cap + 1e-9


# --------------------------------------------------- square multiples

def test_square_multiples_examples():
    assert count_square_multiples(SquareMultipleQuery(100, 20, 5, 10)) == 1  # d = 6
    # no d between d_lo and sqrt(x + h): no array is built from a d_lo past int64
    assert count_square_multiples(SquareMultipleQuery(100, 20, 9.3e18, 1e19)) == 0
    assert count_square_multiples(SquareMultipleQuery(0, 144, 1, 12)) == 12
    assert count_square_multiples(SquareMultipleQuery(10**6, 10**3, 100, 2000)) == (
        sum(
            1
            for d in range(100, 2001)
            if (10**6 + 10**3) // (d * d) > 10**6 // (d * d)
        )
    )


def test_square_multiples_validation():
    with pytest.raises(ValueError):
        SquareMultipleQuery(100, 20, 0.5, 10)
    with pytest.raises(ValueError):
        SquareMultipleQuery(100, 20, 11, 10)
    with pytest.raises(ValueError):
        SquareMultipleQuery(100, 0, 1, 10)
    for d_lo, d_hi, message in [(math.nan, 10, "d_lo must be finite, not nan"),
                                (math.inf, 10, "d_lo must be finite, not inf"),
                                (5, math.nan, "d_hi must be finite, not nan"),
                                (5, math.inf, "d_hi must be finite, not inf")]:
        with pytest.raises(ValueError, match=message):
            SquareMultipleQuery(100, 20, d_lo, d_hi)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_square_multiples_match_bruteforce(data):
    # d_lo <= sqrt(h) and d_hi past the cube root of x + h: each query
    # crosses the closed form, the vector test and the cofactor count.
    h = data.draw(st.integers(min_value=1, max_value=10**7))
    x = data.draw(st.integers(min_value=(math.isqrt(h) + 2) ** 3, max_value=10**15))
    lo = data.draw(st.integers(min_value=1, max_value=math.isqrt(h)))
    edge = _icbrt(x + h)
    hi = data.draw(st.integers(min_value=edge + 1, max_value=edge + 10**5))
    d = np.arange(lo, hi + 1, dtype=np.int64)
    direct = int(np.count_nonzero((x + h) // (d * d) > x // (d * d)))
    assert count_square_multiples(SquareMultipleQuery(x, h, lo, hi)) == direct


def test_square_multiples_far_below_the_cube_root_return_at_once():
    # d_hi is far below (1e18)^(1/3) = 1e6, so no cofactor count runs; one
    # with d_lo = 1000 would walk 1e12 cofactors.
    x, h = 10**18, 10**6
    for lo, hi in [(1, 5000), (999, 1001), (1001, 40_000)]:
        start = time.perf_counter()
        got = count_square_multiples(SquareMultipleQuery(x, h, lo, hi))
        assert time.perf_counter() - start < 1.0
        assert got == sum(1 for d in range(lo, hi + 1) if (x + h) // (d * d) > x // (d * d))


# ------------------------------------------------- asymptotic parameters

def test_asymptotic_parameters_desk_scale_fails_hypotheses():
    params = asymptotic_parameters(10**12, 1, "const:2")
    assert params.growth_value == 2.0
    assert params.cutoff == pytest.approx(2 * math.exp(10.0), rel=1e-12)
    assert not params.hypotheses_ok  # exp(10) far above (log x)^(2/3) / 2


def test_asymptotic_parameters_kinds():
    assert asymptotic_parameters(10**12, 1, "const:7").growth_value == 7.0
    loglog = asymptotic_parameters(10**12, 1, "loglog")
    assert loglog.growth_value == pytest.approx(math.log(math.log(10**12)), rel=1e-12)
    pow23 = asymptotic_parameters(10**12, 2, "pow23")
    assert pow23.growth_value == pytest.approx(
        math.exp(-10) * math.log(10**12) ** (2 / 3), rel=1e-12
    )
    with pytest.raises(ValueError):
        asymptotic_parameters(10**12, 1, "cubic")


def test_asymptotic_parameters_domain():
    with pytest.raises(ValueError, match=r"^x must be at least e\^e$"):
        asymptotic_parameters(15, 1)
    with pytest.raises(ValueError, match="^tuple size must be at least 1$"):
        asymptotic_parameters(10**12, 0)
    assert asymptotic_parameters(16, 1).cutoff > 0


def test_asymptotic_parameters_refuse_a_non_integer_r():
    # r = 2.5 gave a report
    with pytest.raises(ValueError, match="^r must be an integer at least 1, not 2.5$"):
        asymptotic_parameters(1e12, 2.5)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_asymptotic_parameters_refuse_a_non_finite_x(x):
    with pytest.raises(ValueError, match=f"^x must be finite, not {x}$"):
        asymptotic_parameters(x, 1)


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_asymptotic_parameters_refuse_a_non_finite_growth_constant(c):
    with pytest.raises(ValueError, match=f"^growth constant must be finite, not {c}$"):
        asymptotic_parameters(10**12, 1, f"const:{c}")


@pytest.mark.parametrize("q_lo, q_hi, name", [(math.nan, 100, "q_lo"), (2, math.nan, "q_hi")])
def test_square_hits_refuse_a_nan_bound(q_lo, q_hi, name):
    with pytest.raises(ValueError, match=f"^{name} must not be nan$"):
        count_square_hits((1000, 100), [0], 1, q_lo, q_hi)


def test_square_hits_take_an_infinite_bound_as_none():
    w = (1000, 100)
    every = count_square_hits(w, [0], 1, 2, 2 * math.sqrt(1100))
    assert every > 0
    assert count_square_hits(w, [0], 1, -math.inf, math.inf) == every
    assert count_square_hits(w, [0], 1, 2, math.inf) == every
    assert count_square_hits(w, [0], 1, math.inf, math.inf) == 0


def test_asymptotic_parameters_always_reports():
    params = asymptotic_parameters(10**300, 1, "const:2")
    # even at astronomical x the flags are returned rather than raised
    assert isinstance(params.hypotheses_ok, bool)
    assert params.min_window > 0
