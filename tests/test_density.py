import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfree.arith import PRIME_SIEVE_CAP, as_offsets, is_prime, primes_up_to, residue_class_count
from sqfree.density import (
    _CHUNK,
    FLOAT_SLOP_PER_FACTOR,
    EulerEstimate,
    _add_limbs,
    _round_limbs,
    certify_inverse_bound,
    density_constant,
    inverse_density_cap,
)
from sqfree.errors import ContractViolation, DegenerateTupleError
from sqfree.sieve import count_tuples

# Independently derived reference values.  The single-offset density is
# 6/pi^2; the pair value was frozen from a partial product over primes up to
# 1e8 with a proven tail bound (enclosure [0.322634078, 0.322634104]) and
# agrees with the published digits of the corresponding prime product.
SINGLE_DENSITY = 6.0 / math.pi**2
PAIR_DENSITY = 0.3226340989392447


def zeta2_bracket(terms: int = 500_000) -> tuple[float, float]:
    """Independent series bracket for zeta(2): partial sum plus integral tail."""
    partial = math.fsum(1.0 / (n * n) for n in range(1, terms + 1))
    return partial + 1.0 / (terms + 1), partial + 1.0 / terms


def test_single_offset_encloses_inverse_zeta2():
    est = density_constant([0], 10**6)
    z_lo, z_hi = zeta2_bracket()
    assert est.lower <= 1.0 / z_hi and 1.0 / z_lo <= est.upper
    assert est.contains(SINGLE_DENSITY)


def test_pair_encloses_frozen_constant():
    est = density_constant([0, 1], 10**6)
    assert est.contains(PAIR_DENSITY)


def test_enclosure_width_small_at_default_cutoff():
    est = density_constant([0], 10**7)
    assert est.width < 1e-5
    assert est.contains(SINGLE_DENSITY)


def test_larger_local_count_means_smaller_density():
    # u(2) is 1 for offsets (0,4) but 2 for (0,1); all other factors agree
    wide = density_constant([0, 4], 10**5)
    tight = density_constant([0, 1], 10**5)
    assert wide.lower > tight.upper


def test_enclosure_invariants():
    for offs in ([0], [0, 1], [0, 2, 6], [0, 4, 10, 12]):
        est = density_constant(offs, 10**5)
        assert 0.0 <= est.lower <= est.upper <= 1.0
        assert est.upper / est.lower <= math.exp(est.tail_log_bound) * (1 + 1e-13)


def test_monotone_nesting_in_cutoff():
    previous = density_constant([0, 1], 10**3)
    for cutoff in (10**4, 10**5, 10**6):
        est = density_constant([0, 1], cutoff)
        assert est.lower >= previous.lower
        assert est.upper <= previous.upper
        previous = est


def test_shift_invariance_is_exact():
    base = density_constant([0, 1, 5], 10**5)
    shifted = density_constant([7, 8, 12], 10**5)
    assert (base.lower, base.upper) == (shifted.lower, shifted.upper)


def test_degenerate_pattern_is_exactly_zero():
    est = density_constant([0, 1, 2, 3], 10**5)
    assert est.degenerate_zero
    assert est.lower == est.upper == 0.0
    # cross-check: every window count vanishes since some coordinate always
    # lands on a multiple of 4
    for x in (0, 17, 10**4):
        assert count_tuples((x, 50), [0, 1, 2, 3]) == 0


def test_cutoff_precondition():
    with pytest.raises(ValueError):
        density_constant([0, 1, 2, 5], 7)  # below 2*r


def test_certify_inverse_bound_single():
    cert = certify_inverse_bound([0], 10**6)
    assert math.isclose(cert.inverse_upper, 1.6449, rel_tol=1e-3)
    assert math.isclose(cert.cap, math.exp(9.0), rel_tol=1e-12)
    assert cert.holds


def test_certify_inverse_bound_pair():
    cert = certify_inverse_bound([0, 1], 10**6)
    assert math.isclose(cert.inverse_upper, 3.0995, rel_tol=1e-3)
    assert math.isclose(cert.cap, math.exp(9.0 * math.sqrt(2.0)), rel_tol=1e-12)
    assert cert.holds


def test_certify_degenerate_not_applicable():
    with pytest.raises(DegenerateTupleError):
        certify_inverse_bound([0, 1, 2, 3], 10**5)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_single_pattern_bound_always_holds(shift):
    # any r=1 pattern has density 6/pi^2, far above exp(-9)
    cert = certify_inverse_bound([shift], 10**4)
    assert cert.holds


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4, unique=True)
)
@settings(max_examples=40, deadline=None)
def test_enclosure_sane_for_random_patterns(offs):
    offs = sorted(offs)
    est = density_constant(offs, 10**4)
    if est.degenerate_zero:
        assert est.lower == est.upper == 0.0
    else:
        assert 0.0 < est.lower <= est.upper <= 1.0


def test_split_product_and_tail_caps():
    # small-prime block: the squared primorial below sqrt(2r) stays under
    # 4^(2 sqrt(2r)); prime tail: 2r * sum_{n > sqrt(2r)} 1/n^2 <= 2 sqrt(2r);
    # checked for every r up to 10^4
    from bisect import bisect_right

    from sqfree.arith import primes_up_to

    primes = primes_up_to(200).tolist()
    log_prefix = [0.0]
    for p in primes:
        log_prefix.append(log_prefix[-1] + math.log(p))
    m_max = math.isqrt(2 * 10**4) + 1
    recip_prefix = [0.0]
    for n in range(1, m_max + 1):
        recip_prefix.append(recip_prefix[-1] + 1.0 / (n * n))
    zeta2 = math.pi**2 / 6.0
    for r in range(1, 10**4 + 1):
        w = math.sqrt(2 * r)
        log_block = 2.0 * log_prefix[bisect_right(primes, w)]
        assert log_block <= 2.0 * w * math.log(4.0) + 1e-12
        m = math.isqrt(2 * r)
        tail = zeta2 - recip_prefix[m]
        assert 2 * r * tail <= 2.0 * w + 1e-9


# ------------------------------------------------- the exact log sum

def _fsum_bracket(offsets, cutoff):
    """density_constant's bracket with its logs summed by math.fsum: the
    reference for the limb sum."""
    l = as_offsets(offsets)
    ps = primes_up_to(cutoff)
    split = int(np.searchsorted(ps, math.isqrt(max(l.span, l.r)), side="right"))
    logs = [math.log1p(-residue_class_count(p, l) / (p * p)) for p in ps[:split].tolist()]
    bulk = ps[split:].astype(np.float64)
    logs.extend(np.log1p(-l.r / (bulk * bulk)).tolist())
    total = math.fsum(logs)
    slop = FLOAT_SLOP_PER_FACTOR * len(logs)
    tail = 2.0 * l.r / (cutoff - 1.0)
    return (math.exp(total - tail - 2.0 * slop), min(1.0, math.exp(total + slop)),
            tail + 3.0 * slop)


# Every density and selberg pattern of the benchmark's certify workload.
_BENCH_PATTERNS = [
    "0", "1", "2", "3", "0,1", "0,2", "0,6", "0,12", "0,2,6", "0,4,6", "0,1,2", "0,6,12",
    "0,2,6,8", "0,4,6,10", "0,2,8,12", "0,6,12,18",
]


def test_limb_sum_gives_the_fsum_bracket_on_bench_patterns():
    expected = {p: _fsum_bracket([int(v) for v in p.split(",")], 10**7) for p in _BENCH_PATTERNS}
    for pattern, bracket in expected.items():
        est = density_constant([int(v) for v in pattern.split(",")], 10**7)
        assert (est.lower, est.upper, est.tail_log_bound) == bracket, pattern


@pytest.mark.parametrize("offs", [[0, 10**12], [0, 10**14, 2 * 10**14], [0, 6, 10**13]])
def test_wide_spans_give_the_per_prime_bracket(offs):
    # Every prime to the cutoff is explicit here; the reference counts each
    # u(p) on its own with residue_class_count.
    cutoff = 200_000
    est = density_constant(offs, cutoff)
    assert (est.lower, est.upper, est.tail_log_bound) == _fsum_bracket(offs, cutoff)


def test_degenerate_wide_span_is_detected():
    # offsets 0..8 shifted by multiples of 9e12 cover every class modulo 4 and 9
    offs = sorted(k + (k % 3) * 9 * 10**12 for k in range(9))
    assert density_constant(offs, 1000).degenerate_zero


def _limb_sum(values) -> float:
    """``values`` cut into limbs by ``_add_limbs``, _CHUNK at a time, and
    rounded once by ``_round_limbs``."""
    values = np.array(values, dtype=np.float64)  # a copy, which the limb cut overwrites
    limbs = [0, 0, 0]
    for lo in range(0, values.size, _CHUNK):
        piece = values[lo:lo + _CHUNK]
        _add_limbs(limbs, piece, np.empty(piece.size))
    return _round_limbs(limbs)


def test_limb_sum_is_exactly_rounded():
    # Sums whose pairwise or sequential float sum is wrong in the last bit.
    for values in ([1.0, 1e-16, -1.0], [0.1] * 10, [1.0, 2.0**-53, 2.0**-53],
                   [37.5, -37.5, 2.0**-60], [-1e-3] * 1000 + [1.0]):
        assert _limb_sum(values) == math.fsum(values)
    assert _limb_sum([]) == 0.0


@given(st.lists(st.one_of(
    st.floats(min_value=2.0**-60, max_value=38.0),
    st.floats(min_value=-38.0, max_value=-2.0**-60),
), max_size=300))
@settings(max_examples=300, deadline=None)
def test_limb_sum_matches_fsum_random(values):
    assert _limb_sum(values) == math.fsum(values)


# ------------------------------------------------- the chunked pass

_COMPACT = {1: [0], 2: [0, 2], 3: [0, 2, 6], 4: [0, 2, 6, 8]}
_WIDE = {2: [0, 10**12], 3: [0, 6, 10**13], 4: [0, 2, 10**14, 2 * 10**14]}


def _split(offsets, cutoff):
    l = as_offsets(offsets)
    return int(np.searchsorted(primes_up_to(cutoff), math.isqrt(max(l.span, l.r)), side="right"))


def _chunk_edge_cases():
    """(offsets, cutoff) per r: the bulk empty (every prime explicit, more
    than a chunk of them), shorter than one chunk, one chunk exactly and one
    chunk +- 1 prime, and two chunks and more, where the 2^-34 first-limb
    threshold falls inside the first."""
    table = primes_up_to(2 * 10**6)
    cases = []
    for r, offs in _COMPACT.items():
        if r in _WIDE:
            cases.append((_WIDE[r], 500_000))
        edge = int(table[_split(offs, 10**6) + _CHUNK - 1])  # the last prime of the first chunk
        cases += [(offs, 10**5), (offs, edge), (offs, int(table[_split(offs, 10**6) + _CHUNK - 2])),
                  (offs, int(table[_split(offs, 10**6) + _CHUNK])), (offs, 2 * 10**6)]
    return cases


def test_chunk_edge_cases_cover_what_they_name():
    cases = _chunk_edge_cases()
    bulk_sizes = {len(primes_up_to(c)) - _split(o, c) for o, c in cases}
    assert {0, _CHUNK - 1, _CHUNK, _CHUNK + 1} <= bulk_sizes
    assert any(0 < size < _CHUNK - 1 for size in bulk_sizes)
    assert any(_split(o, c) > _CHUNK for o, c in cases)
    # At the largest cutoff the bulk logs cross 2^-34 inside the first chunk.
    for r, offs in _COMPACT.items():
        ps = primes_up_to(2 * 10**6)[_split(offs, 2 * 10**6):].astype(np.float64)
        small = np.abs(np.log1p(-r / (ps * ps))) < 2.0**-34
        assert 0 < np.flatnonzero(small)[0] < _CHUNK < small.size and small[_CHUNK:].all()


@pytest.mark.parametrize("offs, cutoff", _chunk_edge_cases())
def test_chunked_pass_gives_the_fsum_bracket(offs, cutoff):
    est = density_constant(offs, cutoff)
    assert (est.lower, est.upper, est.tail_log_bound) == _fsum_bracket(offs, cutoff)


@given(st.lists(st.one_of(
    st.floats(min_value=2.0**-60, max_value=38.0),
    st.floats(min_value=-38.0, max_value=-2.0**-60),
    st.just(0.0),
), max_size=300), st.lists(st.integers(min_value=0, max_value=300), max_size=6))
@settings(max_examples=200, deadline=None)
def test_limb_sums_over_any_split_give_the_whole_sum(values, cuts):
    whole = np.array(values, dtype=np.float64)
    limbs = [0, 0, 0]
    bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        piece = whole[lo:hi].copy()
        _add_limbs(limbs, piece, np.empty(piece.size))
    assert _round_limbs(limbs) == math.fsum(values)


def test_limb_sum_spans_chunks():
    # Several chunks of values near the limb bound, summed in both orders
    values = np.full(3 * _CHUNK + 5, 37.99)
    values[::7] = -37.5
    assert _limb_sum(values) == math.fsum(values.tolist())
    assert _limb_sum(values[::-1]) == math.fsum(values[::-1].tolist())


@pytest.mark.parametrize("values", [[64.0], [1e-30], [math.inf], [math.nan],
                                    [1e20, 1.0], [2.0**30, 2.0**-60], [64.0, -1.5],
                                    [1.0, math.inf], [-math.inf, 2.0**-70], [1.0, math.nan]])
def test_limb_sum_refuses_values_outside_its_domain(values):
    # |v| >= 2^6 would overflow the first limb's int64 sum; bits below
    # 2^-114 would be lost
    with pytest.raises(ContractViolation):
        _add_limbs([0, 0, 0], np.array(values), np.empty(len(values)))


def test_limb_sum_takes_the_extreme_logs_of_the_pass():
    # the smallest log, at the largest prime the table holds, and the
    # largest the pass makes, at p = 2 with three classes taken
    p = next(n for n in range(PRIME_SIEVE_CAP, 1, -1) if is_prime(n))
    assert p == 134_217_689
    for v in (math.log1p(-1 / (p * p)), math.log1p(-3 / 4)):
        assert _limb_sum([v]) == v
        assert _limb_sum([v] * 3) == math.fsum([v] * 3)


def test_density_pass_peaks_under_one_mebibyte():
    primes_up_to(10**7)  # the shared table is built once, outside the pass
    tracemalloc.start()
    try:
        density_constant([0, 2], 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
