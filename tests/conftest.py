"""Shared brute-force oracles, independent of the package internals."""

import pytest


def naive_primes(bound: int) -> list[int]:
    """Primes up to bound by pure trial division."""
    primes = []
    for k in range(2, bound + 1):
        is_p = True
        for p in primes:
            if p * p > k:
                break
            if k % p == 0:
                is_p = False
                break
        if is_p:
            primes.append(k)
    return primes


_ORACLE_PRIME_SQUARES = [p * p for p in naive_primes(1100)]  # covers m <= 1.21e6


def naive_is_squarefree(m: int) -> bool:
    """Per-integer trial division by prime squares; valid for m <= 1.21e6."""
    for p2 in _ORACLE_PRIME_SQUARES:
        if p2 > m:
            return True
        if m % p2 == 0:
            return False
    return True


def naive_count_tuples(x: int, h: int, offsets) -> int:
    return sum(
        1 for n in range(x + 1, x + h + 1)
        if all(naive_is_squarefree(n + off) for off in offsets)
    )


def naive_squarefull_radical(k: int) -> int:
    result = 1
    p = 2
    m = k
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e >= 2:
                result *= p
        p += 1
    return result


def naive_prime_factors(d: int) -> list[int]:
    """Ascending distinct prime factors of d by trial division."""
    out, m, p = [], d, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def naive_count_congruent(d: int, x: int, h: int, offsets) -> int:
    """#{n in (x, x+h] : every prime p | d has p^2 | n + some offset}, by
    dividing each n + offset by each p^2."""
    squares = [p * p for p in naive_prime_factors(d)]
    return sum(
        1 for n in range(x + 1, x + h + 1)
        if all(any((n + off) % p2 == 0 for off in offsets) for p2 in squares)
    )


@pytest.fixture(scope="session")
def oracle_primes_2000():
    return naive_primes(2000)
