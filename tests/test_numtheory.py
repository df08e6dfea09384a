"""Primality and the Eichler symbol against the routes they replace."""

import math
import random

import pytest

from ariththeta.numtheory import (
    eichler_symbol,
    field_discriminant,
    is_prime,
    kronecker_symbol,
    primes_up_to,
)


def _trial_division(n):
    """The oracle: is_prime as it was, by odd trial divisors up to sqrt(n)."""
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division_below_200000():
    assert [n for n in range(-3, 200_000) if is_prime(n) != _trial_division(n)] == []


CARMICHAEL = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 62745, 75361, 101101,
    126217, 172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041,
    449065, 488881, 512461, 413_138_881, 9_999_109_081,
]


@pytest.mark.parametrize("n", CARMICHAEL)
def test_carmichael_numbers_are_composite(n):
    # Korselt: squarefree, and p - 1 | n - 1 for each prime p | n.
    primes = [p for p in primes_up_to(10_000) if n % p == 0]
    assert math.prod(primes) == n and all((n - 1) % (p - 1) == 0 for p in primes)
    assert not is_prime(n) and not _trial_division(n)


def _strong_probable_prime(n, base):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(base, (n - 1) >> s, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))


# Composites that are strong probable primes to every prime base up to the
# one given, so only a larger base rejects them; the first is the least such
# number for the bases 2, 3, 5, 7, the last for the bases up to 37.
STRONG_PSEUDOPRIMES = [
    (3_215_031_751, 7, (151, 751, 28351)),
    (2_152_302_898_747, 11, (6763, 10627, 29947)),
    (3_474_749_660_383, 13, (1303, 16927, 157543)),
    (341_550_071_728_321, 19, (10670053, 32010157)),
    (3_825_123_056_546_413_051, 31, (149491, 747451, 34233211)),
    (318_665_857_834_031_151_167_461, 37, (399165290221, 798330580441)),
]


@pytest.mark.parametrize(
    "n, top, factors", STRONG_PSEUDOPRIMES, ids=[str(n) for n, _, _ in STRONG_PSEUDOPRIMES]
)
def test_strong_pseudoprimes_are_composite(n, top, factors):
    assert math.prod(factors) == n
    assert all(_strong_probable_prime(n, base) for base in primes_up_to(top))
    assert not is_prime(n)


def test_seeded_large_primes_and_semiprimes():
    rng = random.Random(20240601)
    primes = []
    while len(primes) < 12:
        n = rng.randrange(10**9, 10**11) | 1
        if _trial_division(n):
            primes.append(n)
    for p in primes:
        assert is_prime(p), p
    for p, q in zip(primes, primes[1:]):
        assert not is_prime(p * q), (p, q)
    small = primes_up_to(20_000)[300:]  # 1,993 to 19,997
    for _ in range(200):
        n = rng.choice(small) * rng.choice(small)
        assert is_prime(n) is _trial_division(n) is False, n
    for p in (2**31 - 1, 2**61 - 1, 99_999_989):
        assert is_prime(p)


def test_is_prime_keeps_trial_division_above_the_miller_rabin_bound():
    # 3^51 < 3.3e24 < 3^52: Miller-Rabin below the bound, trial division above it.
    assert not is_prime(3**51) and not is_prime(3**52)
    assert not is_prime(2**89 + 1) and not is_prime(5 * 10**24 + 5)


def test_eichler_symbol_matches_the_factored_conductor():
    # p | conductor iff d/p^2 is a discriminant, against d // field_discriminant(d).
    for d in range(-4000, 4001):
        if d % 4 > 1 or (d >= 0 and round(d**0.5) ** 2 == d):
            continue
        square = d // field_discriminant(d)
        for p in primes_up_to(50):
            want = 1 if square % (p * p) == 0 else kronecker_symbol(d, p)
            assert eichler_symbol(d, p) == want, (d, p)
