"""Quaternion arithmetic, Hilbert symbols, ramification, definite twins."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ariththeta.errors import (
    AlgebraMismatch,
    NotSquarefree,
    PreconditionViolation,
    ZeroStructureConstant,
)
from ariththeta.numtheory import factorint, is_prime, is_squarefree, valuation
from ariththeta.quatalg import (
    INFINITE_PLACE,
    definite_twin,
    hilbert_symbol,
    indefinite_algebra_of_discriminant,
    make_algebra,
)

nonzero_small = st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0)


# --- independent oracle: certified p-adic solubility search -----------------


# The search below is cubic in its modulus; keep it to p^k <= 81.
SEARCH_LIMIT = 81


def search_modulus(a: int, b: int, p: int) -> int:
    """The modulus p^k, k = 2 v_p(2ab) + 2, that hilbert_symbol_bruteforce searches."""
    return p ** (2 * valuation(2 * a * b, p) + 2)


def hilbert_symbol_bruteforce(a: int, b: int, p: int) -> int:
    """Decide solubility of z^2 = a x^2 + b y^2 over Q_p by searching
    primitive solutions mod p^k with a strong-Hensel certificate.

    k is chosen so that any p-adic zero reduces to a certified residue
    solution; conversely no primitive residue solution at all proves
    insolubility.  Raises if the search is inconclusive (never at the sizes
    used in this file).
    """

    def vp(n):
        v = 0
        while n and n % p == 0:
            n //= p
            v += 1
        return v

    m = vp(2 * a * b)
    k = 2 * m + 2
    mod = p**k
    found = False
    for x in range(mod):
        axx = a * x * x
        for y in range(mod):
            t = axx + b * y * y
            for z in range(mod):
                if (z * z - t) % mod:
                    continue
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                grads = (2 * a * x, 2 * b * y, -2 * z)
                gv = min((vp(g) if g % mod else k) for g in grads)
                if k > 2 * gv:
                    return 1
                found = True
    if found:
        raise RuntimeError("inconclusive brute-force search")
    return -1


@pytest.mark.parametrize(
    "a,b,p,expected",
    [
        (-1, -1, 2, -1),
        (-1, -1, 3, 1),
        (-1, -1, 5, 1),
        (-1, 3, 2, -1),
        (-1, 3, 3, -1),
        (-2, 5, 2, -1),
        (-2, 5, 5, -1),
        (2, 3, 3, -1),
        (3, 5, 5, -1),
    ],
)
def test_hilbert_against_bruteforce(a, b, p, expected):
    assert hilbert_symbol(a, b, p) == expected
    if search_modulus(a, b, p) <= SEARCH_LIMIT:
        assert hilbert_symbol_bruteforce(a, b, p) == expected


def test_hilbert_bruteforce_grid():
    vals = [s * x for x in (1, 2, 3, 5, 6, 7, 10) for s in (1, -1)]
    cases = [
        (a, b, p)
        for p in (2, 3, 5, 7)
        for i, a in enumerate(vals)
        for b in vals[i:]
        if search_modulus(a, b, p) <= SEARCH_LIMIT
    ]
    symbols = [hilbert_symbol(a, b, p) for a, b, p in cases]
    for (a, b, p), s in zip(cases, symbols):
        assert hilbert_symbol_bruteforce(a, b, p) == s, (a, b, p)
    # The grid reaches the odd primes and both values.
    assert len(cases) == 312 and symbols.count(-1) == 54


# --- the textbook case analysis, kept as an oracle ----------------------------


def hilbert_symbol_case_analysis(a: Fraction, b: Fraction, p: int) -> int:
    """(a, b)_p from the p-unit parts as rationals: the Legendre symbol of
    the numerator times the inverse of the denominator mod p for odd p, and
    at 2 eps(u) = (u - 1)/2 mod 2 and omega(u) = (u^2 - 1)/8 mod 2, with u
    reduced mod 8 and mod 16 through the inverse of its denominator."""

    def vq(q):
        return valuation(q.numerator, p) - valuation(q.denominator, p)

    def unit_mod(u, modulus):
        return u.numerator * pow(u.denominator, -1, modulus) % modulus

    alpha, beta = vq(a), vq(b)
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    if p != 2:

        def legendre(w):
            return 1 if pow(unit_mod(w, p), (p - 1) // 2, p) == 1 else -1

        sign = -1 if alpha % 2 and beta % 2 and (p - 1) // 2 % 2 else 1
        if beta % 2:
            sign *= legendre(u)
        if alpha % 2:
            sign *= legendre(v)
        return sign

    def eps(w):
        return (unit_mod(w, 8) - 1) // 2 % 2

    def omega(w):
        r = unit_mod(w, 16)
        return (r * r - 1) // 8 % 2

    e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
    return -1 if e % 2 else 1


def test_hilbert_against_case_analysis():
    rng = random.Random(1013)
    primes = [2, 3, 5, 7, 11, 13]

    def draw() -> Fraction:
        while True:
            n = rng.randint(1, 3000) * rng.choice((1, -1)) * rng.choice(primes) ** rng.randint(0, 3)
            q = Fraction(n, rng.randint(2, 400))
            if math.isqrt(q.denominator) ** 2 != q.denominator:
                return q

    seen = set()
    for _ in range(3000):
        a, b, p = draw(), draw(), rng.choice(primes)
        s = hilbert_symbol(a, b, p)
        assert s == hilbert_symbol_case_analysis(a, b, p), (a, b, p)
        seen.add((p, s))
    assert seen == {(p, s) for p in primes for s in (1, -1)}


def test_hilbert_square_first_argument():
    for b in (2, 3, -7, 15):
        for place in (2, 3, 5, INFINITE_PLACE):
            assert hilbert_symbol(1, b, place) == 1
            assert hilbert_symbol(4, b, place) == 1


def test_hilbert_infinite_place():
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, 3, INFINITE_PLACE) == 1
    assert hilbert_symbol(2, 3, INFINITE_PLACE) == 1


def test_hilbert_rejects_zero():
    with pytest.raises(ZeroStructureConstant):
        hilbert_symbol(0, 1, 2)


@settings(max_examples=1000, deadline=None)
@given(nonzero_small, nonzero_small)
def test_hilbert_product_formula(a, b):
    places = [INFINITE_PLACE] + sorted(
        set(factorint(2 * abs(a) * abs(b)))
    )
    prod = 1
    for place in places:
        prod *= hilbert_symbol(a, b, place)
    assert prod == 1


@settings(max_examples=150, deadline=None)
@given(nonzero_small, nonzero_small)
def test_hilbert_symmetry_and_square_scaling(a, b):
    for place in (2, 3, 5, INFINITE_PLACE):
        s = hilbert_symbol(a, b, place)
        assert hilbert_symbol(b, a, place) == s
        assert hilbert_symbol(a * 4, b, place) == s
        assert hilbert_symbol(Fraction(a, 9), b, place) == s


# --- algebras ----------------------------------------------------------------


def test_make_algebra_examples():
    split = make_algebra(1, 1)
    assert split.discriminant == 1 and split.is_indefinite
    d6 = make_algebra(-1, 3)
    assert d6.discriminant == 6 and d6.is_indefinite
    ham = make_algebra(-1, -1)
    assert ham.discriminant == 2 and ham.is_definite


def test_make_algebra_rejects_zero():
    with pytest.raises(ZeroStructureConstant):
        make_algebra(0, 5)


def test_split_algebra_has_zero_divisors():
    alg = make_algebra(1, 1)
    e = alg.element(Fraction(1, 2), Fraction(1, 2))  # (1+i)/2, an idempotent
    assert (e * e).coeffs == e.coeffs
    assert e.norm() == 0


@settings(max_examples=120, deadline=None)
@given(nonzero_small, nonzero_small)
def test_discriminant_squarefree_and_definite_criterion(a, b):
    alg = make_algebra(a, b)
    assert alg.discriminant == 1 or is_squarefree(alg.discriminant)
    assert alg.is_definite == (a < 0 and b < 0)


# --- element arithmetic -------------------------------------------------------


def test_norm_trace_basis_elements():
    alg = make_algebra(-1, 3)
    assert alg.i.norm() == 1 and alg.i.trace() == 0
    assert alg.j.norm() == -3
    # (ij)^2 = -ab, so nu(ij) = -(ij)^2 = ab = -3; the signature (1, 2) of
    # 1, 3, -3 on i, j, ij depends on this sign.
    assert alg.ij.norm() == -3


def test_q_of_ij_from_multiplication_table():
    alg = make_algebra(-1, 3)
    sq = alg.ij * alg.ij
    assert sq.coeffs == (-alg.a * alg.b, 0, 0, 0)
    assert alg.ij.norm() == alg.a * alg.b


quat_coeff = st.integers(min_value=-9, max_value=9)


@settings(max_examples=150, deadline=None)
@given(quat_coeff, quat_coeff, quat_coeff, quat_coeff, quat_coeff, quat_coeff, quat_coeff, quat_coeff)
def test_norm_multiplicative_conj_antihomomorphism(x0, x1, x2, x3, y0, y1, y2, y3):
    alg = make_algebra(-1, 3)
    x = alg.element(x0, x1, x2, x3)
    y = alg.element(y0, y1, y2, y3)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj().coeffs == (y.conj() * x.conj()).coeffs
    assert x.trace() == (x + x.conj()).coeffs[0]
    # -x^2 = Q(x) for trace-zero x
    z = alg.element(0, x1, x2, x3)
    assert (z * z).coeffs == (-z.norm(), 0, 0, 0)


def test_algebra_mismatch():
    a1 = make_algebra(1, 1)
    a2 = make_algebra(-1, 3)
    with pytest.raises(AlgebraMismatch):
        a1.i * a2.j


def test_trace_zero_signature_by_diagonalization():
    # nu on V has signature (1,2) for indefinite algebras, (3,0) for definite.
    for (a, b), expect in [((1, 1), (1, 2)), ((-1, 3), (1, 2)), ((-1, -1), (3, 0)), ((-2, -5), (3, 0))]:
        alg = make_algebra(a, b)
        basis = (alg.i, alg.j, alg.ij)
        eig = np.linalg.eigvalsh(np.array([[float(x.inner(y)) for y in basis] for x in basis]))
        assert (int(np.sum(eig > 0)), int(np.sum(eig < 0))) == expect


# --- definite twins ----------------------------------------------------------


def test_definite_twin_examples():
    split = make_algebra(1, 1)
    tw2 = definite_twin(split, 2)
    assert tw2.is_definite and sorted(tw2.ramified_primes) == [2]
    assert (tw2.a, tw2.b) == (-2, -2)

    d6 = make_algebra(-1, 3)
    assert sorted(definite_twin(d6, 2).ramified_primes) == [3]
    tw5 = definite_twin(d6, 5)
    assert sorted(tw5.ramified_primes) == [2, 3, 5]
    assert (tw5.a, tw5.b) == (-30, -3)


def test_definite_twin_requires_indefinite():
    with pytest.raises(PreconditionViolation):
        definite_twin(make_algebra(-1, -1), 2)
    with pytest.raises(PreconditionViolation):
        definite_twin(make_algebra(1, 1), 4)


@pytest.mark.parametrize("d,p", [(1, 2), (1, 3), (6, 2), (6, 5), (10, 2), (10, 7)])
def test_twin_involution_on_ramification(d, p):
    alg = indefinite_algebra_of_discriminant(d)
    tw = definite_twin(alg, p)
    # Twice-twinned finite ramification returns to the original set.
    again = frozenset(tw.ramified_primes ^ {p})
    assert again == alg.ramified_primes


def test_constructions_cover_every_discriminant():
    # Every squarefree indefinite D in [6, 400): (D, q) with q prime.
    ds = [d for d in range(6, 400) if is_squarefree(d) and len(factorint(d)) % 2 == 0]
    assert len(ds) == 121
    for d in ds:
        alg = indefinite_algebra_of_discriminant(d)
        assert alg.is_indefinite and alg.ramified_primes == frozenset(factorint(d)), d
        assert alg.a == d and is_prime(alg.b), d
    # The twin grid: every indefinite D <= 400 (D = 1 included) and every p <= 59.
    grid = [1] + ds
    primes = [p for p in range(2, 60) if is_prime(p)]
    for d in grid:
        alg = indefinite_algebra_of_discriminant(d)
        for p in primes:
            tw = definite_twin(alg, p)
            target = alg.ramified_primes ^ {p}
            assert tw.is_definite and tw.ramified_primes == target, (d, p)
            assert tw.a == -math.prod(target) and is_prime(-tw.b), (d, p)


@pytest.mark.parametrize("d", [0, 2, 12, 30])
def test_indefinite_algebra_rejects_bad_discriminants(d):
    # 0 is not positive, 12 is not squarefree, 2 and 30 have an odd number of primes.
    with pytest.raises(NotSquarefree if d == 12 else PreconditionViolation):
        indefinite_algebra_of_discriminant(d)
