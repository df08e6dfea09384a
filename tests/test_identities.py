"""Degree series, exact constants, and classification predicates."""

import math
from fractions import Fraction

import pytest

import ariththeta as at
from ariththeta import identities as idn
from ariththeta.errors import (
    NotSquarefree,
    PreconditionViolation,
    QuadratureFailure,
    UnsupportedDiscriminant,
)
from ariththeta.greens import QuadratureSpec, UHPoint, big_xi
from ariththeta.lattice import (
    load_order,
    representation_count,
    trace_zero_lattice,
    weighted_orbit_degree,
)
from ariththeta.numtheory import eichler_symbol, is_squarefree, kronecker_symbol


# --- degree series -------------------------------------------------------------


def test_degree_series_first_coefficients(lat_d1):
    s = idn.degree_series(lat_d1, v=1.0, n=3)
    assert s.coefficient(0) == Fraction(-1, 12)
    assert s.coefficient(1) == Fraction(1, 2)
    assert s.coefficient(2) == 1
    assert s.coefficient(3) == Fraction(4, 3)
    assert s.coefficient(-1) == 0 and s.coefficient(-3) == 0


def test_degree_series_v_independent(lat_d1):
    a = idn.degree_series(lat_d1, v=0.25, n=5)
    b = idn.degree_series(lat_d1, v=7.5, n=5)
    for t in range(1, 6):
        assert a.coefficient(t) == b.coefficient(t)


def test_degree_series_d1_equals_orbit_count(lat_d1):
    # Independent route: unit-group orbits on {Q = t} weighted by 1/stabilizer.
    s = idn.degree_series(lat_d1, v=1.0, n=200)
    for t in range(1, 201):
        assert s.coefficient(t) == weighted_orbit_degree(lat_d1, t), t


HALF = "1/2"
CLASS_NUMBER_ONE_ORDERS = {
    2: ("-1", "-1", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [HALF, HALF, HALF, HALF]]),
    3: ("-1", "-3", [[1, 0, 0, 0], [0, 1, 0, 0], [HALF, 0, HALF, 0], [0, HALF, 0, HALF]]),
    7: ("-1", "-7", [[1, 0, 0, 0], [0, 1, 0, 0], [HALF, 0, HALF, 0], [0, HALF, 0, HALF]]),
}


@pytest.mark.parametrize("d", sorted(CLASS_NUMBER_ONE_ORDERS))
def test_degree_series_definite_class_number_one(d):
    # A definite maximal order O of class number one has mass 1/|O^x| = (D-1)/24,
    # so deg Z(t) counts the vectors of norm t: 2 (D-1)/24 r(t), with r(0) = 1.
    a, b, basis = CLASS_NUMBER_ONE_ORDERS[d]
    order = load_order({"a": a, "b": b, "discriminant": d, "basis": basis})
    assert order.reduced_discriminant() == d
    lat = trace_zero_lattice(order)
    s = idn.degree_series(lat, v=1.0, n=39)
    assert s.coefficient(0) == Fraction(2 * (d - 1), 24)
    for t in range(1, 40):
        assert s.coefficient(t) == Fraction(2 * (d - 1), 24) * representation_count(lat, t), (d, t)


def test_degree_series_eichler_symbol_at_the_conductor(lat_d6):
    # d = -12 has conductor 2, so at D = 6 its term vanishes; the plain
    # Kronecker symbol (-12|2) = 0 would add 1 and give 5/3.
    assert eichler_symbol(-12, 2) == 1 and kronecker_symbol(-12, 2) == 0
    assert idn.degree_series(lat_d6, v=1.0, n=3).coefficient(3) == Fraction(2, 3)


def test_degree_series_refuses_non_maximal_orders():
    # The Lipschitz order Z<1, i, j, ij> has reduced discriminant 4 in the algebra of D = 2.
    basis = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    lip = load_order({"a": "-1", "b": "-1", "discriminant": 2, "basis": basis})
    with pytest.raises(UnsupportedDiscriminant):
        idn.degree_series(trace_zero_lattice(lip), v=1.0, n=2)


# --- archimedean degree ---------------------------------------------------------


def test_arch_degree_zero_function(spec):
    res = idn.arithmetic_degree_archimedean(lambda z: 0.0, spec)
    assert res.value == 0.0


def test_arch_degree_hyperbolic_area():
    # g = 1 integrates to the orbifold area pi/3.  A constant is outside the
    # exponential-decay contract, so run with a loose tolerance the 1/height
    # cusp strips can actually reach.
    loose = QuadratureSpec(rel_tol=1e-3, abs_tol=2e-3)
    res = idn.arithmetic_degree_archimedean(lambda z: 1.0, loose, cusp_height=64.0)
    assert abs(res.value - 0.5 * math.pi / 3) < 6e-3


def test_arch_degree_green_sum_converges(lat_d1):
    spec = QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5, truncation_majorant_bound=16.0)

    def g(z):
        return big_xi(lat_d1, -2, 1.0, z, spec).value

    res = idn.arithmetic_degree_archimedean(g, spec)
    assert res.value > 0
    # The value is far below the first abs_tol, so only an abs_tol near the
    # value itself refines the quadrature (5,026 nodes against 4,044).
    finer = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8, truncation_majorant_bound=16.0)
    res2 = idn.arithmetic_degree_archimedean(g, finer)
    assert res2.err < res.err
    assert abs(res.value - res2.value) <= 4 * (res.err + res2.err)
    # Unfolded over the one class of vectors with Q = -2, whose closed
    # geodesic has length 2 arccosh 3, with R = 2 cosh^2 rho at distance rho
    # from it, the integral is (1/2) (2 arccosh 3) J(2), where
    # J(s) = integral over R of E1(2 pi s cosh^2 rho) cosh rho (2.19997e-07).
    from scipy.integrate import quad
    from scipy.special import exp1

    def j_integrand(r):
        return exp1(4 * math.pi * math.cosh(r) ** 2) * math.cosh(r)

    j2, _ = quad(j_integrand, -6.0, 6.0, epsabs=0.0, epsrel=1e-12)
    exact = 0.5 * (2 * math.acosh(3)) * j2
    assert abs(exact - 2.19997220111929e-07) < 1e-19
    assert abs(res.value - exact) <= res.err
    assert abs(res2.value - exact) <= res2.err


def test_arch_degree_linearity(lat_d1):
    spec = QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5)

    def g1(z):
        return 1.0 / (1.0 + z.v)

    def g2(z):
        return z.v / (1.0 + z.v * z.v)

    a = idn.arithmetic_degree_archimedean(g1, spec)
    b = idn.arithmetic_degree_archimedean(g2, spec)
    c = idn.arithmetic_degree_archimedean(lambda z: g1(z) + g2(z), spec)
    assert abs(c.value - a.value - b.value) <= 2 * (a.err + b.err + c.err) + 2 * spec.abs_tol


def test_arch_degree_detects_square_divergence(lat_d1):
    # Xi(-1, v) grows linearly up the cusp (gamma = 0 vectors with Q = -1),
    # so the orbifold integral diverges; the cusp certification must fail
    # rather than return a number.
    spec = QuadratureSpec(rel_tol=5e-3, abs_tol=2e-4, truncation_majorant_bound=16.0)

    def g(z):
        return big_xi(lat_d1, -1, 1.0, z, spec).value

    with pytest.raises(QuadratureFailure):
        idn.arithmetic_degree_archimedean(g, spec)


# --- exact constants -------------------------------------------------------------


def test_zeta_db_values_from_euler_product():
    assert idn.zeta_db_at_minus1(1) == Fraction(-1, 12)
    assert idn.zeta_db_at_minus1(6) == Fraction(-1, 6)
    # (-1/12)(1-2)(1-5) for the two primes dividing 10.
    assert idn.zeta_db_at_minus1(10) == Fraction(-1, 3)
    assert idn.zeta_db_at_minus1(2) == Fraction(1, 12)


def test_zeta_db_rejects_nonsquarefree():
    with pytest.raises(NotSquarefree):
        idn.zeta_db_at_minus1(12)
    with pytest.raises(NotSquarefree):
        idn.zeta_db_at_minus1(0)


def test_constant_c_cancellation_and_linearity():
    for d in (1, 6, 10):
        bracket = idn.bracket_constant(d)
        zd = float(idn.zeta_db_at_minus1(d))
        pairing = zd * bracket  # chosen to cancel exactly
        assert abs(idn.constant_c(pairing, d, Fraction(1, 12))) < 1e-12
        # Linearity with slope 2/hodge_degree.
        h = Fraction(3, 5)
        c0 = idn.constant_c(0.0, d, h)
        c1 = idn.constant_c(1.0, d, h)
        assert abs((c1 - c0) - 2.0 / float(h)) < 1e-12
        # Doubling the hodge degree halves c at fixed pairing.
        assert abs(idn.constant_c(0.7, d, 2 * h) - idn.constant_c(0.7, d, h) / 2) < 1e-12


def test_constant_c_d6_regression():
    # hodge_pairing = 0, hodge_degree = 1: c = -2 zeta_6(-1) [bracket];
    # frozen against a 40-digit independent evaluation (-0.39078175239401883...).
    val = idn.constant_c(0.0, 6, Fraction(1))
    assert abs(val - (-0.3907817523940186)) < 1e-12


# --- classification predicates -----------------------------------------------------


VERTICAL_TABLE = [
    (1, 6, 2, False),
    (4, 6, 2, True),
    (8, 6, 2, False),
    (12, 6, 2, True),
    (16, 6, 2, True),
    (36, 6, 2, True),
    (9, 6, 3, True),
    (18, 6, 3, True),
    (45, 6, 3, True),
    (63, 6, 3, False),
    (117, 6, 3, True),
    (4, 10, 2, False),
    (20, 10, 2, True),
    (25, 10, 5, True),
    (50, 10, 5, True),
    (175, 10, 5, False),
]


@pytest.mark.parametrize("t,d,p,expected", VERTICAL_TABLE)
def test_vertical_components_truth_table(t, d, p, expected):
    assert idn.vertical_components(t, d, p) == expected


def test_vertical_components_kronecker_oracle():
    # Independent check of the splitting decision for two table rows.
    assert kronecker_symbol(-4, 3) == -1  # 3 inert in Q(i)
    assert kronecker_symbol(-52, 2) == 0  # 2 ramified in Q(sqrt(-13))
    assert idn.vertical_components(4, 6, 2) is True
    assert idn.vertical_components(117, 6, 3) is True


def test_vertical_components_scaling_monotone():
    for t, d, p, val in VERTICAL_TABLE:
        if val and idn.vertical_components(t, d, p):
            assert idn.vertical_components(p * p * t, d, p)


def test_vertical_components_preconditions():
    with pytest.raises(PreconditionViolation):
        idn.vertical_components(4, 6, 5)
    with pytest.raises(PreconditionViolation):
        idn.vertical_components(4, 5, 5)


def test_fundamental_prime_examples():
    assert idn.fundamental_prime(((1, 0), (0, 1)), 1) == 2
    assert idn.fundamental_prime(((1, 0), (0, 1)), 6) == 3
    assert idn.fundamental_prime(((1, 0), (0, 1)), 10) == 5
    assert idn.fundamental_prime(((2, 1), (1, 2)), 1) == 2


def test_fundamental_prime_rejects_bad_t():
    with pytest.raises(PreconditionViolation):
        idn.fundamental_prime(((1, 0), (0, 0)), 6)
    with pytest.raises(PreconditionViolation):
        idn.fundamental_prime(((1, 2), (2, 1)), 6)


def test_fundamental_prime_large_entries_need_no_limit():
    assert idn.fundamental_prime(((1009, 0), (0, 1009)), 1) == 2
    assert idn.fundamental_prime(((1009, 0), (0, 1009)), 6) == 3
    # The fundamental prime itself can be large.
    assert idn.fundamental_prime(((2, 0), (0, 1013)), 1) == 1013
    c = idn.classify(((2, 0), (0, 1013)), 1)
    assert c.fundamental_prime == 1013 and c.regular is True and c.supersingular_support


def _scan_oracle(t_mat, d: int, limit: int) -> int | None:
    """The prime-scan rule: every prime up to `limit` and every prime of
    2 D t1 det T is a candidate p, tested at those primes and p.

    T = <t1, det/t1> up to squares, so U + <det U> is <t1, t1 det, det>; the
    p-twin's trace-zero space has Hasse invariant (-1,-1)_l (a,b)_l with
    (a,b)_l = -1 exactly on the primes of D xor {p}.
    """
    from ariththeta.numtheory import factorint
    from ariththeta.quatalg import hilbert_symbol

    (t1, m), (_, t2) = t_mat
    det = t1 * t2 - m * m
    diag = (t1, t1 * det, det)
    ram = set(factorint(d)) if d > 1 else set()
    mandatory = {2} | ram | set(factorint(t1)) | set(factorint(det))
    primes = [q for q in range(2, limit + 1) if factorint(q) == {q: 1}]
    passers = []
    for p in sorted(set(primes) | mandatory):
        ok = True
        for ell in sorted(mandatory | {p}):
            lhs = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    lhs *= hilbert_symbol(diag[i], diag[j], ell)
            twin = (-1 if (ell in ram) != (ell == p) else 1) * (-1 if ell == 2 else 1)
            ok = ok and lhs == twin
        if ok:
            passers.append(p)
    assert len(passers) <= 1, (t_mat, d, passers)
    return passers[0] if passers else None


def test_fundamental_prime_matches_prime_scan():
    squarefree = [d for d in range(1, 31) if d == 1 or is_squarefree(d)]
    found = set()
    for d in squarefree:
        for t1 in range(1, 7):
            for t2 in range(t1, 7):
                for m in range(0, 4):
                    if t1 * t2 - m * m <= 0:
                        continue
                    t_mat = ((t1, m), (m, t2))
                    p = idn.fundamental_prime(t_mat, d)
                    assert p == _scan_oracle(t_mat, d, 40), (t_mat, d)
                    found.add(p)
    # Both outcomes occur, and primes outside {2, 3, 5} occur.
    assert None in found and found - {None, 2, 3, 5}


def test_is_regular():
    assert idn.is_regular(((1, 0), (0, 1)), 3, 6) is True  # 3 | 6 but 9 does not divide T
    assert idn.is_regular(((9, 0), (0, 9)), 3, 6) is False
    with pytest.raises(PreconditionViolation):
        idn.is_regular(((1, 0), (0, 1)), 5, 6)


def test_classify_shape():
    c = idn.classify(((1, 0), (0, 1)), 6)
    assert c.fundamental_prime == 3 and c.regular and c.supersingular_support
    c2 = idn.classify(((9, 0), (0, 9)), 6)
    assert c2.fundamental_prime == 3 and c2.regular is False


CLASSIFY_GRID_T = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, 2)),
    ((2, 1), (1, 2)),
    ((1, 0), (0, 3)),
    ((3, 1), (1, 2)),
    ((2, 1), (1, 5)),
    ((4, 0), (0, 4)),
    ((4, 2), (2, 8)),
    ((9, 0), (0, 9)),
    ((9, 3), (3, 9)),
    ((25, 0), (0, 25)),
]


def test_classify_agrees_with_fundamental_prime_and_is_regular():
    squarefree = [d for d in range(1, 31) if d == 1 or is_squarefree(d)]
    regular_seen = set()
    for d in squarefree:
        for t_mat in CLASSIFY_GRID_T:
            c = idn.classify(t_mat, d)
            p = idn.fundamental_prime(t_mat, d)
            assert c.fundamental_prime == p
            assert c.supersingular_support == (p is not None)
            assert c.regular == (None if p is None else idn.is_regular(t_mat, p, d))
            regular_seen.add(c.regular)
    # The grid reaches every outcome.
    assert regular_seen == {None, True, False}
