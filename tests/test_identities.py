"""Degree series, exact constants, and classification predicates."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ariththeta as at
from ariththeta import binforms
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
from ariththeta.numtheory import (
    eichler_symbol,
    factorint,
    field_discriminant,
    is_squarefree,
    kronecker_symbol,
    squarefree_primes,
)
from ariththeta.quatalg import hilbert_symbol, indefinite_algebra_of_discriminant


# --- degree series -------------------------------------------------------------


def test_degree_series_first_coefficients(lat_d1):
    s = idn.degree_series(lat_d1, v=1.0, n=3)
    assert s.coefficient(0) == Fraction(-1, 12)
    assert s.coefficient(1) == Fraction(1, 2)
    assert s.coefficient(2) == 1
    assert s.coefficient(3) == Fraction(4, 3)
    assert s.coefficient(-1) == 0 and s.coefficient(-3) == 0


def test_degree_series_stores_no_negative_index(lat_d1, lat_d6, lat_d10):
    for lat in (lat_d1, lat_d6, lat_d10):
        s = idn.degree_series(lat, v=1.0, n=20)
        assert sorted(s.coefficients) == list(range(21))
        assert all(s.coefficient(-t) == 0 for t in range(1, 41))


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


@pytest.mark.parametrize(
    "name, primes",
    [("d1", (3, 5, 7, 11, 13)), ("d6", (5, 7, 11, 13)), ("d10", (3, 7, 11, 13))],
    ids=("d1", "d6", "d10"),
)
def test_degree_series_hecke_relations(name, primes, lat_d1, lat_d6, lat_d10):
    """deg Z(p^2 t) = (p + 1 - (-t/p)) deg Z(t) - p deg Z(t/p^2), exactly.

    The weight-3/2 Hecke operator at an odd prime p not dividing D, for every
    t <= 3000/p^2 (1,212 cases over the three orders); the last term counts
    only when p^2 | t.  It does not catch everything: a series that drops
    d6's local factor at p = 3, or that ignores the content and takes every
    form's factor at -4t, passes every relation.  The local factors at p | D
    are held by test_degree_series_definite_class_number_one and the d1 orbit
    count.
    """
    lat = {"d1": lat_d1, "d6": lat_d6, "d10": lat_d10}[name]
    s = idn.degree_series(lat, v=1.0, n=3000)
    for p in primes:
        assert lat.discriminant % p
        for t in range(1, 3000 // (p * p) + 1):
            below = s.coefficient(t // (p * p)) if t % (p * p) == 0 else 0
            want = (p + 1 - kronecker_symbol(-t, p)) * s.coefficient(t) - p * below
            assert s.coefficient(p * p * t) == want, (name, p, t)


def _degrees_by_discriminant(d, n):
    """The per-discriminant route: reduced_classes(-4t) summed per content, conductor by factoring."""

    def eichler(disc, p):
        return 1 if (disc // field_discriminant(disc)) % (p * p) == 0 else kronecker_symbol(disc, p)

    out = {0: idn.zeta_db_at_minus1(d)}
    for t in range(1, n + 1):
        by_content = {}
        for form in binforms.reduced_classes(-4 * t):
            f = math.gcd(*form)
            by_content[f] = by_content.get(f, 0) + binforms.hurwitz_weight(form)
        out[t] = sum(
            Fraction(w, 6) * math.prod(1 - eichler(-4 * t // (f * f), p) for p in factorint(d))
            for f, w in by_content.items()
        )
    return out


@pytest.mark.parametrize("name", ["d1", "d6", "d10", "D2", "D3", "D7"])
def test_degree_series_matches_the_per_discriminant_route(name, lat_d1, lat_d6, lat_d10):
    # The one pass over reduced_form_runs against reduced_classes(-4t) one t at a time.
    if name.startswith("D"):
        a, b, basis = CLASS_NUMBER_ONE_ORDERS[int(name[1:])]
        lat = trace_zero_lattice(load_order({"a": a, "b": b, "discriminant": int(name[1:]), "basis": basis}))
    else:
        lat = {"d1": lat_d1, "d6": lat_d6, "d10": lat_d10}[name]
    want = _degrees_by_discriminant(lat.discriminant, 1000)
    assert idn.degree_series(lat, v=1.0, n=1000).coefficients == want
    assert idn.degree_series_of_discriminant(lat.discriminant, 1000).coefficients == want


def test_degree_series_of_discriminant_hecke_relations():
    """The Hecke relations of test_degree_series_hecke_relations on the (D, N) core.

    Every squarefree D <= 50, odd p <= 13 not dividing D, t <= 1200/p^2: 5,379 cases.
    """
    cases = 0
    for d in filter(is_squarefree, range(1, 51)):
        s = idn.degree_series_of_discriminant(d, 1200)
        for p in (p for p in (3, 5, 7, 11, 13) if d % p):
            for t in range(1, 1200 // (p * p) + 1):
                below = s.coefficient(t // (p * p)) if t % (p * p) == 0 else 0
                want = (p + 1 - kronecker_symbol(-t, p)) * s.coefficient(t) - p * below
                assert s.coefficient(p * p * t) == want, (d, p, t)
                cases += 1
    assert cases == 5379


@pytest.mark.parametrize(
    "d, n, error",
    [(4, 5, NotSquarefree), (0, 5, NotSquarefree), (-6, 5, NotSquarefree), (18, 5, NotSquarefree),
     (6.0, 5, PreconditionViolation), (True, 5, PreconditionViolation),
     (6, 0, PreconditionViolation), (6, 2.5, PreconditionViolation)],
)
def test_degree_series_of_discriminant_refuses_bad_arguments(d, n, error):
    with pytest.raises(error):
        idn.degree_series_of_discriminant(d, n)


DISCRIMINANT_CALLS = {
    "squarefree_primes": squarefree_primes,
    "zeta_db_at_minus1": idn.zeta_db_at_minus1,
    "bracket_constant": idn.bracket_constant,
    "fundamental_prime": lambda d: idn.fundamental_prime(((1, 0), (0, 1)), d),
    "classify": lambda d: idn.classify(((1, 0), (0, 1)), d),
    "degree_series_of_discriminant": lambda d: idn.degree_series_of_discriminant(d, 5),
    "vertical_components": lambda d: idn.vertical_components(4, d, 2),
    "indefinite_algebra_of_discriminant": indefinite_algebra_of_discriminant,
}


@pytest.mark.parametrize("d", [6.5, 6.0, True, "6", 4, 0], ids=["6.5", "6.0", "True", "str", "4", "0"])
@pytest.mark.parametrize("name", list(DISCRIMINANT_CALLS))
def test_every_function_taking_d_refuses_a_bad_discriminant(name, d):
    # One gate, numtheory.squarefree_primes: D is a squarefree integer >= 1, never a float, bool or string.
    with pytest.raises(NotSquarefree if d in (4, 0) else PreconditionViolation):
        DISCRIMINANT_CALLS[name](d)


def test_squarefree_primes_are_increasing():
    assert squarefree_primes(1) == []
    assert squarefree_primes(np.int64(6)) == [2, 3]
    assert squarefree_primes(2 * 3 * 5 * 7 * 1009) == [2, 3, 5, 7, 1009]


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


GREEN_SUM_SPEC = QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5, truncation_majorant_bound=16.0)


def _j(s):
    # J(s) = integral over R of E1(2 pi s cosh^2 rho) cosh rho, the Green
    # function integrated across a closed geodesic at distance rho.
    from scipy.integrate import quad
    from scipy.special import exp1

    def integrand(r):
        return exp1(2 * math.pi * s * math.cosh(r) ** 2) * math.cosh(r)

    return quad(integrand, -6.0, 6.0, epsabs=0.0, epsrel=1e-12)[0]


def test_arch_degree_green_sum_converges(lat_d1):
    def g(z):
        return big_xi(lat_d1, -2, 1.0, z, GREEN_SUM_SPEC).value

    res = idn.arithmetic_degree_archimedean(g, GREEN_SUM_SPEC)
    assert res.value > 0
    # The value is far below the first abs_tol; the finer spec asks for an
    # abs_tol near the value itself.  On the exact region both specs accept
    # the start grids, so the finer one need not refine.
    finer = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8, truncation_majorant_bound=16.0)
    res2 = idn.arithmetic_degree_archimedean(g, finer)
    assert res2.err <= res.err
    assert abs(res.value - res2.value) <= 4 * (res.err + res2.err)
    # Unfolded over the one class of vectors with Q = -2, whose closed
    # geodesic has length 2 arccosh 3, with R = 2 cosh^2 rho at distance rho
    # from it, the integral is (1/2) (2 arccosh 3) J(2) (2.19997e-07).
    exact = 0.5 * (2 * math.acosh(3)) * _j(2.0)
    assert abs(exact - 2.19997220111929e-07) < 1e-19
    assert abs(res.value - exact) <= res.err
    assert abs(res2.value - exact) <= res2.err
    assert abs(res.value - exact) <= 1e-6 * exact
    assert abs(res2.value - exact) <= 1e-6 * exact


# (1/2) integral of Xi(t, v) unfolds to (total length of the closed
# geodesics of norm t) / 2 * J(|t| v).  t = -2: one class, length
# 2 arccosh 3.  t = -3: discriminant 12 has h+ = 2, each class of length
# 2 log(2 + sqrt 3) = arccosh 7.
@pytest.mark.parametrize(
    "t, v, half_length, pinned",
    [
        (-2, 1.0, math.acosh(3), 2.19997220111929e-07),
        (-2, 2.0, math.acosh(3), 2.85153304472e-13),
        (-3, 1.0, math.acosh(7), 3.45272098016933e-10),
        (-3, 2.0, math.acosh(7), 8.2342395774e-19),
    ],
    ids=["t-2-v1", "t-2-v2", "t-3-v1", "t-3-v2"],
)
def test_arch_degree_green_sum_closed_form(lat_d1, t, v, half_length, pinned):
    exact = half_length * _j(-t * v)
    assert abs(exact - pinned) <= 1e-10 * pinned
    res = idn.arithmetic_degree_archimedean(
        lambda z: big_xi(lat_d1, t, v, z, GREEN_SUM_SPEC).value, GREEN_SUM_SPEC
    )
    assert abs(res.value - exact) <= res.err
    assert abs(res.value - exact) <= 1e-5 * exact


@pytest.mark.parametrize(
    "spec",
    [QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5), QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)],
    ids=["test-tol", "fine-tol"],
)
def test_arch_degree_smooth_integrand(spec):
    # A smooth integrand against scipy's dblquad over the exact region.
    from scipy.integrate import dblquad

    def g(z):
        return math.exp(-2.0 * z.v) * (1.0 + 0.3 * math.cos(2 * math.pi * z.u))

    ref, ref_err = dblquad(
        lambda v, u: g(UHPoint(u, v)) / (v * v),
        -0.5,
        0.5,
        lambda u: math.sqrt(1.0 - u * u),
        math.inf,
        epsabs=1e-15,
        epsrel=1e-12,
    )
    exact = 0.5 * ref
    assert ref_err < 1e-12
    res = idn.arithmetic_degree_archimedean(g, spec)
    assert abs(res.value - exact) <= res.err + 0.5 * ref_err


def test_arch_degree_nodes_lie_in_the_domain(lat_d1):
    # Every node passed to g lies in |u| <= 1/2, |z| >= 1, and none is
    # skipped: 16 main cells and 4 strip cells, 80 nodes each.
    nodes = []

    def g(z):
        nodes.append((z.u, z.v))
        return big_xi(lat_d1, -2, 1.0, z, GREEN_SUM_SPEC).value

    idn.arithmetic_degree_archimedean(g, GREEN_SUM_SPEC)
    assert all(abs(u) <= 0.5 and v >= math.sqrt(1.0 - u * u) for u, v in nodes)
    assert len(nodes) == 1600


def test_arch_degree_refuses_cusp_height_below_the_domain():
    with pytest.raises(PreconditionViolation):
        idn.arithmetic_degree_archimedean(lambda z: 1.0, cusp_height=0.8)


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
    # A T that is not symmetric is refused, not read off its upper triangle.
    for call in (idn.classify, idn.fundamental_prime):
        with pytest.raises(PreconditionViolation, match="T must be symmetric"):
            call(((2, 1), (5, 3)), 6)


def test_fundamental_prime_large_entries_need_no_limit():
    assert idn.fundamental_prime(((1009, 0), (0, 1009)), 1) == 2
    assert idn.fundamental_prime(((1009, 0), (0, 1009)), 6) == 3
    # The fundamental prime itself can be large.
    assert idn.fundamental_prime(((2, 0), (0, 1013)), 1) == 1013
    c = idn.classify(((2, 0), (0, 1013)), 1)
    assert c.fundamental_prime == 1013 and c.regular is True and c.supersingular_support


def _hasse(diag, ell) -> int:
    """Hasse invariant of a diagonal form: the product of (d_i, d_j)_ell over i < j."""
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], ell)
    return out


def _hasse_oracle(t_mat, d: int) -> int | None:
    """Diff(T, B) by the three-symbol route, in Fractions.

    T = <u1, u2> with u1 = t1, u2 = det/t1, and ell is in Diff(T, B) iff the
    Hasse invariant of <u1, u2, u1 u2> differs from that of the trace-zero
    space of B, (-1,-1)_ell inv_ell(B), at ell in {2} u primes(D t1 det T).
    """
    (t1, m), (_, t2) = t_mat
    det = t1 * t2 - m * m
    u1, u2 = Fraction(t1), Fraction(det, t1)
    ram = set(factorint(d))
    places = {2} | ram | set(factorint(t1)) | set(factorint(det))
    diff = [
        ell
        for ell in sorted(places)
        if _hasse((u1, u2, u1 * u2), ell) != (-1 if ell in ram else 1) * (-1 if ell == 2 else 1)
    ]
    return diff[0] if len(diff) == 1 else None


def test_fundamental_prime_matches_hasse_oracle():
    rng = random.Random(4099)
    squarefree = [d for d in range(1, 400) if is_squarefree(d)]
    found = set()
    for _ in range(2000):
        t1, t2 = rng.randint(1, 10**4), rng.randint(1, 10**4)
        m = rng.randint(-math.isqrt(t1 * t2 - 1), math.isqrt(t1 * t2 - 1))
        t_mat, d = ((t1, m), (m, t2)), rng.choice(squarefree)
        p = idn.fundamental_prime(t_mat, d)
        assert p == _hasse_oracle(t_mat, d), (t_mat, d)
        found.add(p)
    # Both outcomes occur, and primes far beyond D and 2 occur.
    assert None in found and max(p for p in found if p is not None) > 400


def _scan_oracle(t_mat, d: int, limit: int) -> int | None:
    """The prime-scan rule: every prime up to `limit` and every prime of
    2 D t1 det T is a candidate p, tested at those primes and p.

    T = <t1, det/t1> up to squares, so U + <det U> is <t1, t1 det, det>; the
    p-twin's trace-zero space has Hasse invariant (-1,-1)_l (a,b)_l with
    (a,b)_l = -1 exactly on the primes of D xor {p}.
    """
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
            lhs = _hasse(diag, ell)
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
