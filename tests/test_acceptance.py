"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 9 pins zeta_{10}(-1) = -1/3, the defining Euler product
(-1/12)(1-2)(1-5), and checks it against Riemann-Hurwitz on X_6 and X_10; the
inline note on that test has the derivation.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import ariththeta as at
from ariththeta import binforms, checks
from ariththeta import identities as idn
from ariththeta.greens import EULER_GAMMA, QuadratureSpec, UHPoint, beta1
from ariththeta.lattice import majorant
from ariththeta.numtheory import kronecker_symbol
from ariththeta.quatalg import definite_twin, indefinite_algebra_of_discriminant
from ariththeta.starprod import z_hat_indefinite


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- 1: Hurwitz oracle -----------------------------------------------------------


def test_criterion_1_hurwitz_oracle():
    t0 = time.monotonic()
    for n in range(0, 201):
        a = binforms.hurwitz_class_number(n)
        b = binforms.hurwitz_class_number_boxdedup(n)
        assert a == b, f"H({n}): {a} vs {b}"
    assert binforms.hurwitz_class_number(3) == Fraction(1, 3)
    assert binforms.hurwitz_class_number(4) == Fraction(1, 2)
    assert binforms.hurwitz_class_number(23) == 3
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 5.0, f"two routes agree for n <= 200 in {elapsed:.2f}s")


# --- 2: degree series equals the class-number series --------------------------------


def test_criterion_2_zagier_correspondence(lat_d1):
    t0 = time.monotonic()
    series = idn.degree_series(lat_d1, v=1.0, n=50)
    ok = series.coefficient(0) == Fraction(-1, 12)
    for t in range(1, 51):
        ok = ok and series.coefficient(t) == binforms.hurwitz_class_number_boxdedup(4 * t)
    elapsed = time.monotonic() - t0
    _report(
        2,
        ok and elapsed < 30.0,
        f"coefficients equal H(4t) for t <= 50, constant term -1/12, {elapsed:.2f}s",
    )


# --- 3: beta1 accuracy --------------------------------------------------------------


def test_criterion_3_beta1_accuracy():
    from scipy.integrate import quad

    worst = 0.0
    for r in np.geomspace(1e-6, 50.0, 50):
        oracle, _ = quad(
            lambda u: math.exp(-r * u) / u, 1.0, math.inf, epsabs=1e-300, epsrel=1e-13, limit=400
        )
        worst = max(worst, abs(beta1(float(r)) - oracle) / oracle)
    law = max(
        abs(beta1(float(r)) + EULER_GAMMA + math.log(r)) / (2 * r)
        for r in np.geomspace(1e-6, 0.5, 25)
    )
    _report(
        3,
        worst <= 1e-12 and law <= 1.0,
        f"max rel err vs quadrature oracle {worst:.2e}, small-r law ratio {law:.3f}",
    )


# --- 4: rotation invariance of the height --------------------------------------------


def test_criterion_4_o2_invariance(lat_d1, spec):
    t0 = time.monotonic()
    rows = checks.suite_o2_invariance(lat_d1, 1729, spec)
    elapsed = time.monotonic() - t0
    bad = [r for r in rows if not r[1]]
    _report(
        4,
        not bad and elapsed < 600.0,
        f"20 rotation instances within 5e-3 (1 + |L|) in {elapsed:.1f}s",
    )


# --- 5: symmetry and gram-only dependence --------------------------------------------


def test_criterion_5_star_product_well_defined(lat_d1, spec):
    rows = checks.suite_symmetry(lat_d1, 1729, spec)
    bad = [r for r in rows if not r[1]]
    _report(
        5,
        not bad,
        f"{len(rows)} swap + gram-only instances within combined error estimates",
    )


# --- 6: a-independence ----------------------------------------------------------------


def test_criterion_6_a_independence(lat_d1, spec):
    rows = checks.suite_a_independence(lat_d1, 1729, spec)
    bad = [r for r in rows if not r[1]]
    _report(
        6,
        not bad,
        f"{len(rows)} (v, T) square-root comparisons within combined error estimates",
    )


# --- 7: enumeration completeness --------------------------------------------------------


def test_criterion_7_enumeration_completeness(lat_d1, ball_by_norms, brute_force_ball):
    # The norm-t lists over every t with 2|t| <= bound + 2, t = 0 included,
    # hold the whole ball, since the majorant is at least 2|Q|.
    rng = random.Random(1729)
    checked = 0
    for _ in range(50):
        z = UHPoint(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0))
        bound = rng.uniform(1.0, 10.0)
        got = sorted(ball_by_norms(lat_d1, z, bound))
        assert got == brute_force_ball(majorant(lat_d1, z), bound), (z, bound)
        checked += 1
    _report(7, checked == 50, "50 random (z, bound) instances: exact set equality")


# --- 8: classification predicates ---------------------------------------------------------


def _twin_pair_search(d: int, p: int, t_mat, max_den: int = 4) -> bool:
    """Rational pair search in the trace-zero lattice of an explicit twin.

    Searches x, y with Q = T11, T22 and half inner product T12 allowing
    denominators up to max_den; a hit certifies that the twin space
    represents T.
    """
    alg = indefinite_algebra_of_discriminant(d)
    tw = definite_twin(alg, p)
    d1, d2, d3 = int(-tw.a), int(-tw.b), int(tw.a * tw.b)

    def vecs(k):
        out = []
        if k <= 0:
            return out
        for x1 in range(-math.isqrt(k // d1), math.isqrt(k // d1) + 1):
            r1 = k - d1 * x1 * x1
            if r1 < 0:
                continue
            for x2 in range(-math.isqrt(r1 // d2), math.isqrt(r1 // d2) + 1):
                r2 = r1 - d2 * x2 * x2
                if r2 < 0:
                    continue
                for x3 in range(-math.isqrt(r2 // d3), math.isqrt(r2 // d3) + 1):
                    if d3 * x3 * x3 == r2:
                        out.append((x1, x2, x3))
        return out

    for nn in range(1, max_den + 1):
        v1 = vecs(nn * nn * t_mat[0][0])
        v2 = vecs(nn * nn * t_mat[1][1])
        target = nn * nn * t_mat[0][1]
        for x in v1:
            for y in v2:
                if d1 * x[0] * y[0] + d2 * x[1] * y[1] + d3 * x[2] * y[2] == target:
                    return True
    return False


def test_criterion_8_classification():
    # (a) vertical-components truth table, hand-evaluated Kronecker instances.
    table = [
        (1, 6, 2, False), (4, 6, 2, True), (8, 6, 2, False), (12, 6, 2, True),
        (16, 6, 2, True), (36, 6, 2, True), (9, 6, 3, True), (18, 6, 3, True),
        (45, 6, 3, True), (63, 6, 3, False), (117, 6, 3, True),
        (4, 10, 2, False), (20, 10, 2, True), (25, 10, 5, True),
        (50, 10, 5, True), (175, 10, 5, False),
    ]
    for t, d, p, expected in table:
        assert idn.vertical_components(t, d, p) == expected, (t, d, p)

    # (b) fundamental-prime uniqueness on a 200-instance scan, with the
    # explicit twin-lattice pair search confirming every small instance.
    rng = random.Random(2718)
    small_checked = 0
    for k in range(200):
        d = (1, 6, 10)[k % 3]
        small = k % 5 < 2
        hi = 6 if small else 12
        while True:
            t1 = rng.randint(1, hi)
            t2 = rng.randint(1, hi)
            mmax = math.isqrt(t1 * t2 - 1) if t1 * t2 > 1 else 0
            m = rng.randint(-min(mmax, hi), min(mmax, hi))
            if t1 * t2 - m * m > 0:
                break
        t_mat = ((t1, m), (m, t2))
        p = idn.fundamental_prime(t_mat, d)  # the one prime of Diff(T, B), or None
        if small:
            small_checked += 1
            cands = sorted({2, 3, 5, 7, 11, 13} | ({p} if p else set()))
            for q in cands:
                assert _twin_pair_search(d, q, t_mat) == (q == p), (d, t_mat, p, q)

    # (c) representation numbers of x^2 + y^2 + z^2 against brute force.
    from ariththeta.lattice import load_order, representation_count, trace_zero_lattice

    lip = trace_zero_lattice(
        load_order(
            {
                "label": "lipschitz",
                "a": "-1",
                "b": "-1",
                "discriminant": 2,
                "basis": [
                    ["1", "0", "0", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "0", "0", "1"],
                ],
            }
        )
    )
    for t in range(1, 51):
        brute = sum(
            1
            for x in range(-7, 8)
            for y in range(-7, 8)
            for z in range(-7, 8)
            if x * x + y * y + z * z == t
        )
        assert representation_count(lip, t) == brute, t
    assert representation_count(lip, 7) == 0

    _report(
        8,
        True,
        f"truth table (16 cases), 200-instance scan with {small_checked} pair-search "
        "confirmations, r3 brute force to t = 50",
    )


# --- 9: exact constants ----------------------------------------------------------------


def test_criterion_9_exact_constants():
    assert idn.zeta_db_at_minus1(1) == Fraction(-1, 12)
    assert idn.zeta_db_at_minus1(6) == Fraction(-1, 6)
    # Linearity of constant_c, exact in the rational part: slope 2/hodge_degree.
    for d in (1, 6, 10):
        h = Fraction(5, 7)
        c0 = idn.constant_c(0.0, d, h)
        c1 = idn.constant_c(1.0, d, h)
        assert abs((c1 - c0) - float(2 / h)) < 1e-12
        zd = idn.zeta_db_at_minus1(d)
        pairing = float(zd) * idn.bracket_constant(d)
        assert abs(idn.constant_c(pairing, d, h)) < 1e-12
    _report(
        9,
        True,
        "zeta values for D = 1, 6 and exact linearity; the D = 10 literal has "
        "its own check",
    )


def test_criterion_9_checklist_literal_zeta_10():
    # zeta_D(-1) = zeta(-1) prod_{p | D} (1 - p), so for D = 10 = 2 * 5 the
    # value is (-1/12)(1 - 2)(1 - 5) = -1/3.  An older checklist pinned -3/4,
    # which needs the factor 1 - 10 (treating 10 as a prime) and contradicts
    # the -1/6 it demands at D = 6.
    value = idn.zeta_db_at_minus1(10)
    # Independent oracle: Riemann-Hurwitz on the compact curve X_D gives
    # -2 zeta_D(-1) = 2g - 2 + e2/2 + 2 e3/3, where e2 and e3 count the
    # elliptic points of order 2 and 3.  Both X_6 and X_10 have genus g = 0
    # (Ogg; Alsina-Bayer tables).
    genus = 0
    rh_ok = True
    for d, primes in ((6, (2, 3)), (10, (2, 5))):
        e2 = math.prod(1 - kronecker_symbol(-4, p) for p in primes)
        e3 = math.prod(1 - kronecker_symbol(-3, p) for p in primes)
        rh = 2 * genus - 2 + Fraction(e2, 2) + Fraction(2 * e3, 3)
        rh_ok = rh_ok and -2 * idn.zeta_db_at_minus1(d) == rh
    _report(
        9,
        value == Fraction(-1, 3) and rh_ok,
        f"zeta_10(-1) = {value}, the Euler product (-1/12)(1-2)(1-5) = -1/3; "
        f"Riemann-Hurwitz on X_6, X_10 {'agrees' if rh_ok else 'disagrees'}",
    )


# --- 10: determinism ---------------------------------------------------------------------


def test_criterion_10_determinism():
    cmd = [sys.executable, "-m", "ariththeta.cli", "check", "full", "--seed", "1729"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    _report(
        10,
        ok,
        f"full check suite twice, same seed: byte-identical "
        f"({len(a.stdout.splitlines())} report lines)",
    )
