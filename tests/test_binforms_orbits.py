"""Form reduction, Hurwitz class numbers, and unit-group orbit machinery."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ariththeta as at
from ariththeta import binforms, splitorbits as so
from ariththeta.binforms import (
    hurwitz_class_number,
    hurwitz_class_number_boxdedup,
    is_reduced,
    reduce_form,
    reduced_classes,
)
from ariththeta.errors import PreconditionViolation
from ariththeta.numtheory import squarefree_part


def test_hurwitz_hand_values():
    assert hurwitz_class_number(3) == Fraction(1, 3)
    assert hurwitz_class_number(4) == Fraction(1, 2)
    assert hurwitz_class_number(23) == 3
    assert hurwitz_class_number(0) == Fraction(-1, 12)
    assert hurwitz_class_number(1) == 0
    assert hurwitz_class_number(2) == 0


def test_hurwitz_rejects_negative_n():
    for route in (hurwitz_class_number, hurwitz_class_number_boxdedup):
        with pytest.raises(PreconditionViolation):
            route(-3)


def test_hurwitz_two_routes_agree_to_2000_and_at_m_2999():
    # Every n <= 2000, and every 4m - s^2 of the Kronecker-Hurwitz relation at
    # m = 2999, the top of the benchmark's range of m.
    top = {4 * 2999 - s * s for s in range(math.isqrt(4 * 2999) + 1)}
    for n in sorted(set(range(0, 2001)) | top):
        assert hurwitz_class_number(n) == hurwitz_class_number_boxdedup(n), n


def test_hurwitz_zagier_table():
    # H(n) for n = 3, 4, ..., 20 (0 off the allowed residues).
    table = {
        3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
        12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2,
    }
    for n, h in table.items():
        assert hurwitz_class_number(n) == h


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=-15, max_value=15))
def test_reduce_form_is_class_invariant(a, b):
    # Reduction is idempotent and constant on SL2(Z) translates.
    disc = -(4 * a * 3 - b * b)
    if disc >= 0 or b * b - 4 * a * 3 != disc:
        return
    form = (a, b, 3)
    if binforms.discriminant(form) >= 0:
        return
    red = reduce_form(form)
    assert is_reduced(red)
    assert reduce_form(red) == red
    # Translate by a few generators of SL2(Z): (a,b,c) -> (a, b+2a, a+b+c), swap.
    aa, bb, cc = form
    shifted = (aa, bb + 2 * aa, aa + bb + cc)
    assert reduce_form(shifted) == red
    swapped = (cc, -bb, aa)
    assert reduce_form(swapped) == red


def test_reduced_classes_disc_minus_20():
    assert reduced_classes(-20) == [(1, 0, 5), (2, 2, 3)]


def test_reduced_classes_match_brute_force_to_3000():
    # Every (a, b, c) with b^2 - 4ac = d in [-3000, -3] and 1 <= a <= sqrt(|d|/3)
    # that passes is_reduced; |b| > a never passes, so b runs over [-a, a].
    top = 3000
    brute: dict[int, list] = {d: [] for d in range(-top, -2)}
    for a in range(1, math.isqrt(top // 3) + 1):
        for b in range(-a, a + 1):
            # d = b^2 - 4ac runs from -3 down to -top, and 3a^2 <= |d|.
            for c in range((b * b + 3 + 4 * a - 1) // (4 * a), (b * b + top) // (4 * a) + 1):
                d = b * b - 4 * a * c
                if 3 * a * a <= -d and is_reduced((a, b, c)):
                    brute[d].append((a, b, c))
    for d, forms in brute.items():
        assert reduced_classes(d) == sorted(forms), d


def test_reduced_form_runs_visit_each_reduced_form_once():
    # Against reduced_classes(-4t) one t at a time, with multiplicity.
    top = 1000
    seen: dict[int, list] = {t: [] for t in range(1, top + 1)}
    for a, b, cs in binforms.reduced_form_runs(top):
        for c in cs:
            seen[a * c - b * b // 4].append((a, b, c))
    for t, forms in seen.items():
        assert sorted(forms) == reduced_classes(-4 * t), t


# --- vector orbits on the split model ----------------------------------------


def _random_gl2z(rng, steps=8):
    m = (1, 0, 0, 1)
    gens = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0), (1, 0, 0, -1)]
    for _ in range(steps):
        g = rng.choice(gens)
        m = (
            m[0] * g[0] + m[1] * g[2],
            m[0] * g[1] + m[1] * g[3],
            m[2] * g[0] + m[3] * g[2],
            m[2] * g[1] + m[3] * g[3],
        )
    return m


def test_orbit_label_invariant_under_conjugation():
    rng = random.Random(11)
    for t in (1, 2, 3, 5, 6, 11):
        for rep in so.orbit_reps(t):
            label = so.canonical_orbit_form(rep)
            for _ in range(12):
                g = _random_gl2z(rng)
                moved = so.apply3(so.conj_action(g), rep)
                assert so.q_value(moved) == t
                assert so.canonical_orbit_form(moved) == label


def test_orbit_reps_are_pairwise_inequivalent():
    for t in (1, 2, 3, 5, 12):
        labels = [so.canonical_orbit_form(r) for r in so.orbit_reps(t)]
        assert len(labels) == len(set(labels))


def test_stabilizer_orders():
    # Unit counts 4, 2, 6 for the orbits attached to x^2+y^2, x^2+2y^2,
    # and the half-integral hexagonal class at t = 3.
    assert len(so.commuting_units(so.vector_of_form((1, 0, 1)))) == 4
    assert len(so.commuting_units(so.vector_of_form((1, 0, 2)))) == 2
    assert len(so.commuting_units(so.vector_of_form((2, 2, 2)))) == 6


def test_stabilizers_fix_their_vector():
    for t in (1, 3, 5):
        for rep in so.orbit_reps(t):
            for g in so.commuting_units(rep):
                assert so.apply3(so.conj_action(g), rep) == rep
            for g in so.anticommuting_flips(rep):
                moved = so.apply3(so.conj_action(g), rep)
                assert moved == (-rep[0], -rep[1], -rep[2])


def test_weighted_orbit_degree_equals_hurwitz(lat_d1):
    for t in range(1, 31):
        assert at.weighted_orbit_degree(lat_d1, t) == hurwitz_class_number(4 * t)


def test_weighted_orbit_degree_requires_split(lat_d6):
    from ariththeta.errors import UnsupportedDiscriminant

    with pytest.raises(UnsupportedDiscriminant):
        at.weighted_orbit_degree(lat_d6, 1)


# --- pair orbits --------------------------------------------------------------


def _gram(p):
    x1, x2 = p
    return (so.q_value(x1), so.inner(x1, x2) // 2, so.q_value(x2))


@pytest.mark.parametrize(
    "t1,m,t2",
    [(1, 0, -1), (1, 1, -1), (2, 1, -1), (1, 2, 1), (-1, 0, -1), (-1, 1, -2), (-2, 1, -2), (3, 1, -2)],
)
def test_pair_reps_have_the_right_gram(t1, m, t2):
    reps = so.pair_orbit_reps(t1, m, t2)
    for rep in reps:
        assert _gram(rep) == (t1, m, t2)


def _small_grams():
    """Every nonsingular gram with |t1|, |t2| <= 4 and |m| <= 3 that is not positive definite."""
    return [
        (t1, m, t2)
        for t1, m, t2 in itertools.product(range(-4, 5), range(-3, 4), range(-4, 5))
        if t1 * t2 != m * m and not (t1 * t2 > m * m and t1 > 0)
    ]


def test_pair_counts_invariant_under_unimodular_change():
    # N(T) = N(S^T T S): the pairs biject by x -> x S, a completely different
    # run of the enumeration machinery (different base norms and fibers).
    # Five grams take six S each, with entries within 3 and, as more inputs,
    # within 12; every small gram takes one S with entries within 3.
    rng = random.Random(5)
    mats = [(1, 0, -1), (1, 1, -1), (-1, 1, -2), (2, 1, -1), (-1, 0, -1)]
    cases = [(gram, bound) for gram in mats for bound in (3, 3, 3, 12, 12, 12)]
    cases += [(gram, 3) for gram in _small_grams()]
    for (t1, m, t2), bound in cases:
        n0 = len(so.pair_orbit_reps(t1, m, t2))
        while True:
            a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
            c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
            if a * d - b * c == 1:
                break
        tt1 = a * a * t1 + 2 * a * b * m + b * b * t2
        ttm = a * c * t1 + (a * d + b * c) * m + b * d * t2
        tt2 = c * c * t1 + 2 * c * d * m + d * d * t2
        assert len(so.pair_orbit_reps(tt1, ttm, tt2)) == n0, (t1, m, t2, a, b, c, d)


def test_pair_reps_with_large_positive_vectors():
    # Both grams have signature (1,1), but every vector of positive value has
    # a coordinate above 50. Each count must match that of a unimodular image
    # with t1 > 0, which needs no transform.
    for t_mat, image in [((-100, 1, 0), (100, 1, 0)), ((0, 1, -100), (100, -1, 0))]:
        reps = so.pair_orbit_reps(*t_mat)
        assert reps
        for rep in reps:
            assert _gram(rep) == t_mat
        assert len(reps) == len(so.pair_orbit_reps(*image)), t_mat


def test_transform_for_positive_on_every_small_gram():
    for t1 in range(-8, 9):
        for m in range(-8, 9):
            for t2 in range(-8, 9):
                if t1 * t2 - m * m >= 0:
                    continue
                (a, x, b, y), gram = so._transform_for_positive(t1, m, t2)
                assert a * y - b * x == 1, (t1, m, t2)
                assert gram == (
                    a * a * t1 + 2 * a * b * m + b * b * t2,
                    a * x * t1 + (a * y + b * x) * m + b * y * t2,
                    x * x * t1 + 2 * x * y * m + y * y * t2,
                ), (t1, m, t2)
                assert gram[0] > 0, (t1, m, t2)


def test_pair_counts_swap_and_sign_symmetries():
    grams = _small_grams()
    assert len(grams) == 462
    counts = {gram: len(so.pair_orbit_reps(*gram)) for gram in grams}
    for (t1, m, t2), n in counts.items():
        assert counts[(t2, m, t1)] == n and counts[(t1, -m, t2)] == n, (t1, m, t2)


@pytest.mark.parametrize(
    "gram,calls",
    [((-2, 1, -2), (0, 0, 0)), ((1, 2, 1), (0, 0, 0)), ((-3, 2, -2), (1, 1, 4))],
)
def test_stabilizers_are_found_only_where_a_pair_lands(monkeypatch, gram, calls):
    # (-2, 1, -2) and (1, 2, 1) have no pairs, so no stabilizer is needed;
    # (-3, 2, -2) has pairs on one anchor, whose stabilizer of 4 acts as 2 actions.
    names = ("commuting_units", "anticommuting_flips", "conj_action")
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, _name=name, _fn=getattr(so, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(so, name, counting)
    so.pair_orbit_reps(*gram)
    assert tuple(counts[name] for name in names) == calls


def _anchors(t1, m, t2):
    """The primitive anchors of a signature (0,2) gram, before _pair_reps_sig02 drops opposite orbits."""
    det_t = t1 * t2 - m * m
    s = squarefree_part(det_t)
    vectors = (
        so.vector_of_form(form)
        for j in range(1, math.isqrt(4 * det_t // s) + 1)
        for form in reduced_classes(-4 * s * j * j)
    )
    return [v for v in vectors if math.gcd(*v) == 1]


def test_units_come_in_pairs_that_act_alike():
    # -I is a unit, so -g is in each stabilizer with g, and conj_action(-g)
    # equals conj_action(g): only half of the listed actions are distinct.
    vectors = [rep for t in range(1, 13) for rep in so.orbit_reps(t)]
    vectors += _anchors(-1, 0, -1) + _anchors(-3, 2, -2)
    for v in vectors:
        group = so.commuting_units(v) + so.anticommuting_flips(v)
        for g in group:
            neg = tuple(-e for e in g)
            assert neg in group, (v, g)
            assert so.conj_action(neg) == so.conj_action(g), (v, g)
        assert 2 * len({so.conj_action(g) for g in group}) == len(group), v


def test_pair_reps_empty_for_unrepresented_gram():
    # (1, 2, 1) has det -3 but the fiber over any base vector is empty.
    assert so.pair_orbit_reps(1, 2, 1) == []


def test_fiber_solver_against_box_scan():
    # The quadratic fiber solver must produce exactly the box-scan solutions.
    # At the CM point of x1, the majorant 2 (x1, y)^2 / (x1, x1) - (y, y) is
    # 4 m^2 / t1 - 2 t2 on every y of the fiber, so the Cauchy-Schwarz box
    # of that majorant ball holds the whole fiber.
    g = np.array([[-2, 0, 0], [0, 0, -1], [0, -1, 0]])  # the gram of the pairing
    for x1, m, t2 in [
        ((0, 1, -1), 1, -1),
        ((0, 1, -1), 0, -2),
        ((-1, -2, 2), 1, -1),
        ((0, 1, -1), 2, 1),
    ]:
        t1 = so.q_value(x1)
        gx = g @ x1
        form = np.outer(gx, gx) / t1 - g
        half = np.floor(np.sqrt((4 * m * m / t1 - 2 * t2) * np.diag(np.linalg.inv(form)))).astype(int) + 1
        brute = [
            y
            for y in itertools.product(*(range(-h, h + 1) for h in half))
            if so.inner(x1, y) == 2 * m and so.q_value(y) == t2
        ]
        assert so._fiber(x1, 2 * m, t2) == brute, (x1, m, t2)


def _conic_box_scan(a, b, c, d, e, f):
    """Integer zeros of the conic by scanning a disc that provably holds them all.

    The form's smaller eigenvalue lam gives |a s^2 + b su + c u^2| >= lam R^2 with
    R^2 = s^2 + u^2, and |d s + e u + f| <= g R + |f| with g = |(d, e)|, so a zero
    has lam R^2 <= g R + |f|.
    """
    lam = ((abs(a) + abs(c)) - math.hypot(a - c, b)) / 2
    g = math.hypot(d, e)
    radius = math.ceil((g + math.sqrt(g * g + 4 * lam * abs(f))) / (2 * lam)) + 1
    span = range(-radius, radius + 1)
    return [
        (s, u)
        for s in span
        for u in span
        if a * s * s + b * s * u + c * u * u + d * s + e * u + f == 0
    ]


def test_conic_points_against_box_scan():
    rng = random.Random(1729)
    nonempty = 0
    for k in range(160):
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        bmax = math.isqrt(4 * a * c - 1)
        b = rng.randint(-bmax, bmax)
        d, e = rng.randint(-9, 9), rng.randint(-9, 9)
        if k % 2:
            # Put a chosen point on the conic, so that most of these are nonempty.
            s0, u0 = rng.randint(-6, 6), rng.randint(-6, 6)
            f = -(a * s0 * s0 + b * s0 * u0 + c * u0 * u0 + d * s0 + e * u0)
        else:
            f = rng.randint(-40, 40)
        if k % 4 >= 2:
            a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
        got = so._conic_points(a, b, c, d, e, f)
        assert got == _conic_box_scan(a, b, c, d, e, f), (a, b, c, d, e, f)
        nonempty += bool(got)
    assert nonempty >= 80


def test_conic_points_edge_cases():
    assert so._conic_points(1, 0, 1, f=1) == []  # s^2 + u^2 = -1
    assert so._conic_points(1, 0, 1, f=-3) == []  # real points, none integral
    # (s - 2)^2 + (u + 1)^2 = 0 in both signs, and the homogeneous zero.
    assert so._conic_points(1, 0, 1, -4, 2, 5) == [(2, -1)]
    assert so._conic_points(-1, 0, -1, 4, -2, -5) == [(2, -1)]
    assert so._conic_points(2, 1, 3) == [(0, 0)]
    assert so._conic_points(1, 1, 1, f=-1) == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]
    with pytest.raises(PreconditionViolation):
        so._conic_points(1, 2, 1, f=-1)


def test_pair_reps_pairwise_inequivalent_under_random_conjugation():
    rng = random.Random(23)
    for t1, m, t2 in [(1, 0, -1), (-1, 0, -1), (1, 1, -1)]:
        reps = so.pair_orbit_reps(t1, m, t2)
        # Conjugating any rep never lands on another rep's exact pair.
        others = set()
        for k, rep in enumerate(reps):
            for _ in range(40):
                g = _random_gl2z(rng)
                act = so.conj_action(g)
                moved = (so.apply3(act, rep[0]), so.apply3(act, rep[1]))
                others.add((k, moved))
        seen = {}
        for k, moved in others:
            if moved in seen:
                assert seen[moved] == k
            seen[moved] = k


# --- the split model's formulas ------------------------------------------------


def _matrix(x):
    a, b, c = x
    return np.array([[a, b], [c, -a]], dtype=float)


def test_conj_action_on_real_matrices():
    # Oracle: g X g^{-1} by numpy, inverse included, for real g of any det != 0.
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = rng.uniform(-2.0, 2.0, 4)
        det = g[0] * g[3] - g[1] * g[2]
        if abs(det) < 0.05:
            continue
        x, y = rng.uniform(-3.0, 3.0, (2, 3))
        act = so.conj_action(tuple(g))
        moved = so.apply3(act, tuple(x))
        want = g.reshape(2, 2) @ _matrix(x) @ np.linalg.inv(g.reshape(2, 2))
        assert np.allclose(_matrix(moved), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        scale = 1.0 + np.abs(x).max() * np.abs(y).max()
        assert math.isclose(so.q_value(moved), so.q_value(x), rel_tol=1e-12, abs_tol=1e-12 * scale)
        assert math.isclose(
            so.inner(moved, so.apply3(act, tuple(y))), so.inner(x, y), rel_tol=1e-12, abs_tol=1e-12 * scale
        )
    for singular in [(1, 2, 2, 4), (0.0, 0.0, 0.0, 0.0), (0.5, 1.0, 1.5, 3.0)]:
        with pytest.raises(PreconditionViolation):
            so.conj_action(singular)


def test_inner_is_the_polarization_of_q():
    # (x, y) = Q(x + y) - Q(x) - Q(y): exactly on integers, to rounding on
    # floats; PairConfig's gram is (Q(x1), (x1, x2)/2, Q(x2)) exactly.
    from ariththeta.starprod import PairConfig

    rng = random.Random(5)
    for _ in range(300):
        x = tuple(rng.randint(-50, 50) for _ in range(3))
        y = tuple(rng.randint(-50, 50) for _ in range(3))
        s = tuple(a + b for a, b in zip(x, y))
        assert so.inner(x, y) == so.q_value(s) - so.q_value(x) - so.q_value(y)
        assert so.inner(x, x) == 2 * so.q_value(x)
    for _ in range(300):
        x = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        y = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        s = tuple(a + b for a, b in zip(x, y))
        polar = so.q_value(s) - so.q_value(x) - so.q_value(y)
        assert math.isclose(so.inner(x, y), polar, rel_tol=1e-12, abs_tol=1e-13)
        m = so.inner(x, y) / 2.0
        assert PairConfig.from_vectors(x, y).gram == ((so.q_value(x), m), (m, so.q_value(y)))


def test_pair_action_is_the_matrix_product():
    # (x1, x2) . a is the columns of [x1 x2] @ a: exactly on integers.
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.integers(-20, 21, (3, 2))
        a = rng.integers(-5, 6, (2, 2))
        got = so.pair_action((tuple(x[:, 0].tolist()), tuple(x[:, 1].tolist())), tuple(a.ravel().tolist()))
        assert np.array_equal(np.array(got).T, x @ a)
        xf, af = rng.uniform(-3.0, 3.0, (3, 2)), rng.uniform(-2.0, 2.0, (2, 2))
        got = so.pair_action((tuple(xf[:, 0]), tuple(xf[:, 1])), af.ravel())
        assert np.allclose(np.array(got).T, xf @ af, rtol=1e-15, atol=1e-14)
