"""Orders as data, trace-zero lattices, majorants and enumeration."""

import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ariththeta as at
from ariththeta.errors import (
    BoundTooLarge,
    DegenerateOrder,
    OrderDataError,
    PreconditionViolation,
    UnsupportedDiscriminant,
)
from ariththeta.greens import UHPoint, _norm_count, r_value
from ariththeta.identities import degree_series
from ariththeta.lattice import (
    Order,
    _cholesky3,
    _det3,
    _enumerate_norm,
    _nonnegative_rows,
    _pivot_shrink,
    load_order,
    majorant,
    model_coordinates,
    model_coordinates_float,
    representation_count,
    trace_zero_lattice,
    validate_order,
    vectors_of_norm,
)
from ariththeta.quatalg import make_algebra


def _signature(gram):
    """(positive, negative) eigenvalue counts of an integer gram."""
    eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def test_bundled_orders_validate(lat_d1, lat_d6, lat_d10):
    assert lat_d1.discriminant == 1
    assert lat_d6.discriminant == 6
    assert lat_d10.discriminant == 10
    for lat in (lat_d1, lat_d6, lat_d10):
        assert _signature(lat.gram) == (1, 2)


def test_gram_regressions(lat_d1, lat_d6, lat_d10):
    # |det gram| = 2 D^2, frozen after an independent hand computation.
    for lat, expect in ((lat_d1, 2), (lat_d6, 72), (lat_d10, 200)):
        det = round(np.linalg.det(np.array(lat.gram, dtype=float)))
        assert abs(det) == expect


def test_d1_is_split_matrix_model(lat_d1):
    assert lat_d1.is_split_model
    # Q on the model is the determinant of [[a, b], [c, -a]].
    assert lat_d1.q_value((1, 0, 0)) in (-1, -1)
    c = model_coordinates(lat_d1)
    det = (
        c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
        - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
        + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0])
    )
    assert abs(det) == 1


def test_d1_q_is_determinant(lat_d1):
    c = model_coordinates(lat_d1)
    for n in [(1, 0, 0), (0, 1, 0), (2, -1, 3), (-1, 4, 2)]:
        alpha = sum(c[0][k] * n[k] for k in range(3))
        beta = sum(c[1][k] * n[k] for k in range(3))
        gamma = sum(c[2][k] * n[k] for k in range(3))
        assert lat_d1.q_value(n) == -alpha * alpha - beta * gamma


def test_lipschitz_definite_lattice_is_sum_of_squares(lat_lipschitz):
    assert _signature(lat_lipschitz.gram) == (3, 0)
    assert sorted(lat_lipschitz.gram[i][i] for i in range(3)) == [2, 2, 2]
    assert representation_count(lat_lipschitz, 1) == 6
    assert representation_count(lat_lipschitz, 7) == 0


def test_loader_rejects_bad_basis():
    bad = {
        "label": "broken",
        "a": "-1",
        "b": "-1",
        "discriminant": 2,
        "basis": [["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }
    with pytest.raises(OrderDataError):
        load_order(bad)  # 2i, i*j = ij not in the span


def test_loader_rejects_wrong_discriminant():
    bad = {
        "label": "mislabel",
        "a": "-1",
        "b": "-1",
        "discriminant": 6,
        "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }
    with pytest.raises(OrderDataError):
        load_order(bad)


@pytest.mark.parametrize("zero", ["a", "b"])
def test_loader_types_a_zero_structure_constant(tmp_path, zero):
    # make_algebra refuses a = 0 or b = 0; from an order file that is malformed data.
    basis = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    data = {"a": "-1", "b": "-1", "discriminant": 2, "basis": basis, zero: "0"}
    path = tmp_path / "order.json"
    path.write_text(json.dumps(data))
    with pytest.raises(OrderDataError, match="structure constants must be nonzero"):
        load_order(path)


def test_loader_reads_json_integers_like_strings():
    # A rational may be a string or a JSON integer (a JSON float is refused, tests/test_cli.py).
    strings = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    ints = [[int(e) for e in row] for row in strings]
    a = load_order({"a": "-1", "b": "-1", "discriminant": 2, "basis": strings})
    b = load_order({"a": -1, "b": -1, "discriminant": 2, "basis": ints})
    assert (a.algebra, a.basis) == (b.algebra, b.basis)


def test_loader_rejects_nonintegral_trace():
    bad = {
        "label": "halftrace",
        "a": "-1",
        "b": "-1",
        "discriminant": 2,
        "basis": [["1/2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    }
    with pytest.raises(OrderDataError):
        load_order(bad)


HALF = Fraction(1, 2)
# (a, b, reduced discriminant, basis): the definite maximal orders of class
# number one at D = 2, 3, 7, and the Eichler order of level 2 in the split
# algebra, the upper triangular matrices mod 2 inside d1's M_2(Z).
EXTRA_ORDERS = {
    "D2": ("-1", "-1", 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [HALF, HALF, HALF, HALF]]),
    "D3": ("-1", "-3", 3, [[1, 0, 0, 0], [0, 1, 0, 0], [HALF, 0, HALF, 0], [0, HALF, 0, HALF]]),
    "D7": ("-1", "-7", 7, [[1, 0, 0, 0], [0, 1, 0, 0], [HALF, 0, HALF, 0], [0, HALF, 0, HALF]]),
    "eichler2": ("1", "1", 2, [[HALF, HALF, 0, 0], [HALF, -HALF, 0, 0], [0, 0, HALF, HALF], [0, 0, 1, -1]]),
}


def _order(name):
    """A bundled order by name, or one of EXTRA_ORDERS, through load_order."""
    if name in EXTRA_ORDERS:
        a, b, _, basis = EXTRA_ORDERS[name]
        disc = make_algebra(Fraction(a), Fraction(b)).discriminant
        return load_order({"a": a, "b": b, "discriminant": disc, "basis": basis})
    return at.bundled_order(name)


def _unimodular(rng):
    """A random matrix of GL_4(Z): elementary row operations, then one row negated."""
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(12):
        i, j = rng.sample(range(4), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    i = rng.randrange(4)
    u[i] = [-x for x in u[i]]
    return u


def _rebased(order, u):
    """The same order on the basis u B, built without load_order."""
    basis = tuple(
        sum((e * c for e, c in zip(order.basis, row)), order.algebra.element(0)) for row in u
    )
    return Order(algebra=order.algebra, basis=basis)


@pytest.mark.parametrize("name,expect", [("d1", 1), ("d6", 6), ("d10", 10), ("D2", 2), ("D3", 3), ("D7", 7), ("eichler2", 2)])
def test_reduced_discriminant_matches_trace_pairing(name, expect, trace_pairing_discriminant):
    # 4 |a b det B| against sqrt |det trd(e_i conj(e_j))|, on the given basis
    # and on four random GL_4(Z) changes of it.
    order = _order(name)
    assert order.reduced_discriminant() == trace_pairing_discriminant(order) == expect
    rng = random.Random(name)
    for _ in range(4):
        u = _unimodular(rng)
        assert round(abs(np.linalg.det(np.array(u, dtype=float)))) == 1
        moved = _rebased(order, u)
        validate_order(moved)
        assert moved.reduced_discriminant() == trace_pairing_discriminant(moved) == expect


def test_degree_series_refuses_the_eichler_order():
    lat = trace_zero_lattice(_order("eichler2"))
    with pytest.raises(UnsupportedDiscriminant):
        degree_series(lat, v=1.0, n=2)


@pytest.mark.parametrize("name", ["d1", "d6", "d10", "D3"])
def test_coordinates_of_recovers_integer_coordinates(name):
    order = _order(name)
    rng = random.Random(name)
    for _ in range(20):
        c = [rng.randint(-9, 9) for _ in range(4)]
        x = sum((e * k for e, k in zip(order.basis, c)), order.algebra.element(0))
        assert order.coordinates_of(x) == c
        assert order.contains(x)
        c[rng.randrange(4)] += HALF
        y = sum((e * k for e, k in zip(order.basis, c)), order.algebra.element(0))
        assert order.coordinates_of(y) is None
        assert not order.contains(y)


def test_dependent_basis_is_an_order_data_error():
    # e2 = e0 + e1: the relation (-1, -1, 1, 0) . basis = 0.
    basis = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "0", "1"]]
    with pytest.raises(OrderDataError, match=re.escape("linearly dependent: (-1, -1, 1, 0)")):
        load_order({"a": "-1", "b": "-1", "discriminant": 2, "basis": basis})
    # Built without load_order, the trace-zero gram is degenerate.
    alg = make_algebra(-1, -1)
    order = Order(algebra=alg, basis=(alg.one, alg.i, alg.j, alg.i + alg.j))
    with pytest.raises(DegenerateOrder):
        trace_zero_lattice(order)
    with pytest.raises(OrderDataError, match="linearly dependent"):
        order.reduced_discriminant()


# --- majorant ---------------------------------------------------------------


def test_majorant_positive_definite_at_i(lat_d1):
    m = majorant(lat_d1, UHPoint(0.0, 1.0))
    assert np.linalg.eigvalsh(m)[0] > 0


def test_majorant_rejects_definite(lat_lipschitz):
    with pytest.raises(PreconditionViolation):
        majorant(lat_lipschitz, UHPoint(0.0, 1.0))


def test_majorant_value_at_divisor_is_2t(lat_d1):
    # x = [[0,1],[-1,0]] has Q = 1 and divisor at i; there R = 0 and the
    # majorant value is (x, x) + 4R = 2t.
    c = model_coordinates(lat_d1)
    cinv = np.linalg.inv(np.array([[float(e) for e in row] for row in c]))
    n = cinv @ np.array([0.0, 1.0, -1.0])
    n = np.rint(n).astype(int)
    m = majorant(lat_d1, UHPoint(0.0, 1.0))
    assert abs(float(n @ m @ n) - 2.0) < 1e-12


def test_majorant_exact_rational_identity(lat_d1):
    # majorant = 2 (Q + 2R) in exact arithmetic at rational z on the split model.
    z = UHPoint(Fraction(1, 3), Fraction(5, 4))
    c = model_coordinates(lat_d1)
    m = majorant(lat_d1, UHPoint(float(z.u), float(z.v)))
    for n in [(1, 0, 0), (0, 1, 0), (1, -2, 3), (2, 1, -1)]:
        vec = tuple(sum(c[r][k] * n[k] for k in range(3)) for r in range(3))
        exact = 2 * (lat_d1.q_value(n) + 2 * r_value(vec, z))
        got = float(np.array(n) @ m @ np.array(n))
        assert abs(got - float(exact)) < 1e-9 * (1 + abs(float(exact)))


def _seeded_points(count=300, seed=1729):
    rng = np.random.default_rng(seed)
    return [UHPoint(float(u), float(v)) for u, v in zip(rng.uniform(-1.5, 1.5, count), rng.uniform(0.3, 2.5, count))]


@pytest.mark.parametrize("name", ["lat_d1", "lat_d6", "lat_d10"])
def test_majorant_equals_array_expression(request, name):
    # The plain-float entries are the array expression's operations, so its bits.
    lat = request.getfixturevalue(name)
    alpha, beta, gamma = model_coordinates_float(lat)
    for z in _seeded_points():
        u, v = z.u, z.v
        r = gamma * (u * u - v * v) - 2 * alpha * u - beta
        i = gamma * (2 * u * v) - 2 * alpha * v
        m = majorant(lat, z)
        assert np.array_equal(m, np.array(lat.gram) + (np.outer(r, r) + np.outer(i, i)) / (v * v)), z
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("name", ["lat_d1", "lat_d6", "lat_d10"])
def test_cholesky3_matches_lapack(request, name):
    lat = request.getfixturevalue(name)
    for z in _seeded_points():
        m = majorant(lat, z)
        (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
        u = np.zeros((3, 3))
        u[np.triu_indices(3)] = _cholesky3(m00, m01, m02, m11, m12, m22)
        ref = np.linalg.cholesky(m).T
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref), z
        assert np.abs(u.T @ u - m).max() <= 4 * np.finfo(float).eps * np.abs(m).max(), z


# --- enumeration ------------------------------------------------------------


def _row_order(pts):
    return sorted(pts, key=lambda n: (n[2], n[1], n[0]))


def test_enumeration_empty_below_minimum(lat_d1, ball_by_norms):
    assert ball_by_norms(lat_d1, UHPoint(0.0, 1.0), 0.5) == []


def test_enumeration_matches_brute_force_d1_at_i(lat_d1, ball_by_norms, brute_force_ball):
    z = UHPoint(0.0, 1.0)
    got = sorted(ball_by_norms(lat_d1, z, 2.0))
    assert got == brute_force_ball(majorant(lat_d1, z), 2.0) and len(got) > 0


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.4, max_value=2.2),
    st.floats(min_value=0.8, max_value=12.0),
)
# +-(-11, -17, 7) has majorant value 8.9656 here, outside a fixed +-14 box.
@example(1.5, 0.40625, 9.0)
def test_enumeration_matches_brute_force_random(lat_d1, ball_by_norms, brute_force_ball, u, v, bound):
    z = UHPoint(u, v)
    assert sorted(ball_by_norms(lat_d1, z, bound)) == brute_force_ball(majorant(lat_d1, z), bound)


@pytest.mark.parametrize("name", ["lat_d6", "lat_d10"])
@pytest.mark.parametrize(
    "u,v,bound", [(0.0, 1.0, 12.0), (0.3, 0.5, 20.0), (-1.2, 0.35, 30.0), (0.45, 2.2, 48.0)]
)
def test_enumeration_matches_brute_force_d6_d10(request, ball_by_norms, brute_force_ball, name, u, v, bound):
    lat = request.getfixturevalue(name)
    z = UHPoint(u, v)
    got = sorted(ball_by_norms(lat, z, bound))
    assert got == brute_force_ball(majorant(lat, z), bound) and len(got) > 0


@pytest.mark.parametrize("name,u,v", [("lat_d1", 0.0, 1.0), ("lat_d6", 0.3, 0.5), ("lat_d10", -0.7, 1.4)])
def test_enumeration_bound_equal_to_a_vector_value(
    request, ball_by_norms, brute_force_ball, form_value, name, u, v
):
    # A bound equal to the six-product value of a lattice vector puts that
    # vector on the boundary: it is accepted at the bound and refused one
    # float below it, as that value decides.
    lat = request.getfixturevalue(name)
    z = UHPoint(u, v)
    m = majorant(lat, z)
    n = _row_order(brute_force_ball(m, 20.0))[-1]
    bound = form_value(m, n)
    below = float(np.nextafter(bound, 0.0))
    at_bound = ball_by_norms(lat, z, bound)
    under = ball_by_norms(lat, z, below)
    assert n in at_bound and n not in under
    assert sorted(at_bound) == brute_force_ball(m, bound)
    assert sorted(under) == brute_force_ball(m, below)


def test_norm_path_matches_q_value(lat_d1, lat_d6, lat_d10, lat_lipschitz, brute_force_ball):
    # Each norm list against the exact Q of every vector of the ball, in row order.
    for lat in (lat_d1, lat_d6, lat_d10):
        for z in (UHPoint(0.0, 1.0), UHPoint(0.31, 0.45), UHPoint(-1.1, 2.7)):
            ball = [(lat.q_value(n), n) for n in _row_order(brute_force_ball(majorant(lat, z), 40.0))]
            for t in sorted({q for q, _ in ball}):
                got = at.enumerate_by_majorant(lat, z, 40.0, norm=int(t))
                assert got == [n for q, n in ball if q == t], (z, t)
    # A definite lattice: vectors_of_norm against the ball of its gram form.
    lip = lat_lipschitz
    ball = _row_order(brute_force_ball(np.array(lip.gram, dtype=float), 2 * 12 + 1e-9))
    for t in range(1, 13):
        assert vectors_of_norm(lip, t) == [n for n in ball if lip.q_value(n) == t]


# --- the row solver of the norm path ----------------------------------------------


def _permuted(lat, z, perm):
    """Majorant and gram of lat in the basis (e_perm[0], e_perm[1], e_perm[2])."""
    m = majorant(lat, z)[np.ix_(perm, perm)]
    gram = tuple(tuple(lat.gram[i][j] for j in perm) for i in perm)
    return m, gram


def _solver_matches_oracle(brute_force_ball, m, gram, bound, t):
    got = _enumerate_norm(m, bound, gram, t)
    # Equal as lists in (n3, n2, n1) order, so roots come in increasing n1.
    assert got == _row_order(brute_force_ball(m, bound, gram, t)), (gram, bound, t)
    return got


@pytest.mark.parametrize("t", [-3, -2, 1, 2, 3])
def test_norm_rows_linear_case(lat_d1, brute_force_ball, t):
    # d1 with its first two basis vectors swapped: G00 = 0, b = -n3, so each
    # row with n3 != 0 is the linear equation -2 n3 n1 - 2 n2^2 = 2t.
    for z in (UHPoint(0.0, 1.0), UHPoint(0.4, 0.7), UHPoint(-0.9, 1.6)):
        m, gram = _permuted(lat_d1, z, (1, 0, 2))
        assert gram[0][0] == 0
        got = _solver_matches_oracle(brute_force_ball, m, gram, 30.0, t)
        assert got and all(n[2] != 0 for n in got)


@pytest.mark.parametrize("t", [-1, -4])
def test_norm_rows_whole_row_case(lat_d1, brute_force_ball, t):
    # In the same basis, the rows n3 = 0, n2 = +-sqrt(-t) have b = 0 and
    # c = 2t: every n1 of their range has Q = t.
    for z in (UHPoint(0.0, 1.0), UHPoint(0.4, 0.7)):
        m, gram = _permuted(lat_d1, z, (1, 0, 2))
        got = _solver_matches_oracle(brute_force_ball, m, gram, 40.0, t)
        whole = [n for n in got if n[2] == 0]
        assert len(whole) > 4 and {abs(n[1]) ** 2 for n in whole} == {-t}
        # The output bound: at most two whole rows (G00 = 0, b = c = 0), and
        # at most two roots on every other row.
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
        per_row = Counter(n[1:] for n in got)
        whole_rows = [
            (n2, n3)
            for n2, n3 in per_row
            if g01 * n2 + g02 * n3 == 0 and (g11 * n2 + 2 * g12 * n3) * n2 + g22 * n3 * n3 == 2 * t
        ]
        assert g00 == 0 and len(whole_rows) <= 2 and sorted(whole_rows) == sorted({n[1:] for n in whole})
        assert all(k <= 2 for row, k in per_row.items() if row not in whole_rows)


@pytest.mark.parametrize(
    "name,perm", [("lat_d1", (0, 1, 2)), ("lat_d6", (0, 1, 2)), ("lat_d10", (0, 1, 2)), ("lat_d1", (1, 0, 2))]
)
def test_row_count_bounds_the_norm_vectors(request, brute_force_ball, tail_pivots, name, perm):
    # big_xi's tail counts the norm-t vectors with M <= X by rows; here at
    # skewed z against the true count.  (1, 0, 2) on d1 is the whole-row
    # basis above (G00 = 0), whose rows at t = -1 and -4 are whole.
    lat = request.getfixturevalue(name)
    ts = (-4, -3, -2, -1, 1, 2, 3, 5)
    for z in (UHPoint(0.0, 0.05), UHPoint(5.3, 0.3), UHPoint(0.4, 0.7), UHPoint(-4.1, 2.2), UHPoint(2.7, 25.0)):
        m, gram = _permuted(lat, z, perm)
        pivots = tail_pivots(m)
        for x in (8.0, 16.0, 48.0, 96.0):
            found = brute_force_ball(m, x, gram, ts)
            true = Counter(sum(p * g * q for p, row in zip(n, gram) for g, q in zip(row, n)) // 2 for n in found)
            for t in ts:
                assert _norm_count(pivots, x, gram[0][0] == 0) >= true[t], (z, x, t)


def _exact_pivots_squared(m):
    """U00^2, U11^2, U22^2 of the exact Cholesky factor of the float form m: ratios of leading minors."""
    f = [[Fraction(x) for x in row] for row in m.tolist()]
    minors = [Fraction(1), f[0][0], f[0][0] * f[1][1] - f[0][1] ** 2, Fraction(_det3(f))]
    return [minors[k + 1] / minors[k] for k in range(3)]


@pytest.mark.parametrize("name", ["lat_d1", "lat_d6", "lat_d10"])
def test_shrunk_pivots_are_at_most_the_exact_ones(request, tail_pivots, name):
    # The tail's count needs pivots at most the exact ones of the float
    # majorant.  On skewed points (|u| <= 6, v from 0.02 to 30) the 1e-9
    # shrink alone fails this at about one point in ten; the widened shrink
    # holds at every point.
    lat = request.getfixturevalue(name)
    rng = random.Random(23)
    widened = 0
    for _ in range(100):
        z = UHPoint(rng.uniform(-6.0, 6.0), math.exp(rng.uniform(math.log(0.02), math.log(30.0))))
        m = majorant(lat, z)
        pivots = tail_pivots(m)
        assert all(Fraction(p) ** 2 <= e for p, e in zip(pivots, _exact_pivots_squared(m))), z
        widened += pivots[0] < math.sqrt(m[0, 0]) * (1.0 - 1e-9)
    assert widened > 10


def _exact_ball(m, bound, gram, ts):
    """The n with n^T G n = 2t for a t in ts and n^T m n <= 21/20 bound, sorted.

    An oracle in exact arithmetic: the float form m is taken as Fractions,
    and its LDL^T factor (pivots the ratios of its leading minors) slices
    the ellipsoid exactly.  It holds every vector whose six-product float
    value, off by far less than 5%, is at most bound.
    """
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = [[Fraction(x) for x in row] for row in m.tolist()]
    l10, l20 = m01 / m00, m02 / m00
    d1 = m11 - l10 * l10 * m00
    l21 = (m12 - l10 * l20 * m00) / d1
    d2 = m22 - l20 * l20 * m00 - l21 * l21 * d1

    def span(c, q):  # the integers k with (k - c)^2 <= q
        r = math.isqrt(math.floor(q)) + 1
        return [k for k in range(math.floor(c) - r, math.ceil(c) + r + 1) if (k - c) ** 2 <= q]

    reach, norms, out = Fraction(bound) * Fraction(21, 20), {2 * t for t in ts}, []
    for n3 in span(0, reach / d2):
        rem2 = reach - d2 * n3 * n3
        for n2 in span(-l21 * n3, rem2 / d1):
            for n1 in span(-(l10 * n2 + l20 * n3), (rem2 - d1 * (n2 + l21 * n3) ** 2) / m00):
                n = (n1, n2, n3)
                norm2 = sum(p * g * q for p, row in zip(n, gram) for g, q in zip(row, n))
                if any(n) and norm2 in norms:
                    out.append(n)
    return sorted(out)


def test_pivot_shrink_reaches_a_skewed_majorant(lat_d6, brute_force_ball, form_value, tail_pivots):
    # At u = 6, v = 0.02 on d6 the majorant's inverse, scaled to a unit
    # diagonal, has norm 1.1e13: the computed U22^2 is 1.5e-4 off the exact
    # pivot, far beyond the 1e-9 shrink that covers norms up to 1.4e6.
    z = UHPoint(6.0, 0.02)
    m = majorant(lat_d6, z)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    factor = _cholesky3(m00, m01, m02, m11, m12, m22)
    exact = _exact_pivots_squared(m)
    assert max(abs(Fraction(factor[k]) ** 2 / e - 1) for k, e in zip((0, 3, 5), exact)) > 1e-4
    pivots = tail_pivots(m)
    assert 1e-3 < _pivot_shrink(m00, m11, m22, factor) < 0.1
    assert all(Fraction(p) ** 2 <= e for p, e in zip(pivots, exact))
    ts = (-6, -5, -3, -2, 1, 3, 4, 6)
    found = _exact_ball(m, 16.0, lat_d6.gram, ts)
    for bound in (12.0, 16.0):
        ball = [n for n in found if form_value(m, n) <= bound]
        for t in ts:
            want = [n for n in ball if lat_d6.q_value(n) == t]
            assert sorted(at.enumerate_by_majorant(lat_d6, z, bound, norm=t)) == want, (bound, t)
            assert brute_force_ball(m, bound, lat_d6.gram, t) == want, (bound, t)
            assert _norm_count(pivots, bound, False) >= len(want)
    assert len(ball) > 20


@pytest.mark.parametrize(
    "name,perm", [("lat_d1", (0, 1, 2)), ("lat_d6", (1, 0, 2)), ("lat_d10", (1, 0, 2))]
)
@pytest.mark.parametrize("t", [-3, -2, -1, 1, 2, 3])
def test_norm_rows_negative_leading_coefficient(request, brute_force_ball, name, perm, t):
    # G00 < 0 (-2, -6 and -4): the larger root numerator gives the smaller n1.
    lat = request.getfixturevalue(name)
    for z in (UHPoint(0.0, 1.0), UHPoint(0.3, 0.5), UHPoint(-0.7, 1.4)):
        m, gram = _permuted(lat, z, perm)
        assert gram[0][0] < 0
        _solver_matches_oracle(brute_force_ball, m, gram, 40.0, t)


def test_nonnegative_rows_is_exact():
    # Every (a, d1, d0) with a <= 0 in a small box, against the value itself.
    for a in range(-4, 1):
        for d1 in range(-9, 10):
            for d0 in range(-12, 13):
                want = [n2 for n2 in range(-7, 8) if (a * n2 + d1) * n2 + d0 >= 0]
                if a == 0 and d1 == 0 and math.isqrt(max(d0, 0)) ** 2 != d0:
                    want = []  # a constant that is not a square: no row has a root
                assert list(_nonnegative_rows(a, d1, d0, -7, 7)) == want, (a, d1, d0)


@pytest.mark.parametrize("t", [-3, -2, -1, 1, 2, 3, 6])
def test_norm_rows_clipped_slices(lat_d6, lat_d10, brute_force_ball, t):
    # (1, 2, 0) puts a negative definite plane first (a = G01^2 - G00 G11
    # is -24 and -40), where each slice keeps an interval of n2.
    for lat in (lat_d6, lat_d10):
        for z in (UHPoint(0.0, 1.0), UHPoint(0.3, 0.5), UHPoint(-0.7, 1.4)):
            m, gram = _permuted(lat, z, (1, 2, 0))
            assert gram[0][1] ** 2 - gram[0][0] * gram[1][1] < 0
            _solver_matches_oracle(brute_force_ball, m, gram, 60.0, t)


def test_norm_rows_two_roots_in_one_row(lat_d10, brute_force_ball):
    # A row holding both roots of its quadratic, for G00 < 0 and G00 > 0.
    for perm in ((1, 0, 2), (0, 1, 2)):
        m, gram = _permuted(lat_d10, UHPoint(0.2, 0.9), perm)
        got = _solver_matches_oracle(brute_force_ball, m, gram, 80.0, 2)
        rows = [n[1:] for n in got]
        assert any(rows.count(r) == 2 for r in rows)


def test_norm_path_equals_filtered_enumeration(lat_d1, lat_d6, lat_d10, brute_force_ball):
    # Random z with v up to 32 and bounds up to 512, against the box search
    # filtered by the exact norm: one scan of each case's box for all ten
    # norms.  Every one of the 90 seeded cases fits under the row cap.
    rng = np.random.default_rng(11)
    ts = (-6, -5, -3, -2, -1, 1, 2, 3, 5, 6)
    for lat in (lat_d1, lat_d6, lat_d10):
        for _ in range(30):
            z = UHPoint(rng.uniform(-1.5, 1.5), float(np.exp(rng.uniform(np.log(0.2), np.log(32.0)))))
            bound = rng.uniform(1.0, 512.0)
            by_norm = {t: [] for t in ts}
            for n in _row_order(brute_force_ball(majorant(lat, z), bound, lat.gram, ts)):
                by_norm[lat.inner(n, n) // 2].append(n)
            for t in ts:
                got = at.enumerate_by_majorant(lat, z, bound, cap=100_000, norm=t)
                assert got == by_norm[t], (z, bound, t)


def test_cached_arrays_are_read_only(lat_d6):
    c = model_coordinates_float(lat_d6)
    assert c is lat_d6.model_coordinates_array
    assert np.array_equal(c, [[float(e) for e in row] for row in model_coordinates(lat_d6)])
    with pytest.raises(ValueError):
        c[0, 0] = 0


@pytest.mark.parametrize("norm", [-1, 1])
@pytest.mark.parametrize("diag", [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 0.0, 1.0)])
def test_enumeration_rejects_a_form_with_a_nonpositive_pivot(lat_d1, diag, norm):
    # The Cholesky pivots refuse the form before any row is visited.
    with pytest.raises(PreconditionViolation):
        at.enumerate_by_majorant(lat_d1, UHPoint(0.1, 1.2), 4.0, form=np.diag(diag), norm=norm)


def test_enumeration_cap(lat_d1):
    with pytest.raises(BoundTooLarge):
        at.enumerate_by_majorant(lat_d1, UHPoint(0.0, 1.0), 1e9, cap=1000, norm=1)


def test_representation_counts_sum_of_three_squares(lat_lipschitz):
    # r3 values for t = 1..10: OEIS-checkable by the brute force below.
    expected = {1: 6, 2: 12, 3: 8, 4: 6, 5: 24, 6: 24, 7: 0, 8: 12, 9: 30, 10: 24}
    for t, r in expected.items():
        assert representation_count(lat_lipschitz, t) == r
        brute = sum(
            1
            for x in range(-4, 5)
            for y in range(-4, 5)
            for z in range(-4, 5)
            if x * x + y * y + z * z == t
        )
        assert r == brute


def test_representation_count_invariant_under_signed_permutations(lat_lipschitz):
    for t in (5, 9):
        pts = vectors_of_norm(lat_lipschitz, t)
        as_set = set(pts)
        for n in pts:
            assert (-n[0], -n[1], -n[2]) in as_set
            assert (n[1], n[0], n[2]) in as_set
