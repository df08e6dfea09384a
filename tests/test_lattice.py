"""Orders as data, trace-zero lattices, majorants and enumeration."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ariththeta as at
from ariththeta.errors import BoundTooLarge, OrderDataError, PreconditionViolation
from ariththeta.greens import UHPoint, r_value
from ariththeta.lattice import (
    _enumerate_form,
    _enumerate_norm,
    is_split_model,
    load_order,
    majorant,
    model_coordinates,
    model_coordinates_float,
    representation_count,
    trace_zero_lattice,
    vectors_of_norm,
)


def test_bundled_orders_validate(lat_d1, lat_d6, lat_d10):
    assert lat_d1.discriminant == 1
    assert lat_d6.discriminant == 6
    assert lat_d10.discriminant == 10
    for lat in (lat_d1, lat_d6, lat_d10):
        assert lat.sig() == (1, 2)


def test_gram_regressions(lat_d1, lat_d6, lat_d10):
    # |det gram| = 2 D^2, frozen after an independent hand computation.
    for lat, expect in ((lat_d1, 2), (lat_d6, 72), (lat_d10, 200)):
        det = round(np.linalg.det(np.array(lat.gram, dtype=float)))
        assert abs(det) == expect


def test_d1_is_split_matrix_model(lat_d1):
    assert is_split_model(lat_d1)
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


def test_lipschitz_definite_lattice_is_sum_of_squares():
    order = load_order(
        {
            "label": "lipschitz",
            "a": "-1",
            "b": "-1",
            "discriminant": 2,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
    )
    lat = trace_zero_lattice(order)
    assert lat.sig() == (3, 0)
    assert sorted(lat.gram[i][i] for i in range(3)) == [2, 2, 2]
    assert representation_count(lat, 1) == 6
    assert representation_count(lat, 7) == 0


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


# --- majorant ---------------------------------------------------------------


def test_majorant_positive_definite_at_i(lat_d1):
    m = majorant(lat_d1, UHPoint(0.0, 1.0))
    assert np.linalg.eigvalsh(m)[0] > 0


def test_majorant_rejects_definite():
    order = load_order(
        {
            "label": "lipschitz",
            "a": "-1",
            "b": "-1",
            "discriminant": 2,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
    )
    lat = trace_zero_lattice(order)
    with pytest.raises(PreconditionViolation):
        majorant(lat, UHPoint(0.0, 1.0))


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


# --- enumeration ------------------------------------------------------------


def test_enumeration_empty_below_minimum(lat_d1):
    pts = at.enumerate_by_majorant(lat_d1, UHPoint(0.0, 1.0), 0.5)
    assert pts == []


def test_enumeration_matches_brute_force_d1_at_i(lat_d1, brute_force_ball):
    z = UHPoint(0.0, 1.0)
    got = sorted(at.enumerate_by_majorant(lat_d1, z, 2.0))
    expect = brute_force_ball(majorant(lat_d1, z), 2.0)
    assert got == expect and len(got) > 0


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.4, max_value=2.2),
    st.floats(min_value=0.8, max_value=12.0),
)
# +-(-11, -17, 7) has majorant value 8.9656 here, outside a fixed +-14 box.
@example(1.5, 0.40625, 9.0)
def test_enumeration_matches_brute_force_random(lat_d1, brute_force_ball, u, v, bound):
    z = UHPoint(u, v)
    got = sorted(at.enumerate_by_majorant(lat_d1, z, bound))
    expect = brute_force_ball(majorant(lat_d1, z), bound)
    assert got == expect


@pytest.mark.parametrize("name", ["lat_d6", "lat_d10"])
@pytest.mark.parametrize(
    "u,v,bound", [(0.0, 1.0, 12.0), (0.3, 0.5, 20.0), (-1.2, 0.35, 30.0), (0.45, 2.2, 48.0)]
)
def test_enumeration_matches_brute_force_d6_d10(request, brute_force_ball, name, u, v, bound):
    lat = request.getfixturevalue(name)
    z = UHPoint(u, v)
    got = at.enumerate_by_majorant(lat, z, bound)
    expect = brute_force_ball(majorant(lat, z), bound)
    assert sorted(got) == expect and len(got) > 0
    # Ordered by n3, then n2, then n1.
    assert got == sorted(got, key=lambda n: (n[2], n[1], n[0]))


@pytest.mark.parametrize("name,u,v", [("lat_d1", 0.0, 1.0), ("lat_d6", 0.3, 0.5), ("lat_d10", -0.7, 1.4)])
def test_enumeration_bound_equal_to_a_vector_value(request, brute_force_ball, name, u, v):
    # A bound equal to the scalar value of a lattice vector puts that vector
    # on the boundary: it is accepted at the bound and refused one float
    # below it, as the scalar check float(n @ m @ n) <= bound decides.
    lat = request.getfixturevalue(name)
    z = UHPoint(u, v)
    m = majorant(lat, z)
    n = at.enumerate_by_majorant(lat, z, 20.0)[-1]
    bound = float(np.array(n) @ m @ np.array(n))
    below = float(np.nextafter(bound, 0.0))
    at_bound = at.enumerate_by_majorant(lat, z, bound)
    under = at.enumerate_by_majorant(lat, z, below)
    assert n in at_bound and n not in under
    assert sorted(at_bound) == brute_force_ball(m, bound)
    assert sorted(under) == brute_force_ball(m, below)


def test_norm_path_matches_q_value(lat_d1, lat_d6, lat_d10):
    # The norm path against the exact Q of every vector of the full list.
    for lat in (lat_d1, lat_d6, lat_d10):
        for z in (UHPoint(0.0, 1.0), UHPoint(0.31, 0.45), UHPoint(-1.1, 2.7)):
            full = at.enumerate_by_majorant(lat, z, 40.0)
            for t in sorted({lat.q_value(n) for n in full}):
                got = at.enumerate_by_majorant(lat, z, 40.0, norm=int(t))
                assert got == [n for n in full if lat.q_value(n) == t], (z, t)
    # A definite lattice: vectors_of_norm against the full list of its gram form.
    lat = trace_zero_lattice(
        load_order(
            {
                "label": "lipschitz",
                "a": "-1",
                "b": "-1",
                "discriminant": 2,
                "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            }
        )
    )
    g = np.array(lat.gram, dtype=float)
    full = _enumerate_form(g, 2 * 12 + 1e-9)
    for t in range(1, 13):
        assert vectors_of_norm(lat, t) == [n for n in full if lat.q_value(n) == t]


# --- the row solver of the norm path ----------------------------------------------


def _permuted(lat, z, perm):
    """Majorant and gram of lat in the basis (e_perm[0], e_perm[1], e_perm[2]),
    and Q of a vector given in that basis."""
    m = majorant(lat, z)[np.ix_(perm, perm)]
    gram = tuple(tuple(lat.gram[i][j] for j in perm) for i in perm)

    def q_value(n):
        x = [0, 0, 0]
        for k, i in enumerate(perm):
            x[i] = n[k]
        return lat.q_value(x)

    return m, gram, q_value


def _solver_matches_oracle(brute_force_ball, m, gram, q_value, bound, t):
    got = _enumerate_norm(m, bound, gram, t)
    expect = [n for n in brute_force_ball(m, bound) if q_value(n) == t]
    # Equal as lists in (n3, n2, n1) order, so roots come in increasing n1.
    assert got == sorted(expect, key=lambda n: (n[2], n[1], n[0])), (gram, bound, t)
    return got


@pytest.mark.parametrize("t", [-3, -2, 1, 2, 3])
def test_norm_rows_linear_case(lat_d1, brute_force_ball, t):
    # d1 with its first two basis vectors swapped: G00 = 0, b = -n3, so each
    # row with n3 != 0 is the linear equation -2 n3 n1 - 2 n2^2 = 2t.
    for z in (UHPoint(0.0, 1.0), UHPoint(0.4, 0.7), UHPoint(-0.9, 1.6)):
        m, gram, q_value = _permuted(lat_d1, z, (1, 0, 2))
        assert gram[0][0] == 0
        got = _solver_matches_oracle(brute_force_ball, m, gram, q_value, 30.0, t)
        assert got and all(n[2] != 0 for n in got)


@pytest.mark.parametrize("t", [-1, -4])
def test_norm_rows_whole_row_case(lat_d1, brute_force_ball, t):
    # In the same basis, the rows n3 = 0, n2 = +-sqrt(-t) have b = 0 and
    # c = 2t: every n1 of their range has Q = t.
    for z in (UHPoint(0.0, 1.0), UHPoint(0.4, 0.7)):
        m, gram, q_value = _permuted(lat_d1, z, (1, 0, 2))
        got = _solver_matches_oracle(brute_force_ball, m, gram, q_value, 40.0, t)
        whole = [n for n in got if n[2] == 0]
        assert len(whole) > 4 and {abs(n[1]) ** 2 for n in whole} == {-t}


@pytest.mark.parametrize(
    "name,perm", [("lat_d1", (0, 1, 2)), ("lat_d6", (1, 0, 2)), ("lat_d10", (1, 0, 2))]
)
@pytest.mark.parametrize("t", [-3, -2, -1, 1, 2, 3])
def test_norm_rows_negative_leading_coefficient(request, brute_force_ball, name, perm, t):
    # G00 < 0 (-2, -6 and -4): the larger root numerator gives the smaller n1.
    lat = request.getfixturevalue(name)
    for z in (UHPoint(0.0, 1.0), UHPoint(0.3, 0.5), UHPoint(-0.7, 1.4)):
        m, gram, q_value = _permuted(lat, z, perm)
        assert gram[0][0] < 0
        _solver_matches_oracle(brute_force_ball, m, gram, q_value, 40.0, t)


def test_norm_rows_two_roots_in_one_row(lat_d10, brute_force_ball):
    # A row holding both roots of its quadratic, for G00 < 0 and G00 > 0.
    for perm in ((1, 0, 2), (0, 1, 2)):
        m, gram, q_value = _permuted(lat_d10, UHPoint(0.2, 0.9), perm)
        got = _solver_matches_oracle(brute_force_ball, m, gram, q_value, 80.0, 2)
        rows = [n[1:] for n in got]
        assert any(rows.count(r) == 2 for r in rows)


def test_norm_path_equals_filtered_enumeration(lat_d1, lat_d6, lat_d10):
    # Random z with v up to 32 and bounds up to 512; a bound whose predicted
    # count exceeds the cap raises on both paths.
    rng = np.random.default_rng(11)
    checked = 0
    for lat in (lat_d1, lat_d6, lat_d10):
        for _ in range(30):
            z = UHPoint(rng.uniform(-1.5, 1.5), float(np.exp(rng.uniform(np.log(0.2), np.log(32.0)))))
            bound = rng.uniform(1.0, 512.0)
            try:
                full = at.enumerate_by_majorant(lat, z, bound, cap=100_000)
            except BoundTooLarge:
                with pytest.raises(BoundTooLarge):
                    at.enumerate_by_majorant(lat, z, bound, cap=100_000, norm=1)
                continue
            arr = np.array(full, dtype=np.int64).reshape(-1, 3)
            assert np.abs(arr).max(initial=0) < 2**20  # so int64 norms are exact
            norms = ((arr @ lat.gram_array) * arr).sum(axis=1).tolist()
            for t in (-6, -5, -3, -2, -1, 1, 2, 3, 5, 6):
                got = at.enumerate_by_majorant(lat, z, bound, cap=100_000, norm=t)
                assert got == [n for n, q2 in zip(full, norms) if q2 == 2 * t], (z, bound, t)
            checked += 1
    assert checked >= 50


def test_cached_arrays_are_read_only(lat_d6):
    c = model_coordinates_float(lat_d6)
    assert c is lat_d6.model_coordinates_array
    assert np.array_equal(c, [[float(e) for e in row] for row in model_coordinates(lat_d6)])
    assert lat_d6.gram_array.tolist() == [list(row) for row in lat_d6.gram]
    for arr in (c, lat_d6.gram_array):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_enumeration_cap(lat_d1):
    with pytest.raises(BoundTooLarge):
        at.enumerate_by_majorant(lat_d1, UHPoint(0.0, 1.0), 1e9, cap=1000)


def test_representation_counts_sum_of_three_squares():
    order = load_order(
        {
            "label": "lipschitz",
            "a": "-1",
            "b": "-1",
            "discriminant": 2,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
    )
    lat = trace_zero_lattice(order)
    # r3 values for t = 1..10: OEIS-checkable by the brute force below.
    expected = {1: 6, 2: 12, 3: 8, 4: 6, 5: 24, 6: 24, 7: 0, 8: 12, 9: 30, 10: 24}
    for t, r in expected.items():
        assert representation_count(lat, t) == r
        brute = sum(
            1
            for x in range(-4, 5)
            for y in range(-4, 5)
            for z in range(-4, 5)
            if x * x + y * y + z * z == t
        )
        assert r == brute


def test_representation_count_invariant_under_signed_permutations():
    order = load_order(
        {
            "label": "lipschitz",
            "a": "-1",
            "b": "-1",
            "discriminant": 2,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
    )
    lat = trace_zero_lattice(order)
    for t in (5, 9):
        pts = vectors_of_norm(lat, t)
        as_set = set(pts)
        for n in pts:
            assert (-n[0], -n[1], -n[2]) in as_set
            assert (n[1], n[0], n[2]) in as_set
