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
    is_split_model,
    load_order,
    majorant,
    model_coordinates,
    model_coordinates_float,
    representation_count,
    trace_zero_lattice,
    vectors_of_norm,
    with_norm,
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


def test_with_norm_matches_q_value(lat_d1, lat_d6, lat_d10):
    rng = np.random.default_rng(5)
    for lat in (lat_d1, lat_d6, lat_d10):
        pts = [tuple(int(x) for x in row) for row in rng.integers(-9, 10, size=(400, 3))]
        # Coordinates this large leave int64 and go to Python integers.
        pts += [(2**31 + 1, 5, -3), (-(2**40), 2**40, 1)]
        for t in {lat.q_value(n) for n in pts[:40] + pts[-2:]}:
            assert with_norm(lat, pts, int(t)) == [n for n in pts if lat.q_value(n) == t]


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
