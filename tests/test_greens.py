"""beta_1, the distance R, Green functions and truncated sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ariththeta as at
from ariththeta.errors import (
    NonpositiveArgument,
    OnSingularLocus,
    PreconditionViolation,
    QuadratureFailure,
    SingularEvaluation,
)
from ariththeta._e1_table import E1_PIECES
from ariththeta.greens import (
    EULER_GAMMA,
    BigXiResult,
    QuadratureSpec,
    UHPoint,
    _beta1,
    _least_bound,
    _r_vec,
    _tail_bound,
    beta1,
    beta1_vec,
    big_xi,
    cm_point,
    ddc_xi_vec,
    r_value,
    xi,
)
from ariththeta import greens
from ariththeta.lattice import enumerate_by_majorant, majorant
from ariththeta.splitorbits import q_value

CM_VECTOR = (0.0, 1.0, -1.0)  # [[0, 1], [-1, 0]]: Q = 1, divisor at i


# --- beta1 -------------------------------------------------------------------


def test_beta1_at_one():
    # E_1(1), frozen from the quadrature oracle in the acceptance suite.
    assert abs(beta1(1.0) - 0.21938393439552026) < 1e-15


def test_beta1_small_r_expansion():
    r = 1e-8
    assert abs(beta1(r) + math.log(r) + EULER_GAMMA) <= 2e-8


def test_beta1_large_r_bound():
    v = beta1(50.0)
    assert 0 < v <= math.exp(-50.0) / 50.0


def test_beta1_rejects_nonpositive():
    with pytest.raises(NonpositiveArgument):
        beta1(0.0)
    with pytest.raises(NonpositiveArgument):
        beta1(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=200.0))
def test_beta1_decreasing_positive_bounded(r):
    v = beta1(r)
    assert v > 0
    assert v > beta1(r * 1.01)
    if r >= 0.1:
        assert v <= math.exp(-r) / r
    if r <= 0.5:
        assert abs(v + EULER_GAMMA + math.log(r)) <= 2 * r


def test_beta1_vec_matches_scalar():
    # Both kernels run one Horner sum on the same row and differ by the
    # rounding of exp or log alone; over [1e-300, 700] they differ by at most
    # 4e-16 (measured).
    rs = np.geomspace(1e-5, 80.0, 64)
    vec = beta1_vec(rs)
    for r, v in zip(rs, vec):
        assert abs(v - beta1(float(r))) <= 4e-16 * max(v, 1e-300)


def test_beta1_vec_is_batch_independent():
    # Each value depends on its own r alone: an array, a shuffle of it and
    # its one-element slices give equal bytes.
    rng = np.random.default_rng(11)
    rs = np.concatenate(
        [
            np.geomspace(1e-9, 800.0, 1001),
            rng.uniform(0.5, 3.0, 1000),
            [1e-300, math.nextafter(0.5, 0.0), 0.5, 1.0, 700.0, 745.0],
        ]
    )
    whole = beta1_vec(rs)
    perm = rng.permutation(rs.size)
    assert beta1_vec(rs[perm]).tobytes() == whole[perm].tobytes()
    single = np.concatenate([beta1_vec(rs[i : i + 1]) for i in range(rs.size)])
    assert single.tobytes() == whole.tobytes()


def _piece_points(lo, hi):
    """Both ends of the piece [lo, hi), its midpoint and the extrema of T_11 on it.

    The last float below hi stands for the right end.  A row's truncated sum
    has error about c_11 T_11(x), largest at x = cos(pi j / 11).
    """
    kept = len(E1_PIECES[0])
    xs = [math.cos(math.pi * j / kept) for j in range(1, kept)] + [0.0]
    return [lo, math.nextafter(hi, 0.0)] + [lo + (hi - lo) * (x + 1.0) / 2.0 for x in xs]


def _octave_test_points():
    """The points of every piece of every table octave e = 0..10, up to 700."""
    points = []
    for e in range(11):
        for j in range(8):
            points += _piece_points(math.ldexp(0.5 + j / 16, e), math.ldexp(0.5 + (j + 1) / 16, e))
    return [r for r in points if r <= 700.0]


def _ein_test_points(pieces=range(2)):
    """The points of the Ein pieces [j/4, (j+1)/4], without r = 0.

    The kernels take pieces 0 and 1, below 1/2; pieces 2 and 3 serve the
    crossover check of `check beta1` alone.
    """
    return [r for j in pieces for r in _piece_points(j / 4, (j + 1) / 4) if r > 0.0]


def test_beta1_accuracy_against_mpmath():
    # The docstring's claim for both kernels: relative error below 2e-15 on
    # (0, 700], against mpmath's E_1 at 30 digits.  The grid starts at
    # 1e-300, where xi_vec floors R.  Both ends, the midpoint and the
    # Chebyshev extrema of every piece, where its row is worst, are all
    # checked, with a grid over the whole range.
    mpmath = pytest.importorskip("mpmath")
    rs = np.concatenate(
        [
            np.geomspace(1e-300, 700.0, 1201),
            np.linspace(0.95, 1.1, 301),
            _octave_test_points(),
            _ein_test_points(),
            [700.0],
        ]
    )
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.e1(mpmath.mpf(float(r)))) for r in rs])
    scalar = np.array([beta1(float(r)) for r in rs])
    vec = beta1_vec(rs)
    assert np.max(np.abs(scalar - ref) / ref) < 2e-15
    assert np.max(np.abs(vec - ref) / ref) < 2e-15
    # The Ein rows above 1/2, which only the crossover check reads.
    upper = _ein_test_points(range(2, 4)) + [1.0]
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.e1(mpmath.mpf(r))) for r in upper])
    assert np.max(np.abs(np.array([_beta1(r, True) for r in upper]) - ref) / ref) < 2e-15


@pytest.mark.parametrize("bad", [[0.0], [-1.0], [math.nan], [2.0, math.nan]])
def test_beta1_vec_rejects_nonpositive(bad):
    # As the scalar kernel does: NaN is not > 0 either.
    with pytest.raises(NonpositiveArgument):
        beta1_vec(np.array(bad))


def test_beta1_is_zero_above_700():
    # Above 700 both kernels return 0, an absolute error below E_1(700).
    mpmath = pytest.importorskip("mpmath")
    assert float(mpmath.e1(700)) < 1e-306
    rs = [700.0 * (1 + 1e-15), 700.5, 720.0, 745.0, 1e4]
    assert all(beta1(r) == 0.0 for r in rs)
    assert np.all(beta1_vec(np.array(rs)) == 0.0)


# --- R and xi ----------------------------------------------------------------


def test_r_pinned_values_exact():
    x = (Fraction(0), Fraction(1), Fraction(-1))
    assert r_value(x, UHPoint(Fraction(0), Fraction(1))) == 0
    assert r_value(x, UHPoint(Fraction(0), Fraction(2))) == Fraction(9, 16)


def test_r_vec_is_r_value_bit_for_bit():
    # The vector kernel runs r_value's float operations in place; it only
    # reads its inputs, which may be read-only tables.
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = tuple(rng.uniform(-3, 3, 3))
        u, v = rng.uniform(-4, 4, 200), np.exp(rng.uniform(-3, 3, 200))
        u.flags.writeable = v.flags.writeable = False
        want = [r_value(x, UHPoint(a, b)) for a, b in zip(u.tolist(), v.tolist())]
        assert _r_vec(x, u, v).tolist() == want


def test_r_positive_for_negative_norm():
    x = (1.0, 2.0, 1.0)  # Q = -3
    assert q_value(x) == -3.0
    for u, v in [(-1.3, 0.4), (0.0, 1.0), (2.0, 3.0)]:
        assert r_value(x, UHPoint(u, v)) > 0


def test_r_equals_t_sinh_squared_distance():
    x = CM_VECTOR
    for u, v in [(0.2, 1.1), (-0.7, 0.5), (1.0, 2.5)]:
        d = math.acosh(1 + (u * u + (v - 1) ** 2) / (2 * v))
        assert abs(float(r_value(x, UHPoint(u, v))) - math.sinh(d) ** 2) < 1e-12


def test_r_isometry_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        vec = tuple(rng.uniform(-2, 2, 3))
        p, q, r = rng.uniform(0.5, 1.5), rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
        s = (1 + q * r) / p
        u, v = rng.uniform(-1, 1), rng.uniform(0.3, 2.0)
        z = complex(u, v)
        gz = (p * z + q) / (r * z + s)
        moved = (
            (p * s + q * r) * vec[0] - p * r * vec[1] + q * s * vec[2],
            -2 * p * q * vec[0] + p * p * vec[1] - q * q * vec[2],
            2 * r * s * vec[0] - r * r * vec[1] + s * s * vec[2],
        )
        r0 = float(r_value(vec, UHPoint(u, v)))
        r1 = float(r_value(moved, UHPoint(gz.real, gz.imag)))
        assert abs(r0 - r1) <= 1e-10 * (1 + r0)


def test_cm_point():
    p = cm_point(CM_VECTOR)
    assert abs(p.u) < 1e-15 and abs(p.v - 1) < 1e-15
    with pytest.raises(PreconditionViolation):
        cm_point((1.0, 0.0, 0.0))


def test_xi_substitution_and_tail():
    x = CM_VECTOR
    # R = 1/(2 pi) gives xi = beta1(1); move along the imaginary axis to hit it.
    target = 1 / (2 * math.pi)
    v = math.exp(math.asinh(math.sqrt(target)))
    z = UHPoint(0.0, v)
    assert abs(float(r_value(x, z)) - target) < 1e-12
    assert abs(xi(x, z) - beta1(1.0)) < 1e-12
    far = UHPoint(0.0, 12.0)
    assert float(r_value(x, far)) >= 10
    assert xi(x, far) <= math.exp(-20 * math.pi) / (20 * math.pi)


def test_xi_near_singular_law_and_floor():
    x = CM_VECTOR
    for eps in (1e-3, 1e-4):
        z = UHPoint(0.0, 1.0 + eps)
        r = float(r_value(x, z))
        assert abs(xi(x, z) + math.log(2 * math.pi * r) + EULER_GAMMA) <= 2 * (2 * math.pi * r)
    with pytest.raises(OnSingularLocus):
        xi(x, UHPoint(0.0, 1.0))
    with pytest.raises(PreconditionViolation):
        xi((1.0, 1.0, -1.0), UHPoint(0.0, 1.0))  # Q = 0


# --- ddc ----------------------------------------------------------------------


def _xi_scalar(x, u, v):
    return beta1(2 * math.pi * float(r_value(x, UHPoint(u, v))))


def _ddc(x, z: UHPoint) -> float:
    return float(ddc_xi_vec(x, np.array([z.u]), np.array([z.v]))[0])


def test_ddc_matches_finite_differences():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 20:
        x = tuple(rng.uniform(-2, 2, size=3))
        u, v = rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.5)
        if float(r_value(x, UHPoint(u, v))) < 1e-3 or abs(q_value(x)) < 1e-3:
            continue
        h = 1e-4
        lap = (
            _xi_scalar(x, u + h, v)
            + _xi_scalar(x, u - h, v)
            + _xi_scalar(x, u, v + h)
            + _xi_scalar(x, u, v - h)
            - 4 * _xi_scalar(x, u, v)
        ) / h**2
        fd = v * v * lap / (4 * math.pi)
        an = _ddc(x, UHPoint(u, v))
        assert abs(an - fd) <= 1e-5 * (1 + abs(an))
        checked += 1


def test_ddc_decay_regression():
    # |ddc| <= C exp(-2 pi R) for R >= 5; C frozen from a sampling sweep.
    C = 45.0
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = tuple(rng.uniform(-2, 2, size=3))
        u, v = rng.uniform(-3, 3), rng.uniform(0.2, 4.0)
        r = float(r_value(x, UHPoint(u, v)))
        if not 5 <= r <= 80 or abs(q_value(x)) < 1e-3:
            continue
        val = _ddc(x, UHPoint(u, v))
        assert abs(val) <= C * math.exp(-2 * math.pi * r) * (1 + r)


def test_ddc_rotation_symmetry_about_divisor():
    rho = 0.8
    vals = []
    for th in np.linspace(0, 2 * math.pi, 12, endpoint=False):
        cu, cv, rr = 0.0, math.cosh(rho), math.sinh(rho)
        z = UHPoint(cu + rr * math.cos(th), cv + rr * math.sin(th))
        vals.append(_ddc(CM_VECTOR, z))
    assert max(vals) - min(vals) <= 1e-12 * (1 + abs(vals[0]))


def test_ddc_on_divisor_is_2q_minus_1_over_2pi():
    # The Kudla-Millson density is smooth across D_x, where R = 0.
    x = (0.3, -1.7, 1.1)  # Q = 1.78
    for vec in (CM_VECTOR, x):
        z = cm_point(vec)
        expect = 2 * q_value(vec) - 1 / (2 * math.pi)
        assert abs(_ddc(vec, z) - expect) <= 1e-12 * abs(expect)
        near = _ddc(vec, UHPoint(z.u + 1e-4, z.v))
        assert abs(near - expect) <= 1e-6


# --- big_xi -------------------------------------------------------------------


def test_big_xi_empty_when_unrepresented(lat_d6, spec):
    # Q = x1^2 - 3 x2^2 - 3 x3^2 is x1^2 mod 3; t = 2 mod 3 is never hit.
    res = big_xi(lat_d6, 2, 1.0, UHPoint(0.3, 1.1), spec)
    assert res.value == 0.0 and res.terms == 0
    assert res.tail_bound <= spec.abs_tol


def test_big_xi_self_convergence(lat_d1, spec):
    # A floor of 96, far above the least certifying bound, sums more terms.
    z = UHPoint(0.0, 1.0)
    base = big_xi(lat_d1, -1, 1.0, z, spec)
    assert base.value > 0
    bigger = big_xi(lat_d1, -1, 1.0, z, QuadratureSpec(truncation_majorant_bound=96.0))
    assert bigger.terms > base.terms
    assert abs(bigger.value - base.value) < spec.abs_tol


def test_big_xi_tail_bound_is_certified(lat_d1, spec):
    z = UHPoint(0.37, 0.9)
    base = big_xi(lat_d1, 1, 1.0, z, spec)
    wide = big_xi(lat_d1, 1, 1.0, z, QuadratureSpec(truncation_majorant_bound=192.0))
    assert wide.terms > base.terms
    assert abs(wide.value - base.value) <= base.tail_bound + 1e-15


def _search_cases(count, seed):
    rng = np.random.default_rng(seed)
    represented = {"lat_d1": (-3, -2, -1, 1, 2, 3), "lat_d6": (-3, -2, 1, 3), "lat_d10": (-3, -2, 2, 3)}
    for _ in range(count):
        name = str(rng.choice(list(represented)))
        t = int(rng.choice(represented[name]))
        v, u, y = (float(rng.uniform(lo, hi)) for lo, hi in ((0.1, 2.0), (-0.6, 0.6), (0.5, 2.5)))
        yield name, t, v, UHPoint(u, y)


def test_least_bound_is_certified_and_within_ten_percent(request, tail_pivots, spec):
    # 600 seeded points on d1, d6 and d10, v from 0.1 to 2: the chosen bound
    # certifies, and unless it is the floor, the bound / 1.1 does not.
    floors = 0
    for name, t, v, z in _search_cases(600, 1729):
        lat = request.getfixturevalue(name)
        pivots, whole_rows = tail_pivots(majorant(lat, z)), lat.gram[0][0] == 0
        bound, tail = _least_bound(pivots, t, v, spec, whole_rows)
        assert tail == _tail_bound(pivots, t, v, bound, whole_rows) <= spec.abs_tol, (name, t, v, z)
        if bound == max(spec.truncation_majorant_bound, 2 * abs(t)):
            floors += 1
        else:
            assert _tail_bound(pivots, t, v, bound / 1.1, whole_rows) > spec.abs_tol, (name, t, v, z)
    assert 0 < floors < 300


def test_big_xi_takes_the_searched_bound(request, tail_pivots, spec, monkeypatch):
    bounds = []

    def recording(lat, z, bound, **kwargs):
        bounds.append(bound)
        return enumerate_by_majorant(lat, z, bound, **kwargs)

    monkeypatch.setattr(greens, "enumerate_by_majorant", recording)
    for name, t, v, z in _search_cases(60, 7):
        lat = request.getfixturevalue(name)
        res = big_xi(lat, t, v, z, spec)
        bound, tail = _least_bound(tail_pivots(majorant(lat, z)), t, v, spec, lat.gram[0][0] == 0)
        assert (bounds.pop(), res.tail_bound) == (bound, tail)


def test_floors_below_every_majorant_value_agree(request, spec):
    # A norm-t vector has majorant value at least 2|t| >= 2, so floors 1 and
    # 1e-3 enumerate the same vectors and search from the same place.
    low = QuadratureSpec(truncation_majorant_bound=1e-3)
    for name, t, v, z in _search_cases(100, 11):
        lat = request.getfixturevalue(name)
        assert big_xi(lat, t, v, z, spec) == big_xi(lat, t, v, z, low)


# (lattice, t, z): value, tail_bound, terms and the enumerated vectors at floor
# 16 and abs_tol 5e-5 (the orbifold's spec), as the earlier doubling search gave them.
FLOOR_16 = [
    ("lat_d1", -2, (0.1, 1.2), 1.1654617942034266e-06, 2.2118899031792852e-13, 14,
     [(0, -1, -2), (2, 1, -2), (0, -2, -1), (-1, -1, -1), (1, -1, -1), (-2, 2, -1), (2, 2, -1), (-2, -2, 1),
      (2, -2, 1), (-1, 1, 1), (1, 1, 1), (0, 2, 1), (-2, -1, 2), (0, 1, 2)]),
    ("lat_d1", 1, (0.37, 0.9), 0.4513394306092222, 4.438363964185184e-09, 10,
     [(-1, 1, -2), (1, 1, -2), (0, 1, -1), (-1, 2, -1), (1, 2, -1), (-1, -2, 1), (1, -2, 1), (0, -1, 1),
      (-1, -1, 2), (1, -1, 2)]),
    ("lat_d6", -2, (0.21, 0.95), 3.3749662778840336e-08, 4.746493643752969e-14, 12,
     [(-1, 0, -1), (0, 1, -1), (2, 1, -1), (3, 2, -1), (-1, -1, 0), (1, -1, 0), (-1, 1, 0), (1, 1, 0),
      (-3, -2, 1), (-2, -1, 1), (0, -1, 1), (1, 0, 1)]),
]


@pytest.mark.parametrize("name, t, z, value, tail, terms, vectors", FLOOR_16, ids=["d1-t-2", "d1-t1", "d6-t-2"])
def test_floor_that_certifies_is_kept_bit_for_bit(request, monkeypatch, name, t, z, value, tail, terms, vectors):
    seen = {}

    def recording(lat, z, bound, **kwargs):
        seen["bound"], seen["vectors"] = bound, enumerate_by_majorant(lat, z, bound, **kwargs)
        return seen["vectors"]

    monkeypatch.setattr(greens, "enumerate_by_majorant", recording)
    spec = QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5, truncation_majorant_bound=16.0)
    res = big_xi(request.getfixturevalue(name), t, 1.0, UHPoint(*z), spec)
    assert res == BigXiResult(value=value, tail_bound=tail, terms=terms, excluded=())
    assert seen == {"bound": 16.0, "vectors": vectors}


def test_tail_that_never_certifies_raises(lat_d1):
    with pytest.raises(QuadratureFailure, match="at majorant bound 3072$"):
        big_xi(lat_d1, -1, 0.003, UHPoint(0.1, 1.2))


def _eigenvalue_tail(m, t, w, bound):
    """_tail_bound's shells with the count prod_i (2 sqrt(X / lambda_i) + 1) of the eigenvalue box."""
    lam = np.linalg.eigvalsh(m) * (1.0 - 1e-9)
    if bound <= 2 * t + 1:
        return math.inf
    total, lo = 0.0, bound
    for _ in range(200):
        count = math.prod(2.0 * math.sqrt(2.0 * lo / ev) + 1.0 for ev in lam)
        arg = 2.0 * math.pi * w * (lo - 2 * t) / 4.0
        term = 0.0 if arg > 745 else count * math.exp(-arg) / arg
        total += term
        if term < 1e-22 and lo > 4 * bound:
            break
        lo *= 2.0
    return total


@pytest.mark.parametrize("name", ["lat_d1", "lat_d6", "lat_d10"])
def test_row_tail_is_at_most_the_eigenvalue_tail(request, tail_pivots, name):
    # 300 seeded points of the usual range and 300 skewed ones, v from 0.02
    # to 30 and |u| up to 6: the row count never certifies less.
    lat = request.getfixturevalue(name)
    rng = np.random.default_rng(1729)
    usual = list(zip(rng.uniform(-1.5, 1.5, 300), rng.uniform(0.3, 2.5, 300)))
    skewed = list(zip(rng.uniform(-6.0, 6.0, 300), np.exp(rng.uniform(math.log(0.02), math.log(30.0), 300))))
    for u, v in usual + skewed:
        m = majorant(lat, UHPoint(float(u), float(v)))
        for t, w, bound in ((-2, 1.0, 48.0), (1, 0.15, 96.0), (3, 2.0, 12.0)):
            assert _tail_bound(tail_pivots(m), t, w, bound, False) <= _eigenvalue_tail(m, t, w, bound), (u, v, t)


def test_big_xi_gamma_invariance_spot_check(lat_d1, spec):
    u, v = 0.3, 1.2
    den = u * u + v * v
    a = big_xi(lat_d1, 1, 1.0, UHPoint(u, v), spec)
    b = big_xi(lat_d1, 1, 1.0, UHPoint(-u / den, v / den), spec)
    assert abs(a.value - b.value) <= 2 * spec.abs_tol


def test_big_xi_singular_evaluation(lat_d1, spec):
    with pytest.raises(SingularEvaluation):
        big_xi(lat_d1, 1, 1.0, UHPoint(0.0, 1.0), spec)


def test_big_xi_reports_near_singular_terms(lat_d1):
    spec = QuadratureSpec(singular_r_floor=1e-6)
    z = UHPoint(0.0, 1.0 + 1e-4)  # R ~ 1e-8 for the divisor vector at i
    res = big_xi(lat_d1, 1, 1.0, z, spec)
    assert len(res.excluded) >= 1


def test_big_xi_rejects_bad_arguments(lat_d1, lat_d6, spec):
    with pytest.raises(PreconditionViolation):
        big_xi(lat_d1, 0, 1.0, UHPoint(0.0, 1.0), spec)
    with pytest.raises(PreconditionViolation):
        big_xi(lat_d1, 1, -1.0, UHPoint(0.0, 1.0), spec)


def test_big_xi_on_d6_model(lat_d6, spec):
    # Indefinite non-split lattice works through the same real model.
    res = big_xi(lat_d6, 1, 1.0, UHPoint(0.21, 0.95), spec)
    assert res.value > 0 and res.tail_bound <= spec.abs_tol


def test_big_xi_d6_unit_invariance(lat_d6, spec):
    # i is a norm-1 unit of the discriminant-6 order and acts as z -> -1/z
    # in the real splitting, so the truncated sum is invariant.
    u, v = 0.27, 0.83
    den = u * u + v * v
    a = big_xi(lat_d6, 1, 1.0, UHPoint(u, v), spec)
    b = big_xi(lat_d6, 1, 1.0, UHPoint(-u / den, v / den), spec)
    assert abs(a.value - b.value) <= 2 * spec.abs_tol


def test_big_xi_thread_safe(lat_d1, spec):
    # Pure functions over immutable inputs: a threaded map must agree with
    # the sequential evaluation bit for bit.
    from concurrent.futures import ThreadPoolExecutor

    z = UHPoint(0.4, 1.3)
    ts = [-3, -2, -1, 1, 2, 3, 5]
    seq = [big_xi(lat_d1, t, 1.0, z, spec).value for t in ts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        par = list(pool.map(lambda t: big_xi(lat_d1, t, 1.0, z, spec).value, ts))
    assert par == seq
