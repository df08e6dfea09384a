"""Star-product heights: invariance, symmetry, gram-only dependence, classes."""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import exp1

import ariththeta as at
from ariththeta import checks
from ariththeta.errors import PreconditionViolation, UnsupportedDiscriminant
from ariththeta import starprod
from ariththeta.greens import QuadratureSpec
from ariththeta.splitorbits import pair_action, pair_orbit_reps
from ariththeta.starprod import PairConfig, lambda_of_gram, lambda_star, z_hat_indefinite


def test_pair_config_computes_gram():
    pair = PairConfig.from_vectors((0, 1, -1), (1, 0, 0))
    assert pair.gram == ((1.0, 0.0), (0.0, -1.0))
    assert pair.det == -1.0


def test_lambda_rejects_singular_gram(spec):
    with pytest.raises(PreconditionViolation):
        lambda_star(PairConfig.from_vectors((0, 1, -1), (0, 2, -2)), spec)


def test_lambda_singular_configuration(spec):
    # Proportional positive vectors share their divisor.
    x1 = (0.0, 1.0, -1.0)
    x2 = (0.0, 2.0, -2.0)
    pair = PairConfig(x1=x1, x2=x2)
    with pytest.raises(PreconditionViolation):
        lambda_star(pair, spec)


def test_lambda_close_pair_value_and_symmetry(spec):
    x1 = (0.0, 1.0, -1.0)
    x2 = (0.4, -1.37, 1.0)
    a = lambda_star(PairConfig.from_vectors(x1, x2), spec)
    b = lambda_star(PairConfig.from_vectors(x2, x1), spec)
    assert a.value > 0.5  # close divisors produce an O(1) height
    assert abs(a.value - b.value) <= a.err + b.err


def test_lambda_mixed_and_negative_signatures(spec):
    pos = (0.0, 1.0, -1.0)
    neg = (1.0, 1.0, 1.0)  # Q = -2
    r1 = lambda_star(PairConfig.from_vectors(pos, neg), spec)
    r2 = lambda_star(PairConfig.from_vectors(neg, pos), spec)
    assert abs(r1.value - r2.value) <= r1.err + r2.err
    n1 = (0.0, 1.0, 1.0)
    n2 = (1.0, 0.5, 1.5)
    r3 = lambda_star(PairConfig.from_vectors(n1, n2), spec)
    assert math.isfinite(r3.value)


# lambda_star computes a pair and its rotations and conjugates in one frame,
# so these compare it with lambda_of_gram, the formula in the eigenvalues.


def test_lambda_rotation_instances(spec):
    rng = random.Random(2024)
    for _ in range(6):
        pair = checks.random_pair(rng)
        rot = checks.random_rotation(rng)
        base = lambda_of_gram(pair.gram, spec)
        moved = lambda_star(checks.rotate_pair(pair, rot), spec)
        assert abs(moved.value - base.value) <= moved.err + base.err


def test_lambda_depends_only_on_gram(spec):
    rng = random.Random(77)
    for _ in range(6):
        pair = checks.random_pair(rng)
        other = checks.conjugate_pair(pair, rng)
        a = lambda_of_gram(pair.gram, spec)
        b = lambda_star(other, spec)
        assert abs(a.value - b.value) <= a.err + b.err


def test_lambda_rational_pairs_equal_gram(spec):
    # Two exact-rational realizations of the same gram matrix.
    from ariththeta import splitorbits as so

    p1 = PairConfig.from_vectors((0, 1, -1), (1, 0, 0))
    act = so.conj_action((2, 1, 1, 1))  # det 1
    q1 = so.apply3(act, (0, 1, -1))
    q2 = so.apply3(act, (1, 0, 0))
    p2 = PairConfig.from_vectors(q1, q2)
    assert p1.gram == p2.gram
    assert (q1, q2) != ((0, 1, -1), (1, 0, 0))
    a = lambda_star(p1, spec)
    b = lambda_star(p2, spec)
    assert abs(a.value - b.value) <= a.err + b.err


def test_lambda_self_convergence_under_tighter_spec():
    base_spec = QuadratureSpec()
    tight = QuadratureSpec(rel_tol=4e-6, abs_tol=4e-8, max_cells=40000)
    pair = PairConfig.from_vectors((0.0, 1.0, -1.0), (0.4, -1.37, 1.0))
    a = lambda_star(pair, base_spec)
    b = lambda_star(pair, tight)
    assert abs(a.value - b.value) <= a.err + b.err


# --- an independent oracle ----------------------------------------------------


def _q(x):
    a, b, g = x
    return -a * a - b * g


def _r(x, u, v):
    a, b, g = x
    re = g * (u * u - v * v) - 2 * a * u - b
    im = 2 * v * (g * u - a)
    return (re * re + im * im) / (4 * v * v)


def _omega(x, u, v):
    big_r = _r(x, u, v)
    return math.exp(-2 * math.pi * big_r) * (2 * (big_r + _q(x)) - 1 / (2 * math.pi))


def _polar(uc, vc, g, r_max):
    """Integral of g(r, u, v) against hyperbolic measure over the disc of
    radius r_max about uc + i vc, in geodesic polar coordinates (r, theta),
    measure sinh r dr dtheta.  The angle is cut into 16 pieces, so that a
    peak narrower than quad's first nodes is still seen."""
    cuts = [2 * math.pi * k / 16 for k in range(1, 16)]

    def ring(r):
        def at(th):
            d = math.cosh(r) - math.sinh(r) * math.cos(th)
            return g(r, uc + vc * math.sinh(r) * math.sin(th) / d, vc / d)

        inner = quad(at, 0, 2 * math.pi, points=cuts, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
        return inner * math.sinh(r)

    return quad(ring, 0, r_max, epsabs=1e-13, epsrel=1e-11, limit=200)[0]


def polar_reference(x1, x2) -> float:
    """Lambda by scipy alone, for a pair with a positive vector p.

    Lambda = 2 (xi(o)(z_p) + integral of omega(o) xi(p)), with o the other
    vector, omega(o) = e^{-2 pi R} (2 (R + Q(o)) - 1/(2 pi)) and
    xi(p) = E_1(2 pi Q(p) sinh^2 r) at distance r from z_p.  Beyond r_max,
    where 2 pi Q(p) sinh^2 r = 40, xi(p) < 1e-19.
    """
    o, p = (x1, x2) if _q(x2) > 0 else (x2, x1)
    t = _q(p)
    up, vp = p[0] / p[2], math.sqrt(t) / abs(p[2])
    r_max = math.asinh(math.sqrt(40.0 / (2 * math.pi * t)))
    smooth = _polar(up, vp, lambda r, u, v: _omega(o, u, v) * exp1(2 * math.pi * t * math.sinh(r) ** 2), r_max)
    return 2 * (exp1(2 * math.pi * _r(o, up, vp)) + smooth)


def geodesic_reference(x1, x2) -> float:
    """Lambda = 2 integral of omega(x1) xi(x2) by scipy alone, for two
    negative vectors, in polar coordinates about the point that minimizes
    cosh^2 of the distance to one geodesic plus that to the other.  At
    distance 5 from it, R >= |Q| cosh^2 2.5 for one of the two vectors."""
    t1, t2 = abs(_q(x1)), abs(_q(x2))
    starts = [(u0, l0) for u0 in (-1.0, 0.0, 1.0) for l0 in (-1.0, 0.0, 1.0)]
    fits = [
        minimize(lambda p: _r(x1, p[0], math.exp(p[1])) / t1 + _r(x2, p[0], math.exp(p[1])) / t2, s0,
                 method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        for s0 in starts
    ]
    uc, lc = min(fits, key=lambda f: f.fun).x
    return 2 * _polar(uc, math.exp(lc), lambda r, u, v: _omega(x1, u, v) * exp1(2 * math.pi * _r(x2, u, v)), 5.0)


# The CM-geodesic pair of the symmetric root of z_hat at T = (1, 0, -1) and
# V_FAULT and a second CM-geodesic pair, on which an excise-and-extrapolate
# quadrature under-reported its error bar; then a CM-CM pair with Q = 0.008,
# whose xi reaches hyperbolic distance 4, and a CM-geodesic pair whose
# geodesic has radius 131: the box about the log point at its largest, and
# a divisor far from it.
V_FAULT = ((0.9272104424816127, -0.25692769098094836), (-0.25692769098094836, 1.0205161133427387))
ORACLE_PAIRS = [
    (((-0.131385, 0.953912, -0.953912), (1.001626, -0.131385, 0.131385)), 3.744097e-4),
    (
        (
            (0.27806968266393933, -1.3083998468440745, 1.0301018275662475),
            (0.13864785657655873, 2.2448251400720602, 0.5226614359667621),
        ),
        1.431345e-5,
    ),
    (
        (
            (0.7377510883116825, 2.8364416290185037, -1.4683114024601411),
            (-1.1386820660601202, -3.951049800750784, 0.3301895852673591),
        ),
        5.744098e-5,
    ),
    (
        (
            (-0.6904788542354949, -1.0369267963557898, 2.0046056185831054),
            (0.8636651266052037, 1.6982059422797176, -0.006542428038809334),
        ),
        1.142561e-4,
    ),
]


def _drawn_pairs(seed: int, per_kind: int = 2, geometry: int | None = None) -> list:
    """The first random_pair draws with two positive norms and with one, or
    with the given number of positive norms alone."""
    rng = random.Random(seed)
    kinds = {2: [], 1: []} if geometry is None else {geometry: []}
    while min(len(v) for v in kinds.values()) < per_kind:
        pair = checks.random_pair(rng)
        positives = (pair.gram[0][0] > 0) + (pair.gram[1][1] > 0)
        if positives in kinds and len(kinds[positives]) < per_kind:
            kinds[positives].append(pair)
    return [pair for kind in sorted(kinds, reverse=True) for pair in kinds[kind]]


@pytest.mark.parametrize("vectors,documented", ORACLE_PAIRS)
def test_lambda_within_its_error_of_the_polar_oracle(vectors, documented, spec):
    ref = polar_reference(*vectors)
    assert abs(ref - documented) <= 1e-6 * documented
    res = lambda_star(PairConfig.from_vectors(*vectors), spec)
    assert abs(res.value - ref) <= res.err


def _reference(pair) -> float:
    """polar_reference of a pair with a positive vector, else geodesic_reference."""
    (q1, _), (_, q2) = pair.gram
    return (polar_reference if q1 > 0 or q2 > 0 else geodesic_reference)(pair.x1, pair.x2)


def test_drawn_pairs_within_their_error_of_the_polar_oracle(spec):
    # lambda_star computes a pair and every partner with its gram's
    # eigenvalues in one frame, while the scipy oracles integrate in the
    # partner's own coordinates: they carry the O(2), swap and gram-only
    # claims.  An oracle call takes about 0.15 s, so each drawn pair has one
    # partner, rotated, swapped and conjugated in turn, and the pair and the
    # partner are both compared with the partner's oracle; then two drawn
    # pairs of crossing geodesics with their own.
    rng = random.Random(59)
    kinds = (
        lambda pair: checks.rotate_pair(pair, checks.random_rotation(rng)),
        lambda pair: PairConfig(pair.x2, pair.x1),
        lambda pair: checks.conjugate_pair(pair, rng),
    )
    drawn = _drawn_pairs(31) + _drawn_pairs(47, per_kind=1)
    cases = [(pair, kinds[k % 3](pair)) for k, pair in enumerate(drawn)]
    for pair, partner in cases + [(pair, pair) for pair in _drawn_pairs(61, geometry=0)]:
        ref = _reference(partner)
        for p in (pair, partner):
            res = lambda_star(p, spec)
            assert abs(res.value - ref) <= res.err, (p, res, ref)


# Seeded pairs with a positive vector, CM-CM then CM-geodesic, each in both
# orders; then pairs of two negative vectors whose geodesics cross, each in
# both orders.
FRAME_PAIRS = [p for pair in _drawn_pairs(53) for p in (pair, PairConfig(pair.x2, pair.x1))]
CROSSING_PAIRS = [p for pair in _drawn_pairs(53, geometry=0) for p in (pair, PairConfig(pair.x2, pair.x1))]


@pytest.mark.parametrize("pair", FRAME_PAIRS + CROSSING_PAIRS)
def test_disc_frame_is_even_and_its_half_box_doubles(pair, spec, monkeypatch):
    # lambda_star's frame is the orthogonal pair of the gram's eigenvalues,
    # its integrand is the same on the four quarters of the disc r <= D, and
    # its quarter box, counted four times, is the half box doubled and the
    # full circle.
    frames, boxes = [], []
    integrand_of, integrate = starprod._polar_integrand, starprod.adaptive_integrate

    def recording_integrand(y1, y2, radius):
        frames.append((y1, y2, radius))
        return integrand_of(y1, y2, radius)

    def recording(f, *args, **kwargs):
        boxes.append((args, kwargs["initial"], integrate(f, *args, **kwargs)))
        return boxes[-1][-1]

    monkeypatch.setattr(starprod, "_polar_integrand", recording_integrand)
    monkeypatch.setattr(starprod, "adaptive_integrate", recording)
    res = lambda_star(pair, spec)
    [(y1, y2, radius)] = frames
    [(box, initial, (quarter, e_quarter))] = boxes
    assert box == (0.0, 1.0, 0.0, math.pi / 2) and initial == (4, 2)
    (q1, m), (_, q2) = pair.gram
    lo, hi = starprod._eigenvalues(q1, m, q2)
    scale = 1 + abs(q1) + abs(q2) + abs(m)
    assert abs(lo + hi - (q1 + q2)) <= 1e-14 * scale and abs(lo * hi - pair.det) <= 1e-14 * scale**2
    got = PairConfig.from_vectors(y1, y2).gram
    assert np.allclose(got, ((lo, 0.0), (0.0, hi)), rtol=0.0, atol=1e-14 * scale), (got, lo, hi)
    # y1's geodesic passes through i, where R = -Q is least; so does y2's
    # for crossing geodesics, and otherwise i is y2's CM point, and the
    # delta term is xi(y1) at i.
    assert _r(y1, 0.0, 1.0) == pytest.approx(-lo, rel=1e-13)
    if q1 < 0 and q2 < 0:
        assert hi < 0 and _r(y2, 0.0, 1.0) == pytest.approx(-hi, rel=1e-13)
        assert res.value == 8 * quarter
    else:
        assert hi > 0 and _r(y2, 0.0, 1.0) == 0.0
        assert res.value == pytest.approx(2 * (exp1(2 * math.pi * -lo) + 4 * quarter), rel=1e-13)
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 0.1, 500)])
    theta = rng.uniform(0.0, math.pi / 2, 1000)
    integrand = integrand_of(y1, y2, radius)
    # Even in theta, bit for bit; and the same at pi - theta, up to the
    # rounding of pi - theta.
    assert np.array_equal(integrand(s, theta), integrand(s, -theta))
    assert np.allclose(integrand(s, math.pi - theta), integrand(s, theta), rtol=1e-9, atol=0.0)
    half, e_half = integrate(
        integrand, 0.0, 1.0, 0.0, math.pi,
        abs_tol=spec.abs_tol / 2, rel_tol=spec.rel_tol, max_cells=spec.max_cells // 2, initial=(4, 4),
    )
    full, e_full = integrate(
        integrand, 0.0, 1.0, 0.0, 2 * math.pi,
        abs_tol=spec.abs_tol, rel_tol=spec.rel_tol, max_cells=spec.max_cells, initial=(4, 8),
    )
    assert abs(4 * quarter - 2 * half) <= 4 * e_quarter + 2 * e_half, (4 * quarter, 2 * half)
    assert abs(4 * quarter - full) <= 4 * e_quarter + e_full, (4 * quarter, full, 4 * e_quarter, e_full)


# Two pairs of negative vectors on which a rectangle sized by the geodesics'
# features reported error bars too small.
GEODESIC_PAIRS = [
    (
        (-0.7973232273364895, -0.3996363648676156, -0.42080706175265403),
        (0.9098891931018023, -0.06229621569551014, -1.805259674373114),
    ),
    (
        (-1.0428922920932246, 0.649066105539893, 0.3455247273852686),
        (-0.5123692959337738, -0.07062138514876601, -1.4800564917296315),
    ),
]


@pytest.mark.parametrize("vectors", GEODESIC_PAIRS)
def test_geodesic_pair_within_its_error_of_the_polar_oracle(vectors, spec):
    ref = geodesic_reference(*vectors)
    res = lambda_star(PairConfig.from_vectors(*vectors), spec)
    assert abs(res.value - ref) <= res.err


# Pairs of negative vectors whose geodesics do not cross, by the endpoints
# and norms of each: two side by side, then one inside the other, both near
# enough for a value of order 1e-3.  Their gram has signature (1,1) with
# both norms negative.
ULTRAPARALLEL_PAIRS = [
    (checks.vector_with_geodesic(-1.5, -0.1, -0.3), checks.vector_with_geodesic(0.1, 1.6, -0.35)),
    (checks.vector_with_geodesic(-2.0, 2.0, -0.3), checks.vector_with_geodesic(-1.2, 1.0, -0.25)),
]


@pytest.mark.parametrize("vectors", ULTRAPARALLEL_PAIRS)
def test_ultraparallel_pair_within_its_error_of_the_oracles(vectors, spec):
    for x1, x2 in (vectors, vectors[::-1]):
        pair = PairConfig.from_vectors(x1, x2)
        (q1, _), (_, q2) = pair.gram
        assert q1 < 0 and q2 < 0 and pair.det < 0
        res = lambda_star(pair, spec)
        ref = geodesic_reference(x1, x2)
        assert abs(res.value - ref) <= res.err, (res, ref)
        formula = lambda_of_gram(pair.gram, spec)
        assert abs(res.value - formula.value) <= res.err + formula.err, (res, formula)


def _k_lambda_star(t, v, root, spec):
    """(value, err) of k lambda_star(x0 . a): the 2-D route's z_hat(T, v), with
    x0 the first of T's k orbit representatives and a the given root of v."""
    reps = pair_orbit_reps(*t)
    a = starprod._square_root(np.array(v, dtype=float), root)
    res = lambda_star(PairConfig.from_vectors(*pair_action(reps[0], a.ravel())), spec)
    return len(reps) * res.value, len(reps) * res.err


def _assert_z_hat_at_each_root_matches_the_other_roots_pair(lat, t, v, spec):
    """z_hat (the formula) at each root of v within the sum of the error bars
    of k lambda_star (the 2-D route) at the other root."""
    t1, m, t2 = t
    for root, other in (("symmetric", "triangular"), ("triangular", "symmetric")):
        got = z_hat_indefinite(lat, ((t1, m), (m, t2)), v, spec, square_root=root)
        value, err = _k_lambda_star(t, v, other, spec)
        assert abs(got.value - value) <= got.err + err, (root, got, value, err)


def test_z_hat_roots_agree_on_the_former_fault(lat_d1, spec):
    _assert_z_hat_at_each_root_matches_the_other_roots_pair(lat_d1, (1, 0, -1), V_FAULT, spec)


# --- archimedean classes ------------------------------------------------------


def test_z_hat_zero_for_unrepresented_gram(lat_d1, spec):
    res = z_hat_indefinite(lat_d1, ((1, 2), (2, 1)), ((1.0, 0.0), (0.0, 1.0)), spec)
    assert res.value == 0.0 and res.orbits == 0


def test_z_hat_rejects_positive_definite(lat_d1, spec):
    with pytest.raises(PreconditionViolation):
        z_hat_indefinite(lat_d1, ((1, 0), (0, 1)), ((1.0, 0.0), (0.0, 1.0)), spec)


def test_z_hat_rejects_non_split(lat_d6, spec):
    with pytest.raises(UnsupportedDiscriminant):
        z_hat_indefinite(lat_d6, ((1, 0), (0, -1)), ((1.0, 0.0), (0.0, 1.0)), spec)


def test_z_hat_sig11_stability_and_a_independence(lat_d1, spec):
    t_mat = ((1, 0), (0, -1))
    v = ((1.3, 0.3), (0.3, 0.8))
    sym = z_hat_indefinite(lat_d1, t_mat, v, spec, square_root="symmetric")
    assert sym.orbits == 2
    _assert_z_hat_at_each_root_matches_the_other_roots_pair(lat_d1, (1, 0, -1), v, spec)
    tight = QuadratureSpec(rel_tol=4e-6, abs_tol=4e-8, max_cells=40000)
    ref = z_hat_indefinite(lat_d1, t_mat, v, tight)
    assert abs(sym.value - ref.value) <= sym.err + ref.err


def test_lambda_rejects_isotropic_component(spec):
    with pytest.raises(PreconditionViolation):
        lambda_star(PairConfig.from_vectors((0.0, 1.0, 0.0), (1.0, 0.0, 1.0)), spec)


@pytest.mark.parametrize("x2", [(math.nan, 1.0, -1.0), (0.0, math.inf, -1.0), (1.0, 0.0, -math.inf)])
def test_lambda_refuses_a_pair_that_is_not_finite(x2, spec):
    with pytest.raises(PreconditionViolation, match="finite"):
        lambda_star(PairConfig.from_vectors((1.0, 0.0, 0.0), x2), spec)


@pytest.mark.parametrize(
    "x1,x2",
    [
        ((1e160, 0.0, 0.0), (0.0, 1e160, -1.0)),  # finite gram, determinant beyond float range
        ((1e100, 0.0, 0.0), (0.0, 1.0, -1.0)),  # (1 + |q1| + |q2|)^2 beyond float range
    ],
)
def test_lambda_refuses_a_gram_beyond_float_range(x1, x2, spec):
    with pytest.raises(PreconditionViolation):
        lambda_star(PairConfig.from_vectors(x1, x2), spec)


def test_z_hat_zero_diagonal_gram(lat_d1, spec):
    # T = [[0, 1], [1, 0]] has isotropic members, but scaling by a square
    # root of a generic v makes every orbit representative anisotropic.
    res = z_hat_indefinite(lat_d1, ((0, 1), (1, 0)), ((1.3, 0.3), (0.3, 0.8)), spec)
    assert res.orbits > 0 and math.isfinite(res.value)


def test_z_hat_sig02_instance(lat_d1, spec):
    v = ((1.0, 0.2), (0.2, 1.5))
    assert z_hat_indefinite(lat_d1, ((-1, 0), (0, -1)), v, spec).orbits == 2
    _assert_z_hat_at_each_root_matches_the_other_roots_pair(lat_d1, (-1, 0, -1), v, spec)


def _seeded_v(seed):
    """A positive definite v drawn as the a-independence suite draws it."""
    rng = random.Random(seed)
    a11, a22 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    a12 = rng.uniform(-0.4, 0.4) * math.sqrt(a11 * a22)
    return ((a11, a12), (a12, a22))


@pytest.mark.parametrize("t", checks.A_INDEPENDENCE_TS, ids=lambda t: "T=%d,%d,%d" % t)
def test_z_hat_is_orbit_count_times_one_lambda(t, lat_d1, spec):
    # Every orbit's pair x a has the gram a^T T a, so the sum of lambda_star
    # over the orbits (the oracle, by the 2-D route) is the orbit count times
    # lambda_of_gram at that gram (z_hat's route).
    t1, m, t2 = t
    t_mat = np.array([[t1, m], [m, t2]], dtype=float)
    reps = pair_orbit_reps(t1, m, t2)  # none for (1, 2, 1) and (-2, 1, -2)
    for seed in (11, 12):
        v = _seeded_v(seed)
        for root in ("symmetric", "triangular"):
            a = starprod._square_root(np.array(v), root)
            want = a.T @ t_mat @ a
            scale = np.abs(want).max()
            value, err = 0.0, 0.0
            for pair in reps:
                moved = PairConfig.from_vectors(*pair_action(pair, a.ravel()))
                assert np.abs(np.array(moved.gram) - want).max() <= 1e-12 * scale
                res = lambda_star(moved, spec)
                value, err = value + res.value, err + res.err
            got = z_hat_indefinite(lat_d1, ((t1, m), (m, t2)), v, spec, square_root=root)
            assert got.orbits == len(reps)
            assert abs(got.value - value) <= got.err + err


# --- the star product from the gram's eigenvalues ------------------------------


def formula_reference(a: float, b: float, signature: str) -> float:
    """Lambda of diag(-a, b) (signature "11") or diag(-a, -b) ("02") by scipy
    alone, from the formula of lambda_of_gram's docstring, in u = w^2 and t.

    The factor e^{-2 pi a} of A and, in (0,2), e^{-2 pi b} of h are taken
    out of the integrals and multiplied back at the end, so that scipy
    integrates values of order one; unscaled, its absolute error floor
    swamps values below about 1e-30.
    """
    alpha, beta = 2 * math.pi * a, 2 * math.pi * b

    def scaled_a(c):  # e^{2 pi a} A(c)
        return a * math.sqrt(math.pi) * c**-1.5 - c**-0.5 / (2 * math.sqrt(math.pi))

    def t_integral(w):
        u = w * w
        if signature == "11":
            def g(t):
                return scaled_a(alpha + beta * t + u) * math.sqrt(math.pi / (beta * t + u)) / t
        else:
            def g(t):
                return scaled_a(alpha + u) * math.exp(-beta * (t - 1)) * math.sqrt(math.pi / (beta * t + u)) / t
        return quad(g, 1, math.inf, epsabs=0, epsrel=1e-12, limit=400)[0]

    # pi^{-1/2} int_0^oo u^{-1/2} e^{-u} F(u) du = 2 pi^{-1/2} int_0^oo e^{-w^2} F(w^2) dw
    i = quad(lambda w: math.exp(-w * w) * t_integral(w), 0, math.inf, epsabs=0, epsrel=1e-12, limit=400)[0]
    i *= 2 / math.sqrt(math.pi)
    if signature == "11":
        return 2 * (exp1(alpha) + math.exp(-alpha) * i)
    return 2 * math.exp(-alpha - beta) * i


# Eigenvalues from near isotropy to far apart; (0,2) is symmetric in a and b.
EIGENVALUES = (1e-3, 1e-2, 0.1, 1.0, 5.0, 20.0, 50.0)
EIGEN_CASES = [("11", a, b) for a in EIGENVALUES for b in EIGENVALUES] + [
    ("02", a, b) for i, a in enumerate(EIGENVALUES) for b in EIGENVALUES[i:]
]
# A relative tolerance alone, so that the values below 1e-30 are checked too.
RELATIVE_SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300, max_cells=100000)


@pytest.mark.parametrize("signature,a,b", EIGEN_CASES)
def test_lambda_of_gram_within_its_error_of_the_formula_reference(signature, a, b, spec):
    ref = formula_reference(a, b, signature)
    gram = ((-a, 0.0), (0.0, b if signature == "11" else -b))
    for s in (spec, RELATIVE_SPEC):
        res = lambda_of_gram(gram, s)
        assert abs(res.value - ref) <= res.err, (s, res, ref)


def test_formula_reference_below_1e_30_matches_mpmath():
    # (0,2) at a = 20, b = 50, where Lambda is -6.04e-199: unscaled, scipy's
    # value is off here.  mpmath's Gauss-Legendre, on pieces cut at the
    # scales of w and of beta t.
    a, b = 20.0, 50.0
    with mpmath.workdps(15):
        alpha, beta = 2 * mpmath.pi * a, 2 * mpmath.pi * b

        def t_integral(w):
            u = w * w
            c = alpha + u
            scaled_a = -u / (2 * mpmath.sqrt(mpmath.pi) * c**1.5)
            pieces = [1 + k / beta for k in (0, 1, 4, 16, 64)]
            return mpmath.quad(
                lambda t: scaled_a * mpmath.exp(-beta * (t - 1)) * mpmath.sqrt(mpmath.pi / (beta * t + u)) / t,
                pieces,
                method="gauss-legendre",
            )

        w_pieces = [0, 0.5, 1, 2, 3, 6]
        i = mpmath.quad(lambda w: mpmath.exp(-w * w) * t_integral(w), w_pieces, method="gauss-legendre")
        want = float(4 * mpmath.exp(-alpha - beta) * i / mpmath.sqrt(mpmath.pi))
    assert formula_reference(a, b, "02") == pytest.approx(want, rel=1e-9)


def test_lambda_of_gram_within_errors_of_lambda_star_on_drawn_pairs(spec):
    rng = random.Random(2036)
    positives = Counter()
    for _ in range(200):
        pair = checks.random_pair(rng)
        positives[(pair.gram[0][0] > 0) + (pair.gram[1][1] > 0)] += 1
        star, formula = lambda_star(pair, spec), lambda_of_gram(pair.gram, spec)
        assert abs(star.value - formula.value) <= star.err + formula.err, (pair, star, formula)
    assert set(positives) == {0, 1, 2}


def _heights_zhat_inputs():
    """The z_hat inputs of the heights benchmark: the T of the a-independence
    suite with v drawn from the stream "heights:z_hat", then V_FAULT."""
    rng = random.Random("heights:z_hat")
    for t in checks.A_INDEPENDENCE_TS:
        a11, a22 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a12 = rng.uniform(-0.4, 0.4) * math.sqrt(a11 * a22)
        yield t, ((a11, a12), (a12, a22))
    yield (1, 0, -1), V_FAULT


@pytest.mark.parametrize("t,v", list(_heights_zhat_inputs()))
def test_z_hat_within_errors_of_lambda_star_on_the_heights_inputs(t, v, lat_d1, spec):
    t1, m, t2 = t
    reps = pair_orbit_reps(t1, m, t2)
    for root in ("symmetric", "triangular"):
        got = z_hat_indefinite(lat_d1, ((t1, m), (m, t2)), v, spec, square_root=root)
        assert got.orbits == len(reps)
        if reps:
            value, err = _k_lambda_star(t, v, root, spec)
            assert abs(got.value - value) <= got.err + err


def test_z_hat_roots_agree_where_a_gram_entry_is_zero(lat_d1, spec):
    # The symmetric root of v makes a^T T a a gram with a zero diagonal entry:
    # no pair with that gram is anisotropic, so lambda_star refuses it, while
    # the gram's eigenvalues are those of any other root's gram.
    t_mat, v = ((1, 0), (0, -1)), ((2, 3), (3, 5))
    a = starprod._square_root(np.array(v, dtype=float), "symmetric")
    gram = a.T @ np.array(t_mat) @ a
    assert min(abs(gram[0, 0]), abs(gram[1, 1])) < 1e-12
    tight = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-16)
    for s in (spec, tight):
        sym = z_hat_indefinite(lat_d1, t_mat, v, s, square_root="symmetric")
        tri = z_hat_indefinite(lat_d1, t_mat, v, s, square_root="triangular")
        assert sym.orbits == tri.orbits == 2
        assert abs(sym.value - tri.value) <= sym.err + tri.err
        assert abs(sym.value - 4.5092797e-11) <= sym.err + 1e-18


@pytest.mark.parametrize(
    "gram",
    [
        ((1.0, 2.0), (2.0, 4.0)),  # singular
        ((1.0, 0.0), (0.0, 2.0)),  # positive definite
        ((1.0, 0.5), (0.4, -1.0)),  # not symmetric
        ((math.nan, 0.0), (0.0, -1.0)),
        ((1.0, 0.0), (0.0, math.inf)),
        ((1e300, 0.0), (0.0, -1e300)),  # the determinant overflows
        ((1e200, 0.0), (0.0, -1e-200)),  # (1 + |q1| + |q2|)^2 overflows
    ],
)
def test_lambda_of_gram_preconditions(gram, spec):
    with pytest.raises(PreconditionViolation):
        lambda_of_gram(gram, spec)


# --- work and values pinned --------------------------------------------------

# Integrand points of each adaptive_integrate call and value of lambda_star
# and z_hat at the default spec.  A change to the quadrature or the kernels
# that keeps their nodes keeps these counts, and the values to rounding.
# lambda_star evaluates omega at its integrand's points alone; z_hat
# integrates the formula of lambda_of_gram, which evaluates no omega kernel.
PINNED_WORK = {
    "cm-cm": ([640], 0.16824952385108952),
    "cm-geodesic": ([640], 0.010261227041676028),
    "geodesic-geodesic": ([640], -4.4000547968083064e-11),
    "z_hat": ([1280], 0.004652082441014367),
}


def _pinned_call(case, lat):
    if case == "z_hat":
        return z_hat_indefinite(lat, ((1, 0), (0, -1)), ((1.3, 0.3), (0.3, 0.8)))
    x1, x2 = {
        "cm-cm": (
            (0.1410559772750771, -1.288707333086684, 0.985724975056906),
            (0.6530449960577979, -1.6014807289906619, 0.6016358271335599),
        ),
        "cm-geodesic": (
            (0.019944437123984474, -1.079869375031274, 0.6480028072067981),
            (-0.05279462738544296, 1.4507012184263042, 0.3330952673010382),
        ),
        "geodesic-geodesic": ((0.0, 1.0, 1.0), (1.0, 0.5, 1.5)),
    }[case]
    return lambda_star(PairConfig.from_vectors(x1, x2))


@pytest.mark.parametrize("case", sorted(PINNED_WORK))
def test_lambda_work_and_value_pinned(case, lat_d1, monkeypatch):
    integrate, ddc = starprod.adaptive_integrate, starprod.ddc_xi_vec
    points, omega = [], [0]

    def counting_integrate(f, *args, **kwargs):
        points.append(0)

        def g(x, s):
            points[-1] += x.size
            return f(x, s)

        return integrate(g, *args, **kwargs)

    def counting_ddc(x, u, v):
        omega[0] += u.size
        return ddc(x, u, v)

    monkeypatch.setattr(starprod, "adaptive_integrate", counting_integrate)
    monkeypatch.setattr(starprod, "ddc_xi_vec", counting_ddc)
    res = _pinned_call(case, lat_d1)
    want_points, want_value = PINNED_WORK[case]
    assert points == want_points
    assert omega[0] == (0 if case == "z_hat" else sum(points))
    assert res.value == pytest.approx(want_value, rel=1e-13, abs=0.0)
