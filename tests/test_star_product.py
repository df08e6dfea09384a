"""Star-product heights: invariance, symmetry, gram-only dependence, classes."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import exp1

import ariththeta as at
from ariththeta import checks
from ariththeta.errors import (
    PreconditionViolation,
    SingularConfiguration,
    UnsupportedDiscriminant,
)
from ariththeta import starprod
from ariththeta.greens import QuadratureSpec
from ariththeta.splitorbits import pair_action, pair_orbit_reps
from ariththeta.starprod import PairConfig, lambda_star, z_hat_indefinite


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
    with pytest.raises((SingularConfiguration, PreconditionViolation)):
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


def test_lambda_rotation_instances(spec):
    rng = random.Random(2024)
    for _ in range(6):
        pair = checks.random_pair(rng)
        rot = checks.random_rotation(rng)
        base = lambda_star(pair, spec)
        moved = lambda_star(checks.rotate_pair(pair, rot), spec)
        assert abs(moved.value - base.value) <= 5e-3 * (1 + abs(base.value))


def test_lambda_depends_only_on_gram(spec):
    rng = random.Random(77)
    for _ in range(6):
        pair = checks.random_pair(rng)
        other = checks.conjugate_pair(pair, rng)
        a = lambda_star(pair, spec)
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


def _drawn_pairs(seed: int, per_kind: int = 2) -> list:
    """The first random_pair draws with two positive norms and with one."""
    rng = random.Random(seed)
    kinds = {2: [], 1: []}
    while min(len(v) for v in kinds.values()) < per_kind:
        pair = checks.random_pair(rng)
        positives = (pair.gram[0][0] > 0) + (pair.gram[1][1] > 0)
        if positives in kinds and len(kinds[positives]) < per_kind:
            kinds[positives].append(pair)
    return kinds[2] + kinds[1]


@pytest.mark.parametrize("vectors,documented", ORACLE_PAIRS)
def test_lambda_within_its_error_of_the_polar_oracle(vectors, documented, spec):
    ref = polar_reference(*vectors)
    assert abs(ref - documented) <= 1e-6 * documented
    res = lambda_star(PairConfig.from_vectors(*vectors), spec)
    assert abs(res.value - ref) <= res.err


def test_drawn_pairs_within_their_error_of_the_polar_oracle(spec):
    for pair in _drawn_pairs(31) + _drawn_pairs(47, per_kind=1):
        ref = polar_reference(pair.x1, pair.x2)
        res = lambda_star(pair, spec)
        assert abs(res.value - ref) <= res.err, (pair, res, ref)


# Seeded disc pairs, CM-CM then CM-geodesic, each in both orders, so that
# either entry carries the delta term.
FRAME_PAIRS = [p for pair in _drawn_pairs(53) for p in (pair, PairConfig(pair.x2, pair.x1))]


@pytest.mark.parametrize("pair", FRAME_PAIRS)
def test_disc_frame_is_even_and_its_half_box_doubles(pair, spec, monkeypatch):
    y1, y2, rho2 = starprod._disc_frame(pair)
    assert y1[0] == 0.0 and y2[0] == 0.0
    (q1, m), (_, q2) = pair.gram
    want = ((q1, m), (m, q2)) if q2 > 0 else ((q2, m), (m, q1))
    got = PairConfig.from_vectors(y1, y2).gram
    scale = 1 + abs(q1) + abs(q2) + abs(m)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14 * scale), (got, want)
    assert rho2 == pytest.approx(_r(y1, 0.0, 1.0), rel=1e-13)
    # The box integrand is even in x, on the box and near the log point i.
    integrand = starprod._box_integrand(y1, y2, True)
    x_min, x_max, s_min, s_max = starprod._log_point_box(y1, y2, 0.01 * spec.abs_tol)
    assert x_min == 0.0
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(0.0, x_max, 500), rng.uniform(0.0, 0.6, 500)])
    s = np.concatenate([rng.uniform(s_min, s_max, 500), rng.uniform(-0.6, 0.6, 500)])
    assert np.array_equal(integrand(x, s), integrand(-x, s))
    # lambda_star's half box, doubled, against the full box of the same frame.
    halves = []
    integrate = starprod.adaptive_integrate

    def recording(f, *args, **kwargs):
        halves.append(integrate(f, *args, **kwargs))
        return halves[-1]

    monkeypatch.setattr(starprod, "adaptive_integrate", recording)
    lambda_star(pair, spec)
    [(half, e_half)] = halves
    full, e_full = integrate(
        integrand,
        -x_max,
        x_max,
        s_min,
        s_max,
        abs_tol=spec.abs_tol,
        rel_tol=spec.rel_tol,
        max_cells=spec.max_cells,
        initial=(max(8, math.ceil(2 * x_max)), max(6, math.ceil(s_max - s_min))),
    )
    assert abs(2 * half - full) <= 2 * e_half + e_full, (2 * half, full, 2 * e_half, e_full)


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


def test_z_hat_roots_agree_on_the_former_fault(lat_d1, spec):
    t_mat = ((1, 0), (0, -1))
    sym = z_hat_indefinite(lat_d1, t_mat, V_FAULT, spec, square_root="symmetric")
    tri = z_hat_indefinite(lat_d1, t_mat, V_FAULT, spec, square_root="triangular")
    assert abs(sym.value - tri.value) <= sym.err + tri.err


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
    tri = z_hat_indefinite(lat_d1, t_mat, v, spec, square_root="triangular")
    assert sym.orbits == 2
    assert abs(sym.value - tri.value) <= sym.err + tri.err
    tight = QuadratureSpec(rel_tol=4e-6, abs_tol=4e-8, max_cells=40000)
    ref = z_hat_indefinite(lat_d1, t_mat, v, tight)
    assert abs(sym.value - ref.value) <= sym.err + ref.err


def test_lambda_rejects_isotropic_component(spec):
    with pytest.raises(PreconditionViolation):
        lambda_star(PairConfig.from_vectors((0.0, 1.0, 0.0), (1.0, 0.0, 1.0)), spec)


def test_z_hat_zero_diagonal_gram(lat_d1, spec):
    # T = [[0, 1], [1, 0]] has isotropic members, but scaling by a square
    # root of a generic v makes every orbit representative anisotropic.
    res = z_hat_indefinite(lat_d1, ((0, 1), (1, 0)), ((1.3, 0.3), (0.3, 0.8)), spec)
    assert res.orbits > 0 and math.isfinite(res.value)


def test_z_hat_sig02_instance(lat_d1, spec):
    t_mat = ((-1, 0), (0, -1))
    v = ((1.0, 0.2), (0.2, 1.5))
    sym = z_hat_indefinite(lat_d1, t_mat, v, spec, square_root="symmetric")
    tri = z_hat_indefinite(lat_d1, t_mat, v, spec, square_root="triangular")
    assert sym.orbits == 2
    assert abs(sym.value - tri.value) <= sym.err + tri.err


def _seeded_v(seed):
    """A positive definite v drawn as the a-independence suite draws it."""
    rng = random.Random(seed)
    a11, a22 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    a12 = rng.uniform(-0.4, 0.4) * math.sqrt(a11 * a22)
    return ((a11, a12), (a12, a22))


@pytest.mark.parametrize("t", checks.A_INDEPENDENCE_TS, ids=lambda t: "T=%d,%d,%d" % t)
def test_z_hat_is_orbit_count_times_one_lambda(t, lat_d1, spec):
    # Every orbit's pair x a has the gram a^T T a, so the sum of lambda_star
    # over the orbits (the oracle) is the orbit count times one of them.
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


# --- work and values pinned --------------------------------------------------

# Integrand points of each adaptive_integrate call, disc angles (those in
# [0, pi] that were evaluated) and value of lambda_star and z_hat at the
# default spec.  A change to the quadrature or the kernels that keeps their
# nodes keeps these counts, and the values to rounding.
PINNED_WORK = {
    "cm-cm": ([4480], 17, 0.16824952405858506),
    "cm-geodesic": ([3200], 9, 0.010261227187471205),
    "geodesic-geodesic": ([3840], 0, -4.4948533014605066e-11),
    "z_hat": ([1920], 9, 0.004652082188042977),
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
    want_points, want_angles, want_value = PINNED_WORK[case]
    radii = starprod._R_FULL.size + starprod._R_HALF.size
    assert points == want_points
    # omega is evaluated at the integrand's points and at radii x angles of the disc.
    assert omega[0] - sum(points) == radii * want_angles
    assert res.value == pytest.approx(want_value, rel=1e-13, abs=0.0)


def test_disc_tables_are_the_polar_formula_at_the_doubling_angles():
    # The angles in [0, pi] of the circle's 8 angles k 2 pi / 8 and of each
    # doubling's midpoints; a level's weights make its ring mean the mean
    # over the whole circle of a function even in theta.
    r = np.concatenate([starprod._R_FULL, starprod._R_HALF])[:, None]
    angles, weights, m = [np.arange(5) * (math.pi / 4)], [np.array([1, 2, 2, 2, 1]) / 8], 8
    while 2 * m <= starprod._MAX_ANGLES:
        angles.append((np.arange(m // 2) + 0.5) * (2 * math.pi / m))
        weights.append(np.full(m // 2, 2 / m))
        m *= 2
    assert m == starprod._MAX_ANGLES
    assert len(starprod._DISC_NODES) == len(angles)
    for (u, v, w), theta, want_w in zip(starprod._DISC_NODES, angles, weights):
        assert np.all((0 <= theta) & (theta <= math.pi))
        den = np.cosh(r) - np.sinh(r) * np.cos(theta)
        want_u, want_v = (np.sinh(r) * np.sin(theta) / den).ravel(), (1.0 / den).ravel()
        assert u.shape == v.shape == want_u.shape
        assert np.all(np.abs(u - want_u) <= np.spacing(np.abs(want_u)))
        assert np.all(np.abs(v - want_v) <= np.spacing(want_v))
        assert np.array_equal(w, want_w)
        assert not (u.flags.writeable or v.flags.writeable or w.flags.writeable)
    # Each level's mean of an even trigonometric polynomial of low degree is
    # its mean over the circle, 1/2 for cos^2.
    for theta, w in zip(angles, weights):
        assert np.cos(theta) ** 2 @ w == pytest.approx(0.5, abs=1e-15)
