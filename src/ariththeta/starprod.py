"""Star-product heights and archimedean classes for nonsingular 2x2 indices.

The height of a pair of Green functions is realized as

    Lambda(x1, x2) = [delta term] + integral over D of omega(x1) . xi(x2),

with omega(x) = dd^c xi(x) + delta_{D_x} the Kudla-Millson form, whose
density is smooth (greens.ddc_xi_vec).  The delta term is xi(x1) evaluated
at the divisor of x2 when Q(x2) > 0 (attached to x1's divisor instead when
only Q(x1) > 0, and absent when both norms are negative).  Both sheets of D
contribute; for real vectors they agree, hence the overall factor 2.

Lambda depends on the pair only through its gram, so a pair with a positive
vector is integrated in a frame written from its gram (_disc_frame), where
the log point of xi of the positive vector is i and both vectors have
alpha = 0.  A smooth cut-off chi of the distance to i splits the integrand
f at that singular point: chi f is integrated on a disc in geodesic polar
coordinates, (1 - chi) f, which vanishes to fourth order at i, by one
adaptive integral over a box in z = e^s (x + i) whose exterior holds a
proved share of the tolerance.  With alpha = 0, f is even under
z -> -conj(z), which is x -> -x in the box and theta -> -theta on the disc,
so each is integrated on its half.  Pairs of two negative vectors have no
singular point and only the box, in full: neither of their symmetries (a
half-turn about the crossing point, a reflection in the common
perpendicular) maps it onto itself.

The archimedean class z_hat(T, v) sums Lambda(x . a) over the unit-group
orbits of pairs x with gram T, where v = a a^T.  Every x . a has the gram
a^T T a, so the sum is the orbit count times one Lambda (z_hat_indefinite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import splitorbits
from .errors import (
    OnSingularLocus,
    PreconditionViolation,
    QuadratureFailure,
    UnsupportedDiscriminant,
    require_index,
    require_real,
)
from .greens import (
    DEFAULT_SPEC,
    TWO_PI,
    QuadratureSpec,
    beta1,
    ddc_xi_vec,
    geodesic_endpoints,
    xi_vec,
)
from .lattice import TraceZeroLattice
from .quadrature import adaptive_integrate
from .splitorbits import apply3, conj_action, pair_action, q_value

Vec3 = tuple[float, float, float]

# Hyperbolic radius of the disc about the log point of xi(y2) on which the
# cut-off chi = 1 - S(d / DISC_RADIUS) falls from 1 to 0.
DISC_RADIUS = 0.5
# d(z, i) < DISC_RADIUS exactly when |z - i|^2 < 4 v sinh^2(DISC_RADIUS / 2);
# the factor 1 + 1e-9 keeps every node where chi may be nonzero.
_DISC_REACH = 4.0 * math.sinh(DISC_RADIUS / 2.0) ** 2 * (1.0 + 1e-9)
_RADIAL_NODES = 24
_MAX_ANGLES = 1024


@dataclass(frozen=True)
class PairConfig:
    """A pair of trace-zero vectors; its gram derives from them.

    gram is T = ((t1, m), (m, t2)) with t_i = Q(x_i) and m = (x1, x2)/2.
    """

    x1: Vec3
    x2: Vec3

    @classmethod
    def from_vectors(cls, x1, x2) -> "PairConfig":
        return cls(*(tuple(float(require_real(c, "a vector entry")) for c in x) for x in (x1, x2)))

    @cached_property
    def gram(self) -> tuple[tuple[float, float], tuple[float, float]]:
        m = splitorbits.inner(self.x1, self.x2) / 2.0
        return ((q_value(self.x1), m), (m, q_value(self.x2)))

    @property
    def det(self) -> float:
        return self.gram[0][0] * self.gram[1][1] - self.gram[0][1] ** 2


@dataclass(frozen=True)
class LambdaResult:
    value: float
    err: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ZhatResult:
    value: float
    err: float
    orbits: int

    def __float__(self) -> float:
        return self.value


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """S(x) = 35x^4 - 84x^5 + 70x^6 - 20x^7; S(0) = 0, S(1) = 1, and the first
    three derivatives vanish at both ends."""
    x2 = x * x
    return x2 * x2 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))


def _radial_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights of chi(r) sinh(r) dr on [0, DISC_RADIUS] by n-point
    Gauss-Legendre in s, r = DISC_RADIUS s^2, which smooths r log r at 0."""
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (x + 1.0)
    r = DISC_RADIUS * s * s
    return r, w * DISC_RADIUS * s * np.sinh(r) * (1.0 - _smoothstep(s * s))


_R_FULL, _W_FULL = _radial_rule(_RADIAL_NODES)
_R_HALF, _W_HALF = _radial_rule(_RADIAL_NODES // 2)


_DISC_R = np.concatenate([_R_FULL, _R_HALF])


def _disc_nodes() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Read-only (u, v) of the disc's nodes, radius by radius, and the angle
    weights of a ring mean, per angle level.

    theta -> -theta is the reflection z -> -conj(z), which leaves the
    integrand of a gram frame unchanged, so only the angles in [0, pi] are
    kept: the angles k pi / 4, k = 0..4, with trapezoid end weights 1/2,
    then the first half of the midpoints (k + 1/2) 2 pi / m of the m angles
    of the circle so far, up to _MAX_ANGLES in the circle.  A level's
    weights sum to 1, so its ring means are those of the whole circle.
    """
    ch, sh = np.cosh(_DISC_R)[:, None], np.sinh(_DISC_R)[:, None]
    levels, m = [], 8
    theta, w = np.arange(5) * (math.pi / 4), np.array([0.5, 1.0, 1.0, 1.0, 0.5]) / 4
    while True:
        v = 1.0 / (ch - sh * np.cos(theta))
        u, v = (sh * np.sin(theta) * v).ravel(), v.ravel()
        u.flags.writeable = v.flags.writeable = w.flags.writeable = False
        levels.append((u, v, w))
        if 2 * m > _MAX_ANGLES:
            return tuple(levels)
        theta, w, m = (np.arange(m // 2) + 0.5) * (TWO_PI / m), np.full(m // 2, 2.0 / m), 2 * m


_DISC_NODES = _disc_nodes()
# xi(y2) is taken at theta = 0, the points i e^r; the radial weights times 2 pi.
_DISC_RADIAL_U, _DISC_RADIAL_V = np.zeros(_DISC_R.size), np.exp(_DISC_R)
_DISC_WEIGHTS = TWO_PI * np.concatenate([_W_FULL, _W_HALF])


def _disc_integral(y1: Vec3, y2: Vec3, abs_tol: float, rel_tol: float) -> tuple[float, float]:
    """Integral of chi omega(y1) xi(y2) over the disc of radius DISC_RADIUS
    about i, for a gram frame (_disc_frame).

    Geodesic polar coordinates about i: (r, theta) is the point
    (sinh r sin theta, 1) / (cosh r - sinh r cos theta).  xi(y2) is radial,
    E_1(2 pi Q(y2) sinh^2 r), so it is taken once per radius, at theta = 0.
    The angle mean of omega(y1) is taken by the trapezoid rule, doubled until
    two sums agree (spectral, omega being smooth and periodic in theta); the
    radius by Gauss-Legendre with _RADIAL_NODES nodes, checked against half
    as many.  The error is the sum of both differences.  In the frame,
    omega(y1) is even in theta, so the trapezoid sums run over the angles
    in [0, pi] alone.

    The disc is the same for every pair, so its nodes are tables built at
    import: _DISC_NODES, one (u, v, angle weights) triple of arrays per
    angle level (the 5 angles k pi / 4, then half of each doubling's
    midpoints, up to _MAX_ANGLES in the circle), the points i e^r and the
    weights times 2 pi.  A call runs only the two kernels on them; no cos,
    sin or broadcast.
    """
    n = _R_FULL.size
    weights = _DISC_WEIGHTS * xi_vec(y2, _DISC_RADIAL_U, _DISC_RADIAL_V)

    def ring_means(level):
        u, v, w = _DISC_NODES[level]
        return ddc_xi_vec(y1, u, v).reshape(weights.size, -1) @ w

    means = ring_means(0)
    for level in range(1, len(_DISC_NODES)):
        finer = 0.5 * (means + ring_means(level))
        value = float(np.dot(weights[:n], finer[:n]))
        e_angle = abs(value - float(np.dot(weights[:n], means[:n])))
        means = finer
        if e_angle <= max(abs_tol, rel_tol * abs(value)):
            break
    else:
        raise QuadratureFailure(f"lambda_star disc: angle error {e_angle:.3g} at {_MAX_ANGLES} angles")
    e_radius = abs(value - float(np.dot(weights[n:], means[n:])))
    return value, e_angle + e_radius


def _log_point_box(y1: Vec3, y2: Vec3, eps: float) -> tuple[float, float, float, float]:
    """Half x >= 0 of the box in (x, s) holding the ball B(i, D) outside
    which the integral of |omega(y1) xi(y2)| is at most eps, when xi(y2) has
    its log point at i.

    |omega(y1)| <= M = 2 |Q(y1)| + 0.3 (the density is e^{-2 pi R} times
    2 (R + Q) - 1/(2 pi), and 2 R e^{-2 pi R} <= 1/(pi e)), and
    xi(y2) = E_1(a sinh^2 d) with a = 2 pi Q(y2).  With E_1(x) <= e^{-x}/x,
    Y = sinh D >= 1 and sinh d dd <= d(sinh d), the mass beyond D is at most
    M pi e^{-a Y^2} / (a^2 Y^2), which is below eps once
    a Y^2 >= log(M pi / (a^2 eps)).  B(i, D) lies in |x| <= sinh D,
    |s| <= D.
    """
    m = 2.0 * abs(q_value(y1)) + 0.3
    a = TWO_PI * q_value(y2)
    y = math.sqrt(max(1.0, math.log(m * math.pi / (a * a * eps)) / a))
    d = math.asinh(y)
    return 0.0, y, -d, d


def _geodesic_box(y1: Vec3, y2: Vec3, eps: float) -> tuple[float, float, float, float]:
    """Box in (x, s) outside which the integral of |omega(y1) xi(y2)| is at
    most eps, when y1's geodesic is the imaginary axis and Q(y2) < 0.

    There R(y1) = |t1| (1 + x^2), so with a1 = 2 pi |t1|,
    |omega(y1)| <= (2 |t1| x^2 + 1/(2 pi)) e^{-a1 (1 + x^2)}, whose integral
    over x is at most e^{-a1} / sqrt(pi a1).  For y2 = (alpha, beta, gamma),
    2 sqrt(R(y2)) = |gamma e^s (x + i)^2 - 2 alpha (x + i) - beta e^{-s}|.
    With N = 2|alpha| + 2 sqrt(R*) + sqrt|beta gamma| and c = sqrt(1 + x^2),
    R(y2) >= R* (1 + sigma)^2 at s = log(N / |gamma|) + sigma and at
    s = -log(c N / |beta|) - sigma, sigma >= 0, so beyond those the
    integral of xi(y2) <= E_1(2 pi R) <= e^{-2 pi R} / (2 pi R) over s is at
    most T = e^{-2 pi R*} / (8 pi^2 R*^2) on either side.  Between them
    xi(y2) <= E_1(2 pi |t2|), so its integral over s is at most
    P + E_1(2 pi |t2|) log(1 + |x|) with P = E_1(2 pi |t2|) log(N^2 / |beta gamma|) + 2 T.
    R* makes the s tails of |x| <= X below eps / 2, and X, by
    int_X^oo x^3 e^{-a1 x^2} dx <= e^{-a1 X^2 / 2} / a1^2, the part |x| > X.
    """
    t1 = abs(q_value(y1))
    a1 = TWO_PI * t1
    al, be, ga = (abs(c) for c in y2)
    if be * ga == 0.0:
        raise QuadratureFailure("the two geodesics share an endpoint")
    r_star = max(1.0, math.log(math.exp(-a1) / (2.0 * math.pi**2.5 * math.sqrt(a1) * eps)) / TWO_PI)
    n = 2.0 * al + 2.0 * math.sqrt(r_star) + math.sqrt(be * ga)
    e1 = beta1(TWO_PI * abs(q_value(y2)))
    p = e1 * math.log(n * n / (be * ga)) + 2.0 * math.exp(-TWO_PI * r_star) / (8.0 * math.pi**2 * r_star**2)
    c = 4.0 * (2.0 * t1 + 1.0 / TWO_PI) * (p + e1) * math.exp(-a1) / (a1 * a1 * eps)
    x = math.sqrt(max(1.0, 2.0 * math.log(c) / a1))
    return -x, x, -math.log(math.sqrt(1.0 + x * x) * n / be), math.log(n / ga)


def _disc_frame(pair: PairConfig) -> tuple[Vec3, Vec3, float]:
    """(y1, y2, rho^2): a pair with a positive vector, written anew from its gram alone.

    y2 is the positive vector that carries the delta term (x2 when
    Q(x2) > 0, else x1) and y1 the other, with gram ((t1, m), (m, t2)) in
    that order: y2 = (0, -s, s) with s = sqrt(t2), whose log point is i, and
    y1 = (0, rho + c, rho - c) with c = -m / s and
    rho^2 = (m^2 - t1 t2) / t2 = -det T / t2 > 0, since a plane holding a
    positive vector has det T < 0 in signature (1, 2).  rho^2 = R(y1, i).
    Both have alpha = 0, so both R's are even in x at z = e^s (x + i):
    R((alpha, beta, gamma), -conj(z)) = R((-alpha, beta, gamma), z).
    """
    (q1, m), (_, q2) = pair.gram
    t1, t2 = (q1, q2) if q2 > 0 else (q2, q1)
    s, rho2 = math.sqrt(t2), (m * m - t1 * t2) / t2
    rho, c = math.sqrt(rho2), -m / s
    return (0.0, rho + c, rho - c), (0.0, -s, s), rho2


def _box_integrand(y1: Vec3, y2: Vec3, disc: bool):
    """omega(y1) xi(y2) at z = e^s (x + i), as a function of arrays (x, s);
    times 1 - chi when disc, chi the cut-off about the log point i."""

    def integrand(x, s):
        v = np.exp(s)
        u = x * v
        vals = ddc_xi_vec(y1, u, v)
        vals *= xi_vec(y2, u, v)
        if disc:
            # f = chi f + (1 - chi) f: the box gets (1 - chi) f, which
            # vanishes to fourth order at the log point i of xi(y2).  Off the
            # disc the factor is S(1) = 1.0 exactly, so only nodes on it
            # are multiplied.
            near = np.flatnonzero(u * u + (v - 1.0) ** 2 < _DISC_REACH * v)
            if near.size:
                un, vn = u[near], v[near]
                d = 2.0 * np.arcsinh(np.hypot(un, vn - 1.0) / (2.0 * np.sqrt(vn)))
                vals[near] *= _smoothstep(np.minimum(d / DISC_RADIUS, 1.0))
        return vals

    return integrand


def lambda_star(pair: PairConfig, spec: QuadratureSpec = DEFAULT_SPEC) -> LambdaResult:
    """Archimedean height Lambda of a nonsingular pair, with an error estimate.

    Invariant under O(2) rotations of the pair and symmetric in its two
    entries, and depends on the pair only through its gram matrix; those
    properties are the calibration suite for this routine.  A pair with a
    positive vector is integrated in the frame _disc_frame writes from its
    gram, on the half x >= 0 of the box and the half 0 <= theta <= pi of
    the disc: the box to half the absolute tolerance and half the cells,
    with the same relative tolerance, so that twice its value and error
    stop by the full box's rule.  A pair of two negative vectors is
    integrated over the full box.
    """
    (q1, _), (_, q2) = pair.gram
    if abs(pair.det) < 1e-12 * (1 + abs(q1) + abs(q2)) ** 2:
        raise PreconditionViolation("gram matrix is singular")
    if min(abs(q1), abs(q2)) < 1e-12 * (1 + abs(q1) + abs(q2)):
        # xi is a Green function only for anisotropic vectors; an isotropic
        # component can be avoided by scaling the pair (e.g. by a square root
        # of a generic v), never by this routine.
        raise PreconditionViolation("pair has an isotropic component")
    disc = q1 > 0 or q2 > 0
    if disc:
        # The delta term attaches to x2's divisor when Q(x2) > 0, else to
        # x1's; the frame puts that divisor at i.
        y1, y2, rho2 = _disc_frame(pair)
        # Coinciding divisors need no test of their own: rho^2 = |det T| / t2,
        # so past the singular-gram check, when both norms are positive,
        # rho^2 >= 1e-12 (1 + q1 + q2)^2 / q2 > 4e-12 q1.
        if rho2 < spec.singular_r_floor:
            raise OnSingularLocus(f"R(x, z) = {rho2} below the underflow floor")
        fold = 2  # the integrand is even in x: integrate x >= 0, then double
    else:
        # Move y1's geodesic to the imaginary axis by a hyperbolic isometry
        # (the integral is invariant exactly).
        lo, hi = sorted(geodesic_endpoints(pair.x1))
        move = conj_action((1.0, -lo, 0.0, 1.0) if math.isinf(hi) else (1.0, -lo, -1.0, hi))
        y1, y2 = apply3(move, pair.x1), apply3(move, pair.x2)
        fold = 1
    # In z = e^s (x + i) the measure is dx ds and x = sinh of the distance
    # to the imaginary axis, so 1 x 1 start cells are of unit hyperbolic
    # size where the integrand lives.
    tol_here = max(spec.abs_tol, 1e-4 * spec.rel_tol)
    box = (_log_point_box if disc else _geodesic_box)(y1, y2, 0.01 * tol_here)
    abs_tol = max(spec.abs_tol, 1e-9)
    try:
        outer, e_outer = adaptive_integrate(
            _box_integrand(y1, y2, disc),
            *box,
            abs_tol=abs_tol / fold,
            rel_tol=spec.rel_tol,
            max_cells=spec.max_cells // fold,
            initial=(max(8 // fold, math.ceil(box[1] - box[0])), max(6, math.ceil(box[3] - box[2]))),
        )
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"lambda_star smooth integral: {exc}") from exc
    outer, e_outer = fold * outer, fold * e_outer
    delta, inner, e_inner = 0.0, 0.0, 0.0
    if disc:
        delta = beta1(TWO_PI * rho2)
        inner, e_inner = _disc_integral(y1, y2, 0.1 * abs_tol, 0.1 * spec.rel_tol)
    err = 2.0 * (e_outer + e_inner + 0.05 * tol_here)
    return LambdaResult(value=2.0 * (delta + outer + inner), err=err)


def z_hat_indefinite(
    lat: TraceZeroLattice,
    t_mat,
    v_mat,
    spec: QuadratureSpec = DEFAULT_SPEC,
    square_root: str = "symmetric",
) -> ZhatResult:
    """Archimedean class value for nonsingular T of signature (1,1) or (0,2), on the split model.

    The class is the sum of Lambda(x . a) over the k unit-group orbits of
    pairs x with Q-gram T, where v = a a^T; it equals k Lambda(x0 . a) for
    any one of them.  Proof: x . a = (sum_i a_i1 x_i, sum_i a_i2 x_i) has
    gram a^T T a for every such x.  Two pairs with the same nonsingular gram
    span nondegenerate planes, and the linear map taking one basis to the
    other is an isometry between them; by Witt's theorem it extends to an
    isometry of V_R, under which Lambda is invariant (Kudla, Ann. of Math.
    146 (1997)).  So the value is k times one lambda_star, and its error k
    times that call's.  The square root defaults to the symmetric positive
    one; the triangular (Cholesky) option exists to exercise a-independence.
    """
    t1, m, t2 = require_index(t_mat)
    if not lat.is_split_model:
        raise UnsupportedDiscriminant("orbit enumeration needs the split model")
    v = np.asarray(v_mat, dtype=object)
    for entry in v.flat:
        require_real(entry, "an entry of v")
    a = _square_root(v.astype(float), square_root)
    orbit_reps = splitorbits.pair_orbit_reps(t1, m, t2)
    k = len(orbit_reps)
    if not k:
        return ZhatResult(value=0.0, err=0.0, orbits=0)
    res = lambda_star(PairConfig.from_vectors(*pair_action(orbit_reps[0], a.ravel())), spec)
    return ZhatResult(value=k * res.value, err=k * res.err, orbits=k)


def _square_root(v: np.ndarray, kind: str) -> np.ndarray:
    if v.shape != (2, 2) or abs(v[0, 1] - v[1, 0]) > 1e-12:
        raise PreconditionViolation("v must be symmetric 2x2")
    w, q = np.linalg.eigh(v)
    if w[0] <= 0:
        raise PreconditionViolation("v must be positive definite")
    if kind == "symmetric":
        return (q * np.sqrt(w)) @ q.T
    if kind == "triangular":
        return np.linalg.cholesky(v)
    raise PreconditionViolation(f"unknown square root kind {kind!r}")
