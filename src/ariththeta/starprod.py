"""Star-product heights and archimedean classes for nonsingular 2x2 indices.

The height of a pair of Green functions is realized as

    Lambda(x1, x2) = [delta term] + integral over D of omega(x1) . xi(x2),

with omega(x) = dd^c xi(x) + delta_{D_x} the Kudla-Millson form, whose
density is smooth (greens.ddc_xi_vec).  The delta term is xi(x1) evaluated
at the divisor of x2 when Q(x2) > 0 (attached to x1's divisor instead when
only Q(x1) > 0, and absent when both norms are negative).  Both sheets of D
contribute; for real vectors they agree, hence the overall factor 2.

Lambda depends on the pair only through its gram and is invariant under
O(2) rotations of the pair, so lambda_star integrates every pair as the
orthogonal pair of its gram's eigenvalues, with the CM point of its positive
vector or the crossing point of its geodesics at i: once, in geodesic polar
coordinates about i, over a quarter of the disc r <= D whose exterior holds
a proved share of the tolerance.

The archimedean class z_hat(T, v) sums Lambda(x . a) over the unit-group
orbits of pairs x with gram T, where v = a a^T.  Every x . a has the gram
a^T T a, so the sum is the orbit count k times one Lambda (z_hat_indefinite),
and that Lambda is taken from the two eigenvalues of a^T T a alone
(lambda_of_gram): a smooth integral of elementary functions over a box,
with no singular point, no cut-off and no representative pair.
lambda_star keeps the 2-D route above as the API for a given pair and as
the independent oracle of lambda_of_gram.  It stays off the formula while
the benchmark's tracer divides by the time it spends in xi_vec and
ddc_xi_vec, and while the heights workload's peak RSS grows with the rounds
it completes, so that a faster round reads as a memory regression.
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
    xi_vec,
)
from .lattice import TraceZeroLattice
from .quadrature import adaptive_integrate
from .splitorbits import q_value

Vec3 = tuple[float, float, float]

_SQRT_PI = math.sqrt(math.pi)


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


def _log_point_radius(a: float, b: float, eps: float) -> float:
    """Radius D of the ball B(i, D) outside which the integral of
    |omega(y1) xi(y2)| is at most eps, for Q(y1) = -a < 0 and Q(y2) = b > 0
    with the log point of xi(y2) at i.

    |omega(y1)| <= M = 2 a + 0.3 (the density is e^{-2 pi R} times
    2 (R + Q) - 1/(2 pi), and 2 R e^{-2 pi R} <= 1/(pi e)), and
    xi(y2) = E_1(c sinh^2 d) with c = 2 pi b.  With E_1(x) <= e^{-x}/x,
    Y = sinh D >= 1 and sinh d dd <= d(sinh d), the mass beyond D is at most
    M pi e^{-c Y^2} / (c^2 Y^2), which is below eps once
    c Y^2 >= log(M pi / (c^2 eps)).
    """
    m = 2.0 * a + 0.3
    c = TWO_PI * b
    return math.asinh(math.sqrt(max(1.0, math.log(m * math.pi / (c * c * eps)) / c)))


def _crossing_radius(a: float, b: float, eps: float) -> float:
    """Radius D of the ball B(i, D) outside which the integral of
    |omega(y1) xi(y2)| is at most eps, for Q(y1) = -a, Q(y2) = -b and
    geodesics that cross at i at a right angle (lambda_star's frame).

    At (r, theta), R(y1) = a (1 + X1) and R(y2) = b (1 + X2) with X1, X2 the
    squares p^2, q^2 of sinh r sin theta and sinh r cos theta in some
    order (a negative vector has R = |Q| cosh^2 d at distance d from its
    geodesic, and sinh d = sinh r |sin| of the angle from it, a right
    triangle), so X1 + X2 = sinh^2 r exactly.  With a1 = 2 pi a,
    a2 = 2 pi b, |omega(y1)| <= e^{-a1 (1 + X1)} (2 a X1 + 1/(2 pi)) and
    xi(y2) <= e^{-a2 (1 + X2)} / a2 (E_1(x) <= e^{-x}/x); so with
    y = sinh r, X1 <= y^2 and c = min(a1, a2),
    |omega(y1) xi(y2)| <= e^{-a1 - a2} (1/2 + a1 y^2) e^{-c y^2} / (pi a2).
    With sinh r dr <= dy, Y = sinh D >= 1, int_Y^oo e^{-c y^2} dy <=
    e^{-c Y^2} / (2 c) and int_Y^oo y^2 e^{-c y^2} dy <=
    e^{-c Y^2} (Y / (2 c) + 1 / (4 c^2)), the mass beyond D is at most
    K Y e^{-c Y^2}, K = e^{-a1 - a2} (1 + 2 a1 + a1 / c) / (2 a2 c), below
    eps once c Y^2 - log Y >= L = log(K / eps).  The tangent of log at x0
    gives log Y <= (log x0 + Y^2 / x0 - 1) / 2; at x0 = max(1, L) / c,
    where c - 1 / (2 x0) >= c / 2, that holds once
    (c - 1 / (2 x0)) Y^2 >= L + (log x0 - 1) / 2.
    """
    a1, a2 = TWO_PI * a, TWO_PI * b
    c = min(a1, a2)
    big_l = -a1 - a2 + math.log((1.0 + 2.0 * a1 + a1 / c) / (2.0 * a2 * c * eps))
    x0 = max(1.0, big_l) / c
    return math.asinh(math.sqrt(max(1.0, (big_l + 0.5 * (math.log(x0) - 1.0)) / (c - 0.5 / x0))))


def _eigenvalues(q1: float, m: float, q2: float) -> list[float]:
    """[lo, hi] of ((q1, m), (m, q2)): the larger modulus without cancellation, the other as det / it."""
    mean, radius = 0.5 * (q1 + q2), math.hypot(0.5 * (q1 - q2), m)
    big = mean + radius if mean >= 0 else mean - radius
    return sorted((big, (q1 * q2 - m * m) / big))


def _polar_integrand(y1: Vec3, y2: Vec3, radius: float):
    """omega(y1) xi(y2) sinh r dr/ds at the point (r, theta) of geodesic polar
    coordinates about i, r = radius s^2, as a function of arrays (s, theta).

    (r, theta) is the point (sinh r sin theta, 1) / (cosh r - sinh r cos theta),
    and the measure is sinh r dr dtheta.  r = radius s^2 makes the
    r log r of xi(y2) at i smooth in s.
    """

    def integrand(s, theta):
        r = radius * s * s
        sh = np.sinh(r)
        v = 1.0 / (np.cosh(r) - sh * np.cos(theta))
        u = sh * np.sin(theta) * v
        vals = ddc_xi_vec(y1, u, v)
        vals *= xi_vec(y2, u, v)
        vals *= sh
        vals *= (2.0 * radius) * s
        return vals

    return integrand


def lambda_star(pair: PairConfig, spec: QuadratureSpec = DEFAULT_SPEC) -> LambdaResult:
    """Archimedean height Lambda of a nonsingular pair, with an error estimate.

    Lambda depends on the pair only through its gram, is O(2)-invariant and
    is symmetric in its entries, so the pair is replaced by the orthogonal
    pair with gram diag(lo, hi), the gram's eigenvalues (lambda_of_gram's
    frame): y1 = (0, sqrt(a), sqrt(a)), a = -lo, whose geodesic |z| = 1
    passes through i, and
    - if hi > 0 (every pair with a positive vector, and two negative vectors
      whose geodesics do not cross), y2 = (0, -sqrt(b), sqrt(b)), b = hi,
      whose CM point is i: the delta term is xi(y1)(i) = E_1(2 pi a), and D
      is _log_point_radius;
    - if hi < 0, y2 = (sqrt(b), 0, 0), b = -hi, whose geodesic u = 0 crosses
      y1's at i at a right angle: no delta term, and D is _crossing_radius.
    omega(y1) xi(y2) sinh r is integrated over r <= D in geodesic polar
    coordinates (r, theta) about i, r = D s^2.  Both R's are even in u and
    invariant under z -> 1/conj(z), which are theta -> -theta and
    theta -> pi - theta, so one adaptive integral takes the quarter
    [0, 1] x [0, pi/2] of (s, theta) from a 4 x 2 start grid to a quarter of
    the absolute tolerance and of the cells, with the same relative
    tolerance, and counts it four times: four times its value and error stop
    by the full circle's rule.  With tol = max(abs_tol, 1e-4 rel_tol), the
    plane beyond D carries at most tol / 100 (each radius is proved so), and
    err is twice the sum of the quadrature's error and tol / 20.
    """
    (q1, m), (_, q2) = pair.gram
    if not all(map(math.isfinite, (q1, m, q2, pair.det))):
        raise PreconditionViolation(f"gram and its determinant must be finite, got {pair.gram!r}")
    scale = 1 + abs(q1) + abs(q2)
    # A product, as in lambda_of_gram: a float power raises OverflowError where it reads inf.
    if abs(pair.det) < 1e-12 * scale * scale:
        raise PreconditionViolation("gram matrix is singular")
    if min(abs(q1), abs(q2)) < 1e-12 * scale:
        # xi is a Green function only for anisotropic vectors; an isotropic
        # component can be avoided by scaling the pair (e.g. by a square root
        # of a generic v), never by this routine.
        raise PreconditionViolation("pair has an isotropic component")
    tol_here = max(spec.abs_tol, 1e-4 * spec.rel_tol)
    abs_tol = max(spec.abs_tol, 1e-9)
    lo, hi = _eigenvalues(q1, m, q2)
    a, b = -lo, abs(hi)
    y1 = (0.0, math.sqrt(a), math.sqrt(a))
    if hi > 0:
        # a = R(y1, i) = |det T| / hi.
        if a < spec.singular_r_floor:
            raise OnSingularLocus(f"R(x, z) = {a} below the underflow floor")
        y2 = (0.0, -math.sqrt(b), math.sqrt(b))
        delta, radius = beta1(TWO_PI * a), _log_point_radius(a, b, 0.01 * tol_here)
    else:
        y2 = (math.sqrt(b), 0.0, 0.0)
        delta, radius = 0.0, _crossing_radius(a, b, 0.01 * tol_here)
    try:
        value, err = adaptive_integrate(
            _polar_integrand(y1, y2, radius), 0.0, 1.0, 0.0, 0.5 * math.pi,
            abs_tol=abs_tol / 4, rel_tol=spec.rel_tol, max_cells=spec.max_cells // 4, initial=(4, 2),
        )
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"lambda_star smooth integral: {exc}") from exc
    return LambdaResult(value=2.0 * (delta + 4 * value), err=2.0 * (4 * err + 0.05 * tol_here))


def _log_e1_bound(x: float) -> float:
    """log of e^-x log(1 + 1/x), an upper bound of E_1(x) for x > 0
    (Abramowitz and Stegun 5.1.20), finite where E_1 underflows."""
    return -x + math.log(math.log1p(1.0 / x))


def lambda_of_gram(gram, spec: QuadratureSpec = DEFAULT_SPEC) -> LambdaResult:
    """Lambda of every nonsingular pair with this gram, from its two eigenvalues.

    Lambda depends on a pair only through its gram S and is invariant under
    O(2) rotations of the pair, so Lambda(S) = Lambda(diag(l1, l2)) with l1,
    l2 the eigenvalues of S.  Put the orthogonal pair as lambda_star does,
    so that the CM point of its positive vector (signature (1,1)) or the
    crossing point of its two geodesics ((0,2)) is i, and take geodesic
    polar coordinates (r, theta) about i with p = sinh r sin theta,
    q = sinh r cos theta; then dmu = dp dq / sqrt(1 + p^2 + q^2) and, with
    y2 the vector that carries the delta term,

        (1,1), eigenvalues -a < 0 < b:  R(y1) = a (1 + p^2), R(y2) = b (p^2 + q^2);
        (0,2), eigenvalues -a, -b:      R(y1) = a (1 + p^2), R(y2) = b (1 + q^2).

    So omega(y1) = e^{-2 pi a (1 + p^2)} (2 a p^2 - 1/(2 pi)), and
    xi(y2) = E_1(2 pi R(y2)) = int_1^oo e^{-2 pi R(y2) t} dt/t.  Writing
    (1 + p^2 + q^2)^{-1/2} = pi^{-1/2} int_0^oo u^{-1/2} e^{-u (1 + p^2 + q^2)} du
    makes the p- and q-integrals Gaussian:

        Lambda = 2 [delta + pi^{-1/2} int_0^oo int_1^oo u^{-1/2} e^{-u} A(c) h(t)
                            (pi / (2 pi b t + u))^{1/2} dt/t du],
        A(c) = e^{-2 pi a} (a sqrt(pi) c^{-3/2} - c^{-1/2} / (2 sqrt(pi)))
             = -e^{-2 pi a} (c - 2 pi a) / (2 sqrt(pi) c^{3/2}),

    with c = 2 pi a + 2 pi b t + u, h = 1 and delta = xi(y1)(i) = E_1(2 pi a)
    in (1,1), and c = 2 pi a + u, h = e^{-2 pi b t} and delta = 0 in (0,2).
    In (0,2) Lambda is symmetric in a and b; a <= b is taken, which makes
    the t-range the shorter.  The integrand has no singular point, and A < 0.

    Coordinates: u = w^2, w = sigma sinh xi and t = e^tau, so that
    du u^{-1/2} = 2 sigma cosh xi dxi and dt/t = dtau.  Write alpha = 2 pi a,
    beta = 2 pi b and s = beta t + u.  The integrand changes on the scales
    u ~ 1 (e^{-u}) and u ~ beta ((1,1), from s) or u ~ alpha ((0,2), from
    c) at t = 1, so sigma = min(1, sqrt(beta)) in (1,1) and
    min(1, sqrt(alpha)) in (0,2): xi is linear in w below sigma and
    logarithmic above it, where the scale sqrt(beta t) of s grows with t.
    In (1,1), s and c move with t on the scale of t itself, hence tau.  adaptive_integrate takes the box from a 4 x 4 start grid to
    half the absolute tolerance, so that twice its error stops by it.

    Tails.  |f|, the modulus of the u-t integrand above with dt/t, is
    e^{-alpha} u^{-1/2} e^{-u} s^{1/2} c^{-3/2} / (2 sqrt(pi) t) in (1,1)
    and e^{-alpha} e^{-u - beta t} u^{1/2} c^{-3/2} s^{-1/2} / (2 sqrt(pi) t)
    in (0,2).  Each tail below is at most eps = abs_tol / 10^4 by the choice
    of its cut-off U (of u) or T (of t), and the error adds the bound at
    the cut-off taken; the (1,1) tail in t has a leading term of known
    sign, which the value adds, and the error adds the bound of the rest.
    - (1,1), t > T: g = s^{1/2} c^{-3/2} = s^{-1} (1 + alpha / s)^{-3/2},
      s >= beta t and (1 + x)^{-3/2} >= 1 - 3x/2 give
      0 <= 1 / (beta t) - g <= (u + 3 alpha / 2) / (beta t)^2.  With
      int_0^oo u^{-1/2} e^{-u} du = sqrt(pi) and
      int_0^oo u^{1/2} e^{-u} du = sqrt(pi) / 2, the tail is
      -e^{-alpha} / (2 beta T), at most e^{-alpha} / (4 pi b T) in modulus,
      plus a rest in [0, e^{-alpha} (1 + 3 alpha) / (8 beta^2 T^2)].
    - (1,1), u > U: s^{1/2} c^{-3/2} <= 1/c <= 1/s <= 1 / (2 sqrt(beta t u)),
      int_1^oo t^{-3/2} dt = 2
      and int_U^oo e^{-u} du / u <= e^{-U} / U bound it by
      e^{-alpha - U} / (2 pi sqrt(2 b) U).
    - (0,2), t > T: u^{1/2} c^{-3/2} <= 1/c, s >= beta t,
      int_0^oo e^{-u} du / (alpha + u) = e^{alpha} E_1(alpha) and
      int_T^oo e^{-beta t} t^{-3/2} dt <= e^{-beta T} / (beta T^{3/2}) bound it
      by E_1(alpha) e^{-beta T} / (2 sqrt(pi) beta^{3/2} T^{3/2}).
    - (0,2), u > U: c, s >= u, int_1^oo e^{-beta t} dt/t = E_1(beta) and
      int_U^oo u^{-3/2} e^{-u} du <= e^{-U} U^{-3/2} bound it by
      e^{-alpha - U} E_1(beta) / (2 sqrt(pi) U^{3/2}).
    The cut-offs are chosen with U, T >= 1 and E_1 by its bound
    _log_e1_bound, in logarithms, so that no exponential underflows.
    """
    (q1, m), (m_low, q2) = gram
    q1, m, m_low, q2 = (float(require_real(x, "a gram entry")) for x in (q1, m, m_low, q2))
    if not all(map(math.isfinite, (q1, m, m_low, q2))) or abs(m - m_low) > 1e-12 * (abs(q1) + abs(q2) + abs(m)):
        raise PreconditionViolation(f"gram must be finite and symmetric, got {gram!r}")
    m = 0.5 * (m + m_low)
    det = q1 * q2 - m * m
    if not math.isfinite(det):
        raise PreconditionViolation(f"the determinant of the gram must be finite, got {gram!r}")
    if abs(det) < 1e-12 * (1 + abs(q1) + abs(q2)) * (1 + abs(q1) + abs(q2)):
        raise PreconditionViolation("gram matrix is singular")
    lo, hi = _eigenvalues(q1, m, q2)
    if lo > 0:
        raise PreconditionViolation("a positive definite gram has no pair in signature (1, 2)")
    eps = 1e-4 * spec.abs_tol
    if hi > 0:
        a, b = -lo, hi
        alpha, beta = TWO_PI * a, TWO_PI * b
        delta = beta1(alpha)
        sigma = min(1.0, math.sqrt(beta))
        big_u = max(1.0, -alpha - math.log(2.0 * math.pi * math.sqrt(2.0 * b) * eps))
        tau = max(1.0, -alpha - math.log(4.0 * math.pi * b * eps))
        tail = -math.exp(-alpha - tau) / (2.0 * beta)
        tails = math.exp(-alpha) * (
            (1.0 + 3.0 * alpha) * math.exp(-2.0 * tau) / (8.0 * beta * beta)
            + math.exp(-big_u) / (2.0 * math.pi * math.sqrt(2.0 * b) * big_u)
        )

        def integrand(x, t):
            w2 = sigma * np.sinh(x)
            w2 *= w2
            s = beta * np.exp(t) + w2
            c = alpha + s
            return -scale * np.cosh(x) * np.exp(-w2) * np.sqrt(s / c) / c

    else:
        a, b = -hi, -lo
        alpha, beta = TWO_PI * a, TWO_PI * b
        delta = tail = 0.0
        sigma = min(1.0, math.sqrt(alpha))
        big_u = max(1.0, -alpha + _log_e1_bound(beta) - math.log(2.0 * _SQRT_PI * eps))
        big_t = max(math.e, (_log_e1_bound(alpha) - math.log(2.0 * _SQRT_PI * beta**1.5 * eps)) / beta)
        tau = math.log(big_t)
        tails = (
            beta1(alpha) * math.exp(-beta * big_t) / big_t**1.5 / beta**1.5
            + math.exp(-alpha - big_u) * beta1(beta) / big_u**1.5
        ) / (2.0 * _SQRT_PI)

        def integrand(x, t):
            w2 = sigma * np.sinh(x)
            w2 *= w2
            bt = beta * np.exp(t)
            c = alpha + w2
            return -scale * np.cosh(x) * w2 * np.exp(-(w2 + bt)) / (c * np.sqrt(c * (bt + w2)))

    scale = sigma * math.exp(-alpha) / _SQRT_PI
    try:
        value, err = adaptive_integrate(
            integrand,
            0.0,
            math.asinh(math.sqrt(big_u) / sigma),
            0.0,
            tau,
            abs_tol=spec.abs_tol / 2.0,
            rel_tol=spec.rel_tol,
            max_cells=spec.max_cells,
            initial=(4, 4),
        )
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"lambda_of_gram: {exc}") from exc
    return LambdaResult(value=2.0 * (delta + value + tail), err=2.0 * (err + tails))


def z_hat_indefinite(
    lat: TraceZeroLattice,
    t_mat,
    v_mat,
    spec: QuadratureSpec = DEFAULT_SPEC,
    square_root: str = "symmetric",
) -> ZhatResult:
    """Archimedean class value for nonsingular T of signature (1,1) or (0,2), on the split model.

    The class is the sum of Lambda(x . a) over the k unit-group orbits of
    pairs x with Q-gram T, where v = a a^T; it equals k Lambda(a^T T a).
    Proof: x . a = (sum_i a_i1 x_i, sum_i a_i2 x_i) has gram a^T T a for
    every such x.  Two pairs with the same nonsingular gram span
    nondegenerate planes, and the linear map taking one basis to the other
    is an isometry between them; by Witt's theorem it extends to an
    isometry of V_R, under which Lambda is invariant (Kudla, Ann. of Math.
    146 (1997)).  So the value is k times lambda_of_gram(a^T T a), and its
    error k times that call's; no representative is needed, only the orbit
    count.  The square root defaults to the symmetric positive one; the
    triangular (Cholesky) option exists to exercise a-independence.
    """
    t1, m, t2 = require_index(t_mat)
    if not lat.is_split_model:
        raise UnsupportedDiscriminant("orbit enumeration needs the split model")
    v = np.asarray(v_mat, dtype=object)
    for entry in v.flat:
        require_real(entry, "an entry of v")
    a = _square_root(v.astype(float), square_root)
    k = len(splitorbits.pair_orbit_reps(t1, m, t2))
    if not k:
        return ZhatResult(value=0.0, err=0.0, orbits=0)
    g = a.T @ np.array([[t1, m], [m, t2]], dtype=float) @ a
    res = lambda_of_gram(((g[0, 0], g[0, 1]), (g[0, 1], g[1, 1])), spec)
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
