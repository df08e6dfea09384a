"""The archimedean layer: beta_1, the distance function R, Green functions.

Model of the symmetric space: the split 2x2 matrix picture.  A trace-zero
real vector is (alpha, beta, gamma) for [[alpha, beta], [gamma, -alpha]],
Q = -alpha^2 - beta*gamma, and the isotropic section over a point z of the
upper half-plane is w(z) = [[z, -z^2], [1, -z]].  Then

    (x, w(z)) = gamma z^2 - 2 alpha z - beta,
    (w, wbar) = -4 v^2,
    R(x, z)   = |(x, w)|^2 / |(w, wbar)|,

and R is the same on both sheets for real x, which is how the orientation
component is handled throughout.  A vector with Q(x) = t > 0 has divisor
D_x = the conjugate pair of roots of (x, w(z)) = 0; there R vanishes, and
R(x, z) = t sinh^2(d(z, z_x)) in the hyperbolic distance d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonpositiveArgument,
    OnSingularLocus,
    PreconditionViolation,
    QuadratureFailure,
    SingularEvaluation,
)
from .lattice import (
    TraceZeroLattice,
    enumerate_by_majorant,
    majorant,
    model_coordinates_float,
)

# Euler-Mascheroni constant, 30 certified digits (mpmath, 40 dps).
EULER_GAMMA = 0.577215664901532860606512090082

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UHPoint:
    """Point of the symmetric space: upper half-plane coordinate plus sheet."""

    u: float
    v: float
    sheet: int = 1

    def __post_init__(self):
        if not self.v > 0:
            raise PreconditionViolation("UHPoint needs v > 0")
        if self.sheet not in (1, -1):
            raise PreconditionViolation("sheet must be +1 or -1")

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, truncation radii and grid parameters for all numerics."""

    rel_tol: float = 4e-5
    abs_tol: float = 4e-7
    truncation_majorant_bound: float = 48.0
    max_cells: int = 14000
    max_depth: int = 34
    singular_r_floor: float = 1e-12
    enumeration_cap: int = 2_000_000

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "truncation_majorant_bound",
            "singular_r_floor",
        ):
            if not getattr(self, name) > 0:
                raise PreconditionViolation(f"{name} must be positive")
        if self.max_cells <= 0 or self.max_depth <= 0:
            raise PreconditionViolation("grid limits must be positive")


DEFAULT_SPEC = QuadratureSpec()


# --- beta_1 -----------------------------------------------------------------

# The depth M(r) = ceil(_CF_DEPTH0 + _CF_DEPTH1 / r) of both kernels.
_CF_DEPTH0, _CF_DEPTH1 = 10.0, 80.0


def beta1(r: float) -> float:
    """beta_1(r) = integral_1^oo e^(-r u) du / u, the exponential integral E_1.

    Power series around 0 for r <= 1.  For r > 1, the continued fraction
    e^-r / (r + 1/(1 + 1/(r + 2/(1 + 2/(r + ...))))) run backwards (Zhang and
    Jin, Computation of Special Functions, 1996, E1XB): T <- k / (1 + k /
    (r + T)) for k = M(r), ..., 1 from T = 0, then E_1 = e^-r / (r + T), at
    depth M(r) = ceil(10 + 80 / r); every denominator is positive for r > 0,
    so none needs a zero guard.  Relative error below 2e-15 on (0, 700]: at
    most 1.0e-15 against mpmath, for r between 1 and 1.3.  At a fixed depth
    the truncation error falls as r grows, so each depth step is worst at
    its left end, and the tests check every left end.  Above 700 the value
    is 0, an absolute error below E_1(700) < 1e-306.
    """
    if not r > 0:
        raise NonpositiveArgument(f"beta1 needs r > 0, got {r}")
    if r <= 1.0:
        return _beta1_series(float(r))
    return _beta1_cf(float(r))


def _beta1_series(r: float) -> float:
    # -gamma - log r - sum_{k>=1} (-r)^k / (k k!)
    acc = -EULER_GAMMA - math.log(r)
    term = 1.0
    for k in range(1, 40):
        term *= -r / k
        delta = -term / k
        acc += delta
        if abs(delta) < 1e-18 * max(abs(acc), 1e-3):
            break
    return acc


def _beta1_cf(r: float) -> float:
    # The backward recurrence of beta1's docstring, at depth M(r).
    if r > 700:
        return 0.0
    t = 0.0
    for k in range(math.ceil(_CF_DEPTH0 + _CF_DEPTH1 / r), 0, -1):
        t = k / (1.0 + k / (r + t))
    return math.exp(-r) / (r + t)


def beta1_vec(r: np.ndarray) -> np.ndarray:
    """Vectorized beta1 on positive arrays: the same series and recurrence.

    The r > 1 points are sorted once, so those still at level k (M(r) >= k)
    are a prefix and each level is four in-place ufuncs on a slice.  A value
    depends on its own r alone, not on the batch; for r > 1 it differs from
    beta1 by the rounding of exp at most.  Relative error below 2e-15 on
    (0, 700], as for beta1, and 0 above 700.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = r <= 1.0
    if np.any(small):
        rs = r[small]
        neg = np.negative(rs)
        tmp = np.empty_like(rs)
        acc = -EULER_GAMMA - np.log(rs)
        term = np.ones_like(rs)
        for k in range(1, 24):
            term *= np.divide(neg, k, out=tmp)
            acc -= np.divide(term, k, out=tmp)
        out[small] = acc
    large = np.flatnonzero(~small)
    if large.size:
        large = large[np.argsort(r[large])]
        rl = r[large]
        # M(r) is nonincreasing along rl; level k runs the first live[k] points.
        depth = np.ceil(_CF_DEPTH0 + _CF_DEPTH1 / rl)
        levels = np.arange(int(depth[0]), 0, -1)
        live = np.searchsorted(-depth, -levels, side="right")
        t = np.zeros_like(rl)
        tmp = np.empty_like(rl)
        for k, n in zip(levels.tolist(), live.tolist()):
            tk, buf = t[:n], tmp[:n]
            np.add(rl[:n], tk, out=buf)
            np.divide(k, buf, out=buf)
            buf += 1.0
            np.divide(k, buf, out=tk)
        with np.errstate(over="ignore"):
            out[large] = np.where(rl > 700, 0.0, np.exp(-np.minimum(rl, 745.0)) / (rl + t))
    return out


# --- R, xi and their derivatives --------------------------------------------


def r_value(x, z: UHPoint):
    """R(x, z) = |(x, w(z))|^2 / |(w, wbar)|; exact when inputs are rational.

    x is an (alpha, beta, gamma) triple in the matrix model.  R >= 0 with
    equality exactly on the divisor D_x, and R is sheet-independent.
    """
    alpha, beta, gamma = x
    u, v = z.u, z.v
    re = gamma * (u * u - v * v) - 2 * alpha * u - beta
    im = 2 * v * (gamma * u - alpha)
    return (re * re + im * im) / (4 * v * v)


def q_model(x):
    alpha, beta, gamma = x
    return -alpha * alpha - beta * gamma


def cm_point(x) -> UHPoint:
    """Upper half-plane point of the divisor D_x, for Q(x) > 0."""
    alpha, beta, gamma = (float(c) for c in x)
    t = q_model((alpha, beta, gamma))
    if t <= 0:
        raise PreconditionViolation("D_x is empty unless Q(x) > 0")
    return UHPoint(alpha / gamma, math.sqrt(t) / abs(gamma))


def geodesic_endpoints(x) -> tuple[float, float] | None:
    """Real endpoints of the fixed geodesic of x when Q(x) < 0, else None.

    For gamma = 0 the 'geodesic' is the vertical line over -beta/(2 alpha);
    the second endpoint is reported as math.inf.
    """
    alpha, beta, gamma = (float(c) for c in x)
    t = q_model((alpha, beta, gamma))
    if t >= 0:
        return None
    if gamma == 0.0:
        return (-beta / (2 * alpha), math.inf)
    disc = math.sqrt(alpha * alpha + beta * gamma)
    return ((alpha - disc) / gamma, (alpha + disc) / gamma)


def xi(x, z: UHPoint, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Green function xi(x, z) = beta_1(2 pi R(x, z)); Q(x) must be nonzero."""
    if q_model(x) == 0:
        raise PreconditionViolation("xi needs Q(x) != 0")
    r = float(r_value(x, z))
    if r < spec.singular_r_floor:
        raise OnSingularLocus(f"R(x, z) = {r} below the underflow floor")
    return beta1(TWO_PI * r)


def ddc_xi_vec(x, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Density of the Kudla-Millson form omega(x) = dd^c xi(x, .) + delta_{D_x}.

    Against hyperbolic measure it is exp(-2 pi R) (2 (R + Q(x)) - 1/(2 pi)),
    smooth everywhere, D_x included.  Off D_x the density of dd^c xi is
    exp(-2 pi R) ((1 + 2 pi R) |grad R|^2 - R Laplace R) / (4 pi R^2), and R
    is radial (t sinh^2 d about the CM point for t = Q(x) > 0, |t| cosh^2 d
    about the geodesic for t < 0), so |grad R|^2 = 4 R (R + t) and
    Laplace R = 6 R + 4 t, which reduce it to the closed form.
    """
    r = _r_vec(x, u, v)
    return np.exp(-TWO_PI * r) * (2.0 * (r + q_model(x)) - 1.0 / TWO_PI)


def xi_vec(x, u: np.ndarray, v: np.ndarray, floor: float = 1e-300) -> np.ndarray:
    """Vectorized xi for quadrature; R is raised to floor, so xi stays finite on D_x."""
    return beta1_vec(TWO_PI * np.maximum(_r_vec(x, u, v), floor))


def _r_vec(x, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    alpha, beta, gamma = (float(c) for c in x)
    re = gamma * (u * u - v * v) - 2 * alpha * u - beta
    im = 2 * v * (gamma * u - alpha)
    return (re * re + im * im) / (4.0 * v * v)


# --- the truncated theta sums ----------------------------------------------


@dataclass(frozen=True)
class BigXiResult:
    """Truncated value of a Green-function sum plus its certified tail bound."""

    value: float
    tail_bound: float
    terms: int
    excluded: tuple

    def __float__(self) -> float:
        return self.value


def big_xi(
    lat: TraceZeroLattice,
    t: int,
    v: float,
    z: UHPoint,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> BigXiResult:
    """Xi(t, v)(z) = sum over Q(x) = t of beta_1(2 pi v R(x, z)), truncated.

    The sum runs over lattice vectors with majorant value at most the
    truncation bound; the remainder is covered by a certified tail bound
    below abs_tol, derived from beta_1(r) <= e^-r / r and shell counts of
    the majorant.  The truncation bound is doubled (a few times) if the
    certificate does not reach abs_tol at the configured value.

    One pass: the majorant and its eigenvalues are built once and serve the
    tail bound at every doubling and the enumeration.  The enumeration lists
    only the vectors with Q(x) = t (enumerate_by_majorant with norm=t): on
    each (n3, n2) row of the majorant ellipsoid it keeps the padded n1 range
    of the full enumeration, finds the n1 with n^T G n = 2t as exact integer
    roots, and decides each root inside the range by the full
    enumeration's rule, so the terms are those of the full list filtered by
    the norm, in the same order.  They are summed one by one in that order.

    For t > 0, terms with R below the singular floor: an exact zero raises
    SingularEvaluation, a positive value below the floor is excluded from
    the sum and reported in the result.
    """
    if lat.is_definite:
        raise PreconditionViolation("big_xi needs an indefinite lattice")
    if t == 0:
        raise PreconditionViolation("t must be nonzero")
    if not v > 0:
        raise PreconditionViolation("v must be positive")
    coords = model_coordinates_float(lat)
    m = majorant(lat, z)
    eigs = np.linalg.eigvalsh(m)
    lam = eigs * (1.0 - 1e-9)
    if lam[0] <= 0:
        raise QuadratureFailure("majorant lost positivity")
    bound = spec.truncation_majorant_bound
    for _ in range(7):
        tail = _tail_bound(lam, t, v, bound)
        if tail <= spec.abs_tol:
            break
        bound *= 2.0
    else:
        raise QuadratureFailure(
            f"tail bound {tail:.3g} above abs_tol at majorant bound {bound}"
        )
    pts = enumerate_by_majorant(lat, z, bound, cap=spec.enumeration_cap, form=m, eigs=eigs, norm=t)
    value = 0.0
    excluded = []
    zf = UHPoint(float(z.u), float(z.v))
    for n in pts:
        vec = coords @ np.array(n, dtype=float)
        r = r_value(vec.tolist(), zf)
        if r == 0.0:
            raise SingularEvaluation(f"z lies on the divisor of {n}")
        if r < spec.singular_r_floor:
            excluded.append(n)
            continue
        value += beta1(TWO_PI * v * r)
    return BigXiResult(value=value, tail_bound=tail, terms=len(pts), excluded=tuple(excluded))


def _tail_bound(lam: np.ndarray, t: int, v: float, bound: float) -> float:
    """Rigorous bound for the sum over majorant values above `bound`.

    lam holds the eigenvalues of the majorant form, shrunk by a relative
    1e-9 against rounding.  Points with majorant value M have
    R = (M - 2t)/4, and the number with M <= X is at most
    prod_i (2 sqrt(X / lambda_i) + 1).  Dyadic shells then give a convergent
    series dominating the tail of beta_1(2 pi v R) <= e^-r / r.
    """
    if bound <= 2 * t + 1:
        return math.inf
    total = 0.0
    lo = bound
    for _ in range(200):
        hi = 2.0 * lo
        count = 1.0
        for ev in lam:
            count *= 2.0 * math.sqrt(hi / ev) + 1.0
        r_min = (lo - 2 * t) / 4.0
        arg = TWO_PI * v * r_min
        if arg > 745:
            term = 0.0
        else:
            term = count * math.exp(-arg) / arg
        total += term
        if term < 1e-22 and lo > 4 * bound:
            break
        lo = hi
    return total
