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

beta_1 = E_1 has a scalar kernel (beta1) and a vectorized one (beta1_vec)
with one route: a Horner sum over one row of ariththeta._e1_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._e1_table import E1_PIECES
from .errors import (
    NonpositiveArgument,
    OnSingularLocus,
    PreconditionViolation,
    QuadratureFailure,
    SingularEvaluation,
    require_integer,
    require_real,
)
from .lattice import (
    TraceZeroLattice,
    _cholesky3,
    _pivot_shrink,
    enumerate_by_majorant,
    majorant,
    model_coordinates_float,
)
from .splitorbits import q_value

# Euler-Mascheroni constant, 30 certified digits (mpmath, 40 dps).
EULER_GAMMA = 0.577215664901532860606512090082

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UHPoint:
    """Point u + i v of the upper half-plane; R, and so xi, is the same on both sheets of D."""

    u: float
    v: float

    def __post_init__(self):
        require_real(self.u, "UHPoint u")
        require_real(self.v, "UHPoint v")
        if not (math.isfinite(self.u) and math.isfinite(self.v) and self.v > 0):
            raise PreconditionViolation("UHPoint needs finite u and v, and v > 0")

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, truncation radii and grid parameters for all numerics.

    truncation_majorant_bound is big_xi's floor: the least majorant value it
    enumerates to; above it, the tail certificate sets the bound
    (greens._least_bound).  The default 1 never binds, since every vector of
    norm t != 0 has majorant value 2t + 4R >= 2|t| >= 2.
    """

    rel_tol: float = 4e-5
    abs_tol: float = 4e-7
    truncation_majorant_bound: float = 1.0
    max_cells: int = 14000
    singular_r_floor: float = 1e-12

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "truncation_majorant_bound",
            "singular_r_floor",
        ):
            if not 0 < require_real(getattr(self, name), f"QuadratureSpec {name}") < math.inf:
                raise PreconditionViolation(f"{name} must be finite and positive")
        if require_integer(self.max_cells, "QuadratureSpec max_cells") <= 0:
            raise PreconditionViolation("max_cells must be a positive integer")


DEFAULT_SPEC = QuadratureSpec()

# The largest majorant bound big_xi enumerates to from a lower floor.
MAX_MAJORANT_BOUND = 3072.0


# --- beta_1 -----------------------------------------------------------------

# The table's rows: row 8 e + j is piece j of the octave of frexp exponent
# e, up to the piece of 700 (row 82), row _EIN + j the Ein piece
# [j/4, (j+1)/4].  For beta1's Horner loop each row as (a_10, (a_9, ...,
# a_0)); for beta1_vec the same by degree, _E1_BY_DEGREE[k, row] being a_k
# of the row.
_E1_HORNER = tuple((row[-1], row[-2::-1]) for row in E1_PIECES)
_EIN = len(E1_PIECES) - 4
_E1_BY_DEGREE = np.array(E1_PIECES).T.copy()


def beta1(r: float) -> float:
    """beta_1(r) = integral_1^oo e^(-r u) du / u, the exponential integral E_1.

    One Horner sum of 11 coefficients over one row of the table
    ariththeta._e1_table, which scripts/e1_table.py writes from mpmath at 40
    digits (CI regenerates it with --check).  For r < 1/2 the rows are the
    entire function Ein(r) = E_1(r) + gamma + log r on the pieces
    [j/4, (j+1)/4], j = floor(4 r), in x = 2 (4 r - j) - 1 (Abramowitz and
    Stegun 5.1.11), and E_1(r) = Ein(r) - gamma - log r.  For r >= 1/2 the
    rows cut the octaves of Cody and Thacher (Rational Chebyshev
    approximations for the exponential integral E1(x), Math. Comp. 22, 1968)
    into 8 pieces each: write r = m 2^e with m in [1/2, 1) (math.frexp),
    j = floor(16 (m - 1/2)) and x = 2 (16 m - 8 - j) - 1 in [-1, 1), exact
    in floats; then E_1(r) = e^-r g(r) / r with g(r) = r e^r E_1(r) =
    sum_{k<=10} a_k x^k on row 8 e + j, up to row 82, that is r in [1/2, 704).
    Each row is the Chebyshev interpolant of its piece truncated after T_10
    and written in powers of x; the largest dropped Chebyshev coefficient is
    6e-19, below the rounding of the sums.  Relative error below 2e-15 on
    (0, 700]; measured at most 4.1e-16 against mpmath on [1e-300, 700], and
    the tests check both ends and the midpoint of every piece.  Above 700
    the value is 0, an absolute error below E_1(700) < 1e-306.
    """
    if not require_real(r, "beta1 r") > 0:
        raise NonpositiveArgument(f"beta1 needs r > 0, got {r}")
    return _beta1(float(r), r < 0.5)


def _beta1(r: float, ein: bool) -> float:
    # beta1's Horner sum on r's Ein piece if ein (r <= 1), else on r's octave piece.
    if r > 700:
        return 0.0
    if ein:
        f = 4.0 * r
        j = min(int(f), 3)
        row = _EIN + j
    else:
        m, e = math.frexp(r)
        f = 16.0 * m - 8.0
        j = int(f)
        row = 8 * e + j
    x = 2.0 * (f - j) - 1.0
    t, rest = _E1_HORNER[row]
    for c in rest:
        t = t * x + c
    return t - EULER_GAMMA - math.log(r) if ein else math.exp(-r) * t / r


def beta1_vec(r: np.ndarray) -> np.ndarray:
    """Vectorized beta1 on positive arrays: the same rows and sums.

    Each point gets its row (its Ein piece for r < 1/2, else its octave
    piece) and its x, and one Horner pass runs over all points: each step is
    one in-place multiply by x and one take of the step's coefficient, by
    each point's row, added in place, in the order beta1's float operations
    run.  So a value depends on its own r alone, not on the batch, and
    differs from beta1 by the rounding of exp or log at most.  Relative
    error below 2e-15 on (0, 700], as for beta1, and 0 above 700.  An entry
    that is not > 0, NaN included, raises NonpositiveArgument.

    This kernel is for quadrature batches.  Every lambda_star call starts
    from its polar start grid of 4 x 2 cells, 640 points evaluated as one
    batch, and every call in the heights benchmark stops there: on a
    2-core x86-64 host such a batch takes 0.044 ms, while one point alone
    takes 41 us.
    So big_xi and xi, a few terms per call, use the scalar beta1, which
    takes 0.8 to 1.1 us a call on r in [12.6, 40].  mpmath is the oracle of
    both kernels.
    """
    r = np.asarray(r, dtype=float)
    positive = r > 0
    if not positive.all():
        raise NonpositiveArgument(f"beta1_vec needs r > 0, got {r[~positive][0]}")
    rc = np.minimum(r, 700.0)
    f, e = np.frexp(rc)
    f *= 16.0
    f -= 8.0
    ein = np.flatnonzero(rc < 0.5)
    f[ein] = 4.0 * rc[ein]
    j = f.astype(np.intp)
    row = e.astype(np.intp)
    row *= 8
    row += j
    row[ein] = _EIN + j[ein]
    x = f - j
    x *= 2.0
    x -= 1.0
    t, c = _E1_BY_DEGREE[-1].take(row, mode="clip"), np.empty_like(rc)
    for coefs in _E1_BY_DEGREE[-2::-1]:
        t *= x
        t += coefs.take(row, out=c, mode="clip")
    out = np.exp(-rc)
    out *= t
    out /= rc
    out[ein] = t[ein] - EULER_GAMMA - np.log(rc[ein])
    out[r > 700] = 0.0
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


def cm_point(x) -> UHPoint:
    """Upper half-plane point of the divisor D_x, for Q(x) > 0."""
    alpha, beta, gamma = (float(c) for c in x)
    t = q_value((alpha, beta, gamma))
    if t <= 0:
        raise PreconditionViolation("D_x is empty unless Q(x) > 0")
    return UHPoint(alpha / gamma, math.sqrt(t) / abs(gamma))


def xi(x, z: UHPoint, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Green function xi(x, z) = beta_1(2 pi R(x, z)); Q(x) must be nonzero."""
    if q_value(x) == 0:
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
    out = np.multiply(r, -TWO_PI)
    np.exp(out, out=out)
    r += q_value(x)
    r *= 2.0
    r -= 1.0 / TWO_PI
    out *= r
    return out


def xi_vec(x, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized xi for quadrature; R is raised to 1e-300, so xi stays finite on D_x."""
    r = _r_vec(x, u, v)
    np.maximum(r, 1e-300, out=r)
    r *= TWO_PI
    return beta1_vec(r)


def _r_vec(x, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R(x, z) at the points u + i v, in r_value's float operations, in place.

    u^2 - v^2 and 4 v^2 are formed once, and two arrays besides the result
    are allocated; the inputs are only read.
    """
    alpha, beta, gamma = (float(c) for c in x)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    den = v * v
    re = u * u
    re -= den
    re *= gamma
    im = np.multiply(u, 2 * alpha)
    re -= im
    re -= beta
    # (2 gamma u - 2 alpha) v: doubling is exact, so these are the bits of
    # r_value's 2 v (gamma u - alpha).
    np.multiply(u, 2 * gamma, out=im)
    im -= 2 * alpha
    im *= v
    re *= re
    im *= im
    re += im
    den *= 4.0
    re /= den
    return re


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
    lat: TraceZeroLattice, t: int, v: float, z: UHPoint, spec: QuadratureSpec = DEFAULT_SPEC
) -> BigXiResult:
    """Xi(t, v)(z) = sum over Q(x) = t of beta_1(2 pi v R(x, z)), truncated.

    The sum runs over the vectors whose majorant value is at most the
    truncation bound, and a certified tail bound below abs_tol covers the
    rest (_tail_bound).  The bound is the spec's floor if its tail
    certifies, else close above the least bound whose tail does, found by
    one search (_least_bound).  One Cholesky factor of the majorant serves
    the tail at every bound tried and the enumeration, and no LAPACK routine
    runs: all is plain Python floats, where numpy would spend its time on
    dispatch for 3-vectors.  The enumeration (enumerate_by_majorant with
    norm=t) solves n^T G n = 2t exactly on each (n3, n2) row of the majorant
    ellipsoid and accepts a root by its majorant value, summed from six
    products.  The terms are summed one by one in its order (n3, then n2,
    then n1), each R written out as r_value computes it, each beta_1 by the
    scalar kernel.

    For t > 0, terms with R below the singular floor: an exact zero raises
    SingularEvaluation, a positive value below the floor is excluded from
    the sum and reported in the result.
    """
    if lat.is_definite:
        raise PreconditionViolation("big_xi needs an indefinite lattice")
    if require_integer(t, "t") == 0:
        raise PreconditionViolation("t must be nonzero")
    if not 0 < require_real(v, "v") < math.inf:
        raise PreconditionViolation(f"v must be finite and positive, got {v!r}")
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = model_coordinates_float(lat).tolist()
    m = majorant(lat, z)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    try:
        factor = _cholesky3(m00, m01, m02, m11, m12, m22)
    except PreconditionViolation:
        raise QuadratureFailure("majorant lost positivity") from None
    shrink = _pivot_shrink(m00, m11, m22, factor)
    pivots = [factor[k] * (1.0 - shrink) for k in (0, 3, 5)]
    bound, tail = _least_bound(pivots, t, v, spec, lat.gram[0][0] == 0)
    pts = enumerate_by_majorant(lat, z, bound, form=m, norm=t, factor=factor)
    value = 0.0
    excluded = []
    # r_value's float operations with its constants hoisted, so the same bits.
    x, y = float(z.u), float(z.v)
    zr, x2, y2, den, scale = x * x - y * y, 2 * x, 2 * y, 4 * y * y, TWO_PI * v
    for n in pts:
        n1, n2, n3 = n
        alpha, gamma = c00 * n1 + c01 * n2 + c02 * n3, c20 * n1 + c21 * n2 + c22 * n3
        re = gamma * zr - x2 * alpha - (c10 * n1 + c11 * n2 + c12 * n3)
        im = y2 * (gamma * x - alpha)
        r = (re * re + im * im) / den
        if r == 0.0:
            raise SingularEvaluation(f"z lies on the divisor of {n}")
        if r < spec.singular_r_floor:
            excluded.append(n)
            continue
        arg = scale * r  # positive unless it underflows, which beta1 refuses
        value += _beta1(arg, arg < 0.5) if arg > 0 else beta1(arg)
    return BigXiResult(value=value, tail_bound=tail, terms=len(pts), excluded=tuple(excluded))


def _least_bound(pivots, t: int, v: float, spec: QuadratureSpec, whole_rows: bool) -> tuple[float, float]:
    """(bound, its _tail_bound): the floor if its tail certifies, else about the least bound that does.

    The floor is spec.truncation_majorant_bound, or 2|t| if larger: every
    norm-t vector has majorant value 2t + 4R >= 2|t|.  Above the floor, the
    first shell's term of _tail_bound, N e^-r / r with r = a (bound - 2t),
    a = 2 pi v / 4 and N = _norm_count at twice the bound, reaches abs_tol
    where r = log(N / (r abs_tol)).  N grows like a power of the bound, so
    the right side moves little with the bound, and four fixed-point steps
    from the floor solve it.  The other shells add a little to the tail, so
    from there the bound steps up by a factor 1.05 until _tail_bound
    certifies: on 2,000 seeded points of d1, d6 and d10 with v in [0.1, 2],
    one step always did, at 1.05 times the least certifying bound.  Past
    MAX_MAJORANT_BOUND (or a floor above it) the search raises
    QuadratureFailure.
    """
    floor = max(spec.truncation_majorant_bound, 2.0 * abs(t))
    tail = _tail_bound(pivots, t, v, floor, whole_rows)
    if tail <= spec.abs_tol:
        return floor, tail
    top = max(floor, MAX_MAJORANT_BOUND)
    a = TWO_PI * v / 4.0
    bound = lo = max(floor, 2.0 * t + 1.0)  # below 2t + 1, _tail_bound is inf
    for _ in range(4):
        r = math.log(_norm_count(pivots, 2.0 * bound, whole_rows) / (a * (bound - 2 * t)) / spec.abs_tol)
        bound = min(top, max(lo, 2 * t + r / a))
    while True:
        bound = min(1.05 * bound, top)
        tail = _tail_bound(pivots, t, v, bound, whole_rows)
        if tail <= spec.abs_tol:
            return bound, tail
        if bound >= top:
            raise QuadratureFailure(f"tail bound {tail:.3g} above abs_tol at majorant bound {bound:g}")


def _norm_count(pivots, x: float, whole_rows: bool) -> float:
    """At least the number of norm-t vectors with majorant value <= x; see _tail_bound."""
    root = math.sqrt(x)
    k1, rows = 2.0 * root / pivots[0] + 1.0, (2.0 * root / pivots[2] + 1.0) * (2.0 * root / pivots[1] + 1.0)
    return rows * min(2.0, k1) + (2.0 * max(0.0, k1 - 2.0) if whole_rows else 0.0)


def _tail_bound(pivots, t: int, v: float, bound: float, whole_rows: bool) -> float:
    """Rigorous bound for the sum over majorant values M above `bound`.

    pivots are U00, U11, U22 of the majorant's upper Cholesky factor U,
    shrunk by lattice._pivot_shrink; whole_rows is G00 = 0.  R = (M - 2t)/4 and
    beta_1(r) <= e^-r / r, so dyadic shells [lo, 2 lo) of M, each counted by
    _norm_count(2 lo), give a convergent series.

    The count: M(n) = |U n|^2, so |U22 n3| and |U11 n2 + U12 n3| are at
    most sqrt X on the vectors with M <= X, which lie on at most
    rows(X) = (2 sqrt(X)/U22 + 1)(2 sqrt(X)/U11 + 1) rows (n3, n2), each
    with at most k1 = 2 sqrt(X)/U00 + 1 integers n1.  A row holds at most
    two norm-t vectors unless it is one of at most two whole rows, which
    need G00 = 0 (_enumerate_norm proves both).  So the count is at most
    rows(X) min(2, k1) + 2 max(0, k1 - 2) [G00 = 0]: O(X), and at most the
    Cholesky box prod (2 sqrt(X)/Uii + 1), whose leading term
    8 X^1.5 / sqrt(det M) is the eigenvalue box's.

    The shrink: the computed U is the exact factor of M + E with
    |E_ij| <= 4.5e-16 sqrt(Mii Mjj) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so M + E <= (1 + 1.4e-15 s) M for s the
    norm of the inverse of M scaled to a unit diagonal.  Pivots shrunk by
    1e-9 count the vectors with M + E <= X (1 + 2e-9), which covers s up to
    1.4e6 and the rounding of the count; beyond, _pivot_shrink takes a
    shrink of 1.4e-15 times a bound on s read from U.  On d1, d6 and d10,
    s is at most 1.1e4 on |u| <= 1.5, 0.3 <= v <= 2.5 and 1.01e6 on
    |u| <= 1/2, 0.87 <= v <= 30; beyond, it grows like ((u^2 + v^2 + 1)/v)^4,
    to 1.1e13 at u = 6, v = 0.02 on d6.
    """
    if bound <= 2 * t + 1:
        return math.inf
    total, lo = 0.0, bound
    for _ in range(200):
        arg = TWO_PI * v * (lo - 2 * t) / 4.0
        term = 0.0 if arg > 745 else _norm_count(pivots, 2.0 * lo, whole_rows) * math.exp(-arg) / arg
        total += term
        if term < 1e-22 and lo > 4 * bound:
            break
        lo *= 2.0
    return total
