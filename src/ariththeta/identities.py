"""Degree series, exact constants, and the special-cycle classification predicates.

degree_series_of_discriminant(D, N) computes the degrees; degree_series reads D off a maximal order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import binforms
from .errors import (
    PreconditionViolation,
    QuadratureFailure,
    UnsupportedDiscriminant,
    require_index,
    require_integer,
    require_real,
)
from .greens import DEFAULT_SPEC, EULER_GAMMA, QuadratureSpec, UHPoint
from .lattice import TraceZeroLattice
from .numtheory import (
    eichler_symbol,
    factorint,
    primes_up_to,  # noqa: F401  unused; perfbench/tracing.py wraps this attribute by name
    splits_in_quadratic_field,
    squarefree_primes,
    valuation,
)
from .quatalg import hilbert_symbol
from .quadrature import adaptive_integrate

# zeta'(-1), 30 certified digits (mpmath zeta derivative at 40 dps).
ZETA_PRIME_MINUS_ONE = -0.165421143700450929213919660243


@dataclass(frozen=True)
class DegreeSeries:
    """Exact-rational coefficients at q^0..q^N, 0 at any other index; v enters none of them."""

    coefficients: dict[int, Fraction]

    def coefficient(self, t: int) -> Fraction:
        return self.coefficients.get(t, Fraction(0))


def degree_series(lat: TraceZeroLattice, v: float, n: int) -> DegreeSeries:
    """degree_series_of_discriminant(D, N) on a maximal order; v (finite, > 0) is kept for d1's completion."""
    if not 0 < require_real(v, "v") < math.inf:
        raise PreconditionViolation(f"need a finite v > 0, got v = {v!r}")
    d, level = lat.discriminant, lat.order.reduced_discriminant()
    if level != d:
        raise UnsupportedDiscriminant(
            f"degrees need a maximal order; reduced discriminant {level} is not D = {d}"
        )
    return degree_series_of_discriminant(d, n)


def degree_series_of_discriminant(d: int, n: int) -> DegreeSeries:
    """Degrees of the special cycles Z(t) on the maximal order of discriminant D, indices 0..N.

    Eichler (Voight, Quaternion Algebras, ch. 30): deg Z(t) = sum over f^2 | 4t with
    d = -4t/f^2 a discriminant of 2 h(d)/w(d) prod_{p | D} (1 - {d/p}); H(4t) at D = 1.
    A reduced form of discriminant -4t and content f is f times a primitive form of
    discriminant d, so one pass over binforms.reduced_form_runs(N) sums Hurwitz weights
    in sixths per (t, f): along a run the content is gcd(gcd(a, b), c), and forms past
    c = a weigh 6.  Each (t, f) takes its local factor once; the constant term is
    zeta_D(-1).  D is an integer, squarefree and >= 1 (else NotSquarefree); N an integer >= 1.
    """
    n = require_integer(n, "N")
    if n < 1:
        raise PreconditionViolation(f"need N >= 1, got N = {n}")
    primes = squarefree_primes(d)
    by_content: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (n + 1))  # f -> sixths per t
    for a, b, cs in binforms.reduced_form_runs(n):
        shift, g = b * b // 4, math.gcd(a, b) if primes else 1  # D = 1: no local factor, one column
        for r in range(g):
            col = by_content[math.gcd(g, r)]
            for t in range(a * (cs.start + (r - cs.start) % g) - shift, a * cs.stop - shift, a * g):
                col[t] += 6
        if cs and cs.start == a:  # (a, b, a) weighs 3 sixths when b = 0, 2 when b = a
            by_content[g][a * a - shift] += binforms.hurwitz_weight((a, b, a)) - 6
    sixths = [0] * (n + 1) if primes else by_content[1]
    for f, col in by_content.items() if primes else ():
        for t in range(0, n + 1, f * f // math.gcd(f, 2) ** 2):  # the t with f^2 | 4t
            sixths[t] += col[t] * math.prod(1 - eichler_symbol(-4 * t // (f * f), p) for p in primes)
    return DegreeSeries({0: _zeta_minus1(primes), **{t: Fraction(sixths[t], 6) for t in range(1, n + 1)}})


@dataclass(frozen=True)
class ArchimedeanDegree:
    value: float
    err: float
    cusp_height: float

    def __float__(self) -> float:
        return self.value


def arithmetic_degree_archimedean(
    g,
    spec: QuadratureSpec = DEFAULT_SPEC,
    cusp_height: float = 4.0,
) -> ArchimedeanDegree:
    """(1/2) integral of g over the modular orbifold, in hyperbolic measure.

    g is an evaluator on UHPoint (e.g. a truncated Green-function sum at
    fixed t < 0).  The integral runs over the exact fundamental domain
    |u| <= 1/2, |z| >= 1, written as v = sqrt(1 - u^2) + s with s >= 0.  At
    fixed u the shift has unit Jacobian, dv = ds, so the measure stays
    du ds / v^2 and every node lies in the domain: nothing is masked, and a
    smooth g gives a smooth integrand on the rectangles in (u, s).

    The main piece is s in [0, cusp_height - sqrt(3)/2] from a 4 x 4 start
    grid, cells of 0.25 by about 0.8 for the default height; the cusp is
    handled by strips s in [h, 2h] from 2 x 2 start grids, doubling h until
    a strip certifies exponential decay.  With no arc to cut through, the
    start cells see no jump, and the 4x4/8x8 difference on them estimates
    the error of a smooth integrand as the rule intends: for the Green sums
    at t = -2 and -3 the start grids alone land within 1e-6 relative of the
    unfolded closed form (tests/test_identities.py), and at v = 1 a finer grid
    ((6, 6) and (4, 4)) would change the value by under 1e-15 absolute.  A
    failure to decay (which does happen for some integrands on the
    noncompact model) raises QuadratureFailure rather than returning a
    number.

    The result's cusp_height is a height in v below which the whole domain
    was integrated (the last strip's top in s, plus sqrt(3)/2).  Its err is
    the quadrature's alone: it does not include any error of g itself, such
    as big_xi's truncation tail.
    """

    def f(u: np.ndarray, s: np.ndarray) -> np.ndarray:
        out = []
        for uk, sk in zip(u.tolist(), s.tolist()):
            v = math.sqrt(1.0 - uk * uk) + sk
            out.append(g(UHPoint(uk, v)) / (v * v))
        return np.array(out)

    height = require_real(cusp_height, "cusp_height") - math.sqrt(3.0) / 2.0
    if not height > 0.0:
        raise PreconditionViolation(f"cusp_height {cusp_height} is not above sqrt(3)/2")
    tol = max(spec.abs_tol, 1e-9)
    value, err = adaptive_integrate(
        f,
        -0.5,
        0.5,
        0.0,
        height,
        abs_tol=tol,
        rel_tol=spec.rel_tol,
        max_cells=spec.max_cells,
        initial=(4, 4),
    )
    prev_strip = None
    for _ in range(8):
        strip, strip_err = adaptive_integrate(
            f,
            -0.5,
            0.5,
            height,
            2.0 * height,
            abs_tol=tol / 4,
            rel_tol=spec.rel_tol,
            max_cells=spec.max_cells,
            initial=(2, 2),
        )
        value += strip
        err += strip_err
        height *= 2.0
        if prev_strip is not None and abs(strip) > 0.6 * abs(prev_strip) and abs(strip) > tol:
            raise QuadratureFailure(
                f"cusp strips are not decaying ({prev_strip:.3g} -> {strip:.3g}); "
                "the integrand is not integrable on the noncompact model"
            )
        if abs(strip) < tol / 2:
            err += abs(strip)
            break
        prev_strip = strip
    else:
        raise QuadratureFailure("cusp tail did not certify within the height budget")
    return ArchimedeanDegree(
        value=0.5 * value, err=0.5 * err, cusp_height=height + math.sqrt(3.0) / 2.0
    )


def zeta_db_at_minus1(d: int) -> Fraction:
    """zeta_{D}(-1) = zeta(-1) prod_{p | D} (1 - p), exact."""
    return _zeta_minus1(squarefree_primes(d))


def _zeta_minus1(primes) -> Fraction:
    return Fraction(-1, 12) * math.prod(1 - p for p in primes)


def constant_c(hodge_pairing: float, d: int, hodge_degree: Fraction) -> float:
    """The additive constant of the weight-zero class, from its defining relation.

    Solves (1/2) hodge_degree * c = hodge_pairing - zeta_D(-1) * bracket with
    bracket = 2 zeta'(-1)/zeta(-1) + 1 - log(4 pi) - gamma - sum_{p|D} p log p / (p-1).
    """
    require_real(hodge_pairing, "hodge_pairing")
    if not require_real(hodge_degree, "hodge_degree") > 0:
        raise PreconditionViolation("hodge_degree must be positive")
    bracket = bracket_constant(d)
    zd = zeta_db_at_minus1(d)
    return 2.0 * (hodge_pairing - float(zd) * bracket) / float(hodge_degree)


def bracket_constant(d: int) -> float:
    total = 2.0 * ZETA_PRIME_MINUS_ONE / (-1.0 / 12.0) + 1.0 - math.log(4.0 * math.pi) - EULER_GAMMA
    for p in squarefree_primes(d):
        total -= p * math.log(p) / (p - 1)
    return total


def vertical_components(t: int, d: int, p: int) -> bool:
    """Whether the weight-t divisor contains fiber components at p.

    True iff ord_p(t) >= 2 and no other prime dividing the discriminant
    splits in Q(sqrt(-t)); splitting is decided by the Kronecker symbol of
    the field discriminant.
    """
    if require_integer(t, "t") < 1:
        raise PreconditionViolation("t must be a positive integer")
    primes = squarefree_primes(d)
    if len(primes) < 2:
        raise PreconditionViolation("need a squarefree discriminant with >= 2 prime factors")
    if require_integer(p, "p") not in primes:
        raise PreconditionViolation(f"{p!r} is not a prime factor of {d}")
    if valuation(t, p) < 2:
        return False
    for ell in primes:
        if ell != p and splits_in_quadratic_field(ell, -t):
            return False
    return True


@dataclass(frozen=True)
class CycleClassification:
    """Classification data of a positive definite index matrix."""

    t_matrix: tuple[tuple[int, int], tuple[int, int]]
    fundamental_prime: int | None
    regular: bool | None
    supersingular_support: bool


def fundamental_prime(t_mat, d: int) -> int | None:
    """The unique prime p whose definite twin space represents T, or None.

    T embeds in a ternary space of square determinant over Q_ell iff the
    Hasse invariant of U + <det U> (U a diagonalization of T) equals the
    space's own.  The twin at p has B's invariant except at ell = p, so p
    passes iff Diff(T, B), the set of places where U + <det U> disagrees
    with B, is exactly {p} (Kudla-Rapoport-Yang).

    With u1 = t1 and u2 = det T / t1, bilinearity and (u, u) = (u, -1) give
    the Hasse invariant of <u1, u2, u1 u2> as (u1, u2)(u1 u2, -1).  B = (a, b)
    has trace-zero space <-a, -b, ab> of invariant (-1, -1) inv(B), with
    inv_ell(B) = (a, b)_ell = -1 exactly on the primes of D.  Multiplying both
    sides by (-1, -1) turns the comparison into one symbol:
    (u1, u2)(u1 u2, -1)(-1, -1) = (-u1, -u2) = (-t1, -det T), the last since
    u2 = det T / t1 and (-t1, t1) = 1.  So ell lies in Diff(T, B) iff
    (-t1, -det T)_ell != inv_ell(B).  Outside {2} u primes(D t1 det T) both
    sides are 1, and also at an odd ell dividing t1 but not D det T: there
    det T = t1 t2 - m^2 = -m^2 (mod ell), so -det T is a nonzero square mod
    ell, hence a square in Q_ell.  So Diff lies in {2} u primes(D det T).
    (At the infinite place both T and the twin space are positive definite,
    so no condition arises there.)
    """
    return _fundamental_prime(*require_index(t_mat), d)


def _fundamental_prime(t1: int, m: int, t2: int, d: int) -> int | None:
    """fundamental_prime of T = ((t1, m), (m, t2)), whose entries are already integers."""
    det = t1 * t2 - m * m
    if t1 <= 0 or det <= 0:
        raise PreconditionViolation("T must be positive definite")
    ram = set(squarefree_primes(d))
    places = {2} | ram | set(factorint(det))
    diff = [
        ell for ell in sorted(places) if hilbert_symbol(-t1, -det, ell) != (-1 if ell in ram else 1)
    ]
    return diff[0] if len(diff) == 1 else None


def is_regular(t_mat, p: int, d: int) -> bool:
    """Whether the T-cycle is a 0-cycle: p not dividing D, or p^2 not dividing T."""
    c = classify(t_mat, d)
    if c.fundamental_prime != p:
        raise PreconditionViolation(f"{p} is not the fundamental prime of T (got {c.fundamental_prime})")
    return c.regular


def classify(t_mat, d: int) -> CycleClassification:
    t1, m, t2 = require_index(t_mat)
    p = _fundamental_prime(t1, m, t2, d)
    reg = None if p is None else (bool(d % p) or any(e % (p * p) for e in (t1, m, t2)))
    return CycleClassification(
        t_matrix=((t1, m), (m, t2)), fundamental_prime=p, regular=reg, supersingular_support=p is not None
    )
