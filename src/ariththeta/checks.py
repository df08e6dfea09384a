"""Named verification suites behind `check`: seeded, deterministic, pure.

Each suite takes (lat, seed, spec) and returns a list of (name, passed,
detail) rows; everything derives from one integer seed so that a fixed seed
reproduces the report byte for byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import binforms
from .errors import PreconditionViolation, UnsupportedDiscriminant
from .greens import EULER_GAMMA, QuadratureSpec, _beta1, beta1, cm_point
from .identities import degree_series
from .lattice import TraceZeroLattice
from .splitorbits import apply3, conj_action, pair_action
from .starprod import PairConfig, lambda_star, z_hat_indefinite

Row = tuple[str, bool, str]


def vector_with_cm(u0: float, v0: float, t: float) -> tuple:
    """The vector with norm t > 0 whose divisor is the point (u0, v0)."""
    g = math.sqrt(t) / v0
    a = g * u0
    b = -(a * a + t) / g
    return (a, b, g)


def vector_with_geodesic(r1: float, r2: float, t: float) -> tuple:
    """The vector with norm t < 0 whose geodesic has endpoints r1 < r2."""
    g = 2.0 * math.sqrt(-t) / abs(r1 - r2)
    a = g * (r1 + r2) / 2.0
    b = -g * r1 * r2
    return (a, b, g)


def random_pair(rng: random.Random):
    """A seeded nonsingular pair whose divisors interact, so heights are not
    negligibly small: close CM points, a geodesic passing a CM point, or a
    pair of nearby geodesics."""
    while True:
        mode = rng.choice("AAABBC")
        u1 = rng.uniform(-0.5, 0.5)
        v1 = rng.uniform(0.7, 1.3)
        t1 = rng.uniform(0.5, 2.5)
        if mode == "A":
            x1 = vector_with_cm(u1, v1, t1)
            d = rng.uniform(0.35, 1.2)
            th = rng.uniform(0, 2 * math.pi)
            # Point at hyperbolic distance ~d from (u1, v1).
            u2 = u1 + v1 * math.sinh(d) * math.cos(th)
            v2 = v1 * (math.cosh(d) + math.sinh(d) * math.sin(th) * 0.6)
            x2 = vector_with_cm(u2, max(v2, 0.15), rng.uniform(0.5, 2.5))
        elif mode == "B":
            x1 = vector_with_cm(u1, v1, t1)
            spread = rng.uniform(0.8, 2.5) * v1
            off = rng.uniform(-0.4, 0.4)
            x2 = vector_with_geodesic(
                u1 + off - spread, u1 + off + spread, -rng.uniform(0.4, 2.0)
            )
        else:
            x1 = vector_with_geodesic(u1 - rng.uniform(0.8, 2.0), u1, -rng.uniform(0.4, 2.0))
            x2 = vector_with_geodesic(
                u1 - rng.uniform(0.2, 0.7), u1 + rng.uniform(0.5, 1.5), -rng.uniform(0.4, 2.0)
            )
        pair = PairConfig.from_vectors(x1, x2)
        (g_t1, g_m), (_, g_t2) = pair.gram
        if abs(pair.det) < 0.15 or max(abs(g_t1), abs(g_t2), abs(g_m)) > 6.0:
            continue
        if g_t1 > 0 and g_t2 > 0:
            z1, z2 = cm_point(pair.x1), cm_point(pair.x2)
            d2 = ((z1.u - z2.u) ** 2 + (z1.v - z2.v) ** 2) / (2 * z1.v * z2.v)
            if math.acosh(1 + d2) < 0.3:
                continue
        return pair


def random_rotation(rng: random.Random) -> np.ndarray:
    th = rng.uniform(0.3, 2 * math.pi - 0.3)
    k = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    if rng.random() < 0.5:
        k = k @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return k


def rotate_pair(pair: PairConfig, k: np.ndarray) -> PairConfig:
    return PairConfig.from_vectors(*pair_action((pair.x1, pair.x2), k.ravel()))


def conjugate_pair(pair: PairConfig, rng: random.Random) -> PairConfig:
    """A different realization of the same gram (ambient isometry)."""
    p = rng.uniform(0.7, 1.4)
    q = rng.uniform(-0.6, 0.6)
    r = rng.uniform(-0.6, 0.6)
    conj = conj_action((p, q, r, (1 + q * r) / p))
    y1, y2 = apply3(conj, pair.x1), apply3(conj, pair.x2)
    if rng.random() < 0.5:
        # Improper ambient isometry (reflection u -> -u of the half-plane).
        y1 = (-y1[0], y1[1], y1[2])
        y2 = (-y2[0], y2[1], y2[2])
    return PairConfig.from_vectors(y1, y2)


def suite_beta1(lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    rows: list[Row] = []
    rs = [10.0 ** (-6 + 7.2 * k / 39) for k in range(40)]
    ok = all(beta1(r) > beta1(r * 1.05) > 0 for r in rs)
    rows.append(("beta1:strictly-decreasing-positive", ok, "40 log-spaced points"))
    ok = all(beta1(r) <= math.exp(-r) / r for r in rs if r >= 0.1)
    rows.append(("beta1:tail-bound-exp(-r)/r", ok, "r >= 0.1"))
    worst = max(
        abs(beta1(r) + EULER_GAMMA + math.log(r)) / (2 * r)
        for r in rs
        if r <= 0.5
    )
    rows.append(
        ("beta1:small-r-log-law", worst <= 1.0, f"max |beta1+gamma+log r|/2r = {worst:.3e}")
    )
    gap = max(abs(_beta1(r, True) - _beta1(r, False)) / _beta1(r, False) for r in (0.5, 0.8, 1.0))
    rows.append(
        (
            "beta1:ein-octave-crossover",
            gap < 1e-12,
            f"max relative gap between the two evaluations: {gap:.2e}",
        )
    )
    return rows


def suite_zagier(lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    """deg Z(t) = H(4t) by the box route, which reads no reduced_classes, and zeta(-1) on d1."""
    if lat.discriminant != 1:
        raise UnsupportedDiscriminant("the Zagier correspondence is checked on the split model only")
    rows: list[Row] = []
    series = degree_series(lat, v=1.0, n=50)
    ok0 = series.coefficient(0) == Fraction(-1, 12)
    rows.append(("zagier:constant-term", ok0, f"coefficient(0) = {series.coefficient(0)}"))
    for t in range(1, 51):
        h = binforms.hurwitz_class_number_boxdedup(4 * t)
        c = series.coefficient(t)
        rows.append((f"zagier:t={t}", c == h, f"degree {c} vs H({4 * t}) = {h}"))
    return rows


def suite_o2_invariance(lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    rng = random.Random(seed * 7 + 1)
    rows: list[Row] = []
    for k in range(20):
        pair = random_pair(rng)
        rot = random_rotation(rng)
        base = lambda_star(pair, spec)
        moved = lambda_star(rotate_pair(pair, rot), spec)
        tol = 5e-3 * (1 + abs(base.value))
        dev = abs(moved.value - base.value)
        rows.append(
            (
                f"o2-invariance:{k}",
                dev <= tol,
                f"|L(xk)-L(x)| = {dev:.3e} tol {tol:.3e} (L = {base.value:.6f})",
            )
        )
    return rows


def suite_symmetry(lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    """Swap rows, then gram-only rows (a pair against its ambient conjugate).

    lambda_star integrates a pair with a positive vector in a frame written
    from its gram alone, so for such pairs the gram-only rows compare two
    frames that agree to rounding and test little; the same holds for the
    swap rows of CM-geodesic pairs, whose positive vector carries the delta
    term in either order.  The swap rows of CM-CM pairs (the other divisor
    goes to i), both kinds of rows for pairs of two negative vectors, the
    o2-invariance suite (a rotation changes the gram) and the scipy polar
    oracle of the tests stay independent checks.
    """
    rng = random.Random(seed * 7 + 2)
    rows: list[Row] = []
    for k in range(20):
        pair = random_pair(rng)
        base = lambda_star(pair, spec)
        swapped = lambda_star(PairConfig.from_vectors(pair.x2, pair.x1), spec)
        tol = base.err + swapped.err + 1e-9
        dev = abs(base.value - swapped.value)
        rows.append(
            (f"symmetry:swap-{k}", dev <= tol, f"dev {dev:.3e} within {tol:.3e}")
        )
    rng2 = random.Random(seed * 7 + 3)
    for k in range(20):
        pair = random_pair(rng2)
        other = conjugate_pair(pair, rng2)
        base = lambda_star(pair, spec)
        again = lambda_star(other, spec)
        tol = base.err + again.err + 1e-9
        dev = abs(base.value - again.value)
        rows.append(
            (f"symmetry:gram-only-{k}", dev <= tol, f"dev {dev:.3e} within {tol:.3e}")
        )
    return rows


# The indices T = (t1, m, t2) of the a-independence suite: five of
# signature (1,1), then five of signature (0,2).
A_INDEPENDENCE_TS = (
    (1, 0, -1), (1, 1, -1), (2, 1, -1), (1, 2, 1), (3, 1, -2),
    (-1, 0, -1), (-1, 1, -2), (-2, 1, -2), (-1, 0, -2), (-3, 2, -2),
)


def suite_a_independence(lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    rng = random.Random(seed * 7 + 4)
    rows: list[Row] = []
    for k in range(5):
        a11 = rng.uniform(0.5, 2.0)
        a22 = rng.uniform(0.5, 2.0)
        a12 = rng.uniform(-0.4, 0.4) * math.sqrt(a11 * a22)
        v = ((a11, a12), (a12, a22))
        for t1, m, t2 in A_INDEPENDENCE_TS:
            t_mat = ((t1, m), (m, t2))
            sym = z_hat_indefinite(lat, t_mat, v, spec, square_root="symmetric")
            tri = z_hat_indefinite(lat, t_mat, v, spec, square_root="triangular")
            tol = sym.err + tri.err + 1e-9
            dev = abs(sym.value - tri.value)
            rows.append(
                (
                    f"a-independence:v{k}:T=({t1},{m},{t2})",
                    dev <= tol,
                    f"sym {sym.value:.6e} tri {tri.value:.6e} dev {dev:.2e} "
                    f"tol {tol:.2e} orbits {sym.orbits}",
                )
            )
    return rows


SUITES = {
    "beta1": suite_beta1,
    "zagier": suite_zagier,
    "o2-invariance": suite_o2_invariance,
    "symmetry": suite_symmetry,
    "a-independence": suite_a_independence,
}


def run_suite(name: str, lat: TraceZeroLattice, seed: int, spec: QuadratureSpec) -> list[Row]:
    """The rows of one suite, or of every suite in order for "full"."""
    if name == "full":
        return [row for suite in SUITES.values() for row in suite(lat, seed, spec)]
    if name not in SUITES:
        raise PreconditionViolation(f"unknown suite {name!r}; choose from {(*SUITES, 'full')}")
    return SUITES[name](lat, seed, spec)
