"""Independent oracles behind the benchmark's correctness checks.

None of these compares against stored program output.  Each one recomputes
the answer by another route (a brute-force sum, a scipy quadrature, a
classical identity, an exact integer count) or checks an invariance that the
mathematics guarantees, and states the allowance it grants.

The only thing taken from the program is its coordinate convention: the
matrix C with C @ n = (alpha, beta, gamma) that places the lattice inside the
trace-zero 2x2 matrices.  It fixes which point of the upper half-plane a
lattice vector's Green function refers to, so a check must share it; the
oracle verifies that C is an isometry onto the model before using it.

Run as a command, this module prints the orbifold reference value:

    python3 perfbench/oracles.py
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# Bilinear form (x, x) = 2 Q(x) on [[alpha, beta], [gamma, -alpha]], Q = det.
MODEL_GRAM = np.array([[-2.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])

# Relative rounding granted per summed term (beta_1 is accurate to ~1e-13).
ROUNDING = 1e-12

# Terms beyond this exponent (E_1(r) < e^-r / r) are below 1e-65.
NEGLIGIBLE_EXPONENT = 150.0


class OracleError(Exception):
    """An oracle could not establish its own premises."""


# --- the model: R(x, z) and the majorant ------------------------------------


def model_map(lat) -> np.ndarray:
    """C with C @ n = (alpha, beta, gamma), checked to carry the gram to the model."""
    from ariththeta import lattice

    c = lattice.model_coordinates_float(lat)
    if not np.allclose(c.T @ MODEL_GRAM @ c, np.array(lat.gram, dtype=float), atol=1e-9):
        raise OracleError("model coordinates are not an isometry onto the matrix model")
    return c


def _p_rows(c: np.ndarray, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of p(z) = gamma z^2 - 2 alpha z - beta as linear forms in n."""
    alpha, beta, gamma = c
    return gamma * (u * u - v * v) - 2.0 * alpha * u - beta, gamma * (2.0 * u * v) - 2.0 * alpha * v


def _majorant(gram: np.ndarray, rows, v: float) -> np.ndarray:
    """(n, n) + 4 R(n, z) as a matrix: R = |p(z)|^2 / (4 v^2)."""
    re, im = rows
    return gram + (np.outer(re, re) + np.outer(im, im)) / (v * v)


def _box(lim) -> np.ndarray:
    axes = [np.arange(-int(k), int(k) + 1, dtype=np.int64) for k in lim]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _vectors_of_norm(gram: np.ndarray, lim, t: int) -> np.ndarray:
    """All n in the box with n^T G n = 2t, decided in exact integer arithmetic."""
    n = _box(lim)
    g = np.asarray(gram, dtype=np.int64)
    return n[np.einsum("ki,ij,kj->k", n, g, n) == 2 * t]


def _ball_for(t: int, w: float) -> float:
    """Majorant value past which every term E_1(2 pi w R) is negligible."""
    return 2.0 * t + 4.0 * NEGLIGIBLE_EXPONENT / (2.0 * math.pi * w)


# --- big_xi: brute-force sum ------------------------------------------------


def brute_force_big_xi(lat, t: int, w: float, u: float, v: float, skip=()) -> tuple[float, float]:
    """Sum of E_1(2 pi w R(x, z)) over Q(x) = t, over a ball larger than the program's.

    The box |n_i| <= sqrt(B (M^-1)_ii) holds every n with n^T M n <= B (Cauchy-
    Schwarz).  Vectors in `skip` (the program's reported exclusions, to be
    vetted by `exclusions_ok`) are left out.  Returns (sum, sum of absolute
    terms).
    """
    from scipy.special import exp1

    c = model_map(lat)
    gram = np.array(lat.gram, dtype=float)
    rows = _p_rows(c, u, v)
    m = _majorant(gram, rows, v)
    ball = max(8.0 * 48.0, _ball_for(t, w))
    lim = np.floor(np.sqrt(ball * np.diag(np.linalg.inv(m)))) + 1
    n = _vectors_of_norm(lat.gram, lim, t)
    if skip:
        skipped = {tuple(int(k) for k in s) for s in skip}
        n = n[[tuple(int(k) for k in row) not in skipped for row in n]]
    x = n.astype(float)
    re, im = x @ rows[0], x @ rows[1]
    r = (re * re + im * im) / (4.0 * v * v)
    r = r[2.0 * t + 4.0 * r <= ball]
    terms = exp1(2.0 * math.pi * w * r)
    return float(terms.sum()), float(np.abs(terms).sum())


def exclusions_ok(lat, t: int, u: float, v: float, excluded, floor: float) -> bool:
    """Every vector the program left out of a sum has Q = t, decided exactly,
    and R(x, z) below the singular floor, so that leaving it out of the
    brute-force sum as well hides nothing."""
    if not excluded:
        return True
    n = np.array(excluded, dtype=np.int64).reshape(-1, 3)
    g = np.asarray(lat.gram, dtype=np.int64)
    if np.any(np.einsum("ki,ij,kj->k", n, g, n) != 2 * t):
        return False
    re, im = _p_rows(model_map(lat), u, v)
    x = n.astype(float)
    r = ((x @ re) ** 2 + (x @ im) ** 2) / (4.0 * v * v)
    return bool(np.all(r < floor))


def big_xi_ok(value: float, tail_bound: float, reference: float, magnitude: float) -> bool:
    """The truncated sum agrees with the full sum within its tail bound plus rounding."""
    return abs(value - reference) <= tail_bound + ROUNDING * magnitude + 1e-300


# --- the orbifold integral ---------------------------------------------------


def orbifold_reference(lat, t: int, w: float, cusp: float = 6.0) -> tuple[float, float]:
    """(1/2) of the integral of the Green sum Xi(t, w) over the modular domain.

    The domain is the exact region |u| <= 1/2, |z| >= 1, cut at v = cusp; the
    integrand is the brute-force sum over every vector of norm t that can
    contribute anywhere in the region, integrated by scipy's dblquad.  Returns
    (value, error), the error being dblquad's estimate; the cut is checked to
    be negligible.  Needs t < 0, where R >= |t| keeps the integrand smooth.
    """
    from scipy import integrate
    from scipy.special import exp1

    if t >= 0:
        raise OracleError("the orbifold reference needs t < 0")
    c = model_map(lat)
    gram = np.array(lat.gram, dtype=float)
    ball = _ball_for(t, w)
    # Box holding every contributing vector: the majorant box over a grid of
    # the region, padded for points between grid nodes.
    lim = np.zeros(3)
    for u in np.linspace(-0.5, 0.5, 11):
        for v in np.geomspace(math.sqrt(3.0) / 2.0, cusp, 16):
            m = _majorant(gram, _p_rows(c, u, v), v)
            lim = np.maximum(lim, np.sqrt(ball * np.diag(np.linalg.inv(m))))
    x = c @ _vectors_of_norm(lat.gram, np.floor(1.5 * lim) + 2, t).T.astype(float)
    alpha, beta, gamma = x

    def green_sum(u: float, v: float) -> float:
        re = gamma * (u * u - v * v) - 2.0 * alpha * u - beta
        im = 2.0 * v * (gamma * u - alpha)
        r = (re * re + im * im) / (4.0 * v * v)
        return float(exp1(2.0 * math.pi * w * r).sum())

    top = max(green_sum(u, cusp) for u in np.linspace(-0.5, 0.5, 41))
    if top > 1e-20:
        raise OracleError(f"integrand {top:.3g} at the cusp cut is not negligible")
    value, err = integrate.dblquad(
        lambda v, u: green_sum(u, v) / (v * v),
        -0.5,
        0.5,
        lambda u: math.sqrt(1.0 - u * u),
        cusp,
        epsabs=1e-14,
        epsrel=1e-9,
    )
    return 0.5 * value, 0.5 * err


def orbifold_ok(value: float, err: float, reference: float, reference_err: float) -> bool:
    return abs(value - reference) <= err + reference_err


# --- heights: invariances ----------------------------------------------------

O2_REL_TOL = 5e-3  # the o2-invariance suite's tolerance, relative to 1 + |Lambda|


def same_within_errors(a: float, a_err: float, b: float, b_err: float) -> bool:
    """Two estimates of one quantity agree within the sum of their error bars."""
    return abs(a - b) <= a_err + b_err + 1e-9


def o2_ok(base: float, moved: float) -> bool:
    return abs(moved - base) <= O2_REL_TOL * (1.0 + abs(base))


# --- exact arithmetic ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def class_number_count(n: int) -> Fraction:
    """Hurwitz H(n) by counting reduced forms a x^2 + b xy + c y^2 of discriminant -n.

    Reduced: |b| <= a <= c, and b >= 0 when |b| = a or a = c.  The forms
    a(x^2 + y^2) weigh 1/2 and a(x^2 + xy + y^2) weigh 1/3.  H(0) = -1/12.
    """
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            if (b * b + n) % (4 * a):
                continue
            c = (b * b + n) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if b == 0 and a == c:
                total += Fraction(1, 2)
            elif b == a == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return total


def hurwitz_arguments(m: int) -> list[int]:
    """The distinct 4m - s^2 >= 0 entering the Kronecker-Hurwitz relation at m."""
    return sorted({4 * m - s * s for s in range(math.isqrt(4 * m) + 1)})


def kronecker_hurwitz_ok(values: dict[int, Fraction], m: int) -> bool:
    """sum over s in Z of H(4m - s^2) = 2 sigma(m) - sum_{d | m} min(d, m/d)."""
    lhs = Fraction(0)
    for s in range(-math.isqrt(4 * m), math.isqrt(4 * m) + 1):
        lhs += values[4 * m - s * s]
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    rhs = 2 * sum(divisors) - sum(min(d, m // d) for d in divisors)
    return lhs == rhs


def prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def transform(t_mat, g):
    """g^T T g for T = ((t1, m), (m, t2)) and g = ((p, q), (r, s))."""
    (t1, m), (_, t2) = t_mat
    (p, q), (r, s) = g
    a = t1 * p * p + 2 * m * p * r + t2 * r * r
    b = t1 * p * q + m * (p * s + q * r) + t2 * r * s
    c = t1 * q * q + 2 * m * q * s + t2 * s * s
    return ((a, b), (b, c))


def classify_prime_ok(p, t_mat, d: int) -> bool:
    """The fundamental prime, if any, lies in {2} and the primes of D t1 det T."""
    (t1, m), (_, t2) = t_mat
    return p is None or p in {2} | prime_factors(d * t1 * (t1 * t2 - m * m))


def q_split(x) -> int:
    a, b, g = x
    return -a * a - b * g


def pair_gram(x1, x2) -> tuple[int, int, int]:
    """(Q(x1), (x1, x2), Q(x2)) on the split model; for the Q-gram ((t1, m), (m, t2)) the middle entry is 2m."""
    s = tuple(a + b for a, b in zip(x1, x2))
    return q_split(x1), q_split(s) - q_split(x1) - q_split(x2), q_split(x2)


def pair_reps_ok(reps, t1: int, m: int, t2: int) -> bool:
    return all(pair_gram(x1, x2) == (t1, 2 * m, t2) for x1, x2 in reps)


def degree_series_ok(coefficient, n: int) -> bool:
    """deg Z(t) = H(4t) for 1 <= t <= N, -1/12 at t = 0, zero at negative t."""
    if coefficient(0) != Fraction(-1, 12):
        return False
    if any(coefficient(-t) != 0 for t in range(1, n + 1)):
        return False
    return all(coefficient(t) == class_number_count(4 * t) for t in range(1, n + 1))


if __name__ == "__main__":
    import os
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ariththeta import lattice

    d1 = lattice.trace_zero_lattice(lattice.bundled_order("d1"))
    value, err = orbifold_reference(d1, -2, 1.0)
    print(f"(1/2) integral of Xi(-2, 1) over the modular domain: {value:.12e} +- {err:.1e}")
