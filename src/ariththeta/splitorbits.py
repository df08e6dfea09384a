"""The split matrix model, and unit-group orbits on its integer lattice.

Vectors are triples (alpha, beta, gamma) standing for the trace-zero matrix
[[alpha, beta], [gamma, -alpha]] with Q = det = -alpha^2 - beta*gamma.  The
model's formulas are written here once, for integer and real vectors alike:
Q, the pairing, conjugation by any invertible g and the action of a 2x2
matrix on pairs.  The unit group of the split order acts by conjugation;
orbits of vectors of norm t > 0 correspond to reduced positive binary forms
of discriminant -4t, which is how representatives, stabilizers, and pair
orbits are produced here.
"""

from __future__ import annotations

import math

from . import binforms
from .errors import PreconditionViolation, require_integer
from .numtheory import concave_window, integer_kernel, solve_integer_linear, squarefree_part

Vec = tuple[int, int, int]
Mat2 = tuple[int, int, int, int]  # (p, q, r, s) for [[p, q], [r, s]]


def q_value(v: Vec) -> int:
    """Q(v) = det [[alpha, beta], [gamma, -alpha]] = -alpha^2 - beta gamma."""
    a, b, g = v
    return -a * a - b * g


def inner(v: Vec, w: Vec) -> int:
    """The pairing (v, w) = Q(v + w) - Q(v) - Q(w), so (v, v) = 2 Q(v)."""
    return -2 * v[0] * w[0] - v[1] * w[2] - v[2] * w[1]


def _pairing_row(v: Vec) -> list[int]:
    """The row of w -> (v, w)."""
    return [inner(v, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def vector_of_form(form: tuple[int, int, int]) -> Vec:
    a, b, c = form
    if b % 2:
        raise PreconditionViolation("needs an even middle coefficient")
    return (-b // 2, -c, a)


def canonical_orbit_form(v: Vec) -> tuple[int, int, int]:
    """Reduced positive form labelling the conjugation orbit of v (Q(v) > 0)."""
    a, b, g = v
    if g == 0:
        raise PreconditionViolation("vector with gamma = 0 has Q <= 0")
    if g < 0:
        # Conjugating by diag(1, -1) sends (alpha, beta, gamma) to (alpha, -beta, -gamma).
        a, b, g = a, -b, -g
    return binforms.reduce_form((g, -2 * a, -b))


def orbit_reps(t: int) -> list[Vec]:
    """One vector per unit-group orbit on {Q = t}, t > 0."""
    if require_integer(t, "t") < 1:
        raise PreconditionViolation("t must be positive")
    return [vector_of_form(f) for f in binforms.reduced_classes(-4 * t)]


def conj_action(g: Mat2) -> tuple[tuple, ...]:
    """3x3 matrix of x -> g x g^{-1} on (alpha, beta, gamma), for real g with det g != 0.

    It preserves Q and the pairing, and moves the divisor of x by z -> g z.
    For an integer g with det g = +-1 its entries are exact integers.
    """
    p, q, r, s = g
    d = p * s - q * r
    if d == 0:
        raise PreconditionViolation("g must have det != 0")
    rows = (
        (p * s + q * r, -p * r, q * s),
        (-2 * p * q, p * p, -q * q),
        (2 * r * s, -r * r, s * s),
    )
    if d in (1, -1):
        return tuple(tuple(e * d for e in row) for row in rows)  # divide by det = multiply
    return tuple(tuple(e / d for e in row) for row in rows)


def apply3(m, v: Vec) -> Vec:
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    a, b, g = v
    return (m00 * a + m01 * b + m02 * g, m10 * a + m11 * b + m12 * g, m20 * a + m21 * b + m22 * g)


def pair_action(pair, a: Mat2):
    """The pair (x1, x2) times the 2x2 matrix a: the columns of [x1 x2] @ a.

    Its gram is a^T T a for the gram T of the pair.
    """
    (x1, x2), (p, q, r, s) = pair, a
    return (
        tuple(p * c1 + r * c2 for c1, c2 in zip(x1, x2)),
        tuple(q * c1 + s * c2 for c1, c2 in zip(x1, x2)),
    )


def _conic_points(
    a: int, b: int, c: int, d: int = 0, e: int = 0, f: int = 0
) -> list[tuple[int, int]]:
    """All integer (s, u) with a s^2 + b s u + c u^2 + d s + e u + f = 0, sorted; b^2 < 4ac.

    As a quadratic in s the equation has discriminant disc(u) = p u^2 + q u + r,
    p = b^2 - 4ac < 0, q = 2bd - 4ae, r = d^2 - 4af. Since p < 0, disc(u) >= 0
    exactly on the integers of concave_window(p, q, r). Each such u gives the roots
    s = (-(bu + d) +- w) / 2a when disc(u) = w^2 and 2a divides the numerator.
    """
    p = b * b - 4 * a * c
    if p >= 0:
        raise PreconditionViolation("form must be definite")
    q, r = 2 * b * d - 4 * a * e, d * d - 4 * a * f
    out = []
    for u in concave_window(p, q, r):
        disc = (p * u + q) * u + r
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        for num in {root - b * u - d, -root - b * u - d}:
            if num % (2 * a) == 0:
                out.append((num // (2 * a), u))
    return sorted(out)


def _norm_points(t: int, k1: Vec, k2: Vec, y0: Vec = (0, 0, 0)) -> list[Vec]:
    """Every y = y0 + s k1 + u k2 with Q(y) = t, in order of (s, u).

    Q must be definite on span(k1, k2).
    """
    conic = _conic_points(
        q_value(k1), inner(k1, k2), q_value(k2), inner(y0, k1), inner(y0, k2), q_value(y0) - t
    )
    return [tuple(y0[i] + s * k1[i] + u * k2[i] for i in range(3)) for s, u in conic]  # type: ignore[misc]


def _kernel_units(rows: list[list[int]], target: int, v: Vec) -> list[Mat2]:
    """All (p, q, r, s) with rows . (p, q, r, s) = 0 and ps - qr = target.

    The kernel must have rank 0 or 2, with a definite det form on its plane.
    """
    kernel = integer_kernel(rows)
    if not kernel:
        return []
    if len(kernel) != 2:
        raise PreconditionViolation(f"kernel rank {len(kernel)} != 2 for {v}")
    e1, e2 = kernel
    (p1, q1, r1, s1), (p2, q2, r2, s2) = e1, e2
    conic = _conic_points(
        p1 * s1 - q1 * r1, p1 * s2 + p2 * s1 - q1 * r2 - q2 * r1, p2 * s2 - q2 * r2, f=-target
    )
    return [tuple(m * x + n * y for x, y in zip(e1, e2)) for m, n in conic]  # type: ignore[misc]


def commuting_units(v: Vec) -> list[Mat2]:
    """Units of GL2(Z) commuting with the matrix of v (Q(v) > 0); a finite group."""
    a, b, g = v
    # XY - YX = 0 in the unknowns (p, q, r, s); nonzero entries are
    #   (0,0): b r - g q, (0,1): 2 a q + b (s - p), (1,0): g (p - s) - 2 a r.
    # The kernel is span(1, v), where the det form is positive definite.
    return _kernel_units([[0, -g, b, 0], [-b, 2 * a, 0, b], [g, 0, -2 * a, -g]], 1, v)


def anticommuting_flips(v: Vec) -> list[Mat2]:
    """Elements of GL2(Z) with g v g^{-1} = -v, i.e. anticommuting, det -1."""
    a, b, g = v
    # Entries of XY + YX: (0,0): 2 a p + g q + b r, (0,1): b (p + s),
    # (1,0): g (p + s), (1,1): g q + b r - 2 a s. The det form on the
    # kernel is negative definite for Q(v) > 0.
    rows = [[2 * a, g, b, 0], [b, 0, 0, b], [g, 0, 0, g], [0, g, b, -2 * a]]
    return _kernel_units(rows, -1, v)


def _stabilizer_actions(group: list[Mat2]) -> list[tuple[tuple, ...]]:
    """conj_action of the g in a group closed under g -> -g whose first
    nonzero entry is positive (g > (0, 0, 0, 0) as tuples): one of each +-g,
    and so each action once, since g and h act alike only when h = +-g."""
    return [conj_action(g) for g in group if g > (0, 0, 0, 0)]


def _orbit_canonical(actions, pair):
    best = None
    for act in actions:
        img = (apply3(act, pair[0]), apply3(act, pair[1]))
        if best is None or img < best:
            best = img
    return best


def _fiber(x1: Vec, two_m: int, t2: int) -> list[Vec]:
    """All y with (x1, y) = two_m and Q(y) = t2, sorted; finite since Q(x1) > 0."""
    row = _pairing_row(x1)
    y0 = solve_integer_linear(row, two_m)
    if y0 is None:
        return []
    k1, k2 = (tuple(k) for k in integer_kernel([row]))
    return sorted(_norm_points(t2, k1, k2, tuple(y0)))


def _transform_for_positive(t1: int, m: int, t2: int) -> tuple[Mat2, tuple[int, int, int]]:
    """S = [[a, x], [b, y]] in SL2(Z), as (a, x, b, y), and the gram of S^T T S, with t1 > 0.

    T = [[t1, m], [m, t2]] has det T < 0. Euclid steps move the columns
    e1 = (a, b), e2 = (x, y) of S, from the standard basis, and the gram together:
    - t1 > 0: stop.
    - t2 > 0: swap, (e1, e2) -> (e2, -e1), so that t1 = t2 > 0.
    - t2 = 0: m != 0 since det T = -m^2 < 0, and the shear e1 += k e2 with
      k = sign(m) (floor(-t1 / 2|m|) + 1) makes t1 + 2mk > 0.
    - t2 < 0: shear e1 += k e2, k the nearest integer to -m/t2. Then
      t1' = t2 d^2 + det T / t2 with d = k + m/t2, |d| <= 1/2 and det T / t2 > 0,
      so t1' <= 0 forces |t1'| < |t2| d^2 <= |t2| / 4. Swap and repeat.
    Each repeat shrinks the integer |t2| at least fourfold, so the loop ends.
    """
    a, x, b, y = 1, 0, 0, 1
    while t1 <= 0:
        if t2 <= 0:
            if t2 == 0:
                k = (-t1 // (2 * abs(m)) + 1) * (1 if m > 0 else -1)
            else:
                k = (2 * m - t2) // (-2 * t2)  # floor(-m/t2 + 1/2)
            a, b = a + k * x, b + k * y
            t1, m = t1 + (2 * m + k * t2) * k, m + k * t2
        if t1 <= 0:
            a, x, b, y = x, -a, y, -b
            t1, m, t2 = t2, -m, t1
    return (a, x, b, y), (t1, m, t2)


def pair_orbit_reps(t1: int, m: int, t2: int) -> list[tuple[Vec, Vec]]:
    """One representative per unit-group orbit of pairs with Q-gram [[t1, m], [m, t2]].

    The gram must be nonsingular of signature (1,1) or (0,2). For (1,1), the
    pairs of gram S^T T S, S from `_transform_for_positive`, are listed over
    the orbits of their first vector, of positive norm, and mapped back by
    x -> x S^{-1}. Any S in SL2(Z) gives the same orbits: x -> x S is a
    bijection of pairs that commutes with the unit group, so only the
    representatives depend on S.

    The stabilizer of a base vector or anchor is read only to label a pair
    that passed the gram filter, so it is found only where such a pair
    lands. Only one of each +-g in it becomes an action (_stabilizer_actions):
    -g is in it with g, and acts as g does, since each entry of conj_action
    is a product of two entries of g times det g = det(-g). Neither changes
    a representative or their order.
    """
    t1, m, t2 = require_integer(t1, "t1"), require_integer(m, "m"), require_integer(t2, "t2")
    det_t = t1 * t2 - m * m
    if det_t == 0:
        raise PreconditionViolation("singular gram")
    if det_t > 0 and (t1 > 0 or t2 > 0):
        raise PreconditionViolation("positive definite gram has no archimedean pairs")
    reps = _pair_reps_sig11(t1, m, t2) if det_t < 0 else _pair_reps_sig02(t1, m, t2)
    for p1, p2 in reps:
        assert q_value(p1) == t1 and q_value(p2) == t2 and inner(p1, p2) == 2 * m
    return reps


def _pair_reps_sig11(t1: int, m: int, t2: int) -> list[tuple[Vec, Vec]]:
    # S = [[sa, sx], [sb, sy]], det 1, and (tp1, tpm, tp2) is the gram of S^T T S.
    (sa, sx, sb, sy), (tp1, tpm, tp2) = _transform_for_positive(t1, m, t2)
    # S^{-1} = [[sy, -sx], [-sb, sa]]
    inv = (sy, -sx, -sb, sa)
    reps = []
    for x1 in orbit_reps(tp1):
        fiber = _fiber(x1, 2 * tpm, tp2)
        if not fiber:
            continue
        actions = _stabilizer_actions(commuting_units(x1))
        seen = set()
        for y in fiber:
            key = _orbit_canonical(actions, (x1, y))
            if key in seen:
                continue
            seen.add(key)
            reps.append(pair_action((x1, y), inv))  # back to the gram T
    return reps


def _pair_reps_sig02(t1: int, m: int, t2: int) -> list[tuple[Vec, Vec]]:
    det_t = t1 * t2 - m * m
    s = squarefree_part(det_t)
    reps: list[tuple[Vec, Vec]] = []
    # 4 det T t0 is a square exactly when t0 = s j^2, for t0 in 1 .. 4 det T.
    for j in range(1, math.isqrt(4 * det_t // s) + 1):
        t0 = s * j * j
        for form in binforms.reduced_classes(-4 * t0):
            v0 = vector_of_form(form)
            if math.gcd(math.gcd(v0[0], v0[1]), v0[2]) != 1:
                continue
            neg_label = canonical_orbit_form((-v0[0], -v0[1], -v0[2]))
            if neg_label < form:
                continue  # the opposite orbit carries this anchor
            row = _pairing_row(v0)
            k1, k2 = (tuple(k) for k in integer_kernel([row]))
            x1_list = _norm_points(t1, k1, k2)
            if not x1_list:
                continue
            x2_list = x1_list if t2 == t1 else _norm_points(t2, k1, k2)
            pairs = [(x1, x2) for x1 in x1_list for x2 in x2_list if inner(x1, x2) == 2 * m]
            if not pairs:
                continue
            actions = _stabilizer_actions(commuting_units(v0) + anticommuting_flips(v0))
            seen = set()
            for pair in pairs:
                key = _orbit_canonical(actions, pair)
                if key in seen:
                    continue
                seen.add(key)
                reps.append(pair)
    return reps
