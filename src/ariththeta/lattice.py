"""Orders as data, trace-zero lattices, majorants, and lattice enumeration.

The trace-zero part L of an order carries the integral ternary form
Q(x) = nu(x), of signature (1, 2) for indefinite algebras and (3, 0) for
definite ones.  All lattice data is exact; floating point appears only in
the majorant and its enumeration.  Enumeration evaluates the form on all
candidates at once and re-checks, one by one, every candidate whose value
lies within rounding distance of the bound; norms are filtered exactly, as
n^T G n = 2t in integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from importlib import resources
from itertools import chain, compress
from pathlib import Path

import numpy as np

from . import binforms
from .errors import (
    BoundTooLarge,
    DegenerateOrder,
    OrderDataError,
    PreconditionViolation,
    UnsupportedDiscriminant,
)
from .numtheory import integer_row_kernel, signature
from .quatalg import QuaternionAlgebra, QuaternionElement, make_algebra

hurwitz_class_number = binforms.hurwitz_class_number


@dataclass(frozen=True)
class Order:
    """An order in a quaternion algebra, given by a basis in 1, i, j, ij coordinates.

    Maximality is asserted by the data source; the loader verifies only that
    the data is an order (contains 1, multiplicatively closed, integral traces
    and norms) and that the declared discriminant matches the basis.
    """

    algebra: QuaternionAlgebra
    basis: tuple[QuaternionElement, QuaternionElement, QuaternionElement, QuaternionElement]
    label: str = ""

    def coordinates_of(self, x: QuaternionElement) -> list[Fraction] | None:
        """Coordinates of x in the order basis, or None if x is not in the order."""
        sol = _solve_rational_4x4(
            [[self.basis[k].coeffs[r] for k in range(4)] for r in range(4)],
            list(x.coeffs),
        )
        if sol is None:
            return None
        if all(c.denominator == 1 for c in sol):
            return sol
        return None

    def contains(self, x: QuaternionElement) -> bool:
        return self.coordinates_of(x) is not None

    def reduced_discriminant(self) -> int:
        """Square root of |det| of the reduced-trace pairing on the basis."""
        gram = [
            [(ei * ej.conj()).trace() for ej in self.basis] for ei in self.basis
        ]
        det = _det4(gram)
        root = Fraction(math.isqrt(abs(det.numerator)), math.isqrt(det.denominator))
        if root * root != abs(det):
            raise OrderDataError("trace pairing determinant is not a perfect square")
        return int(root)


def validate_order(order: Order) -> None:
    """Raise OrderDataError unless the basis spans an order."""
    alg = order.algebra
    if order.coordinates_of(alg.one) is None:
        raise OrderDataError("order does not contain 1")
    for e in order.basis:
        if e.trace().denominator != 1 or e.norm().denominator != 1:
            raise OrderDataError(f"basis element {e} has non-integral trace or norm")
    for ei in order.basis:
        for ej in order.basis:
            if not order.contains(ei * ej):
                raise OrderDataError(f"order not closed under multiplication: {ei} * {ej}")


def load_order(source: str | Path | dict) -> Order:
    """Load an order from a JSON file (or parsed dict) and validate it.

    Schema: label, a, b (rationals as strings), discriminant (cross-checked),
    basis (4x4 rational matrix, rows = basis elements in 1, i, j, ij coords).
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    try:
        alg = make_algebra(Fraction(data["a"]), Fraction(data["b"]))
        rows = data["basis"]
        basis = tuple(
            alg.element(*[Fraction(entry) for entry in row]) for row in rows
        )
        declared = int(data["discriminant"])
        label = data.get("label", "")
    except (KeyError, ValueError) as exc:
        raise OrderDataError(f"malformed order data: {exc}") from exc
    if len(basis) != 4:
        raise OrderDataError("order basis must have 4 elements")
    order = Order(algebra=alg, basis=basis, label=label)
    validate_order(order)
    if alg.discriminant != declared:
        raise OrderDataError(
            f"declared discriminant {declared} but algebra has {alg.discriminant}"
        )
    # Maximality is asserted by the data source, not verified; the reduced
    # discriminant of any order is D(B) times its level.
    if order.reduced_discriminant() % declared:
        raise OrderDataError(
            f"reduced discriminant {order.reduced_discriminant()} is not a "
            f"multiple of the declared discriminant {declared}"
        )
    return order


BUNDLED_ORDERS = {
    "d1": "d1_split.json",
    "d6": "d6.json",
    "d10": "d10.json",
}


def bundled_order(name: str) -> Order:
    """One of the shipped orders: 'd1' (split), 'd6', 'd10'."""
    fname = BUNDLED_ORDERS[name]
    text = resources.files("ariththeta.orders").joinpath(fname).read_text()
    return load_order(json.loads(text))


@dataclass(frozen=True)
class TraceZeroLattice:
    """L = O cap V with its integral bilinear gram matrix ((x_i, x_j))."""

    order: Order
    basis: tuple[QuaternionElement, QuaternionElement, QuaternionElement]
    gram: tuple[tuple[int, int, int], ...]

    @property
    def algebra(self) -> QuaternionAlgebra:
        return self.order.algebra

    @property
    def discriminant(self) -> int:
        return self.algebra.discriminant

    @cached_property
    def is_definite(self) -> bool:
        return self.algebra.is_definite

    def element(self, coords) -> QuaternionElement:
        n1, n2, n3 = coords
        return (
            self.basis[0] * Fraction(n1)
            + self.basis[1] * Fraction(n2)
            + self.basis[2] * Fraction(n3)
        )

    def q_value(self, coords) -> Fraction:
        """Q(x) = (x, x)/2 from the gram matrix, exact."""
        return Fraction(self.inner(coords, coords), 2)

    def inner(self, left, right) -> int:
        return sum(
            left[i] * self.gram[i][j] * right[j] for i in range(3) for j in range(3)
        )

    @cached_property
    def gram_array(self) -> np.ndarray:
        """The gram matrix as a read-only int64 array."""
        return _read_only(np.array(self.gram, dtype=np.int64))

    @cached_property
    def model_coordinates_array(self) -> np.ndarray:
        """model_coordinates as a read-only float array (indefinite lattices)."""
        return _read_only(np.array([[float(e) for e in row] for row in model_coordinates(self)]))

    def gram_fractions(self) -> list[list[Fraction]]:
        return [[Fraction(self.gram[i][j]) for j in range(3)] for i in range(3)]

    def sig(self) -> tuple[int, int]:
        return signature(self.gram_fractions())


def trace_zero_lattice(order: Order) -> TraceZeroLattice:
    """Intersect the order with the trace-zero hyperplane.

    The kernel of the trace functional on the order basis is computed by
    exact integer linear algebra; it is saturated by construction.
    """
    traces = [e.trace() for e in order.basis]
    den = math.lcm(*[t.denominator for t in traces])
    int_row = [int(t * den) for t in traces]
    kernel = integer_row_kernel(int_row)
    kernel = [v for v in kernel if any(c != 0 for c in v)]
    if len(kernel) != 3:
        raise DegenerateOrder(f"trace-zero intersection has rank {len(kernel)}")
    basis = []
    for vec in kernel:
        el = order.basis[0] * vec[0]
        for k in range(1, 4):
            el = el + order.basis[k] * vec[k]
        basis.append(el)
    gram_f = [[bi.inner(bj) for bj in basis] for bi in basis]
    if any(entry.denominator != 1 for row in gram_f for entry in row):
        raise DegenerateOrder("trace-zero gram is not integral")
    gram = tuple(tuple(int(entry) for entry in row) for row in gram_f)
    lat = TraceZeroLattice(order=order, basis=tuple(basis), gram=gram)
    expect = (3, 0) if order.algebra.is_definite else (1, 2)
    if lat.sig() != expect:
        raise DegenerateOrder(f"unexpected signature {lat.sig()}")
    return lat


# --- real coordinates (the split 2x2 matrix model) -------------------------


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def matrix_model_rows(alg: QuaternionAlgebra):
    """Rows expressing (alpha, beta, gamma) of the matrix [[alpha, beta], [gamma, -alpha]]
    attached to a trace-zero element x1 i + x2 j + x3 ij under a fixed real splitting.

    Entries are exact Fractions when the relevant structure constant is a
    rational square, floats otherwise.  Requires an indefinite algebra.
    """
    a, b = alg.a, alg.b
    if alg.is_definite:
        raise PreconditionViolation("definite algebras have no real splitting")
    if a > 0:
        s = _fraction_sqrt(a)
        sv = s if s is not None else math.sqrt(float(a))
        # alpha = s x1, beta = b x2 + s b x3, gamma = x2 - s x3
        return (
            (sv, 0 * sv, 0 * sv),
            (0 * sv, b if s is not None else float(b), (b * sv) if s is not None else float(b) * sv),
            (0 * sv, 1 if s is not None else 1.0, -sv),
        )
    t = _fraction_sqrt(b)
    tv = t if t is not None else math.sqrt(float(b))
    # alpha = t x2, beta = a x1 - a t x3, gamma = x1 + t x3
    return (
        (0 * tv, tv, 0 * tv),
        (a if t is not None else float(a), 0 * tv, (-a * tv) if t is not None else -float(a) * tv),
        (1 if t is not None else 1.0, 0 * tv, tv),
    )


def model_coordinates(lat: TraceZeroLattice):
    """3x3 matrix C with C @ n = (alpha, beta, gamma) of the lattice vector n."""
    rows = matrix_model_rows(lat.algebra)
    cols = []
    for bv in lat.basis:
        x1, x2, x3 = bv.coeffs[1], bv.coeffs[2], bv.coeffs[3]
        cols.append(tuple(r[0] * x1 + r[1] * x2 + r[2] * x3 for r in rows))
    # cols[k] is (alpha, beta, gamma) of basis vector k
    return tuple(tuple(cols[k][r] for k in range(3)) for r in range(3))


def model_coordinates_float(lat: TraceZeroLattice) -> np.ndarray:
    """model_coordinates in floats; the lattice's cached, read-only array."""
    return lat.model_coordinates_array


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def is_split_model(lat: TraceZeroLattice) -> bool:
    """True when the lattice maps unimodularly onto trace-zero integer matrices."""
    if lat.discriminant != 1:
        return False
    c = model_coordinates(lat)
    entries = [e for row in c for e in row]
    if not all(isinstance(e, Fraction) and e.denominator == 1 for e in entries):
        return False
    det = _det3([[Fraction(e) for e in row] for row in c])
    return abs(det) == 1


# --- majorant and enumeration ----------------------------------------------


def majorant(lat: TraceZeroLattice, z) -> np.ndarray:
    """Positive definite majorant (x, x)_z = (x, x) + 4 R(x, z) as a matrix on coords.

    R is the Green-function distance of the split matrix model; at a vector x
    with Q(x) = t > 0 and z on its divisor the majorant value is 2t.
    """
    if lat.is_definite:
        raise PreconditionViolation("majorant is for indefinite lattices")
    u, v = float(z.u), float(z.v)
    c = model_coordinates_float(lat)
    alpha, beta, gamma = c[0], c[1], c[2]
    # p(z) = gamma z^2 - 2 alpha z - beta, linear in the coordinates.
    zr, zi = u * u - v * v, 2 * u * v
    rowr = gamma * zr - 2 * alpha * u - beta
    rowi = gamma * zi - 2 * alpha * v
    m = lat.gram_array + (np.outer(rowr, rowr) + np.outer(rowi, rowi)) / (v * v)
    return 0.5 * (m + m.T)


def enumerate_by_majorant(
    lat: TraceZeroLattice, z, bound: float, cap: int = 2_000_000, form=None, eigs=None
):
    """All nonzero integer coordinate vectors with majorant value <= bound.

    Complete by construction: Cholesky range bounds with slack-padded integer
    ranges give every candidate, and a candidate is accepted exactly when
    float(n @ m @ n) <= bound (see _enumerate_form).  The list is ordered by
    n3, then n2, then n1.  `form` is majorant(lat, z), and `eigs` its
    eigvalsh, if the caller has them.
    """
    m = majorant(lat, z) if form is None else form
    return _enumerate_form(m, bound, cap, eigs)


# Candidates evaluated per array pass; bounds the memory of large enumerations.
_CHUNK = 1 << 17


def _enumerate_form(m: np.ndarray, bound: float, cap: int = 2_000_000, eigs=None):
    """Nonzero n with float(n @ m @ n) <= bound, as int tuples in (n3, n2, n1) order.

    The n3 range and, per n3, the n2 range come from the Cholesky factor,
    padded against rounding; every (n3, n2) row then spans an n1 range, and
    the form is evaluated on all candidates in one array pass.  That sum and
    the scalar n @ m @ n each lie within 1.2e-15 |n|^T |m| |n| of the exact
    value, and |n|^T |m| |n| <= ||m||_F |n|^2 <= ||m||_F value / lambda_min.
    So the array value decides a candidate unless it lies within `band` of
    the bound, which covers twice that gap with room to spare, and the
    scalar expression decides the rest: the accepted set is exactly that of
    a scalar check of every candidate.  `eigs` is eigvalsh(m), if known.
    """
    if bound <= 0:
        return []
    if eigs is None:
        eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0:
        raise PreconditionViolation("form is not positive definite")
    predicted = 4.19 * bound**1.5 / math.sqrt(float(np.linalg.det(m))) + 8 * bound / eigs[0] + 27
    if predicted > cap:
        raise BoundTooLarge(f"predicted {predicted:.3g} points exceeds cap {cap}")
    # value = || U n ||^2 for the upper triangular U = L^T; its entries as floats.
    (u00, u01, u02), (_, u11, u12), (_, _, u22) = np.linalg.cholesky(m).T.tolist()
    pad = 1e-9 * (1.0 + abs(bound))
    lim3 = math.floor(math.sqrt(bound * (1 + 1e-12)) / u22 + 1e-9) + 1
    n3 = np.arange(-lim3, lim3 + 1, dtype=float)
    r3 = u22 * n3
    rem2 = bound - r3 * r3
    keep = rem2 >= -pad
    n3, rem2 = n3[keep], rem2[keep]
    c2 = u12 * n3
    half2 = np.sqrt(np.maximum(rem2, 0.0)) / u11
    center2 = -c2 / u11
    row, n2 = _spread(center2 - half2 - 1e-9, center2 + half2 + 1e-9)
    n3, rem2, c2 = n3[row], rem2[row], c2[row]
    r2 = u11 * n2 + c2
    rem1 = rem2 - r2 * r2
    keep = rem1 >= -pad
    n3, n2, rem1 = n3[keep], n2[keep], rem1[keep]
    c1 = u01 * n2 + u02 * n3
    half1 = np.sqrt(np.maximum(rem1, 0.0)) / u00
    center1 = -c1 / u00
    lo1 = center1 - half1 - 1e-9
    hi1 = center1 + half1 + 1e-9
    # Rows per pass: a row holds at most (hi - lo) + 3 integers.
    step = max(1, _CHUNK // (int((hi1 - lo1).max(initial=0.0)) + 3))
    band = 1e-12 * (1.0 + abs(bound)) + 8e-15 * bound * math.sqrt(float((m * m).sum())) / eigs[0]
    out = []
    for s in range(0, lo1.size, step):
        row, n1 = _spread(lo1[s : s + step], hi1[s : s + step])
        cols = (n1, n2[s : s + step][row], n3[s : s + step][row])
        cand = np.stack(cols, axis=1)[(cols[0] != 0.0) | (cols[1] != 0.0) | (cols[2] != 0.0)]
        val = ((cand @ m) * cand).sum(axis=1)
        accept = val <= bound - band
        for k in np.flatnonzero(np.abs(val - bound) <= band):
            n = cand[k].astype(np.int64)
            accept[k] = float(n @ m @ n) <= bound
        out.extend(zip(*cand[accept].astype(np.int64).T.tolist()))
        if len(out) > 2 * cap:
            raise BoundTooLarge("enumeration exceeded twice the safety cap")
    return out


def _spread(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer floor(lo[r]) .. ceil(hi[r]) of every row r, in row order.

    Returns the row index of each integer and the integer, as a float.
    """
    start = np.floor(lo)
    counts = np.maximum(np.ceil(hi) - start + 1.0, 0.0).astype(np.int64)
    row = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return row, start[row] + (np.arange(row.size) - first[row])


def with_norm(lat: TraceZeroLattice, pts, t: int) -> list:
    """The vectors n of pts with Q(n) = t, in order, decided exactly as n^T G n == 2t.

    int64 arithmetic is exact while max|n_i|^2 * sum|G_ij| and |2t| stay below
    2^62; beyond that the Python-int inner product decides.
    """
    if not pts:
        return []
    arr = np.fromiter(chain.from_iterable(pts), dtype=np.int64, count=3 * len(pts)).reshape(-1, 3)
    g = lat.gram_array
    if int(np.abs(arr).max()) ** 2 * int(np.abs(g).sum()) < 2**62 and abs(2 * t) < 2**62:
        keep = ((arr @ g) * arr).sum(axis=1) == 2 * t
        return list(compress(pts, keep.tolist()))
    return [n for n in pts if lat.inner(n, n) == 2 * t]


def representation_count(lat: TraceZeroLattice, t: int) -> int:
    """|{x in L : Q(x) = t}| for a definite lattice, by complete enumeration."""
    return len(vectors_of_norm(lat, t))


def vectors_of_norm(lat: TraceZeroLattice, t: int):
    """All x with Q(x) = t in a definite lattice (exact filter)."""
    if not lat.is_definite:
        raise PreconditionViolation("needs a definite lattice")
    if t <= 0:
        return []
    g = np.array(lat.gram, dtype=float)
    pts = _enumerate_form(g, 2 * t * (1 + 1e-12) + 1e-9)
    return with_norm(lat, pts, t)


def weighted_orbit_degree(lat: TraceZeroLattice, t: int) -> Fraction:
    """Degree of the weight-t special divisor on the split model.

    Sum over unit-group orbits on {Q = t} of reciprocal stabilizer orders,
    computed through the correspondence with binary forms of discriminant -4t.
    """
    if lat.discriminant != 1:
        raise UnsupportedDiscriminant(
            "orbit counting is implemented only for the split model"
        )
    if not is_split_model(lat):
        raise PreconditionViolation("lattice does not match the split matrix model")
    if t < 1:
        raise PreconditionViolation("t must be >= 1")
    from . import splitorbits

    total = Fraction(0)
    for rep in splitorbits.orbit_reps(t):
        total += Fraction(2, len(splitorbits.commuting_units(rep)))
    return total


# --- exact helpers ----------------------------------------------------------


def _solve_rational_4x4(mat, rhs):
    m = [[Fraction(mat[i][j]) for j in range(4)] + [Fraction(rhs[i])] for i in range(4)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(4):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][4] for r in range(4)]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _det4(m):
    total = Fraction(0)
    for j in range(4):
        minor = [[m[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        term = Fraction(m[0][j]) * _det3(minor)
        total += term if j % 2 == 0 else -term
    return total
