"""Orders as data, trace-zero lattices, majorants, and lattice enumeration.

The trace-zero part L of an order carries the integral ternary form
Q(x) = nu(x), of signature (1, 2) for indefinite algebras and (3, 0) for
definite ones.  All lattice data is exact; floating point appears only in
the majorant and its enumeration.  Enumeration lists the vectors of one norm
t inside an ellipsoid: the ellipsoid is sliced into rows of n1 by Cholesky
range bounds (Fincke and Pohst, Math. Comp. 44, 1985), n^T G n = 2t is
solved exactly in integers along each row, and each root is decided by one
float value, the majorant summed from six products.  The rows, O(bound) of
them, are counted before the loop, and that count guards the work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    BoundTooLarge,
    DegenerateOrder,
    OrderDataError,
    PreconditionViolation,
    QuadratureFailure,
    UnsupportedDiscriminant,
    ZeroStructureConstant,
    require_integer,
    require_rational,
)
from . import splitorbits
from .numtheory import concave_window, integer_kernel
from .quatalg import QuaternionAlgebra, QuaternionElement, make_algebra


@dataclass(frozen=True)
class Order:
    """An order in a quaternion algebra, given by a basis in 1, i, j, ij coordinates.

    The basis matrix B, whose rows are the basis elements, carries the exact
    invariants: one Gauss-Jordan pass gives B^-1 and det B, membership is
    integrality of x B^-1, and the reduced discriminant is 4 |a b det B|.
    Maximality is asserted by the data source; the loader verifies only that
    the data is an order (contains 1, multiplicatively closed, integral traces
    and norms) and that the declared discriminant matches the basis.
    """

    algebra: QuaternionAlgebra
    basis: tuple[QuaternionElement, QuaternionElement, QuaternionElement, QuaternionElement]
    label: str = ""

    @cached_property
    def _inverse_and_det(self) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
        """(B^-1, det B) by one exact Gauss-Jordan pass over [B | I].

        Columns without a pivot are skipped, so a dependent basis leaves row 3
        zero on the left; its right half is the relation OrderDataError names.
        """
        m = [list(e.coeffs) + [Fraction(int(r == k)) for k in range(4)] for r, e in enumerate(self.basis)]
        det, rank = Fraction(1), 0
        for col in range(4):
            piv = next((r for r in range(rank, 4) if m[r][col]), None)
            if piv is None:
                continue
            if piv != rank:
                m[rank], m[piv] = m[piv], m[rank]
                det = -det
            det *= m[rank][col]
            m[rank] = [x / m[rank][col] for x in m[rank]]
            for r in range(4):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
            rank += 1
        if rank < 4:
            relation = ", ".join(map(str, m[3][4:]))
            raise OrderDataError(f"order basis is linearly dependent: ({relation}) . basis = 0")
        return tuple(tuple(row[4:]) for row in m), det

    def coordinates_of(self, x: QuaternionElement) -> list[Fraction] | None:
        """Coordinates x B^-1 of x in the order basis, or None unless all are integers."""
        inv = self._inverse_and_det[0]
        coords = [sum(c * row[k] for c, row in zip(x.coeffs, inv)) for k in range(4)]
        return coords if all(c.denominator == 1 for c in coords) else None

    def contains(self, x: QuaternionElement) -> bool:
        return self.coordinates_of(x) is not None

    def reduced_discriminant(self) -> int:
        """Square root of |det| of the reduced-trace pairing on the basis: 4 |a b det B|.

        On 1, i, j, ij the pairing trd(x conj(y)) is diag(2, -2a, -2b, 2ab),
        so on the basis it is B diag(2, -2a, -2b, 2ab) B^T, of determinant
        16 a^2 b^2 det(B)^2.  On an order the pairing is integral, and a
        rational square root of an integer is an integer; a value that is
        not one raises OrderDataError.
        """
        value = abs(4 * self.algebra.a * self.algebra.b * self._inverse_and_det[1])
        if value.denominator != 1:
            raise OrderDataError(f"reduced discriminant {value} is not an integer")
        return value.numerator


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

    Schema: label, a, b (rationals as strings or JSON integers; a JSON float
    is refused), discriminant (cross-checked), basis (4x4 rational matrix,
    rows = basis elements in 1, i, j, ij coords).
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise OrderDataError(f"order file is not JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise OrderDataError(f"order data must be a JSON object, got {type(data).__name__}")
    try:
        alg = make_algebra(_rational(data["a"]), _rational(data["b"]))
        rows = data["basis"]
        if not isinstance(rows, list) or [len(r) if isinstance(r, list) else None for r in rows] != [4] * 4:
            raise OrderDataError("order basis must be a list of 4 rows of 4 entries")
        basis = tuple(alg.element(*[_rational(entry) for entry in row]) for row in rows)
        declared = data["discriminant"]
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise OrderDataError(f"declared discriminant must be an integer, got {declared!r}")
        label = data.get("label", "")
    except (KeyError, TypeError, ValueError, ArithmeticError, PreconditionViolation, ZeroStructureConstant) as exc:
        raise OrderDataError(f"malformed order data: {exc}") from exc
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


def _rational(entry) -> Fraction:
    """An order entry: a string such as "1/2", or a JSON integer (require_rational refuses a JSON float)."""
    return Fraction(entry) if isinstance(entry, str) else require_rational(entry, "an order entry")


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


def _coordinates(coords) -> tuple[int, int, int]:
    try:
        n1, n2, n3 = coords
    except (TypeError, ValueError):
        raise PreconditionViolation(f"lattice coordinates must be three integers, got {coords!r}") from None
    return tuple(require_integer(n, "a lattice coordinate") for n in (n1, n2, n3))


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
        """The quaternion n1 b1 + n2 b2 + n3 b3; the coordinates are integers (require_integer)."""
        n1, n2, n3 = _coordinates(coords)
        return (
            self.basis[0] * Fraction(n1)
            + self.basis[1] * Fraction(n2)
            + self.basis[2] * Fraction(n3)
        )

    def q_value(self, coords) -> Fraction:
        """Q(x) = (x, x)/2 from the gram matrix, exact."""
        return Fraction(self.inner(coords, coords), 2)

    def inner(self, left, right) -> int:
        """(x, y) from the gram matrix; the coordinates are integers (require_integer)."""
        left, right = _coordinates(left), _coordinates(right)
        return sum(
            left[i] * self.gram[i][j] * right[j] for i in range(3) for j in range(3)
        )

    @cached_property
    def model_coordinates_array(self) -> np.ndarray:
        """model_coordinates as a read-only float array (indefinite lattices)."""
        arr = np.array([[float(e) for e in row] for row in model_coordinates(self)])
        arr.flags.writeable = False
        return arr

    @cached_property
    def is_split_model(self) -> bool:
        """True when the lattice maps unimodularly onto trace-zero integer matrices."""
        if self.discriminant != 1:
            return False
        c = model_coordinates(self)
        if not all(isinstance(e, Fraction) and e.denominator == 1 for row in c for e in row):
            return False
        return abs(_det3(c)) == 1


def trace_zero_lattice(order: Order) -> TraceZeroLattice:
    """Intersect the order with the trace-zero hyperplane.

    The kernel of the trace functional on the order basis is computed by
    exact integer linear algebra; it is saturated by construction.  The gram
    needs no signature search: on i, j, ij the pairing (x, y) is
    diag(-2a, -2b, 2ab), so by Sylvester's law of inertia a nondegenerate
    gram on a rank-3 sublattice of V has the signature of <-a, -b, ab>,
    (3, 0) for a definite algebra and (1, 2) otherwise.  A gram of
    determinant 0, which only a dependent basis gives, raises DegenerateOrder.
    """
    traces = [e.trace() for e in order.basis]
    den = math.lcm(*[t.denominator for t in traces])
    kernel = integer_kernel([[int(t * den) for t in traces]])
    if len(kernel) != 3:
        raise DegenerateOrder(f"trace-zero intersection has rank {len(kernel)}")
    basis = tuple(sum((e * c for e, c in zip(order.basis, vec)), order.algebra.element(0)) for vec in kernel)
    gram_f = [[bi.inner(bj) for bj in basis] for bi in basis]
    if any(entry.denominator != 1 for row in gram_f for entry in row):
        raise DegenerateOrder("trace-zero gram is not integral")
    gram = tuple(tuple(int(entry) for entry in row) for row in gram_f)
    if _det3(gram) == 0:
        raise DegenerateOrder("trace-zero gram is degenerate")
    return TraceZeroLattice(order=order, basis=basis, gram=gram)


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
    if alg.is_definite:
        raise PreconditionViolation("definite algebras have no real splitting")
    c = alg.a if alg.a > 0 else alg.b
    s = _fraction_sqrt(c)
    num = float if s is None else Fraction
    s = math.sqrt(float(c)) if s is None else s
    zero, one, a, b = num(0), num(1), num(alg.a), num(alg.b)
    if alg.a > 0:
        # alpha = s x1, beta = b x2 + s b x3, gamma = x2 - s x3, for s^2 = a
        return ((s, zero, zero), (zero, b, b * s), (zero, one, -s))
    # alpha = s x2, beta = a x1 - a s x3, gamma = x1 + s x3, for s^2 = b
    return ((zero, s, zero), (a, zero, -a * s), (one, zero, s))


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


# --- majorant and enumeration ----------------------------------------------


def majorant(lat: TraceZeroLattice, z) -> np.ndarray:
    """Positive definite majorant (x, x)_z = (x, x) + 4 R(x, z) as a matrix on coords.

    R is the Green-function distance of the split matrix model; at a vector x
    with Q(x) = t > 0 and z on its divisor the majorant value is 2t.  The
    matrix is G + (r r^T + i i^T) / v^2 for the rows r, i of Re and Im of
    p(z) below, formed entry by entry in Python floats: the same operations
    as the array expression, so the same bits, and exactly symmetric.  A z
    whose v^2 underflows to 0, or that makes an entry overflow, raises
    QuadratureFailure.
    """
    if lat.is_definite:
        raise PreconditionViolation("majorant is for indefinite lattices")
    u, v = float(z.u), float(z.v)
    alpha, beta, gamma = model_coordinates_float(lat).tolist()
    # p(z) = gamma z^2 - 2 alpha z - beta, linear in the coordinates.
    zr, zi = u * u - v * v, 2 * u * v
    r0, r1, r2 = [g * zr - 2 * a * u - b for a, b, g in zip(alpha, beta, gamma)]
    i0, i1, i2 = [g * zi - 2 * a * v for a, g in zip(alpha, gamma)]
    vv = v * v
    if vv == 0.0:
        raise QuadratureFailure(f"majorant at v = {v!r}: v^2 underflows to 0")
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = lat.gram
    m00 = g00 + (r0 * r0 + i0 * i0) / vv
    m11 = g11 + (r1 * r1 + i1 * i1) / vv
    m22 = g22 + (r2 * r2 + i2 * i2) / vv
    m01 = g01 + (r0 * r1 + i0 * i1) / vv
    m02 = g02 + (r0 * r2 + i0 * i2) / vv
    m12 = g12 + (r1 * r2 + i1 * i2) / vv
    if not all(map(math.isfinite, (m00, m11, m22, m01, m02, m12))):
        raise QuadratureFailure(f"majorant at z = ({u!r}, {v!r}) has an entry that is not finite")
    return np.array([[m00, m01, m02], [m01, m11, m12], [m02, m12, m22]])


def enumerate_by_majorant(
    lat: TraceZeroLattice, z, bound: float, cap: int = 2_000_000, form=None, *, norm: int, factor=None
):
    """All integer coordinate vectors n with Q(n) = norm and majorant value <= bound.

    Complete by construction (see _enumerate_norm): every such n is an
    exact integer root of n^T G n = 2 norm on an (n3, n2) row of the
    ellipsoid's Cholesky slicing, accepted exactly when its majorant value,
    summed from six products in Python floats, is at most `bound`; the list
    is ordered by n3, then n2, then n1.  `form` is majorant(lat, z) and
    `factor` its _cholesky3 factor, if the caller has them.  A norm that is
    not an integer raises PreconditionViolation, and more than `cap` rows to
    visit raise BoundTooLarge.  The benchmark's traced `lattice.candidates`
    counts the vectors returned, found in O(bound) rows.
    """
    norm = require_integer(norm, "the norm")
    m = majorant(lat, z) if form is None else form
    return _enumerate_norm(m, bound, lat.gram, norm, cap, factor)


def _cholesky3(m00, m01, m02, m11, m12, m22):
    """Upper Cholesky factor (u00, u01, u02, u11, u12, u22) of a symmetric 3x3 form.

    Row by row in Python floats; it agrees with LAPACK's factor to rounding.
    Raises PreconditionViolation at a pivot that is not positive, so a form
    that is not positive definite never reaches a square root of a negative
    number.
    """
    u00 = _pivot_root(m00)
    u01, u02 = m01 / u00, m02 / u00
    u11 = _pivot_root(m11 - u01 * u01)
    u12 = (m12 - u01 * u02) / u11
    return u00, u01, u02, u11, u12, _pivot_root(m22 - u02 * u02 - u12 * u12)


def _pivot_shrink(m00: float, m11: float, m22: float, factor) -> float:
    """Relative shrink of the Cholesky pivots that covers the rounding of `factor`.

    The computed factor U of the form M is the exact factor of M + E with
    |E_ij| <= 4.5e-16 sqrt(Mii Mjj) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), so |n^T E n| <= 1.4e-15 s n^T M n for s
    the norm of M^-1 scaled to a unit diagonal.  With D = diag M,
    s = |D^1/2 U^-1|_2^2 <= |D^1/2 U^-1|_F^2 = sF, summed from U^-1
    written out.  A shrink of 1e-9 covers s up to 1.4e6 and the rounding of
    the counts (see greens._tail_bound), and it is kept there, bit for bit;
    above, the shrink is 1.4e-15 sF, twice what s needs, which covers the
    rounding of sF itself.  An sF above 1e14, where E may be a tenth of M,
    raises QuadratureFailure.
    """
    u00, u01, u02, u11, u12, u22 = factor
    w01, w12 = u01 / (u00 * u11), u12 / (u11 * u22)
    w02 = (u01 * u12 - u02 * u11) / (u00 * u11 * u22)
    s_f = m00 * (1.0 / (u00 * u00) + w01 * w01 + w02 * w02)
    s_f += m11 * (1.0 / (u11 * u11) + w12 * w12) + m22 / (u22 * u22)
    if s_f <= 1.4e6:
        return 1e-9
    if not s_f <= 1e14:
        raise QuadratureFailure(f"majorant too ill-conditioned: scaled inverse norm {s_f:.3g} above 1e14")
    return 1.4e-15 * s_f


def _pivot_root(p: float) -> float:
    if not p > 0:
        raise PreconditionViolation("form is not positive definite")
    return math.sqrt(p)


def _nonnegative_rows(a: int, d1: int, d0: int, lo: int, hi: int):
    """The n2 in [lo, hi] where (a n2 + d1) n2 + d0 >= 0, for a <= 0, in integers.

    For a < 0 they are numtheory.concave_window.  A constant value
    (a = d1 = 0) that is not a square keeps none: no row has a root.
    """
    if a:
        window = concave_window(a, d1, d0)
        return range(max(lo, window.start), min(hi + 1, window.stop))
    if d1:
        return range(max(lo, -(d0 // d1)), hi + 1) if d1 > 0 else range(lo, min(hi, d0 // -d1) + 1)
    return range(lo, hi + 1) if d0 >= 0 and math.isqrt(d0) ** 2 == d0 else ()


def _enumerate_norm(m: np.ndarray, bound: float, gram, t: int, cap: int = 2_000_000, factor=None):
    """Nonzero n with n^T G n = 2t and value(n) <= bound, in (n3, n2, n1) order.

    value(n) = m00 n1^2 + m11 n2^2 + m22 n3^2 + 2 (m01 n1 n2 + m02 n1 n3 +
    m12 n2 n3) in Python floats decides every root.  G is the integral gram
    matrix `gram`, and t an int.

    Complete: with value = |U n|^2 for the upper Cholesky factor U of m
    (`factor`, else _cholesky3; a pivot that is not positive raises
    PreconditionViolation), the loop walks the n3 range, then each n3's n2
    range, then each (n3, n2) row's n1 range, all three from U and padded
    against rounding, so they hold every point of the ellipsoid.  Where the
    computed U is far enough from the exact factor of m that _pivot_shrink
    widens the tail's pivots, the slices are those of the widened ellipsoid
    |U n|^2 <= bound / (1 - shrink)^2, which holds every n with
    value(n) <= bound.  On each
    row G00 n1^2 + 2 b n1 + c = 0, where b = G01 n2 + G02 n3 and
    c = G11 n2^2 + 2 G12 n2 n3 + G22 n3^2 - 2t, is solved exactly in Python
    integers (by isqrt of the discriminant, or as a linear equation when
    G00 = 0); only a row with an integer root needs its n1 range.  For
    G00 != 0 that discriminant b^2 - G00 c is (a n2 + d1) n2 + d0 on an n3
    slice; for a <= 0 the n2 range is clipped to where it is not negative
    (_nonnegative_rows), for a > 0 a negative row is skipped in the loop.

    Bounded: each n2 range holds at most 2 sqrt(reach)/U11 + 4 integers, for
    reach the slicing bound, so more than cap rows,
    (2 lim3 + 1)(2 sqrt(reach)/U11 + 4), raise
    BoundTooLarge before any row is visited.  A row yields at most two
    roots unless it is whole: G00 = 0, b = 0 and c = 0, when every n1 of
    its range (at most 2 sqrt(reach)/U00 + 4 of them) is one.  The (n2, n3)
    of whole rows satisfy G01 n2 + G02 n3 = 0, a line k (p, q); Q(0, p, q)
    is nonzero, since it is orthogonal to the isotropic e1 and a
    nondegenerate ternary form has no isotropic plane, so c = 0 holds for
    at most two k.  So the output holds at most twice the rows plus two
    whole rows.
    """
    if bound <= 0:
        return []
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    factor = factor or _cholesky3(m00, m01, m02, m11, m12, m22)
    u00, u01, u02, u11, u12, u22 = factor
    shrink = _pivot_shrink(m00, m11, m22, factor)
    # The slicing bound: `bound` itself, or widened by the tail's shrink.
    reach = bound / (1.0 - shrink) ** 2 if shrink > 1e-9 else bound
    lim3 = math.floor(math.sqrt(reach * (1 + 1e-12)) / u22 + 1e-9) + 1
    rows = (2 * lim3 + 1) * (2 * math.sqrt(reach) / u11 + 4)
    if rows > cap:
        raise BoundTooLarge(f"{rows:.3g} rows to visit exceed cap {cap}")
    pad = 1e-9 * (1.0 + abs(reach))
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    # With g00 != 0, the discriminant b^2 - g00 c is (a n2 + d1) n2 + d0 on a slice.
    a = g01 * g01 - g00 * g11
    clip = g00 and a <= 0
    out = []
    for n3 in range(-lim3, lim3 + 1):
        r3 = u22 * n3
        rem2 = reach - r3 * r3
        if rem2 < -pad:
            continue
        c2 = u12 * n3
        half2 = math.sqrt(max(rem2, 0.0)) / u11
        center2 = -c2 / u11
        b3, c3, c0 = g02 * n3, 2 * g12 * n3, g22 * n3 * n3 - 2 * t
        d1, d0 = 2 * g01 * b3 - g00 * c3, b3 * b3 - g00 * c0
        lo2, hi2 = math.floor(center2 - half2 - 1e-9), math.ceil(center2 + half2 + 1e-9)
        for n2 in _nonnegative_rows(a, d1, d0, lo2, hi2) if clip else range(lo2, hi2 + 1):
            # The integer roots n1 of g00 n1^2 + 2 b n1 + c = 0, increasing;
            # None when every n1 is one.
            if g00:
                disc = (a * n2 + d1) * n2 + d0
                if disc < 0:
                    continue
                s = math.isqrt(disc)
                if s * s != disc:
                    continue
                b = g01 * n2 + b3
                nums = (-b - s, -b + s) if g00 > 0 else (-b + s, -b - s)
                roots = [num // g00 for num in nums[: 2 if s else 1] if num % g00 == 0]
            else:
                b = g01 * n2 + b3
                c = (g11 * n2 + c3) * n2 + c0
                if b:
                    q, r = divmod(-c, 2 * b)
                    if r:
                        continue
                    roots = [q]
                elif c:
                    continue
                else:
                    roots = None
            r2 = u11 * n2 + c2
            rem1 = rem2 - r2 * r2
            if rem1 < -pad:
                continue
            half1 = math.sqrt(max(rem1, 0.0)) / u00
            center1 = -(u01 * n2 + u02 * n3) / u00
            lo, hi = math.floor(center1 - half1 - 1e-9), math.ceil(center1 + half1 + 1e-9)
            for n1 in range(lo, hi + 1) if roots is None else roots:
                if not lo <= n1 <= hi or not (n1 or n2 or n3):
                    continue
                val = m00 * (n1 * n1) + m11 * (n2 * n2) + m22 * (n3 * n3)
                val += 2.0 * (m01 * (n1 * n2) + m02 * (n1 * n3) + m12 * (n2 * n3))
                if val <= bound:
                    out.append((n1, n2, n3))
    return out


def representation_count(lat: TraceZeroLattice, t: int) -> int:
    """|{x in L : Q(x) = t}| for a definite lattice, by complete enumeration."""
    return len(vectors_of_norm(lat, t))


def vectors_of_norm(lat: TraceZeroLattice, t: int):
    """All x with Q(x) = t in a definite lattice, solved exactly row by row."""
    t = require_integer(t, "the norm")
    if not lat.is_definite:
        raise PreconditionViolation("needs a definite lattice")
    g = np.array(lat.gram, dtype=float)
    return _enumerate_norm(g, 2 * t * (1 + 1e-12) + 1e-9, lat.gram, t)


def weighted_orbit_degree(lat: TraceZeroLattice, t: int) -> Fraction:
    """Degree of the weight-t special divisor on the split model.

    Sum over unit-group orbits on {Q = t} of reciprocal stabilizer orders,
    computed through the correspondence with binary forms of discriminant -4t.
    """
    if lat.discriminant != 1:
        raise UnsupportedDiscriminant(
            "orbit counting is implemented only for the split model"
        )
    if not lat.is_split_model:
        raise PreconditionViolation("lattice does not match the split matrix model")
    if require_integer(t, "t") < 1:
        raise PreconditionViolation("t must be >= 1")
    total = Fraction(0)
    for rep in splitorbits.orbit_reps(t):
        total += Fraction(2, len(splitorbits.commuting_units(rep)))
    return total


# --- exact helpers ----------------------------------------------------------


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )

