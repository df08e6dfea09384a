"""Exact arithmetic in rational quaternion algebras.

An algebra is presented by nonzero rational structure constants (a, b) with

    i^2 = a,  j^2 = b,  ij = -ji.

Elements are stored with exact rational coefficients against the basis
1, i, j, ij.  The reduced trace of x0 + x1 i + x2 j + x3 ij is 2*x0 and the
reduced norm is x0^2 - a x1^2 - b x2^2 + ab x3^2.  Floating point never
enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count

from .errors import AlgebraMismatch, PreconditionViolation, ZeroStructureConstant, require_integer, require_rational
from .numtheory import factorint, is_prime, squarefree_primes, valuation

Rational = Fraction | int

INFINITE_PLACE = "oo"


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at INFINITE_PLACE.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion.  The symbol depends on square classes only, and a = n/d lies
    in the class of the integer n d (d^2 is a square); write that integer as
    p^alpha u, and b's as p^beta v, with p-units u, v.  At odd p it is the
    tame symbol (a, b)_p = ((-1)^(alpha beta) u^beta v^alpha | p), by Euler's
    criterion; at 2 it is (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u))
    with eps(u) = [u = 3 mod 4] and omega(u) = [u = 3, 5 mod 8] (Serre, A
    Course in Arithmetic, III.1.2).  a and b are rationals (require_rational).
    """
    a = require_rational(a, "a")
    b = require_rational(b, "b")
    if a == 0 or b == 0:
        raise ZeroStructureConstant("hilbert symbol needs nonzero entries")
    if place == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = require_integer(place, "a finite place")
    if not is_prime(p):
        raise PreconditionViolation(f"not a prime: {p}")
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    alpha = valuation(a, p)
    beta = valuation(b, p)
    u = a // p**alpha
    v = b // p**beta
    if p != 2:
        r = (-1) ** (alpha * beta) * u ** (beta % 2) * v ** (alpha % 2)
        return 1 if pow(r, (p - 1) // 2, p) == 1 else -1
    e = (u % 4 == 3) * (v % 4 == 3) + alpha * (v % 8 in (3, 5)) + beta * (u % 8 in (3, 5))
    return -1 if e % 2 else 1


@dataclass(frozen=True)
class QuaternionAlgebra:
    """The quaternion algebra (a, b) over Q."""

    a: Fraction
    b: Fraction

    @cached_property
    def ramified_primes(self) -> frozenset[int]:
        """Finite primes where the algebra is a division algebra."""
        candidates = {2}
        for q in (self.a, self.b):
            candidates.update(factorint(q.numerator))
            candidates.update(factorint(q.denominator))
        return frozenset(
            p for p in candidates if hilbert_symbol(self.a, self.b, p) == -1
        )

    @cached_property
    def discriminant(self) -> int:
        """Product of the finite ramified primes (squarefree)."""
        out = 1
        for p in sorted(self.ramified_primes):
            out *= p
        return out

    @property
    def is_definite(self) -> bool:
        """Ramified at the infinite place, i.e. a < 0 and b < 0."""
        return hilbert_symbol(self.a, self.b, INFINITE_PLACE) == -1

    @property
    def is_indefinite(self) -> bool:
        return not self.is_definite

    def element(self, x0: Rational, x1: Rational = 0, x2: Rational = 0, x3: Rational = 0) -> "QuaternionElement":
        """x0 + x1 i + x2 j + x3 ij; the coefficients are rationals (require_rational), never floats."""
        return QuaternionElement(
            self, tuple(require_rational(x, "a quaternion coefficient") for x in (x0, x1, x2, x3))
        )

    @property
    def one(self) -> "QuaternionElement":
        return self.element(1)

    @property
    def i(self) -> "QuaternionElement":
        return self.element(0, 1)

    @property
    def j(self) -> "QuaternionElement":
        return self.element(0, 0, 1)

    @property
    def ij(self) -> "QuaternionElement":
        return self.element(0, 0, 0, 1)

    def __repr__(self) -> str:
        return f"QuaternionAlgebra({self.a}, {self.b})"


def make_algebra(a: Rational, b: Rational) -> QuaternionAlgebra:
    """Construct (a, b) with its ramification data; a and b are nonzero rationals (require_rational)."""
    a = require_rational(a, "a")
    b = require_rational(b, "b")
    if a == 0 or b == 0:
        raise ZeroStructureConstant("structure constants must be nonzero")
    return QuaternionAlgebra(a, b)


@dataclass(frozen=True)
class QuaternionElement:
    """Element x0 + x1 i + x2 j + x3 ij with exact rational coefficients."""

    algebra: QuaternionAlgebra
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    def _check(self, other: "QuaternionElement") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other: "QuaternionElement") -> "QuaternionElement":
        self._check(other)
        return QuaternionElement(
            self.algebra,
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),  # type: ignore[arg-type]
        )

    def __sub__(self, other: "QuaternionElement") -> "QuaternionElement":
        self._check(other)
        return QuaternionElement(
            self.algebra,
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)),  # type: ignore[arg-type]
        )

    def __neg__(self) -> "QuaternionElement":
        return QuaternionElement(self.algebra, tuple(-x for x in self.coeffs))  # type: ignore[arg-type]

    def __mul__(self, other) -> "QuaternionElement":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return QuaternionElement(self.algebra, tuple(s * x for x in self.coeffs))  # type: ignore[arg-type]
        self._check(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        y0, y1, y2, y3 = other.coeffs
        return QuaternionElement(
            self.algebra,
            (
                x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
                x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ),
        )

    def __rmul__(self, other) -> "QuaternionElement":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "QuaternionElement":
        x0, x1, x2, x3 = self.coeffs
        return QuaternionElement(self.algebra, (x0, -x1, -x2, -x3))

    def trace(self) -> Fraction:
        return 2 * self.coeffs[0]

    def norm(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inner(self, other: "QuaternionElement") -> Fraction:
        """(x, y) = nu(x + y) - nu(x) - nu(y), so (x, x) = 2 Q(x)."""
        return (self + other).norm() - self.norm() - other.norm()

    def __repr__(self) -> str:
        names = ("", "i", "j", "ij")
        parts = [f"{c}{n}" for c, n in zip(self.coeffs, names) if c != 0]
        return "Quat(" + (" + ".join(parts) if parts else "0") + ")"


def _least_prime_partner(a: int, target: frozenset[int]) -> QuaternionAlgebra:
    """(a, q) for a > 0, else (a, -q), with q the least prime whose ramified set is target.

    Here |a| is the product of target, of even size for a > 0 and odd size
    for a < 0, and such a q exists.  For a prime q prime to 2a, the symbol
    (a, +-q) at an odd l | a is the Legendre symbol of +-q mod l, and at 2 it
    depends on q mod 8 only.  So -1 at every l in target and +1 at 2 if 2 is
    not in target fix q in a nonempty set of classes prime to 8a (at 2,
    q = 5 mod 8 for a > 0 and q = 3 mod 8 for a < 0), where Dirichlet's
    theorem supplies a prime.  The symbol is +1 away from 2aq and sign(a) at
    infinity, so the places other than q carry an even number of -1s, and
    Hilbert reciprocity forces +1 at q as well.
    """
    for q in count(2):
        if is_prime(q):
            alg = QuaternionAlgebra(Fraction(a), Fraction(q if a > 0 else -q))
            if alg.ramified_primes == target:
                return alg


def definite_twin(alg: QuaternionAlgebra, p: int) -> QuaternionAlgebra:
    """Definite (-D', -q) ramified at S = ram(alg) xor {p}, D' = prod S; q as in _least_prime_partner."""
    if alg.is_definite:
        raise PreconditionViolation("definite_twin expects an indefinite algebra")
    p = require_integer(p, "p")
    if not is_prime(p):
        raise PreconditionViolation(f"not a prime: {p}")
    target = frozenset(alg.ramified_primes ^ {p})
    return _least_prime_partner(-math.prod(target), target)


def indefinite_algebra_of_discriminant(d: int) -> QuaternionAlgebra:
    """Indefinite (d, q) of squarefree discriminant d (even number of primes); q as in _least_prime_partner."""
    primes = squarefree_primes(d)
    if len(primes) % 2:
        raise PreconditionViolation(f"{d} has an odd number of prime factors")
    return _least_prime_partner(d, frozenset(primes))
