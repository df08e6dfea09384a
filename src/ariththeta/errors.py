"""Exception types shared across the package, and the gates on argument kinds.

Every operation that can fail raises one of these, so callers (in particular
the CLI) can distinguish usage errors from numeric failures.  Each kind of
argument has one gate, which raises a PreconditionViolation naming it:
require_integer, require_index (a symmetric integer T), require_rational
(never a float), require_real, and numtheory.squarefree_primes for a
discriminant D (a squarefree integer >= 1, else NotSquarefree).
"""

import numbers
import operator
from fractions import Fraction


class ArithThetaError(Exception):
    """Base class for all package errors."""


class ZeroStructureConstant(ArithThetaError):
    """Quaternion algebra constructor received a = 0 or b = 0."""


class AlgebraMismatch(ArithThetaError):
    """Arithmetic attempted between elements of different algebras."""


class DegenerateOrder(ArithThetaError):
    """Trace-zero intersection of an order failed to have rank 3."""


class OrderDataError(ArithThetaError):
    """An order data file violates the Order invariants."""


class BoundTooLarge(ArithThetaError):
    """The rows a lattice enumeration would visit exceed the configured safety cap."""


class PreconditionViolation(ArithThetaError):
    """An operation was called outside its documented domain."""


class NonpositiveArgument(ArithThetaError):
    """beta1 requires a strictly positive argument."""


class OnSingularLocus(ArithThetaError):
    """Evaluation point is (numerically) on the singular divisor of a Green function."""


class SingularEvaluation(ArithThetaError):
    """A truncated Green-function sum met a lattice vector whose divisor contains z."""


class SingularConfiguration(ArithThetaError):
    """Star product demanded for two Green functions with a common divisor."""


class QuadratureFailure(ArithThetaError):
    """Adaptive quadrature could not certify the requested tolerance."""


class UnsupportedDiscriminant(ArithThetaError):
    """Orbits and the Zagier check need the split model; degrees need a maximal order."""


class ConfigError(ArithThetaError):
    """A config file has an unknown key or a section of the wrong shape."""


class NotSquarefree(PreconditionViolation):
    """A squarefree integer >= 1 was required."""


def require_integer(value, what: str) -> int:
    """value as an int (operator.index: ints and numpy integers), else PreconditionViolation; bools are refused."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise PreconditionViolation(f"{what} must be an integer, got {value!r}") from None


def require_index(t_mat) -> tuple[int, int, int]:
    """(t1, m, t2) of T = ((t1, m), (m, t2)), its entries through require_integer, else PreconditionViolation."""
    (t1, m), (m_low, t2) = t_mat
    t1, m, m_low, t2 = map(require_integer, (t1, m, m_low, t2), ("an entry of T",) * 4)
    if m_low != m:
        raise PreconditionViolation("T must be symmetric")
    return t1, m, t2


def require_rational(value, what: str) -> Fraction:
    """Fraction(value) for a numbers.Rational that is not a bool, else PreconditionViolation: a float is refused."""
    # An int skips the abstract-class check.
    if type(value) is int or (isinstance(value, numbers.Rational) and not isinstance(value, bool)):
        return Fraction(value)
    raise PreconditionViolation(f"{what} must be a rational number (an integer or a Fraction), got {value!r}")


def require_real(value, what: str):
    """value itself if it is a numbers.Real (Fractions and numpy floats too) and not a bool, else PreconditionViolation."""
    # A float skips the abstract-class check, which costs a microsecond.
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        return value
    raise PreconditionViolation(f"{what} must be a real number, got {value!r}")
