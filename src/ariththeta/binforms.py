"""Binary quadratic forms: reduction, class lists, Hurwitz class numbers.

A form (a, b, c) means a x^2 + b xy + c y^2 of discriminant b^2 - 4ac.
Only positive definite forms (negative discriminant, a > 0) appear here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionViolation, require_integer


def discriminant(form: tuple[int, int, int]) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def is_reduced(form: tuple[int, int, int]) -> bool:
    """Gauss-reduced positive form: |b| <= a <= c, with b >= 0 on the boundary."""
    a, b, c = form
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def reduce_form(form: tuple[int, int, int]) -> tuple[int, int, int]:
    """SL2(Z)-canonical reduced representative of a positive definite form."""
    a, b, c = form
    if a <= 0 or discriminant(form) >= 0:
        raise PreconditionViolation("reduce_form needs a positive definite form")
    while True:
        if not (-a < b <= a):  # normalise to -a < b <= a, which rules out b = -a
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
        if a <= c:
            return (a, abs(b) if a == c else b, c)
        a, b, c = c, -b, a


def reduced_classes(disc: int) -> list[tuple[int, int, int]]:
    """All reduced positive definite forms of the given negative discriminant.

    4ac = b^2 - disc forces b = disc (mod 2) and disc = 0, 1 (mod 4).  Each b
    in [0, sqrt(-disc/3)] (3b^2 <= -disc, as b <= a <= c) pairs with each
    divisor a of ac in [b, sqrt(ac)]: then b <= a <= c, so (a, b, c) is
    reduced, and (a, -b, c) is reduced off the boundaries, when 0 < b < a < c.
    """
    disc = require_integer(disc, "the discriminant")
    if disc >= 0:
        raise PreconditionViolation("need a negative discriminant")
    if disc % 4 > 1:
        return []
    out = []
    for b in range(disc % 2, math.isqrt(-disc // 3) + 1, 2):
        ac = (b * b - disc) // 4
        for a in range(max(b, 1), math.isqrt(ac) + 1):
            if ac % a == 0:
                c = ac // a
                out.append((a, b, c))
                if 0 < b < a < c:
                    out.append((a, -b, c))
    return sorted(out)


def reduced_form_runs(n: int):
    """Every reduced form of discriminant -4t, 1 <= t <= n, once, as runs (a, b, cs); t steps by a along cs.

    b is even in (-a, a], c in cs from a (a + 1 if b < 0) while t = ac - b^2/4 <= n, and 3a^2 <= 4t <= 4n.
    """
    for a in range(1, math.isqrt(4 * n // 3) + 1):
        for b in range(2 - a - a % 2, a + 1, 2):
            yield a, b, range(a + (b < 0), (n + b * b // 4) // a + 1)


def hurwitz_weight(form: tuple[int, int, int]) -> int:
    """Hurwitz weight of a reduced class in sixths, an int.

    Forms proportional to x^2 + y^2 weigh 1/2 (3 sixths), forms proportional
    to x^2 + xy + y^2 weigh 1/3 (2 sixths), everything else 1 (6 sixths).
    """
    a, b, c = form
    if b == 0 and a == c:
        return 3
    if a == b == c:
        return 2
    return 6


def hurwitz_class_number(n: int) -> Fraction:
    """Hurwitz class number H(n), an exact Fraction.

    Weighted count of SL2(Z)-classes of positive forms of discriminant -n;
    H(0) = -1/12 by convention, H(n) = 0 unless n = 0 or -n = 0, 1 mod 4.
    The weights 1, 1/2 and 1/3 are summed as 6, 3 and 2 sixths in an int
    (hurwitz_weight).
    """
    n = require_integer(n, "n")
    if n < 0:
        raise PreconditionViolation("H(n) needs n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 not in (0, 3):
        return Fraction(0)
    return Fraction(sum(map(hurwitz_weight, reduced_classes(-n))), 6)


def hurwitz_class_number_boxdedup(n: int) -> Fraction:
    """Independent H(n): enumerate a redundant covering box, reduce, dedupe.

    Every class of discriminant -n contains a form with a <= sqrt(n/3); the
    box scans all (a, b) there without the reduced-form inequalities and pipes
    each hit through reduce_form.  4ac = b^2 + n forces b = n (mod 2), so b
    steps by 2.  A class with aut automorphisms weighs 12 // aut sixths.
    """
    n = require_integer(n, "n")
    if n < 0:
        raise PreconditionViolation("H(n) needs n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 not in (0, 3):
        return Fraction(0)
    seen: set[tuple[int, int, int]] = set()
    for a in range(1, math.isqrt(n // 3) + 2):
        for b in range(-2 * a + n % 2, 2 * a + 1, 2):
            rest = b * b + n
            if rest % (4 * a) == 0:
                seen.add(reduce_form((a, b, rest // (4 * a))))
    return Fraction(sum(12 // _reduced_automorphism_count(form) for form in seen), 6)


def _reduced_automorphism_count(form: tuple[int, int, int]) -> int:
    """Order of the proper automorphism group of a reduced positive definite form."""
    a, b, c = form
    if b == 0 and a == c:
        return 4
    if a == b == c:
        return 6
    return 2
