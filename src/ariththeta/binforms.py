"""Binary quadratic forms: reduction, class lists, Hurwitz class numbers.

A form (a, b, c) means a x^2 + b xy + c y^2 of discriminant b^2 - 4ac.
Only positive definite forms (negative discriminant, a > 0) appear here.
"""

from __future__ import annotations

import math

from .errors import PreconditionViolation


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
        # Normalize: -a < b <= a.
        if not (-a < b <= a):
            k = (a - b) // (2 * a)
            b2 = b + 2 * k * a
            c = a * k * k + b * k + c
            b = b2
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if abs(b) == a and b < 0:
            b = -b
        if is_reduced((a, b, c)):
            return (a, b, c)


def reduced_classes(disc: int) -> list[tuple[int, int, int]]:
    """All reduced positive definite forms of the given negative discriminant."""
    if disc >= 0:
        raise PreconditionViolation("need a negative discriminant")
    out = []
    b = disc % 2
    while b * b <= -disc // 3:
        rest = b * b - disc
        if rest % 4 == 0:
            ac = rest // 4
            a = max(b, 1)
            while a * a <= ac:
                if a >= b and ac % a == 0:
                    c = ac // a
                    form = (a, b, c)
                    if is_reduced(form):
                        out.append(form)
                    if b > 0:
                        neg = (a, -b, c)
                        if is_reduced(neg):
                            out.append(neg)
                a += 1
        b += 2
    return sorted(out)


def hurwitz_weight(form: tuple[int, int, int]) -> tuple[int, int]:
    """Hurwitz weight of a class as a (num, den) rational.

    Forms proportional to x^2 + y^2 weigh 1/2, forms proportional to
    x^2 + xy + y^2 weigh 1/3, everything else 1.
    """
    a, b, c = form
    if b == 0 and a == c:
        return (1, 2)
    if a == b == c:
        return (1, 3)
    return (1, 1)


def hurwitz_class_number(n: int):
    """Hurwitz class number H(n), an exact Fraction.

    Weighted count of SL2(Z)-classes of positive forms of discriminant -n;
    H(0) = -1/12 by convention, H(n) = 0 unless n = 0 or -n = 0, 1 mod 4.
    """
    from fractions import Fraction

    if n < 0:
        raise PreconditionViolation("H(n) needs n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 not in (0, 3):
        return Fraction(0)
    total = Fraction(0)
    for form in reduced_classes(-n):
        num, den = hurwitz_weight(form)
        total += Fraction(num, den)
    return total


def hurwitz_class_number_boxdedup(n: int):
    """Independent H(n): enumerate a redundant covering box, reduce, dedupe.

    Every class of discriminant -n contains a form with a <= sqrt(n/3); the
    box scans all (a, b) there without the reduced-form inequalities and pipes
    each hit through reduce_form.  Weights come from automorphism counts.
    """
    from fractions import Fraction

    if n < 0:
        raise PreconditionViolation("H(n) needs n >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 not in (0, 3):
        return Fraction(0)
    seen: set[tuple[int, int, int]] = set()
    a_max = math.isqrt(n // 3) + 1
    for a in range(1, a_max + 1):
        for b in range(-2 * a, 2 * a + 1):
            rest = b * b + n
            if rest % (4 * a):
                continue
            c = rest // (4 * a)
            if c <= 0:
                continue
            seen.add(reduce_form((a, b, c)))
    total = Fraction(0)
    for form in seen:
        total += Fraction(2, automorphism_count(form))
    return total


def automorphism_count(form: tuple[int, int, int]) -> int:
    """Order of the proper automorphism group of a positive definite form."""
    a, b, c = reduce_form(form)
    if b == 0 and a == c:
        return 4
    if a == b == c:
        return 6
    return 2
