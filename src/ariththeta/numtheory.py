"""Small exact number-theory helpers (desk scale: trial division, Miller-Rabin in is_prime)."""

from __future__ import annotations

import math

from .errors import NotSquarefree, PreconditionViolation, require_integer


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n), but _strong_probable_prime for 10^4 <= n < 3.3e24."""
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    if 10_000 <= n < 3_317_044_064_679_887_385_961_981:
        return _strong_probable_prime(n)
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on odd n to the 13 prime bases <= 41, exact below 3.3e24 (Sorenson and Webster, 2017)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    return all(
        (x := pow(base, (n - 1) >> s, n)) == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(s))
        for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    )


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division; factorint(0) raises."""
    if n == 0:
        raise PreconditionViolation("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(n: int, p: int) -> int:
    """p-adic valuation of n != 0, for p >= 2."""
    if n == 0 or p < 2:
        raise PreconditionViolation(f"no valuation of {n} at {p}")
    v = 0
    n = abs(n)
    while n % p == 0:
        v += 1
        n //= p
    return v


def squarefree_part(n: int) -> int:
    """Signed squarefree part: n = squarefree_part(n) * square."""
    if n == 0:
        return 0
    s = -1 if n < 0 else 1
    out = 1
    for p, e in factorint(n).items():
        if e % 2:
            out *= p
    return s * out


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorint(n).values())


def squarefree_primes(d: int) -> list[int]:
    """The increasing primes of a discriminant D: an integer >= 1 with no square factor, else NotSquarefree."""
    d = require_integer(d, "D")
    primes = factorint(d) if d >= 1 else {}
    if d < 1 or any(e > 1 for e in primes.values()):
        raise NotSquarefree(f"D must be a squarefree integer >= 1, got {d}")
    return list(primes)  # factorint finds them in increasing order


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise PreconditionViolation("jacobi_symbol needs odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 and a % 8 in (3, 5):
            sign = -sign
    return sign * jacobi_symbol(a, n)


def eichler_symbol(d: int, p: int) -> int:
    """Eichler symbol {d/p}: 1 if p divides the conductor of d (iff d/p^2 is a discriminant), else (d|p)."""
    return 1 if d % (p * p) == 0 and d // (p * p) % 4 < 2 else kronecker_symbol(d, p)


def field_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for m not a square; m is reduced to its squarefree part."""
    m = squarefree_part(m)
    if m in (0, 1):
        raise PreconditionViolation("not a quadratic field")
    return m if m % 4 == 1 else 4 * m


def splits_in_quadratic_field(ell: int, m: int) -> bool:
    """True iff the prime ell splits in Q(sqrt(m))."""
    return kronecker_symbol(field_discriminant(m), ell) == 1


# --- exact linear algebra -------------------------------------------------


def concave_window(p: int, q: int, r: int) -> range:
    """The integers u with p u^2 + q u + r >= 0, for p < 0.

    They are the u with (2 p u + q)^2 <= q^2 - 4 p r, that is
    |2 p u + q| <= isqrt(q^2 - 4 p r), or none when q^2 - 4 p r < 0.
    """
    span = q * q - 4 * p * r
    if span < 0:
        return range(0)
    w = math.isqrt(span)
    # q - w <= -2p u <= q + w, with -2p > 0.
    return range(-((w - q) // (-2 * p)), (q + w) // (-2 * p) + 1)


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {n in Z^k : A n = 0} for an integer matrix A given by rows.

    Unimodular column operations bring A to column echelon form; the columns
    of the transform sitting over zero columns of the echelon form are a basis
    of the kernel, which is automatically saturated.
    """
    if not rows:
        raise PreconditionViolation("need at least one row")
    k = len(rows[0])
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def col_combine(j0: int, j1: int, x: int, y: int, z: int, w: int) -> None:
        # (col_j0, col_j1) <- (x col_j0 + y col_j1, z col_j0 + w col_j1)
        for m in (a, u):
            for i in range(len(m)):
                c0, c1 = m[i][j0], m[i][j1]
                m[i][j0] = x * c0 + y * c1
                m[i][j1] = z * c0 + w * c1

    active = list(range(k))
    for r in range(len(a)):
        nz = [j for j in active if a[r][j] != 0]
        if not nz:
            continue
        piv = nz[0]
        for j in nz[1:]:
            g, x, y = _xgcd(a[r][piv], a[r][j])
            p, q = a[r][piv] // g, a[r][j] // g
            col_combine(piv, j, x, y, -q, p)
        active.remove(piv)
    return [[u[i][j] for i in range(k)] for j in active]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_integer_linear(coeffs: list[int], target: int) -> list[int] | None:
    """One integer solution n of sum coeffs_i n_i = target, or None."""
    k = len(coeffs)
    if all(c == 0 for c in coeffs):
        return [0] * k if target == 0 else None
    # Fold coefficients pairwise with the extended gcd.
    g, sol = coeffs[0], [1] + [0] * (k - 1)
    for j in range(1, k):
        gj, x, y = _xgcd(g, coeffs[j])
        sol = [x * s for s in sol]
        sol[j] = y
        g = gj
    if target % g:
        return None
    m = target // g
    return [m * s for s in sol]

