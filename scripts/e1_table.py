#!/usr/bin/env python3
"""Write the polynomial table of the E_1 kernels, src/ariththeta/_e1_table.py.

Usage: python scripts/e1_table.py [--check]

The table has one row per piece.  For each frexp exponent e = 0..10 the
octave [2^(e-1), 2^e) of r = m 2^e, m in [1/2, 1), is cut into 8 equal
pieces in m: piece j = floor(16 (m - 1/2)) is m in [1/2 + j/16, 1/2 + (j+1)/16),
its row is 8 e + j, and its variable is x = 2 (16 m - 8 - j) - 1 in [-1, 1),
exact in floats.  Its function is g(r) = r e^r E_1(r).  The rows stop at the
piece that holds 700, row 82 = [640, 704), since both kernels return 0 above
700.  After the 83 octave rows come 4 rows for the entire function
Ein(r) = E_1(r) + gamma + log r (Abramowitz and Stegun 5.1.11) on the pieces
[j/4, (j+1)/4] of [0, 1], in x = 2 (4 r - j) - 1.

Each function is sampled with mpmath at 40 digits on the 30 Chebyshev nodes
of its piece, the discrete cosine transform gives its Chebyshev coefficients
(the first halved, so the function is sum c_k T_k(x)), the first 11 are
kept, and their sum is written out in powers of x, a_0..a_10, each rounded
once to a double.  The kernels sum a row by Horner's rule.  The largest
dropped Chebyshev coefficient, which bounds the truncation, is printed to
stderr.

With --check nothing is written: the table is regenerated and compared with
the committed file, and the exit status is 1 unless they are equal.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath

TARGET = Path(__file__).resolve().parent.parent / "src" / "ariththeta" / "_e1_table.py"
# Both kernels return 0 above LAST, so the octave rows end with LAST's piece.
LAST = 700.0
PIECES = 8
EIN_PIECES = 4
NODES = 30
KEPT = 11
DPS = 40
PER_LINE = 3


def chebyshev(f) -> list:
    """All NODES Chebyshev coefficients of f on x in [-1, 1]."""
    half_turns = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(mpmath.cos(theta)) for theta in half_turns]
    coefs = [
        2 * mpmath.fsum(g * mpmath.cos(k * theta) for g, theta in zip(values, half_turns)) / NODES
        for k in range(NODES)
    ]
    coefs[0] /= 2
    return coefs


def powers(coefs: list) -> list:
    """a_0..a_{n-1} with sum a_k x^k = sum c_k T_k(x), exactly in mpmath."""
    out = [coefs[0]] + [mpmath.mpf(0)] * (len(coefs) - 1)
    prev, cur = [1], [0, 1]  # T_0 and T_1 by powers of x, in integers
    for c in coefs[1:]:
        for i, p in enumerate(cur):
            out[i] += c * p
        # T_{k+1} = 2 x T_k - T_{k-1}
        prev, cur = cur, [2 * p - (prev[i] if i < len(prev) else 0) for i, p in enumerate([0] + cur)]
    return out


def g(r):
    return r * mpmath.exp(r) * mpmath.e1(r)


def ein(r):
    return mpmath.e1(r) + mpmath.euler + mpmath.log(r)


def pieces() -> list:
    """(comment, function of x) per octave, then per Ein piece, in row order."""
    m, e_last = math.frexp(LAST)
    rows = PIECES * e_last + int(2 * PIECES * m - PIECES) + 1
    out = []
    for row in range(rows):
        e, j = divmod(row, PIECES)
        if j == 0:
            count = min(PIECES, rows - row)
            hi = math.ldexp(0.5 + count / (2 * PIECES), e)
            comment = f"e = {e}: g on [{2.0 ** (e - 1)!r}, {hi!r}) in {count} pieces"
        else:
            comment = None
        out.append((comment, lambda x, e=e, j=j: g(mpmath.ldexp((x + 17 + 2 * j) / 32, e))))
    for j in range(EIN_PIECES):
        comment = f"Ein on [0.0, 1.0] in {EIN_PIECES} pieces" if j == 0 else None
        out.append((comment, lambda x, j=j: ein((x + 1 + 2 * j) / 8)))
    return out


def render() -> tuple[str, float]:
    """Text of the table module and the largest dropped Chebyshev coefficient."""
    lines = [
        '"""Polynomials of the E_1 kernels: one row per piece, 8 per octave, then 4 of Ein.',
        "",
        "Generated by scripts/e1_table.py; do not edit.  Row 8 e + j, j = 0..7,",
        "up to row 82 (r < 704), holds a_0..a_10 of g(r) = r e^r E_1(r) on",
        "r = m 2^e, m in [1/2 + j/16, 1/2 + (j+1)/16), in x = 2 (16 m - 8 - j) - 1:",
        "g = sum a_k x^k.  Row 83 + j, j = 0..3, holds a_0..a_10 of",
        "Ein(r) = E_1(r) + gamma + log r on [j/4, (j+1)/4], in x = 2 (4 r - j) - 1.",
        '"""',
        "",
        "E1_PIECES = (",
    ]
    dropped = 0.0
    with mpmath.workdps(DPS):
        for comment, f in pieces():
            coefs = chebyshev(f)
            dropped = max(dropped, max(abs(float(c)) for c in coefs[KEPT:]))
            if comment:
                lines.append(f"    # {comment}")
            text = [f"{float(a)!r}" for a in powers(coefs[:KEPT])]
            groups = [", ".join(text[i : i + PER_LINE]) for i in range(0, KEPT, PER_LINE)]
            lines.append("    (" + ",\n     ".join(groups) + "),")
    lines.append(")")
    return "\n".join(lines) + "\n", dropped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed table")
    args = parser.parse_args()
    text, dropped = render()
    print(f"largest dropped Chebyshev coefficient: {dropped:.2e}", file=sys.stderr)
    if args.check:
        if TARGET.read_text() != text:
            print(f"{TARGET.name} differs from the regenerated table", file=sys.stderr)
            return 1
        print(f"{TARGET.name} equals the regenerated table", file=sys.stderr)
        return 0
    TARGET.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
