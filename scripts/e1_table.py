#!/usr/bin/env python3
"""Write the Chebyshev table of the E_1 kernels, src/ariththeta/_e1_table.py.

Usage: python scripts/e1_table.py [--check]

The table holds, for each frexp exponent e = 0..10, the Chebyshev
coefficients of g(r) = r e^r E_1(r) on the octave [2^(e-1), 2^e), in the
variable x = 4 m - 3 of r = m 2^e, m in [1/2, 1).  After them comes one more
row, for the entire function Ein(r) = E_1(r) + gamma + log r on [0, 1], in
x = 2 r - 1 (Abramowitz and Stegun 5.1.11).  Each function is sampled with
mpmath at 40 digits on the 30 Chebyshev nodes of its interval, the discrete
cosine transform gives the coefficients (the first halved, so the function
is sum c_k T_k(x)), and the first 21 are kept, each rounded once to a
double.  The largest dropped coefficient is printed to stderr.

With --check nothing is written: the table is regenerated and compared with
the committed file, and the exit status is 1 unless they are equal.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

TARGET = Path(__file__).resolve().parent.parent / "src" / "ariththeta" / "_e1_table.py"
OCTAVES = range(0, 11)
NODES = 30
KEPT = 21
DPS = 40


def coefficients(f) -> list:
    """All NODES Chebyshev coefficients of f on x in [-1, 1]."""
    half_turns = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(mpmath.cos(theta)) for theta in half_turns]
    coefs = [
        2 * mpmath.fsum(g * mpmath.cos(k * theta) for g, theta in zip(values, half_turns)) / NODES
        for k in range(NODES)
    ]
    coefs[0] /= 2
    return coefs


def g(r):
    return r * mpmath.exp(r) * mpmath.e1(r)


def ein(r):
    return mpmath.e1(r) + mpmath.euler + mpmath.log(r)


def rows() -> list:
    """(comment, coefficients) for the octaves e = 0..10, then for Ein."""
    out = [
        (
            f"e = {e}: g on [{2.0 ** (e - 1)!r}, {2.0 ** e!r})",
            coefficients(lambda x, e=e: g(mpmath.ldexp((x + 3) / 4, e))),
        )
        for e in OCTAVES
    ]
    return out + [("Ein on [0.0, 1.0]", coefficients(lambda x: ein((x + 1) / 2)))]


def render() -> tuple[str, float]:
    """Text of the table module and the largest dropped coefficient."""
    lines = [
        '"""Chebyshev coefficients of the E_1 kernels: one row per octave, then Ein.',
        "",
        "Generated by scripts/e1_table.py; do not edit.  Row e = 0..10 holds c_0..c_20",
        "of g(r) = r e^r E_1(r) on [2^(e-1), 2^e), in x = 4 m - 3 for r = m 2^e,",
        "m in [1/2, 1): g = sum c_k T_k(x).  Row 11 holds c_0..c_20 of",
        "Ein(r) = E_1(r) + gamma + log r on [0, 1], in x = 2 r - 1.",
        '"""',
        "",
        "E1_CHEBYSHEV = (",
    ]
    dropped = 0.0
    with mpmath.workdps(DPS):
        for comment, coefs in rows():
            dropped = max(dropped, max(abs(float(c)) for c in coefs[KEPT:]))
            lines.append(f"    # {comment}")
            lines.append("    (")
            lines.extend(f"        {float(c)!r}," for c in coefs[:KEPT])
            lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n", dropped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed table")
    args = parser.parse_args()
    text, dropped = render()
    print(f"largest dropped coefficient: {dropped:.2e}", file=sys.stderr)
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
