#!/usr/bin/env python3
"""Write the Chebyshev table of the E_1 kernels, src/ariththeta/_e1_table.py.

Usage: python scripts/e1_table.py [--check]

The table holds, for each frexp exponent e = 0..10, the Chebyshev
coefficients of g(r) = r e^r E_1(r) on the octave [2^(e-1), 2^e), in the
variable x = 4 m - 3 of r = m 2^e, m in [1/2, 1).  g is sampled with mpmath
at 40 digits on the 30 Chebyshev nodes of each octave, the discrete cosine
transform gives the coefficients (the first halved, so g = sum c_k T_k(x)),
and the first 21 are kept, each rounded once to a double.  The largest
dropped coefficient is printed to stderr.

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


def coefficients(e: int) -> list:
    """All NODES Chebyshev coefficients of g on the octave of exponent e."""
    half_turns = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    values = []
    for theta in half_turns:
        r = mpmath.ldexp((mpmath.cos(theta) + 3) / 4, e)
        values.append(r * mpmath.exp(r) * mpmath.e1(r))
    coefs = [
        2 * mpmath.fsum(g * mpmath.cos(k * theta) for g, theta in zip(values, half_turns)) / NODES
        for k in range(NODES)
    ]
    coefs[0] /= 2
    return coefs


def render() -> tuple[str, float]:
    """Text of the table module and the largest dropped coefficient."""
    lines = [
        '"""Chebyshev coefficients of g(r) = r e^r E_1(r), one row per octave.',
        "",
        "Generated by scripts/e1_table.py; do not edit.  Row e holds c_0..c_20 on",
        "[2^(e-1), 2^e), in x = 4 m - 3 for r = m 2^e, m in [1/2, 1): g = sum c_k T_k(x).",
        '"""',
        "",
        "E1_CHEBYSHEV = (",
    ]
    dropped = 0.0
    with mpmath.workdps(DPS):
        for e in OCTAVES:
            coefs = coefficients(e)
            dropped = max(dropped, max(abs(float(c)) for c in coefs[KEPT:]))
            lines.append(f"    # e = {e}: [{2.0 ** (e - 1)!r}, {2.0 ** e!r})")
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
