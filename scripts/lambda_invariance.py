#!/usr/bin/env python3
"""Sweep a star-product height over a one-parameter family of rotations.

Each row is lambda_star of the rotated pair, by the 2-D route, beside its
deviation from lambda_of_gram of the pair's gram, the formula in the gram's
eigenvalues, and its error bar; a deviation above the summed error bars
shows at a glance.  Usage: python scripts/lambda_invariance.py [n_steps] [seed]
"""

import math
import random
import sys

import numpy as np

from ariththeta import checks
from ariththeta.greens import QuadratureSpec
from ariththeta.starprod import lambda_of_gram, lambda_star


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1729
    rng = random.Random(seed)
    spec = QuadratureSpec()
    pair = checks.random_pair(rng)
    base = lambda_of_gram(pair.gram, spec)
    print(f"base pair gram = {pair.gram}")
    print(f"lambda_of_gram = {base.value:.8f} (err {base.err:.2e})")
    print(f"{'theta':>8}  {'Lambda':>14}  {'|delta|':>10}  {'err':>10}")
    for k in range(n + 1):
        th = 2 * math.pi * k / (n + 1)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = lambda_star(checks.rotate_pair(pair, rot), spec)
        print(f"{th:8.4f}  {moved.value:14.8f}  {abs(moved.value - base.value):10.2e}  {moved.err:10.2e}")


if __name__ == "__main__":
    main()
