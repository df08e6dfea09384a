"""Check that two source trees give the same lambda_star and z_hat results.

    python scripts/lambda_identity.py --against ../other-checkout [--value-rtol 1e-12]
                                      [--within-err]

Runs the same inputs in a fresh interpreter on this tree's `src/` and on the
other tree's `src/`, and compares the results:

- lambda_star on the four variants (base, swapped, O(2)-rotated and
  conjugated) of every pair of the benchmark's `heights` PAIR_SET, each
  moved by its isometry of round 0 at seeds 1, 2 and 3;
- z_hat_indefinite(d1, T, v) at every (T, v) of ZHAT_SET and at the known
  failing input, by the symmetric and by the triangular root of v;
- lambda_star on 100 draws of checks.random_pair from a fixed seed;
- lambda_star on ULTRAPARALLEL, pairs of two negative vectors whose
  geodesics do not cross (a gram of signature (1,1) with both norms
  negative), each in both orders.  random_pair draws no such pair.

The calls are grouped by divisor geometry (cm-cm, cm-geo, geo-geo by the
signs of the pair's norms; z_hat by the signature of T, (1,1) having pairs
with a positive vector and (0,2) pairs of two negative vectors).  Each call
is kept with its work: the integrand points of every adaptive_integrate
call it made (lambda_star evaluates omega at those points alone, z_hat's
formula at none).  The work must be equal, a call that raises must raise
the same error with the same message, and `value` and `err` must agree
within a relative --value-rtol (1e-12 by default).  With --within-err, a
call whose work or value differs passes when both trees return a value and
the two lie within the sum of their err bars; a group whose calls all pass
so, and not all equal, reads `within err`.  That compares a change that moves quadrature
nodes on purpose.  Inputs come from this tree's `perfbench/`.  Exits 1 if
anything differs beyond that.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys
from pathlib import Path

from big_xi_identity import HERE, _relative_change, _run_tree

SEEDS = (1, 2, 3)
RANDOM_PAIRS = 100
# Each pair's two geodesics by endpoints r1 < r2 and norm t < 0: side by
# side, then one inside the other.
ULTRAPARALLEL = (
    ((-1.5, -0.1, -0.3), (0.1, 1.6, -0.35)),
    ((-2.0, -0.4, -0.8), (0.2, 1.0, -0.5)),
    ((-1.0, 0.0, -1.2), (0.3, 2.5, -0.6)),
    ((-3.0, -1.0, -0.4), (-0.8, 0.5, -0.7)),
    ((-2.0, 2.0, -0.3), (-1.2, 1.0, -0.25)),
    ((-1.5, 1.5, -0.9), (-0.5, 0.4, -0.6)),
    ((0.0, 4.0, -0.5), (1.0, 2.0, -1.5)),
    ((-2.5, 0.5, -1.0), (-1.0, -0.2, -0.45)),
)
# A pair's geometry by its number of positive norms.
GEOMETRIES = ("geo-geo", "cm-geo", "cm-cm")


def _collect(seeds: list[int]) -> dict:
    sys.path[:0] = [str(HERE / "perfbench")]
    import workloads
    from ariththeta import checks, starprod

    integrate = starprod.adaptive_integrate
    work = []

    def counting_integrate(f, *args, **kwargs):
        points = [0]

        def g(x, s):
            points[0] += x.size
            return f(x, s)

        try:
            return integrate(g, *args, **kwargs)
        finally:
            work.append(points[0])

    starprod.adaptive_integrate = counting_integrate

    def call(label, fn, *args, **kwargs):
        """(label, outcome, integrand points per adaptive call) of one call."""
        work.clear()
        try:
            res = fn(*args, **kwargs)
            outcome = ("value", dataclasses.astuple(res))
        except Exception as exc:  # a typed error is a result too; it must match
            outcome = ("raised", type(exc).__name__, str(exc))
        return (label, outcome, tuple(work))

    def geometry(pair) -> str:
        (t1, _), (_, t2) = pair.gram
        return GEOMETRIES[(t1 > 0) + (t2 > 0)]

    lats = workloads.Lattices()
    out: dict = {}
    for seed in seeds:
        groups = {f"heights {g} seed {seed}": [] for g in GEOMETRIES[::-1]}
        for item in workloads.make_round("heights", seed, 0):
            if isinstance(item, workloads.PairItem):
                for key, (y1, y2) in item.variants().items():
                    pair = starprod.PairConfig.from_vectors(y1, y2)
                    label = f"{item.geometry} {key} {pair}"
                    groups[f"heights {geometry(pair)} seed {seed}"].append(call(label, starprod.lambda_star, pair))
        out.update(groups)
    for signature in ("(1,1)", "(0,2)"):
        out[f"z_hat signature {signature}"] = []
    for t, v in (*workloads.ZHAT_SET, workloads.ZHAT_KNOWN_FAULT):
        t_mat = ((t[0], t[1]), (t[1], t[2]))
        group = out[f"z_hat signature {'(1,1)' if t[0] * t[2] < t[1] ** 2 else '(0,2)'}"]
        for root in ("symmetric", "triangular"):
            label = f"T={t} v={v} {root}"
            group.append(call(label, starprod.z_hat_indefinite, lats["d1"], t_mat, v, square_root=root))
    rng = random.Random(1729)
    groups = {f"random pairs {g}": [] for g in GEOMETRIES[::-1]}
    for k in range(RANDOM_PAIRS):
        pair = checks.random_pair(rng)
        groups[f"random pairs {geometry(pair)}"].append(call(f"draw {k} {pair}", starprod.lambda_star, pair))
    out.update(groups)
    out["ultraparallel pairs"] = []
    for k, ends in enumerate(ULTRAPARALLEL):
        x1, x2 = (checks.vector_with_geodesic(*e) for e in ends)
        for label, pair in ((f"{k}", (x1, x2)), (f"{k} swapped", (x2, x1))):
            pair = starprod.PairConfig.from_vectors(*pair)
            out["ultraparallel pairs"].append(call(f"ultraparallel {label} {pair}", starprod.lambda_star, pair))
    return out


def _compare(mine, theirs, rtol: float, within_err: bool) -> tuple[str, float, float]:
    """("equal" | "within err" | "differ", largest relative change of value or err,
    the value's change over the sum of the err bars) for one call."""
    (label, out, points), (label_o, out_o, points_o) = mine, theirs
    if label != label_o or out[0] != out_o[0]:
        return "differ", 0.0, 0.0
    if out[0] == "raised":
        return ("equal" if (out, points) == (out_o, points_o) else "differ"), 0.0, 0.0
    change = max(_relative_change(a, b) for a, b in zip(out[1][:2], out_o[1][:2]))
    (value, err), (value_o, err_o) = out[1][:2], out_o[1][:2]
    share = 0.0 if value == value_o else abs(value - value_o) / (err + err_o or math.inf)
    if points == points_o and out[1][2:] == out_o[1][2:] and change <= rtol:
        return "equal", change, share
    return ("within err" if within_err and share <= 1.0 else "differ"), change, share


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other source tree")
    ap.add_argument("--value-rtol", default=1e-12, type=float, help="allowed relative change of values")
    ap.add_argument(
        "--within-err", action="store_true", help="let work and values differ within the sum of the err bars"
    )
    args = ap.parse_args()
    mine = _run_tree("lambda_identity", HERE, SEEDS)
    theirs = _run_tree("lambda_identity", args.against.resolve(), SEEDS)
    differ = 0
    for key in mine:
        a, b = mine[key], theirs.get(key) or []
        results = [_compare(x, y, args.value_rtol, args.within_err) for x, y in zip(a, b)]
        verdicts = [v for v, _, _ in results]
        same, within = verdicts.count("equal"), verdicts.count("within err")
        ok = len(a) == len(b) and same + within == len(a)
        differ += not ok
        raised = sum(r[1][0] == "raised" for r in a)
        points = sum(sum(r[2]) for r in a), sum(sum(r[2]) for r in b)
        change = max((c for _, c, _ in results), default=0.0)
        share = max((r for _, _, r in results), default=0.0)
        print(
            f"{'DIFFER' if not ok else 'within err' if within else 'equal'}: {key}: {same}/{len(a)} results"
            f" equal, {within} within err ({raised} raised), {points[0]} integrand points (other tree"
            f" {points[1]}); largest relative change of a value or err {change:.2e}, of a value over"
            f" the sum of the err bars {share:.3f}"
        )
        for x, y, verdict in zip(a, b, verdicts):
            if verdict == "differ":
                print(f"  {x[0]}: {y[1:]} -> {x[1:]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
