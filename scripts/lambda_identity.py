"""Check that two source trees give the same lambda_star and z_hat results.

    python scripts/lambda_identity.py --against ../other-checkout [--value-rtol 1e-12]

Runs the same inputs in a fresh interpreter on this tree's `src/` and on the
other tree's `src/`, and compares the results:

- lambda_star on the four variants (base, swapped, O(2)-rotated and
  conjugated) of every pair of the benchmark's `heights` PAIR_SET, each
  moved by its isometry of round 0 at seeds 1, 2 and 3;
- z_hat_indefinite(d1, T, v) at every (T, v) of ZHAT_SET and at the known
  failing input, by the symmetric and by the triangular root of v;
- lambda_star on 100 draws of checks.random_pair from a fixed seed.

Each call is kept with its work: the integrand points of every
adaptive_integrate call it made, and the points at which the disc integral
evaluated omega (the `ddc_xi_vec` points outside the integrand; 36 per disc
angle).  The work must be equal, a call that raises must raise the same
error with the same message, and `value` and `err` must agree within a
relative --value-rtol (1e-12 by default).  Inputs come from this tree's
`perfbench/`.  Exits 1 if anything differs beyond that.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path

from big_xi_identity import HERE, _relative_change, _run_tree

SEEDS = (1, 2, 3)
RANDOM_PAIRS = 100


def _collect(seeds: list[int]) -> dict:
    sys.path[:0] = [str(HERE / "perfbench")]
    import workloads
    from ariththeta import checks, starprod

    integrate, ddc = starprod.adaptive_integrate, starprod.ddc_xi_vec
    work = {"integrand": [], "ddc": 0}

    def counting_integrate(f, *args, **kwargs):
        points = [0]

        def g(x, s):
            points[0] += x.size
            return f(x, s)

        try:
            return integrate(g, *args, **kwargs)
        finally:
            work["integrand"].append(points[0])

    def counting_ddc(x, u, v):
        work["ddc"] += u.size
        return ddc(x, u, v)

    starprod.adaptive_integrate, starprod.ddc_xi_vec = counting_integrate, counting_ddc

    def call(label, fn, *args, **kwargs):
        """(label, outcome, integrand points per adaptive call, disc points) of one call."""
        work["integrand"], work["ddc"] = [], 0
        try:
            res = fn(*args, **kwargs)
            outcome = ("value", dataclasses.astuple(res))
        except Exception as exc:  # a typed error is a result too; it must match
            outcome = ("raised", type(exc).__name__, str(exc))
        return (label, outcome, tuple(work["integrand"]), work["ddc"] - sum(work["integrand"]))

    lats = workloads.Lattices()
    out: dict = {}
    for seed in seeds:
        calls = []
        for item in workloads.make_round("heights", seed, 0):
            if isinstance(item, workloads.PairItem):
                for key, (y1, y2) in item.variants().items():
                    pair = starprod.PairConfig.from_vectors(y1, y2)
                    calls.append(call(f"{item.geometry} {key} {pair}", starprod.lambda_star, pair))
        out[f"heights pairs seed {seed}"] = calls
    zhat = []
    for t, v in (*workloads.ZHAT_SET, workloads.ZHAT_KNOWN_FAULT):
        t_mat = ((t[0], t[1]), (t[1], t[2]))
        for root in ("symmetric", "triangular"):
            label = f"T={t} v={v} {root}"
            zhat.append(call(label, starprod.z_hat_indefinite, lats["d1"], t_mat, v, square_root=root))
    out["z_hat"] = zhat
    rng = random.Random(1729)
    drawn = []
    for k in range(RANDOM_PAIRS):
        pair = checks.random_pair(rng)
        drawn.append(call(f"draw {k} {pair}", starprod.lambda_star, pair))
    out["random pairs"] = drawn
    return out


def _compare(mine, theirs, rtol: float) -> tuple[bool, float]:
    """(agrees, largest relative change of value or err) for one call."""
    (label, out, points, disc), (label_o, out_o, points_o, disc_o) = mine, theirs
    if (label, points, disc) != (label_o, points_o, disc_o) or out[0] != out_o[0]:
        return False, 0.0
    if out[0] == "raised":
        return out == out_o, 0.0
    change = max(_relative_change(a, b) for a, b in zip(out[1][:2], out_o[1][:2]))
    return out[1][2:] == out_o[1][2:] and change <= rtol, change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other source tree")
    ap.add_argument("--value-rtol", default=1e-12, type=float, help="allowed relative change of values")
    args = ap.parse_args()
    mine = _run_tree("lambda_identity", HERE, SEEDS)
    theirs = _run_tree("lambda_identity", args.against.resolve(), SEEDS)
    differ = 0
    for key in mine:
        a, b = mine[key], theirs.get(key) or []
        results = [_compare(x, y, args.value_rtol) for x, y in zip(a, b)]
        same = sum(ok for ok, _ in results)
        ok = len(a) == len(b) and same == len(a)
        differ += not ok
        raised = sum(r[1][0] == "raised" for r in a)
        points = sum(sum(r[2]) for r in a)
        change = max((c for _, c in results), default=0.0)
        print(
            f"{'equal' if ok else 'DIFFER'}: {key}: {same}/{len(a)} results agree ({raised} raised),"
            f" {points} integrand points; largest relative change of a value {change:.2e}"
        )
        for x, y, (agrees, _) in zip(a, b, results):
            if not agrees:
                print(f"  {x[0]}: {y[1:]} -> {x[1:]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
