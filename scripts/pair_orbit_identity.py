"""Check that two source trees give the same pair-orbit representatives.

    python scripts/pair_orbit_identity.py --against ../other-checkout [--seeds 1-3]

Runs splitorbits.pair_orbit_reps on the same grams in a fresh interpreter on
this tree's `src/` and on the other tree's `src/`:

- every nonsingular gram (t1, m, t2) with |t1|, |t2| <= 8 and |m| <= 6 that
  is not positive definite (3,178 grams);
- every pair-orbit gram of rounds 0 to 9 of the benchmark's `exact-arith`
  workload at the given seeds, each item's T and its moved g^T T g;
- the T of the benchmark's ZHAT_SET.

The lists of representatives must be equal, order included.  A call that
raises must raise the same error type with the same message.  Inputs come
from this tree's `perfbench/`.  Exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from big_xi_identity import HERE, _outcome, _run_tree, _seed_range

ROUNDS = 10


def _grid() -> list[tuple[int, int, int]]:
    return [
        (t1, m, t2)
        for t1 in range(-8, 9)
        for m in range(-6, 7)
        for t2 in range(-8, 9)
        if t1 * t2 != m * m and not (t1 * t2 > m * m and t1 > 0)
    ]


def _collect(seeds: list[int]) -> dict:
    sys.path[:0] = [str(HERE / "perfbench")]
    import workloads
    from ariththeta.splitorbits import pair_orbit_reps

    groups = {"grid": _grid()}
    for seed in seeds:
        items = [
            item
            for k in range(ROUNDS)
            for item in workloads.make_round("exact-arith", seed, k)
            if isinstance(item, workloads.PairOrbitItem)
        ]
        groups[f"exact-arith seed {seed}"] = [t for item in items for t in (item.t, item.moved())]
    groups["ZHAT_SET"] = [t for t, _ in workloads.ZHAT_SET]
    return {key: [(t, _outcome(pair_orbit_reps, *t)) for t in grams] for key, grams in groups.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other source tree")
    ap.add_argument("--seeds", default="1-3", type=_seed_range, help="exact-arith seeds, as 1-3")
    args = ap.parse_args()
    mine = _run_tree("pair_orbit_identity", HERE, args.seeds)
    theirs = _run_tree("pair_orbit_identity", args.against.resolve(), args.seeds)
    differ = 0
    for key, results in mine.items():
        other = theirs.get(key, [])
        differing = [t for (t, out), (t_o, out_o) in zip(results, other) if (t, out) != (t_o, out_o)]
        ok = len(results) == len(other) and not differing
        differ += not ok
        raised = sum(out[0] == "raised" for _, out in results)
        reps = sum(len(out[1]) for _, out in results if out[0] == "value")
        print(
            f"{'equal' if ok else 'DIFFER'}: {key}: {len(results) - len(differing)}/{len(results)} grams agree"
            f" ({raised} raised, {reps} representatives)"
        )
        for t in differing[:10]:
            print(f"  differs at {t}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
