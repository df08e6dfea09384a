"""Check that two source trees give identical big_xi results.

    python scripts/big_xi_identity.py --against ../other-checkout [--seeds 1-3]
                                      [--value-rtol 0]

Runs the same inputs in a fresh interpreter on this tree's `src/` and on the
other tree's `src/`, and compares the results with `==`:

- every big_xi input of round 0 of the benchmark's `green-sums` workload at
  the given seeds and at the probe seed, each at the default spec;
- 600 further seeded points: d1, d6 and d10, t = +-1..3 where represented,
  weights 0.1 to 2, at the default spec and at the orbifold spec;
- four edge points: on a divisor, next to one, one that doubles its bound
  several times and one whose tail never certifies;
- 200 seeded enumerate_by_majorant lists, bounds up to 200;
- the orbifold integral of z -> big_xi(d1, -2, 1, z) at the orbifold spec,
  and every big_xi value it asked for;
- the accepted vectors of every big_xi call above, in order.

Results are compared as plain tuples (value, tail_bound, terms, excluded) and
(value, err, cusp_height).  Everything but the summed values (`value`, and
the orbifold's `err`) must be equal; those may differ by a relative
--value-rtol, for a change to the beta1 kernel, and the largest relative
change is printed per group.  Inputs come from this tree's `perfbench/`.
Exits 1 if anything differs beyond that.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _outcome(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # a typed error is a result too; it must match
        return ("raised", type(exc).__name__, str(exc))
    return ("value", dataclasses.astuple(res) if dataclasses.is_dataclass(res) else res)


def _collect(seeds: list[int]) -> dict:
    sys.path[:0] = [str(HERE / "perfbench")]
    import workloads
    from ariththeta import greens, identities
    from ariththeta.greens import DEFAULT_SPEC, QuadratureSpec, UHPoint, big_xi
    from ariththeta.lattice import enumerate_by_majorant

    lats = workloads.Lattices()
    out: dict = {}
    accepted = []

    def recording(fn, wanted=lambda kwargs: True):
        def wrapper(*args, **kwargs):
            pts = fn(*args, **kwargs)
            if wanted(kwargs):
                accepted.append(pts)
            return pts

        return wrapper

    # big_xi lists its terms through enumerate_by_majorant(..., norm=t); a
    # tree from before that keyword filters the full list through with_norm.
    greens.enumerate_by_majorant = recording(greens.enumerate_by_majorant, lambda kw: "norm" in kw)
    if hasattr(greens, "with_norm"):
        greens.with_norm = recording(greens.with_norm)
    for seed in sorted(set(seeds) | {workloads.PROBE_SEED}):
        items = [i for i in workloads.make_round("green-sums", seed, 0) if isinstance(i, workloads.BigXiItem)]
        out[f"green-sums seed {seed}"] = [
            _outcome(big_xi, lats[i.lattice], i.t, i.w, UHPoint(*i.z)) for i in items
        ]
    rng = random.Random(1729)
    extra = []
    for _ in range(300):
        name = rng.choice(("d1", "d6", "d10"))
        t = rng.choice(workloads.REPRESENTED[name])
        w = rng.choice((0.1, 0.15, 0.5, 1.0, 2.0))
        z = UHPoint(rng.uniform(-0.6, 0.6), rng.uniform(0.5, 2.5))
        for spec in (DEFAULT_SPEC, workloads.ORBIFOLD_SPEC):
            extra.append(_outcome(big_xi, lats[name], t, w, z, spec))
    out["random points"] = extra
    near = QuadratureSpec(singular_r_floor=1e-6)
    out["edge points"] = [
        _outcome(big_xi, lats["d1"], 1, 1.0, UHPoint(0.0, 1.0)),  # on a divisor: raises
        _outcome(big_xi, lats["d1"], 1, 1.0, UHPoint(0.0, 1.0 + 1e-4), near),  # excludes terms
        _outcome(big_xi, lats["d1"], -1, 0.02, UHPoint(0.1, 1.2)),  # doubles its bound
        _outcome(big_xi, lats["d1"], -1, 0.005, UHPoint(0.1, 1.2)),  # tail never certified
    ]
    enumerations = []
    for _ in range(200):
        name = rng.choice(("d1", "d6", "d10"))
        z = UHPoint(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        enumerations.append(_outcome(enumerate_by_majorant, lats[name], z, rng.uniform(0.5, 200.0)))
    out["enumerations"] = enumerations
    calls = []

    def green_sum(z):
        res = greens.big_xi(lats["d1"], workloads.ORBIFOLD_T, workloads.ORBIFOLD_W, z, workloads.ORBIFOLD_SPEC)
        calls.append(((z.u, z.v), dataclasses.astuple(res)))
        return res.value

    out["orbifold"] = [_outcome(identities.arithmetic_degree_archimedean, green_sum, workloads.ORBIFOLD_SPEC)]
    out["orbifold big_xi calls"] = calls
    out["accepted vectors"] = accepted
    return out


def _run_tree(tree: Path, seeds: list[int]) -> dict:
    code = (
        "import pickle, sys; sys.path.insert(0, sys.argv[1]); import big_xi_identity as b; "
        "sys.stdout.buffer.write(pickle.dumps(b._collect([int(s) for s in sys.argv[2:]])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(HERE / "scripts"), *map(str, seeds)],
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        check=True,
    )
    return pickle.loads(done.stdout)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _parts(key: str, item) -> tuple:
    """(the part of a result that must be equal, its summed values)."""
    if key == "orbifold big_xi calls":
        point, res = item
        return (point, res[1:]), res[:1]
    if key in ("enumerations", "accepted vectors") or item[0] != "value":
        return item, ()
    n = 2 if key == "orbifold" else 1
    return ("value", item[1][n:]), item[1][:n]


def _relative_change(a: tuple, b: tuple) -> float:
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other source tree")
    ap.add_argument("--seeds", default="1-3", type=_seed_range, help="green-sums seeds, as 1-3")
    ap.add_argument("--value-rtol", default=0.0, type=float, help="allowed relative change of values")
    args = ap.parse_args()
    mine, theirs = _run_tree(HERE, args.seeds), _run_tree(args.against.resolve(), args.seeds)
    differ = 0
    for key in mine:
        a, b = mine[key], theirs.get(key)
        pairs = [(_parts(key, x), _parts(key, y)) for x, y in zip(a, b or [])]
        same = sum(x[0] == y[0] for x, y in pairs)
        change = max((_relative_change(x[1], y[1]) for x, y in pairs), default=0.0)
        ok = b is not None and len(a) == len(b) and same == len(a) and change <= args.value_rtol
        differ += not ok
        raised = sum(r[:1] == ("raised",) for r in a)
        print(
            f"{'equal' if ok else 'DIFFER'}: {key}: {same}/{len(a)} results equal apart from"
            f" values ({raised} raised); largest relative change of a value {change:.2e}"
        )
    orbifold = mine["orbifold"][0]
    print(f"orbifold: {orbifold[1] if orbifold[0] == 'value' else orbifold}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
