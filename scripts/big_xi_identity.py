"""Check that two source trees give the same big_xi results.

    python scripts/big_xi_identity.py --against ../other-checkout [--seeds 1-3]
                                      [--value-rtol 0]

Runs the same inputs in a fresh interpreter on this tree's `src/` and on the
other tree's `src/`, and compares the results:

- every big_xi input of round 0 of the benchmark's `green-sums` workload at
  the given seeds and at the probe seed, each at the default spec;
- 600 further seeded points: d1, d6 and d10, t = +-1..3 where represented,
  weights 0.1 to 2, at the default spec and at the orbifold spec, each
  labelled by the spec's name, so a call pairs with the other tree's call
  at the same spec whatever bound either tree chose;
- five edge points: on a divisor, next to one, one whose tail certifies
  only far above the spec's floor (near majorant value 680), one whose tail
  certifies only by the row count of _tail_bound (not by the eigenvalue
  count used before it) and one whose tail never certifies;
- 200 seeded enumerate_by_majorant lists of one norm each, bounds up to
  200, the norm t running through the lattice's represented norms;
- the orbifold integral of z -> big_xi(d1, -2, 1, z) at the orbifold spec,
  and every big_xi call it made.

Each big_xi call is kept with the majorant bound it enumerated at and the
vectors it accepted.  Where both trees chose the same bound, `terms`,
`excluded` and the vectors must be equal, this tree's `tail_bound` at most
the other's, and `value` within a relative --value-rtol (0 by default: bit
for bit).  Where the bounds differ, the call is listed, and the two values
must agree within the tail bound at the smaller of the two bounds: the sum
at the larger bound holds the other's terms and only vectors beyond it.  A
call that raises must raise the same error in both trees, with the same
message unless it is an uncertified tail (QuadratureFailure, whose message
carries the tail); a call may certify here where the other tree's tail did
not, and is then listed.  Enumerations and
the orbifold's (value, err, cusp_height) must be equal, the summed `value`
and `err` again within --value-rtol.  Inputs come from this tree's
`perfbench/`; both trees need enumerate_by_majorant's `norm` keyword.
Exits 1 if anything differs beyond that.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    from ariththeta.greens import DEFAULT_SPEC, QuadratureSpec, UHPoint
    from ariththeta.lattice import enumerate_by_majorant

    lats = workloads.Lattices()
    out: dict = {}
    last: dict = {}

    def recording(*args, **kwargs):
        pts = enumerate_by_majorant(*args, **kwargs)
        last["bound"] = args[2] if len(args) > 2 else kwargs["bound"]
        last["vectors"] = pts
        return pts

    greens.enumerate_by_majorant = recording

    def call(label, name, t, w, z, spec=DEFAULT_SPEC):
        """(label, outcome, bound enumerated at, accepted vectors) of one big_xi call."""
        last.clear()
        outcome = _outcome(greens.big_xi, lats[name], t, w, z, spec)
        return (label, outcome, last.get("bound"), last.get("vectors"))

    for seed in sorted(set(seeds) | {workloads.PROBE_SEED}):
        items = [i for i in workloads.make_round("green-sums", seed, 0) if isinstance(i, workloads.BigXiItem)]
        out[f"green-sums seed {seed}"] = [
            call(f"{i.lattice} t={i.t} w={i.w} z={i.z}", i.lattice, i.t, i.w, UHPoint(*i.z)) for i in items
        ]
    rng = random.Random(1729)
    extra = []
    for _ in range(300):
        name = rng.choice(("d1", "d6", "d10"))
        t = rng.choice(workloads.REPRESENTED[name])
        w = rng.choice((0.1, 0.15, 0.5, 1.0, 2.0))
        z = UHPoint(rng.uniform(-0.6, 0.6), rng.uniform(0.5, 2.5))
        for spec_name, spec in (("default", DEFAULT_SPEC), ("orbifold", workloads.ORBIFOLD_SPEC)):
            extra.append(call(f"{name} t={t} w={w} z=({z.u!r}, {z.v!r}) {spec_name} spec", name, t, w, z, spec))
    out["random points"] = extra
    near = QuadratureSpec(singular_r_floor=1e-6)
    out["edge points"] = [
        call("on a divisor", "d1", 1, 1.0, UHPoint(0.0, 1.0)),  # raises
        call("next to a divisor", "d1", 1, 1.0, UHPoint(0.0, 1.0 + 1e-4), near),  # excludes terms
        call("certified far above the floor", "d1", -1, 0.02, UHPoint(0.1, 1.2)),
        call("certified only by the row count", "d1", -1, 0.005, UHPoint(0.1, 1.2)),
        call("tail never certified", "d1", -1, 0.003, UHPoint(0.1, 1.2)),
    ]
    enumerations = []
    for k in range(200):
        name = rng.choice(("d1", "d6", "d10"))
        z = UHPoint(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        ts = workloads.REPRESENTED[name]
        enumerate_norm = functools.partial(enumerate_by_majorant, norm=ts[k % len(ts)])
        enumerations.append(_outcome(enumerate_norm, lats[name], z, rng.uniform(0.5, 200.0)))
    out["enumerations"] = enumerations
    calls = []

    def green_sum(z):
        last.clear()
        res = greens.big_xi(lats["d1"], workloads.ORBIFOLD_T, workloads.ORBIFOLD_W, z, workloads.ORBIFOLD_SPEC)
        calls.append((f"z=({z.u!r}, {z.v!r})", ("value", dataclasses.astuple(res)), last["bound"], last["vectors"]))
        return res.value

    out["orbifold"] = [_outcome(identities.arithmetic_degree_archimedean, green_sum, workloads.ORBIFOLD_SPEC)]
    out["orbifold big_xi calls"] = calls
    return out


def _run_tree(module: str, tree: Path, seeds: list[int]) -> dict:
    """module._collect(seeds) of the script `module` in scripts/, run on tree's src/ in a fresh interpreter."""
    code = (
        f"import pickle, sys; sys.path.insert(0, sys.argv[1]); import {module} as b; "
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


def _relative_change(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _compare_call(mine, theirs, rtol: float) -> tuple[bool, float, str | None]:
    """(agrees, relative change of the value, a line if the bound changed) for one big_xi call."""
    (label, out, bound, vectors), (label_o, out_o, bound_o, vectors_o) = mine, theirs
    if label != label_o:
        return False, 0.0, None
    if out[0] == "value" and out_o[:2] == ("raised", "QuadratureFailure"):
        return True, 0.0, f"  certified at bound {bound:g} here, not there: {label}: {out_o[2]}"
    if "raised" in (out[0], out_o[0]):
        # An uncertified tail carries its value in the message, and that may fall.
        same = out == out_o or out[:2] == out_o[:2] == ("raised", "QuadratureFailure")
        return same, 0.0, None if out == out_o else f"  {label}: {out_o[2]} -> {out[2]}"
    (value, tail, terms, excluded), (value_o, tail_o, terms_o, excluded_o) = out[1], out_o[1]
    change = _relative_change(value, value_o)
    if bound == bound_o:
        same = (terms, excluded, vectors) == (terms_o, excluded_o, vectors_o)
        return same and tail <= tail_o and change <= rtol, change, None
    gap = abs(value - value_o)
    allowed = tail if bound < bound_o else tail_o
    line = (f"  bound {bound_o:g} -> {bound:g}: {label}: value {value_o!r} -> {value!r},"
            f" |change| {gap:.2e} within the tail {allowed:.2e}" if gap <= allowed + 1e-15 else
            f"  bound {bound_o:g} -> {bound:g}: {label}: |change| {gap:.2e} ABOVE the tail {allowed:.2e}")
    return gap <= allowed + 1e-15, 0.0, line


def _compare_plain(key: str, mine, theirs, rtol: float) -> tuple[bool, float]:
    """Enumerations and the orbifold: equal, apart from the summed values within rtol."""
    if key != "orbifold" or "raised" in (mine[0], theirs[0]):
        return mine == theirs, 0.0
    change = max(_relative_change(a, b) for a, b in zip(mine[1][:2], theirs[1][:2]))
    return mine[1][2:] == theirs[1][2:] and change <= rtol, change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, type=Path, help="the other source tree")
    ap.add_argument("--seeds", default="1-3", type=_seed_range, help="green-sums seeds, as 1-3")
    ap.add_argument("--value-rtol", default=0.0, type=float, help="allowed relative change of values")
    args = ap.parse_args()
    mine = _run_tree("big_xi_identity", HERE, args.seeds)
    theirs = _run_tree("big_xi_identity", args.against.resolve(), args.seeds)
    differ = 0
    for key in mine:
        a, b = mine[key], theirs.get(key) or []
        calls = key not in ("enumerations", "orbifold")
        if calls:
            results = [_compare_call(x, y, args.value_rtol) for x, y in zip(a, b)]
        else:
            results = [(*_compare_plain(key, x, y, args.value_rtol), None) for x, y in zip(a, b)]
        same = sum(ok for ok, _, _ in results)
        change = max((c for _, c, _ in results), default=0.0)
        moved = [line for _, _, line in results if line]
        ok = len(a) == len(b) and same == len(a)
        differ += not ok
        raised = sum((r[1] if calls else r)[:1] == ("raised",) for r in a)
        print(
            f"{'equal' if ok else 'DIFFER'}: {key}: {same}/{len(a)} results agree ({raised} raised), {len(moved)}"
            f" listed as changed; largest relative change of a value at the same bound {change:.2e}"
        )
        for line in moved:
            print(line)
    orbifold = mine["orbifold"][0]
    print(f"orbifold: {orbifold[1] if orbifold[0] == 'value' else orbifold}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
