"""Run the heights round's inputs and print how far each check is from failing.

    python3 perfbench/margins.py [--seed N]

Every heights round runs one fixed set of inputs, moved by seeded isometries
(see workloads.py).  This command runs the round of one seed and prints, for
each check, the deviation as a share of its allowance: a check fails above 1.
It exits with code 1 if any check fails other than the known z_hat fault.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402


def shares(item) -> list[tuple[str, float]]:
    """(label, deviation over allowance) of each check of a heights item."""
    r = item.results
    if isinstance(item, workloads.ZhatItem):
        sym, tri = r["symmetric"], r["triangular"]
        return [(f"z_hat T={item.t}", abs(sym.value - tri.value) / (sym.err + tri.err + 1e-9))]
    base = r["base"]
    out = [
        (f"{item.geometry} {key}", abs(base.value - r[key].value) / (base.err + r[key].err + 1e-9))
        for key in ("swapped", "conjugated")
    ]
    rotated = abs(base.value - r["rotated"].value) / (oracles.O2_REL_TOL * (1.0 + abs(base.value)))
    return out + [(f"{item.geometry} rotated", rotated)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    lats = workloads.Lattices()
    rec = workloads.Recorder(ticks=False)
    worst = 0.0
    wrong = len(rec.errors)
    for item in workloads.make_round("heights", args.seed, 0):
        item.run(rec, lats)
        wrong += len(item.check(lats))
        for label, share in shares(item):
            known = getattr(item, "known_fault", False)
            print(f"{share:8.3f}  {label}{'  (known fault)' if known else ''}")
            if not known:
                worst = max(worst, share)
    print(f"largest share outside the known fault: {worst:.3f}; {wrong} checks failed")
    return 1 if wrong or rec.errors else 0


if __name__ == "__main__":
    sys.exit(main())
