"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads heights,exact-arith]
                                [--trace 0] [--seconds N] [--label NAME]

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median; the
bounds in BENCHMARK.json are compared with it.  Runs are sequential, one
process at a time.  Raw results go to perfbench/results/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = raw[workload] = []
        for seed in seeds(args.seeds):
            out = run_once(workload, seed, args.seconds, args.trace)
            out["seed"] = seed
            runs.append(out)
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}", flush=True)
        print(f"\n{workload}: {'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{workload}: {name:28s} {median:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {unit}")
        print(flush=True)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{args.label}.json").write_text(json.dumps(raw, indent=1))
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
