"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload heights --seed 1 --seconds 8 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 runs the same workload with
every layer boundary wrapped and prints the per-layer metrics.  The last line
is one JSON object with the keys correct, attempted, failed and metrics.  BLAS
runs on one thread and the benchmark is one process at a time (set-up
samples run in a child process each, one after the other).
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, whatever the host's default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5

# What a user pays before the first call, the interpreter being up: import,
# then load the three orders and build their lattices.  The reference kernel
# runs three times on each side; the child prints both times.
SETUP_CODE = """
import statistics
import time
import reference
kernel = [reference.timed_kernel() for _ in range(3)]
start = time.perf_counter()
import ariththeta
from ariththeta import binforms, greens, identities, lattice, quadrature, splitorbits, starprod
for name in ("d1", "d6", "d10"):
    lattice.trace_zero_lattice(lattice.bundled_order(name))
setup = time.perf_counter() - start
kernel += [reference.timed_kernel() for _ in range(3)]
print(setup, statistics.median(kernel))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "lambda_p50_ms": "ms",
    "lambda_tail_ms": "ms",
    "zhat_p50_ms": "ms",
    "bigxi_p50_ms": "ms",
    "bigxi_tail_ms": "ms",
    "orbifold_s": "s",
    "degree_series_ms": "ms",
    "classify_p50_ms": "ms",
    "pair_orbits_p50_ms": "ms",
    "class_numbers_per_s": "1/s",
}


def measure_setup() -> float:
    """Median over fresh interpreters of import plus loading d1, d6 and d10,
    at reference speed."""
    import reference

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup, kernel = (float(x) for x in done.stdout.split())
        samples.append(setup * reference.REFERENCE_SECONDS / kernel)
    return statistics.median(samples)


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of every
    order statistic, with Beta((n + 1) q, (n + 1)(1 - q)) weights.

    Call times cluster by input, so a plain order statistic can sit in a gap
    between two clusters and jump across it when noise swaps two calls; this
    estimate moves smoothly instead.
    """
    import numpy as np
    from scipy.stats import beta

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q))
    return float(xs @ np.diff(edges))


def end_to_end(result, setup_s: float) -> dict:
    from workloads import TAIL_PERCENTILE

    seconds = result.seconds()
    ms = {op: [1e3 * s for s in xs] for op, xs in seconds.items()}
    hurwitz = seconds["hurwitz"]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        "wall_s": result.wall_s(),
        "lambda_p50_ms": quantile(ms["lambda_star"], 0.5),
        "lambda_tail_ms": quantile(ms["lambda_star"], TAIL_PERCENTILE["lambda_star"] / 100),
        "zhat_p50_ms": quantile(ms["z_hat"], 0.5),
        "bigxi_p50_ms": quantile(ms["big_xi"], 0.5),
        "bigxi_tail_ms": quantile(ms["big_xi"], TAIL_PERCENTILE["big_xi"] / 100),
        "orbifold_s": quantile(seconds["orbifold"], 0.5),
        "degree_series_ms": quantile(ms["degree_series"], 0.5),
        "classify_p50_ms": quantile(ms["classify"], 0.5),
        "pair_orbits_p50_ms": quantile(ms["pair_orbits"], 0.5),
        "class_numbers_per_s": len(hurwitz) / sum(hurwitz),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("heights", "green-sums", "exact-arith"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ariththeta" / "__init__.py").is_file():
        print(f"no ariththeta package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.trace:
        with tracing.Tracer() as tracer:
            tracing.install(tracer)
            tracer.phase = "setup"
            for _ in range(SETUP_SAMPLES):
                lats = tracer.timed(workloads.Lattices, "setup")()
            result = workloads.run(args.workload, args.seed, args.seconds, lats, tracer)
        metrics = tracing.layer_metrics(tracer, result.kernel_scale())
    else:
        setup_s = measure_setup()
        lats = workloads.Lattices()
        result = workloads.run(args.workload, args.seed, args.seconds, lats)
        metrics = end_to_end(result, setup_s)

    rec = result.recorder
    for line in rec.errors + result.faults:
        print(f"failed: {line}", file=sys.stderr)
    for line in result.failures:
        print(f"wrong: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {result.rounds} rounds, "
        f"wall_s {result.wall_s():.4f} at reference speed, "
        f"kernel median {1e3 * statistics.median(rec.kernel_seconds):.3f} ms, "
        f"{rec.attempted} calls, {rec.failed} failed, {len(result.failures)} check failures",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
