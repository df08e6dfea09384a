"""Command-line front end: reproducible tables and verification suites."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .binforms import hurwitz_class_number
from .config import RunConfig, load_config
from .errors import ArithThetaError, PreconditionViolation
from .greens import UHPoint, big_xi
from .identities import classify, degree_series
from .lattice import model_coordinates_float, trace_zero_lattice
from .numtheory import is_squarefree
from .splitorbits import pair_action
from .starprod import PairConfig, _square_root, lambda_star
from . import checks


def _emit(args, op: str, rows) -> None:
    """rows: list of (input_dict, value_str, err_str_or_None)."""
    if args.out == "json":
        for inp, value, err in rows:
            print(json.dumps({"op": op, "input": inp, "value": value, "err": err}))
    else:
        for inp, value, err in rows:
            left = " ".join(f"{k}={v}" for k, v in inp.items())
            tail = f"  (err <= {err})" if err is not None else ""
            print(f"{left:24s} {value}{tail}")


def _numbers(kind, count: int, positive_definite: bool = False):
    """argparse type: exactly `count` comma-separated values of `kind`,
    with positive_definite forming a positive definite matrix "a,b,c" = ((a, b), (b, c))."""
    shape = " forming a positive definite matrix" if positive_definite else ""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        try:
            if len(parts) != count:
                raise ValueError
            values = tuple(kind(c) for c in parts)
            if positive_definite and not (values[0] > 0 and values[0] * values[2] > values[1] ** 2):
                raise ValueError
            return values
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated {kind.__name__}s{shape}, got {text!r}"
            ) from None

    return parse


def _point(text: str) -> UHPoint:
    """argparse type for --z: "u,v" with finite u and v > 0."""
    try:
        u, v = (float(c) for c in text.split(","))
        return UHPoint(u, v)
    except (ValueError, PreconditionViolation):
        raise argparse.ArgumentTypeError(f'expected "u,v" with finite u and v > 0, got {text!r}') from None


def _checked(kind, ok, what: str):
    """argparse type: one value of `kind` for which ok(value) holds, described as `what`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_nonnegative = _checked(int, lambda n: n >= 0, "an integer >= 0")
_nonzero = _checked(int, lambda n: n != 0, "a nonzero integer")
_positive = _checked(float, lambda x: 0 < x < float("inf"), "a finite number > 0")
_squarefree = _checked(int, lambda n: n >= 1 and is_squarefree(n), "a squarefree integer >= 1")


def _echo(values) -> str:
    """Parsed numbers back to comma-separated input text, 1.0 written as 1."""
    return ",".join(repr(c).removesuffix(".0") for c in values)


def _lattice_from(args, cfg: RunConfig):
    return trace_zero_lattice(RunConfig(order=args.order or cfg.order).load_order())


def cmd_theta_deg(args, cfg: RunConfig) -> int:
    lat = _lattice_from(args, cfg)
    series = degree_series(lat, v=1.0, n=max(args.max_t, 1))
    rows = []
    for t in range(0, args.max_t + 1):
        rows.append(({"t": t}, str(series.coefficient(t)), None))
    _emit(args, "theta_deg", rows)
    return 0


def cmd_green(args, cfg: RunConfig) -> int:
    lat = _lattice_from(args, cfg)
    res = big_xi(lat, args.t, args.v, args.z, cfg.quadrature)
    _emit(
        args,
        "green",
        [
            (
                {"t": args.t, "v": args.v, "z": _echo((args.z.u, args.z.v))},
                f"{res.value:.12g}",
                f"{res.tail_bound:.3g}",
            )
        ],
    )
    return 0


def cmd_lambda(args, cfg: RunConfig) -> int:
    lat = _lattice_from(args, cfg)
    coords = model_coordinates_float(lat)
    x1 = coords @ np.array(args.x1, dtype=float)
    x2 = coords @ np.array(args.x2, dtype=float)
    if args.v:
        v11, v12, v22 = args.v
        a = _square_root(np.array([[v11, v12], [v12, v22]]), "symmetric")
        x1, x2 = pair_action((x1, x2), a.ravel())
    res = lambda_star(PairConfig.from_vectors(x1, x2), cfg.quadrature)
    _emit(
        args,
        "lambda",
        [
            (
                {"x1": _echo(args.x1), "x2": _echo(args.x2), "v": _echo(args.v or (1, 0, 1))},
                f"{res.value:.12g}",
                f"{res.err:.3g}",
            )
        ],
    )
    return 0


def cmd_classify(args, cfg: RunConfig) -> int:
    t1, m, t2 = args.T
    res = classify(((t1, m), (m, t2)), args.D)
    value = {
        "fundamental_prime": res.fundamental_prime,
        "regular": res.regular,
        "supersingular_support": res.supersingular_support,
    }
    if args.out == "json":
        print(
            json.dumps(
                {"op": "classify", "input": {"T": _echo(args.T), "D": args.D}, "value": value, "err": None}
            )
        )
    else:
        print(
            f"T=({t1},{m},{t2}) D={args.D}  fundamental_prime={res.fundamental_prime} "
            f"regular={res.regular} supersingular_support={res.supersingular_support}"
        )
    return 0


def cmd_hurwitz(args, cfg: RunConfig) -> int:
    h = hurwitz_class_number(args.n)
    _emit(args, "hurwitz", [({"n": args.n}, str(h), None)])
    return 0


def cmd_check(args, cfg: RunConfig) -> int:
    lat = _lattice_from(args, cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    rows = checks.run_suite(args.suite, lat, seed, cfg.quadrature)
    failures = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}  {detail}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {len(rows) - failures}/{len(rows)} checks passed (seed {seed})")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ariththeta",
        description="Degree series, Green functions and star-product heights at desk scale",
    )
    ap.add_argument("--config", help="config file (overrides $ARITHTHETA_CONFIG)")
    ap.add_argument("--out", choices=("table", "json"), default="table")
    ap.add_argument("--order", help="bundled order name (d1, d6, d10) or JSON path")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta-deg", help="degree series coefficients")
    p.add_argument("--max-t", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_theta_deg)

    p = sub.add_parser("green", help="truncated Green-function sum")
    p.add_argument("--t", type=_nonzero, required=True)
    p.add_argument("--v", type=_positive, default=1.0)
    p.add_argument("--z", type=_point, required=True, help='point "u,v"')
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("lambda", help="star-product height of a lattice pair")
    p.add_argument(
        "--x1", type=_numbers(int, 3), required=True, help='integer lattice coordinates "a,b,c"'
    )
    p.add_argument("--x2", type=_numbers(int, 3), required=True)
    pd_matrix = _numbers(float, 3, positive_definite=True)
    p.add_argument("--v", type=pd_matrix, help='positive definite matrix "v11,v12,v22"')
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("classify", help="fundamental prime and regularity of T")
    pd_matrix = _numbers(int, 3, positive_definite=True)
    p.add_argument("--T", type=pd_matrix, required=True, help='positive definite matrix "t1,m,t2"')
    p.add_argument("--D", type=_squarefree, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("hurwitz", help="Hurwitz class number H(n)")
    p.add_argument("--n", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("suite", choices=(*checks.SUITES, "full"))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, ArithThetaError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except ArithThetaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
