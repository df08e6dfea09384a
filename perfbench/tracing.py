"""Spans around the calls into each layer, recorded from outside the package.

A Tracer replaces a layer's public function at the place where the calling
module looks it up (for example `starprod.adaptive_integrate`, the name
`lambda_star` resolves at run time) with a wrapper that times the call and
charges it to the innermost open span.  Every span keeps, per name, the
calls, seconds and points of all spans nested inside it, so self time is a
span's duration minus the nested layer time it names.  Spans of the names in
KEEP are stored with the phase they ran in; the rest only add to their
enclosing span, which keeps memory flat for the hot leaves (`q_value` runs
about a thousand times per `big_xi`).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

# Stored spans; every other wrapped name is aggregated into its parent.
KEEP = frozenset(
    {
        "lambda_star",
        "z_hat",
        "adaptive_integrate",
        "big_xi",
        "enumerate",
        "orbifold",
        "degree_series",
        "classify",
        "pair_orbit_reps",
        "hurwitz_reduced",
        "hurwitz_boxdedup",
        "setup",
    }
)


class Span:
    __slots__ = ("name", "seconds", "nested", "info", "phase")

    def __init__(self, name: str, phase):
        self.name = name
        self.phase = phase
        self.seconds = 0.0
        # name -> [calls, seconds, points] over every span nested inside this one
        self.nested: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.info: dict = {}

    def calls(self, name: str) -> int:
        return self.nested[name][0] if name in self.nested else 0

    def time(self, *names: str) -> float:
        return sum(self.nested[n][1] for n in names if n in self.nested)


class Tracer:
    """Records the spans of wrapped calls; leaving its `with` block restores
    every attribute it wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrap(self, owner, attr: str, name: str, points=None, info=None) -> None:
        """Replace owner.attr by a timed wrapper.

        points(args, kwargs) gives the evaluation points a call handles;
        info(span, parent, args, kwargs, result) records facts about one
        call on its span or on the span that made it.
        """
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, points, info))

    def timed(self, fn, name: str, points=None, info=None):
        def wrapper(*args, **kwargs):
            span = Span(name, self.phase)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = time.perf_counter() - start
                self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if info is not None:
                info(span, parent, args, kwargs, result)
            n_points = points(args, kwargs) if points is not None else 0
            if parent is not None:
                entry = parent.nested[name]
                entry[0] += 1
                entry[1] += span.seconds
                entry[2] += n_points
                for key, (c, s, p) in span.nested.items():
                    agg = parent.nested[key]
                    agg[0] += c
                    agg[1] += s
                    agg[2] += p
            if name in KEEP:
                self.spans.append(span)
            return result

        return wrapper

    def named(self, name: str, phases=None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phases is None or s.phase in phases)]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from ariththeta import binforms, greens, identities, lattice, splitorbits, starprod

    def array_points(args, kwargs):
        return int(np.size(args[1]))

    def integrand_points(args, kwargs):
        return int(np.size(args[0]))

    # adaptive_integrate is charged its own span and the integrand it is
    # handed gets one too, so quadrature self time excludes the integrand.
    for module in (starprod, identities):
        original = module.adaptive_integrate

        def adaptive(f, *args, _original=original, **kwargs):
            return _original(tracer.timed(f, "integrand", points=integrand_points), *args, **kwargs)

        tracer._patched.append((module, "adaptive_integrate", original))
        module.adaptive_integrate = tracer.timed(adaptive, "adaptive_integrate")

    tracer.wrap(starprod, "xi_vec", "xi_vec", points=array_points)
    tracer.wrap(starprod, "ddc_xi_vec", "ddc_xi_vec", points=array_points)
    tracer.wrap(starprod, "lambda_star", "lambda_star")
    tracer.wrap(starprod, "z_hat_indefinite", "z_hat", info=_record_z_hat)
    tracer.wrap(splitorbits, "pair_orbit_reps", "pair_orbit_reps")
    tracer.wrap(splitorbits, "orbit_reps", "orbit_reps")

    tracer.wrap(greens, "big_xi", "big_xi", info=_record_big_xi)
    tracer.wrap(greens, "enumerate_by_majorant", "enumerate", info=_record_enumeration)
    tracer.wrap(greens, "majorant", "majorant")
    tracer.wrap(greens, "model_coordinates_float", "model_coordinates")
    tracer.wrap(lattice.TraceZeroLattice, "q_value", "q_value")

    tracer.wrap(identities, "arithmetic_degree_archimedean", "orbifold")
    tracer.wrap(identities, "degree_series", "degree_series")
    tracer.wrap(identities, "classify", "classify")
    tracer.wrap(identities, "hilbert_symbol", "hilbert_symbol")
    tracer.wrap(identities, "primes_up_to", "primes_up_to")
    tracer.wrap(identities, "factorint", "factorint")
    tracer.wrap(binforms, "hurwitz_class_number", "hurwitz_reduced")
    tracer.wrap(binforms, "hurwitz_class_number_boxdedup", "hurwitz_boxdedup")

    tracer.wrap(lattice, "load_order", "load_order")
    tracer.wrap(lattice, "trace_zero_lattice", "trace_zero_lattice")


def _record_big_xi(span, parent, args, kwargs, result) -> None:
    from ariththeta.greens import DEFAULT_SPEC

    spec = args[4] if len(args) > 4 else kwargs.get("spec", DEFAULT_SPEC)
    span.info["terms"] = result.terms
    span.info["doubled"] = span.info.get("bound", 0.0) > spec.truncation_majorant_bound


def _record_z_hat(span, parent, args, kwargs, result) -> None:
    span.info["orbits"] = result.orbits


def _record_enumeration(span, parent, args, kwargs, result) -> None:
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    span.info["candidates"] = len(result)
    if parent is not None:
        parent.info["bound"] = bound
        parent.info["candidates"] = parent.info.get("candidates", 0) + len(result)


# --- per-layer metrics ----------------------------------------------------------

# Work counts are taken over the fixed work of a run (round 0 and the probe),
# so they repeat exactly for a seed; times are taken over the whole run.
COUNTED = (0, "probe")

PER_LAYER_UNITS = {
    "quadrature.calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.self_ms": "ms",
    "quadrature.points_per_s": "1/s",
    "greens.kernel_ms": "ms",
    "greens.kernel_points_per_s": "1/s",
    "greens.big_xi_self_ms": "ms",
    "greens.big_xi_terms": "count",
    "greens.big_xi_accept_ratio": "ratio",
    "greens.bound_doublings": "count",
    "lattice.enumerate_ms": "ms",
    "lattice.candidates": "count",
    "lattice.q_value_calls": "count",
    "lattice.q_value_ms": "ms",
    "lattice.setup_ms": "ms",
    "starprod.self_ms": "ms",
    "starprod.zhat_orbits": "count",
    "splitorbits.pair_orbit_reps_ms": "ms",
    "splitorbits.orbit_reps_ms": "ms",
    "binforms.hurwitz_reduced_us": "us",
    "binforms.hurwitz_boxdedup_us": "us",
    "identities.orbifold_g_calls": "count",
    "identities.classify_self_ms": "ms",
    "quatalg.hilbert_symbol_calls": "count",
    "quatalg.hilbert_symbol_ms": "ms",
    "numtheory.primes_up_to_ms": "ms",
}

LATTICE_CALLS = ("enumerate", "majorant", "model_coordinates", "q_value")
KERNELS = ("xi_vec", "ddc_xi_vec")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _points(span: Span, *names: str) -> int:
    return sum(span.nested[n][2] for n in names if n in span.nested)


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Every per-layer metric, as {name: {"value", "unit"}}.

    Times are multiplied, and rates divided, by `scale`: the reference speed
    over the run's median speed (see reference.py).
    """
    quad, quad_n = tracer.named("adaptive_integrate"), tracer.named("adaptive_integrate", COUNTED)
    lam = tracer.named("lambda_star")
    bx, bx_n = tracer.named("big_xi"), tracer.named("big_xi", COUNTED)
    enum, enum_n = tracer.named("enumerate"), tracer.named("enumerate", COUNTED)
    cls, cls_n = tracer.named("classify"), tracer.named("classify", COUNTED)
    kernel_seconds = sum(s.time(*KERNELS) for s in lam)
    values = {
        "quadrature.calls": len(quad_n),
        "quadrature.integrand_points": _mean(_points(s, "integrand") for s in quad_n),
        "quadrature.self_ms": 1e3 * _mean(s.seconds - s.time("integrand") for s in quad),
        "quadrature.points_per_s": sum(_points(s, "integrand") for s in quad)
        / sum(s.seconds for s in quad),
        "greens.kernel_ms": 1e3 * kernel_seconds / len(lam),
        "greens.kernel_points_per_s": sum(_points(s, *KERNELS) for s in lam) / kernel_seconds,
        "greens.big_xi_self_ms": 1e3 * _mean(s.seconds - s.time(*LATTICE_CALLS) for s in bx),
        "greens.big_xi_terms": _mean(s.info["terms"] for s in bx_n),
        "greens.big_xi_accept_ratio": sum(s.info["terms"] for s in bx_n)
        / sum(s.info["candidates"] for s in bx_n),
        "greens.bound_doublings": sum(s.info["doubled"] for s in bx_n),
        "lattice.enumerate_ms": 1e3 * _mean(s.seconds for s in enum),
        "lattice.candidates": _mean(s.info["candidates"] for s in enum_n),
        "lattice.q_value_calls": _mean(s.calls("q_value") for s in bx_n),
        "lattice.q_value_ms": 1e3 * _mean(s.time("q_value") for s in bx),
        "lattice.setup_ms": 1e3
        * statistics.median(s.time("load_order", "trace_zero_lattice") for s in tracer.named("setup")),
        "starprod.self_ms": 1e3 * _mean(s.seconds - s.time("adaptive_integrate") for s in lam),
        "starprod.zhat_orbits": _mean(s.info["orbits"] for s in tracer.named("z_hat", COUNTED)),
        "splitorbits.pair_orbit_reps_ms": 1e3
        * _mean(s.seconds for s in tracer.named("pair_orbit_reps")),
        "splitorbits.orbit_reps_ms": 1e3
        * _mean(s.time("orbit_reps") for s in tracer.named("degree_series")),
        "binforms.hurwitz_reduced_us": 1e6
        * _mean(s.seconds for s in tracer.named("hurwitz_reduced")),
        "binforms.hurwitz_boxdedup_us": 1e6
        * _mean(s.seconds for s in tracer.named("hurwitz_boxdedup")),
        "identities.orbifold_g_calls": _mean(
            s.calls("big_xi") for s in tracer.named("orbifold", COUNTED)
        ),
        "identities.classify_self_ms": 1e3
        * _mean(s.seconds - s.time("hilbert_symbol", "primes_up_to", "factorint") for s in cls),
        "quatalg.hilbert_symbol_calls": _mean(s.calls("hilbert_symbol") for s in cls_n),
        "quatalg.hilbert_symbol_ms": 1e3 * _mean(s.time("hilbert_symbol") for s in cls),
        "numtheory.primes_up_to_ms": 1e3 * _mean(s.time("primes_up_to") for s in cls),
    }
    factor = {"ms": scale, "us": scale, "1/s": 1.0 / scale}
    return {
        name: {"value": values[name] * factor.get(unit, 1), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
