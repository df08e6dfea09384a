"""The benchmark's workloads: seeded inputs, the timed program calls, the checks.

A workload is a closed loop: one process issues one call after the other.
It runs in rounds; round k of seed s is made by `make_round(name, s, k)` and
nothing else, so a seed fixes the inputs.  Each item of a round makes its
program calls through a Recorder, which times them, and later checks the
results against the oracles in `oracles.py`.  Checks run after all timing.

Every run reports every metric, so each run ends with a probe: the first
rounds of the two other workloads at PROBE_SEED.  The probe is the same in
every run; its calls count in the operation medians of the workloads that do
not run that operation themselves, never in `wall_s`, `attempted` or
`failed`, so that the failed share of a run does not depend on its length.
An error raised or a check failed in the probe makes the run incorrect; the
known z_hat fault (ZHAT_KNOWN_FAULT) counts only in the workload's own rounds.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import oracles
import reference
from ariththeta import binforms, greens, identities, lattice, splitorbits, starprod
from ariththeta.errors import ArithThetaError
from ariththeta.greens import QuadratureSpec, UHPoint

WORKLOADS = ("heights", "green-sums", "exact-arith")

PROBE_SEED = 0

# Each run does at least these rounds, and the probe exactly these: one
# heights round makes 72 lambda_star calls and one green-sums round 150
# big_xi calls, so each TAIL_PERCENTILE has at least ten samples beyond it;
# 5 exact-arith rounds make 140 classify and 120 pair_orbit_reps calls.
MIN_ROUNDS = {"heights": 1, "green-sums": 1, "exact-arith": 5}

TAIL_PERCENTILE = {"lambda_star": 85, "big_xi": 90}

# Program seconds between two samples of the reference kernel.
KERNEL_EVERY = 0.05

# The tolerances of test_arch_degree_green_sum_converges.
ORBIFOLD_SPEC = QuadratureSpec(rel_tol=2e-3, abs_tol=5e-5, truncation_majorant_bound=16.0)
ORBIFOLD_T, ORBIFOLD_W = -2, 1.0

# Norms each lattice represents, both signs (checked by enumeration).
REPRESENTED = {"d1": (-3, -2, -1, 1, 2, 3), "d6": (-3, -2, 1, 3), "d10": (-3, -2, 2, 3)}

SQUAREFREE_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 30)

# Scan limit the program's classify uses by default; mandatory primes stay below it.
CLASSIFY_PRIME_LIMIT = 300


class Lattices:
    """The three bundled orders' trace-zero lattices."""

    def __init__(self):
        self.by_name = {
            name: lattice.trace_zero_lattice(lattice.bundled_order(name))
            for name in ("d1", "d6", "d10")
        }
        self._orbifold_reference = None

    def __getitem__(self, name):
        return self.by_name[name]

    def orbifold_reference(self):
        if self._orbifold_reference is None:
            self._orbifold_reference = oracles.orbifold_reference(
                self["d1"], ORBIFOLD_T, ORBIFOLD_W
            )
        return self._orbifold_reference


class Recorder:
    """Times each program call, samples the reference kernel between calls,
    and counts attempts and failures.

    A call is timed in segments: a callback the benchmark hands the program
    may call `tick()`, which closes the segment, samples the kernel if one is
    due, and opens the next; kernel time is thus never charged to the call.
    """

    def __init__(self, ticks: bool = True):
        self.calls: list[tuple[str, list[tuple[float, int]], object]] = []  # op, segments, round
        self.kernel_seconds: list[float] = []
        self.round = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.probe_errors: list[str] = []
        self._ticks = ticks
        self._since_kernel = math.inf
        self._segments: list[tuple[float, int]] = []
        self._mark = 0.0

    def call(self, op: str, fn, *args, **kwargs):
        if self._since_kernel >= KERNEL_EVERY:
            self.sample_kernel()
        counted = self.round != "probe"
        self.attempted += counted
        self._segments = []
        self._mark = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ArithThetaError as exc:
            result = None
            message = f"{op}{args!r}: {type(exc).__name__}: {exc}"
            if counted:
                self.failed += 1
                self.errors.append(message)
            else:
                self.probe_errors.append(message)
        self._close_segment()
        if result is not None:
            self.calls.append((op, self._segments, self.round))
        return result

    def tick(self) -> None:
        """Called from inside a program call: sample the kernel if one is due."""
        if self._ticks and self._since_kernel + time.perf_counter() - self._mark >= KERNEL_EVERY:
            self._close_segment()
            self.sample_kernel()
            self._mark = time.perf_counter()

    def _close_segment(self) -> None:
        elapsed = time.perf_counter() - self._mark
        self._since_kernel += elapsed
        self._segments.append((elapsed, len(self.kernel_seconds)))

    def sample_kernel(self) -> None:
        self.kernel_seconds.append(reference.timed_kernel())
        self._since_kernel = 0.0

    def scaled(self) -> list[tuple[str, float, object]]:
        """(op, seconds at reference speed, round) of every call that returned.

        A segment's scale comes from the median of the three kernel samples
        before it and the three after it.
        """
        ks = self.kernel_seconds

        def at_reference(seconds: float, i: int) -> float:
            return seconds * reference.REFERENCE_SECONDS / statistics.median(ks[max(0, i - 3) : i + 3])

        return [
            (op, sum(at_reference(s, i) for s, i in segments), rnd)
            for op, segments, rnd in self.calls
        ]


# --- evenly spread inputs ----------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _radical_inverse(n: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while n:
        n, digit = divmod(n, base)
        out += digit * scale
        scale /= base
    return out


class Spread:
    """Draws for input number `index` of a stream that covers its ranges evenly.

    Point `index` of the Halton sequence, shifted mod 1 by a vector drawn from
    `key` (a Cranley-Patterson rotation).  The seed, part of the key, moves
    every point; any prefix of the stream, that is any number of rounds,
    still covers the ranges evenly, so a run's cost depends little on its
    seed.  Each draw uses the next coordinate.
    """

    def __init__(self, key: str, index: int):
        shift = random.Random(key)
        self._shift = [shift.random() for _ in _PRIMES]
        self._index = index + 1
        self._dim = 0

    def uniform(self, lo: float, hi: float) -> float:
        x = (_radical_inverse(self._index, _PRIMES[self._dim]) + self._shift[self._dim]) % 1.0
        self._dim += 1
        return lo + (hi - lo) * x

    def randint(self, lo: int, hi: int) -> int:
        return min(hi, lo + int(self.uniform(0, hi - lo + 1)))

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def retry(self) -> None:
        """Move to a point far along the stream, for a rejected draw."""
        self._index += 100_003
        self._dim = 0


# --- heights ------------------------------------------------------------------


def cm_vector(u: float, v: float, t: float) -> tuple:
    """(alpha, beta, gamma) with Q = t > 0 whose divisor is u + iv: gamma z^2 - 2 alpha z - beta = 0."""
    gamma = math.sqrt(t) / v
    alpha = gamma * u
    return (alpha, -(alpha * alpha + t) / gamma, gamma)


def geodesic_vector(r1: float, r2: float, t: float) -> tuple:
    """(alpha, beta, gamma) with Q = t < 0 whose fixed geodesic ends at r1 and r2."""
    gamma = 2.0 * math.sqrt(-t) / abs(r2 - r1)
    return (gamma * (r1 + r2) / 2.0, -gamma * r1 * r2, gamma)


def _q(x) -> float:
    a, b, g = x
    return -a * a - b * g


def _gram(x1, x2) -> tuple[float, float, float]:
    s = tuple(a + b for a, b in zip(x1, x2))
    return _q(x1), (_q(s) - _q(x1) - _q(x2)) / 2.0, _q(x2)


def _hyperbolic_distance(z1, z2) -> float:
    (u1, v1), (u2, v2) = z1, z2
    return math.acosh(1.0 + ((u1 - u2) ** 2 + (v1 - v2) ** 2) / (2.0 * v1 * v2))


def make_pair(draw: Spread, geometry: str):
    """A nonsingular pair of the given divisor geometry whose divisors interact.

    The distributions are those of `checks.random_pair`, the generator of the
    `symmetry` and `o2-invariance` suites of `check full`; only the geometry
    is fixed by the caller instead of drawn.  The parameter that sets the
    cost most (for CM-CM the distance d of the two points) is drawn first, on
    the stream's best-spread coordinate.
    """
    while True:
        draw.retry()
        if geometry == "cm-cm":
            d = draw.uniform(0.35, 1.2)
            u1, v1 = draw.uniform(-0.5, 0.5), draw.uniform(0.7, 1.3)
            x1 = cm_vector(u1, v1, draw.uniform(0.5, 2.5))
            th = draw.uniform(0.0, 2.0 * math.pi)
            # About hyperbolic distance d from u1 + i v1, the vertical offset
            # squeezed by 0.6 and v2 kept above 0.15, as random_pair does.
            u2 = u1 + v1 * math.sinh(d) * math.cos(th)
            v2 = max(v1 * (math.cosh(d) + 0.6 * math.sinh(d) * math.sin(th)), 0.15)
            x2 = cm_vector(u2, v2, draw.uniform(0.5, 2.5))
            if _hyperbolic_distance((u1, v1), (u2, v2)) < 0.3:
                continue
        elif geometry == "cm-geo":
            spread = draw.uniform(0.8, 2.5)
            u1, v1 = draw.uniform(-0.5, 0.5), draw.uniform(0.7, 1.3)
            x1 = cm_vector(u1, v1, draw.uniform(0.5, 2.5))
            off = draw.uniform(-0.4, 0.4)
            x2 = geodesic_vector(u1 + off - spread * v1, u1 + off + spread * v1, -draw.uniform(0.4, 2.0))
        else:
            u1 = draw.uniform(-0.5, 0.5)
            x1 = geodesic_vector(u1 - draw.uniform(0.8, 2.0), u1, -draw.uniform(0.4, 2.0))
            x2 = geodesic_vector(
                u1 - draw.uniform(0.2, 0.7), u1 + draw.uniform(0.5, 1.5), -draw.uniform(0.4, 2.0)
            )
        t1, m, t2 = _gram(x1, x2)
        if abs(t1 * t2 - m * m) < 0.15 or max(abs(t1), abs(m), abs(t2)) > 6.0:
            continue
        return x1, x2


def rotation(rng: random.Random) -> np.ndarray:
    """An element of O(2), a reflection half the time."""
    th = rng.uniform(0.3, 2.0 * math.pi - 0.3)
    k = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return k @ np.diag([1.0, -1.0]) if rng.random() < 0.5 else k


def conjugator(rng: random.Random) -> np.ndarray:
    """g with det g = +-1; x -> g x g^-1 is an isometry of the ambient space."""
    p, q, r = rng.uniform(0.7, 1.4), rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
    g = np.array([[p, q], [r, (1.0 + q * r) / p]])
    return g @ np.diag([1.0, -1.0]) if rng.random() < 0.5 else g


def rotate(pair, k: np.ndarray):
    x1, x2 = (np.array(x) for x in pair)
    return tuple(k[0, 0] * x1 + k[1, 0] * x2), tuple(k[0, 1] * x1 + k[1, 1] * x2)


def move(x, shift: float, mirror: bool) -> tuple:
    """x carried by the isometry z -> z + shift, then z -> -conj(z) if mirror.

    Both fix Q and the pairing, and they move every divisor rigidly, so
    lambda_star takes the same value and, in the program as it stands, the
    same quadrature nodes on the moved pair.
    """
    a, b, g = x
    a, b = a + shift * g, b - 2.0 * shift * a - shift * shift * g
    return (-a if mirror else a, b, g)


def conjugate(pair, g: np.ndarray):
    ginv = np.linalg.inv(g)

    def conj(x):
        a, b, c = x
        y = g @ np.array([[a, b], [c, -a]]) @ ginv
        return (y[0, 0], y[0, 1], y[1, 0])

    return conj(pair[0]), conj(pair[1])


@dataclass
class PairItem:
    """lambda_star on a pair beside its swapped, O(2)-rotated and conjugated partners."""

    geometry: str
    pair: tuple
    rotation: np.ndarray
    conjugator: np.ndarray
    shift: float = 0.0
    mirror: bool = False
    results: dict = field(default_factory=dict)

    def variants(self) -> dict:
        """The four pairs, each carried by the item's isometry (see `move`)."""
        x1, x2 = self.pair
        pairs = {
            "base": (x1, x2),
            "swapped": (x2, x1),
            "rotated": rotate(self.pair, self.rotation),
            "conjugated": conjugate(self.pair, self.conjugator),
        }
        return {
            key: tuple(move(y, self.shift, self.mirror) for y in ys) for key, ys in pairs.items()
        }

    def run(self, rec: Recorder, lats: Lattices) -> None:
        for key, (y1, y2) in self.variants().items():
            config = starprod.PairConfig.from_vectors(y1, y2)
            self.results[key] = rec.call("lambda_star", starprod.lambda_star, config)

    def check(self, lats: Lattices) -> list[str]:
        base = self.results.get("base")
        if base is None:
            return []
        out = []
        for key in ("swapped", "conjugated"):
            other = self.results.get(key)
            if other is not None and not oracles.same_within_errors(
                base.value, base.err, other.value, other.err
            ):
                out.append(f"lambda_star {self.geometry} {key}: {base} vs {other}")
        rotated = self.results.get("rotated")
        if rotated is not None and not oracles.o2_ok(base.value, rotated.value):
            out.append(f"lambda_star {self.geometry} rotated: {base} vs {rotated}")
        return out


@dataclass
class ZhatItem:
    """z_hat_indefinite(d1, T, v) by the symmetric and by the triangular root of v.

    `known_fault` marks the one input on which the program is known to fail
    this check (see ZHAT_KNOWN_FAULT); there a disagreement counts as a
    failed operation, anywhere else as a wrong answer.
    """

    t: tuple[int, int, int]
    v: tuple
    known_fault: bool = False
    results: dict = field(default_factory=dict)
    fault: str = ""

    def run(self, rec: Recorder, lats: Lattices) -> None:
        t1, m, t2 = self.t
        t_mat = ((t1, m), (m, t2))
        for root in ("symmetric", "triangular"):
            self.results[root] = rec.call(
                "z_hat", starprod.z_hat_indefinite, lats["d1"], t_mat, self.v, square_root=root
            )

    def check(self, lats: Lattices) -> list[str]:
        sym, tri = self.results.get("symmetric"), self.results.get("triangular")
        if sym is None or tri is None:
            return []
        if sym.orbits != tri.orbits:
            return [f"z_hat T={self.t} v={self.v}: {sym.orbits} orbits against {tri.orbits}"]
        if oracles.same_within_errors(sym.value, sym.err, tri.value, tri.err):
            return []
        message = f"z_hat T={self.t} v={self.v}: symmetric {sym} vs triangular {tri}"
        if self.known_fault:
            self.fault = message
            return []
        return [message]


# The T of the a-independence suite of `check full`, signatures (1,1) and (0,2).
ZHAT_T = (
    (1, 0, -1), (1, 1, -1), (2, 1, -1), (1, 2, 1), (3, 1, -2),
    (-1, 0, -1), (-1, 1, -2), (-2, 1, -2), (-1, 0, -2), (-3, 2, -2),
)


def _zhat_weights(count: int) -> list[tuple]:
    """v drawn as the a-independence suite draws it, from a fixed stream."""
    rng = random.Random("heights:z_hat")
    out = []
    for _ in range(count):
        a11, a22 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a12 = rng.uniform(-0.4, 0.4) * math.sqrt(a11 * a22)
        out.append(((a11, a12), (a12, a22)))
    return out


# Every heights round runs one fixed set of inputs, and the seed moves each
# pair by its own isometry (`move`) and sets the order of the calls.  So
# every round, whatever its seed, costs the same and gets the same verdicts,
# and run-to-run spread measures the machine, not the draw.  Freely drawn
# inputs cannot be kept: lambda_star under-reports its error bar on rare
# inputs, so a check would fail on some seeds and not others (one conjugated
# CM-geodesic pair in 1,200 pair items, one z_hat comparison in 450), and
# the cost of a call varies tenfold with the pair, so three rounds of draws
# spread lambda_p50_ms by 0.2 to 0.3 of its median.  The set is the first
# points of the Spread streams, with random_pair's distributions, and is not
# filtered; `python3 perfbench/margins.py` runs it and prints how far each
# check is from failing.  The one known failing z_hat input runs in every
# round and counts as a failed operation each time, so the fault shows.

# Pairs per round by divisor geometry, three times random_pair's 3:2:1 mix:
# 72 lambda_star calls, enough for the TAIL_PERCENTILE in one round.
PAIRS_PER_ROUND = {"cm-cm": 9, "cm-geo": 6, "geo-geo": 3}


def _pair_set(geometry: str, count: int) -> tuple:
    rng = random.Random(f"heights:{geometry}")
    return tuple(
        (make_pair(Spread(f"heights:{geometry}", i), geometry), rotation(rng), conjugator(rng))
        for i in range(count)
    )


PAIR_SET = {geometry: _pair_set(geometry, count) for geometry, count in PAIRS_PER_ROUND.items()}

ZHAT_SET = tuple(zip(ZHAT_T, _zhat_weights(len(ZHAT_T))))
ZHAT_KNOWN_FAULT = (
    (1, 0, -1),
    ((0.9272104424816127, -0.25692769098094836), (-0.25692769098094836, 1.0205161133427387)),
)


def heights_round(seed: int, k: int, rng: random.Random) -> list:
    items: list = [
        PairItem(geometry, *inputs, shift=rng.uniform(-0.5, 0.5), mirror=rng.random() < 0.5)
        for geometry, inputs_set in PAIR_SET.items()
        for inputs in inputs_set
    ]
    items += [ZhatItem(t, v) for t, v in ZHAT_SET]
    items.append(ZhatItem(*ZHAT_KNOWN_FAULT, known_fault=True))
    rng.shuffle(items)
    return items


# --- green-sums -----------------------------------------------------------------

# Points per round by lattice; every fifth uses a small weight v, which makes
# the tail certificate fail at the configured bound and double it.  The norm
# t and the weight of point i follow from i alone, so every round has the
# same number of points of each (lattice, t, v) class and the seed moves the
# points z; the class sets a call's cost far more than z does.
BIG_XI_POINTS = {"d1": 90, "d6": 30, "d10": 30}
REGULAR_W = (0.5, 1.0, 2.0)
SMALL_W = (0.1, 0.15)


def domain_point(draw: Spread) -> tuple[float, float]:
    """A point of the modular domain |u| <= 1/2, |z| >= 1, below v = 2.5."""
    while True:
        u, v = draw.uniform(-0.5, 0.5), draw.uniform(math.sqrt(3.0) / 2.0, 2.5)
        if u * u + v * v >= 1.0:
            return u, v
        draw.retry()


@dataclass
class BigXiItem:
    lattice: str
    t: int
    w: float
    z: tuple[float, float]
    result: object = None

    def run(self, rec: Recorder, lats: Lattices) -> None:
        u, v = self.z
        self.result = rec.call("big_xi", greens.big_xi, lats[self.lattice], self.t, self.w, UHPoint(u, v))

    def check(self, lats: Lattices) -> list[str]:
        res = self.result
        if res is None:
            return []
        lat = lats[self.lattice]
        if not oracles.exclusions_ok(
            lat, self.t, *self.z, res.excluded, greens.DEFAULT_SPEC.singular_r_floor
        ):
            return [f"big_xi {self.lattice} t={self.t} z={self.z}: excluded {res.excluded} "
                    "are not singular terms of norm t"]
        ref, magnitude = oracles.brute_force_big_xi(lat, self.t, self.w, *self.z, skip=res.excluded)
        if oracles.big_xi_ok(res.value, res.tail_bound, ref, magnitude):
            return []
        return [f"big_xi {self.lattice} t={self.t} w={self.w} z={self.z}: {res} vs {ref!r}"]


@dataclass
class OrbifoldItem:
    """The archimedean degree of z -> big_xi(d1, -2, 1, z), as a user passes it."""

    result: object = None

    def run(self, rec: Recorder, lats: Lattices) -> None:
        d1 = lats["d1"]

        def green_sum(z):
            rec.tick()
            return greens.big_xi(d1, ORBIFOLD_T, ORBIFOLD_W, z, ORBIFOLD_SPEC).value

        self.result = rec.call(
            "orbifold", identities.arithmetic_degree_archimedean, green_sum, ORBIFOLD_SPEC
        )

    def check(self, lats: Lattices) -> list[str]:
        if self.result is None:
            return []
        ref, ref_err = lats.orbifold_reference()
        if oracles.orbifold_ok(self.result.value, self.result.err, ref, ref_err):
            return []
        return [f"orbifold: {self.result} vs reference {ref!r} +- {ref_err:.2e}"]


def green_round(seed: int, k: int, rng: random.Random) -> list:
    items: list = []
    for name, count in BIG_XI_POINTS.items():
        for i in range(count):
            draw = Spread(f"green-sums:{seed}:{name}", k * count + i)
            ts = REPRESENTED[name]
            w = SMALL_W[(i // 5) % 2] if i % 5 == 4 else REGULAR_W[(i // len(ts)) % 3]
            items.append(BigXiItem(name, ts[i % len(ts)], w, domain_point(draw)))
    items.append(OrbifoldItem())
    return items


# --- exact-arith -------------------------------------------------------------------

DEGREE_N = (50, 100, 200)
PAIR_ORBITS_PER_SIGNATURE = 6
HURWITZ_M = ((100, 1000), (1000, 3000))

# Generators of GL2(Z) for the changes of basis T -> g^T T g.
_GL2_GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (0, -1)), ((1, 0), (1, 1)))


def gl2_element(rng) -> tuple:
    g = ((1, 0), (0, 1))
    for _ in range(rng.randint(2, 4)):
        (a, b), (c, d) = g
        (p, q), (r, s) = rng.choice(_GL2_GENERATORS)
        g = ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))
    return g


@dataclass
class DegreeItem:
    n: int
    w: float
    result: object = None

    def run(self, rec: Recorder, lats: Lattices) -> None:
        self.result = rec.call("degree_series", identities.degree_series, lats["d1"], self.w, self.n)

    def check(self, lats: Lattices) -> list[str]:
        if self.result is None or oracles.degree_series_ok(self.result.coefficient, self.n):
            return []
        return [f"degree_series N={self.n}: coefficients differ from H(4t)"]


@dataclass
class HurwitzItem:
    """Both class-number routes at every 4m - s^2 of the Kronecker-Hurwitz relation at m."""

    m: int
    results: dict = field(default_factory=dict)

    def run(self, rec: Recorder, lats: Lattices) -> None:
        for n in oracles.hurwitz_arguments(self.m):
            self.results[n] = (
                rec.call("hurwitz", binforms.hurwitz_class_number, n),
                rec.call("hurwitz", binforms.hurwitz_class_number_boxdedup, n),
            )

    def check(self, lats: Lattices) -> list[str]:
        if any(r is None for pair in self.results.values() for r in pair):
            return []
        out = [
            f"H({n}): reduced {a}, box {b}, count {oracles.class_number_count(n)}"
            for n, (a, b) in self.results.items()
            if not a == b == oracles.class_number_count(n)
        ]
        for route in (0, 1):
            values = {n: pair[route] for n, pair in self.results.items()}
            if not oracles.kronecker_hurwitz_ok(values, self.m):
                out.append(f"Kronecker-Hurwitz relation fails at m={self.m} (route {route})")
        return out


def _mandatory_primes(t_mat, d: int) -> set[int]:
    (t1, m), (_, t2) = t_mat
    return {2} | oracles.prime_factors(d * t1 * (t1 * t2 - m * m))


@dataclass
class ClassifyItem:
    """classify(T, D) beside classify(g^T T g, D)."""

    t: tuple
    d: int
    g: tuple
    results: tuple = ()

    def run(self, rec: Recorder, lats: Lattices) -> None:
        moved = oracles.transform(self.t, self.g)
        self.results = tuple(rec.call("classify", identities.classify, tm, self.d) for tm in (self.t, moved))

    def check(self, lats: Lattices) -> list[str]:
        if any(r is None for r in self.results):
            return []
        out = []
        for tm, res in zip((self.t, oracles.transform(self.t, self.g)), self.results):
            p = res.fundamental_prime
            if not oracles.classify_prime_ok(p, tm, self.d):
                out.append(f"classify T={tm} D={self.d}: prime {p} outside the mandatory set")
            if res.supersingular_support != (p is not None):
                out.append(f"classify T={tm} D={self.d}: support flag disagrees with prime {p}")
        a, b = self.results
        if (a.fundamental_prime, a.regular) != (b.fundamental_prime, b.regular):
            out.append(f"classify D={self.d}: T={self.t} gives {a}, g^T T g gives {b}")
        return out


def classify_item(draw: Spread, diagonal: bool, d: int) -> ClassifyItem:
    while True:
        draw.retry()
        t1, t2 = draw.randint(1, 12), draw.randint(1, 12)
        m = 0 if diagonal else draw.randint(1, 6)
        if t1 * t2 - m * m <= 0:
            continue
        t_mat, g = ((t1, m), (m, t2)), gl2_element(draw)
        primes = _mandatory_primes(t_mat, d) | _mandatory_primes(oracles.transform(t_mat, g), d)
        if max(primes) <= CLASSIFY_PRIME_LIMIT:
            return ClassifyItem(t_mat, d, g)


@dataclass
class PairOrbitItem:
    """pair_orbit_reps(T) beside pair_orbit_reps(g^T T g)."""

    t: tuple[int, int, int]
    g: tuple
    results: tuple = ()

    def moved(self) -> tuple[int, int, int]:
        t1, m, t2 = self.t
        (a, b), (_, c) = oracles.transform(((t1, m), (m, t2)), self.g)
        return a, b, c

    def run(self, rec: Recorder, lats: Lattices) -> None:
        self.results = tuple(
            rec.call("pair_orbits", splitorbits.pair_orbit_reps, *t) for t in (self.t, self.moved())
        )

    def check(self, lats: Lattices) -> list[str]:
        if any(r is None for r in self.results):
            return []
        out = [
            f"pair_orbit_reps{t}: a representative has the wrong gram"
            for t, reps in zip((self.t, self.moved()), self.results)
            if not oracles.pair_reps_ok(reps, *t)
        ]
        if len(self.results[0]) != len(self.results[1]):
            out.append(f"pair_orbit_reps: {len(self.results[0])} orbits at {self.t}, "
                       f"{len(self.results[1])} at {self.moved()}")
        return out


def pair_orbit_item(draw: Spread, signature: str) -> PairOrbitItem:
    while True:
        draw.retry()
        if signature == "1,1":
            t1, m, t2 = draw.randint(-4, 4), draw.randint(-3, 3), draw.randint(-4, 4)
            if t1 * t2 - m * m >= 0:
                continue
        else:
            t1, m, t2 = -draw.randint(1, 4), draw.randint(-2, 2), -draw.randint(1, 4)
            if t1 * t2 - m * m <= 0:
                continue
        return PairOrbitItem((t1, m, t2), gl2_element(draw))


def exact_round(seed: int, k: int, rng: random.Random) -> list:
    w = rng.uniform(0.5, 2.0)
    items: list = [DegreeItem(n, w) for n in DEGREE_N]
    for lo, hi in HURWITZ_M:
        items.append(HurwitzItem(Spread(f"exact-arith:{seed}:m{lo}", k).randint(lo, hi - 1)))
    # Each round classifies at every D once, so the D of a call, which sets
    # much of its cost, has the same mix in every round; diagonal and
    # general T alternate between rounds.
    for j, d in enumerate(SQUAREFREE_D):
        kind = ("diagonal", "general")[(j + k) % 2]
        draw = Spread(f"exact-arith:{seed}:{kind}", len(SQUAREFREE_D) * k + j)
        items.append(classify_item(draw, kind == "diagonal", d))
    for sig in ("1,1", "0,2"):
        for j in range(PAIR_ORBITS_PER_SIGNATURE):
            draw = Spread(f"exact-arith:{seed}:{sig}", PAIR_ORBITS_PER_SIGNATURE * k + j)
            items.append(pair_orbit_item(draw, sig))
    return items


_ROUNDS = {"heights": heights_round, "green-sums": green_round, "exact-arith": exact_round}


def make_round(name: str, seed: int, k: int) -> list:
    """Round k of a workload at a seed; depends on nothing else.

    Inputs that set a call's cost come from Spread streams (for heights,
    from the fixed set above); the rest (the isometries and order of a
    heights round, the weight v of a degree series) from a generator seeded
    by (name, seed, k).
    """
    return _ROUNDS[name](seed, k, random.Random(f"{name}:{seed}:{k}"))


# --- a run ------------------------------------------------------------------------


@dataclass
class RunResult:
    recorder: Recorder
    rounds: int
    failures: list[str]
    faults: list[str]
    peak_rss_mb: float

    def seconds(self) -> dict[str, list[float]]:
        """Per operation, the seconds of each call at reference speed."""
        out: dict[str, list[float]] = defaultdict(list)
        for op, seconds, _ in self.recorder.scaled():
            out[op].append(seconds)
        return out

    def wall_s(self) -> float:
        """Mean program seconds per round of the workload, at reference speed."""
        per_round = defaultdict(float)
        for _, seconds, rnd in self.recorder.scaled():
            if rnd != "probe":
                per_round[rnd] += seconds
        return statistics.fmean(per_round.values())

    def kernel_scale(self) -> float:
        """Reference speed over this run's median speed, for whole-run figures."""
        return reference.REFERENCE_SECONDS / statistics.median(self.recorder.kernel_seconds)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, lats: Lattices, tracer=None) -> RunResult:
    """Whole rounds until `seconds` have passed, then the probe, then the checks."""
    # Kernel samples inside a traced call would be charged to its spans.
    rec = Recorder(ticks=tracer is None)
    items: list = []
    probe: list = []
    start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS[name] or time.perf_counter() - start < seconds:
        rec.round = k
        if tracer is not None:
            tracer.phase = k
        for item in make_round(name, seed, k):
            item.run(rec, lats)
            items.append(item)
        k += 1
    main_end = time.perf_counter()
    rec.round = "probe"
    if tracer is not None:
        tracer.phase = "probe"
    for other in WORKLOADS:
        if other != name:
            for j in range(MIN_ROUNDS[other]):
                probe += make_round(other, PROBE_SEED, j)
    for item in probe:
        item.run(rec, lats)
    rec.sample_kernel()
    rss = peak_rss_mb()
    probed = time.perf_counter()
    failures = rec.probe_errors + [msg for item in items + probe for msg in item.check(lats)]
    # A known fault counts as a failed operation in the workload's own rounds.
    faults = [item.fault for item in items if getattr(item, "fault", "")]
    rec.failed += len(faults)
    print(f"main {main_end - start:.1f} s, probe {probed - main_end:.1f} s, "
          f"checks {time.perf_counter() - probed:.1f} s", file=sys.stderr)
    return RunResult(rec, k, failures, faults, rss)
