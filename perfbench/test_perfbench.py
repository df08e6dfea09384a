"""Tests of the benchmark itself:  python3 -m pytest perfbench

Each oracle accepts the program's answer and rejects one perturbed beyond its
allowance; a seed fixes the inputs; the traced run's work counts repeat.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing
import workloads
from ariththeta import greens, identities, splitorbits, starprod

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def lats():
    return workloads.Lattices()


def _run_item(item, lats):
    item.run(workloads.Recorder(), lats)
    return item


def _bumped(result, amount: float):
    return dataclasses.replace(result, value=result.value + amount)


# --- each oracle accepts the program and rejects a perturbed value -------------


@pytest.mark.parametrize("lattice_name, t, w, z", [("d1", 2, 0.15, (0.2, 1.1)), ("d6", -2, 1.0, (-0.3, 1.4))])
def test_big_xi_oracle(lats, lattice_name, t, w, z):
    item = _run_item(workloads.BigXiItem(lattice_name, t, w, z), lats)
    assert item.result.terms > 0
    assert item.check(lats) == []
    ref, magnitude = oracles.brute_force_big_xi(lats[lattice_name], t, w, *z)
    allowance = item.result.tail_bound + oracles.ROUNDING * magnitude
    item.result = _bumped(item.result, 2.0 * allowance + 1e-300)
    assert item.check(lats) != []


def test_big_xi_exclusions_are_vetted(lats):
    item = _run_item(workloads.BigXiItem("d1", 2, 1.0, (0.2, 1.1)), lats)
    assert item.result.excluded == ()
    assert oracles.exclusions_ok(lats["d1"], 2, 0.2, 1.1, (), 1e-12)
    # A vector of norm 2 whose term is far from singular at z, claimed excluded.
    n = tuple(int(k) for k in oracles._vectors_of_norm(lats["d1"].gram, (3, 3, 3), 2)[0])
    assert not oracles.exclusions_ok(lats["d1"], 2, 0.2, 1.1, (n,), 1e-12)
    assert not oracles.exclusions_ok(lats["d1"], 3, 0.2, 1.1, (n,), 1.0e9)
    item.result = dataclasses.replace(item.result, excluded=(n,))
    assert any("excluded" in msg for msg in item.check(lats))


def test_orbifold_oracle(lats):
    ref, ref_err = lats.orbifold_reference()
    assert 1e-7 < ref < 1e-6 and ref_err < 1e-12
    item = workloads.OrbifoldItem(result=identities.ArchimedeanDegree(ref, 1e-10, 8.0))
    assert item.check(lats) == []
    item.result = identities.ArchimedeanDegree(ref + 2e-10 + 2 * ref_err, 1e-10, 8.0)
    assert item.check(lats) != []


def test_orbifold_reference_is_a_command():
    done = subprocess.run(
        [sys.executable, str(HERE / "oracles.py")], capture_output=True, text=True, timeout=120, check=True
    )
    assert "integral of Xi(-2, 1)" in done.stdout


@pytest.mark.parametrize("geometry", ["cm-cm", "cm-geo", "geo-geo"])
def test_lambda_star_oracles(lats, geometry):
    rng = random.Random(7)
    pair = workloads.make_pair(workloads.Spread("test", 0), geometry)
    item = workloads.PairItem(geometry, pair, workloads.rotation(rng), workloads.conjugator(rng))
    _run_item(item, lats)
    assert item.check(lats) == []
    base = item.results["base"]
    for key in ("swapped", "conjugated"):
        other = item.results[key]
        saved = item.results[key]
        item.results[key] = _bumped(other, 2.0 * (base.err + other.err) + 1e-8)
        assert any(key in msg for msg in item.check(lats))
        item.results[key] = saved
    item.results["rotated"] = _bumped(base, 2.0 * oracles.O2_REL_TOL * (1.0 + abs(base.value)))
    assert any("rotated" in msg for msg in item.check(lats))


def test_z_hat_oracle(lats):
    t, v = workloads.ZHAT_SET[0]
    item = _run_item(workloads.ZhatItem(t, v), lats)
    assert item.results["symmetric"].orbits == 2
    assert item.check(lats) == [] and item.fault == ""
    sym, tri = item.results["symmetric"], item.results["triangular"]
    item.results["triangular"] = _bumped(tri, 2.0 * (sym.err + tri.err) + 1e-8)
    assert any("triangular" in msg for msg in item.check(lats))


def test_z_hat_known_fault_is_a_failed_operation(lats):
    item = _run_item(workloads.ZhatItem(*workloads.ZHAT_KNOWN_FAULT, known_fault=True), lats)
    assert item.check(lats) == []
    assert "symmetric" in item.fault
    # The same disagreement on any other input is a wrong answer.
    again = workloads.ZhatItem(*workloads.ZHAT_KNOWN_FAULT, results=dict(item.results))
    assert again.check(lats) != [] and again.fault == ""


def test_failed_share_is_fixed_per_round(lats, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_ROUNDS", {"heights": 2, "green-sums": 0, "exact-arith": 1})
    result = workloads.run("heights", 3, 0.0, lats)
    rec = result.recorder
    calls = 4 * sum(workloads.PAIRS_PER_ROUND.values()) + 2 * len(workloads.ZHAT_SET) + 2
    assert result.failures == []
    assert (result.rounds, rec.attempted, rec.failed) == (2, 2 * calls, 2)
    # The probe's rounds count in neither.
    result = workloads.run("exact-arith", 3, 0.0, lats)
    assert result.failures == [] and result.recorder.failed == 0


def test_degree_series_oracle(lats):
    item = _run_item(workloads.DegreeItem(30, 1.0), lats)
    assert item.check(lats) == []
    coefficients = dict(item.result.coefficients)
    coefficients[17] += Fraction(1, 2)
    item.result = dataclasses.replace(item.result, coefficients=coefficients)
    assert item.check(lats) != []


def test_class_count_matches_known_values():
    # H(3) = 1/3, H(4) = 1/2, H(7) = 1, H(8) = 1, H(12) = 4/3, H(15) = 2, H(23) = 3
    known = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 12: Fraction(4, 3), 15: 2, 23: 3}
    assert {n: oracles.class_number_count(n) for n in known} == known


def test_hurwitz_oracles(lats):
    item = _run_item(workloads.HurwitzItem(30), lats)
    assert item.check(lats) == []
    reduced, box = item.results[111]
    item.results[111] = (reduced + 1, box)
    messages = item.check(lats)
    assert any("H(111)" in msg for msg in messages)
    assert any("Kronecker-Hurwitz" in msg and "route 0" in msg for msg in messages)


def test_classify_oracles(lats):
    item = _run_item(workloads.ClassifyItem(((3, 1), (1, 5)), 6, ((1, 1), (0, 1))), lats)
    assert item.check(lats) == []
    a, b = item.results
    # The mandatory primes of T = ((3, 1), (1, 5)) at D = 6 are 2, 3 and 7.
    wrong = dataclasses.replace(a, fundamental_prime=11, supersingular_support=True)
    item.results = (wrong, b)
    assert any("outside the mandatory set" in msg for msg in item.check(lats))
    item.results = (dataclasses.replace(a, supersingular_support=not a.supersingular_support), b)
    assert any("support flag" in msg for msg in item.check(lats))
    item.results = (a, dataclasses.replace(b, regular=not b.regular))
    assert any("g^T T g" in msg for msg in item.check(lats))


@pytest.mark.parametrize("t", [(1, 0, -1), (-1, 1, -2)])
def test_pair_orbit_oracles(lats, t):
    item = _run_item(workloads.PairOrbitItem(t, ((0, -1), (1, 1))), lats)
    assert item.check(lats) == []
    reps, moved = item.results
    (x1, x2), rest = reps[0], reps[1:]
    item.results = ([((x1[0] + 1, x1[1], x1[2]), x2)] + list(rest), moved)
    assert any("wrong gram" in msg for msg in item.check(lats))
    item.results = (reps, moved[:-1])
    assert any("orbits" in msg for msg in item.check(lats))


# --- seeds fix the inputs -----------------------------------------------------------


def _inputs(item) -> tuple:
    out = []
    for f in dataclasses.fields(item):
        if f.name in ("result", "results", "fault"):
            continue
        value = getattr(item, f.name)
        out.append(value.tolist() if isinstance(value, np.ndarray) else value)
    return (type(item).__name__, tuple(out))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_inputs(name):
    first = [_inputs(i) for i in workloads.make_round(name, 11, 3)]
    again = [_inputs(i) for i in workloads.make_round(name, 11, 3)]
    other = [_inputs(i) for i in workloads.make_round(name, 12, 3)]
    assert first == again
    assert first != other


def test_heights_round_composition():
    items = workloads.make_round("heights", 5, 0)
    pairs = [i for i in items if isinstance(i, workloads.PairItem)]
    assert [p.geometry for p in pairs].count("cm-cm") == 9
    assert [p.geometry for p in pairs].count("cm-geo") == 6
    assert [p.geometry for p in pairs].count("geo-geo") == 3
    expected = {"cm-cm": (True, True), "cm-geo": (True, False), "geo-geo": (False, False)}
    for p in pairs:
        t1, _, t2 = workloads._gram(*p.pair)
        assert (t1 > 0, t2 > 0) == expected[p.geometry]
    zhat = [i for i in items if isinstance(i, workloads.ZhatItem)]
    assert sorted((i.t, i.v) for i in zhat if not i.known_fault) == sorted(workloads.ZHAT_SET)
    assert [i.known_fault for i in zhat].count(True) == 1


def test_heights_isometries_keep_the_gram():
    pair, rotation, conjugator = workloads.PAIR_SET["cm-cm"][0]
    plain = workloads.PairItem("cm-cm", pair, rotation, conjugator)
    moved = workloads.PairItem("cm-cm", pair, rotation, conjugator, shift=0.3, mirror=True)
    for key, ys in moved.variants().items():
        assert np.allclose(workloads._gram(*ys), workloads._gram(*plain.variants()[key]))
        assert not np.allclose(ys, plain.variants()[key])


@pytest.mark.parametrize("geometry", ["cm-cm", "cm-geo", "geo-geo"])
def test_heights_isometries_keep_value_and_work(lats, geometry, monkeypatch):
    points = []
    integrate = starprod.adaptive_integrate

    def counting(f, *args, **kwargs):
        def g(x, *a, **k):
            points.append(np.size(x))
            return f(x, *a, **k)

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(starprod, "adaptive_integrate", counting)
    runs = []
    for shift, mirror in ((0.0, False), (0.41, True)):
        points.clear()
        item = _run_item(workloads.PairItem(geometry, *workloads.PAIR_SET[geometry][0], shift, mirror), lats)
        runs.append((sum(points), item.results))
    (n0, plain), (n1, moved) = runs
    assert n0 == n1 > 0
    for key, res in plain.items():
        assert moved[key].value == pytest.approx(res.value, rel=1e-9, abs=1e-15)


def test_green_round_composition():
    items = [i for i in workloads.make_round("green-sums", 3, 0) if isinstance(i, workloads.BigXiItem)]
    assert len(items) == sum(workloads.BIG_XI_POINTS.values())
    small = [i for i in items if i.w in workloads.SMALL_W]
    assert len(small) == len(items) // 5
    for i in items:
        u, v = i.z
        assert abs(u) <= 0.5 and u * u + v * v >= 1.0
        assert i.t in workloads.REPRESENTED[i.lattice]
    # Every round, at every seed, has the same (lattice, t, v) classes.
    other = [i for i in workloads.make_round("green-sums", 8, 5) if isinstance(i, workloads.BigXiItem)]
    assert [(i.lattice, i.t, i.w) for i in other] == [(i.lattice, i.t, i.w) for i in items]
    assert [i.z for i in other] != [i.z for i in items]


def test_classify_round_uses_each_d_once():
    for seed, k in ((3, 0), (4, 1)):
        items = [i for i in workloads.make_round("exact-arith", seed, k) if isinstance(i, workloads.ClassifyItem)]
        assert sorted(i.d for i in items) == sorted(workloads.SQUAREFREE_D)


# --- the traced run's counts repeat -----------------------------------------------

EXACT_COUNTS = (
    "quadrature.calls",
    "quadrature.integrand_points",
    "greens.big_xi_terms",
    "greens.big_xi_accept_ratio",
    "greens.bound_doublings",
    "lattice.candidates",
    "lattice.q_value_calls",
    "starprod.zhat_orbits",
    "identities.orbifold_g_calls",
    "quatalg.hilbert_symbol_calls",
)


def _traced_counts(lats) -> dict:
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        tracer.phase = "setup"
        tracer.timed(workloads.Lattices, "setup")()
        result = workloads.run("exact-arith", 4, 0.0, lats, tracer)
    assert result.failures == [] and result.recorder.failed == 0
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def test_traced_counts_repeat(lats):
    first = _traced_counts(lats)
    assert all(value > 0 for value in first.values())
    assert first == _traced_counts(lats)
    # The wrappers are gone again.
    assert starprod.lambda_star.__module__ == "ariththeta.starprod"
    assert greens.big_xi.__module__ == "ariththeta.greens"
    assert splitorbits.orbit_reps.__module__ == "ariththeta.splitorbits"


# --- the command --------------------------------------------------------------------


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "heights", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
