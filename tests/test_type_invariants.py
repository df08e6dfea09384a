"""Invariants of the small value types."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ariththeta import binforms
from ariththeta import identities as idn
from ariththeta import numtheory as nt
from ariththeta.errors import PreconditionViolation, QuadratureFailure
from ariththeta.greens import QuadratureSpec, UHPoint, beta1, big_xi
from ariththeta.lattice import enumerate_by_majorant, majorant, representation_count, weighted_orbit_degree
from ariththeta.quatalg import definite_twin, hilbert_symbol, indefinite_algebra_of_discriminant, make_algebra
from ariththeta.splitorbits import orbit_reps, pair_orbit_reps
from ariththeta.starprod import PairConfig, z_hat_indefinite


def test_lattice_vector_q_agrees_with_element_norm(lat_d1, lat_d6, lat_d10):
    # Q from the gram matrix equals nu of the spanned quaternion element.
    coords = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (-4, 5, 1)]
    for lat in (lat_d1, lat_d6, lat_d10):
        for n in coords:
            el = lat.element(n)
            assert el.trace() == 0
            assert lat.q_value(n) == el.norm()


def test_uhpoint_validation():
    with pytest.raises(PreconditionViolation):
        UHPoint(0.0, 0.0)
    with pytest.raises(PreconditionViolation):
        UHPoint(0.0, -1.0)
    for u, v in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(PreconditionViolation):
            UHPoint(u, v)
    assert UHPoint(0.5, 2.0).z == complex(0.5, 2.0)
    # Wrong types are typed errors naming the field, not a bare TypeError.
    for u, v, name in (("0", 1.0, "u"), (0.0, None, "v"), (True, 1.0, "u"), (0.0, "1", "v")):
        with pytest.raises(PreconditionViolation, match=f"UHPoint {name} must be a real number"):
            UHPoint(u, v)
    assert UHPoint(Fraction(1, 2), np.float32(2.0)).z == complex(0.5, 2.0)
    assert UHPoint(np.float64(0.5), Fraction(2)).z == complex(0.5, 2.0)


@pytest.mark.parametrize("v", [1e-320, 1e-160, 1e300])
def test_majorant_out_of_float_range_is_a_quadrature_failure(lat_d1, v):
    # v^2 underflows to 0, or an entry overflows: typed, not ZeroDivisionError or LinAlgError.
    with pytest.raises(QuadratureFailure):
        majorant(lat_d1, UHPoint(0.0, v))
    with pytest.raises(QuadratureFailure):
        big_xi(lat_d1, 1, 1.0, UHPoint(0.0, v))


def test_quadrature_spec_validation():
    with pytest.raises(PreconditionViolation):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(PreconditionViolation):
        QuadratureSpec(max_cells=0)
    for bad in (
        {"abs_tol": math.inf},
        {"rel_tol": math.nan},
        {"truncation_majorant_bound": math.inf},
        {"max_cells": 1.5},
        {"max_cells": True},
    ):
        with pytest.raises(PreconditionViolation):
            QuadratureSpec(**bad)
    wrong_types = (("rel_tol", "x"), ("abs_tol", None), ("rel_tol", True), ("singular_r_floor", [1e-12]))
    for name, value in wrong_types:
        with pytest.raises(PreconditionViolation, match=f"{name} must be a real number"):
            QuadratureSpec(**{name: value})
    spec = QuadratureSpec(
        rel_tol=Fraction(1, 1000), abs_tol=np.float32(1e-6), truncation_majorant_bound=np.float64(48)
    )
    assert spec.rel_tol == Fraction(1, 1000)


@pytest.mark.parametrize(
    "v, n",
    [
        (1.0, 2.5),
        (1.0, True),
        (1.0, "3"),
        (1.0, None),
        (1.0, 0),
        ("x", 3),
        (True, 3),
        (None, 3),
        (math.inf, 3),
        (math.nan, 3),
        (0.0, 3),
        (-1.0, 3),
    ],
    ids=[
        "n-float",
        "n-bool",
        "n-str",
        "n-none",
        "n-zero",
        "v-str",
        "v-bool",
        "v-none",
        "v-inf",
        "v-nan",
        "v-zero",
        "v-negative",
    ],
)
def test_degree_series_arguments_are_typed(lat_d1, v, n):
    # Each ends in the typed error, never a bare TypeError from range or a comparison.
    with pytest.raises(PreconditionViolation):
        idn.degree_series(lat_d1, v, n)


def test_degree_series_accepts_integral_and_real_types(lat_d1):
    base = idn.degree_series(lat_d1, 1.0, 4).coefficients
    assert idn.degree_series(lat_d1, Fraction(1, 3), np.int64(4)).coefficients == base
    assert idn.degree_series(lat_d1, np.float32(2.0), 4).coefficients == base


def test_classification_regular_undefined_without_prime():
    c = idn.classify(((3, 0), (0, 5)), 6)
    assert c.fundamental_prime is None
    assert c.regular is None
    assert c.supersingular_support is False


@pytest.mark.parametrize(
    "call",
    [
        lambda: nt.factorint(0),
        lambda: nt.valuation(0, 3),
        lambda: nt.valuation(4, 1),
        lambda: nt.jacobi_symbol(2, 8),
        lambda: nt.jacobi_symbol(2, -3),
        lambda: nt.field_discriminant(36),
        lambda: nt.integer_kernel([]),
    ],
    ids=["factorint-0", "valuation-0", "valuation-at-1", "jacobi-even", "jacobi-negative", "field-square", "kernel-empty"],
)
def test_numtheory_preconditions_are_typed(call):
    with pytest.raises(PreconditionViolation):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda d1, lip: big_xi(d1, 2.0, 1.0, UHPoint(0.1, 1.2)), "t must be an integer"),
        (lambda d1, lip: representation_count(lip, 1.5), "the norm must be an integer"),
        (lambda d1, lip: enumerate_by_majorant(d1, UHPoint(0.1, 1.2), 4.0, norm=1.0), "the norm must be an integer"),
        (lambda d1, lip: big_xi(d1, True, 1.0, UHPoint(0.1, 1.2)), "t must be an integer"),
        (lambda d1, lip: big_xi(d1, "1", 1.0, UHPoint(0.1, 1.2)), "t must be an integer"),
        (lambda d1, lip: big_xi(d1, 1, "1", UHPoint(0.1, 1.2)), "v must be a real number"),
        (lambda d1, lip: big_xi(d1, 1, math.inf, UHPoint(0.1, 1.2)), "v must be finite and positive"),
        (lambda d1, lip: enumerate_by_majorant(d1, UHPoint(0.1, 1.2), 4.0, norm=True), "the norm must be an integer"),
        (lambda d1, lip: orbit_reps(2.0), "^t must be an integer"),
        (lambda d1, lip: pair_orbit_reps(1.5, 0, -1), "^t1 must be an integer"),
        (lambda d1, lip: weighted_orbit_degree(d1, 2.5), "^t must be an integer"),
        (lambda d1, lip: beta1("1"), "beta1 r must be a real number"),
        (lambda d1, lip: idn.constant_c("0", 6, Fraction(1)), "hodge_pairing must be a real number"),
        (lambda d1, lip: idn.arithmetic_degree_archimedean(float, cusp_height="4"), "cusp_height must be a real number"),
        (lambda d1, lip: z_hat_indefinite(d1, ((1, 0), (0, -1)), "x"), "an entry of v must be a real number"),
        (lambda d1, lip: PairConfig.from_vectors(("1", 0, 0), (0, 1, 0)), "a vector entry must be a real number"),
        (lambda d1, lip: make_algebra(0.1, -1), "^a must be a rational number"),
        (lambda d1, lip: make_algebra(-1, True), "^b must be a rational number"),
        (lambda d1, lip: hilbert_symbol(3, 0.5, 5), "^b must be a rational number"),
        (lambda d1, lip: make_algebra(-1, -1).element(0.1), "^a quaternion coefficient must be a rational number"),
        (lambda d1, lip: make_algebra(-1, -1).element(0, True), "^a quaternion coefficient must be a rational number"),
        (lambda d1, lip: d1.element((0.5, 0, 0)), "^a lattice coordinate must be an integer"),
        (lambda d1, lip: d1.q_value((1.5, 0, 0)), "^a lattice coordinate must be an integer"),
        (lambda d1, lip: d1.q_value((True, 0, 0)), "^a lattice coordinate must be an integer"),
        (lambda d1, lip: d1.inner((1, 0, 0), (0, Fraction(1, 2), 0)), "^a lattice coordinate must be an integer"),
        (lambda d1, lip: d1.q_value((1, 0)), "^lattice coordinates must be three integers"),
        (lambda d1, lip: d1.inner(5, (1, 0, 0)), "^lattice coordinates must be three integers"),
    ],
    ids=[
        "big_xi",
        "representation_count",
        "enumerate_by_majorant",
        "big_xi-t-bool",
        "big_xi-t-str",
        "big_xi-v-str",
        "big_xi-v-inf",
        "enumerate_by_majorant-bool",
        "orbit_reps",
        "pair_orbit_reps",
        "weighted_orbit_degree",
        "beta1-str",
        "constant_c-str",
        "orbifold-cusp-str",
        "z_hat-v-str",
        "pair-str",
        "algebra-float",
        "algebra-bool",
        "hilbert-float",
        "quaternion-float",
        "quaternion-bool",
        "lattice-element-float",
        "lattice-q-float",
        "lattice-q-bool",
        "lattice-inner-fraction",
        "lattice-q-two-coordinates",
        "lattice-inner-int",
    ],
)
def test_non_integer_norm_is_a_typed_error(lat_d1, lat_lipschitz, call, match):
    # The message names the argument, not a discriminant derived from it.
    with pytest.raises(PreconditionViolation, match=match):
        call(lat_d1, lat_lipschitz)


@pytest.mark.parametrize(
    "call",
    [
        lambda d1, alg: idn.classify(((1.5, 0), (0, 1)), 6),
        lambda d1, alg: idn.fundamental_prime(((1.5, 0), (0, 1)), 6),
        lambda d1, alg: z_hat_indefinite(d1, ((1.5, 0), (0, -1)), ((1.0, 0.0), (0.0, 1.0))),
        lambda d1, alg: hilbert_symbol(2, 3, 7.5),
        lambda d1, alg: hilbert_symbol(2, 3, "x"),
        lambda d1, alg: definite_twin(alg, 5.0),
        lambda d1, alg: indefinite_algebra_of_discriminant(6.0),
    ],
    ids=["classify", "fundamental_prime", "z_hat_indefinite", "hilbert-7.5", "hilbert-str", "twin-5.0", "algebra-6.0"],
)
def test_non_integer_arguments_are_not_truncated(lat_d1, call):
    # Each used to run on int() of its argument (1.5 -> 1, 7.5 -> 7), or raise a bare ValueError.
    with pytest.raises(PreconditionViolation, match="must be an integer"):
        call(lat_d1, indefinite_algebra_of_discriminant(6))


def test_exact_coordinates_pass(lat_d1):
    assert lat_d1.q_value((np.int64(2), 1, 0)) == lat_d1.q_value((2, 1, 0))
    assert lat_d1.element((np.int64(2), 1, 0)) == lat_d1.element((2, 1, 0))
    alg = make_algebra(-1, -1)
    assert alg.element(Fraction(1, 2), np.int64(3)).coeffs == (Fraction(1, 2), 3, 0, 0)


def test_numpy_integer_norms_pass(lat_d1, lat_lipschitz):
    z = UHPoint(0.1, 1.2)
    t = np.int64(2)
    assert enumerate_by_majorant(lat_d1, z, 20.0, norm=t) == enumerate_by_majorant(lat_d1, z, 20.0, norm=2)
    assert big_xi(lat_d1, t, 1.0, z) == big_xi(lat_d1, 2, 1.0, z)
    assert representation_count(lat_lipschitz, np.int64(5)) == 24


@pytest.mark.parametrize(
    "call",
    [
        lambda: binforms.hurwitz_class_number(7.5),
        lambda: binforms.hurwitz_class_number(3.0),
        lambda: binforms.hurwitz_class_number_boxdedup(3.0),
        lambda: binforms.hurwitz_class_number_boxdedup(Fraction(3)),
        lambda: binforms.reduced_classes(-3.0),
        lambda: binforms.reduced_classes("-3"),
        lambda: binforms.hurwitz_class_number(True),
    ],
    ids=[
        "hurwitz-7.5",
        "hurwitz-3.0",
        "boxdedup-3.0",
        "boxdedup-fraction",
        "classes-float",
        "classes-str",
        "hurwitz-bool",
    ],
)
def test_non_integer_class_number_argument_is_a_typed_error(call):
    with pytest.raises(PreconditionViolation, match="must be an integer"):
        call()


def test_numpy_integer_class_number_arguments_pass():
    for route in (binforms.hurwitz_class_number, binforms.hurwitz_class_number_boxdedup):
        assert route(np.int64(23)) == route(23) == 3
    assert binforms.reduced_classes(np.int32(-20)) == [(1, 0, 5), (2, 2, 3)]
