"""Invariants of the small value types."""

from fractions import Fraction

import pytest

from ariththeta import identities as idn
from ariththeta import numtheory as nt
from ariththeta.errors import PreconditionViolation
from ariththeta.greens import QuadratureSpec, UHPoint


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
    with pytest.raises(PreconditionViolation):
        UHPoint(0.0, 1.0, sheet=2)
    assert UHPoint(0.5, 2.0, -1).z == complex(0.5, 2.0)


def test_quadrature_spec_validation():
    with pytest.raises(PreconditionViolation):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(PreconditionViolation):
        QuadratureSpec(max_cells=0)


def test_degree_series_constructor_enforces_invariants():
    with pytest.raises(PreconditionViolation):
        idn.DegreeSeries(v=1.0, coefficients={0: Fraction(0)}, hodge_degree=Fraction(1, 12))
    with pytest.raises(PreconditionViolation):
        idn.DegreeSeries(
            v=1.0,
            coefficients={0: Fraction(-1, 12), -1: Fraction(1)},
            hodge_degree=Fraction(1, 12),
        )


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
        lambda: nt.jacobi_symbol(2, 8),
        lambda: nt.jacobi_symbol(2, -3),
        lambda: nt.field_discriminant(36),
        lambda: nt.integer_kernel([]),
    ],
    ids=["factorint-0", "valuation-0", "jacobi-even", "jacobi-negative", "field-square", "kernel-empty"],
)
def test_numtheory_preconditions_are_typed(call):
    with pytest.raises(PreconditionViolation):
        call()
