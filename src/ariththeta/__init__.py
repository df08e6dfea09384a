"""Desk-scale arithmetic of special cycles on Shimura curves.

Quaternion arithmetic, trace-zero lattices, Green functions and star-product
heights, degree generating series, and cycle classification predicates.
"""

from .quatalg import (
    QuaternionAlgebra,
    QuaternionElement,
    definite_twin,
    hilbert_symbol,
    indefinite_algebra_of_discriminant,
    make_algebra,
)
from .binforms import hurwitz_class_number
from .lattice import (
    Order,
    TraceZeroLattice,
    bundled_order,
    enumerate_by_majorant,
    load_order,
    majorant,
    representation_count,
    trace_zero_lattice,
    weighted_orbit_degree,
)

__all__ = [
    "QuaternionAlgebra",
    "QuaternionElement",
    "make_algebra",
    "hilbert_symbol",
    "definite_twin",
    "indefinite_algebra_of_discriminant",
    "Order",
    "TraceZeroLattice",
    "bundled_order",
    "load_order",
    "trace_zero_lattice",
    "majorant",
    "enumerate_by_majorant",
    "representation_count",
    "hurwitz_class_number",
    "weighted_orbit_degree",
]

__version__ = "0.1.0"
