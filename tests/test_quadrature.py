"""adaptive_integrate called directly: pinned results, exact rules, failures.

The pinned values are bit for bit what the batched nodes and the row sums
of _evaluate give.  Summing a cell's weighted values as a row of one array
rounds differently from a per-cell np.dot: against that, the refined
integral's value and point count are equal and its err moves in the 9th
digit, so a change to the summation shows here.
"""

import numpy as np
import pytest

from ariththeta.errors import PreconditionViolation, QuadratureFailure
from ariththeta.quadrature import adaptive_integrate


def _counted(f):
    """f and a one-element list holding the number of points it was given."""
    points = [0]

    def g(u, v):
        points[0] += u.size
        return f(u, v)

    return g, points


def _bump(u, v):
    # Narrow Gaussian times the hyperbolic measure: the 8x6 start refines.
    return np.exp(-((u - 0.3) ** 2 + (v - 1.1) ** 2) / 0.01) / v**2


def _step(u, v):
    # A jump across a slanted line, which no cell size resolves.
    return np.where(u + 0.37 * v > 0.2, 1.0, 0.0)


def test_refined_integral_is_pinned():
    f, seen = _counted(_bump)
    value, err = adaptive_integrate(f, -1.0, 1.0, 0.5, 2.0, abs_tol=1e-10, rel_tol=1e-9)
    assert (value, err) == (0.02629228806381644, 5.799004476682552e-11)
    # 48 start cells of 80 nodes: the integrand needed refinement.
    assert seen[0] == 32320


def test_degree_seven_product_is_exact_for_both_rules():
    rng = np.random.default_rng(7)
    p = np.polynomial.Polynomial(rng.uniform(-1, 1, 8))
    q = np.polynomial.Polynomial(rng.uniform(-1, 1, 8))
    u0, u1, v0, v1 = -0.7, 1.3, 0.2, 2.1
    exact = (p.integ()(u1) - p.integ()(u0)) * (q.integ()(v1) - q.integ()(v0))
    f, seen = _counted(lambda u, v: p(u) * q(v))
    value, err = adaptive_integrate(f, u0, u1, v0, v1, abs_tol=1e-12, rel_tol=1e-12)
    # The 4-point rule is exact to degree 7, so no cell is split.
    assert seen[0] == 48 * 80
    assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))
    assert err <= 1e-13 * max(1.0, abs(exact))


def test_max_cells_failure():
    f, seen = _counted(_step)
    with pytest.raises(QuadratureFailure, match="above tolerance .* with 231 cells"):
        adaptive_integrate(f, -1.0, 1.0, 0.0, 1.0, abs_tol=1e-12, rel_tol=0.0, max_cells=200)
    assert seen[0] == 23360


@pytest.mark.parametrize("max_depth,points", [(2, 8320), (3, 11840)])
def test_max_depth_failure(max_depth, points):
    f, seen = _counted(_step)
    with pytest.raises(QuadratureFailure, match="max subdivision depth reached"):
        adaptive_integrate(f, -1.0, 1.0, 0.0, 1.0, abs_tol=1e-12, rel_tol=0.0, max_depth=max_depth)
    assert seen[0] == points


@pytest.mark.parametrize("initial", [(0, 6), (-2, 6), (8,), (8, 6, 1), (8.0, 6), (True, 6)])
def test_initial_must_be_two_positive_integers(initial):
    f, seen = _counted(_bump)
    with pytest.raises(PreconditionViolation, match="initial must be two positive integers"):
        adaptive_integrate(f, -1.0, 1.0, 0.5, 2.0, abs_tol=1e-10, rel_tol=1e-9, initial=initial)
    assert seen[0] == 0


def test_nan_integrand_fails_on_the_start_grid():
    f, seen = _counted(lambda u, v: np.full(u.shape, np.nan))
    with pytest.raises(QuadratureFailure, match=r"not finite on the cell \[-1.0, -0.75\] x \[0.5, 0.75\]"):
        adaptive_integrate(f, -1.0, 1.0, 0.5, 2.0, abs_tol=1e-10, rel_tol=1e-9)
    # One batch of 48 start cells, not refinement up to max_cells.
    assert seen[0] == 48 * 80


def test_infinite_cell_is_named():
    f, seen = _counted(lambda u, v: np.where((u > 0.9) & (v > 1.9), np.inf, 1.0))
    # Both rules give inf on that cell; inf - inf raises the typed error,
    # not a RuntimeWarning.
    with pytest.raises(QuadratureFailure, match=r"not finite on the cell \[0.75, 1.0\] x \[1.75, 2.0\]"):
        adaptive_integrate(f, -1.0, 1.0, 0.5, 2.0, abs_tol=1e-10, rel_tol=1e-9)
    assert seen[0] == 48 * 80


def test_nonfinite_child_fails_at_its_batch():
    calls = []

    def f(u, v):
        calls.append(u.size)
        vals = _bump(u, v)
        if len(calls) == 2:
            vals[-1] = np.nan  # the last node of the last child of the first split
        return vals

    with pytest.raises(QuadratureFailure, match="not finite on the cell"):
        adaptive_integrate(f, -1.0, 1.0, 0.5, 2.0, abs_tol=1e-10, rel_tol=1e-9)
    assert len(calls) == 2
