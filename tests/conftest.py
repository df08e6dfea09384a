import numpy as np
import pytest

import ariththeta as at
from ariththeta.greens import QuadratureSpec


@pytest.fixture(scope="session")
def lat_d1():
    return at.trace_zero_lattice(at.bundled_order("d1"))


@pytest.fixture(scope="session")
def lat_d6():
    return at.trace_zero_lattice(at.bundled_order("d6"))


@pytest.fixture(scope="session")
def lat_d10():
    return at.trace_zero_lattice(at.bundled_order("d10"))


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def lat_lipschitz():
    """The definite lattice of the Lipschitz order Z<1, i, j, ij>, a = b = -1: Q = x^2 + y^2 + z^2."""
    order = at.load_order(
        {
            "label": "lipschitz",
            "a": "-1",
            "b": "-1",
            "discriminant": 2,
            "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
    )
    return at.trace_zero_lattice(order)


def _brute_force_ball(m, bound, gram=None, t=None):
    """Every nonzero integer vector n with float(n @ m @ n) <= bound, sorted.

    A plain search of a box, as an oracle for `enumerate_by_majorant`.  For a
    positive definite M, n^T M n <= B forces |n_i| <= sqrt(B (M^{-1})_{ii})
    (Cauchy-Schwarz in the M inner product), so a box one wider than that on
    each axis holds every solution.  With an integral `gram` and a norm `t`,
    only the n with n^T G n = 2t: the exact integer norms of the whole box
    are taken first, and the form only on the vectors of norm t.  The form
    is evaluated in one array expression; the survivors are decided by the
    library's own scalar re-check `float(n @ m @ n) <= bound`, since
    summation order moves the last bits and the oracle must not disagree
    with it at the boundary.
    """
    half = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(m)))).astype(int) + 1
    n1, n2, n3 = np.ix_(*[np.arange(-h, h + 1) for h in half])
    if gram is None:
        keep = np.ones((n1.size, n2.size, n3.size), dtype=bool)
    else:
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
        # n^T G n = 2t, its terms free of n3 formed once on the (n1, n2) plane.
        plane = (g00 * n1 + 2 * g01 * n2) * n1 + g11 * n2 * n2
        box = 2 * (g02 * n1 + g12 * n2) + g22 * n3
        box *= n3
        keep = box == 2 * t - plane
    n = np.stack(np.unravel_index(np.flatnonzero(keep), keep.shape), axis=1) - half
    n = n[np.any(n != 0, axis=1)]
    val = np.einsum("ki,ij,kj->k", n, m, n)
    # Far above the rounding gap between any two summation orders of n^T M n.
    slack = 1e-12 * np.einsum("ki,ij,kj->k", np.abs(n), np.abs(m), np.abs(n))
    return sorted(tuple(row.tolist()) for row in n[val <= bound + slack] if float(row @ m @ row) <= bound)


@pytest.fixture(scope="session")
def brute_force_ball():
    return _brute_force_ball


def _ball_by_norms(lat, z, bound):
    """The lists enumerate_by_majorant(lat, z, bound, norm=t), concatenated in increasing t.

    t runs over every 2|t| <= bound + 2, t = 0 included; the majorant is at
    least 2|Q|, so together the lists hold the whole ball.
    """
    top = int((bound + 2) // 2)
    return [n for t in range(-top, top + 1) for n in at.enumerate_by_majorant(lat, z, bound, norm=t)]


@pytest.fixture(scope="session")
def ball_by_norms():
    return _ball_by_norms
