import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ariththeta as at
from ariththeta.greens import QuadratureSpec
from ariththeta.lattice import _cholesky3, _pivot_shrink


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


def _form_value(m, n):
    """n^T M n summed from six products in Python floats, as the enumeration decides."""
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    n1, n2, n3 = n
    val = m00 * (n1 * n1) + m11 * (n2 * n2) + m22 * (n3 * n3)
    return val + 2.0 * (m01 * (n1 * n2) + m02 * (n1 * n3) + m12 * (n2 * n3))


def _brute_force_ball(m, bound, gram=None, t=None):
    """Every nonzero integer vector n with _form_value(m, n) <= bound, sorted.

    A plain search of a box, as an oracle for `enumerate_by_majorant`.  For a
    positive definite M, n^T M n <= B forces |n1| <= sqrt(B (M^{-1})_{00})
    (Cauchy-Schwarz in the M inner product).  For each such n1 the rest
    n' = (n2, n3) satisfies (n' - c)^T M' (n' - c) <= B, with M' = M[1:, 1:]
    and c = -M'^{-1} M[1:, 0] n1, so |n'_i - c_i| <= sqrt(B (M'^{-1})_{ii})
    likewise.  The box is sheared: for each n1, n'_i runs over
    rint(c_i) +- (floor(sqrt(B (M'^{-1})_{ii})) + 2), which covers the
    rounding of c, so every solution is in it however skewed the ellipsoid.
    With an integral `gram` and a norm `t`, or a tuple of norms, only the n
    with n^T G n = 2t for one of them: the exact integer norms of the whole
    box are taken first, and the form only on the vectors of those norms.
    The form is evaluated in one array expression; the survivors are decided
    by the six-product value the library sums, since summation order moves
    the last bits and the oracle must not disagree with it at the boundary.
    """
    inv00 = np.linalg.inv(m)[0, 0]
    inv_rest = np.linalg.inv(m[1:, 1:])
    h1 = int(np.sqrt(bound * inv00)) + 1
    h2, h3 = np.sqrt(bound * np.diag(inv_rest)).astype(int) + 2
    n1 = np.arange(-h1, h1 + 1)[:, None, None]
    c2, c3 = np.rint(-np.outer(inv_rest @ m[1:, 0], n1)).astype(int)
    n2 = c2[:, None, None] + np.arange(-h2, h2 + 1)[:, None]
    n3 = c3[:, None, None] + np.arange(-h3, h3 + 1)
    if gram is None:
        keep = np.ones((n1.size, n2.shape[1], n3.shape[2]), dtype=bool)
    else:
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
        norm2 = (g00 * n1 + 2 * (g01 * n2 + g02 * n3)) * n1 + (g11 * n2 + 2 * g12 * n3) * n2 + g22 * n3 * n3
        keep = np.isin(norm2, 2 * np.atleast_1d(t))
    i1, i2, i3 = np.nonzero(keep)
    n = np.stack([n1[i1, 0, 0], n2[i1, i2, 0], n3[i1, 0, i3]], axis=1)
    n = n[np.any(n != 0, axis=1)]
    val = np.einsum("ki,ij,kj->k", n, m, n)
    # Far above the rounding gap between any two summation orders of n^T M n.
    slack = 1e-12 * np.einsum("ki,ij,kj->k", np.abs(n), np.abs(m), np.abs(n))
    return sorted(tuple(row) for row in n[val <= bound + slack].tolist() if _form_value(m, row) <= bound)


@pytest.fixture(scope="session")
def form_value():
    return _form_value


@pytest.fixture(scope="session")
def brute_force_ball():
    return _brute_force_ball


def _tail_pivots(m):
    """U00, U11, U22 of the Cholesky factor of the majorant m, shrunk as big_xi shrinks them."""
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    u = _cholesky3(m00, m01, m02, m11, m12, m22)
    shrink = _pivot_shrink(m00, m11, m22, u)
    return [u[k] * (1.0 - shrink) for k in (0, 3, 5)]


@pytest.fixture(scope="session")
def tail_pivots():
    return _tail_pivots


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


def _trace_pairing_discriminant(order):
    """sqrt |det trd(e_i conj(e_j))| on the order basis, from 16 quaternion products.

    The reduced discriminant by its definition, as an oracle for the closed
    form 4 |a b det B|: an exact Leibniz sum over the 24 permutations, whose
    absolute value must be the square of a rational.
    """
    gram = [[(ei * ej.conj()).trace() for ej in order.basis] for ei in order.basis]
    det = Fraction(0)
    for perm in itertools.permutations(range(4)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        det += sign * math.prod(gram[r][perm[r]] for r in range(4))
    root = Fraction(math.isqrt(abs(det.numerator)), math.isqrt(det.denominator))
    assert root * root == abs(det)
    return root


@pytest.fixture(scope="session")
def trace_pairing_discriminant():
    return _trace_pairing_discriminant
