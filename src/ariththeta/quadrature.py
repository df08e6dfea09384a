"""Deterministic adaptive quadrature over rectangles in the upper half-plane.

Cells carry an embedded Gauss-Legendre pair (4x4 inside 8x8); the difference
is the cell error estimate.  Refinement is worst-first with stable ordering,
so a fixed cell schedule is reproducible bit for bit.  No randomness.

The cells are the rows of one array, (u0, u1, v0, v1, value, err, depth),
in the order they were made: the start grid (built by numpy) row by row in
u, then the four children of each split cell.  The heap holds only
(-err, row) pairs, so ties go to the older cell.  A batch of cells is
split by one gather from its rows and midpoints and evaluated by one
integrand call; the running totals and the result are Python sums, the
result over the cells in heap order.
"""

from __future__ import annotations

import heapq
import math
import numbers
from typing import Callable

import numpy as np

from .errors import PreconditionViolation, QuadratureFailure

_N4, _W4 = np.polynomial.legendre.leggauss(4)
_N8, _W8 = np.polynomial.legendre.leggauss(8)


# Reference nodes on [0, 2]^2 and product weights of one cell: the 4x4 rule
# in the first 16 places, the 8x8 rule in the last 64, each in meshgrid "ij"
# order.  A cell scales them by its half-sides.
_REF_U = np.concatenate([np.repeat(_N4 + 1.0, 4), np.repeat(_N8 + 1.0, 8)])
_REF_V = np.concatenate([np.tile(_N4 + 1.0, 4), np.tile(_N8 + 1.0, 8)])
_REF_W = np.concatenate([np.outer(_W4, _W4).ravel(), np.outer(_W8, _W8).ravel()])
_N4_NODES = _N4.size**2

# Columns of a cell row after its bounds (u0, u1, v0, v1).
_VALUE, _ERR, _DEPTH = 4, 5, 6
# The four children of a cell, as columns of (u0, u1, v0, v1, um, vm) with
# um, vm its midpoints: lower left, lower right, upper left, upper right.
_CHILDREN = np.array([[0, 4, 2, 5], [4, 1, 2, 5], [0, 4, 5, 3], [4, 1, 5, 3]])


def _evaluate(f: Callable, cells: np.ndarray) -> tuple[list[float], float]:
    """Fill the value and err columns of a block of cell rows by one integrand
    call; return the errs and their sum.

    A cell whose value or err is not finite raises QuadratureFailure.  The
    err is not finite where the value is not, and errs are >= 0, so the
    check is on their sum; the cell named is the one of the largest err,
    NaN counting as infinite.  The sums run with numpy's invalid and
    overflow warnings off (inf - inf on an infinite cell), so the typed
    error is what such a cell raises.
    """
    u0, u1, v0, v1 = cells[:, :4].T[:, :, None]
    su, sv = (u1 - u0) / 2.0, (v1 - v0) / 2.0
    vals = f((u0 + su * _REF_U).ravel(), (v0 + sv * _REF_V).ravel()).reshape(len(cells), -1)
    err = cells[:, _ERR]
    with np.errstate(invalid="ignore", over="ignore"):
        terms = vals * ((su * sv) * _REF_W)
        i4 = terms[:, :_N4_NODES].sum(axis=1)
        i8 = terms[:, _N4_NODES:].sum(axis=1)
        np.subtract(i8, i4, out=err)
        np.abs(err, out=err)
    cells[:, _VALUE] = i8
    errs = err.tolist()
    err_sum = sum(errs)
    if not math.isfinite(err_sum):
        a, b, c, d = cells[np.argmax(np.where(np.isnan(err), np.inf, err)), :4].tolist()
        raise QuadratureFailure(f"integral or error not finite on the cell [{a!r}, {b!r}] x [{c!r}, {d!r}]")
    return errs, err_sum


def adaptive_integrate(
    f: Callable,
    u0: float,
    u1: float,
    v0: float,
    v1: float,
    abs_tol: float,
    rel_tol: float,
    max_cells: int = 6000,
    max_depth: int = 34,
    initial: tuple[int, int] = (8, 6),
) -> tuple[float, float]:
    """Integrate f(u, v) over the rectangle; returns (value, error_bound).

    f must accept equal-length arrays and include any measure factor.
    initial is the start grid, nu x nv cells; both must be positive
    integers.  A cell whose value or error is not finite raises
    QuadratureFailure at once, naming the cell.
    """
    if len(initial) != 2 or not all(
        isinstance(k, numbers.Integral) and not isinstance(k, bool) and k > 0 for k in initial
    ):
        raise PreconditionViolation(f"initial must be two positive integers, got {initial!r}")
    nu, nv = int(initial[0]), int(initial[1])
    eu = u0 + (u1 - u0) * np.arange(nu + 1) / nu
    ev = v0 + (v1 - v0) * np.arange(nv + 1) / nv
    n_rows = nu * nv
    cells = np.empty((4 * n_rows, 7))
    grid = cells[:n_rows].reshape(nu, nv, 7)
    grid[:, :, 0], grid[:, :, 1] = eu[:-1, None], eu[1:, None]
    grid[:, :, 2], grid[:, :, 3] = ev[:-1], ev[1:]
    grid[:, :, _DEPTH] = 0.0
    errs, total_err = _evaluate(f, cells[:n_rows])

    heap = [(-e, i) for i, e in enumerate(errs)]
    heapq.heapify(heap)
    n_leaves = n_rows
    # Running totals for the stopping test; the result is summed over the heap.
    total_value = sum(cells[:n_rows, _VALUE].tolist())
    while True:
        tol = max(abs_tol, rel_tol * abs(total_value))
        if total_err <= tol:
            break
        if n_leaves >= max_cells:
            raise QuadratureFailure(
                f"error {total_err:.3g} above tolerance {tol:.3g} with {n_leaves} cells"
            )
        # Split the worst batch.
        floor = tol / n_leaves / 4
        batch = []
        for _ in range(min(max(4, n_leaves // 8), len(heap))):
            key = heapq.heappop(heap)
            if -key[0] <= floor:
                heapq.heappush(heap, key)
                break
            batch.append(key[1])
        if not batch:
            break
        parents = cells[batch]
        if parents[:, _DEPTH].max() >= max_depth:
            raise QuadratureFailure("max subdivision depth reached")
        mids = 0.5 * (parents[:, 0:4:2] + parents[:, 1:4:2])
        start, n_rows = n_rows, n_rows + 4 * len(batch)
        if n_rows > len(cells):
            cells = np.concatenate([cells, np.empty((n_rows + len(cells), 7))])
        children = cells[start:n_rows]
        children[:, :4] = np.hstack([parents[:, :4], mids])[:, _CHILDREN].reshape(-1, 4)
        children[:, _DEPTH] = np.repeat(parents[:, _DEPTH] + 1.0, 4)
        errs, err_sum = _evaluate(f, children)
        for row, e in enumerate(errs, start):
            heapq.heappush(heap, (-e, row))
        total_value += sum(children[:, _VALUE].tolist()) - sum(parents[:, _VALUE].tolist())
        total_err += err_sum - sum(parents[:, _ERR].tolist())
        n_leaves += len(children) - len(batch)
    leaves = cells[[row for _, row in heap]]
    return sum(leaves[:, _VALUE].tolist()), sum(leaves[:, _ERR].tolist())
