"""Deterministic adaptive quadrature over rectangles in the upper half-plane.

Cells carry an embedded Gauss-Legendre pair (4x4 inside 8x8); the difference
is the cell error estimate.  Refinement is worst-first with stable ordering,
so a fixed cell schedule is reproducible bit for bit.  No randomness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

_N4, _W4 = np.polynomial.legendre.leggauss(4)
_N8, _W8 = np.polynomial.legendre.leggauss(8)


# Reference nodes on [0, 2]^2 and product weights of one cell: the 4x4 rule
# in the first 16 places, the 8x8 rule in the last 64, each in meshgrid "ij"
# order.  A cell scales them by its half-sides.
_REF_U = np.concatenate([np.repeat(_N4 + 1.0, 4), np.repeat(_N8 + 1.0, 8)])
_REF_V = np.concatenate([np.tile(_N4 + 1.0, 4), np.tile(_N8 + 1.0, 8)])
_REF_W = np.concatenate([np.outer(_W4, _W4).ravel(), np.outer(_W8, _W8).ravel()])
_N4_NODES = _N4.size**2


@dataclass
class _Cell:
    u0: float
    u1: float
    v0: float
    v1: float
    value: float = 0.0
    err: float = 0.0
    depth: int = 0


def _evaluate(f: Callable, cells: list[_Cell]) -> None:
    """Fill value/err of cells with one batched integrand call."""
    if not cells:
        return
    u0, u1, v0, v1 = np.array([(c.u0, c.u1, c.v0, c.v1) for c in cells]).T[:, :, None]
    su, sv = (u1 - u0) / 2.0, (v1 - v0) / 2.0
    vals = f((u0 + su * _REF_U).ravel(), (v0 + sv * _REF_V).ravel()).reshape(len(cells), -1)
    terms = vals * ((su * sv) * _REF_W)
    i4 = terms[:, :_N4_NODES].sum(axis=1)
    i8 = terms[:, _N4_NODES:].sum(axis=1)
    for c, value, err in zip(cells, i8.tolist(), np.abs(i8 - i4).tolist()):
        c.value = value
        c.err = err


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
    """
    nu, nv = initial
    cells = []
    for iu in range(nu):
        for iv in range(nv):
            cells.append(
                _Cell(
                    u0 + (u1 - u0) * iu / nu,
                    u0 + (u1 - u0) * (iu + 1) / nu,
                    v0 + (v1 - v0) * iv / nv,
                    v0 + (v1 - v0) * (iv + 1) / nv,
                )
            )
    _evaluate(f, cells)

    counter = len(cells)
    heap = [(-c.err, i, c) for i, c in enumerate(cells)]
    heapq.heapify(heap)
    n_leaves = len(cells)
    # Running totals for the stopping test; the result is summed over the heap.
    total_value = sum(c.value for c in cells)
    total_err = sum(c.err for c in cells)
    while True:
        tol = max(abs_tol, rel_tol * abs(total_value))
        if total_err <= tol:
            break
        if n_leaves >= max_cells:
            raise QuadratureFailure(
                f"error {total_err:.3g} above tolerance {tol:.3g} with {n_leaves} cells"
            )
        # Split the worst batch.
        batch = []
        for _ in range(min(max(4, n_leaves // 8), len(heap))):
            err, idx, cell = heapq.heappop(heap)
            if -err <= tol / max(n_leaves, 1) / 4:
                heapq.heappush(heap, (err, idx, cell))
                break
            batch.append(cell)
        if not batch:
            break
        children = []
        for cell in batch:
            if cell.depth >= max_depth:
                raise QuadratureFailure("max subdivision depth reached")
            children.extend(_split(cell))
        _evaluate(f, children)
        for k in children:
            counter += 1
            heapq.heappush(heap, (-k.err, counter, k))
        total_value += sum(k.value for k in children) - sum(c.value for c in batch)
        total_err += sum(k.err for k in children) - sum(c.err for c in batch)
        n_leaves += len(children) - len(batch)
    return sum(c.value for _, _, c in heap), sum(-e for e, _, _ in heap)


def _split(c: _Cell) -> list[_Cell]:
    um = 0.5 * (c.u0 + c.u1)
    vm = 0.5 * (c.v0 + c.v1)
    d = c.depth + 1
    return [
        _Cell(c.u0, um, c.v0, vm, depth=d),
        _Cell(um, c.u1, c.v0, vm, depth=d),
        _Cell(c.u0, um, vm, c.v1, depth=d),
        _Cell(um, c.u1, vm, c.v1, depth=d),
    ]
