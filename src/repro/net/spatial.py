"""Uniform-grid spatial index for unit-disk neighbor queries.

Building the connectivity graph of ``N`` uniformly placed radios with a
naive all-pairs distance test costs O(N²) — 10⁸ pairs at N=10⁴, re-done
every mobility step.  The standard fix, and the one used here, is a
*uniform grid* (cell list) with cell side equal to the transmission
range: each node only tests nodes in its own and the surrounding cells,
giving O(N·k) for k the mean cell occupancy.

The whole pass is array arithmetic; its Python-level call count does not
depend on the number of nodes, occupied cells or edges:

1. nodes are sorted by flat cell id (row-major), so every cell — and every
   run of horizontally adjacent cells — is one contiguous slice of the
   sorted order;
2. each node gets two candidate slices, found with ``searchsorted``: the
   rest of its own cell plus the east cell, and the north-west..north-east
   run in the row above.  Together these are the five "forward" cell
   offsets, so every unordered pair of nodes in adjacent cells is
   generated exactly once;
3. the slices are expanded to explicit candidate pairs with
   ``cumsum``/``repeat`` arithmetic and filtered by
   ``dx*dx + dy*dy <= r*r`` in float64.

Candidates are expanded at most :data:`_PAIR_CHUNK` at a time, so the
degenerate single-cell case (``tx_range`` ≥ area, N²/2 candidates) runs
in bounded memory.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.util.validation import check_positive

__all__ = ["UniformGrid", "build_unit_disk_edges"]

#: Candidate pairs distance-tested per pass (~13 MB of temporaries, ~50 B
#: per candidate).  N=10⁴ at the paper's density generates under half a
#: chunk; larger chunks only cost cache misses.
_PAIR_CHUNK = 1 << 18


class UniformGrid:
    """A cell list over a rectangular area.

    Parameters
    ----------
    width, height:
        Extent of the area (meters).
    cell:
        Cell side length; choose the radio range so that all neighbors of a
        node lie in its 3×3 cell neighborhood.
    """

    def __init__(self, width: float, height: float, cell: float) -> None:
        check_positive("width", width)
        check_positive("height", height)
        check_positive("cell", cell)
        self.width = float(width)
        self.height = float(height)
        self.cell = float(cell)
        self.nx = max(1, int(np.ceil(self.width / self.cell)))
        self.ny = max(1, int(np.ceil(self.height / self.cell)))

    def cell_indices(self, positions: np.ndarray) -> np.ndarray:
        """Map ``(N, 2)`` positions to flat cell ids, clipping to the area."""
        ix = np.clip((positions[:, 0] // self.cell).astype(np.int64), 0, self.nx - 1)
        iy = np.clip((positions[:, 1] // self.cell).astype(np.int64), 0, self.ny - 1)
        return iy * self.nx + ix


def _unit_disk_pairs(
    positions: np.ndarray, tx_range: float, area: Tuple[float, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every linked pair exactly once, as ``(u, v)`` id arrays.

    Neither the orientation of a pair nor the order of pairs is specified;
    callers canonicalise.  ``positions`` must hold at least one node.
    """
    n = positions.shape[0]
    grid = UniformGrid(area[0], area[1], tx_range)
    flat = grid.cell_indices(positions)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    x = positions[order, 0]
    y = positions[order, 1]
    iy, ix = np.divmod(flat, grid.nx)
    west = np.maximum(ix - 1, 0)
    east = np.minimum(ix + 1, grid.nx - 1)
    above = (iy + 1) * grid.nx  # past every cell id on the top row: empty slice
    # per node, two slices [lo, hi) of the sorted order: rest of own cell +
    # east cell, then the NW..NE run of the row above
    lo = np.concatenate(
        (np.arange(1, n + 1), np.searchsorted(flat, above + west, side="left"))
    )
    hi = np.concatenate(
        (
            np.searchsorted(flat, iy * grid.nx + east, side="right"),
            np.searchsorted(flat, above + east, side="right"),
        )
    )
    node = np.tile(np.arange(n), 2)
    length = hi - lo
    filled = np.cumsum(length)

    r2 = float(tx_range) ** 2
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    # slice-index bounds such that each pass expands about _PAIR_CHUNK
    # candidates (one pass unless nearly everyone shares a cell)
    cuts = np.searchsorted(filled, np.arange(_PAIR_CHUNK, int(filled[-1]), _PAIR_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts + 1, [2 * n])))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        seg_len = length[a:b]
        start = filled[a:b] - seg_len  # offset of each slice in the expansion
        base = int(start[0])
        i = np.repeat(node[a:b], seg_len)
        j = np.arange(base, int(filled[b - 1])) + np.repeat(lo[a:b] - start, seg_len)
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        linked = dx * dx + dy * dy <= r2
        us.append(order[i[linked]])
        vs.append(order[j[linked]])
    return np.concatenate(us), np.concatenate(vs)


def build_unit_disk_edges(
    positions: np.ndarray, tx_range: float, area: Tuple[float, float]
) -> np.ndarray:
    """Return the unit-disk edge list as an ``(E, 2)`` int array with u < v.

    Two nodes are linked iff their Euclidean distance is ``<= tx_range``
    (boundary inclusive, matching the common unit-disk convention).  Rows
    are sorted by ``(u, v)``.

    Complexity is O(N k) for mean cell occupancy k; for the paper's
    densest scenario (1000 nodes, 710 m², 50 m range) that is ~16
    comparisons per node.  See the module docstring for the algorithm.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (N, 2)")
    check_positive("tx_range", tx_range)
    n = positions.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    u, v = _unit_disk_pairs(positions, tx_range, area)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # canonical order for reproducibility
    by_key = np.argsort(lo * n + hi)
    return np.stack([lo[by_key], hi[by_key]], axis=1)
