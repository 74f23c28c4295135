"""The shared distance substrate: one horizon-bounded band per topology.

CARD's premise (§III.C of the paper) is that a node only ever needs
knowledge *within a bounded horizon*: its R-hop zone for membership and
edge nodes, and 2R for the contact-overlap checks.  Accordingly, every
distance question is a :class:`DistanceSubstrate` query that names its
horizon ``h``:

* ``members(u, h)``, ``ring(u, h)``, ``membership(h)`` — the zone and its
  edge nodes;
* ``hops(u, v, h)`` / ``hops_many(u, ids, h)`` — hop distance, or
  :data:`repro.net.graph.UNREACHABLE` (−1) beyond ``h``;
* ``path(u, v, h)`` — the lexicographically smallest shortest route,
  read off the band.

:class:`~repro.routing.neighborhood.NeighborhoodTables` asks them at R,
and at 2R for SPREAD edge ranking and the overlap metric (a contact
overlaps iff its true distance is ≤ 2R, which is exactly "inside the 2R
band").  Nothing builds an all-pairs matrix: Table 1's exact path
statistics and the small-world L count pairs per hop level with
:func:`repro.net.graph.hop_level_counts`.

**Multi-horizon sharing** — one substrate lives on each topology and
keeps a single band at the *largest* horizon any consumer has asked
for.  A 2R consumer arriving after an R consumer grows the band in place
(one full rebuild); both then ride the same incrementally maintained
band, and every derived membership matrix is cached per (epoch, radius)
and shared by all consumers.

**Backends** — the band has two bit-identical representations:

* ``dense`` — an ``(N, N)`` int8 matrix (−1 beyond horizon), the
  default below :data:`SPARSE_NODE_THRESHOLD` nodes;
* ``sparse`` — one flat CSR triple ``(indptr, indices, hops)`` holding
  only in-horizon entries (``O(N · ball)`` memory instead of ``O(N²)``),
  selected automatically above the threshold.  This is what unlocks
  N=10⁴ snapshots: at N=10⁴/R=3 the triple holds ~4·10⁵ entries (3.5 MB)
  where the dense band (let alone the seed's int32 APSP matrix) would
  not fit comfortably.  With scipy the triple is built by sparse
  frontier products on the topology's CSR
  (:func:`repro.net.graph.bounded_hop_rows`) — no dense block, no
  per-node Python; without scipy the same triple is assembled from
  per-source bounded BFS.  Every query is a slice or a mask of the three
  arrays, and a refresh splices the recomputed rows into a rebuilt
  triple in O(entries).  Membership matrices come back as a
  :class:`SparseMembership` — a CSR (indptr/indices) structure that
  materialises boolean *rows* on demand and therefore drops into every
  existing matrix consumer (``member[u]``, ``member[u, ids]``,
  ``member[ids].any(axis=0)``).

**Incremental maintenance** — after a mobility step the substrate asks
:meth:`repro.net.topology.Topology.diff` which nodes changed links and
each backend's ``update`` recomputes bounded BFS only for sources whose
≤horizon ball touches a changed node (in the old *or* the new graph —
both are needed for exactness, see :meth:`_DenseBand.update`); every
other row is provably unchanged, so the result is bit-identical to a
cold rebuild.  Whenever the topology cannot answer ``diff`` or the
change set is large, the substrate performs a full bounded rebuild —
same numbers, different wall-clock.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.net import graph as g

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology owns us)
    from repro.net.topology import Topology

__all__ = [
    "DistanceSubstrate",
    "SparseMembership",
    "SubstrateStats",
    "SPARSE_NODE_THRESHOLD",
]

#: Incremental updates recomputing more than this fraction of all rows are
#: not worth the bookkeeping; fall back to a full bounded rebuild.
FULL_REBUILD_FRACTION = 0.5

#: Node count at (and above) which the substrate keeps its band in the
#: sparse CSR representation instead of a dense N×N matrix.  Chosen well
#: above every default-scale configuration (N ≤ 1000), so paper-scale
#: artifacts keep the exact arrays they always had.
SPARSE_NODE_THRESHOLD = 2048


@dataclass
class SubstrateStats:
    """Refresh accounting — what the ledger and the tests introspect."""

    full_rebuilds: int = 0
    incremental_updates: int = 0
    #: rows recomputed across all incremental updates (≤ N per update)
    rows_recomputed: int = 0
    #: refreshes skipped because the epoch bump changed no link
    null_updates: int = 0
    #: membership matrices served from the per-epoch cache
    membership_hits: int = 0
    membership_builds: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_updates": self.incremental_updates,
            "rows_recomputed": self.rows_recomputed,
            "null_updates": self.null_updates,
            "membership_hits": self.membership_hits,
            "membership_builds": self.membership_builds,
        }


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for every ``(s, l)`` of ``zip(starts, lens)``,
    concatenated — the flat positions of a run of CSR rows."""
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return shift + np.arange(shift.size)


# ----------------------------------------------------------------------
# membership views
# ----------------------------------------------------------------------
class SparseMembership:
    """CSR boolean membership that materialises dense *rows* on demand.

    Supports exactly the access patterns the protocol and analysis code
    use on the dense matrix — ``m[u]``, ``m[ids]``, ``m[u, v]``,
    ``m[u, ids]``, ``.shape`` — returning dense boolean rows, so it is a
    drop-in for ``np.ndarray`` membership without ever holding N² bools.
    """

    __slots__ = ("indptr", "indices", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.shape = (n, n)

    def row_ids(self, u: int) -> np.ndarray:
        """Sorted member ids of row ``u`` (no densification)."""
        return self.indices[self.indptr[u]: self.indptr[u + 1]]

    def row(self, u: int) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=bool)
        out[self.row_ids(int(u))] = True
        return out

    def _rows(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        out = np.zeros((ids.size, self.shape[0]), dtype=bool)
        starts = self.indptr[ids]
        lens = self.indptr[ids + 1] - starts
        members = self.indices[_ranges(starts, lens)]
        out[np.repeat(np.arange(ids.size), lens), members] = True
        return out

    def __getitem__(self, key):
        if isinstance(key, tuple):
            # scalar / per-id probes answer from the sorted id row directly
            # (the selector's hottest membership check) — no densification
            u, v = key
            ids = self.row_ids(int(u))
            if np.ndim(v) == 0:
                i = int(np.searchsorted(ids, int(v)))
                return bool(i < ids.size and int(ids[i]) == int(v))
            v = np.asarray(v, dtype=np.int64)
            pos = np.searchsorted(ids, v)
            valid = pos < ids.size
            out = np.zeros(v.shape, dtype=bool)
            out[valid] = ids[pos[valid]] == v[valid]
            return out
        if np.ndim(key) == 0:
            return self.row(int(key))
        return self._rows(key)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseMembership(n={self.shape[0]}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# band backends (bit-identical answers, different memory shapes)
# ----------------------------------------------------------------------
class _DenseBand:
    """The ``(N, N)`` int8 band matrix (−1 beyond horizon)."""

    kind = "dense"

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat

    @classmethod
    def build(cls, adj, horizon: int, csr) -> "_DenseBand":
        return cls(g.bounded_hop_distances(adj, horizon, csr=csr))

    def update(self, adj, horizon: int, changed: np.ndarray, csr) -> int:
        """Recompute exactly the rows a link change at ``changed`` can
        have altered; returns how many rows that was.

        A source ``u`` needs recomputation iff some changed node lies
        within ``horizon`` of ``u`` in the *old* band (a path through the
        changed region may have broken) or in the *new* graph (a new path
        may have appeared).  Any other source's ≤horizon ball contains no
        endpoint of a changed link in either graph, so its set of length-
        ≤horizon paths — and therefore its band row — is identical.
        Distances are symmetric (undirected unit-disk links), so the new-
        graph test reuses the bounded BFS *from* the changed nodes.
        """
        delta = g.bounded_hop_distances(adj, horizon, changed, csr=csr)
        touched = self.touched_by(changed)
        touched |= (delta != g.UNREACHABLE).any(axis=0)
        self.mat[changed] = delta
        touched[changed] = False  # their rows just landed via `delta`
        rest = np.flatnonzero(touched)
        if rest.size:
            self.mat[rest] = g.bounded_hop_distances(adj, horizon, rest, csr=csr)
        return int(changed.size + rest.size)

    def hops(self, u: int, v: int) -> int:
        return int(self.mat[u, v])

    def hops_many(self, u: int, ids: np.ndarray) -> np.ndarray:
        return self.mat[u, ids]

    def row_within(self, u: int, h: int) -> np.ndarray:
        row = self.mat[u]
        return np.flatnonzero((row >= 0) & (row <= h))

    def row_ring(self, u: int, h: int) -> np.ndarray:
        return np.flatnonzero(self.mat[u] == h)

    def descend(self, adj, u: int, v: int, d: int) -> List[int]:
        """The lexicographically smallest shortest path ``u → v``, given
        ``0 < d = hops(u, v)``: from ``u``, step to the lowest-id
        neighbour one hop closer to ``v`` until ``v`` is adjacent."""
        row = self.mat[v]
        path = [u]
        for rem in range(d - 1, 0, -1):
            nbrs = adj[u]
            u = int(nbrs[(row[nbrs] == rem).argmax()])
            path.append(u)
        path.append(v)
        return path

    def touched_by(self, changed: np.ndarray) -> np.ndarray:
        return (self.mat[:, changed] != g.UNREACHABLE).any(axis=1)

    def membership(self, radius: int):
        return g.neighborhood_sets(self.mat, radius)

    @property
    def nbytes(self) -> int:
        return int(self.mat.nbytes)


class _SparseBand:
    """The in-horizon hop distances as one flat CSR triple.

    Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]`` (sorted ids, int64)
    with its hop distances in the matching slice of ``dist``; nothing
    else is held.  Every query is a slice or a mask over these three
    arrays, and a refresh rebuilds them with the recomputed rows spliced
    in — O(entries), no per-node Python.
    """

    kind = "sparse"

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, dist: np.ndarray
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.dist = dist

    @classmethod
    def build(cls, adj, horizon: int, csr) -> "_SparseBand":
        return cls(*g.bounded_hop_rows(adj, horizon, csr=csr))

    def update(self, adj, horizon: int, changed: np.ndarray, csr) -> int:
        """Recompute the rows a link change at ``changed`` can have altered
        (see :meth:`_DenseBand.update`); returns how many rows that was."""
        delta = g.bounded_hop_rows(adj, horizon, changed, csr=csr)
        touched = self.touched_by(changed)
        touched[delta[1]] = True  # symmetric: v in c's new row iff c in v's
        touched[changed] = False  # their rows just came with `delta`
        rest = np.flatnonzero(touched)
        fresh = g.bounded_hop_rows(adj, horizon, rest, csr=csr)
        self._splice(((changed, delta), (rest, fresh)))
        return int(changed.size + rest.size)

    def _splice(self, parts) -> None:
        """Rebuild the triple with the rows of each ``(row ids, their
        triple)`` in ``parts`` replaced; every other row is copied."""
        starts = self.indptr[:-1].copy()  # where each row sits in the pool
        lens = np.diff(self.indptr)
        pool = [(self.indices, self.dist)]
        base = self.indices.size
        for rows, (ptr, ids, dist) in parts:
            starts[rows] = base + ptr[:-1]
            lens[rows] = np.diff(ptr)
            pool.append((ids, dist))
            base += ids.size
        take = _ranges(starts, lens)
        self.indptr = np.concatenate(([0], np.cumsum(lens)))
        self.indices = np.concatenate([ids for ids, _ in pool])[take]
        self.dist = np.concatenate([dist for _, dist in pool])[take]

    def _row(self, u: int) -> slice:
        return slice(self.indptr[u], self.indptr[u + 1])

    def hops(self, u: int, v: int) -> int:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = lo + np.searchsorted(self.indices[lo:hi], v)
        if i < hi and self.indices[i] == v:
            return int(self.dist[i])
        return g.UNREACHABLE

    def hops_many(self, u: int, ids: np.ndarray) -> np.ndarray:
        row = self._row(u)
        row_ids = self.indices[row]
        out = np.full(ids.size, g.UNREACHABLE, dtype=self.dist.dtype)
        pos = np.searchsorted(row_ids, ids)
        valid = pos < row_ids.size
        hit = np.zeros(ids.size, dtype=bool)
        hit[valid] = row_ids[pos[valid]] == ids[valid]
        out[hit] = self.dist[row][pos[hit]]
        return out

    def row_within(self, u: int, h: int) -> np.ndarray:
        row = self._row(u)
        return self.indices[row][self.dist[row] <= h]

    def row_ring(self, u: int, h: int) -> np.ndarray:
        row = self._row(u)
        return self.indices[row][self.dist[row] == h]

    def descend(self, adj, u: int, v: int, d: int) -> List[int]:
        """:meth:`_DenseBand.descend` over ``v``'s row slices: each
        neighbour's distance to ``v`` is found by binary search (a
        neighbour missing from the row is beyond the horizon)."""
        row = self._row(v)
        ids = self.indices[row]
        dist = self.dist[row]
        last = ids.size - 1  # ≥ 0: v's row holds v itself
        path = [u]
        for rem in range(d - 1, 0, -1):
            nbrs = adj[u]
            pos = ids.searchsorted(nbrs)
            np.minimum(pos, last, out=pos)
            u = int(nbrs[((ids[pos] == nbrs) & (dist[pos] == rem)).argmax()])
            path.append(u)
        path.append(v)
        return path

    def touched_by(self, changed: np.ndarray) -> np.ndarray:
        # distances are symmetric (undirected links): a changed node c is
        # within horizon of u  iff  u appears in c's row
        mask = np.zeros(self.indptr.size - 1, dtype=bool)
        starts = self.indptr[changed]
        mask[self.indices[_ranges(starts, self.indptr[changed + 1] - starts)]] = True
        return mask

    def membership(self, radius: int) -> SparseMembership:
        inside = np.flatnonzero(self.dist <= radius)
        return SparseMembership(
            np.searchsorted(inside, self.indptr),
            self.indices[inside],
            self.indptr.size - 1,
        )

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.dist.nbytes)


# ----------------------------------------------------------------------
# the substrate
# ----------------------------------------------------------------------
class DistanceSubstrate:
    """Horizon-bounded hop distances for every node, kept fresh incrementally.

    Parameters
    ----------
    topology:
        The connectivity ground truth; its ``epoch`` counter keys freshness.
    horizon:
        Maximum hop distance the band resolves (≥ 1).  Grows in place via
        :meth:`ensure_horizon` when a consumer needs more; every query at
        a horizon ``h`` ≤ horizon is served from the same band.

    The band is dense below :data:`SPARSE_NODE_THRESHOLD` nodes and
    sparse at and above it; both representations equal the clipped BFS
    oracle, enforced by the backend property tests.
    """

    def __init__(self, topology: "Topology", horizon: int) -> None:
        if int(horizon) < 1:
            raise ValueError("horizon must be >= 1")
        # the topology owns its substrate: a strong back-reference would
        # make a cycle, and every finished run would wait for the cyclic GC
        self._topology = weakref.ref(topology)
        self.horizon = int(horizon)
        self._stats = SubstrateStats()
        self._epoch = -1
        self._band = None  # a _DenseBand or _SparseBand, None when stale
        #: membership matrices of the current epoch, by radius
        self._membership: Dict[int, object] = {}

    @property
    def topology(self) -> "Topology":
        """The topology this substrate serves (held weakly; see ``__init__``)."""
        return self._topology()

    # ------------------------------------------------------------------
    # backend + horizon management
    # ------------------------------------------------------------------
    @property
    def backend_kind(self) -> str:
        """Which band representation this substrate (will) use."""
        return (
            "sparse"
            if self.topology.num_nodes >= SPARSE_NODE_THRESHOLD
            else "dense"
        )

    def ensure_horizon(self, horizon: int) -> None:
        """Grow the band's horizon in place (full rebuild on next access).

        Shrinking never happens: queries at a smaller horizon clip the
        shared band, so R and 2R consumers ride the same incremental
        machinery.
        """
        horizon = int(horizon)
        if horizon > self.horizon:
            self.horizon = horizon
            self._band = None
            self._epoch = -1

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring the band up to the topology's current epoch."""
        topo = self.topology
        adj = topo.adj  # forces the adjacency build (and the change log)
        if self._band is not None and self._epoch == topo.epoch:
            return
        changed = None if self._band is None else topo.diff(self._epoch)
        if changed is not None and changed.size == 0:
            # epoch bumped (positions moved / liveness toggled) but no link
            # actually flipped — the band is already exact
            self._stats.null_updates += 1
        else:
            csr = g.csr_to_matrix(*topo.csr) if g._HAVE_SCIPY else None
            if changed is None or changed.size > topo.num_nodes * FULL_REBUILD_FRACTION:
                backend = _SparseBand if self.backend_kind == "sparse" else _DenseBand
                self._band = backend.build(adj, self.horizon, csr)
                self._stats.full_rebuilds += 1
            else:
                rows = self._band.update(adj, self.horizon, changed, csr)
                self._stats.incremental_updates += 1
                self._stats.rows_recomputed += rows
        self._epoch = topo.epoch
        self._membership = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def stats(self) -> SubstrateStats:
        """A point-in-time snapshot of the refresh accounting.

        The returned :class:`SubstrateStats` is a *copy*: callers can
        diff two snapshots (cold build vs refresh work) without the live
        counters mutating underneath them.  This is the one public way
        to observe substrate work — :class:`~repro.core.runner.TimeSeriesRunner`,
        the ledger and the obs layer all read it.
        """
        return replace(self._stats)

    def _fresh_band(self, h: int):
        """The band at the current epoch, for a query at horizon ``h``."""
        if h > self.horizon:
            raise ValueError(f"radius {h} exceeds substrate horizon {self.horizon}")
        self.refresh()
        return self._band

    def band_bytes(self) -> int:
        """Memory footprint of the current band representation."""
        return self._fresh_band(self.horizon).nbytes

    # ------------------------------------------------------------------
    # queries, each clipped at the horizon ``h`` ≤ :attr:`horizon` it names
    # ------------------------------------------------------------------
    def membership(self, radius: int):
        """Membership matrix at ``radius``: ``M[u, v]`` iff v within
        ``radius`` hops of u (``M[u, u]`` is True).

        Dense backend: a boolean ``(N, N)`` ndarray.  Sparse backend: a
        :class:`SparseMembership` (same indexing surface).  Cached per
        epoch and shared by every consumer asking for the same radius.
        """
        radius = int(radius)
        band = self._fresh_band(radius)
        cached = self._membership.get(radius)
        if cached is not None:
            self._stats.membership_hits += 1
            return cached
        member = band.membership(radius)
        self._membership[radius] = member
        self._stats.membership_builds += 1
        return member

    def ring(self, u: int, h: int) -> np.ndarray:
        """Nodes at *exactly* ``h`` hops from ``u`` (the edge nodes)."""
        h = int(h)
        return self._fresh_band(h).row_ring(int(u), h)

    def members(self, u: int, h: int) -> np.ndarray:
        """Ids within ``h`` hops of ``u`` (including ``u``), sorted."""
        return self._fresh_band(h).row_within(int(u), h)

    def hops(self, u: int, v: int, h: int) -> int:
        """Hop distance ``u → v`` if ≤ ``h``, else :data:`g.UNREACHABLE`."""
        d = self._fresh_band(h).hops(int(u), int(v))
        return d if 0 <= d <= h else g.UNREACHABLE

    def hops_many(self, u: int, ids, h: int) -> np.ndarray:
        """:meth:`hops` for one source and many targets, in one read."""
        ids = np.asarray(ids, dtype=np.int64)
        vals = self._fresh_band(h).hops_many(int(u), ids)
        if h < self.horizon:
            vals = np.where((vals >= 0) & (vals <= h), vals, g.UNREACHABLE).astype(
                vals.dtype
            )
        return vals

    def path(self, u: int, v: int, h: int) -> Optional[List[int]]:
        """A shortest path ``u → v`` if ``v`` lies within ``h`` hops,
        else None.

        Read off the band, no BFS: every node of a shortest path to ``v``
        is closer to ``v`` than ``u`` is, so one read of ``v``'s row
        gives each step — the lowest-id neighbour one hop closer.  That
        is the lexicographically smallest shortest path, which is also
        what the parent chase of :func:`repro.net.graph.bfs_tree` from
        ``u`` returns over sorted adjacency.
        """
        band = self._fresh_band(h)
        u, v = int(u), int(v)
        d = band.hops(u, v)
        if not 0 <= d <= h:
            return None
        if d == 0:
            return [u]
        return band.descend(self.topology.adj, u, v, d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceSubstrate(horizon={self.horizon}, epoch={self._epoch}, "
            f"backend={self.backend_kind})"
        )
