"""The shared distance substrate and the horizon-scoped ``DistanceView`` API.

CARD's premise (§III.C of the paper) is that a node only ever needs
knowledge *within a bounded horizon*: its R-hop zone for membership and
edge nodes, and 2R for the contact-overlap checks.  Accordingly, the
**only** way protocol and analysis code reads distances is through a
:class:`DistanceView` obtained from
:meth:`repro.net.topology.Topology.distance_view`:

* ``distance_view(horizon=R)`` — zone operations (membership, edge
  nodes, intra-zone hop lookups, and intra-zone routes via
  :meth:`DistanceView.path`, which reads them off the band);
* ``distance_view(horizon=2 * R)`` — SPREAD edge ranking and the
  overlap metric (a contact overlaps iff its true distance is ≤ 2R,
  which is exactly "inside the 2R band");
* ``distance_view(horizon=None)`` — a :class:`GlobalDistanceView` for
  *explicitly sampled* global statistics
  (:meth:`~GlobalDistanceView.sample_pair_stats`); it never materialises
  an N×N matrix.  The all-pairs ``hop_distance_matrix`` is not a view:
  it is the exact kernel behind Table 1's path statistics and the
  small-world L, and nothing else.

**Multi-horizon sharing** — one :class:`DistanceSubstrate` lives on each
topology and keeps a single band at the *largest* horizon any view has
requested.  A 2R view arriving after an R view grows the band in place
(one full rebuild); both views then ride the same incrementally
maintained band, and every derived membership matrix is cached per
(epoch, radius) and shared by all consumers.

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
recomputes bounded BFS only for sources whose ≤horizon ball touches a
changed node (in the old *or* the new graph — both are needed for
exactness, see :meth:`DistanceSubstrate._incremental_update`); every
other row is provably unchanged, so the result is bit-identical to a
cold rebuild.  The exact-parity fallback is structural: whenever the
topology cannot answer ``diff`` or the change set is large, the
substrate performs a full bounded rebuild — same numbers, different
wall-clock.  ``incremental=False`` forces that path everywhere (the
parity suite uses it as the reference).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.net import graph as g

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology owns us)
    from repro.net.topology import Topology

__all__ = [
    "DistanceSubstrate",
    "DistanceView",
    "GlobalDistanceView",
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

    def set_rows(self, ids: np.ndarray, rows: np.ndarray) -> None:
        self.mat[ids] = rows

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

    def dense(self) -> np.ndarray:
        return self.mat

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
        (see :meth:`DistanceSubstrate._incremental_update`); returns how
        many rows that was."""
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

    def dense(self) -> np.ndarray:
        """Materialise the full band (test oracle / small-N paths only)."""
        n = self.indptr.size - 1
        out = np.full((n, n), g.UNREACHABLE, dtype=self.dist.dtype)
        owner = np.repeat(np.arange(n), np.diff(self.indptr))
        out[owner, self.indices] = self.dist
        return out

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


@dataclass
class _EpochCache:
    """Per-epoch derived views (cleared whenever the band changes)."""

    membership: Dict[int, object] = field(default_factory=dict)
    clipped_band: Dict[int, np.ndarray] = field(default_factory=dict)


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
        :meth:`ensure_horizon` when a larger view is requested; membership
        queries for any radius ≤ horizon are served from the same band.
    incremental:
        When False every refresh is a full bounded rebuild (exact-parity
        reference mode).

    The band is dense below :data:`SPARSE_NODE_THRESHOLD` nodes and
    sparse at and above it; both representations equal the clipped BFS
    oracle, enforced by the backend property tests.
    """

    def __init__(
        self,
        topology: "Topology",
        horizon: int,
        *,
        incremental: bool = True,
    ) -> None:
        if int(horizon) < 1:
            raise ValueError("horizon must be >= 1")
        # the topology owns its substrate: a strong back-reference would
        # make a cycle, and every finished run would wait for the cyclic GC
        self._topology = weakref.ref(topology)
        self.horizon = int(horizon)
        self.incremental = bool(incremental)
        self._stats = SubstrateStats()
        self._epoch = -1
        self._band = None  # a _DenseBand or _SparseBand, None when stale
        self._cache = _EpochCache()

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

        Shrinking never happens: smaller views clip the shared band, so an
        R view and a 2R view ride the same incremental machinery.
        """
        horizon = int(horizon)
        if horizon > self.horizon:
            self.horizon = horizon
            self._band = None
            self._epoch = -1

    def view(self, horizon: Optional[int] = None) -> "DistanceView":
        """A :class:`DistanceView` clipped at ``horizon`` (default: full band).

        Growing requests are honored by :meth:`ensure_horizon` first.
        """
        horizon = self.horizon if horizon is None else int(horizon)
        if horizon < 1:
            raise ValueError("view horizon must be >= 1")
        self.ensure_horizon(horizon)
        return DistanceView(self, horizon)

    # ------------------------------------------------------------------
    # freshness
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring the band up to the topology's current epoch."""
        topo = self.topology
        adj = topo.adj  # forces the adjacency build (and the change log)
        if self._band is not None and self._epoch == topo.epoch:
            return
        changed: Optional[np.ndarray] = None
        if self.incremental and self._band is not None:
            changed = topo.diff(self._epoch)
        n = topo.num_nodes
        if changed is None or changed.size > n * FULL_REBUILD_FRACTION:
            csr = g.csr_to_matrix(*topo.csr) if g._HAVE_SCIPY else None
            backend = _SparseBand if self.backend_kind == "sparse" else _DenseBand
            self._band = backend.build(adj, self.horizon, csr)
            self._stats.full_rebuilds += 1
        elif changed.size == 0:
            # epoch bumped (positions moved / liveness toggled) but no link
            # actually flipped — the band is already exact
            self._stats.null_updates += 1
        else:
            self._incremental_update(adj, changed)
        self._epoch = topo.epoch
        self._cache = _EpochCache()

    def _incremental_update(self, adj, changed: np.ndarray) -> None:
        """Recompute exactly the rows a link change can have altered.

        A source ``u`` needs recomputation iff some changed node lies
        within ``horizon`` of ``u`` in the *old* band (a path through the
        changed region may have broken) or in the *new* graph (a new path
        may have appeared).  Any other source's ≤horizon ball contains no
        endpoint of a changed link in either graph, so its set of length-
        ≤horizon paths — and therefore its band row — is identical.
        Distances are symmetric (undirected unit-disk links), so the new-
        graph test reuses the bounded BFS *from* the changed nodes.
        """
        band = self._band
        assert band is not None
        csr = g.csr_to_matrix(*self.topology.csr) if g._HAVE_SCIPY else None
        if band.kind == "sparse":
            rows = band.update(adj, self.horizon, changed, csr)
        else:
            delta = g.bounded_hop_distances(adj, self.horizon, changed, csr=csr)
            touched = band.touched_by(changed)
            touched |= (delta != g.UNREACHABLE).any(axis=0)
            band.set_rows(changed, delta)
            touched[changed] = False  # their rows just landed via `delta`
            rest = np.flatnonzero(touched)
            if rest.size:
                band.set_rows(
                    rest, g.bounded_hop_distances(adj, self.horizon, rest, csr=csr)
                )
            rows = int(changed.size + rest.size)
        self._stats.incremental_updates += 1
        self._stats.rows_recomputed += rows

    # ------------------------------------------------------------------
    # band + membership access (substrate-horizon scoped)
    # ------------------------------------------------------------------
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

    def _fresh_band(self):
        self.refresh()
        assert self._band is not None
        return self._band

    def band(self) -> np.ndarray:
        """The ``(N, N)`` truncated distance matrix (−1 beyond horizon).

        For the sparse backend this *materialises* the dense matrix —
        a test-oracle / small-N convenience, never the hot path.
        """
        return self._fresh_band().dense()

    def band_bytes(self) -> int:
        """Memory footprint of the current band representation."""
        return self._fresh_band().nbytes

    def membership(self, radius: int):
        """Membership matrix at ``radius``: ``M[u, v]`` iff v within
        ``radius`` hops of u (``M[u, u]`` is True).

        Dense backend: a boolean ``(N, N)`` ndarray.  Sparse backend: a
        :class:`SparseMembership` (same indexing surface).  Cached per
        epoch and shared by every consumer asking for the same radius.
        """
        radius = int(radius)
        if radius > self.horizon:
            raise ValueError(
                f"radius {radius} exceeds substrate horizon {self.horizon}"
            )
        band = self._fresh_band()
        cached = self._cache.membership.get(radius)
        if cached is not None:
            self._stats.membership_hits += 1
            return cached
        member = band.membership(radius)
        self._cache.membership[radius] = member
        self._stats.membership_builds += 1
        return member

    def ring(self, u: int, radius: int) -> np.ndarray:
        """Nodes at *exactly* ``radius`` hops from ``u`` (the edge nodes)."""
        radius = int(radius)
        if radius > self.horizon:
            raise ValueError(
                f"radius {radius} exceeds substrate horizon {self.horizon}"
            )
        return self._fresh_band().row_ring(u, radius)

    def hops_within(self, u: int, v: int) -> int:
        """Hop distance ``u → v`` if ≤ horizon, else :data:`g.UNREACHABLE`."""
        return self._fresh_band().hops(u, v)

    # ------------------------------------------------------------------
    # sampled global statistics (the no-APSP path)
    # ------------------------------------------------------------------
    def sample_pair_stats(
        self, k: int, rng: np.random.Generator
    ) -> "g.PairSampleStats":
        """Estimate global path-length statistics from ``k`` sampled
        sources (full BFS per source — O(k·E), never O(N²) memory)."""
        return g.sample_pair_stats(self.topology.adj, k, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceSubstrate(horizon={self.horizon}, epoch={self._epoch}, "
            f"backend={self.backend_kind}, incremental={self.incremental})"
        )


# ----------------------------------------------------------------------
# the views
# ----------------------------------------------------------------------
class DistanceView:
    """Horizon-scoped distance access — the only distance API consumers see.

    A view clips the shared substrate band at its own ``horizon``: an R
    view and a 2R view over one topology answer from the same
    incrementally maintained band, each within its declared scope.
    Beyond-horizon queries answer :data:`repro.net.graph.UNREACHABLE`
    (−1) — by design there is no fallback to an all-pairs matrix.
    """

    __slots__ = ("substrate", "horizon")

    def __init__(self, substrate: DistanceSubstrate, horizon: int) -> None:
        self.substrate = substrate
        self.horizon = int(horizon)

    # -- scalar / vector hop queries -----------------------------------
    def hops(self, u: int, v: int) -> int:
        """Hop distance ``u → v`` if ≤ horizon, else ``UNREACHABLE``."""
        h = self.substrate.hops_within(int(u), int(v))
        return h if 0 <= h <= self.horizon else g.UNREACHABLE

    def hops_many(self, u: int, ids) -> np.ndarray:
        """Vectorized :meth:`hops` for one source and many targets."""
        ids = np.asarray(ids, dtype=np.int64)
        vals = self.substrate._fresh_band().hops_many(int(u), ids)
        if self.horizon < self.substrate.horizon:
            vals = np.where(
                (vals >= 0) & (vals <= self.horizon), vals, g.UNREACHABLE
            ).astype(vals.dtype)
        return vals

    # -- neighborhood queries ------------------------------------------
    def members(self, u: int) -> np.ndarray:
        """Ids within ``horizon`` hops of ``u`` (including ``u``), sorted."""
        return self.substrate._fresh_band().row_within(int(u), self.horizon)

    def ring(self, u: int, h: Optional[int] = None) -> np.ndarray:
        """Ids at *exactly* ``h`` hops (default: the horizon — edge nodes)."""
        h = self.horizon if h is None else int(h)
        if h > self.horizon:
            raise ValueError(f"radius {h} exceeds view horizon {self.horizon}")
        return self.substrate._fresh_band().row_ring(int(u), h)

    def contains(self, u: int, v: int) -> bool:
        """True iff ``v`` lies within ``horizon`` hops of ``u``."""
        return self.hops(u, v) != g.UNREACHABLE

    def path(self, u: int, v: int) -> Optional[List[int]]:
        """A shortest path ``u → v`` if ``v`` lies within ``horizon`` hops,
        else None.

        Read off the band, no BFS: every node of a shortest path to ``v``
        is closer to ``v`` than ``u`` is, so one read of ``v``'s row
        gives each step — the lowest-id neighbour one hop closer.  That
        is the lexicographically smallest shortest path, which is also
        what the parent chase of :func:`repro.net.graph.bfs_tree` from
        ``u`` returns over sorted adjacency.
        """
        sub = self.substrate
        band = sub._fresh_band()
        u, v = int(u), int(v)
        d = band.hops(u, v)
        if not 0 <= d <= self.horizon:
            return None
        if d == 0:
            return [u]
        return band.descend(sub.topology.adj, u, v, d)

    # -- matrix views ---------------------------------------------------
    def membership(self, radius: Optional[int] = None):
        """Membership matrix at ``radius`` ≤ horizon (default: horizon)."""
        radius = self.horizon if radius is None else int(radius)
        if radius > self.horizon:
            raise ValueError(
                f"radius {radius} exceeds view horizon {self.horizon}"
            )
        return self.substrate.membership(radius)

    def band(self) -> np.ndarray:
        """The ``(N, N)`` band matrix clipped at this view's horizon.

        Dense materialisation — a test-oracle / small-N convenience;
        hot paths use the row/scalar queries above.
        """
        sub = self.substrate
        if self.horizon >= sub.horizon and sub.backend_kind == "dense":
            return sub.band()
        sub.refresh()
        cached = sub._cache.clipped_band.get(self.horizon)
        if cached is not None:
            return cached
        full = sub.band()
        clip = np.where(
            (full >= 0) & (full <= self.horizon), full, g.UNREACHABLE
        ).astype(full.dtype)
        sub._cache.clipped_band[self.horizon] = clip
        return clip

    @property
    def epoch(self) -> int:
        return self.substrate.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceView(horizon={self.horizon}, "
            f"substrate_horizon={self.substrate.horizon})"
        )


class GlobalDistanceView:
    """``distance_view(horizon=None)`` — sampled global statistics only.

    The deliberate hole in this API is the point: there is no ``band()``
    and no all-pairs matrix.  Global questions are answered per source
    (one BFS, cached per epoch) or statistically
    (:meth:`sample_pair_stats`), keeping every code path O(N · ball) or
    O(k · E) instead of O(N²).
    """

    #: per-epoch BFS row cache bound (whole rows, so keep it small)
    _ROW_CACHE_LIMIT = 256

    def __init__(self, topology: "Topology") -> None:
        self._topology = weakref.ref(topology)  # as DistanceSubstrate's
        self._epoch = -1
        self._rows: Dict[int, np.ndarray] = {}

    @property
    def topology(self) -> "Topology":
        return self._topology()

    horizon: Optional[int] = None

    def _row(self, u: int) -> np.ndarray:
        u = int(u)
        if self._epoch != self.topology.epoch:
            self._rows.clear()
            self._epoch = self.topology.epoch
        row = self._rows.get(u)
        if row is None:
            row = g.bfs_hops(self.topology.adj, u)
            if len(self._rows) >= self._ROW_CACHE_LIMIT:
                self._rows.clear()
            self._rows[u] = row
        return row

    def hops(self, u: int, v: int) -> int:
        """Exact global hop distance via one cached single-source BFS."""
        return int(self._row(u)[int(v)])

    def hops_many(self, u: int, ids) -> np.ndarray:
        return self._row(u)[np.asarray(ids, dtype=np.int64)]

    def members(self, u: int) -> np.ndarray:
        """Every node reachable from ``u`` (its connected component)."""
        return np.flatnonzero(self._row(u) >= 0)

    def sample_pair_stats(
        self, k: int, rng: np.random.Generator
    ) -> "g.PairSampleStats":
        """Path-length statistics estimated from ``k`` BFS sources."""
        return g.sample_pair_stats(self.topology.adj, k, rng)

    def band(self) -> np.ndarray:
        raise RuntimeError(
            "the global distance view never materialises an N×N matrix; "
            "use sample_pair_stats(k, rng) for global statistics, a "
            "bounded distance_view(horizon=...) for zone queries, or "
            "repro.net.graph.hop_distance_matrix, the exact all-pairs "
            "kernel behind Table 1 and the small-world L"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalDistanceView(N={self.topology.num_nodes})"
