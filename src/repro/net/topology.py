"""Node placement + radio range → connectivity, with cheap rebuilds.

A :class:`Topology` owns the ground truth the whole simulator works from:

* ``positions`` — an ``(N, 2)`` float array of node coordinates (meters);
* ``tx_range`` — the common transmission range of the unit-disk model;
* ``csr`` / ``adj`` — the connectivity derived from the above: one CSR
  ``(indptr, indices)`` pair per epoch, and ``adj`` as the list of its
  per-node sorted neighbor rows (views, not copies);
* ``adj_lists`` — the same rows as plain Python ``list[int]``, built on
  first use per epoch for the per-hop loops (CSQ walks, one-hop checks)
  that would otherwise pay a numpy call per node.

Mobility models mutate positions (through :meth:`set_positions`), which
invalidates and lazily rebuilds the adjacency.  An ``epoch`` counter
increments on every rebuild so higher layers (neighborhood tables, CARD
state) can detect staleness without comparing arrays.

All distance access goes through :meth:`distance_view` — a horizon-
scoped :class:`~repro.net.substrate.DistanceView` (R for zone
operations, 2R for contact-overlap checks, ``horizon=None`` for sampled
global statistics).  There is deliberately no all-pairs accessor on the
topology: the exact Table 1 path statistics and the small-world L come
from per-level pair counts over the adjacency
(:func:`repro.net.graph.hop_level_counts`), not from a distance matrix.

Two facilities support the incremental neighborhood substrate:

* **edge-delta tracking** — once enabled, every adjacency rebuild is
  diffed against the previous one (a set-xor of the two sorted
  ``row * N + col`` edge-key arrays) and the set of nodes whose link set
  changed is logged per epoch range; :meth:`diff` answers "which nodes
  changed since epoch E?" so consumers can recompute only what a mobility
  step actually touched;
* a **shared substrate** — :meth:`substrate` keeps one
  :class:`~repro.net.substrate.DistanceSubstrate` per topology that
  grows its horizon in place, so every view over this topology (R zone
  tables, 2R overlap checks, the DSQ engine, sweeps) reads the same
  incrementally maintained band instead of re-deriving its own.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net import graph as g
from repro.net.spatial import build_unit_disk_edges
from repro.net.substrate import DistanceSubstrate, DistanceView, GlobalDistanceView
from repro.util.validation import check_positive

__all__ = ["Topology"]

#: Change-log entries retained; older deltas force a full substrate rebuild.
#: Covers many mobility steps between substrate refreshes (validation
#: periods are a handful of steps) without unbounded memory.
_CHANGE_LOG_LIMIT = 256


def _changed_nodes(old_keys: np.ndarray, new_keys: np.ndarray, n: int) -> np.ndarray:
    """Ids of nodes whose neighbor row differs between two adjacencies.

    Both arguments are sorted, duplicate-free ``row * n + col`` keys of a
    symmetric adjacency, so a flipped link shows up under both endpoints.
    """
    flipped = np.setxor1d(old_keys, new_keys, assume_unique=True)
    return np.unique(flipped // n)


def _require_finite(positions: np.ndarray) -> None:
    # NaN compares False against every bound and every range test: the
    # node would silently lose its links instead of failing the run
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite (no NaN/inf)")


class Topology:
    """Unit-disk connectivity over mobile node positions.

    Parameters
    ----------
    positions:
        Initial ``(N, 2)`` coordinates.
    tx_range:
        Radio transmission range in meters (unit-disk).
    area:
        ``(width, height)`` of the simulation rectangle; nodes must stay
        inside (mobility models enforce this).

    Examples
    --------
    >>> import numpy as np
    >>> topo = Topology(np.array([[0., 0.], [30., 0.], [100., 0.]]),
    ...                 tx_range=50.0, area=(200.0, 200.0))
    >>> [list(a) for a in topo.adj]
    [[1], [0], []]
    """

    def __init__(
        self,
        positions: np.ndarray,
        tx_range: float,
        area: Tuple[float, float],
    ) -> None:
        positions = np.array(positions, dtype=np.float64, copy=True)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must have shape (N, 2)")
        check_positive("tx_range", tx_range)
        check_positive("area width", area[0])
        check_positive("area height", area[1])
        _require_finite(positions)
        if positions.size and (
            positions.min() < 0.0
            or positions[:, 0].max() > area[0]
            or positions[:, 1].max() > area[1]
        ):
            raise ValueError("positions must lie inside the area rectangle")
        self._positions = positions
        self.tx_range = float(tx_range)
        self.area = (float(area[0]), float(area[1]))
        #: increments every time connectivity is rebuilt
        self.epoch = 0
        #: per-node liveness; failed nodes keep their index but lose all
        #: links (failure injection for the robustness experiments)
        self._active = np.ones(positions.shape[0], dtype=bool)
        # connectivity of the last build: CSR arrays, their row views, and
        # the sorted ``row * N + col`` keys the next rebuild is diffed against
        self._adj: Optional[List[np.ndarray]] = None
        self._adj_lists: Optional[List[List[int]]] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._edge_keys: Optional[np.ndarray] = None
        self._edge_keys_epoch = -1
        # --- edge-delta tracking (lazy; enabled by the substrate) ---
        self._track_deltas = False
        #: (from_epoch, to_epoch, changed node ids) — contiguous chain
        self._change_log: Deque[Tuple[int, int, np.ndarray]] = deque(
            maxlen=_CHANGE_LOG_LIMIT
        )
        self._substrate: Optional[DistanceSubstrate] = None
        self._global_view: Optional[GlobalDistanceView] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform_random(
        cls,
        num_nodes: int,
        area: Tuple[float, float],
        tx_range: float,
        rng: np.random.Generator,
    ) -> "Topology":
        """Place ``num_nodes`` uniformly at random in the area.

        This is the generative model behind the paper's Table 1 scenarios.
        """
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        pos = np.empty((num_nodes, 2), dtype=np.float64)
        pos[:, 0] = rng.uniform(0.0, area[0], size=num_nodes)
        pos[:, 1] = rng.uniform(0.0, area[1], size=num_nodes)
        return cls(pos, tx_range, area)

    # ------------------------------------------------------------------
    # core accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Read-only view of node coordinates."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def set_positions(self, positions: np.ndarray) -> None:
        """Replace node coordinates and invalidate derived structures."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self._positions.shape:
            raise ValueError("node count cannot change after construction")
        _require_finite(positions)
        self._positions = np.array(positions, copy=True)
        self._adj = None
        self.epoch += 1

    @property
    def adj(self) -> List[np.ndarray]:
        """Sorted neighbor arrays; rebuilt lazily after movement.

        Each ``adj[u]`` is an int64 view of row ``u`` of :attr:`csr`.
        """
        if self._adj is None:
            old_keys, old_epoch = self._edge_keys, self._edge_keys_epoch
            self._adj = self._build_adjacency()
            self._adj_lists = None
            if self._track_deltas and old_keys is not None:
                changed = _changed_nodes(old_keys, self._edge_keys, self.num_nodes)
                self._change_log.append((old_epoch, self.epoch, changed))
            self._edge_keys_epoch = self.epoch
        return self._adj

    @property
    def adj_lists(self) -> List[List[int]]:
        """:attr:`adj` as plain Python lists, built once per epoch.

        ``adj_lists[u] == adj[u].tolist()``.  Callers must not mutate the
        rows: a walk that shuffles one copies it first.
        """
        _ = self.adj  # an epoch change rebuilds the CSR and drops the lists
        if self._adj_lists is None:
            indptr, indices = self._csr
            flat = indices.tolist()
            bounds = indptr.tolist()
            self._adj_lists = [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        return self._adj_lists

    @property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The adjacency as CSR ``(indptr, indices)`` int64 arrays.

        Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]``, sorted.  This is
        what :attr:`adj` and the substrate's sparse matrix are views of.
        """
        _ = self.adj
        assert self._csr is not None
        return self._csr

    def _build_adjacency(self) -> List[np.ndarray]:
        """Rebuild ``_csr`` and ``_edge_keys`` from positions and liveness;
        return the per-node row views."""
        n = self.num_nodes
        edges = build_unit_disk_edges(self._positions, self.tx_range, self.area)
        u, v = edges[:, 0], edges[:, 1]
        if not self._active.all():
            live = self._active[u] & self._active[v]
            u, v = u[live], v[live]
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        rows, indices = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._csr = (indptr, indices)
        self._edge_keys = keys
        bounds = indptr.tolist()
        return [indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    @property
    def active(self) -> np.ndarray:
        """Read-only per-node liveness mask."""
        view = self._active.view()
        view.flags.writeable = False
        return view

    def is_active(self, u: int) -> bool:
        return bool(self._active[u])

    def fail_nodes(self, nodes) -> None:
        """Fail ``nodes`` in one epoch bump: a failed node keeps its
        position but loses every link, exactly like a powered-off radio.
        Failing a node that is already down changes nothing."""
        changed = False
        for u in nodes:
            if self._active[int(u)]:
                self._active[int(u)] = False
                changed = True
        if changed:
            self._adj = None
            self.epoch += 1

    # ------------------------------------------------------------------
    # edge-delta tracking
    # ------------------------------------------------------------------
    def enable_delta_tracking(self) -> None:
        """Start diffing adjacency rebuilds (idempotent).

        The current adjacency is built immediately so the first tracked
        rebuild has a baseline to diff against.
        """
        _ = self.adj
        self._track_deltas = True

    def diff(self, since_epoch: int) -> Optional[np.ndarray]:
        """Nodes whose link set changed between ``since_epoch`` and now.

        Returns an int64 id array (possibly empty — the epoch advanced but
        no link flipped), or ``None`` when the change log cannot answer
        (tracking disabled, ``since_epoch`` predates the log, or no
        adjacency was built at that epoch).  Callers treat ``None`` as
        "recompute from scratch" — the exact-parity fallback.
        """
        _ = self.adj  # ensure the current epoch's rebuild is logged
        if since_epoch == self.epoch:
            return np.empty(0, dtype=np.int64)
        if not self._track_deltas or since_epoch > self.epoch:
            return None
        spans = [e for e in self._change_log if e[0] >= since_epoch]
        if not spans or spans[0][0] != since_epoch or spans[-1][1] != self.epoch:
            return None
        if len(spans) == 1:
            return spans[0][2]
        return np.unique(np.concatenate([e[2] for e in spans]))

    def substrate(self, horizon: int) -> "DistanceSubstrate":
        """The shared bounded-distance substrate, horizon ≥ ``horizon``.

        One substrate serves every consumer of this topology: a request
        with a smaller horizon reuses the existing band (membership at
        radius r only needs horizon ≥ r), a larger one grows the band in
        place — same substrate object, so all existing views keep riding
        the shared incremental machinery.  Creating the substrate enables
        delta tracking so mobility steps can be applied incrementally.
        """
        horizon = int(horizon)
        if self._substrate is None:
            self.enable_delta_tracking()
            self._substrate = DistanceSubstrate(self, horizon)
        else:
            self._substrate.ensure_horizon(horizon)
        return self._substrate

    def substrate_stats(self) -> Dict[str, int]:
        """Refresh accounting of the shared substrate, as a plain dict.

        ``{}`` when no consumer ever created the substrate (snapshot
        topologies with no zone machinery), so callers can report it
        unconditionally.
        """
        if self._substrate is None:
            return {}
        return self._substrate.stats().as_dict()

    # ------------------------------------------------------------------
    # distance access (the DistanceView API)
    # ------------------------------------------------------------------
    def distance_view(
        self, horizon: Optional[int] = None
    ) -> Union[DistanceView, GlobalDistanceView]:
        """Horizon-scoped distance access — the only distance API.

        * ``horizon=R`` — zone operations (membership, edge nodes,
          intra-zone hop lookups);
        * ``horizon=2R`` — contact-band operations (SPREAD edge ranking,
          the overlap metric: "overlaps" ≡ "inside the 2R band");
        * ``horizon=None`` — a :class:`~repro.net.substrate.GlobalDistanceView`
          for explicitly *sampled* global statistics; it has no ``band()``
          and never materialises an N×N matrix.

        All bounded views over one topology share a single
        :class:`~repro.net.substrate.DistanceSubstrate` whose band sits at
        the largest horizon requested so far.
        """
        if horizon is None:
            if self._global_view is None:
                self._global_view = GlobalDistanceView(self)
            return self._global_view
        return self.substrate(int(horizon)).view(int(horizon))

    def are_neighbors(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` share a direct (one-hop) link."""
        nbrs = self.adj_lists[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def stats(
        self,
        *,
        pair_sample: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> g.GraphStats:
        """Connectivity statistics (the Table 1 columns).

        ``pair_sample`` switches diameter/mean-hops to the sampled
        no-APSP estimator when the giant component exceeds the sample —
        see :func:`repro.net.graph.graph_stats`.
        """
        return g.graph_stats(self.adj, pair_sample=pair_sample, rng=rng, csr=self.csr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(N={self.num_nodes}, area={self.area}, "
            f"tx={self.tx_range}, epoch={self.epoch})"
        )
