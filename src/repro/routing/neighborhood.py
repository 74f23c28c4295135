"""The neighborhood oracle: scoped realization of CARD's proactive zone.

Per the paper (§III.C): "Each node proactively (using a protocol such as
DSDV) maintains state for all the nodes in its neighborhood.  Therefore a
node has complete knowledge of all the nodes (resources) within its
neighborhood."  This class provides that knowledge directly from the live
topology:

* ``members(u)`` / ``contains(u, v)`` — neighborhood membership (M[u,v] iff
  hop distance ≤ R), the primitive behind every CSQ overlap check;
* ``edge_nodes(u)`` — nodes at *exactly* R hops (the paper's "edge nodes"),
  through which CSQs are launched;
* ``path_within(u, v)`` — a hop-optimal intra-zone route, the primitive
  behind local recovery, CSQ launches and DSQ neighborhood lookups,
  read off the band (:meth:`~repro.net.substrate.DistanceView.path`
  walks down v's row), so it holds no per-source state of its own;
* ``hops(u, v)`` — R-scoped hop distance (−1 beyond the zone);
* ``contact_view`` — the 2R-horizon :class:`~repro.net.substrate.DistanceView`
  the SPREAD edge policy and the overlap metric rank from.

All answers are served by horizon-scoped views over the topology's shared
:class:`~repro.net.substrate.DistanceSubstrate`: one incrementally
maintained band (at the largest horizon any consumer requested) backs the
R view and the 2R view alike, so a mobility step that flips a handful of
links recomputes bounded BFS only for the sources whose zone it touched —
never an all-pairs matrix.  There is deliberately no ``distances``
matrix on this class any more: beyond-horizon questions are either
scoped wrongly (fix the horizon) or global statistics (sample them via
``topology.distance_view(horizon=None)``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.net.substrate import DistanceSubstrate, DistanceView
from repro.net.topology import Topology
from repro.util.validation import check_int, check_positive

__all__ = ["NeighborhoodTables"]


class NeighborhoodTables:
    """R-hop neighborhood knowledge for every node, kept fresh lazily.

    Parameters
    ----------
    topology:
        Ground-truth connectivity (shared with the rest of the stack).
    radius:
        The neighborhood radius R (hops), ``R >= 1``.
    """

    def __init__(self, topology: Topology, radius: int) -> None:
        check_int("radius", radius)
        check_positive("radius", radius)
        self.topology = topology
        self.radius = int(radius)
        # create (or join) the shared substrate up front so the first
        # mobility epoch already has a delta baseline
        self._view: DistanceView = topology.distance_view(self.radius)

    # ------------------------------------------------------------------
    # freshness / views
    # ------------------------------------------------------------------
    @property
    def substrate(self) -> DistanceSubstrate:
        """The topology-shared bounded-distance engine answering queries."""
        return self._view.substrate

    def substrate_stats(self) -> dict:
        """Refresh accounting of the backing substrate (plain dict).

        The public observation point :class:`~repro.core.runner.TimeSeriesRunner`
        and the obs layer read instead of reaching into the substrate.
        """
        return self._view.substrate.stats().as_dict()

    @property
    def view(self) -> DistanceView:
        """The R-horizon :class:`DistanceView` backing every zone query."""
        return self._view

    @property
    def contact_view(self) -> DistanceView:
        """The 2R-horizon view for contact-band operations.

        SPREAD edge ranking and the overlap metric only ever compare
        nodes whose true distance is ≤ 2R (edge nodes of one source are
        pairwise ≤ 2R via the source; "overlapping contact" *means*
        distance ≤ 2R), so this view answers them exactly — lazily, so
        consumers that never rank (RANDOM policy, no overlap family)
        never grow the shared band beyond R.
        """
        return self.topology.distance_view(2 * self.radius)

    @property
    def membership(self):
        """Membership matrix: ``membership[u, v]`` iff v in u's neighborhood.

        A dense boolean ndarray below the sparse threshold, a
        row-materialising :class:`~repro.net.substrate.SparseMembership`
        above it — both serve the same indexing patterns.
        """
        return self._view.membership(self.radius)

    # ------------------------------------------------------------------
    # CARD queries
    # ------------------------------------------------------------------
    def contains(self, u: int, v: int) -> bool:
        """True iff ``v`` lies within R hops of ``u`` (including u itself)."""
        return self._view.contains(u, v)

    def members(self, u: int) -> np.ndarray:
        """IDs of all nodes in u's neighborhood (including u)."""
        return self._view.members(u)

    def size(self, u: int) -> int:
        """Neighborhood cardinality (including u)."""
        return int(self._view.members(u).size)

    def edge_nodes(self, u: int) -> np.ndarray:
        """Nodes at exactly R hops from ``u`` — the CSQ launch points."""
        return self._view.ring(u, self.radius)

    def hops(self, u: int, v: int) -> int:
        """Zone-scoped hop distance u→v, or −1 beyond the R horizon.

        The pre-``DistanceView`` implementation fell back to a global
        all-pairs matrix here; that fallback is gone by design.  Callers
        needing the 2R contact band use :attr:`contact_view`; global
        statistics are sampled via ``topology.distance_view(None)``.
        """
        return self._view.hops(u, v)

    def zone_hops(self, u: int, ids) -> np.ndarray:
        """Band-scoped hop distances ``u → ids`` in one vectorized read.

        Values beyond the radius come back as −1 — callers pass
        neighborhood members (DSQ/resource zone lookups), which are
        in-band by construction.
        """
        return self._view.hops_many(u, ids)

    def path_within(self, u: int, v: int) -> Optional[List[int]]:
        """A hop-optimal path u→v if ``v`` is inside u's neighborhood.

        Returns None when v is outside the zone or unreachable — the caller
        (local recovery, DSQ lookup, CSQ launch) treats that as a failed
        table lookup.  The route is read off the shared band by
        :meth:`DistanceView.path` — always the lexicographically smallest
        shortest path, and never stale: it is as fresh as the band.
        """
        return self._view.path(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborhoodTables(R={self.radius}, epoch={self.substrate.epoch})"
