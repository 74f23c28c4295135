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
  read off the band (:meth:`~repro.net.substrate.DistanceSubstrate.path`
  walks down v's row), so it holds no per-source state of its own;
* ``zone_hops(u, ids)`` — R-scoped hop distances (−1 beyond the zone);
* ``band_hops(u, v)`` — hop distance in the 2R contact band, which the
  SPREAD edge policy and the overlap metric rank from.

The radius is stated once, here: every answer is a query at R (or 2R)
on the topology's shared :class:`~repro.net.substrate.DistanceSubstrate`,
one incrementally maintained band (at the largest horizon any consumer
asked for), so a mobility step that flips a handful of links recomputes
bounded BFS only for the sources whose zone it touched — never an
all-pairs matrix.  There is deliberately no ``distances`` matrix on this
class: beyond-horizon questions are either scoped wrongly (fix the
horizon) or global, and a global row is one
:func:`repro.net.graph.bfs_hops` call.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.net.graph import UNREACHABLE
from repro.net.substrate import DistanceSubstrate
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
        #: the topology-shared bounded-distance engine answering queries;
        #: created (or joined) up front so the first mobility epoch
        #: already has a delta baseline
        self.substrate: DistanceSubstrate = topology.substrate(self.radius)

    def substrate_stats(self) -> dict:
        """Refresh accounting of the backing substrate (plain dict).

        The public observation point :class:`~repro.core.runner.TimeSeriesRunner`
        and the obs layer read instead of reaching into the substrate.
        """
        return self.substrate.stats().as_dict()

    @property
    def membership(self):
        """Membership matrix: ``membership[u, v]`` iff v in u's neighborhood.

        A dense boolean ndarray below the sparse threshold, a
        row-materialising :class:`~repro.net.substrate.SparseMembership`
        above it — both serve the same indexing patterns.
        """
        return self.substrate.membership(self.radius)

    # ------------------------------------------------------------------
    # CARD queries
    # ------------------------------------------------------------------
    def contains(self, u: int, v: int) -> bool:
        """True iff ``v`` lies within R hops of ``u`` (including u itself)."""
        return self.substrate.hops(u, v, self.radius) != UNREACHABLE

    def members(self, u: int) -> np.ndarray:
        """IDs of all nodes in u's neighborhood (including u)."""
        return self.substrate.members(u, self.radius)

    def edge_nodes(self, u: int) -> np.ndarray:
        """Nodes at exactly R hops from ``u`` — the CSQ launch points."""
        return self.substrate.ring(u, self.radius)

    def zone_hops(self, u: int, ids) -> np.ndarray:
        """Zone-scoped hop distances ``u → ids`` in one vectorized read.

        Values beyond the radius come back as −1 — callers pass
        neighborhood members (DSQ/resource zone lookups), which are
        in-band by construction.
        """
        return self.substrate.hops_many(u, ids, self.radius)

    def band_hops(self, u: int, v: int) -> int:
        """Hop distance ``u → v`` if ≤ 2R, else −1.

        SPREAD edge ranking and the overlap metric only ever compare
        nodes whose true distance is ≤ 2R (edge nodes of one source are
        pairwise ≤ 2R via the source; "overlapping contact" *means*
        distance ≤ 2R), so the 2R band answers them exactly.  The shared
        band grows to 2R on the first such question, so consumers that
        never rank (RANDOM policy, no overlap family) never pay for it.
        """
        h = 2 * self.radius
        self.substrate.ensure_horizon(h)
        return self.substrate.hops(u, v, h)

    def path_within(self, u: int, v: int) -> Optional[List[int]]:
        """A hop-optimal path u→v if ``v`` is inside u's neighborhood.

        Returns None when v is outside the zone or unreachable — the caller
        (local recovery, DSQ lookup, CSQ launch) treats that as a failed
        table lookup.  The route is read off the shared band — always the
        lexicographically smallest shortest path, and never stale: it is
        as fresh as the band.
        """
        return self.substrate.path(u, v, self.radius)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborhoodTables(R={self.radius}, epoch={self.substrate.epoch})"
