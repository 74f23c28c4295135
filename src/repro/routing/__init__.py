"""Proactive intra-neighborhood routing.

CARD assumes each node runs a proactive protocol "such as DSDV" within its
R-hop neighborhood, giving it complete knowledge of the nodes (resources)
there (§III.C).  :class:`~repro.routing.neighborhood.NeighborhoodTables`
realizes that knowledge as an *oracle* computed by scoped BFS over the
live topology.  This is what the paper's experiments effectively measure
(intra-zone update traffic is not part of any reported figure), and it is
fast enough to refresh every mobility step at N=1000.

It exposes the neighborhood queries CARD needs: membership, edge nodes,
and intra-zone paths.
"""

from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["NeighborhoodTables"]
