"""ZRP bordercasting with query detection (Pearlman & Haas [8]).

The Zone Routing Protocol's reactive search: instead of flooding, a node
relays the query along a **bordercast tree** to its *peripheral nodes*
(nodes at exactly the zone radius R — the paper's "edge nodes").  Each
peripheral node checks its own proactive zone for the target and, on a
miss, re-bordercasts to *its* peripheral nodes.  Left unchecked this
re-floods zones repeatedly; **query detection** prunes it:

* **QD1** — every node that relays the query (interior tree nodes) records
  it, and is skipped as a future bordercast target;
* **QD2** — additionally, nodes *overhearing* a relay transmission (the
  relayer's one-hop neighbors, on the shared wireless channel) record the
  query too.  This is the configuration the paper compares against
  ("Bordercasting was implemented with query detection (QD1 and QD2) as
  described in [8]", §IV.D).

Cost accounting: a bordercast transmits once per tree edge (unicast-style
relaying down the BFS tree toward the selected peripheral nodes), the same
per-hop convention used for CARD's walks.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import List, Set

import numpy as np

from repro.discovery.base import DiscoveryResult
from repro.net.graph import bfs_tree, UNREACHABLE
from repro.net.messages import BordercastQuery, next_query_id
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["BordercastDiscovery", "QDMode"]


class QDMode(enum.Enum):
    """Query-detection level."""

    NONE = "none"
    QD1 = "qd1"
    #: QD1 + overhearing — the paper's configuration
    QD2 = "qd2"


class BordercastDiscovery:
    """ZRP-style bordercast search over R-hop zones.

    Parameters
    ----------
    network:
        Substrate.
    tables:
        Zone (neighborhood) knowledge with the ZRP zone radius; CARD's
        comparison uses the same radius for both schemes.
    qd:
        Query-detection mode (default QD2, as in the paper).
    """

    def __init__(
        self,
        network: Network,
        tables: NeighborhoodTables,
        *,
        qd: QDMode = QDMode.QD2,
    ) -> None:
        self.network = network
        self.tables = tables
        self.qd = qd

    # ------------------------------------------------------------------
    def _bordercast_tree(
        self, u: int, border: List[int]
    ) -> List[tuple]:
        """Edges of the BFS relay tree from ``u`` to the given border nodes."""
        dist, parent = bfs_tree(
            self.network.adj, u, max_hops=self.tables.radius
        )
        edges: Set[tuple] = set()
        for b in border:
            if dist[b] == UNREACHABLE:
                continue
            node = b
            while node != u:
                p = int(parent[node])
                edges.add((p, node))
                node = p
        return sorted(edges)

    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> DiscoveryResult:
        """Run one bordercast search.

        Semantics of query detection here: a node that has *seen* the query
        (as a relayer under QD1, or additionally by overhearing a relay
        under QD2) is never paid for again as a bordercast target.
        Delivered peripheral nodes do the zone lookup and re-bordercast on
        a miss (standard ZRP); overhearing nodes perform the *lookup only*
        — they hold the query and would answer, but do not initiate their
        own bordercast, matching [8] where only addressed peripheral nodes
        relay the thread onward.
        """
        tables = self.tables
        if target == source or tables.contains(source, target):
            return DiscoveryResult(source, target, True, 0, detail="own zone")
        msg = BordercastQuery(
            source=source, target=target, query_id=next_query_id()
        )
        n = self.network.num_nodes
        seen = np.zeros(n, dtype=bool)  # nodes that detected the query
        seen[source] = True
        queue = deque([source])
        queued = np.zeros(n, dtype=bool)
        queued[source] = True
        msgs = 0
        rx = 0  # receptions incl. overhearing — the medium is broadcast
        bordercasts = 0

        def absorb(node: int) -> bool:
            """Node ``node`` now holds the query: lookup + enqueue.

            Returns True when the target is in its zone (query answered).
            """
            if tables.contains(node, target):
                return True
            if not queued[node]:
                queued[node] = True
                queue.append(node)
            return False

        while queue:
            u = queue.popleft()
            border = [int(b) for b in tables.edge_nodes(u)]
            if self.qd is not QDMode.NONE:
                border = [b for b in border if not seen[b]]
            if not border:
                continue
            tree_edges = self._bordercast_tree(u, border)
            bordercasts += 1
            border_set = set(border)
            overheard: List[int] = []
            delivered: List[int] = []
            tx = [int(a) for a, _ in tree_edges]
            self.network.transmit_path(msg, tx)
            msgs += len(tx)
            rx += sum(map(self.network.topology.degree, tx))
            for a, b in tree_edges:
                if not seen[a]:
                    seen[a] = True
                if not seen[b]:
                    seen[b] = True
                if self.qd is QDMode.QD2:
                    # overhearing: every radio within range of the relayer
                    for w in self.network.neighbors(int(a)):
                        w = int(w)
                        if not seen[w]:
                            seen[w] = True
                            overheard.append(w)
                if b in border_set:
                    delivered.append(int(b))
            for b in sorted(set(delivered)):
                if absorb(b):
                    return DiscoveryResult(
                        source, target, True, msgs,
                        detail=f"bordercasts={bordercasts}", rx_events=rx,
                    )
            for w in sorted(set(overheard)):
                if tables.contains(w, target):
                    return DiscoveryResult(
                        source, target, True, msgs,
                        detail=f"bordercasts={bordercasts} (overheard)",
                        rx_events=rx,
                    )
        return DiscoveryResult(
            source, target, False, msgs,
            detail=f"bordercasts={bordercasts}", rx_events=rx,
        )
