"""Blind flooding — the baseline every reactive MANET protocol falls back to.

The source broadcasts the query; every node rebroadcasts the first copy it
receives (duplicate suppression by query id); the target answers instead of
rebroadcasting.  On a connected component of size ``C`` a query therefore
costs ``C - 1`` transmissions when the target is inside (everyone but the
target transmits), or ``C`` when it is not (everyone transmits, nobody
answers).  Success is guaranteed within the source's component — flooding's
100 % success rate in Fig 15 — and the per-query cost scales linearly with
network size, which is exactly why it loses to CARD there.
"""

from __future__ import annotations

import numpy as np

from repro.discovery.base import DiscoveryResult
from repro.net.graph import bfs_hops
from repro.net.messages import FloodQuery, next_query_id
from repro.net.network import Network

__all__ = ["FloodingDiscovery"]


class FloodingDiscovery:
    """Network-wide flood per query."""

    def __init__(self, network: Network) -> None:
        self.network = network

    def query(self, source: int, target: int) -> DiscoveryResult:
        msg = FloodQuery(source=source, target=target, query_id=next_query_id())
        dist = bfs_hops(self.network.adj, source)
        reached = dist >= 0
        success = bool(reached[target])
        transmitters = reached.copy()
        if success and target != source:
            transmitters[target] = False  # the target replies, not re-floods
        tx = np.flatnonzero(transmitters).tolist()
        self.network.transmit_path(msg, tx)
        rx = sum(map(self.network.topology.degree, tx))
        msgs = len(tx)
        detail = f"hops={int(dist[target])}" if success else "disconnected"
        return DiscoveryResult(
            source, target, success, msgs, detail=detail, rx_events=rx
        )
