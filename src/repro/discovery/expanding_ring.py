"""Expanding-ring search: TTL-escalated flooding.

The paper positions CARD's depth-of-search escalation as "similar to the
expanding ring search.  However, querying in CARD is much more efficient
... as the queries are not flooded with different TTLs but are directed to
individual nodes (the contacts)" (§III.C.4).  This module implements the
thing being compared against, so the claim is measurable (ablation bench
``bench_ablation_query``).

Cost model per round with TTL ``t``: every node at hop distance < ``t``
rebroadcasts once (nodes exactly at ``t`` receive but their TTL is spent),
so a round costs ``|{v : d(s,v) < t}|`` transmissions; rounds escalate
through a TTL schedule (default doubling: 1, 2, 4, ...) and earlier failed
rounds' traffic accumulates — the standard AODV-style ring search.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.discovery.base import DiscoveryResult
from repro.net.graph import bfs_hops
from repro.net.messages import FloodQuery, next_query_id
from repro.net.network import Network

__all__ = ["ExpandingRingDiscovery"]


class ExpandingRingDiscovery:
    """TTL-doubling ring search with a final full flood.

    Parameters
    ----------
    network:
        Substrate.
    ttl_schedule:
        Increasing TTLs to try; default doubles from 1 until ``max_ttl``.
    max_ttl:
        Upper bound of the default schedule (acts as the "network-wide"
        TTL); pick ≥ the network diameter for guaranteed coverage.
    """

    def __init__(
        self,
        network: Network,
        *,
        ttl_schedule: Optional[Sequence[int]] = None,
        max_ttl: int = 64,
    ) -> None:
        self.network = network
        if ttl_schedule is not None:
            sched = [int(t) for t in ttl_schedule]
            if sched != sorted(sched) or any(t <= 0 for t in sched):
                raise ValueError("ttl_schedule must be increasing positive ints")
            self.schedule = sched
        else:
            self.schedule = []
            t = 1
            while t < max_ttl:
                self.schedule.append(t)
                t *= 2
            self.schedule.append(max_ttl)

    def query(self, source: int, target: int) -> DiscoveryResult:
        dist = bfs_hops(self.network.adj, source)
        d_target = int(dist[target])
        msgs = 0
        rx = 0
        for ttl in self.schedule:
            msg = FloodQuery(
                source=source, target=target, query_id=next_query_id(), ttl=ttl
            )
            ring = np.flatnonzero((dist >= 0) & (dist < ttl))
            for u in ring:
                if int(u) == target:
                    continue  # the target answers rather than re-floods
                self.network.transmit(msg, int(u))
                msgs += 1
                rx += self.network.topology.degree(int(u))
            if 0 <= d_target <= ttl:
                return DiscoveryResult(
                    source, target, True, msgs,
                    detail=f"ttl={ttl}, hops={d_target}", rx_events=rx,
                )
        return DiscoveryResult(
            source, target, False, msgs, detail="ttl exhausted", rx_events=rx
        )
