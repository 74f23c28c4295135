#!/usr/bin/env python
"""Quickstart: build a MANET, run CARD, discover a resource.

Walks through the whole public API surface in ~60 lines:

1. place 400 radios uniformly in a 640 m × 640 m field (unit-disk, 50 m);
2. configure CARD (neighborhood radius R, contact band (2R, r], NoC);
3. bootstrap contact selection everywhere;
4. query a far-away node through up to three levels of contacts;
5. compare the query's cost against blind flooding.

Run:  python examples/quickstart.py
"""

from repro import (
    CARDParams,
    CARDProtocol,
    FloodingDiscovery,
    Network,
    build_topology,
)
from repro.net.graph import bfs_hops

SEED = 7


def main() -> None:
    # 1. the network substrate
    topo = build_topology(400, (640.0, 640.0), 50.0, seed=SEED, salt="quickstart")
    stats = topo.stats()
    print(f"network: {stats.num_nodes} nodes, {stats.num_links} links, "
          f"mean degree {stats.mean_degree:.2f}, diameter {stats.diameter} hops")

    # 2. CARD configuration: zone of 3 hops, contacts 6..12 hops out
    params = CARDParams(R=3, r=12, noc=5, depth=3)
    net = Network(topo)
    card = CARDProtocol(net, params, seed=SEED)

    # 3. every node selects contacts (the standing "small world" structure)
    results = card.bootstrap()
    mean_contacts = sum(r.num_contacts for r in results.values()) / len(results)
    print(f"bootstrap: {card.total_contacts()} contacts selected "
          f"({mean_contacts:.2f}/node), "
          f"{net.stats.total():,} control messages spent")

    # 4. resource discovery: find a node far outside the source's zone
    source = 0
    # a global distance is one BFS row, never an N x N matrix
    hops = bfs_hops(topo.adj, source)
    far = [int(v) for v in range(topo.num_nodes) if hops[v] > 8]
    target = far[0] if far else topo.num_nodes - 1
    res = card.query(source, target)
    print(f"query {source} -> {target} ({int(hops[target])} hops away): "
          f"success={res.success} at contact level {res.depth_found}, "
          f"{res.msgs} query messages, route of {len(res.path or []) - 1} hops")

    # 5. what would flooding have paid?
    flood = FloodingDiscovery(Network(topo)).query(source, target)
    if res.success and res.msgs:
        print(f"flooding the same query costs {flood.msgs} messages "
              f"({flood.msgs / res.msgs:.1f}x CARD)")

    # mean reachability of the contact structure (the paper's headline metric)
    reach = card.reachability(depth=1)
    print(f"mean reachability: {reach.mean():.1f}% at D=1, "
          f"{card.reachability(depth=3).mean():.1f}% at D=3")


if __name__ == "__main__":
    main()
