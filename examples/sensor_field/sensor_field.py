#!/usr/bin/env python
"""Sensor-field resource discovery — the paper's static large-scale use case.

The paper motivates CARD with "applications like sensor networks [that] may
comprise of thousands of nodes" and notes that mobility-assisted contact
schemes "may not be suitable for static sensor networks" (§II).  This
example plays that scenario out with the full application stack:

* a 900-node static sensor field; six nodes register the ``"gateway"``
  resource in a :class:`~resources.registry.ResourceRegistry`;
* sensors locate *any* gateway through
  :class:`~resources.discovery.ResourceQueryEngine` (anycast over
  contacts), at two depths of search;
* flooding and ZRP bordercasting answer the same workload against the
  ground-truth nearest gateway;
* an :class:`~energy.EnergyModel` converts each scheme's traffic
  (tallied per node by :class:`~energy.PerNodeStats`, installed as each
  network's ``stats``) into battery terms — total joules, hottest node, and estimated rounds
  until the first battery death (the paper's requirement (b), quantified).

The resource layer (``resources/``) and the energy model (``energy.py``)
live next to this script: the example is their only user.

Run:  python examples/sensor_field/sensor_field.py
"""

import numpy as np

from repro import (
    BordercastDiscovery,
    CARDParams,
    CARDProtocol,
    FloodingDiscovery,
    Network,
    NeighborhoodTables,
    build_topology,
)
from repro.net.graph import bfs_hops

from energy import EnergyModel, PerNodeStats
from resources import ResourceQueryEngine, ResourceRegistry

SEED = 42
NUM_SENSORS = 900
NUM_GATEWAYS = 6
AREA = (950.0, 950.0)
TX = 50.0


def main() -> None:
    topo = build_topology(NUM_SENSORS, AREA, TX, seed=SEED, salt="sensors")
    stats = topo.stats()
    print(f"sensor field: {NUM_SENSORS} nodes, mean degree "
          f"{stats.mean_degree:.2f}, giant component {stats.giant_size}")

    rng = np.random.default_rng(SEED)
    registry = ResourceRegistry()
    gateways = sorted(
        int(g) for g in rng.choice(NUM_SENSORS, NUM_GATEWAYS, replace=False)
    )
    registry.register_many("gateway", gateways)
    queriers = [int(q) for q in rng.choice(NUM_SENSORS, 40, replace=False)
                if q not in gateways][:30]
    print(f"gateways at {gateways}; querying from {len(queriers)} sensors\n")

    # tuned per the parameter_tuning.py recipe (see also EXPERIMENTS.md)
    params = CARDParams(R=3, r=14, noc=6, depth=4)

    # --- CARD + resource layer -------------------------------------------
    card_net = Network(topo)
    card_net.stats = PerNodeStats(NUM_SENSORS)
    card = CARDProtocol(card_net, params, seed=SEED)
    card.bootstrap()
    standing = card_net.stats.total()
    card_net.stats.reset()  # separate standing cost from query traffic
    engine = ResourceQueryEngine(
        card_net, card.tables, params, card.contact_tables, registry
    )

    # ground-truth nearest gateway per querier, for the blind baselines
    # (one BFS row per querier; no N x N matrix)
    nearest = {
        q: gateways[int(np.argmin([h if h >= 0 else 10**6
                                   for h in bfs_hops(topo.adj, q)[gateways]]))]
        for q in queriers
    }

    energy = EnergyModel(mean_degree=stats.mean_degree, battery_joules=1.0)

    def summarize(name, net, ok, msgs, rounds):
        rep = energy.report(net.stats)
        lifetime = energy.lifetime_rounds(net.stats, rounds_measured=rounds)
        print(f"{name:16s}: {ok}/{len(queriers)} found, {msgs:7,} msgs, "
              f"{1e3 * rep.total:7.1f} mJ total, skew {rep.skew:4.1f}, "
              f"~{lifetime:,.0f} query rounds to first battery death")

    # CARD anycast at two depths: D=3 is cheap, D=4 nearly complete
    for depth in (3, 4):
        ok = msgs = 0
        for q in queriers:
            res = engine.query(q, "gateway", max_depth=depth)
            ok += int(res.success)
            msgs += res.msgs
        summarize(f"CARD (D={depth})", card_net, ok, msgs, rounds=len(queriers))
        card_net.stats.reset()

    # --- flooding ----------------------------------------------------------
    flood_net = Network(topo)
    flood_net.stats = PerNodeStats(NUM_SENSORS)
    flood = FloodingDiscovery(flood_net)
    ok = msgs = 0
    for q in queriers:
        res = flood.query(q, nearest[q])
        ok += int(res.success)
        msgs += res.msgs
    summarize("flooding", flood_net, ok, msgs, rounds=len(queriers))

    # --- bordercasting -------------------------------------------------------
    bc_net = Network(topo)
    bc_net.stats = PerNodeStats(NUM_SENSORS)
    bc = BordercastDiscovery(bc_net, NeighborhoodTables(topo, params.R))
    ok = msgs = 0
    for q in queriers:
        res = bc.query(q, nearest[q])
        ok += int(res.success)
        msgs += res.msgs
    summarize("bordercasting", bc_net, ok, msgs, rounds=len(queriers))

    print(f"\nCARD standing overhead (contact selection): {standing:,} msgs, "
          f"amortized over every future query the field ever makes")
    reach = card.reachability(queriers, depth=params.depth)
    print(f"querier reachability at D={params.depth}: mean {reach.mean():.1f}%")


if __name__ == "__main__":
    main()
