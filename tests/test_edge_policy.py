"""Tests for the edge-launch policies (future-work heuristics)."""

import numpy as np

import pytest

from repro.core.edge_policy import EdgePolicy, next_edge, order_edges
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, random_topology
from tests.oracles import hop_distance_matrix


@pytest.fixture
def grid_tables():
    topo = grid_topology(9)
    return topo, NeighborhoodTables(topo, 2)


class TestOrderEdges:
    def test_random_is_permutation(self, grid_tables):
        topo, tables = grid_tables
        edges = [int(e) for e in tables.edge_nodes(40)]
        out = order_edges(EdgePolicy.RANDOM, edges, tables, np.random.default_rng(0))
        assert sorted(out) == sorted(edges)

    def test_random_seed_dependent(self, grid_tables):
        topo, tables = grid_tables
        edges = [int(e) for e in tables.edge_nodes(40)]
        a = order_edges(EdgePolicy.RANDOM, edges, tables, np.random.default_rng(1))
        b = order_edges(EdgePolicy.RANDOM, edges, tables, np.random.default_rng(2))
        assert a != b  # extremely unlikely to collide on >10 edges

    def test_degree_sorted_descending(self, grid_tables):
        topo, tables = grid_tables
        edges = [int(e) for e in tables.edge_nodes(0)]
        out = order_edges(EdgePolicy.DEGREE, edges, tables, np.random.default_rng(0))
        degs = [len(topo.adj[e]) for e in out]
        assert degs == sorted(degs, reverse=True)

    def test_spread_is_farthest_point_sampling(self, grid_tables):
        topo, tables = grid_tables
        edges = [int(e) for e in tables.edge_nodes(40)]  # center of 9x9 grid
        out = order_edges(EdgePolicy.SPREAD, edges, tables, np.random.default_rng(0))
        assert sorted(out) == sorted(edges)
        # the second pick is a farthest edge from the first
        dist = hop_distance_matrix(topo.adj)  # test oracle
        first, second = out[0], out[1]
        max_d = max(int(dist[first, e]) for e in edges if e != first)
        assert int(dist[first, second]) == max_d

    def test_empty_edges(self, grid_tables):
        _, tables = grid_tables
        assert order_edges(EdgePolicy.SPREAD, [], tables, np.random.default_rng(0)) == []


class TestNextEdge:
    def test_cycles_without_history(self, grid_tables):
        _, tables = grid_tables
        ordered = [3, 7, 9]
        picks = [
            next_edge(EdgePolicy.RANDOM, ordered, i, [], tables) for i in range(6)
        ]
        assert picks == [3, 7, 9, 3, 7, 9]

    def test_spread_avoids_productive_edges(self, grid_tables):
        topo, tables = grid_tables
        edges = [int(e) for e in tables.edge_nodes(40)]
        ordered = order_edges(EdgePolicy.SPREAD, edges, tables, np.random.default_rng(0))
        used = [ordered[0]]
        pick = next_edge(EdgePolicy.SPREAD, ordered, 1, used, tables)
        assert pick != ordered[0]
        dist = hop_distance_matrix(topo.adj)  # test oracle
        # the pick maximizes separation from the used edge
        best = max(
            (e for e in ordered if e not in used),
            key=lambda e: int(dist[e, used[0]]),
        )
        assert int(dist[pick, used[0]]) == int(dist[best, used[0]])

    def test_spread_falls_back_to_cycle(self, grid_tables):
        _, tables = grid_tables
        ordered = [3, 7]
        pick = next_edge(EdgePolicy.SPREAD, ordered, 5, [3, 7], tables)
        assert pick in (3, 7)

    def test_empty_returns_none(self, grid_tables):
        _, tables = grid_tables
        assert next_edge(EdgePolicy.RANDOM, [], 0, [], tables) is None


class TestPolicyIntegration:
    @pytest.mark.parametrize("policy", list(EdgePolicy))
    def test_selection_runs_under_every_policy(self, policy):
        topo = random_topology(n=120, area=(350.0, 350.0), tx=65.0, seed=7)
        params = CARDParams(R=2, r=8, noc=4, edge_policy=policy)
        card = CARDProtocol(Network(topo), params, seed=7)
        card.bootstrap(sources=range(25))
        assert card.total_contacts() > 0
        # invariants hold regardless of policy
        dist = hop_distance_matrix(topo.adj)  # test oracle
        for s in range(25):
            for c in card.table_for(s).ids():
                assert dist[s, c] > 2 * params.R or dist[s, c] == -1

    def test_policies_differ_in_selection(self):
        topo = random_topology(n=120, area=(350.0, 350.0), tx=65.0, seed=8)
        outcomes = {}
        for policy in (EdgePolicy.RANDOM, EdgePolicy.SPREAD):
            card = CARDProtocol(
                Network(topo),
                CARDParams(R=2, r=8, noc=4, edge_policy=policy),
                seed=8,
            )
            card.bootstrap(sources=range(30))
            outcomes[policy] = tuple(
                card.table_for(s).ids() for s in range(30)
            )
        assert outcomes[EdgePolicy.RANDOM] != outcomes[EdgePolicy.SPREAD]

    def test_default_policy_is_random(self):
        assert CARDParams().edge_policy is None  # resolved to RANDOM inside
