"""Tests for hop-count graph algorithms, including networkx cross-checks."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import graph as g
from tests.conftest import grid_topology, line_topology, random_topology
from tests.oracles import hop_distance_matrix


def to_nx(adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            graph.add_edge(u, int(v))
    return graph


def random_adj(n, p, seed):
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                buckets[i].append(j)
                buckets[j].append(i)
    return [np.array(sorted(b), dtype=np.int64) for b in buckets]


class TestBfs:
    def test_line_distances(self, line10):
        dist = g.bfs_hops(line10.adj, 0)
        assert list(dist) == list(range(10))

    def test_max_hops_truncation(self, line10):
        dist = g.bfs_hops(line10.adj, 0, max_hops=3)
        assert list(dist[:4]) == [0, 1, 2, 3]
        assert all(d == g.UNREACHABLE for d in dist[4:])

    def test_unreachable_marked(self):
        topo = line_topology(4, spacing=100.0, tx=50.0)  # no links
        dist = g.bfs_hops(topo.adj, 0)
        assert dist[0] == 0
        assert all(d == g.UNREACHABLE for d in dist[1:])

    def test_bfs_tree_parents_consistent(self, grid5):
        dist, parent = g.bfs_tree(grid5.adj, 12)
        for v in range(25):
            if v == 12:
                assert parent[v] == 12
            else:
                p = int(parent[v])
                assert dist[v] == dist[p] + 1

    def test_matches_networkx(self):
        adj = random_adj(40, 0.1, 5)
        ref = nx.single_source_shortest_path_length(to_nx(adj), 0)
        dist = g.bfs_hops(adj, 0)
        for v in range(40):
            assert dist[v] == ref.get(v, g.UNREACHABLE)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 30), p=st.floats(0.0, 0.5), seed=st.integers(0, 999))
    def test_property_matches_networkx(self, n, p, seed):
        adj = random_adj(n, p, seed)
        source = seed % n
        ref = nx.single_source_shortest_path_length(to_nx(adj), source)
        dist = g.bfs_hops(adj, source)
        for v in range(n):
            assert dist[v] == ref.get(v, g.UNREACHABLE)


class TestHopDistanceMatrix:
    def test_symmetric_and_zero_diagonal(self, rand_topo):
        dist = hop_distance_matrix(rand_topo.adj)
        assert (dist == dist.T).all()
        assert (np.diag(dist) == 0).all()

    def test_matches_per_source_bfs(self, grid5):
        dist = hop_distance_matrix(grid5.adj)
        for s in range(25):
            assert (dist[s] == g.bfs_hops(grid5.adj, s)).all()

    def test_empty_graph(self):
        assert hop_distance_matrix([]).shape == (0, 0)

    def test_triangle_inequality(self, rand_topo):
        dist = hop_distance_matrix(rand_topo.adj)
        n = dist.shape[0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = rng.integers(0, n, size=3)
            if dist[a, b] >= 0 and dist[b, c] >= 0:
                assert dist[a, c] != g.UNREACHABLE
                assert dist[a, c] <= dist[a, b] + dist[b, c]


class TestNeighborhoodSets:
    def test_self_always_member(self, grid5):
        m = g.neighborhood_sets(hop_distance_matrix(grid5.adj), 2)
        assert np.diag(m).all()

    def test_radius_zero_is_identity(self, grid5):
        m = g.neighborhood_sets(hop_distance_matrix(grid5.adj), 0)
        assert (m == np.eye(25, dtype=bool)).all()

    def test_monotone_in_radius(self, rand_topo):
        dist = hop_distance_matrix(rand_topo.adj)
        m1 = g.neighborhood_sets(dist, 1)
        m3 = g.neighborhood_sets(dist, 3)
        assert (m3 | m1 == m3).all()

    def test_unreachable_excluded(self):
        topo = line_topology(4, spacing=100.0, tx=50.0)
        m = g.neighborhood_sets(hop_distance_matrix(topo.adj), 5)
        assert m.sum() == 4  # only self-membership


class TestComponents:
    def test_connected_grid_single_component(self, grid5):
        comps = g.connected_components(grid5.adj)
        assert len(comps) == 1
        assert len(comps[0]) == 25

    def test_isolated_nodes(self):
        topo = line_topology(3, spacing=100.0, tx=50.0)
        comps = g.connected_components(topo.adj)
        assert len(comps) == 3

    def test_largest_first(self):
        adj = [np.array([1]), np.array([0]), np.array([3]), np.array([2, 4]), np.array([3])]
        comps = g.connected_components(adj)
        assert len(comps[0]) == 3 and len(comps[1]) == 2

    def test_matches_networkx_count(self):
        adj = random_adj(35, 0.05, 11)
        assert len(g.connected_components(adj)) == nx.number_connected_components(
            to_nx(adj)
        )


class TestGraphStats:
    def test_line_stats(self, line10):
        st_ = g.graph_stats(line10.adj)
        assert st_.num_links == 9
        assert st_.mean_degree == pytest.approx(1.8)
        assert st_.diameter == 9
        assert st_.giant_size == 10

    def test_diameter_matches_networkx(self, rand_topo):
        st_ = g.graph_stats(rand_topo.adj)
        giant = max(nx.connected_components(to_nx(rand_topo.adj)), key=len)
        sub = to_nx(rand_topo.adj).subgraph(giant)
        assert st_.diameter == nx.diameter(sub)

    def test_mean_hops_matches_networkx(self, grid5):
        st_ = g.graph_stats(grid5.adj)
        assert st_.mean_hops == pytest.approx(
            nx.average_shortest_path_length(to_nx(grid5.adj))
        )

    def test_empty(self):
        st_ = g.graph_stats([])
        assert st_.num_nodes == 0 and st_.diameter == 0

    def test_row_shape(self, line10):
        assert len(g.graph_stats(line10.adj).row()) == 4


class TestSamplePairStats:
    """Sampled diameter bounds must honestly bracket the exact value."""

    def test_bounds_bracket_true_diameter(self, rand_topo):
        exact = g.graph_stats(rand_topo.adj)
        giant = max(
            (c for c in g.connected_components(rand_topo.adj)), key=len
        )
        est = g.sample_pair_stats(
            rand_topo.adj, 5, np.random.default_rng(1), population=giant
        )
        assert est.diameter_lower <= exact.diameter <= est.diameter_upper
        assert est.diameter == est.diameter_lower  # back-compat alias

    def test_double_sweep_tightens_line_graph(self, line10):
        # one central source sees ecc 5..9; the sweep from its farthest
        # endpoint always recovers the full diameter 9
        est = g.sample_pair_stats(line10.adj, 1, np.random.default_rng(0))
        assert est.diameter_lower == 9

    def test_double_sweep_excluded_from_mean(self, line10):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        with_sweep = g.sample_pair_stats(line10.adj, 3, rng_a)
        without = g.sample_pair_stats(
            line10.adj, 3, rng_b, double_sweep=False
        )
        assert with_sweep.mean_hops == without.mean_hops
        assert with_sweep.num_pairs == without.num_pairs
        assert with_sweep.diameter_lower >= without.diameter_lower

    def test_full_sample_se_and_exactness(self, grid5):
        n = len(grid5.adj)
        est = g.sample_pair_stats(grid5.adj, n, np.random.default_rng(0))
        exact = g.graph_stats(grid5.adj)
        assert est.diameter_lower == exact.diameter
        assert est.diameter_upper >= exact.diameter
        assert est.mean_hops == pytest.approx(exact.mean_hops)
        assert est.mean_hops_se > 0.0

    def test_single_source_se_zero(self, line10):
        est = g.sample_pair_stats(line10.adj, 1, np.random.default_rng(0))
        assert est.mean_hops_se == 0.0

    def test_deterministic_for_seeded_rng(self, rand_topo):
        a = g.sample_pair_stats(rand_topo.adj, 6, np.random.default_rng(9))
        b = g.sample_pair_stats(rand_topo.adj, 6, np.random.default_rng(9))
        assert a == b

    def test_graph_stats_sampled_branch_carries_interval(self, rand_topo):
        sampled = g.graph_stats(
            rand_topo.adj, pair_sample=5, rng=np.random.default_rng(2)
        )
        exact = g.graph_stats(rand_topo.adj)
        assert exact.diameter_upper is None and exact.mean_hops_se is None
        assert sampled.diameter_upper is not None
        assert sampled.diameter <= exact.diameter <= sampled.diameter_upper
        assert sampled.mean_hops_se >= 0.0

    def test_empty_population(self):
        est = g.sample_pair_stats(
            [], 3, np.random.default_rng(0), population=np.array([], dtype=np.int64)
        )
        assert est.num_pairs == 0 and est.diameter_upper == 0
