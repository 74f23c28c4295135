"""Tests for the neighborhood oracle tables."""

import numpy as np
import pytest

from repro.net import graph as g
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology


class TestMembership:
    def test_line_membership(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.contains(0, 0)
        assert t.contains(0, 2)
        assert not t.contains(0, 3)

    def test_members_include_self(self, grid5):
        t = NeighborhoodTables(grid5, radius=1)
        assert 12 in t.members(12)
        assert set(t.members(12)) == {7, 11, 12, 13, 17}

    def test_size(self, line10):
        t = NeighborhoodTables(line10, radius=3)
        assert t.size(0) == 4   # 0,1,2,3
        assert t.size(5) == 7   # 2..8

    def test_any_member_of(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.any_member_of(0, [9, 2])
        assert not t.any_member_of(0, [8, 9])
        assert not t.any_member_of(0, [])

    def test_invalid_radius(self, line10):
        with pytest.raises((ValueError, TypeError)):
            NeighborhoodTables(line10, radius=0)
        with pytest.raises(TypeError):
            NeighborhoodTables(line10, radius=2.5)


class TestEdgeNodes:
    def test_line_edges(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert set(t.edge_nodes(5)) == {3, 7}
        assert set(t.edge_nodes(0)) == {2}
        assert set(t.edge_nodes(9)) == {7}

    def test_edges_at_exact_radius(self, grid5):
        t = NeighborhoodTables(grid5, radius=2)
        dist = g.hop_distance_matrix(grid5.adj)
        for u in range(25):
            assert set(t.edge_nodes(u)) == set(np.flatnonzero(dist[u] == 2))

    def test_isolated_node_no_edges(self):
        topo = line_topology(3, spacing=100.0, tx=50.0)
        t = NeighborhoodTables(topo, radius=2)
        assert len(t.edge_nodes(0)) == 0


class TestPaths:
    def test_path_within_valid(self, grid5):
        t = NeighborhoodTables(grid5, radius=3)
        path = t.path_within(0, 2)
        assert path[0] == 0 and path[-1] == 2 and len(path) == 3
        for a, b in zip(path, path[1:]):
            assert grid5.are_neighbors(a, b)

    def test_path_outside_zone_none(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.path_within(0, 5) is None

    def test_path_to_self(self, line10):
        t = NeighborhoodTables(line10, radius=2)
        assert t.path_within(4, 4) == [4]

    def test_hops(self, line10):
        t = NeighborhoodTables(line10, radius=3)
        assert t.hops(0, 3) == 3
        assert t.hops(0, 9) == -1  # zone-scoped: beyond R answers -1


class TestPathMemo:
    """`path_within` keeps the last source's R-hop BFS tree; the memo is
    keyed by (topology epoch, source), so it can never answer from a tree
    of another source or of a past connectivity."""

    @staticmethod
    def check(t, pairs):
        """Every lookup equals a freshly built table's and is a live route."""
        topo = t.topology
        for u, v in pairs:
            got = t.path_within(u, v)
            assert got == NeighborhoodTables(topo, t.radius).path_within(u, v)
            if got is not None:
                assert got[0] == u and got[-1] == v
                assert len(got) - 1 <= t.radius
                for a, b in zip(got, got[1:]):
                    assert topo.are_neighbors(a, b)

    def test_interleaved_sources(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=3)
        from_a = [(0, v) for v in t.members(0).tolist()]
        from_b = [(41, v) for v in t.members(41).tolist()]
        assert len(from_a) > 3 and len(from_b) > 3
        alternating = [pair for ab in zip(from_a, from_b) for pair in ab]
        self.check(t, from_a + from_b + from_a + alternating)

    def test_one_tree_serves_consecutive_lookups(self, grid5, monkeypatch):
        calls = []
        bfs_tree = g.bfs_tree
        monkeypatch.setattr(
            g, "bfs_tree", lambda adj, u, **kw: calls.append(u) or bfs_tree(adj, u, **kw)
        )
        t = NeighborhoodTables(grid5, radius=3)
        for v in (1, 2, 6, 0):
            t.path_within(0, v)
        assert calls == [0]
        t.path_within(12, 13)
        t.path_within(0, 1)
        assert calls == [0, 12, 0]
        t.path_within(0, 24)  # outside the zone: answered before any BFS
        assert calls == [0, 12, 0]

    def test_every_epoch_bump_drops_the_tree(self):
        # 4-connected 5x5 grid, R=4: 0→2 runs through node 1 until node 1
        # goes away, after which 2 is still in 0's zone by the 4-hop detour
        # 0-5-6-7-2 — a stale tree would keep routing through the dead node
        topo = grid_topology(5)
        t = NeighborhoodTables(topo, radius=4)
        pairs = [(0, 2), (0, 7), (0, 1), (12, 2), (0, 2)]
        assert t.path_within(0, 2) == [0, 1, 2]
        topo.set_active(1, False)
        assert t.path_within(0, 2) == [0, 5, 6, 7, 2]
        self.check(t, pairs)
        topo.set_active(1, True)
        assert t.path_within(0, 2) == [0, 1, 2]
        self.check(t, pairs)
        topo.fail_nodes([1, 6])
        assert t.path_within(0, 2) is None  # 0-5-10-11-12-7-2 is 6 hops
        self.check(t, pairs)
        topo.set_active(6, True)
        assert t.path_within(0, 2) == [0, 5, 6, 7, 2]
        pos = np.array(topo.positions)
        pos[5] = pos[24]  # node 5 moves onto the far corner
        topo.set_positions(pos)
        assert t.path_within(0, 2) is None  # node 0 is now cut off
        self.check(t, pairs)

    def test_mobile_topology_lookups_stay_fresh(self):
        rng = np.random.default_rng(11)
        topo = random_topology(n=100, seed=7)
        t = NeighborhoodTables(topo, radius=3)
        for _ in range(6):
            sources = rng.integers(topo.num_nodes, size=4).tolist()
            self.check(
                t,
                [(u, int(v)) for u in sources for v in rng.integers(topo.num_nodes, size=6)]
                + [(sources[0], int(v)) for v in t.members(sources[0])[:5]],
            )
            pos = np.array(topo.positions)
            pos += rng.uniform(-25.0, 25.0, size=pos.shape)
            topo.set_positions(np.clip(pos, 0.0, topo.area))
            self.check(t, [(sources[0], int(v)) for v in t.members(sources[0])[:8]])


class TestFreshness:
    def test_refresh_after_topology_change(self):
        topo = line_topology(4)
        t = NeighborhoodTables(topo, radius=1)
        assert t.contains(0, 1)
        pos = np.array(topo.positions)
        pos[1][0] = topo.area[0]  # node 1 moves far away
        topo.set_positions(pos)
        assert not t.contains(0, 1)

    def test_membership_matrix_shape(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=2)
        n = rand_topo.num_nodes
        assert t.membership.shape == (n, n)
        assert t.membership.dtype == bool

    def test_membership_symmetric(self, rand_topo):
        # unit-disk links are symmetric, so hop distances and membership are
        t = NeighborhoodTables(rand_topo, radius=2)
        m = t.membership
        assert (m == m.T).all()
