"""Tests for the neighborhood oracle tables."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.net import graph as g
from repro.net import substrate
from repro.net.network import Network
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology

AREA = 400.0


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


def oracle_path(adj, u: int, v: int, radius: int):
    """Parent chase over the R-hop BFS tree from ``u``: the reference
    route (the lexicographically smallest shortest path)."""
    dist, parent = g.bfs_tree(adj, u, max_hops=radius)
    if dist[v] == g.UNREACHABLE:
        return None
    path = [v]
    while path[-1] != u:
        path.append(int(parent[path[-1]]))
    return path[::-1]


class TestPathWithinOracle:
    """`path_within` reads each route off the shared band; it must equal
    the BFS-tree route hop for hop, on both band backends, before and
    after every kind of epoch bump."""

    @staticmethod
    def check(t, pairs):
        """Every lookup equals the BFS oracle's and is a live route."""
        topo = t.topology
        for u, v in pairs:
            got = t.path_within(u, v)
            assert got == oracle_path(topo.adj, u, v, t.radius)
            if got is not None:
                assert got[0] == u and got[-1] == v
                assert len(got) - 1 == t.hops(u, v) <= t.radius
                for a, b in zip(got, got[1:]):
                    assert topo.are_neighbors(a, b)

    def test_interleaved_sources(self, rand_topo):
        t = NeighborhoodTables(rand_topo, radius=3)
        from_a = [(0, v) for v in t.members(0).tolist()]
        from_b = [(41, v) for v in t.members(41).tolist()]
        assert len(from_a) > 3 and len(from_b) > 3
        alternating = [pair for ab in zip(from_a, from_b) for pair in ab]
        self.check(t, from_a + from_b + from_a + alternating)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 60)),
        tx=st.sampled_from([1.0, 40.0, 60.0, 90.0, 600.0]),
        seed=st.integers(0, 2**16),
        radius=st.integers(1, 5),
        bump=st.sampled_from(["set_positions", "fail_nodes"]),
    )
    def test_every_pair_equals_bfs_oracle(self, backend, n, tx, seed, radius, bump):
        """All n² pairs — self pairs, out-of-zone pairs, isolated nodes and
        cliques (``tx`` 1 … 600) — then all of them again after a bump."""
        rng = np.random.default_rng(seed)
        topo = Topology(rng.uniform(0.0, AREA, size=(n, 2)), tx, (AREA, AREA))
        threshold = 1 if backend == "sparse" else substrate.SPARSE_NODE_THRESHOLD
        with mock.patch.object(substrate, "SPARSE_NODE_THRESHOLD", threshold):
            t = NeighborhoodTables(topo, radius)
            pairs = [(u, v) for u in range(n) for v in range(n)]
            self.check(t, pairs)
            assert t.substrate.backend_kind == backend
            if bump == "set_positions":
                pos = np.array(topo.positions)
                pos += rng.uniform(-40.0, 40.0, size=pos.shape)
                topo.set_positions(np.clip(pos, 0.0, AREA))
            else:
                topo.fail_nodes(rng.choice(n, size=(n + 2) // 3, replace=False))
            self.check(t, pairs)

    def test_every_epoch_bump_refreshes_the_route(self):
        # 4-connected 5x5 grid, R=4: 0→2 runs through node 1 until node 1
        # goes away, after which 2 is still in 0's zone by the 4-hop detour
        # 0-5-6-7-2 — a stale band would keep routing through the dead node
        topo = grid_topology(5)
        t = NeighborhoodTables(topo, radius=4)
        pairs = [(0, 2), (0, 7), (0, 1), (12, 2), (0, 2)]
        assert t.path_within(0, 2) == [0, 1, 2]
        topo.fail_nodes([1])
        assert t.path_within(0, 2) == [0, 5, 6, 7, 2]
        self.check(t, pairs)
        topo.fail_nodes([6])
        assert t.path_within(0, 2) is None  # 0-5-10-11-12-7-2 is 6 hops
        self.check(t, pairs)
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


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_protocol_builds_no_bfs_tree(backend, monkeypatch):
    """Structural guard: selection, querying and maintenance route inside
    zones through the band alone — no operation builds a BFS tree."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a protocol operation called graph.bfs_tree")

    routes = []
    path_within = NeighborhoodTables.path_within

    def counting_path_within(tables, u, v):
        routes.append((u, v))
        return path_within(tables, u, v)

    if backend == "sparse":
        monkeypatch.setattr(substrate, "SPARSE_NODE_THRESHOLD", 1)
    monkeypatch.setattr(g, "bfs_tree", forbidden)
    monkeypatch.setattr(NeighborhoodTables, "path_within", counting_path_within)
    topo = random_topology(n=150, area=(420.0, 420.0), seed=3)
    card = CARDProtocol(Network(topo), CARDParams(R=2, r=8, noc=4, depth=2), seed=0)
    sources = list(range(0, 150, 5))
    card.bootstrap(sources)  # select_contacts_many
    card.selector.select_contacts(1, np.random.default_rng(1))
    assert len(routes) > len(sources)
    seen = len(routes)
    pairs = [(s, (7 * s + 11) % 150) for s in sources]
    hits = [r for r in card.query_many(pairs) if r.success and r.depth_found]
    hits += [r for r in map(card.query, *zip(*pairs)) if r.success and r.depth_found]
    assert hits and len(routes) > seen
    seen = len(routes)
    pos = np.array(topo.positions)
    pos += np.random.default_rng(2).uniform(-30.0, 30.0, size=pos.shape)
    topo.set_positions(np.clip(pos, 0.0, topo.area))
    recoveries = sum(o.recoveries for s in sources for o in card.maintain(s)[0])
    assert recoveries > 0 and len(routes) > seen
    assert card.tables.substrate.backend_kind == backend


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
