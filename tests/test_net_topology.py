"""Tests for Topology: construction, adjacency, caching, mobility rebuilds."""

import numpy as np
import pytest

from repro.net.topology import Topology
from tests.conftest import grid_topology, line_topology, random_topology


class TestConstruction:
    def test_positions_copied_and_readonly(self):
        pos = np.array([[1.0, 1.0], [2.0, 2.0]])
        topo = Topology(pos, 10.0, (5.0, 5.0))
        pos[0, 0] = 99.0
        assert topo.positions[0, 0] == 1.0
        with pytest.raises(ValueError):
            topo.positions[0, 0] = 0.0

    def test_rejects_out_of_area(self):
        with pytest.raises(ValueError, match="inside the area"):
            Topology(np.array([[10.0, 1.0]]), 5.0, (5.0, 5.0))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 3)), 5.0, (5.0, 5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes every `<`/`>` bounds comparison, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            Topology(np.array([[1.0, 1.0], [bad, 2.0]]), 5.0, (5.0, 5.0))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 2)), 0.0, (5.0, 5.0))

    def test_uniform_random_in_area(self):
        topo = Topology.uniform_random(
            200, (100.0, 50.0), 10.0, np.random.default_rng(0)
        )
        pos = topo.positions
        assert pos[:, 0].max() <= 100.0 and pos[:, 1].max() <= 50.0
        assert pos.min() >= 0.0

    def test_uniform_random_deterministic(self):
        a = Topology.uniform_random(50, (10.0, 10.0), 2.0, np.random.default_rng(7))
        b = Topology.uniform_random(50, (10.0, 10.0), 2.0, np.random.default_rng(7))
        assert (a.positions == b.positions).all()

    def test_uniform_random_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Topology.uniform_random(0, (10.0, 10.0), 2.0, np.random.default_rng(0))


class TestAdjacency:
    def test_line_adjacency(self, line10):
        assert list(line10.adj[0]) == [1]
        assert list(line10.adj[5]) == [4, 6]
        assert list(line10.adj[9]) == [8]

    def test_grid_adjacency_degree(self, grid5):
        degrees = [grid5.degree(u) for u in range(25)]
        assert degrees[0] == 2       # corner
        assert degrees[12] == 4      # center
        assert sum(degrees) == 2 * 40  # 5x5 grid has 40 edges

    def test_are_neighbors_symmetric(self, grid5):
        assert grid5.are_neighbors(0, 1)
        assert grid5.are_neighbors(1, 0)
        assert not grid5.are_neighbors(0, 24)

    def test_adjacency_sorted(self, rand_topo):
        for nbrs in rand_topo.adj:
            assert (np.diff(nbrs) > 0).all() if len(nbrs) > 1 else True

    def test_no_self_loops(self, rand_topo):
        for u, nbrs in enumerate(rand_topo.adj):
            assert u not in nbrs


class TestMobilityRebuild:
    def test_epoch_increments(self, line10):
        e0 = line10.epoch
        line10.set_positions(np.array(line10.positions))
        assert line10.epoch == e0 + 1

    def test_adjacency_rebuilt_after_move(self):
        topo = line_topology(3)
        assert topo.are_neighbors(0, 1)
        pos = np.array(topo.positions)
        pos[1] = [pos[2][0], 9.0]  # node 1 jumps next to node 2
        topo.set_positions(pos)
        assert not topo.are_neighbors(0, 1)
        assert topo.are_neighbors(1, 2)

    def test_no_allpairs_accessor(self, grid5):
        # the APSP matrix is a test oracle only; the topology deliberately
        # exposes no hop_distances(): bounded distances come from its
        # substrate, a global row from graph.bfs_hops
        assert not hasattr(grid5, "hop_distances")

    def test_shared_substrate_membership_cached_per_epoch(self, grid5):
        m1 = grid5.substrate(2).membership(2)
        assert grid5.substrate(2).membership(2) is m1
        grid5.set_positions(np.array(grid5.positions))
        assert grid5.substrate(2).membership(2) is not m1

    def test_node_count_fixed(self, line10):
        with pytest.raises(ValueError, match="node count"):
            line10.set_positions(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_move_rejected_and_state_kept(self, line10, bad):
        """A NaN coordinate used to land in cell 0, fail every range test
        and silently strip the node of its links."""
        before = [a.tolist() for a in line10.adj]
        epoch = line10.epoch
        pos = np.array(line10.positions)
        pos[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            line10.set_positions(pos)
        assert line10.epoch == epoch
        assert [a.tolist() for a in line10.adj] == before


class TestAdjLists:
    """``adj_lists`` is ``adj`` as Python lists, current at every epoch."""

    @staticmethod
    def as_lists(topo):
        return [row.tolist() for row in topo.adj]

    def test_tracks_every_epoch_change(self):
        topo = random_topology(n=60, seed=5)
        assert topo.adj_lists == self.as_lists(topo)
        rng = np.random.default_rng(0)
        pos = np.array(topo.positions)
        pos += rng.uniform(-20.0, 20.0, size=pos.shape)
        topo.set_positions(np.clip(pos, 0.0, 400.0))
        assert topo.adj_lists == self.as_lists(topo)
        topo.fail_nodes([3, 7, 11])
        assert topo.adj_lists == self.as_lists(topo)
        assert topo.adj_lists[3] == []
        topo.fail_nodes([5])
        assert topo.adj_lists == self.as_lists(topo)

    def test_are_neighbors_matches_membership(self):
        topo = random_topology(n=60, seed=5)
        topo.fail_nodes([4])  # one empty row
        n = topo.num_nodes
        for u in range(n):
            row = topo.adj[u]
            # every id, plus one past the last node
            for v in range(n + 1):
                want = v in row
                assert bool(topo.are_neighbors(u, v)) is want
                assert bool(topo.are_neighbors(np.int64(u), np.int64(v))) is want
        assert not topo.are_neighbors(4, 0)

    def test_not_rebuilt_within_an_epoch(self, grid5):
        lists = grid5.adj_lists
        _ = grid5.adj, grid5.csr
        grid5.are_neighbors(0, 1)
        assert grid5.adj_lists is lists
        grid5.fail_nodes([])  # nothing fails: no epoch change
        assert grid5.adj_lists is lists
        grid5.set_positions(np.array(grid5.positions))
        assert grid5.adj_lists is not lists
        assert grid5.adj_lists == lists  # same positions, same links


class TestDerived:
    def test_neighborhood_matrix(self, grid5):
        m = grid5.substrate(1).membership(1)
        assert m[0, 1] and m[0, 5] and not m[0, 2]

    def test_stats_passthrough(self, line10):
        st = line10.stats()
        assert st.num_nodes == 10 and st.num_links == 9
