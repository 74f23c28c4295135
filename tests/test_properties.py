"""Cross-module property-based tests (hypothesis).

These complement the per-module suites with invariants that span layers:
selection paths are walkable routes, maintenance preserves path validity,
query traffic accounting is internally consistent, and the whole stack is
a deterministic function of (topology seed, protocol seed).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maintenance import ContactMaintainer
from repro.core.params import CARDParams, SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.reachability import reachability_distribution
from repro.core.selection import ContactSelector
from repro.net.graph import bfs_hops, hop_distance_matrix
from repro.net.network import Network
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.oracles import select_one

COMMON = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def topo_from_seed(seed, n=80, area=300.0, tx=60.0):
    return Topology.uniform_random(
        n, (area, area), tx, np.random.default_rng(seed)
    )


class TestSelectionProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), R=st.integers(1, 3))
    def test_paths_are_walkable_routes(self, seed, R):
        """Every stored contact route is a hop-valid path from the source."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=R, r=2 * R + 4, noc=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap(sources=range(20))
        for s in range(20):
            for contact in card.table_for(s):
                path = contact.path
                assert path[0] == s and path[-1] == contact.node
                assert len(path) - 1 <= params.r
                for a, b in zip(path, path[1:]):
                    assert topo.are_neighbors(a, b)

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_em_band_invariant(self, seed):
        """EM contacts always lie strictly beyond 2R true hops."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=4)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap(sources=range(15))
        dist = hop_distance_matrix(topo.adj)
        for s in range(15):
            for c in card.table_for(s).ids():
                assert dist[s, c] > 4

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_pm_walk_bounded_by_cap(self, seed):
        """PM (no loop prevention) never exceeds its step cap per walk."""
        topo = topo_from_seed(seed)
        params = CARDParams(
            R=2, r=8, noc=1, method=SelectionMethod.PM, max_walk_steps=50
        )
        net = Network(topo)
        tables = NeighborhoodTables(topo, 2)
        sel = ContactSelector(net, tables, params)
        edges = tables.edge_nodes(0)
        if len(edges) == 0:
            return
        out = select_one(sel, 0, int(edges[0]), (), np.random.default_rng(seed))
        # steps = forward beyond the seg + backtracks <= cap (+seg cost)
        assert out.forward_msgs + out.backtrack_msgs <= 50 + params.R + 1


class TestWalkDrawProperties:
    """The CSQ walk shuffles a copy of a cached Python row where it used
    to draw ``rng.permutation`` of the numpy row.  Both run the same
    Fisher-Yates over the same bounded integers; this pins that, on
    whatever numpy is installed, so every walk, golden and cell key stays
    put."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.lists(
            st.tuples(
                st.lists(st.integers(0, 10_000), max_size=30, unique=True).map(
                    sorted
                ),
                st.booleans(),  # an admission draw after this frame (PM)
            ),
            max_size=12,
        ),
    )
    def test_list_shuffle_draws_what_permutation_draws(self, seed, frames):
        old = np.random.default_rng(seed)
        new = np.random.default_rng(seed)
        for row, admission_draw in frames:
            want = old.permutation(np.array(row, dtype=np.int64)).tolist()
            got = row[:]
            new.shuffle(got)
            assert got == want
            if admission_draw:
                assert new.random() == old.random()
        assert new.bit_generator.state == old.bit_generator.state


class TestMaintenanceProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_validation_preserves_walkability(self, seed):
        """A contact surviving validation has a currently-walkable route."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3)
        net = Network(topo)
        card = CARDProtocol(net, params, seed=seed)
        card.bootstrap(sources=range(10))
        # perturb the topology slightly (simulate one mobility step)
        rng = np.random.default_rng(seed + 1)
        pos = np.array(topo.positions)
        pos += rng.uniform(-8.0, 8.0, size=pos.shape)
        np.clip(pos[:, 0], 0, topo.area[0], out=pos[:, 0])
        np.clip(pos[:, 1], 0, topo.area[1], out=pos[:, 1])
        topo.set_positions(pos)
        maintainer = card.maintainer
        for s in range(10):
            table = card.table_for(s)
            for outcome in maintainer.validate_all(table):
                if outcome.ok:
                    path = outcome.new_path
                    for a, b in zip(path, path[1:]):
                        assert topo.are_neighbors(a, b)
                    hops = len(path) - 1
                    assert 2 * params.R <= hops <= params.r


class TestQueryProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3))
    def test_returned_route_is_walkable_and_reaches_target(self, seed, depth):
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3, depth=depth)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        rng = np.random.default_rng(seed)
        for _ in range(8):
            s, t = int(rng.integers(80)), int(rng.integers(80))
            res = card.query(s, t)
            if res.success:
                assert res.path is not None
                assert res.path[0] == s and res.path[-1] == t
                for a, b in zip(res.path, res.path[1:]):
                    assert topo.are_neighbors(a, b)

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_success_implies_graph_connectivity(self, seed):
        """CARD can only find targets that are actually reachable."""
        topo = topo_from_seed(seed, tx=45.0)  # sparser: real partitions
        params = CARDParams(R=2, r=8, noc=3, depth=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        dist = bfs_hops(topo.adj, 0)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            t = int(rng.integers(80))
            res = card.query(0, t)
            if res.success:
                assert dist[t] >= 0

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_deeper_search_never_reduces_success(self, seed):
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3, depth=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        rng = np.random.default_rng(seed)
        for _ in range(6):
            s, t = int(rng.integers(80)), int(rng.integers(80))
            shallow = card.query(s, t, max_depth=1).success
            deep = card.query(s, t, max_depth=3).success
            if shallow:
                assert deep


class TestAccountingProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_stats_equal_selection_results(self, seed):
        """Network counters agree with the per-source selection results."""
        from repro.net.messages import MessageKind

        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3)
        net = Network(topo)
        card = CARDProtocol(net, params, seed=seed)
        results = card.bootstrap(sources=range(25))
        fwd = sum(r.forward_msgs for r in results.values())
        back = sum(r.backtrack_msgs for r in results.values())
        assert net.stats.total(MessageKind.CONTACT_SELECTION) == fwd
        assert net.stats.total(MessageKind.BACKTRACK) == back

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
    )
    def test_distribution_is_permutation_invariant(self, values):
        a = reachability_distribution(np.array(values))
        b = reachability_distribution(np.array(sorted(values)))
        assert (a == b).all()
