"""Integration-level tests for CARDProtocol and the two runners."""

import numpy as np

import pytest

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.runner import SnapshotRunner, TimeSeriesRunner
from repro.mobility.waypoint import RandomWaypoint
from repro.net.network import Network
from tests.conftest import grid_topology, random_topology
from tests.oracles import StaticMobility, hop_distance_matrix


@pytest.fixture
def dense_topo():
    return random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=11)


class TestProtocol:
    def test_bootstrap_populates_tables(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=1)
        results = card.bootstrap()
        assert len(results) == 150
        assert card.total_contacts() > 0
        assert card.total_contacts() == sum(
            r.num_contacts for r in results.values()
        )

    def test_bootstrap_subset(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=1)
        results = card.bootstrap(sources=[0, 1, 2])
        assert set(results) == {0, 1, 2}

    def test_bootstrap_deterministic(self, dense_topo):
        a = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=4)
        b = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=4)
        a.bootstrap(sources=range(20))
        b.bootstrap(sources=range(20))
        for s in range(20):
            assert a.table_for(s).ids() == b.table_for(s).ids()

    def test_seed_changes_selection(self, dense_topo):
        a = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=4)
        b = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=5)
        a.bootstrap(sources=range(20))
        b.bootstrap(sources=range(20))
        assert any(
            a.table_for(s).ids() != b.table_for(s).ids() for s in range(20)
        )

    def test_query_within_neighborhood(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=1)
        card.bootstrap()
        tables = card.tables
        target = int(tables.members(0)[-1])
        res = card.query(0, target)
        assert res.success and res.depth_found == 0

    def test_query_through_contacts(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=4, depth=3), seed=1)
        card.bootstrap()
        # pick a target beyond node 0's neighborhood but in its component
        dist = hop_distance_matrix(dense_topo.adj)  # test oracle
        candidates = np.flatnonzero((dist[0] > 4) & (dist[0] > 0))
        successes = 0
        for t in candidates[:20]:
            if card.query(0, int(t), max_depth=3).success:
                successes += 1
        assert successes > 0

    def test_maintain_replenishes(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3), seed=1)
        card.bootstrap(sources=[0])
        table = card.table_for(0)
        if len(table) == 0:
            pytest.skip("node 0 found no contacts on this draw")
        table.remove(table.ids()[0])
        outcomes, reselect = card.maintain(0)
        assert reselect is not None  # table was below NoC

    def test_query_result_shape(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=3, depth=3), seed=2)
        card.bootstrap()
        res = card.query(0, 60)
        assert res.source == 0 and res.target == 60
        assert isinstance(res.success, bool)
        assert (res.depth_found is not None) == res.success
        assert (res.path is not None) == res.success

    def test_reachability_monotone_in_contacts(self, dense_topo):
        def mean_reach(noc):
            card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=noc), seed=1)
            card.bootstrap()
            return card.reachability().mean()

        r0, r2, r4 = mean_reach(0), mean_reach(2), mean_reach(4)
        assert r0 < r2 <= r4

    def test_smaller_noc_selects_a_prefix(self, dense_topo):
        # each source draws from its own stream, so raising NoC only
        # appends contacts to what the smaller budget selected
        def tables(noc):
            card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=noc), seed=1)
            card.bootstrap()
            return {s: tuple(card.table_for(s).ids()) for s in range(dense_topo.num_nodes)}

        small, large = tables(2), tables(4)
        for s, ids in small.items():
            assert large[s][: len(ids)] == ids

    def test_reachability_monotone_in_depth(self, dense_topo):
        card = CARDProtocol(Network(dense_topo), CARDParams(R=2, r=7, noc=4), seed=1)
        card.bootstrap()
        d1 = card.reachability(depth=1).mean()
        d2 = card.reachability(depth=2).mean()
        assert d2 >= d1


class TestSnapshotRunner:
    def test_noc_zero_costs_nothing(self, dense_topo):
        result = SnapshotRunner(dense_topo, CARDParams(R=2, r=7, noc=0), seed=2).run()
        assert result.mean_contacts == 0.0
        assert result.selection_per_node() == 0.0
        assert result.backtracking_per_node() == 0.0

    def test_noc_zero_reaches_only_the_zone(self, dense_topo):
        result = SnapshotRunner(dense_topo, CARDParams(R=2, r=7, noc=0), seed=2).run()
        n = dense_topo.num_nodes
        dist = hop_distance_matrix(dense_topo.adj)  # test oracle
        zone = ((dist >= 0) & (dist <= 2)).sum(axis=1)
        assert np.allclose(result.reachability, 100.0 * zone / n)

    def test_run_produces_consistent_result(self, dense_topo):
        runner = SnapshotRunner(dense_topo, CARDParams(R=2, r=7, noc=3), seed=2)
        result = runner.run()
        assert result.num_nodes == 150
        assert result.reachability.shape == (150,)
        assert result.distribution.sum() == 150
        assert 0 <= result.mean_reachability <= 100
        assert result.message_totals.get("selection", 0) > 0

    def test_message_totals_equal_the_network_counters(self, dense_topo):
        runner = SnapshotRunner(dense_topo, CARDParams(R=2, r=7, noc=3), seed=2)
        result = runner.run()
        assert result.message_totals == runner.network.stats.snapshot()
        assert set(result.message_totals) == {"backtrack", "reply", "selection"}

    @pytest.mark.parametrize("full", [False, True])
    def test_view_equals_a_run_at_that_noc_and_depth(self, dense_topo, full):
        sources = None if full else range(0, 150, 5)
        measured = range(0, 150, 7)

        def runner(noc, depth):
            return SnapshotRunner(
                dense_topo, CARDParams(R=2, r=7, noc=noc, depth=depth), seed=2,
                sources=sources, measured=measured,
            )

        leader = runner(6, 1)
        leader.run()
        for noc, depth in [(0, 1), (1, 2), (3, 1), (3, 3), (6, 2)]:
            alone = runner(noc, depth)
            want = alone.run()
            got = leader.view(noc, depth)
            assert got.params == want.params
            assert np.array_equal(got.reachability, want.reachability)
            assert np.array_equal(got.distribution, want.distribution)
            assert got.message_totals == alone.network.stats.snapshot()
            assert got.mean_contacts == want.mean_contacts
            assert got.selection_per_node() == want.selection_per_node()
            assert got.backtracking_per_node() == want.backtracking_per_node()
            assert got.route_hops() == want.route_hops()
            assert leader.overlap_fraction(got) == alone.overlap_fraction(want)

    def test_view_above_the_selected_noc_is_refused(self, dense_topo):
        runner = SnapshotRunner(dense_topo, CARDParams(R=2, r=7, noc=3), seed=2)
        runner.run()
        with pytest.raises(ValueError, match="noc <= 3"):
            runner.view(4, 1)

    def test_source_subset(self, dense_topo):
        runner = SnapshotRunner(
            dense_topo, CARDParams(R=2, r=7, noc=3), seed=2, sources=[1, 5, 9]
        )
        result = runner.run()
        assert result.reachability.shape == (3,)
        assert result.distribution.sum() == 3


class TestTimeSeriesRunner:
    def static_factory(self, positions, area, rng):
        return StaticMobility(positions, area)

    def rwp_factory(self, positions, area, rng):
        return RandomWaypoint(
            positions, area, min_speed=2.0, max_speed=8.0, pause_time=0.0, rng=rng
        )

    def test_static_network_stable(self, dense_topo):
        runner = TimeSeriesRunner(
            dense_topo,
            CARDParams(R=2, r=7, noc=3, validation_jitter=0.0),
            self.static_factory,
            duration=6.0,
            seed=3,
        )
        res = runner.run()
        # nothing moves: no contact is ever lost...
        assert sum(res.lost_per_bin) == 0
        # ...validation walks still cost messages every round...
        assert sum(res.maintenance) > 0
        # ...and the contact population never shrinks (below-NoC sources
        # keep re-attempting selection per §III.C.3 step 5, which can only
        # add contacts on a static topology)
        assert all(
            b >= a for a, b in zip(res.total_contacts, res.total_contacts[1:])
        )

    def test_mobile_network_loses_and_reselects(self):
        topo = random_topology(n=120, area=(350.0, 350.0), tx=60.0, seed=21)
        runner = TimeSeriesRunner(
            topo,
            CARDParams(R=2, r=7, noc=3),
            self.rwp_factory,
            duration=8.0,
            seed=3,
        )
        res = runner.run()
        assert sum(res.lost_per_bin) > 0
        assert sum(res.selection) > 0
        assert len(res.times) == len(res.overhead) == 4

    def test_overhead_is_sum_of_parts(self, dense_topo):
        runner = TimeSeriesRunner(
            dense_topo,
            CARDParams(R=2, r=7, noc=3),
            self.rwp_factory,
            duration=4.0,
            seed=5,
        )
        res = runner.run()
        for i in range(len(res.times)):
            assert res.overhead[i] == pytest.approx(
                res.maintenance[i] + res.selection[i] + res.backtracking[i]
            )

    def test_bootstrap_excluded_by_default(self, dense_topo):
        runner = TimeSeriesRunner(
            dense_topo,
            CARDParams(R=2, r=7, noc=3, validation_jitter=0.0),
            self.static_factory,
            duration=2.0,
            seed=3,
        )
        res = runner.run()
        # bin 0 contains only validation traffic, not the bootstrap burst
        assert res.selection[0] == 0

    def test_deterministic(self):
        topo_a = random_topology(n=100, area=(300.0, 300.0), tx=60.0, seed=33)
        topo_b = random_topology(n=100, area=(300.0, 300.0), tx=60.0, seed=33)
        kw = dict(duration=4.0, seed=9)
        ra = TimeSeriesRunner(
            topo_a, CARDParams(R=2, r=7, noc=3), self.rwp_factory, **kw
        ).run()
        rb = TimeSeriesRunner(
            topo_b, CARDParams(R=2, r=7, noc=3), self.rwp_factory, **kw
        ).run()
        assert ra.overhead == rb.overhead
        assert ra.total_contacts == rb.total_contacts
