"""Edge-case sweep across layers: degenerate parameters, tiny networks,
boundary conditions the main suites don't isolate."""

import numpy as np
import pytest

from repro.core.params import CARDParams, SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.runner import SnapshotRunner
from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.expanding_ring import ExpandingRingDiscovery
from repro.discovery.flooding import FloodingDiscovery
from repro.net.network import Network
from repro.net.stats import MessageStats
from repro.net.messages import MessageKind
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology


class TestDegenerateNetworks:
    def test_single_node_network(self):
        topo = Topology(np.array([[5.0, 5.0]]), 10.0, (10.0, 10.0))
        card = CARDProtocol(Network(topo), CARDParams(R=1, r=2, noc=2), seed=0)
        card.bootstrap()
        assert card.total_contacts() == 0
        assert card.reachability().tolist() == [100.0]

    def test_two_isolated_nodes(self):
        topo = Topology(
            np.array([[0.0, 0.0], [200.0, 0.0]]), 10.0, (200.0, 10.0)
        )
        card = CARDProtocol(Network(topo), CARDParams(R=1, r=2, noc=2), seed=0)
        card.bootstrap()
        res = card.query(0, 1, max_depth=3)
        assert not res.success
        assert FloodingDiscovery(Network(topo)).query(0, 1).success is False

    def test_complete_graph_no_contacts_possible(self):
        """When everyone is in everyone's zone, no contact band exists."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, size=(12, 2))
        topo = Topology(pos, 100.0, (10.0, 10.0))
        card = CARDProtocol(Network(topo), CARDParams(R=1, r=3, noc=3), seed=0)
        card.bootstrap()
        assert card.total_contacts() == 0
        # ...but reachability is already total via the neighborhood
        assert card.reachability().min() == 100.0

    def test_r_equals_2R_selects_nothing_under_em(self):
        topo = grid_topology(10)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=4, noc=3), seed=0)
        card.bootstrap(sources=range(30))
        # EM requires true distance > 2R, impossible within a 2R walk
        assert card.total_contacts() == 0

    def test_noc_zero_protocol_still_queries_zone(self):
        topo = line_topology(10)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=6, noc=0), seed=0)
        card.bootstrap()
        assert card.query(0, 2).success           # in zone
        assert not card.query(0, 9).success       # no contacts to ask


class TestRunnerBoundaries:
    def test_snapshot_single_source(self):
        topo = random_topology(n=80, seed=1)
        runner = SnapshotRunner(
            topo, CARDParams(R=2, r=6, noc=2), seed=1, sources=[0]
        )
        result = runner.run()
        assert result.reachability.shape == (1,)
        assert result.distribution.sum() == 1

    def test_noc_beyond_achieved(self):
        """A NoC no source can reach stops at what the band allows."""
        topo = random_topology(n=80, seed=2)

        def run(noc):
            return SnapshotRunner(
                topo, CARDParams(R=2, r=6, noc=noc), seed=2, sources=[0, 1, 2]
            ).run()

        bare, big = run(0), run(50)
        assert 0 < big.mean_contacts < 50
        assert big.mean_reachability > bare.mean_reachability

    def test_message_totals_keys_subset(self):
        topo = random_topology(n=80, seed=3)
        result = SnapshotRunner(
            topo, CARDParams(R=2, r=6, noc=2), seed=3, sources=[0, 5]
        ).run()
        assert set(result.message_totals) <= {
            "selection", "backtrack", "reply", "validation", "query",
        }


class TestDiscoveryBoundaries:
    def test_flood_to_self(self):
        net = Network(line_topology(5))
        res = FloodingDiscovery(net).query(2, 2)
        assert res.success

    def test_ring_to_self(self):
        net = Network(line_topology(5))
        res = ExpandingRingDiscovery(net).query(2, 2)
        assert res.success and res.msgs == 0

    def test_bordercast_no_qd_still_terminates(self):
        topo = grid_topology(7)
        bc = BordercastDiscovery(
            Network(topo), NeighborhoodTables(topo, 2), qd=QDMode.NONE
        )
        res = bc.query(0, 48)
        assert res.success
        assert res.msgs < 10_000  # bounded despite no pruning

    def test_ring_ttl_one_only(self):
        net = Network(line_topology(6))
        ring = ExpandingRingDiscovery(net, ttl_schedule=[1])
        assert ring.query(0, 1).success
        assert not ring.query(0, 3).success


class TestStatsBoundaries:
    def test_series_zero_horizon(self):
        s = MessageStats(2)
        assert s.series([MessageKind.QUERY], horizon=0.0) == []

    def test_record_at_bin_boundary(self):
        s = MessageStats(1, time_bin=2.0)
        s.record(MessageKind.QUERY, 0, time=2.0)  # exactly at the boundary
        assert s.series([MessageKind.QUERY], horizon=4.0) == [0.0, 1.0]

    def test_per_node_empty_category(self):
        s = MessageStats(3)
        assert list(s.per_node(MessageKind.FLOOD)) == [0, 0, 0]


class TestPMvsEMOrdering:
    """The headline Fig 3/4 orderings, asserted at test scale."""

    def run_method(self, method, seed=4):
        topo = random_topology(n=150, area=(350.0, 350.0), tx=55.0, seed=seed)
        params = CARDParams(R=2, r=10, noc=4, method=method)
        runner = SnapshotRunner(topo, params, seed=seed, sources=range(40))
        return runner.run()

    def test_em_dominates_pm_reachability(self):
        em = self.run_method(SelectionMethod.EM)
        pm = self.run_method(SelectionMethod.PM)
        assert em.mean_reachability >= pm.mean_reachability

    def test_pm_backtracks_more(self):
        em = self.run_method(SelectionMethod.EM)
        pm = self.run_method(SelectionMethod.PM)
        assert pm.backtracking_per_node() > em.backtracking_per_node()

    def test_loop_prevention_flag_tames_pm(self):
        """Granting PM loop prevention slashes its backtracking."""
        topo = random_topology(n=150, area=(350.0, 350.0), tx=55.0, seed=5)
        wild = SnapshotRunner(
            topo,
            CARDParams(R=2, r=10, noc=4, method=SelectionMethod.PM),
            seed=5,
            sources=range(30),
        ).run()
        tamed = SnapshotRunner(
            topo,
            CARDParams(
                R=2, r=10, noc=4, method=SelectionMethod.PM, loop_prevention=True
            ),
            seed=5,
            sources=range(30),
        ).run()
        assert tamed.backtracking_per_node() < wild.backtracking_per_node()
