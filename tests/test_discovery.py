"""Tests for the baseline discovery schemes (flooding, ring, bordercast)."""

import numpy as np
import pytest

from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.expanding_ring import ExpandingRingDiscovery
from repro.discovery.flooding import FloodingDiscovery
from repro.net.graph import bfs_hops, connected_components
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology


class TestFlooding:
    def test_success_within_component(self, grid5):
        net = Network(grid5)
        res = FloodingDiscovery(net).query(0, 24)
        assert res.success
        # everyone but the target transmits once
        assert res.msgs == 24
        assert net.stats.total(MessageKind.FLOOD) == 24

    def test_failure_outside_component(self):
        topo = line_topology(4, spacing=100.0, tx=50.0)
        res = FloodingDiscovery(Network(topo)).query(0, 3)
        assert not res.success
        assert res.msgs == 1  # only the isolated source transmits

    def test_cost_scales_with_component(self):
        small = random_topology(n=50, seed=1)
        large = random_topology(n=200, seed=1)
        r_small = FloodingDiscovery(Network(small)).query(0, 1)
        r_large = FloodingDiscovery(Network(large)).query(0, 1)
        giant_small = len(connected_components(small.adj)[0])
        giant_large = len(connected_components(large.adj)[0])
        if giant_large > giant_small:
            assert r_large.msgs >= r_small.msgs

    def test_reaches_exactly_component(self, grid5):
        """Flood cost equals the source's component size minus the target."""
        topo = random_topology(n=80, seed=9)
        net = Network(topo)
        dist = bfs_hops(topo.adj, 0)
        comp = int((dist >= 0).sum())
        target = int(np.flatnonzero(dist > 0)[0]) if (dist > 0).any() else 1
        res = FloodingDiscovery(net).query(0, target)
        assert res.msgs == comp - int(res.success)


class TestExpandingRing:
    def test_near_target_cheap(self, grid5):
        net = Network(grid5)
        ring = ExpandingRingDiscovery(net)
        res = ring.query(12, 13)  # direct neighbor: TTL=1 suffices
        assert res.success
        assert res.msgs == 1  # only the source transmits in round 1

    def test_cheaper_than_flood_for_near_targets(self, grid5):
        flood = FloodingDiscovery(Network(grid5)).query(12, 13)
        ring = ExpandingRingDiscovery(Network(grid5)).query(12, 13)
        assert ring.msgs < flood.msgs

    def test_far_target_accumulates_rounds(self, grid5):
        ring = ExpandingRingDiscovery(Network(grid5))
        near = ring.query(0, 1).msgs
        far = ExpandingRingDiscovery(Network(grid5)).query(0, 24).msgs
        assert far > near

    def test_failure_when_disconnected(self):
        topo = line_topology(4, spacing=100.0, tx=50.0)
        res = ExpandingRingDiscovery(Network(topo)).query(0, 3)
        assert not res.success

    def test_custom_schedule_validation(self, grid5):
        net = Network(grid5)
        with pytest.raises(ValueError):
            ExpandingRingDiscovery(net, ttl_schedule=[3, 2])
        with pytest.raises(ValueError):
            ExpandingRingDiscovery(net, ttl_schedule=[0, 2])

    def test_schedule_doubles(self, grid5):
        ring = ExpandingRingDiscovery(Network(grid5), max_ttl=16)
        assert ring.schedule == [1, 2, 4, 8, 16]


class TestBordercast:
    def make(self, topo, R=2, qd=QDMode.QD2):
        net = Network(topo)
        tables = NeighborhoodTables(topo, R)
        return BordercastDiscovery(net, tables, qd=qd), net

    def test_own_zone_free(self, grid5):
        bc, net = self.make(grid5)
        res = bc.query(12, 13)
        assert res.success and res.msgs == 0

    def test_finds_distant_target(self):
        topo = grid_topology(8)
        bc, _ = self.make(topo)
        res = bc.query(0, 63)
        assert res.success
        assert res.msgs > 0

    def test_cheaper_than_flooding(self):
        topo = random_topology(n=200, area=(500.0, 500.0), tx=60.0, seed=4)
        flood_total = 0
        bc_total = 0
        bc, _ = self.make(topo, R=2)
        flood = FloodingDiscovery(Network(topo))
        rng = np.random.default_rng(0)
        dist = bfs_hops(topo.adj, 0)
        targets = [int(t) for t in np.flatnonzero(dist > 4)[:10]]
        for t in targets:
            flood_total += flood.query(0, t).msgs
            bc_total += bc.query(0, t).msgs
        assert bc_total < flood_total

    def test_qd_reduces_traffic(self):
        topo = grid_topology(9)
        none_bc, _ = self.make(topo, qd=QDMode.NONE)
        # QD-less bordercasting can loop between zones; bound the compare
        qd2_bc, _ = self.make(topo, qd=QDMode.QD2)
        qd2 = qd2_bc.query(0, 80)
        assert qd2.success

    def test_qd1_vs_qd2(self):
        topo = grid_topology(10)
        qd1_bc, _ = self.make(topo, qd=QDMode.QD1)
        qd2_bc, _ = self.make(topo, qd=QDMode.QD2)
        r1 = qd1_bc.query(0, 99)
        r2 = qd2_bc.query(0, 99)
        assert r1.success and r2.success
        assert r2.msgs <= r1.msgs  # overhearing can only prune more

    def test_success_on_connected_random(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=6)
        bc, _ = self.make(topo, R=2)
        dist = bfs_hops(topo.adj, 0)
        targets = [int(t) for t in np.flatnonzero(dist > 4)[:15]]
        assert targets, "fixture should have distant targets"
        for t in targets:
            assert bc.query(0, t).success

    def test_failure_when_disconnected(self):
        topo = line_topology(6, spacing=100.0, tx=50.0)
        bc, _ = self.make(topo, R=2)
        assert not bc.query(0, 5).success

    def test_messages_attributed_to_bordercast(self):
        topo = grid_topology(8)
        bc, net = self.make(topo)
        bc.query(0, 63)
        assert net.stats.total(MessageKind.BORDERCAST) > 0
        assert net.stats.total(MessageKind.FLOOD) == 0


_SCHEMES = {
    "flood": lambda net, topo: FloodingDiscovery(net),
    "ring": lambda net, topo: ExpandingRingDiscovery(net),
    "border": lambda net, topo: BordercastDiscovery(
        net, NeighborhoodTables(topo, 2), qd=QDMode.QD2
    ),
}


class TestResultShape:
    @pytest.mark.parametrize("name", sorted(_SCHEMES))
    def test_query_result_shape(self, name):
        topo = grid_topology(8)
        net = Network(topo)
        res = _SCHEMES[name](net, topo).query(0, 63)
        assert res.source == 0 and res.target == 63
        assert res.success is True
        assert res.msgs == net.stats.total() > 0
        # broadcasts are heard by every neighbour of the transmitter
        assert res.radio_events >= 2 * res.msgs
