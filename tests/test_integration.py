"""End-to-end integration tests across the whole stack."""

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.flooding import FloodingDiscovery
from repro.metrics.comparison import SchemeComparison
from repro.discovery.base import CARDDiscoveryAdapter
from repro.net.graph import bfs_hops
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.scenarios.factory import build_topology, query_workload


class TestFullComparison:
    def test_three_schemes_one_workload(self):
        topo = build_topology(150, (400.0, 400.0), 60.0, seed=5, salt="itest")
        workload = query_workload(topo, 12, seed=5, distinct_sources=True)
        params = CARDParams(R=2, r=8, noc=4, depth=3)
        card = CARDProtocol(Network(topo), params, seed=5)
        rows = SchemeComparison(
            [
                FloodingDiscovery(Network(topo)),
                BordercastDiscovery(
                    Network(topo), NeighborhoodTables(topo, 2), qd=QDMode.QD2
                ),
                CARDDiscoveryAdapter(card, max_depth=3),
            ]
        ).run(workload)
        by = {r.scheme: r for r in rows}
        # flooding always succeeds within components and pays the most events
        assert by["Flooding"].query_events >= by["Bordercasting"].query_events
        assert by["Flooding"].query_events >= by["CARD"].query_events
        # CARD prepared standing state, blind schemes did not
        assert by["CARD"].prepare_msgs > 0
        assert by["Flooding"].prepare_msgs == 0

    def test_flooding_success_is_component_truth(self):
        topo = build_topology(120, (500.0, 500.0), 50.0, seed=6, salt="itest2")
        workload = query_workload(topo, 20, seed=6)
        flood = FloodingDiscovery(Network(topo))
        for s, t in workload:
            expected = bfs_hops(topo.adj, s)[t] >= 0
            assert flood.query(s, t).success == expected


class TestDeterminismEndToEnd:
    def test_whole_pipeline_reproducible(self):
        def run():
            topo = build_topology(100, (320.0, 320.0), 60.0, seed=9, salt="det")
            card = CARDProtocol(
                Network(topo), CARDParams(R=2, r=7, noc=3, depth=2), seed=9
            )
            card.bootstrap()
            workload = query_workload(topo, 10, seed=9)
            return [
                (card.query(s, t).success, card.query(s, t).msgs)
                for s, t in workload
            ], card.network.stats.snapshot()

        first, stats1 = run()
        second, stats2 = run()
        assert first == second
        assert stats1 == stats2
