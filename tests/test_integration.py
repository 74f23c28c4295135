"""End-to-end integration tests across the whole stack."""

import pytest

from repro.campaign.runner import execute_cell
from repro.campaign.spec import CellSpec, TopologySpec
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.discovery.bordercast import BordercastDiscovery, QDMode
from repro.discovery.flooding import FloodingDiscovery
from repro.net.graph import bfs_hops
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.scenarios.factory import build_topology, query_workload


def _comparison_cell(num_queries=12, **topology):
    topology = topology or dict(num_nodes=150, area=(400.0, 400.0), tx_range=60.0)
    return CellSpec(
        topology=TopologySpec(salt="itest", **topology),
        params={"R": 2, "r": 8, "noc": 4, "depth": 3},
        seed=5,
        metrics=("comparison",),
        workload={"num_queries": num_queries},
    )


class TestFullComparison:
    def test_three_schemes_one_workload(self):
        m = execute_cell(_comparison_cell())
        assert m["num_queries"] == 12
        # flooding always succeeds within components and pays the most events
        assert m["flood_events"] >= m["border_events"]
        assert m["flood_events"] >= m["card_events"]
        # CARD prepared standing state, the blind schemes did not
        assert m["flood_prepare_msgs"] == m["border_prepare_msgs"] == 0
        assert m["card_prepare_msgs"] > 0
        # CARD's hops are unicast: one reception per transmission
        assert m["card_events"] == 2 * m["card_msgs"]
        for prefix in ("flood", "border", "card"):
            assert m[f"{prefix}_success_rate"] == m[f"{prefix}_successes"] / 12

    def test_blind_scheme_totals_are_their_query_sums(self):
        cell = _comparison_cell()
        m = execute_cell(cell)
        topo = cell.topology.build(cell.seed)
        workload = query_workload(topo, 12, seed=cell.seed, distinct_sources=True)
        tables = NeighborhoodTables(topo, 2)
        schemes = {
            "flood": FloodingDiscovery(Network(topo)),
            "border": BordercastDiscovery(Network(topo), tables, qd=QDMode.QD2),
        }
        for prefix, scheme in schemes.items():
            results = [scheme.query(s, t) for s, t in workload]
            assert m[f"{prefix}_msgs"] == sum(r.msgs for r in results)
            assert m[f"{prefix}_events"] == sum(r.radio_events for r in results)
            assert m[f"{prefix}_successes"] == sum(r.success for r in results)

    def test_card_prepare_is_the_bootstrap_cost(self):
        cell = _comparison_cell()
        m = execute_cell(cell)
        topo = cell.topology.build(cell.seed)
        card = CARDProtocol(Network(topo), cell.resolved_params(), seed=cell.seed)
        prepare = sum(r.total_msgs for r in card.bootstrap().values())
        workload = query_workload(topo, 12, seed=cell.seed, distinct_sources=True)
        results = card.query_many(workload, max_depth=3)
        assert m["card_prepare_msgs"] == prepare
        assert m["card_msgs"] == sum(r.msgs for r in results)
        assert m["card_successes"] == sum(r.success for r in results)

    def test_unreachable_targets_count_as_failures(self):
        sparse = dict(kind="explicit", num_nodes=80, area=(600.0, 600.0), tx_range=50.0)
        cell = _comparison_cell(num_queries=20, **sparse)
        m = execute_cell(cell)
        topo = cell.topology.build(cell.seed)
        workload = query_workload(topo, 20, seed=cell.seed, distinct_sources=True)
        reachable = sum(int(bfs_hops(topo.adj, s)[t] >= 0) for s, t in workload)
        assert m["flood_successes"] == reachable < 20
        assert m["flood_success_rate"] == reachable / 20
        for prefix in ("border", "card"):
            assert m[f"{prefix}_successes"] <= reachable

    def test_empty_workload_is_rejected_by_the_spec(self):
        with pytest.raises(ValueError, match="num_queries must be >= 1"):
            _comparison_cell(num_queries=0)

    def test_comparison_cell_is_reproducible(self):
        assert execute_cell(_comparison_cell()) == execute_cell(_comparison_cell())

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
