"""Tests for scenarios (Table 1, factory, workloads)."""

import pytest

from repro.net.graph import bfs_hops
from repro.scenarios.factory import (
    FIG9_CONFIGS,
    build_topology,
    query_workload,
)
from repro.scenarios.table1 import TABLE1_SCENARIOS, get_scenario


class TestTable1:
    def test_eight_scenarios(self):
        assert len(TABLE1_SCENARIOS) == 8
        assert [s.index for s in TABLE1_SCENARIOS] == list(range(1, 9))

    def test_get_scenario(self):
        sc = get_scenario(5)
        assert sc.num_nodes == 500 and sc.tx_range == 50.0

    def test_get_scenario_missing(self):
        with pytest.raises(KeyError):
            get_scenario(9)

    def test_build_respects_parameters(self):
        sc = get_scenario(1)
        topo = sc.build(seed=0)
        assert topo.num_nodes == 250
        assert topo.area == (500.0, 500.0)
        assert topo.tx_range == 50.0

    def test_build_deterministic(self):
        a = get_scenario(2).build(seed=3)
        b = get_scenario(2).build(seed=3)
        assert (a.positions == b.positions).all()

    def test_density_reflects_in_degree(self):
        """Denser scenario 6 (tx=70) must out-degree sparser scenario 4 (tx=30)."""
        d4 = get_scenario(4).build(0).stats().mean_degree
        d6 = get_scenario(6).build(0).stats().mean_degree
        assert d6 > d4

    def test_label(self):
        assert "N=250" in get_scenario(1).label


class TestFactory:
    def test_build_topology_salted(self):
        a = build_topology(50, (200.0, 200.0), 50.0, seed=0, salt="a")
        b = build_topology(50, (200.0, 200.0), 50.0, seed=0, salt="b")
        assert not (a.positions == b.positions).all()

    def test_fig9_configs_valid_params(self):
        for cfg in FIG9_CONFIGS:
            assert cfg.r >= 2 * cfg.R

    def test_workload_shape_and_bounds(self):
        topo = build_topology(60, (250.0, 250.0), 60.0, seed=1)
        wl = query_workload(topo, 20, seed=2)
        assert len(wl) == 20
        for s, t in wl:
            assert 0 <= s < 60 and 0 <= t < 60 and s != t

    def test_workload_distinct_sources(self):
        topo = build_topology(60, (250.0, 250.0), 60.0, seed=1)
        wl = query_workload(topo, 30, seed=2, distinct_sources=True)
        sources = [s for s, _ in wl]
        assert len(set(sources)) == 30

    def test_workload_connected_only(self):
        topo = build_topology(80, (300.0, 300.0), 60.0, seed=3)
        wl = query_workload(topo, 15, seed=4, connected_only=True)
        for s, t in wl:
            assert bfs_hops(topo.adj, s)[t] >= 0

    def test_workload_deterministic(self):
        topo = build_topology(60, (250.0, 250.0), 60.0, seed=1)
        assert query_workload(topo, 10, seed=5) == query_workload(topo, 10, seed=5)

    def test_workload_needs_two_nodes(self):
        topo = build_topology(1, (50.0, 50.0), 10.0, seed=0)
        with pytest.raises(ValueError):
            query_workload(topo, 3)
