"""Tests for the small-world analysis module."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.smallworld import (
    SmallWorldReport,
    characteristic_path_length,
    clustering_coefficient,
    contact_graph,
    degrees_of_separation,
    smallworld_report,
)
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.state import Contact, ContactTable
from repro.net.network import Network
from tests.conftest import grid_topology, line_topology, random_topology


def to_nx(adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            graph.add_edge(u, int(v))
    return graph


class TestClustering:
    def test_triangle_is_fully_clustered(self):
        adj = [np.array([1, 2]), np.array([0, 2]), np.array([0, 1])]
        assert clustering_coefficient(adj) == pytest.approx(1.0)

    def test_line_has_zero_clustering(self, line10):
        assert clustering_coefficient(line10.adj) == 0.0

    def test_matches_networkx(self, rand_topo):
        ours = clustering_coefficient(rand_topo.adj)
        ref = nx.average_clustering(to_nx(rand_topo.adj))
        assert ours == pytest.approx(ref)

    def test_unit_disk_graphs_are_clustered(self):
        """The small-world premise: spatial graphs have high C."""
        topo = random_topology(n=200, area=(400.0, 400.0), tx=70.0, seed=1)
        assert clustering_coefficient(topo.adj) > 0.4

    def test_empty(self):
        assert clustering_coefficient([]) == 0.0


class TestPathLength:
    def test_line(self, line10):
        ref = nx.average_shortest_path_length(to_nx(line10.adj))
        assert characteristic_path_length(line10.adj) == pytest.approx(ref)

    def test_disconnected_uses_connected_pairs(self):
        topo = line_topology(4, spacing=100.0, tx=50.0)
        assert characteristic_path_length(topo.adj) == 0.0


class TestContactGraph:
    def test_symmetrized(self):
        t = ContactTable(0)
        t.add(Contact(node=5, path=[0, 2, 5]))
        overlay = contact_graph({0: t}, 8)
        assert list(overlay[0]) == [5]
        assert list(overlay[5]) == [0]
        assert list(overlay[2]) == []

    def test_empty_tables(self):
        overlay = contact_graph({}, 4)
        assert all(len(a) == 0 for a in overlay)


class TestDegreesOfSeparation:
    def test_own_zone_is_level_zero(self, line10):
        membership = line10.substrate(2).membership(2)
        sep = degrees_of_separation(membership, {}, sources=[0])
        assert sep[0, 0] == 0 and sep[0, 2] == 0
        assert sep[0, 3] == -1  # no contacts: nothing beyond the zone

    def test_contact_adds_level_one(self, line10):
        membership = line10.substrate(2).membership(2)
        t = ContactTable(0)
        t.add(Contact(node=6, path=[0, 1, 2, 3, 4, 5, 6]))
        sep = degrees_of_separation(membership, {0: t}, sources=[0])
        assert sep[0, 6] == 1 and sep[0, 8] == 1
        assert sep[0, 9] == -1

    def test_chains_add_levels(self, line10):
        membership = line10.substrate(1).membership(1)
        t0 = ContactTable(0)
        t0.add(Contact(node=4, path=[0, 1, 2, 3, 4]))
        t4 = ContactTable(4)
        t4.add(Contact(node=8, path=[4, 5, 6, 7, 8]))
        sep = degrees_of_separation(membership, {0: t0, 4: t4}, sources=[0])
        assert sep[0, 4] == 1
        assert sep[0, 8] == 2

    def test_levels_bounded_by_tree_depth(self):
        topo = random_topology(n=100, seed=7)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=7, noc=3), seed=7)
        card.bootstrap()
        sep = degrees_of_separation(
            card.membership, card.contact_tables, sources=range(10)
        )
        assert sep.max() < 30  # terminates; no runaway levels


class TestReport:
    def test_report_fields_consistent(self):
        topo = random_topology(n=150, area=(400.0, 400.0), tx=70.0, seed=8)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=8, noc=4), seed=8)
        card.bootstrap()
        rep = smallworld_report(
            topo.adj, card.membership, card.contact_tables, sources=range(30)
        )
        assert isinstance(rep, SmallWorldReport)
        assert 0.0 <= rep.clustering <= 1.0
        assert rep.path_length > 0
        # shortcuts can only shrink (or keep) the characteristic length
        assert rep.augmented_path_length <= rep.path_length + 1e-9
        assert rep.shortcut_gain >= 1.0
        assert 0.0 <= rep.coverage <= 1.0

    def test_contacts_shrink_path_length(self):
        """The paper's core small-world claim, measured."""
        topo = random_topology(n=200, area=(500.0, 500.0), tx=60.0, seed=9)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=10, noc=5), seed=9)
        card.bootstrap()
        rep = smallworld_report(topo.adj, card.membership, card.contact_tables)
        assert rep.shortcut_gain > 1.05  # measurable contraction

    def test_exact_branch_has_no_se(self):
        topo = random_topology(n=100, seed=11)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=7, noc=3), seed=11)
        card.bootstrap()
        rep = smallworld_report(topo.adj, card.membership, card.contact_tables)
        assert rep.path_length_se is None
        assert rep.augmented_path_length_se is None

    def test_sampled_branch_reports_se(self):
        topo = random_topology(n=120, seed=12)
        card = CARDProtocol(Network(topo), CARDParams(R=2, r=7, noc=3), seed=12)
        card.bootstrap()
        rep = smallworld_report(
            topo.adj,
            card.membership,
            card.contact_tables,
            pair_sample=10,
            rng=np.random.default_rng(12),
        )
        assert rep.path_length_se is not None and rep.path_length_se >= 0.0
        assert rep.augmented_path_length_se is not None
