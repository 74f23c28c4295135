"""Tests for CSQ contact selection: admission rules, the DFS walk,
accounting, and the EM non-overlap invariant."""

import numpy as np

from repro.net import graph as g
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CARDParams, SelectionMethod
from repro.core.selection import ContactSelector
from repro.core.state import ContactTable
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import grid_topology, line_topology, random_topology
from tests.oracles import admit, select_one


def make_selector(topo, params):
    net = Network(topo)
    tables = NeighborhoodTables(topo, params.R)
    return ContactSelector(net, tables, params), net, tables


class TestAdmission:
    def test_em_rejects_overlap_with_source(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, method=SelectionMethod.EM)
        sel, _, tables = make_selector(topo, params)
        rng = np.random.default_rng(0)
        edge_list = tuple(int(e) for e in tables.edge_nodes(0))
        # node 3 is within 2R of source 0: edge node 2 is its neighbor
        assert not admit(sel, 3, 0, (), edge_list, d=3, rng=rng)
        # node 6 is beyond 2R+1: no source/edge overlap
        assert admit(sel, 6, 0, (), edge_list, d=6, rng=rng)

    def test_em_rejects_contact_neighborhood_overlap(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=10, method=SelectionMethod.EM)
        sel, _, tables = make_selector(topo, params)
        rng = np.random.default_rng(0)
        edge_list = tuple(int(e) for e in tables.edge_nodes(0))
        # 8 would be admissible, but 7 is already a contact and 8 is within
        # R=2 of 7 → overlap with an existing contact's neighborhood
        assert not admit(sel, 8, 0, (7,), edge_list, d=8, rng=rng)
        # 10 is 3 hops from contact 7 → no overlap
        assert admit(sel, 10, 0, (7,), edge_list, d=10, rng=rng)

    def test_em_guarantees_distance_beyond_2R(self):
        """EM admission implies true hop distance > 2R (the Fig 1 fix)."""
        topo = random_topology(n=100, seed=7)
        params = CARDParams(R=2, r=8, method=SelectionMethod.EM)
        sel, _, tables = make_selector(topo, params)
        rng = np.random.default_rng(1)
        dist = g.hop_distance_matrix(topo.adj)  # test oracle
        edge_list = tuple(int(e) for e in tables.edge_nodes(0))
        for x in range(1, 100):
            if admit(sel, x, 0, (), edge_list, d=5, rng=rng):
                assert dist[0, x] > 2 * params.R or dist[0, x] == -1

    def test_pm_probability_zero_inside_band(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=10, method=SelectionMethod.PM, pm_equation=2)
        sel, _, _ = make_selector(topo, params)
        rng = np.random.default_rng(0)
        # d == 2R → P = 0, never admitted even without overlap
        assert not any(admit(sel, 9, 0, (), (), d=4, rng=rng) for _ in range(50))

    def test_pm_probability_one_at_r(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=10, method=SelectionMethod.PM, pm_equation=2)
        sel, _, _ = make_selector(topo, params)
        rng = np.random.default_rng(0)
        assert admit(sel, 12, 0, (), (), d=10, rng=rng)

    def test_pm_ignores_edge_list(self):
        """PM checks source+contacts only; a node near an edge node can win."""
        topo = line_topology(20)
        params = CARDParams(R=2, r=10, method=SelectionMethod.PM, pm_equation=1)
        sel, _, tables = make_selector(topo, params)
        rng = np.random.default_rng(0)
        # node 5: within R of edge node 2? dist(5,2)=3 > R... choose node 4:
        # not in source's R=2 neighborhood, d=4 with eq1 → P=(4-2)/(10-2)=.25
        hits = sum(admit(sel, 5, 0, (), tuple(tables.edge_nodes(0)), d=5, rng=rng) for _ in range(300))
        assert 0 < hits < 300  # probabilistic admission, not deterministic

    def test_ablation_flags_disable_checks(self):
        topo = line_topology(20)
        params = CARDParams(
            R=2, r=10, method=SelectionMethod.EM,
            check_contact_overlap=False, check_edge_overlap=False,
        )
        sel, _, _ = make_selector(topo, params)
        rng = np.random.default_rng(0)
        # 8 overlaps contact 7's neighborhood but the check is off
        assert admit(sel, 8, 0, (7,), (), d=8, rng=rng)


class TestWalk:
    def test_selects_contact_on_line(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, noc=1, method=SelectionMethod.EM)
        sel, net, tables = make_selector(topo, params)
        rng = np.random.default_rng(0)
        out = select_one(sel, 0, int(tables.edge_nodes(0)[0]), (), rng)
        assert out.contact is not None
        # EM invariant: contact strictly beyond 2R
        assert g.hop_distance_matrix(topo.adj)[0, out.contact] > 4
        # path is walkable and ends at the contact
        assert out.path[0] == 0 and out.path[-1] == out.contact
        for a, b in zip(out.path, out.path[1:]):
            assert topo.are_neighbors(a, b)
        assert len(out.path) - 1 <= params.r

    def test_walk_respects_r_bound(self):
        topo = line_topology(30)
        params = CARDParams(R=2, r=6, noc=1)
        sel, _, tables = make_selector(topo, params)
        out = select_one(sel, 0, 2, (), np.random.default_rng(0))
        assert out.contact is not None
        assert len(out.path) - 1 <= 6

    def test_messages_counted(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, noc=1)
        sel, net, tables = make_selector(topo, params)
        out = select_one(sel, 0, 2, (), np.random.default_rng(0))
        assert net.stats.total(MessageKind.CONTACT_SELECTION) == out.forward_msgs
        assert net.stats.total(MessageKind.BACKTRACK) == out.backtrack_msgs
        assert out.forward_msgs >= len(out.path) - 1

    def test_reply_counted_separately(self):
        topo = line_topology(20)
        params = CARDParams(R=2, r=8, noc=1)
        sel, net, _ = make_selector(topo, params)
        out = select_one(sel, 0, 2, (), np.random.default_rng(0))
        assert net.stats.total(MessageKind.REPLY) == len(out.path) - 1

    def test_exhausted_when_no_candidate(self):
        # a short line: nothing lies beyond 2R, so EM can never admit
        topo = line_topology(5)
        params = CARDParams(R=2, r=8, noc=1)
        sel, net, tables = make_selector(topo, params)
        out = select_one(sel, 0, 2, (), np.random.default_rng(0))
        assert out.contact is None
        assert out.exhausted
        # the walk visited everything reachable within r hops
        assert out.nodes_visited == 5

    def test_backtracking_happens_on_dead_ends(self):
        topo = line_topology(5)
        params = CARDParams(R=2, r=8, noc=1)
        sel, _, _ = make_selector(topo, params)
        out = select_one(sel, 0, 2, (), np.random.default_rng(0))
        assert out.backtrack_msgs > 0

    def test_step_cap_inconclusive(self):
        topo = grid_topology(8)
        params = CARDParams(R=2, r=10, noc=1, max_walk_steps=2)
        sel, _, tables = make_selector(topo, params)
        out = select_one(sel, 0, int(tables.edge_nodes(0)[0]), (), np.random.default_rng(0))
        # with 2 walk steps past the edge the query tops out at depth
        # R+2 = 4 = 2R, where EM admission is impossible
        assert out.contact is None
        assert not out.exhausted

    def test_unreachable_edge_node(self):
        topo = line_topology(6, spacing=100.0, tx=50.0)  # disconnected
        params = CARDParams(R=2, r=6, noc=1)
        sel, _, _ = make_selector(topo, params)
        out = select_one(sel, 0, 3, (), np.random.default_rng(0))
        assert out.contact is None and out.forward_msgs == 0

    def test_deterministic_given_rng(self):
        topo = random_topology(n=100, seed=5)
        params = CARDParams(R=2, r=8, noc=1)
        sel1, _, t1 = make_selector(topo, params)
        sel2, _, _ = make_selector(topo, params)
        e = int(t1.edge_nodes(0)[0]) if len(t1.edge_nodes(0)) else None
        if e is not None:
            a = select_one(sel1, 0, e, (), np.random.default_rng(3))
            b = select_one(sel2, 0, e, (), np.random.default_rng(3))
            assert a.contact == b.contact and a.path == b.path


class _NoPermutation(np.random.Generator):
    """A generator whose ``permutation`` raises.  ``Generator`` is an
    extension type, so the method cannot be monkeypatched; a subclass
    draws identically otherwise."""

    def permutation(self, x, axis=0):
        raise AssertionError("the CSQ walk must not call permutation")


class TestWalkDraws:
    @pytest.mark.parametrize("method", [SelectionMethod.EM, SelectionMethod.PM])
    def test_walk_never_calls_permutation(self, method):
        topo = random_topology(n=150, seed=4)
        params = CARDParams(R=2, r=8, noc=4, method=method)
        sources = list(range(0, 150, 10))

        def run(gen):
            sel, net, _ = make_selector(topo, params)
            rngs = {s: gen(np.random.PCG64(s)) for s in sources}
            res = sel.select_contacts_many(sources, rngs)
            first = res[sources[0]].table
            # a maintenance-style re-selection topping up a shrunk table
            table = ContactTable(sources[0])
            for c in list(first)[:1]:
                table.add(c)
            again = sel.select_contacts(
                sources[0], gen(np.random.PCG64(99)), table=table
            )
            walks = {
                s: (r.attempts, r.forward_msgs, r.backtrack_msgs,
                    [(c.node, list(c.path)) for c in r.table])
                for s, r in res.items()
            }
            return walks, [(c.node, list(c.path)) for c in again.table], (
                net.stats.total(MessageKind.CONTACT_SELECTION),
                net.stats.total(MessageKind.BACKTRACK),
            )

        plain = run(np.random.Generator)
        guarded = run(_NoPermutation)
        assert guarded == plain
        assert sum(len(w[3]) for w in plain[0].values()) > 0


class TestSelectContacts:
    def test_respects_noc(self):
        topo = grid_topology(10)
        params = CARDParams(R=2, r=8, noc=2)
        sel, _, _ = make_selector(topo, params)
        res = sel.select_contacts(55, np.random.default_rng(0))
        assert res.num_contacts <= 2

    def test_contacts_distinct(self):
        topo = grid_topology(12)
        params = CARDParams(R=2, r=10, noc=5)
        sel, _, _ = make_selector(topo, params)
        res = sel.select_contacts(66, np.random.default_rng(0))
        ids = res.table.ids()
        assert len(ids) == len(set(ids))

    def test_em_pairwise_band_invariant(self):
        """Every selected contact is > 2R from the source *and* > R from
        every other contact (their neighborhoods don't contain each other)."""
        topo = grid_topology(12)
        params = CARDParams(R=2, r=10, noc=6)
        sel, _, tables = make_selector(topo, params)
        res = sel.select_contacts(66, np.random.default_rng(1))
        dist = g.hop_distance_matrix(topo.adj)  # test oracle
        ids = res.table.ids()
        assert len(ids) >= 2  # grid is large enough for several
        for c in ids:
            assert dist[66, c] > 2 * params.R
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert dist[a, b] > params.R

    def test_no_edges_no_contacts(self):
        topo = line_topology(3)  # R=2 ⇒ node 1 has no edge nodes
        params = CARDParams(R=2, r=4, noc=3)
        sel, _, tables = make_selector(topo, params)
        assert len(tables.edge_nodes(1)) == 0
        res = sel.select_contacts(1, np.random.default_rng(0))
        assert res.num_contacts == 0 and res.attempts == 0

    def test_noc_zero(self):
        topo = grid_topology(6)
        params = CARDParams(R=2, r=8, noc=0)
        sel, _, _ = make_selector(topo, params)
        res = sel.select_contacts(0, np.random.default_rng(0))
        assert res.num_contacts == 0 and res.attempts == 0

    def test_stops_after_consecutive_failures(self):
        topo = line_topology(6)  # tiny: EM can never admit beyond 2R=4... r=8
        params = CARDParams(R=2, r=8, noc=5, max_failed_queries=2)
        sel, _, _ = make_selector(topo, params)
        res = sel.select_contacts(0, np.random.default_rng(0))
        # node 5 is at distance 5 > 2R → actually admissible; allow either,
        # but attempts must stay bounded
        assert res.attempts <= 2 + res.num_contacts * 6

    def test_existing_table_extended(self):
        topo = grid_topology(12)
        params = CARDParams(R=2, r=10, noc=4)
        sel, _, _ = make_selector(topo, params)
        rng = np.random.default_rng(3)
        table = ContactTable(66)
        first = sel.select_contacts(66, rng, table=table, noc=2)
        assert len(table) <= 2
        before = table.ids()
        sel.select_contacts(66, rng, table=table, noc=4)
        assert table.ids()[: len(before)] == before

    def test_radius_mismatch_rejected(self):
        topo = grid_topology(5)
        params = CARDParams(R=2, r=8)
        net = Network(topo)
        with pytest.raises(ValueError, match="radius"):
            ContactSelector(net, NeighborhoodTables(topo, 3), params)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_em_invariant_random_topologies(self, seed):
        topo = random_topology(n=90, area=(350.0, 350.0), tx=60.0, seed=seed)
        params = CARDParams(R=2, r=8, noc=4)
        sel, _, tables = make_selector(topo, params)
        res = sel.select_contacts(0, np.random.default_rng(seed))
        dist = g.hop_distance_matrix(topo.adj)  # test oracle
        for c in res.table.ids():
            assert dist[0, c] > 2 * params.R
