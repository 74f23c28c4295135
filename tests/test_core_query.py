"""Tests for the DSQ query engine: neighborhood hits, depth escalation,
traffic accounting, dedup."""

import numpy as np
import pytest

from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine
from repro.core.state import Contact, ContactTable
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import line_topology, random_topology


def line_setup(n=30, R=2, r=8, depth=3):
    """A long line with hand-placed contact chains.

    Node 0's contact is 6 (path 0..6); node 6's contact is 12; node 12's
    contact is 18 — a deterministic depth ladder for exact assertions.
    """
    topo = line_topology(n)
    params = CARDParams(R=R, r=r, depth=depth, noc=2)
    net = Network(topo)
    tables = NeighborhoodTables(topo, R)
    contact_tables = {}
    for start in range(0, n - 6, 6):
        t = ContactTable(start)
        t.add(Contact(node=start + 6, path=list(range(start, start + 7))))
        contact_tables[start] = t
    engine = QueryEngine(net, tables, params, contact_tables)
    return engine, net, tables


class TestNeighborhoodHit:
    def test_target_in_zone_costs_nothing(self):
        engine, net, _ = line_setup()
        res = engine.query(0, 2)
        assert res.success and res.depth_found == 0
        assert res.msgs == 0
        assert res.path == [0, 1, 2]
        assert net.stats.total() == 0

    def test_self_query(self):
        engine, _, _ = line_setup()
        res = engine.query(4, 4)
        assert res.success and res.path == [4]


class TestDepthOne:
    def test_found_via_first_level_contact(self):
        engine, net, _ = line_setup()
        # target 7 is within R=2 of contact 6
        res = engine.query(0, 7, max_depth=1)
        assert res.success and res.depth_found == 1
        # cost: one DSQ along the 6-hop contact path
        assert res.msgs == 6
        assert res.contacts_queried == 1
        assert res.path == list(range(0, 8))
        assert net.stats.total(MessageKind.QUERY) == 6

    def test_reply_counted_separately(self):
        engine, net, _ = line_setup()
        res = engine.query(0, 7, max_depth=1)
        assert res.reply_msgs == len(res.path) - 1
        assert net.stats.total(MessageKind.REPLY) == res.reply_msgs

    def test_miss_at_depth_one(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 20, max_depth=1)
        assert not res.success
        assert res.msgs == 6  # the failed probe still cost the walk


class TestEscalation:
    def test_depth_two_found(self):
        engine, _, _ = line_setup()
        # 13 is within R of 12 (contact of contact 6)
        res = engine.query(0, 13, max_depth=2)
        assert res.success and res.depth_found == 2
        # traffic: failed D=1 round (6) + D=2 round (6 + 6)
        assert res.msgs == 18
        assert res.path == list(range(0, 14))

    def test_depth_three_found(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 19, max_depth=3)
        assert res.success and res.depth_found == 3
        # D=1: 6; D=2: 6+6; D=3: 6+6+6 → 36 total
        assert res.msgs == 36

    def test_depth_cap_respected(self):
        engine, _, _ = line_setup()
        res = engine.query(0, 19, max_depth=2)
        assert not res.success
        assert res.depth_found is None

    def test_params_depth_default(self):
        engine, _, _ = line_setup(depth=2)
        assert engine.query(0, 13).success        # depth 2 via params
        assert not engine.query(0, 19).success    # needs depth 3


class TestDedup:
    def chain_with_cycle(self):
        """Two nodes that are each other's contacts, to exercise dedup."""
        topo = line_topology(16)
        params = CARDParams(R=2, r=8, depth=3)
        net = Network(topo)
        tables = NeighborhoodTables(topo, 2)
        t0 = ContactTable(0)
        t0.add(Contact(node=6, path=list(range(7))))
        t6 = ContactTable(6)
        t6.add(Contact(node=0, path=list(range(6, -1, -1))))
        t6.add(Contact(node=12, path=list(range(6, 13))))
        cts = {0: t0, 6: t6}
        return QueryEngine(net, tables, params, cts), QueryEngine(
            Network(topo), tables, params, cts, dedup=False
        )

    def test_dedup_skips_revisited_contacts(self):
        dedup_on, dedup_off = self.chain_with_cycle()
        on = dedup_on.query(0, 13, max_depth=2)
        off = dedup_off.query(0, 13, max_depth=2)
        assert on.success and off.success
        assert on.msgs < off.msgs  # the 6→0 back-edge is skipped

    def test_cycle_terminates_without_dedup(self):
        _, dedup_off = self.chain_with_cycle()
        res = dedup_off.query(0, 15, max_depth=3)  # miss; bounded traffic
        assert not res.success
        assert res.msgs < 200


class TestNoContacts:
    def test_source_without_contacts_fails_fast(self):
        engine, _, _ = line_setup()
        res = engine.query(1, 25)  # node 1 owns no contact table
        assert not res.success and res.msgs == 0


class TestQueryNodeIds:
    """Ids are checked once per call: a negative id used to index the
    membership row from its end (``query(0, -1)`` resolved node N−1)."""

    @pytest.fixture(scope="class")
    def card(self):
        topo = random_topology(n=200, seed=0)
        card = CARDProtocol(Network(topo), CARDParams(R=3, r=10, noc=3), seed=0)
        card.bootstrap()
        return card

    @pytest.mark.parametrize("pair", [(0, -1), (0, 200), (-1, 0), (200, 5)])
    def test_out_of_range_ids_raise(self, card, pair):
        with pytest.raises(ValueError, match="out of range for 200 nodes"):
            card.query(*pair)
        with pytest.raises(ValueError, match="out of range for 200 nodes"):
            card.query_many([(0, 1), pair])

    def test_fractional_ids_raise(self, card):
        with pytest.raises(TypeError, match="target ids must be integers"):
            card.query(0, 3.0)
        with pytest.raises(TypeError, match="source ids must be integers"):
            card.query_many([(1.5, 3)])

    def test_numpy_ids_are_answered_as_ints(self, card):
        assert card.query(np.int64(0), np.int64(199)) == card.query(0, 199)
