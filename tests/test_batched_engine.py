"""Contracts of the bulk-accounting engines.

Selection has one CSQ walk engine (`ContactSelector._walk`); what
it promises beyond its own unit tests is pinned here: source-order
independence, the admissibility mask equalling the scalar `admit()`
rule of `tests/oracles.py`, and bulk hop accounting equalling per-hop
`transmit`.  The DSQ engine
(`QueryEngine.query` / `query_many`, one per-pair routine over the
frozen contact fabric) promises *bit-identical* results to the
recursive one-hop-per-call walk kept here as `oracle_query` — same
`QueryResult` fields, same message accounting down to the transmitter
of every hop (the `RecordingStats` log of `tests/oracles.py`) — over
random, mobile and disconnected topologies and both dedup modes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import selection
from repro.core.edge_policy import EdgePolicy, next_edge, order_edges
from repro.core.params import CARDParams, SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.query import QueryEngine, QueryResult
from repro.core.state import Contact, ContactTable
from repro.des.engine import Simulator
from repro.net import substrate
from repro.net.messages import DestinationSearchQuery, MessageKind, next_query_id
from repro.net.network import Network
from repro.net.topology import Topology
from repro.mobility.waypoint import RandomWaypoint

from tests.conftest import grid_topology, random_topology
from tests.oracles import RecordingStats, admit, select_one


# ----------------------------------------------------------------------
# topology zoo
# ----------------------------------------------------------------------
def mobile_topology(n: int = 150, seed: int = 5, steps: int = 4) -> Topology:
    """A random layout advanced through a few RWP epochs."""
    rng = np.random.default_rng(seed)
    topo = Topology.uniform_random(n, (400.0, 400.0), 60.0, rng)
    model = RandomWaypoint(
        topo.positions, (400.0, 400.0), max_speed=20.0, rng=rng
    )
    for _ in range(steps):
        topo.set_positions(model.step(1.0))
    return topo


def disconnected_topology(seed: int = 9) -> Topology:
    """Two dense clusters far beyond radio range of each other."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 200.0, size=(60, 2))
    b = rng.uniform(0.0, 200.0, size=(60, 2))
    b[:, 0] += 1000.0
    return Topology(np.vstack([a, b]), 60.0, (1300.0, 220.0))


TOPOLOGIES = {
    "random": lambda: random_topology(150, (420.0, 420.0), 60.0, seed=3),
    "mobile": mobile_topology,
    "grid": lambda: grid_topology(8),
    "disconnected": disconnected_topology,
}


def _protocol(make_topo, method, seed, **kw) -> CARDProtocol:
    topo = make_topo()
    params = CARDParams(
        R=kw.pop("R", 2), r=kw.pop("r", 8), noc=kw.pop("noc", 4),
        method=method, **kw,
    )
    return CARDProtocol(recording_network(topo), params, seed=seed)


def recording_network(topo: Topology, sim=None) -> Network:
    net = Network(topo, sim=sim)
    net.stats = RecordingStats(topo.num_nodes)
    return net


def assert_same_stats(a: Network, b: Network) -> None:
    """Same counters, and the same hops sent by the same nodes in the
    same bins (in any order: the per-record logs as multisets)."""
    assert a.stats.snapshot() == b.stats.snapshot()
    assert a.stats.total_bytes() == b.stats.total_bytes()
    ka, kb = a.stats._kinds, b.stats._kinds
    assert ka.keys() == kb.keys()
    for kind in ka:
        assert dict(ka[kind].series) == dict(kb[kind].series), kind
    assert Counter(a.stats.log) == Counter(b.stats.log)


def assert_same_selection(res_a, res_b) -> None:
    assert res_a.keys() == res_b.keys()
    for s in res_a:
        a, b = res_a[s], res_b[s]
        assert a.source == b.source
        assert a.attempts == b.attempts
        assert a.forward_msgs == b.forward_msgs
        assert a.backtrack_msgs == b.backtrack_msgs
        assert a.table.ids() == b.table.ids()
        for ca, cb in zip(a.table, b.table):
            assert ca.path == cb.path
            assert ca.selected_at == cb.selected_at


# ----------------------------------------------------------------------
# CSQ walks: what the single engine still promises
# ----------------------------------------------------------------------
class TestSourceOrderIndependence:
    """Per-source RNG streams make a source's selection a function of
    that source alone: which other sources run, and in what order, is
    unobservable in results, stream states and message accounting."""

    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bootstrap_order_is_unobservable(self, topo_name, method, seed):
        make = TOPOLOGIES[topo_name]
        card_f = _protocol(make, method, seed)
        card_r = _protocol(make, method, seed)
        card_1 = _protocol(make, method, seed)
        srcs = list(range(card_f.network.num_nodes))
        res_f = card_f.bootstrap(srcs)
        res_r = card_r.bootstrap(list(reversed(srcs)))
        res_1 = {}
        for s in srcs:
            res_1.update(card_1.bootstrap([s]))
        for card, res in ((card_r, res_r), (card_1, res_1)):
            assert_same_selection(res_f, res)
            assert_same_stats(card_f.network, card.network)
            for s in srcs:
                assert (
                    card_f.streams.get("select", s).bit_generator.state
                    == card.streams.get("select", s).bit_generator.state
                ), f"stream diverged for source {s}"


class TestAdmissibleMask:
    """`_admissible_mask` is the overlap half of `admit()` (the readable
    §III.C.2 definition), answered for every node at once; the mask a
    source-selection updates incrementally is that same mask."""

    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("contact_overlap", [True, False])
    @pytest.mark.parametrize("edge_overlap", [True, False])
    def test_mask_equals_scalar_rule(
        self, method, backend, contact_overlap, edge_overlap, monkeypatch
    ):
        if backend == "sparse":
            monkeypatch.setattr(substrate, "SPARSE_NODE_THRESHOLD", 1)
        card = _protocol(
            TOPOLOGIES["random"], method, 0,
            check_contact_overlap=contact_overlap,
            check_edge_overlap=edge_overlap,
        )
        assert isinstance(
            card.tables.membership, substrate.SparseMembership
        ) == (backend == "sparse")
        sel = card.selector
        rng = np.random.default_rng(0)
        admissions = []
        add_contact = selection._WalkContext.add_contact

        def checked_add_contact(ctx, contact):
            """After every admission the incremental mask is the
            from-scratch mask of the table as it now stands."""
            add_contact(ctx, contact)
            ids = card.table_for(ctx.source).ids()
            assert tuple(ctx.contacts) == ids and ids[-1] == contact
            want = sel._admissible_mask(ctx.source, ids, ctx.edge_list)
            assert np.array_equal(~ctx.blocked, want)
            admissions.append(len(ids))

        monkeypatch.setattr(
            selection._WalkContext, "add_contact", checked_add_contact
        )
        refilled_held_tables = 0
        for source in (0, 17, 88):
            seen = len(admissions)
            card.bootstrap([source])
            table = card.table_for(source)
            assert admissions[seen:] == list(range(1, len(table) + 1))
            # the maintenance entry: the table arrives holding contacts
            if len(table) > 1:
                table.remove(table.ids()[0])
                seen, held = len(admissions), len(table)
                sel.select_contacts(
                    source, card.streams.get("select", source), table=table
                )
                assert admissions[seen:] == list(range(held + 1, len(table) + 1))
                refilled_held_tables += len(table) > held
            contacts = table.ids()
            edges = tuple(int(e) for e in card.tables.edge_nodes(source))
            for contact_list in ((), contacts):
                mask = sel._admissible_mask(source, contact_list, edges)
                # at d == r the PM admission probability is 1, so admit()
                # reduces to its overlap checks under both methods
                want = [
                    admit(sel, c, source, contact_list, edges, card.params.r, rng)
                    for c in range(card.network.num_nodes)
                ]
                assert mask.tolist() == want
        assert refilled_held_tables > 0

    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    @pytest.mark.parametrize("topo_name", ["random", "grid"])
    def test_select_one_is_the_batch_of_one(self, method, topo_name):
        """A source-selection (one context, updated per admission) equals
        the same walks launched one `select_one` at a time, each building
        its context from scratch: same contacts and routes, same RNG
        consumption, same `MessageStats` counters."""
        make = TOPOLOGIES[topo_name]
        card_a = _protocol(make, method, 2)
        card_b = _protocol(make, method, 2)
        p, sel_b = card_b.params, card_b.selector
        res_a, res_b = {}, {}
        for source in (0, 17, 40):
            res_a[source] = card_a.selector.select_contacts(
                source, card_a.streams.get("select", source)
            )
            rng = card_b.streams.get("select", source)
            table = ContactTable(source)
            res = selection.SourceSelectionResult(source, table, attempts=0)
            edges = [int(e) for e in card_b.tables.edge_nodes(source)]
            ordered = order_edges(EdgePolicy.RANDOM, edges, card_b.tables, rng)
            failures = 0
            while edges and len(table) < p.noc and failures < p.max_failed_queries:
                edge = next_edge(
                    EdgePolicy.RANDOM, ordered, res.attempts, (), card_b.tables
                )
                out = select_one(sel_b, source, edge, table.ids(), rng)
                res.attempts += 1
                res.forward_msgs += out.forward_msgs
                res.backtrack_msgs += out.backtrack_msgs
                if out.contact is None:
                    failures += 1
                    continue
                table.add(Contact(out.contact, out.path))
                failures = 0
            res_b[source] = res
            assert (
                card_a.streams.get("select", source).bit_generator.state
                == rng.bit_generator.state
            )
        assert sum(r.attempts for r in res_a.values()) > len(res_a)
        assert_same_selection(res_a, res_b)
        assert_same_stats(card_a.network, card_b.network)


class TestBulkAccounting:
    @pytest.mark.parametrize("method", [SelectionMethod.PM, SelectionMethod.EM])
    def test_walk_flush_equals_per_hop_transmit(self, method):
        """One walk's bulk flushes == one `transmit` per hop, at a clock
        reading that lands outside time-series bin 0."""
        params = CARDParams(R=2, r=8, noc=4, method=method)
        net = recording_network(
            TOPOLOGIES["random"](), sim=Simulator(start_time=7.0)
        )
        ref = recording_network(
            TOPOLOGIES["random"](), sim=Simulator(start_time=7.0)
        )
        card = CARDProtocol(net, params, seed=3)
        flushes = []
        flush = net.transmit_path

        def spy(message, transmitters, *, kind=None):
            flushes.append((message, list(transmitters), kind))
            flush(message, transmitters, kind=kind)

        net.transmit_path = spy
        source = 5
        outcome = select_one(
            card.selector, source, int(card.tables.edge_nodes(source)[0]), (),
            np.random.default_rng(1),
        )
        hops = {kind: tx for _, tx, kind in flushes}
        assert len(hops[None]) == outcome.forward_msgs
        assert len(hops[MessageKind.BACKTRACK]) == outcome.backtrack_msgs
        assert outcome.total_msgs > 0
        for message, transmitters, kind in flushes:
            for tx in transmitters:
                ref.transmit(message, tx, kind=kind)
        assert_same_stats(net, ref)
        assert net.stats.log == ref.stats.log  # also in the same order
        assert net.stats.total_bytes() > 0
        assert set(net.stats._kinds[MessageKind.CONTACT_SELECTION].series) == {3}


# ----------------------------------------------------------------------
# DSQ query parity
# ----------------------------------------------------------------------
def oracle_query(engine: QueryEngine, source, target, max_depth) -> QueryResult:
    """The paper's DSQ, literally: contacts probed one at a time along
    their stored routes, one `transmit` per hop, recursion per contact
    level, a Python set for dedup.  Reads only the engine's inputs
    (tables, contact tables, network) — none of its fabric."""
    tables, net = engine.tables, engine.network

    def probe(holder, depth, msg, visited, prefix):
        table = engine.contact_tables.get(holder)
        if table is None or len(table) == 0:
            return None, 0, 0
        msgs = contacts = 0
        for contact in table:
            c = contact.node
            if engine.dedup and c in visited:
                continue
            visited.add(c)
            msgs += contact.path_hops
            for hop_tx in contact.path[:-1]:
                net.transmit(msg, int(hop_tx))
            chain = prefix + contact.path[1:]
            contacts += 1
            if depth <= 1:
                # level-D contact: neighborhood lookup (§III.C.4)
                if tables.contains(c, target):
                    return chain + tables.path_within(c, target)[1:], msgs, contacts
            else:
                found, sub_msgs, sub_contacts = probe(
                    c, depth - 1, msg, visited, chain
                )
                msgs += sub_msgs
                contacts += sub_contacts
                if found is not None:
                    return found, msgs, contacts
        return None, msgs, contacts

    if target == source or tables.contains(source, target):
        path = tables.path_within(source, target)
        return QueryResult(source, target, True, 0, 0, 0, 0, path=path)
    total_msgs = total_contacts = 0
    for d in range(1, max_depth + 1):
        msg = DestinationSearchQuery(
            source=source, target=target, depth=d, query_id=next_query_id()
        )
        # the source originated the query id, so dedup treats it as seen
        found, msgs, contacts = probe(source, d, msg, {source}, [source])
        total_msgs += msgs
        total_contacts += contacts
        if found is not None:
            # reply retraces the discovered route
            for hop_tx in reversed(found[1:]):
                net.transmit(msg, int(hop_tx), kind=MessageKind.REPLY)
            return QueryResult(
                source, target, True, d, total_msgs, len(found) - 1,
                total_contacts, path=found,
            )
    return QueryResult(source, target, False, None, total_msgs, 0, total_contacts)


class TestBatchedQueryParity:
    def _workload(self, n, seed, count=50):
        rng = np.random.default_rng(seed)
        return [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)
        ]

    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_query_many_matches_sequential(self, topo_name, dedup, depth):
        make = TOPOLOGIES[topo_name]
        engines = []
        for _ in range(3):
            card = _protocol(make, SelectionMethod.PM, 1)
            card.bootstrap()
            card.network.stats.reset()
            engines.append(
                QueryEngine(
                    card.network, card.tables, card.params,
                    card.contact_tables, dedup=dedup,
                )
            )
        ea, eb, ec = engines
        pairs = self._workload(ea.network.num_nodes, 100 + depth)
        seq = [oracle_query(ea, s, t, depth) for s, t in pairs]
        bat = eb.query_many(pairs, max_depth=depth)
        one = [ec.query(s, t, max_depth=depth) for s, t in pairs]
        # QueryResult is a plain dataclass: == compares every field,
        # including msgs/reply accounting and the discovered path
        assert seq == bat == one
        assert_same_stats(ea.network, eb.network)
        assert_same_stats(ea.network, ec.network)

    def test_query_many_empty_and_self(self):
        make = TOPOLOGIES["random"]
        card = _protocol(make, SelectionMethod.PM, 0)
        card.bootstrap()
        assert card.query_many([]) == []
        (res,) = card.query_many([(5, 5)])
        assert res.success and res.depth_found == 0 and res.msgs == 0

    def test_protocol_facade_matches_engine(self):
        make = TOPOLOGIES["random"]
        card = _protocol(make, SelectionMethod.PM, 4)
        card.bootstrap()
        pairs = self._workload(card.network.num_nodes, 77, count=20)
        assert card.query_many(pairs) == card.query_engine.query_many(pairs)
