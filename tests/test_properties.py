"""Cross-module property-based tests (hypothesis).

These complement the per-module suites with invariants that span layers:
selection paths are walkable routes, maintenance preserves path validity,
message counters equal a per-record oracle and validation records
exactly the hops it walks, query traffic accounting is internally
consistent, the per-level pair
counts behind Table 1 equal the all-pairs oracle, and the whole stack is
a deterministic function of (topology seed, protocol seed).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.smallworld import path_length_stats
from repro.core.edge_policy import EdgePolicy
from repro.core.maintenance import ContactMaintainer
from repro.core.params import CARDParams, SelectionMethod
from repro.core.protocol import CARDProtocol
from repro.core.reachability import reachability_distribution
from repro.core import selection
from repro.core.selection import ContactSelector, _WalkContext
from repro.net import graph
from repro.net.graph import bfs_hops
from repro.net.messages import MessageKind, ValidationMessage
from repro.net.network import Network
from repro.net.stats import MessageStats
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.oracles import (
    RecordingStats,
    hop_distance_matrix,
    oracle_walk,
    select_one,
)

COMMON = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def topo_from_seed(seed, n=80, area=300.0, tx=60.0):
    return Topology.uniform_random(
        n, (area, area), tx, np.random.default_rng(seed)
    )


class TestSelectionProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), R=st.integers(1, 3))
    def test_paths_are_walkable_routes(self, seed, R):
        """Every stored contact route is a hop-valid path from the source."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=R, r=2 * R + 4, noc=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap(sources=range(20))
        for s in range(20):
            for contact in card.table_for(s):
                path = contact.path
                assert path[0] == s and path[-1] == contact.node
                assert len(path) - 1 <= params.r
                for a, b in zip(path, path[1:]):
                    assert topo.are_neighbors(a, b)

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_em_band_invariant(self, seed):
        """EM contacts always lie strictly beyond 2R true hops."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=4)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap(sources=range(15))
        dist = hop_distance_matrix(topo.adj)
        for s in range(15):
            for c in card.table_for(s).ids():
                assert dist[s, c] > 4

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_pm_walk_bounded_by_cap(self, seed):
        """PM (no loop prevention) never exceeds its step cap per walk."""
        topo = topo_from_seed(seed)
        params = CARDParams(
            R=2, r=8, noc=1, method=SelectionMethod.PM, max_walk_steps=50
        )
        net = Network(topo)
        tables = NeighborhoodTables(topo, 2)
        sel = ContactSelector(net, tables, params)
        edges = tables.edge_nodes(0)
        if len(edges) == 0:
            return
        out = select_one(sel, 0, int(edges[0]), (), np.random.default_rng(seed))
        # steps = forward beyond the seg + backtracks <= cap (+seg cost)
        assert out.forward_msgs + out.backtrack_msgs <= 50 + params.R + 1


class TestSelectionPrefixProperty:
    """Selection at NoC=k is, walk by walk, the k-contact prefix of
    selection at NoC=K > k — the invariant that lets one selection run
    serve a whole NoC sweep (``SnapshotRunner.view``)."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        method=st.sampled_from(list(SelectionMethod)),
        R=st.integers(1, 3),
        extra=st.integers(0, 6),
        policy=st.sampled_from([None, *EdgePolicy]),
        big=st.integers(1, 8),
        small=st.integers(0, 8),
    )
    def test_small_noc_is_a_prefix_of_large_noc(
        self, seed, method, R, extra, policy, big, small
    ):
        small = min(small, big)
        topo = topo_from_seed(seed, n=60)
        sources = range(10)

        def bootstrap(noc):
            params = CARDParams(
                R=R, r=2 * R + extra, noc=noc, method=method, edge_policy=policy
            )
            net = Network(topo)
            results = CARDProtocol(net, params, seed=seed).bootstrap(sources)
            return net, results

        _, large = bootstrap(big)
        net, alone = bootstrap(small)
        replies = 0
        for s in sources:
            got, want = large[s].prefix(small), alone[s]
            assert [(c.node, c.path) for c in got.table] == [
                (c.node, c.path) for c in want.table
            ]
            assert got.marks == want.marks
            assert (got.attempts, got.forward_msgs, got.backtrack_msgs) == (
                want.attempts, want.forward_msgs, want.backtrack_msgs
            )
            replies += sum(c.path_hops for c in got.table)
        assert replies == net.stats.total(MessageKind.REPLY)


class TestWalkDrawProperties:
    """The CSQ walk shuffles a copy of a cached Python row where it used
    to draw ``rng.permutation`` of the numpy row.  Both run the same
    Fisher-Yates over the same bounded integers; this pins that, on
    whatever numpy is installed, so every walk, golden and cell key stays
    put."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.lists(
            st.tuples(
                st.lists(st.integers(0, 10_000), max_size=30, unique=True).map(
                    sorted
                ),
                st.booleans(),  # an admission draw after this frame (PM)
            ),
            max_size=12,
        ),
    )
    def test_list_shuffle_draws_what_permutation_draws(self, seed, frames):
        old = np.random.default_rng(seed)
        new = np.random.default_rng(seed)
        for row, admission_draw in frames:
            want = old.permutation(np.array(row, dtype=np.int64)).tolist()
            got = row[:]
            new.shuffle(got)
            assert got == want
            if admission_draw:
                assert new.random() == old.random()
        assert new.bit_generator.state == old.bit_generator.state


def layout(seed, cluster, chain, isolated, tx=60.0):
    """A unit-disk topology with every shape a walk can meet: a random
    cluster, a chain of ``chain`` nodes hanging off it whose far end has
    degree 1, and ``isolated`` nodes out of everyone's range."""
    rng = np.random.default_rng(seed)
    pos = [rng.uniform(0.0, 200.0, size=(cluster, 2))]
    # 50 m apart: each chain node hears only its two chain neighbours
    pos.append(np.array([[190.0 + 50.0 * k, 100.0] for k in range(chain)]))
    pos.append(np.array([[100.0 * k + 10.0, 390.0] for k in range(isolated)]))
    width = max(200.0, 200.0 + 50.0 * chain, 100.0 * isolated + 20.0)
    return Topology(np.vstack([p.reshape(-1, 2) for p in pos]), tx, (width, 400.0))


def csr_of(rows):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows] or [[]])
    return indptr, indices.astype(np.int64)


class TestCompiledWalkProperties:
    """The compiled CSQ walk (``_walk.c``) equals the Python loop kept as
    ``tests/oracles.py::oracle_walk``, draw for draw: same contact, route,
    forward and backtrack transmitters, seen count, hop count and
    exhausted flag, and the generator in the same state afterwards, on
    the numpy that is installed."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(
            st.integers(1, 70), st.integers(0, 8), st.integers(0, 3)
        ),
        method=st.sampled_from(list(SelectionMethod)),
        loop_prevention=st.sampled_from([None, True, False]),
        cap=st.one_of(st.none(), st.integers(1, 60)),
        R=st.integers(1, 3),
        extra=st.integers(0, 5),
        pm_equation=st.sampled_from([1, 2]),
        picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
    )
    def test_walk_equals_oracle(
        self, seed, shape, method, loop_prevention, cap, R, extra,
        pm_equation, picks,
    ):
        topo = layout(seed, *shape)
        n = topo.num_nodes
        params = CARDParams(
            R=R, r=2 * R + extra, method=method, pm_equation=pm_equation,
            loop_prevention=loop_prevention, max_walk_steps=cap,
        )
        tables = NeighborhoodTables(topo, R)
        sel = ContactSelector(Network(topo), tables, params)
        source = picks[0] % n
        # a non-empty Contact_List except when the source walks alone
        contacts = sorted({p % n for p in picks[1:]} - {source})
        ctx = _WalkContext(sel, source, contacts)
        edges = [int(e) for e in tables.edge_nodes(source)] or [source]
        c_rng = np.random.default_rng(seed)
        py_rng = np.random.default_rng(seed)
        for k in range(4):  # one stream across walks, as a selection runs
            seg = tables.path_within(source, edges[(picks[0] + k) % len(edges)])
            got = ctx.walker.walk(ctx.blocked, seg, c_rng.bit_generator.capsule)
            want = oracle_walk(
                topo.adj_lists, ctx.blocked.tobytes(), seg, params.r,
                params.effective_max_walk_steps,
                params.effective_loop_prevention,
                method is SelectionMethod.EM, sel._pm_prob, py_rng,
            )
            assert got == want
            assert c_rng.bit_generator.state == py_rng.bit_generator.state
            if got[0] is not None:
                ctx.add_contact(got[0])

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        live_frac=st.floats(0.3, 1.0),
        mean_degree=st.floats(1.0, 8.0),
        r=st.integers(0, 9),
        cap=st.one_of(st.none(), st.integers(0, 80)),
        loop_prevention=st.booleans(),
        em=st.booleans(),
        blocked_frac=st.floats(0.0, 0.9),
        seg_len=st.integers(1, 6),
    )
    def test_walk_equals_oracle_on_any_graph(
        self, seed, n, live_frac, mean_degree, r, cap, loop_prevention, em,
        blocked_frac, seg_len,
    ):
        """Beyond unit disks: any CSR graph, any blocked mask, any PM
        table and any launch segment (a random walk of the graph)."""
        live = max(1, int(n * live_frac))
        rows = random_graph(n, live, mean_degree, seed)
        aux = np.random.default_rng(seed ^ 0x5EED)
        blocked = aux.random(n) < blocked_frac
        pm_prob = tuple(float(x) for x in aux.choice([0.0, 0.3, 0.7, 1.0], r + 1))
        seg = [int(aux.integers(live))]
        while len(seg) < min(seg_len, r + 1) and len(rows[seg[-1]]):
            seg.append(int(aux.choice(rows[seg[-1]])))
        if not loop_prevention and cap is None:
            cap = 40 * max(r, 1)  # an unprevented walk is capped, as in params
        walker = selection._walk.Walker(
            *csr_of(rows), r, cap, loop_prevention, em, pm_prob
        )
        c_rng = np.random.default_rng(seed)
        py_rng = np.random.default_rng(seed)
        lists = [[int(v) for v in row] for row in rows]
        for _ in range(3):
            got = walker.walk(blocked, seg, c_rng.bit_generator.capsule)
            want = oracle_walk(
                lists, blocked.tobytes(), seg, r, cap, loop_prevention, em,
                pm_prob, py_rng,
            )
            assert got == want
            assert c_rng.bit_generator.state == py_rng.bit_generator.state


def random_graph(n, live, mean_degree, seed):
    """Adjacency rows over ``n`` nodes whose edges join only the first
    ``live``; the rest are isolated, trailing rows included."""
    rng = np.random.default_rng(seed)
    p = mean_degree / max(live - 1, 1)
    upper = np.triu(rng.random((live, live)) < p, k=1)
    linked = np.zeros((n, n), dtype=bool)
    linked[:live, :live] = upper | upper.T
    return [np.flatnonzero(row) for row in linked]


def level_histogram(dist, sources):
    """Ordered (source, node) pairs per hop level, read off the oracle."""
    rows = dist[np.asarray(sources, dtype=np.int64)]
    return np.bincount(rows[rows > 0])[1:].tolist()


class TestHopLevelCountProperties:
    """``hop_level_counts`` and the exact Table 1 / small-world statistics
    built on it equal what the all-pairs oracle gives, on graphs with
    isolated nodes, several components and source sets wider than one
    64-bit word, in blocks of one word or one block for all sources."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 200),
        live_frac=st.floats(0.0, 1.0),
        mean_degree=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        source_frac=st.floats(0.0, 1.0),
        block_words=st.sampled_from([1, 64]),
    )
    def test_counts_and_stats_equal_the_oracle(
        self, n, live_frac, mean_degree, seed, source_frac, block_words
    ):
        adj = random_graph(n, int(live_frac * n), mean_degree, seed)
        dist = hop_distance_matrix(adj)
        order = np.random.default_rng(seed + 1).permutation(n)
        sources = order[: int(round(source_frac * n))]
        indptr, indices = graph._csr_arrays(adj)
        with mock.patch.object(graph, "_HOP_BLOCK_WORDS", block_words):
            counts = graph.hop_level_counts(indptr, indices, sources)
            stats = graph.graph_stats(adj)
            length = path_length_stats(adj)
        assert counts == level_histogram(dist, sources)

        comps = graph.connected_components(adj)
        want = (0, 0.0)
        if comps and len(comps[0]) >= 2:
            sub = dist[np.ix_(comps[0], comps[0])]
            finite = sub[sub > 0]
            want = (int(finite.max()), float(finite.mean()))
        assert repr((stats.diameter, stats.mean_hops)) == repr(want)

        finite = dist[dist > 0]
        want_l = (float(finite.mean()) if finite.size else 0.0), None
        assert repr(length) == repr(want_l)

    @pytest.mark.parametrize(
        "adj, sources, want",
        [
            ([], [], []),
            ([np.empty(0, dtype=np.int64)], [0], []),
            # trailing isolated rows: indptr[i] == len(indices)
            ([np.array([1]), np.array([0]), np.empty(0, dtype=np.int64)], [2, 1, 0], [2]),
            # a path 0-1-2 from both ends
            ([np.array([1]), np.array([0, 2]), np.array([1])], [2, 0], [2, 2]),
        ],
    )
    def test_small_cases(self, adj, sources, want):
        assert graph.hop_level_counts(*graph._csr_arrays(adj), sources) == want


class TestMaintenanceProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_validation_preserves_walkability(self, seed):
        """A contact surviving validation has a currently-walkable route."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3)
        net = Network(topo)
        card = CARDProtocol(net, params, seed=seed)
        card.bootstrap(sources=range(10))
        # perturb the topology slightly (simulate one mobility step)
        rng = np.random.default_rng(seed + 1)
        pos = np.array(topo.positions)
        pos += rng.uniform(-8.0, 8.0, size=pos.shape)
        np.clip(pos[:, 0], 0, topo.area[0], out=pos[:, 0])
        np.clip(pos[:, 1], 0, topo.area[1], out=pos[:, 1])
        topo.set_positions(pos)
        maintainer = card.maintainer
        for s in range(10):
            table = card.table_for(s)
            for outcome in maintainer.validate_all(table):
                if outcome.ok:
                    path = outcome.new_path
                    for a, b in zip(path, path[1:]):
                        assert topo.are_neighbors(a, b)
                    hops = len(path) - 1
                    assert 2 * params.R <= hops <= params.r


class TestQueryProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3))
    def test_returned_route_is_walkable_and_reaches_target(self, seed, depth):
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3, depth=depth)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        rng = np.random.default_rng(seed)
        for _ in range(8):
            s, t = int(rng.integers(80)), int(rng.integers(80))
            res = card.query(s, t)
            if res.success:
                assert res.path is not None
                assert res.path[0] == s and res.path[-1] == t
                for a, b in zip(res.path, res.path[1:]):
                    assert topo.are_neighbors(a, b)

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_success_implies_graph_connectivity(self, seed):
        """CARD can only find targets that are actually reachable."""
        topo = topo_from_seed(seed, tx=45.0)  # sparser: real partitions
        params = CARDParams(R=2, r=8, noc=3, depth=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        dist = bfs_hops(topo.adj, 0)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            t = int(rng.integers(80))
            res = card.query(0, t)
            if res.success:
                assert dist[t] >= 0

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_deeper_search_never_reduces_success(self, seed):
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3, depth=3)
        card = CARDProtocol(Network(topo), params, seed=seed)
        card.bootstrap()
        rng = np.random.default_rng(seed)
        for _ in range(6):
            s, t = int(rng.integers(80)), int(rng.integers(80))
            shallow = card.query(s, t, max_depth=1).success
            deep = card.query(s, t, max_depth=3).success
            if shallow:
                assert deep


class TestAccountingProperties:
    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000))
    def test_stats_equal_selection_results(self, seed):
        """Network counters agree with the per-source selection results."""
        topo = topo_from_seed(seed)
        params = CARDParams(R=2, r=8, noc=3)
        net = Network(topo)
        card = CARDProtocol(net, params, seed=seed)
        results = card.bootstrap(sources=range(25))
        fwd = sum(r.forward_msgs for r in results.values())
        back = sum(r.backtrack_msgs for r in results.values())
        assert net.stats.total(MessageKind.CONTACT_SELECTION) == fwd
        assert net.stats.total(MessageKind.BACKTRACK) == back

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),  # True: one record_many call, else record
                st.sampled_from(list(MessageKind)),
                st.lists(st.integers(0, 4), max_size=6),
                st.one_of(st.none(), st.floats(0.0, 20.0)),
                st.sampled_from([0, 20, 36]),
            ),
            max_size=30,
        ),
        horizon=st.floats(0.0, 24.0),
    )
    def test_counters_equal_per_record_oracle(self, ops, horizon):
        """Any interleaving of `record` and `record_many` leaves totals,
        bytes, series and snapshot equal to a plain per-hop tally."""
        stats = MessageStats(5, time_bin=2.0)
        hops = []  # (kind, time, nbytes), one per transmission
        for bulk, kind, txs, time, nbytes in ops:
            if bulk:
                stats.record_many(kind, txs, time, nbytes)
            else:
                txs = txs[:1] or [0]
                stats.record(kind, txs[0], time, nbytes)
            hops += [(kind, time, nbytes)] * len(txs)
        kinds = list(MessageKind)
        for kind in kinds:
            assert stats.total(kind) == sum(k is kind for k, _, _ in hops)
            assert stats.total_bytes(kind) == sum(b for k, _, b in hops if k is kind)
        assert stats.total() == len(hops)
        assert stats.total_bytes() == sum(b for _, _, b in hops)
        seen = {k.value for k, _, _ in hops}
        assert stats.snapshot() == {
            v: sum(k.value == v for k, _, _ in hops) for v in sorted(seen)
        }
        for chosen in (kinds[:1], kinds[1:4], kinds):
            bins = [0] * math.ceil(horizon / 2.0)
            for k, time, _ in hops:
                if k in chosen and time is not None and int(time // 2.0) < len(bins):
                    bins[int(time // 2.0)] += 1
            assert stats.series(chosen, horizon) == [c / 5 for c in bins]

    @settings(**COMMON)
    @given(seed=st.integers(0, 10_000), jitter=st.sampled_from([5.0, 15.0]))
    def test_validation_records_the_hops_it_walks(self, seed, jitter):
        """For every contact validated after a mobility step, the
        VALIDATION transmitters recorded are the repaired route's hops
        (``new_path[:-1]``; as many as ``msgs`` for a lost contact too),
        and the bytes are msgs × the message's wire size."""
        topo = topo_from_seed(seed)
        net = Network(topo)
        net.stats = RecordingStats(topo.num_nodes)
        card = CARDProtocol(net, CARDParams(R=2, r=8, noc=3), seed=seed)
        card.bootstrap(sources=range(15))
        rng = np.random.default_rng(seed + 1)
        pos = np.array(topo.positions)
        pos += rng.uniform(-jitter, jitter, size=pos.shape)
        np.clip(pos[:, 0], 0, topo.area[0], out=pos[:, 0])
        np.clip(pos[:, 1], 0, topo.area[1], out=pos[:, 1])
        topo.set_positions(pos)
        net.stats.reset()
        for s in range(15):
            for contact in list(card.table_for(s)):
                start, nbytes = len(net.stats.log), net.stats.total_bytes()
                out = card.maintainer.validate_contact(contact)
                log = net.stats.log[start:]
                assert {entry[0] for entry in log} <= {MessageKind.VALIDATION}
                assert len(log) == out.msgs
                if out.ok:
                    assert [entry[1] for entry in log] == out.new_path[:-1]
                wire = ValidationMessage(
                    source=s, contact=contact.node, source_path=list(contact.path)
                ).wire_size()
                assert net.stats.total_bytes() - nbytes == out.msgs * wire

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
    )
    def test_distribution_is_permutation_invariant(self, values):
        a = reachability_distribution(np.array(values))
        b = reachability_distribution(np.array(sorted(values)))
        assert (a == b).all()
