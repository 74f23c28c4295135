"""The array-native connectivity pipeline against loop-based oracles.

``positions → CSR → adj / diff()`` is one vectorised pass (see
``repro.net.spatial``); the reference implementations it replaced live
here: an all-pairs O(N²) adjacency and the list-based per-node diff.  Both
use the same float64 arithmetic as the pipeline (``dx*dx + dy*dy <=
r*r``), so equality is exact, not within a tolerance.
"""

import cProfile
import gc
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.waypoint import RandomWaypoint
from repro.net import graph as g
from repro.net import spatial
from repro.net import topology as topology_module
from repro.net.topology import Topology


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def all_pairs_adjacency(positions, tx_range, active=None):
    """O(N²) reference: ``adj[u]`` = sorted ids within range of ``u``."""
    n = len(positions)
    active = np.ones(n, dtype=bool) if active is None else active
    r2 = float(tx_range) ** 2
    adj = []
    for u in range(n):
        dx = positions[u, 0] - positions[:, 0]
        dy = positions[u, 1] - positions[:, 1]
        linked = (dx * dx + dy * dy <= r2) & active & active[u]
        linked[u] = False
        adj.append(np.flatnonzero(linked).astype(np.int64))
    return adj


def changed_nodes_by_list(old, new):
    """The pre-CSR ``_changed_nodes``: compare neighbor arrays one by one."""
    return np.asarray(
        [
            u
            for u, (a, b) in enumerate(zip(old, new))
            if a.shape != b.shape or not np.array_equal(a, b)
        ],
        dtype=np.int64,
    )


def assert_adj_exact(topo, expected):
    adj = topo.adj
    assert len(adj) == len(expected) == topo.num_nodes
    for got, want in zip(adj, expected):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    indptr, indices = topo.csr
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == np.cumsum([0] + [len(a) for a in expected]).tolist()
    assert indices.tolist() == [v for a in expected for v in a.tolist()]


# ----------------------------------------------------------------------
# adjacency == all-pairs oracle
# ----------------------------------------------------------------------
class TestAdjacencyOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        width=st.floats(1.0, 2000.0),
        height=st.floats(1.0, 2000.0),
        tx=st.floats(0.5, 2500.0),
        failed_frac=st.sampled_from([0.0, 0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_random_layouts(self, n, width, height, tx, failed_frac, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 1.0, size=(n, 2)) * (width, height)
        topo = Topology(pos, tx, (width, height))
        active = rng.uniform(size=n) >= failed_frac
        topo.fail_nodes(np.flatnonzero(~active))
        assert_adj_exact(topo, all_pairs_adjacency(pos, tx, active))

    def test_distance_exactly_tx_range_is_linked(self):
        pos = np.array([[0.0, 0.0], [30.0, 40.0]])  # 3-4-5 triangle: d == 50
        topo = Topology(pos, 50.0, (200.0, 200.0))
        assert [a.tolist() for a in topo.adj] == [[1], [0]]
        topo = Topology(pos, np.nextafter(50.0, 0.0), (200.0, 200.0))
        assert [a.tolist() for a in topo.adj] == [[], []]

    def test_duplicate_positions(self):
        pos = np.array([[5.0, 5.0]] * 4 + [[100.0, 100.0]] * 2)
        topo = Topology(pos, 10.0, (120.0, 120.0))
        assert_adj_exact(topo, all_pairs_adjacency(pos, 10.0))
        assert topo.adj[0].tolist() == [1, 2, 3]
        assert topo.adj[5].tolist() == [4]

    def test_nodes_on_the_area_border(self):
        # x == width / y == height clip into the last cell row/column
        pos = np.array(
            [[100.0, 100.0], [100.0, 95.0], [95.0, 100.0], [0.0, 0.0], [0.0, 100.0], [100.0, 0.0]]
        )
        for tx in (6.0, 7.5, 33.0, 100.0):
            topo = Topology(pos, tx, (100.0, 100.0))
            assert_adj_exact(topo, all_pairs_adjacency(pos, tx))

    def test_tx_range_larger_than_area_is_one_cell(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0.0, 10.0, size=(40, 2))
        topo = Topology(pos, 100.0, (10.0, 10.0))
        assert_adj_exact(topo, all_pairs_adjacency(pos, 100.0))
        assert all(len(a) == 39 for a in topo.adj)

    def test_candidate_chunking_is_invisible(self, monkeypatch):
        """Many passes over tiny chunks give the single-pass result."""
        rng = np.random.default_rng(5)
        pos = rng.uniform(0.0, 300.0, size=(150, 2))
        expected = all_pairs_adjacency(pos, 60.0)
        monkeypatch.setattr(spatial, "_PAIR_CHUNK", 7)
        assert_adj_exact(Topology(pos, 60.0, (300.0, 300.0)), expected)
        assert_adj_exact(Topology(pos, 500.0, (300.0, 300.0)), all_pairs_adjacency(pos, 500.0))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_networks(self, n):
        pos = np.array([[1.0, 1.0], [2.0, 2.0]])[:n]
        topo = Topology(pos, 5.0, (10.0, 10.0))
        assert_adj_exact(topo, all_pairs_adjacency(pos, 5.0))
        if g._HAVE_SCIPY:  # adjacency_to_csr is scipy-only
            assert g.adjacency_to_csr(topo.adj).shape == (n, n)
        topo.enable_delta_tracking()
        e0 = topo.epoch
        topo.set_positions(pos)
        assert topo.diff(e0).size == 0

    def test_failed_nodes_lose_every_link(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(0.0, 200.0, size=(80, 2))
        topo = Topology(pos, 50.0, (200.0, 200.0))
        active = np.ones(80, dtype=bool)
        topo.fail_nodes([3, 17, 40])
        active[[3, 17, 40]] = False
        assert_adj_exact(topo, all_pairs_adjacency(pos, 50.0, active))

    @pytest.mark.skipif(not g._HAVE_SCIPY, reason="scipy not installed")
    def test_csr_matrix_matches_row_lists(self):
        topo = Topology.uniform_random(120, (400.0, 400.0), 60.0, np.random.default_rng(7))
        from_rows = g.adjacency_to_csr(topo.adj)
        from_csr = g.csr_to_matrix(*topo.csr)
        assert (from_rows != from_csr).nnz == 0
        assert from_csr.dtype == from_rows.dtype == np.int8

    @pytest.mark.skipif(not g._HAVE_SCIPY, reason="scipy not installed")
    def test_adjacency_to_csr_accepts_plain_lists(self):
        mat = g.adjacency_to_csr([[1, 2], [0], [0], []])
        assert mat.toarray().tolist() == [
            [0, 1, 1, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ]


# ----------------------------------------------------------------------
# diff() == the list-based per-node comparison
# ----------------------------------------------------------------------
class TestDiffOracle:
    def test_random_waypoint_trajectory(self):
        rng = np.random.default_rng(8)
        area = (500.0, 500.0)
        topo = Topology.uniform_random(200, area, 60.0, rng)
        topo.enable_delta_tracking()
        model = RandomWaypoint(topo.positions, area, max_speed=20.0, rng=rng)
        start_epoch, start_adj = topo.epoch, topo.adj
        any_change = False
        for _ in range(20):
            epoch, old = topo.epoch, topo.adj
            topo.set_positions(model.step(1.0))
            want = changed_nodes_by_list(old, topo.adj)
            got = topo.diff(epoch)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()
            any_change |= bool(want.size)
        assert any_change
        # spans accumulate: every node that differs end to end is reported
        # (plus nodes whose links flipped and flipped back)
        whole = topo.diff(start_epoch)
        assert set(changed_nodes_by_list(start_adj, topo.adj).tolist()) <= set(whole.tolist())
        assert whole.tolist() == sorted(set(whole.tolist()))

    def test_epoch_bumped_but_no_link_flipped(self):
        topo = Topology.uniform_random(60, (300.0, 300.0), 60.0, np.random.default_rng(9))
        topo.enable_delta_tracking()
        e0 = topo.epoch
        topo.set_positions(np.array(topo.positions))
        got = topo.diff(e0)
        assert topo.epoch == e0 + 1
        assert got is not None and got.size == 0 and got.dtype == np.int64

    def test_failures_are_diffed_like_moves(self):
        topo = Topology.uniform_random(60, (300.0, 300.0), 80.0, np.random.default_rng(10))
        topo.enable_delta_tracking()
        e0, old = topo.epoch, topo.adj
        topo.fail_nodes([5, 6])
        assert topo.diff(e0).tolist() == changed_nodes_by_list(old, topo.adj).tolist()

    def test_change_log_overflow_returns_none(self, monkeypatch):
        monkeypatch.setattr(topology_module, "_CHANGE_LOG_LIMIT", 3)
        topo = Topology.uniform_random(30, (200.0, 200.0), 60.0, np.random.default_rng(11))
        topo.enable_delta_tracking()
        e0 = topo.epoch
        pos = np.array(topo.positions)
        for _ in range(4):  # one span more than the log keeps
            topo.set_positions(pos)
            _ = topo.adj
        assert topo.diff(e0) is None
        assert topo.diff(e0 + 1) is not None


# ----------------------------------------------------------------------
# no per-cell / per-edge / per-node Python work
# ----------------------------------------------------------------------
def _python_calls_for_one_tick(n: int) -> int:
    """Function calls (Python + C) made by ``adj`` + ``diff`` for one move."""
    rng = np.random.default_rng(n)
    side = 50.0 * np.sqrt(n / 2.5)  # the paper's density at any N
    topo = Topology.uniform_random(n, (side, side), 50.0, rng)
    topo.enable_delta_tracking()
    epoch = topo.epoch
    moved = np.clip(topo.positions + rng.normal(0.0, 5.0, size=(n, 2)), 0.0, side)
    topo.set_positions(moved)
    profile = cProfile.Profile()
    gc.disable()  # a cyclic-GC pass would add its gc.callbacks to the count
    try:
        profile.enable()
        adj = topo.adj
        changed = topo.diff(epoch)
        profile.disable()
    finally:
        gc.enable()
    assert len(adj) == n and changed.size > 0
    return pstats.Stats(profile).total_calls


def test_rebuild_call_count_does_not_grow_with_network_size():
    """A machine-independent guard against a loop creeping back in.

    The old pipeline made ~50 calls per occupied cell plus two per edge
    (tens of thousands at N=2000); the array pipeline makes the same ~200
    whatever N is (materialising the ``adj`` list is one comprehension,
    not N calls).  "Does not grow" is a small slack, not ``==``: a GC pass
    inside the profiled window adds hypothesis' ``gc.callbacks`` hook to
    the count, which broke exact equality ~2 in 9 full-session runs (hence
    also the ``gc.disable()``).  The ceiling is the real guard: one call
    per node would put N=2000 far past it.
    """
    small = _python_calls_for_one_tick(500)
    large = _python_calls_for_one_tick(2000)
    assert large <= small + 20
    assert large < 400
