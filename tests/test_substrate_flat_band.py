"""The sparse band is one flat CSR triple, equal to a clipped BFS oracle.

``_SparseBand`` holds ``(indptr, indices, dist)`` and nothing else.  The
properties here pin its content — row for row against per-source
``bfs_hops`` — and its shape (sorted ``indices``, monotone ``indptr``,
dtypes) on the scipy kernel and on the numpy fallback alike, cold and
after an incremental splice.  Deterministic; no timing assertions.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import graph as g
from repro.net import substrate
from repro.net.substrate import DistanceSubstrate, SparseMembership, _SparseBand
from repro.net.topology import Topology
from tests.conftest import random_topology

AREA = (400.0, 400.0)

#: the scipy kernel (skipped where scipy is absent) and the numpy fallback
KERNELS = [
    pytest.param(
        True,
        id="scipy",
        marks=pytest.mark.skipif(not g._HAVE_SCIPY, reason="scipy not installed"),
    ),
    pytest.param(False, id="numpy"),
]


def draw_topology(n: int, tx: float, seed: int) -> Topology:
    """``n`` uniform nodes; ``tx`` spans isolated nodes to one clique."""
    rng = np.random.default_rng(seed)
    pos = np.stack([rng.uniform(0, AREA[0], n), rng.uniform(0, AREA[1], n)], axis=1)
    return Topology(pos, tx, AREA)


def build(topo: Topology, horizon: int) -> _SparseBand:
    csr = g.csr_to_matrix(*topo.csr) if g._HAVE_SCIPY else None
    return _SparseBand.build(topo.adj, horizon, csr)


def assert_band_is_oracle(band: _SparseBand, adj, horizon: int) -> None:
    n = len(adj)
    assert band.indptr.dtype == np.int64 and band.indptr.shape == (n + 1,)
    assert band.indices.dtype == np.int64
    assert band.dist.dtype == g._band_dtype(horizon)
    assert band.indptr[0] == 0 and band.indptr[-1] == band.indices.size
    assert band.indices.shape == band.dist.shape
    assert (np.diff(band.indptr) >= 1).all()  # a row holds at least itself
    for u in range(n):
        row = g.bfs_hops(adj, u, max_hops=horizon)
        want = np.flatnonzero(row != g.UNREACHABLE)
        lo, hi = band.indptr[u], band.indptr[u + 1]
        assert band.indices[lo:hi].tolist() == want.tolist()  # sorted ids
        assert band.dist[lo:hi].tolist() == row[want].tolist()


def assert_same_triple(a: _SparseBand, b: _SparseBand) -> None:
    for name in ("indptr", "indices", "dist"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), name


topologies = dict(
    n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 70)),
    tx=st.sampled_from([1.0, 40.0, 60.0, 90.0, 600.0]),
    seed=st.integers(0, 2**16),
    horizon=st.integers(1, 6),
)


class TestFlatBandEqualsBfsOracle:
    @pytest.mark.parametrize("scipy_kernel", KERNELS)
    @settings(max_examples=50, deadline=None)
    @given(**topologies)
    def test_cold_build(self, scipy_kernel, n, tx, seed, horizon):
        topo = draw_topology(n, tx, seed)
        with mock.patch.object(g, "_HAVE_SCIPY", scipy_kernel):
            band = build(topo, horizon)
        assert_band_is_oracle(band, topo.adj, horizon)
        # the derived views are the same rows, masked or scattered
        dense = band.dense()
        assert dense.dtype == band.dist.dtype and dense.shape == (n, n)
        for radius in range(1, horizon + 1):
            member = band.membership(radius)
            assert member.indptr.dtype == member.indices.dtype == np.int64
            for u in range(n):
                want = np.flatnonzero((dense[u] >= 0) & (dense[u] <= radius))
                assert member.row_ids(u).tolist() == want.tolist()
                assert band.row_within(u, radius).tolist() == want.tolist()
                assert (
                    band.row_ring(u, radius).tolist()
                    == np.flatnonzero(dense[u] == radius).tolist()
                )

    @pytest.mark.parametrize("scipy_kernel", KERNELS)
    @settings(max_examples=50, deadline=None)
    @given(
        moved_frac=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        failed=st.integers(0, 3),
        **topologies,
    )
    def test_splice_equals_cold_rebuild(
        self, scipy_kernel, n, tx, seed, horizon, moved_frac, failed
    ):
        """Random link flips: rows spliced in by ``update`` leave exactly
        the triple a cold build of the new graph gives — with ``changed``
        unsorted, and with failed nodes whose rows (and whose neighbours'
        rows, at ``tx`` small) shrink to the node itself."""
        rng = np.random.default_rng(seed + 1)
        old = draw_topology(n, tx, seed)
        pos = np.array(old.positions)
        moved = rng.random(n) < moved_frac
        pos[moved] = np.stack(
            [rng.uniform(0, AREA[0], n), rng.uniform(0, AREA[1], n)], axis=1
        )[moved]
        new = Topology(pos, tx, AREA)
        new.fail_nodes(rng.choice(n, size=min(failed, n), replace=False).tolist())
        changed = np.asarray(
            [u for u in range(n) if old.adj[u].tolist() != new.adj[u].tolist()],
            dtype=np.int64,
        )
        rng.shuffle(changed)
        with mock.patch.object(g, "_HAVE_SCIPY", scipy_kernel):
            band = build(old, horizon)
            csr = g.csr_to_matrix(*new.csr) if scipy_kernel else None
            rows = band.update(new.adj, horizon, changed, csr)
            cold = build(new, horizon)
        assert changed.size <= rows <= n
        assert_same_triple(band, cold)
        assert_band_is_oracle(band, new.adj, horizon)


class TestSparseMembershipRows:
    """``member[ids]`` is one gather; its output is the per-id loop's."""

    @pytest.mark.parametrize(
        "ids",
        [[], [7], [3, 3, 3], [59, 0, 17, 0, 59], list(range(60))],
        ids=["empty", "one", "repeated", "unsorted-repeated", "all"],
    )
    def test_rows_match_per_id_rows(self, ids):
        topo = random_topology(n=60, seed=2)
        member = build(topo, 3).membership(2)
        assert isinstance(member, SparseMembership)
        got = member[np.asarray(ids, dtype=np.int64)]
        want = np.zeros((len(ids), 60), dtype=bool)
        for i, u in enumerate(ids):
            want[i, member.row_ids(u)] = True
        assert got.dtype == bool and got.shape == want.shape
        assert (got == want).all()
        assert (got.any(axis=0) == want.any(axis=0)).all()


@pytest.mark.skipif(not g._HAVE_SCIPY, reason="scipy not installed")
def test_scipy_sparse_path_builds_no_dense_block(monkeypatch):
    """Structural guard: with scipy present, neither the sparse cold build
    nor a sparse incremental refresh goes through the dense-block kernel."""

    def forbidden(*args, **kwargs):
        raise AssertionError("sparse band called bounded_hop_distances")

    monkeypatch.setattr(g, "bounded_hop_distances", forbidden)
    monkeypatch.setattr(substrate, "SPARSE_NODE_THRESHOLD", 1)
    topo = random_topology(n=120, seed=1)
    topo.enable_delta_tracking()
    sub = DistanceSubstrate(topo, 3)
    sub.refresh()
    assert sub.stats().full_rebuilds == 1
    pos = np.array(topo.positions)
    pos[[4, 50]] += 35.0
    topo.set_positions(np.clip(pos, 0.0, min(topo.area)))
    sub.refresh()
    stats = sub.stats()
    assert stats.incremental_updates == 1 and stats.full_rebuilds == 1
    assert 2 <= stats.rows_recomputed <= 120
    _ = sub.membership(2)[np.array([0, 4])]
    assert_band_is_oracle(sub._fresh_band(), topo.adj, 3)
