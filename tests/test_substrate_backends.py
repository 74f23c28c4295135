"""Both substrate band representations equal the BFS oracle, plus the
DistanceView contracts.

The band is dense below :data:`repro.net.substrate.SPARSE_NODE_THRESHOLD`
nodes and a CSR triple at and above it.  Each representation — chosen
for the whole test by patching the threshold — must answer every query
(membership, edge nodes, hop lookups, band materialisation) exactly as
per-source bounded BFS does, over random, mobile and failure-injected
topologies.  Plus the view-layer contracts: multi-horizon sharing, the
2R-view epoch-invalidation regression, and the global view's sampled
statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import graph as g
from repro.net import substrate
from repro.net.substrate import (
    SPARSE_NODE_THRESHOLD,
    DistanceSubstrate,
    GlobalDistanceView,
    SparseMembership,
)
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import random_topology


def bfs_oracle(topo: Topology, horizon: int) -> np.ndarray:
    """Row ``u`` is ``bfs_hops(adj, u)`` cut at ``horizon`` (−1 beyond)."""
    return np.stack(
        [g.bfs_hops(topo.adj, u, max_hops=horizon) for u in range(topo.num_nodes)]
    )


def assert_matches_oracle(topo: Topology, sub: DistanceSubstrate, horizon: int):
    """Every query surface of ``sub`` answers what the BFS oracle does."""
    n = topo.num_nodes
    want = bfs_oracle(topo, horizon)
    assert (sub.band() == want).all()
    for radius in range(1, horizon + 1):
        member = sub.membership(radius)
        inside = (want >= 0) & (want <= radius)
        for u in range(0, n, max(1, n // 13)):
            assert (np.asarray(member[u]) == inside[u]).all()
            assert sub.ring(u, radius).tolist() == np.flatnonzero(
                want[u] == radius
            ).tolist()
    probe = np.arange(0, n, max(1, n // 7), dtype=np.int64)
    for u in probe:
        vals = sub._fresh_band().hops_many(int(u), probe)
        assert (np.asarray(vals) == want[u, probe]).all()
        for v in probe:
            assert sub.hops_within(int(u), int(v)) == want[u, v]


@pytest.fixture(params=["scipy", "numpy"])
def kernel(request, monkeypatch):
    """Run a parity class on the scipy kernels and on the numpy fallbacks."""
    if request.param == "numpy":
        monkeypatch.setattr(g, "_HAVE_SCIPY", False)
    elif not g._HAVE_SCIPY:
        pytest.skip("scipy not installed")


@pytest.fixture(params=["dense", "sparse"])
def representation(request, monkeypatch):
    """The band representation every substrate of the test uses: every
    topology here is far below the threshold, so ``sparse`` lowers it."""
    if request.param == "sparse":
        monkeypatch.setattr(substrate, "SPARSE_NODE_THRESHOLD", 1)
    return request.param


@pytest.mark.usefixtures("kernel")
class TestBandEqualsOracleStatic:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [1, 3, 6])
    def test_random_topologies(self, representation, seed, horizon):
        topo = random_topology(n=90, seed=seed)
        sub = DistanceSubstrate(topo, horizon)
        assert sub.backend_kind == representation
        assert_matches_oracle(topo, sub, horizon)

    @pytest.mark.parametrize("seed", range(2))
    def test_disconnected_topologies(self, representation, seed):
        topo = random_topology(n=70, area=(900.0, 900.0), tx=60.0, seed=seed)
        assert len(g.connected_components(topo.adj)) > 1
        assert_matches_oracle(topo, DistanceSubstrate(topo, 3), 3)

    def test_auto_selection_threshold(self):
        small = random_topology(n=60, seed=0)
        assert DistanceSubstrate(small, 2).backend_kind == "dense"
        # fabricate a topology just past the threshold (positions only —
        # the band is never built, so this stays cheap)
        n = SPARSE_NODE_THRESHOLD
        rng = np.random.default_rng(0)
        pos = np.stack(
            [rng.uniform(0, 5000.0, n), rng.uniform(0, 5000.0, n)], axis=1
        )
        big = Topology(pos, 50.0, (5000.0, 5000.0))
        assert DistanceSubstrate(big, 2).backend_kind == "sparse"

    def test_sparse_membership_indexing_surface(self, monkeypatch):
        monkeypatch.setattr(substrate, "SPARSE_NODE_THRESHOLD", 1)
        topo = random_topology(n=80, seed=3)
        sm = DistanceSubstrate(topo, 2).membership(2)
        assert isinstance(sm, SparseMembership)
        want = bfs_oracle(topo, 2) >= 0
        ids = np.array([0, 5, 17, 63])
        assert sm.shape == want.shape
        assert bool(sm[4, 9]) == bool(want[4, 9])
        assert (sm[4, ids] == want[4, ids]).all()
        assert (sm[ids] == want[ids]).all()
        assert (sm[ids].any(axis=0) == want[ids].any(axis=0)).all()


@pytest.mark.usefixtures("kernel")
class TestBandEqualsOracleDynamic:
    @pytest.mark.parametrize("seed", range(3))
    def test_mobile_epochs(self, representation, seed):
        """Random incremental moves: the refreshed band stays exact."""
        rng = np.random.default_rng(seed)
        topo = random_topology(n=100, seed=seed)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 3)
        sub.refresh()
        for _ in range(6):
            pos = np.array(topo.positions)
            moved = rng.choice(100, size=rng.integers(1, 8), replace=False)
            pos[moved] += rng.uniform(-40.0, 40.0, size=(moved.size, 2))
            pos[:, 0] = np.clip(pos[:, 0], 0.0, topo.area[0])
            pos[:, 1] = np.clip(pos[:, 1], 0.0, topo.area[1])
            topo.set_positions(pos)
            assert_matches_oracle(topo, sub, 3)
        assert sub.stats().incremental_updates + sub.stats().null_updates > 0

    def test_failure_injection(self, representation):
        topo = random_topology(n=90, seed=5)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 3)
        sub.refresh()
        topo.fail_nodes([3, 40, 41, 77])
        assert_matches_oracle(topo, sub, 3)


class TestMultiHorizonViews:
    def test_views_share_one_substrate(self):
        topo = random_topology(n=80, seed=1)
        zone = topo.distance_view(3)
        contact = topo.distance_view(6)  # 2R
        assert zone.substrate is contact.substrate
        assert contact.substrate.horizon == 6
        # the R view still answers R-scoped: beyond-horizon is -1
        full = g.hop_distance_matrix(topo.adj)
        for u in (0, 33, 79):
            for v in (2, 50):
                want = int(full[u, v])
                assert zone.hops(u, v) == (want if 0 <= want <= 3 else -1)
                assert contact.hops(u, v) == (want if 0 <= want <= 6 else -1)

    def test_members_within_ring_band(self):
        topo = random_topology(n=80, seed=2)
        view = topo.distance_view(4)
        full = g.hop_distance_matrix(topo.adj)
        for u in (0, 17, 61):
            row = full[u]
            assert (view.members(u) == np.flatnonzero((row >= 0) & (row <= 4))).all()
            assert (view.ring(u) == np.flatnonzero(row == 4)).all()
            assert (view.ring(u, 1) == np.flatnonzero(row == 1)).all()
        clip = np.where((full >= 0) & (full <= 4), full, -1).astype(
            view.band().dtype
        )
        assert (view.band() == clip).all()

    def test_two_r_view_epoch_invalidation_regression(self):
        """The 2R view must track epoch bumps exactly like the R view —
        a stale contact band would silently corrupt SPREAD ranking and
        the overlap metric after a mobility step."""
        xs = np.arange(8, dtype=np.float64) * 40.0
        pos = np.stack([xs, np.full(8, 1.0)], axis=1)
        side = float(xs.max()) + 500.0
        topo = Topology(pos, 50.0, (side, side))
        tables = NeighborhoodTables(topo, 2)
        contact = tables.contact_view
        assert contact.horizon == 4
        assert contact.hops(0, 4) == 4
        assert tables.hops(0, 2) == 2
        # break the chain between 3 and 4
        pos = np.array(topo.positions)
        pos[4] = [side - 1.0, side - 1.0]
        topo.set_positions(pos)
        assert contact.hops(0, 4) == -1  # fresh, not stale
        assert tables.contains(0, 2)
        member = tables.membership
        assert not np.asarray(member[3] if isinstance(member, np.ndarray) else member[3])[4]
        # and the chain heals
        pos[4] = [160.0, 1.0]
        topo.set_positions(pos)
        assert contact.hops(0, 4) == 4

    def test_growth_is_full_rebuild_but_identity_stable(self):
        topo = random_topology(n=60, seed=4)
        sub = topo.substrate(2)
        _ = sub.band()
        rebuilds = sub.stats().full_rebuilds
        grown = topo.substrate(5)
        assert grown is sub  # same object, horizon grown in place
        _ = sub.band()
        assert sub.horizon == 5
        assert sub.stats().full_rebuilds == rebuilds + 1


class TestGlobalView:
    def test_sampled_stats_match_exact_on_full_sample(self):
        topo = random_topology(n=60, seed=6)
        gview = topo.distance_view(None)
        assert isinstance(gview, GlobalDistanceView)
        est = gview.sample_pair_stats(60, np.random.default_rng(0))
        full = g.hop_distance_matrix(topo.adj)
        finite = full[full > 0]
        assert est.num_sources == 60
        assert est.diameter == int(finite.max())
        assert est.mean_hops == pytest.approx(float(finite.mean()))

    def test_row_queries_are_exact(self):
        topo = random_topology(n=70, seed=7)
        gview = topo.distance_view(None)
        full = g.hop_distance_matrix(topo.adj)
        for u in (0, 35, 69):
            assert gview.hops(u, 3) == int(full[u, 3])
            assert (gview.hops_many(u, [1, 2, 50]) == full[u, [1, 2, 50]]).all()
            assert (gview.members(u) == np.flatnonzero(full[u] >= 0)).all()
        # epoch bump invalidates cached rows
        pos = np.array(topo.positions)
        pos[0] = [1.0, 1.0]
        topo.set_positions(pos)
        assert gview.hops(0, 3) == int(g.hop_distance_matrix(topo.adj)[0, 3])

    def test_band_is_refused(self):
        topo = random_topology(n=20, seed=0)
        with pytest.raises(RuntimeError, match="sample_pair_stats"):
            topo.distance_view(None).band()

    def test_graph_stats_sampled_branch(self):
        topo = random_topology(n=120, seed=8)
        exact = g.graph_stats(topo.adj)
        sampled = g.graph_stats(
            topo.adj, pair_sample=32, rng=np.random.default_rng(0)
        )
        # structure columns are exact either way
        assert sampled.num_links == exact.num_links
        assert sampled.giant_size == exact.giant_size
        # the estimator is close (same giant, 32 BFS sources); any node's
        # eccentricity is >= diameter/2, so the lower bound is structural
        assert sampled.diameter <= exact.diameter
        assert sampled.diameter * 2 >= exact.diameter
        assert sampled.mean_hops == pytest.approx(exact.mean_hops, rel=0.25)
        # a sample covering the giant degenerates to the exact numbers
        full_sample = g.graph_stats(
            topo.adj, pair_sample=len(topo.adj), rng=np.random.default_rng(0)
        )
        assert full_sample.diameter == exact.diameter
        assert full_sample.mean_hops == pytest.approx(exact.mean_hops)
