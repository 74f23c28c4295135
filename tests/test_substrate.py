"""Parity and invalidation tests for the bounded-distance substrate.

The contract under test: for every topology, epoch history and radius,
the substrate's band matrix equals the full all-pairs matrix clipped at
the horizon — whether the band was built cold, rebuilt after an untracked
change, or maintained incrementally across arbitrary mobility, failure
and reconnection sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility.base import MobilityDriver
from repro.mobility.waypoint import RandomWaypoint
from repro.des.engine import Simulator
from repro.net import graph as g
from repro.net.substrate import DistanceSubstrate
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import line_topology, random_topology
from tests.oracles import hop_distance_matrix


def roomy_line(n: int, spacing: float = 40.0, tx: float = 50.0) -> Topology:
    """A chain like ``line_topology`` but inside a large area, so tests can
    move individual nodes genuinely out of radio range."""
    xs = np.arange(n, dtype=np.float64) * spacing
    pos = np.stack([xs, np.full(n, 1.0)], axis=1)
    side = float(xs.max()) + 500.0
    return Topology(pos, tx, (side, side))


def clipped(full: np.ndarray, horizon: int, dtype) -> np.ndarray:
    """The reference band: all-pairs distances truncated at ``horizon``."""
    return np.where(
        (full >= 0) & (full <= horizon), full, g.UNREACHABLE
    ).astype(dtype)


def assert_band_exact(topo: Topology, sub: DistanceSubstrate) -> None:
    band = sub.band()
    full = hop_distance_matrix(topo.adj)
    assert (band == clipped(full, sub.horizon, band.dtype)).all()


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
class TestBoundedKernel:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("horizon", [1, 2, 3, 5])
    def test_matches_apsp_random(self, seed, horizon):
        topo = random_topology(n=80, seed=seed)
        full = hop_distance_matrix(topo.adj)
        band = g.bounded_hop_distances(topo.adj, horizon)
        assert (band == clipped(full, horizon, band.dtype)).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_apsp_disconnected(self, seed):
        # sparse enough that the graph fragments into several components
        topo = random_topology(n=60, area=(900.0, 900.0), tx=60.0, seed=seed)
        assert len(g.connected_components(topo.adj)) > 1
        full = hop_distance_matrix(topo.adj)
        band = g.bounded_hop_distances(topo.adj, 3)
        assert (band == clipped(full, 3, band.dtype)).all()

    def test_multi_source_subset(self):
        topo = random_topology(n=70, seed=11)
        full = hop_distance_matrix(topo.adj)
        src = np.array([0, 13, 69])
        band = g.bounded_hop_distances(topo.adj, 4, src)
        assert band.shape == (3, topo.num_nodes)
        assert (band == clipped(full[src], 4, band.dtype)).all()

    def test_zero_hops_is_identity(self):
        topo = random_topology(n=20, seed=0)
        band = g.bounded_hop_distances(topo.adj, 0)
        expect = np.full((20, 20), g.UNREACHABLE, dtype=band.dtype)
        np.fill_diagonal(expect, 0)
        assert (band == expect).all()

    def test_empty_and_invalid(self):
        assert g.bounded_hop_distances([], 3).shape == (0, 0)
        topo = random_topology(n=10, seed=0)
        assert g.bounded_hop_distances(topo.adj, 2, []).shape == (0, 10)
        with pytest.raises(ValueError):
            g.bounded_hop_distances(topo.adj, -1)

    def test_int8_band_for_realistic_radii(self):
        topo = random_topology(n=30, seed=2)
        assert g.bounded_hop_distances(topo.adj, 6).dtype == np.int8

    def test_no_scipy_fallback_parity(self, monkeypatch):
        monkeypatch.setattr(g, "_HAVE_SCIPY", False)
        topo = random_topology(n=50, seed=4)
        full = np.stack([g.bfs_hops(topo.adj, s) for s in range(50)])
        band = g.bounded_hop_distances(topo.adj, 3)
        assert (band == clipped(full, 3, band.dtype)).all()


# ----------------------------------------------------------------------
# vectorized BFS parity (satellite: frontier expansion)
# ----------------------------------------------------------------------
class TestVectorizedBfs:
    def test_bfs_tree_matches_deque_reference(self):
        """The frontier-expanded tree must pick the *same* parents as the
        historical deque BFS (paths feed message accounting, so parent
        choice is part of the figures' bit-identical contract)."""
        from collections import deque

        def deque_bfs_tree(adj, source, max_hops=None):
            n = len(adj)
            dist = np.full(n, g.UNREACHABLE, dtype=np.int32)
            parent = np.full(n, -1, dtype=np.int64)
            dist[source] = 0
            parent[source] = source
            queue = deque([source])
            while queue:
                u = queue.popleft()
                du = dist[u]
                if max_hops is not None and du >= max_hops:
                    continue
                for v in adj[u]:
                    v = int(v)
                    if dist[v] == g.UNREACHABLE:
                        dist[v] = du + 1
                        parent[v] = u
                        queue.append(v)
            return dist, parent

        for seed in range(6):
            topo = random_topology(n=60, seed=seed)
            for source in (0, 17, 59):
                for max_hops in (None, 2, 4):
                    want = deque_bfs_tree(topo.adj, source, max_hops)
                    got = g.bfs_tree(topo.adj, source, max_hops)
                    assert (got[0] == want[0]).all()
                    assert (got[1] == want[1]).all()

    def test_bfs_hops_max_hops_parity(self):
        topo = random_topology(n=60, seed=9)
        full = hop_distance_matrix(topo.adj)
        for max_hops in (0, 1, 3):
            got = g.bfs_hops(topo.adj, 5, max_hops=max_hops)
            assert (got == clipped(full[5], max_hops, got.dtype)).all()


# ----------------------------------------------------------------------
# topology diffing
# ----------------------------------------------------------------------
class TestTopologyDiff:
    def test_same_epoch_empty(self):
        topo = line_topology(5)
        topo.enable_delta_tracking()
        changed = topo.diff(topo.epoch)
        assert changed is not None and changed.size == 0

    def test_single_link_cut(self):
        topo = roomy_line(6)
        topo.enable_delta_tracking()
        e0 = topo.epoch
        pos = np.array(topo.positions)
        pos[5] = [topo.area[0] - 1.0, topo.area[1] - 1.0]  # cut link 4-5
        topo.set_positions(pos)
        changed = topo.diff(e0)
        assert set(changed.tolist()) == {4, 5}

    def test_accumulates_across_epochs(self):
        topo = line_topology(8)
        topo.enable_delta_tracking()
        e0 = topo.epoch
        pos = np.array(topo.positions)
        pos[0][0] = topo.area[0] - 1.0
        topo.set_positions(pos)
        _ = topo.adj  # build between the two steps so both spans are logged
        pos2 = pos.copy()
        pos2[7][1] = 9.0  # no link change: nodes 6-7 stay adjacent
        topo.set_positions(pos2)
        changed = topo.diff(e0)
        assert changed is not None
        assert 0 in changed and 1 in changed

    def test_untracked_returns_none(self):
        topo = line_topology(5)
        e0 = topo.epoch
        pos = np.array(topo.positions)
        pos[4][0] = topo.area[0]
        topo.set_positions(pos)
        assert topo.diff(e0) is None  # tracking never enabled

    def test_ancient_epoch_returns_none(self):
        topo = line_topology(5)
        topo.enable_delta_tracking()
        pos = np.array(topo.positions)
        topo.set_positions(pos)
        _ = topo.adj
        assert topo.diff(-7) is None

    def test_failure_injection_diff(self):
        topo = line_topology(6)
        topo.enable_delta_tracking()
        e0 = topo.epoch
        topo.fail_nodes([2])
        changed = topo.diff(e0)
        assert set(changed.tolist()) == {1, 2, 3}


# ----------------------------------------------------------------------
# the substrate: cold, incremental, invalidation
# ----------------------------------------------------------------------
class TestSubstrate:
    def test_cold_build_exact(self):
        topo = random_topology(n=90, seed=1)
        sub = DistanceSubstrate(topo, 3)
        assert_band_exact(topo, sub)
        assert sub.stats().full_rebuilds == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_mobile_parity(self, seed):
        """Property-style: random small moves over many epochs; after each,
        the incrementally maintained band equals a cold reference."""
        rng = np.random.default_rng(seed)
        topo = random_topology(n=100, seed=seed)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 3)
        sub.refresh()
        for _ in range(8):
            pos = np.array(topo.positions)
            moved = rng.choice(100, size=rng.integers(1, 8), replace=False)
            pos[moved] += rng.uniform(-40.0, 40.0, size=(moved.size, 2))
            pos[:, 0] = np.clip(pos[:, 0], 0.0, topo.area[0])
            pos[:, 1] = np.clip(pos[:, 1], 0.0, topo.area[1])
            topo.set_positions(pos)
            assert_band_exact(topo, sub)
        assert sub.stats().incremental_updates + sub.stats().null_updates > 0

    def test_incremental_disconnection_and_reconnection(self):
        topo = roomy_line(8)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 2)
        sub.refresh()
        home = np.array(topo.positions)
        away = home.copy()
        away[4] = [topo.area[0] - 1.0, topo.area[1] - 1.0]  # chain splits
        topo.set_positions(away)
        assert_band_exact(topo, sub)
        topo.set_positions(home)  # and returns: chain restored
        assert_band_exact(topo, sub)
        assert sub.stats().incremental_updates >= 1

    def test_epoch_invalidation_regression(self):
        """A stale band must never be served after an epoch bump — the
        original seed bug class this substrate must not reintroduce."""
        topo = line_topology(4)
        sub = topo.substrate(1)
        assert sub.band()[0, 1] == 1
        pos = np.array(topo.positions)
        pos[1][0] = topo.area[0]  # node 1 leaves node 0's range
        topo.set_positions(pos)
        assert sub.band()[0, 1] == g.UNREACHABLE
        member = sub.membership(1)
        assert not member[0, 1]

    def test_membership_cache_per_epoch(self):
        topo = line_topology(6)
        sub = topo.substrate(2)
        a = sub.membership(2)
        b = sub.membership(2)
        assert a is b
        assert sub.stats().membership_hits == 1
        topo.set_positions(np.array(topo.positions))
        c = sub.membership(2)
        assert c is not a  # epoch bump invalidates the cached view

    def test_radius_beyond_horizon_rejected(self):
        topo = line_topology(6)
        sub = DistanceSubstrate(topo, 2)
        with pytest.raises(ValueError):
            sub.membership(3)
        with pytest.raises(ValueError):
            sub.ring(0, 3)
        with pytest.raises(ValueError):
            DistanceSubstrate(topo, 0)

    def test_full_reference_mode_parity(self):
        """incremental=False is the exact-parity fallback: always rebuilds."""
        topo = random_topology(n=60, seed=3)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 3, incremental=False)
        sub.refresh()
        pos = np.array(topo.positions)
        pos[0] = [1.0, 1.0]
        topo.set_positions(pos)
        assert_band_exact(topo, sub)
        assert sub.stats().incremental_updates == 0
        assert sub.stats().full_rebuilds == 2

    def test_massive_change_falls_back_to_full_rebuild(self):
        topo = random_topology(n=60, seed=5)
        topo.enable_delta_tracking()
        sub = DistanceSubstrate(topo, 3)
        sub.refresh()
        rebuilds = sub.stats().full_rebuilds
        rng = np.random.default_rng(0)
        pos = np.empty_like(topo.positions)
        pos[:, 0] = rng.uniform(0.0, topo.area[0], 60)
        pos[:, 1] = rng.uniform(0.0, topo.area[1], 60)
        topo.set_positions(pos)  # everybody moved: incremental is pointless
        assert_band_exact(topo, sub)
        assert sub.stats().full_rebuilds == rebuilds + 1


# ----------------------------------------------------------------------
# sharing and integration
# ----------------------------------------------------------------------
class TestSharedSubstrate:
    def test_tables_share_one_substrate(self):
        topo = random_topology(n=50, seed=0)
        a = NeighborhoodTables(topo, 2)
        b = NeighborhoodTables(topo, 2)
        assert a.substrate is b.substrate
        _ = a.membership
        _ = b.membership
        assert a.substrate.stats().full_rebuilds == 1
        assert a.substrate.stats().membership_builds == 1

    def test_larger_radius_upgrades_horizon(self):
        topo = random_topology(n=50, seed=0)
        small = NeighborhoodTables(topo, 2)
        big = NeighborhoodTables(topo, 4)
        assert big.substrate.horizon >= 4
        # the smaller-radius view rides the upgraded substrate
        assert small.substrate is big.substrate
        full = hop_distance_matrix(topo.adj)
        assert (small.membership == g.neighborhood_sets(full, 2)).all()
        assert (big.membership == g.neighborhood_sets(full, 4)).all()

    def test_tables_match_apsp_derivation(self):
        topo = random_topology(n=80, seed=7)
        tables = NeighborhoodTables(topo, 3)
        full = hop_distance_matrix(topo.adj)
        assert (tables.membership == g.neighborhood_sets(full, 3)).all()
        for u in (0, 40, 79):
            assert (tables.edge_nodes(u) == np.flatnonzero(full[u] == 3)).all()
            for v in (1, 50):
                expect = int(full[u, v])
                if not (0 <= expect <= 3):
                    expect = g.UNREACHABLE  # hops is zone-scoped now
                assert tables.hops(u, v) == expect

    def test_mobility_driver_delta_history(self):
        sim = Simulator()
        topo = random_topology(n=40, seed=2)
        model = RandomWaypoint(
            topo.positions, topo.area, rng=np.random.default_rng(0)
        )
        driver = MobilityDriver(sim, topo, model, step_interval=0.5,
                                track_deltas=True)
        sim.run(until=2.0)
        driver.stop()
        assert driver.updates_applied == len(driver.delta_history) > 0
        assert all(c >= 0 for c in driver.delta_history)
