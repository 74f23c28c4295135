"""Both substrate band representations equal the BFS oracle, at both
horizons the protocol asks at.

The band is dense below :data:`repro.net.substrate.SPARSE_NODE_THRESHOLD`
nodes and a CSR triple at and above it.  Each representation — chosen
for the whole test by patching the threshold — must answer every query
(membership, edge nodes, hop lookups, routes) exactly as per-source
bounded BFS does, over random, mobile and failure-injected topologies,
and the zone tables must answer at R and at 2R alike whether or not a
2R consumer grew the shared band first.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import graph as g
from repro.net import substrate
from repro.net.substrate import (
    SPARSE_NODE_THRESHOLD,
    DistanceSubstrate,
    SparseMembership,
)
from repro.net.topology import Topology
from repro.routing.neighborhood import NeighborhoodTables
from tests.conftest import random_topology
from tests.oracles import band_matrix, oracle_path


def bfs_oracle(topo: Topology, horizon: int) -> np.ndarray:
    """Row ``u`` is ``bfs_hops(adj, u)`` cut at ``horizon`` (−1 beyond)."""
    return np.stack(
        [g.bfs_hops(topo.adj, u, max_hops=horizon) for u in range(topo.num_nodes)]
    )


def assert_matches_oracle(topo: Topology, sub: DistanceSubstrate, horizon: int):
    """Every query surface of ``sub`` answers what the BFS oracle does."""
    n = topo.num_nodes
    want = bfs_oracle(topo, horizon)
    assert (band_matrix(sub, horizon) == want).all()
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
        assert (sub.hops_many(u, probe, horizon) == want[u, probe]).all()
        for v in probe:
            assert sub.hops(u, v, horizon) == want[u, v]


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


AREA = (400.0, 400.0)


def draw_topology(n: int, tx: float, seed: int) -> Topology:
    rng = np.random.default_rng(seed)
    return Topology(rng.uniform(0.0, AREA[0], size=(n, 2)), tx, AREA)


def assert_tables_match_oracle(tables: NeighborhoodTables, ask_2r: bool) -> None:
    """Zone answers at R (and 2R answers, when ``ask_2r``) from every
    probed source equal the BFS oracle's."""
    adj, r, n = tables.topology.adj, tables.radius, tables.topology.num_nodes
    member = tables.membership
    everyone = np.arange(n)
    for u in range(0, n, max(1, n // 6)):
        row = g.bfs_hops(adj, u)
        zone = (row >= 0) & (row <= r)
        assert tables.members(u).tolist() == np.flatnonzero(zone).tolist()
        assert (np.asarray(member[u]) == zone).all()
        assert tables.edge_nodes(u).tolist() == np.flatnonzero(row == r).tolist()
        assert tables.zone_hops(u, everyone).tolist() == np.where(zone, row, -1).tolist()
        for v in range(n):
            assert tables.contains(u, v) == bool(zone[v])
            assert tables.path_within(u, v) == oracle_path(adj, u, v, r)
            if ask_2r:
                d = int(row[v])
                assert tables.band_hops(u, v) == (d if 0 <= d <= 2 * r else -1)


class TestTwoHorizons:
    """The zone tables ask one shared band at R and at 2R."""

    @settings(max_examples=40, deadline=None)
    @given(
        sparse=st.booleans(),
        n=st.integers(2, 50),
        tx=st.sampled_from([40.0, 60.0, 90.0]),
        seed=st.integers(0, 2**16),
        radius=st.integers(1, 3),
        grow_first=st.booleans(),
        ask_2r=st.booleans(),
        bumps=st.lists(
            st.tuples(st.sampled_from(["move", "fail"]), st.integers(0, 2**16)),
            max_size=4,
        ),
    )
    def test_answers_equal_bfs_oracle(
        self, sparse, n, tx, seed, radius, grow_first, ask_2r, bumps
    ):
        """Every R and 2R answer equals per-source BFS before and after
        random moves and failures; a run that never asks at 2R ends with
        the band at R."""
        threshold = 1 if sparse else SPARSE_NODE_THRESHOLD
        with mock.patch.object(substrate, "SPARSE_NODE_THRESHOLD", threshold):
            topo = draw_topology(n, tx, seed)
            tables = NeighborhoodTables(topo, radius)
            if grow_first:
                tables.band_hops(0, n - 1)
            assert_tables_match_oracle(tables, ask_2r)
            for kind, bump_seed in bumps:
                rng = np.random.default_rng(bump_seed)
                if kind == "move":
                    # a few nodes jump, so most bumps refresh incrementally
                    pos = np.array(topo.positions)
                    moved = rng.choice(n, size=rng.integers(1, n // 5 + 2), replace=False)
                    pos[moved] = rng.uniform(0.0, AREA[0], size=(moved.size, 2))
                    topo.set_positions(pos)
                else:
                    topo.fail_nodes([int(rng.integers(n))])
                assert_tables_match_oracle(tables, ask_2r)
            assert tables.substrate.backend_kind == ("sparse" if sparse else "dense")
            grown = grow_first or ask_2r
            assert tables.substrate.horizon == (2 * radius if grown else radius)

    def test_growth_is_full_rebuild_but_identity_stable(self):
        topo = random_topology(n=60, seed=4)
        sub = topo.substrate(2)
        sub.refresh()
        rebuilds = sub.stats().full_rebuilds
        grown = topo.substrate(5)
        assert grown is sub  # same object, horizon grown in place
        sub.refresh()
        assert sub.horizon == 5
        assert sub.stats().full_rebuilds == rebuilds + 1

    def test_band_hops_tracks_epoch_bumps(self):
        """The 2R answers follow an epoch bump exactly like the R ones: a
        stale contact band would silently corrupt SPREAD ranking and the
        overlap metric after a mobility step."""
        xs = np.arange(8, dtype=np.float64) * 40.0
        pos = np.stack([xs, np.full(8, 1.0)], axis=1)
        side = float(xs.max()) + 500.0
        topo = Topology(pos, 50.0, (side, side))
        tables = NeighborhoodTables(topo, 2)
        assert tables.band_hops(0, 4) == 4
        assert tables.substrate.horizon == 4
        assert tables.zone_hops(0, [2, 4]).tolist() == [2, -1]
        # break the chain between 3 and 4
        pos = np.array(topo.positions)
        pos[4] = [side - 1.0, side - 1.0]
        topo.set_positions(pos)
        assert tables.band_hops(0, 4) == -1  # fresh, not stale
        assert tables.contains(0, 2)
        assert not tables.membership[3, 4]
        # and the chain heals
        pos[4] = [160.0, 1.0]
        topo.set_positions(pos)
        assert tables.band_hops(0, 4) == 4
