"""Tests for the mobility models and the DES driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.engine import Simulator
from repro.mobility.base import MobilityDriver
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from tests.conftest import line_topology
from tests.oracles import StaticMobility

AREA = (100.0, 80.0)


def start_positions(n=30, seed=0):
    rng = np.random.default_rng(seed)
    pos = np.empty((n, 2))
    pos[:, 0] = rng.uniform(0, AREA[0], n)
    pos[:, 1] = rng.uniform(0, AREA[1], n)
    return pos


class TestStatic:
    def test_step_is_noop(self):
        pos = start_positions()
        model = StaticMobility(pos, AREA)
        out = model.step(5.0)
        assert (out == pos).all()

    def test_negative_dt_rejected(self):
        model = StaticMobility(start_positions(), AREA)
        with pytest.raises(ValueError):
            model.step(-1.0)


class TestRandomWaypoint:
    def make(self, seed=1, **kw):
        kw.setdefault("min_speed", 1.0)
        kw.setdefault("max_speed", 5.0)
        return RandomWaypoint(
            start_positions(seed=seed), AREA, rng=np.random.default_rng(seed), **kw
        )

    def test_stays_in_area(self):
        model = self.make()
        for _ in range(200):
            pos = model.step(0.7)
            assert pos[:, 0].min() >= 0 and pos[:, 0].max() <= AREA[0]
            assert pos[:, 1].min() >= 0 and pos[:, 1].max() <= AREA[1]

    def test_speed_cap_respected(self):
        model = self.make()
        prev = np.array(model.positions)
        for _ in range(50):
            cur = np.array(model.step(0.5))
            step_len = np.hypot(*(cur - prev).T)
            assert step_len.max() <= 5.0 * 0.5 + 1e-9
            prev = cur

    def test_nodes_actually_move(self):
        model = self.make()
        before = np.array(model.positions)
        model.step(2.0)
        moved = np.hypot(*(model.positions - before).T)
        assert (moved > 0).all()  # pause_time=0: everyone moves

    def test_pause_time_holds_nodes(self):
        # effectively infinite pause: every node freezes at its first waypoint
        model = self.make(pause_time=1e6)
        # longest possible leg: diagonal at min speed = ~128 s
        for _ in range(200):
            model.step(1.0)
        before = np.array(model.positions)
        model.step(1.0)
        # all nodes should be paused at their waypoints by now
        assert (model.positions == before).all()

    def test_zero_dt(self):
        model = self.make()
        before = np.array(model.positions)
        assert (model.step(0.0) == before).all()

    def test_deterministic_with_seed(self):
        a = self.make(seed=9)
        b = self.make(seed=9)
        for _ in range(10):
            assert (a.step(0.5) == b.step(0.5)).all()

    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            self.make(min_speed=6.0, max_speed=5.0)
        with pytest.raises(ValueError):
            self.make(max_speed=0.0)

    @settings(max_examples=20, deadline=None)
    @given(dt=st.floats(0.01, 20.0), seed=st.integers(0, 100))
    def test_property_in_bounds(self, dt, seed):
        model = self.make(seed=seed)
        pos = model.step(dt)
        assert pos[:, 0].min() >= 0 and pos[:, 0].max() <= AREA[0]
        assert pos[:, 1].min() >= 0 and pos[:, 1].max() <= AREA[1]


class TestRandomWalk:
    def make(self, seed=2, **kw):
        return RandomWalk(
            start_positions(seed=seed),
            AREA,
            min_speed=1.0,
            max_speed=4.0,
            rng=np.random.default_rng(seed),
            **kw,
        )

    def test_stays_in_area(self):
        model = self.make()
        for _ in range(300):
            pos = model.step(0.5)
            assert pos.min() >= 0
            assert pos[:, 0].max() <= AREA[0] and pos[:, 1].max() <= AREA[1]

    def test_headings_redraw(self):
        model = self.make(mean_epoch=0.1)
        h0 = np.array(model.headings)
        model.step(5.0)
        assert (model.headings != h0).any()

    def test_deterministic(self):
        a, b = self.make(seed=5), self.make(seed=5)
        for _ in range(5):
            assert (a.step(0.5) == b.step(0.5)).all()


class TestGaussMarkov:
    def make(self, seed=3, **kw):
        return GaussMarkov(
            start_positions(seed=seed), AREA, rng=np.random.default_rng(seed), **kw
        )

    def test_stays_in_area(self):
        model = self.make()
        for _ in range(300):
            pos = model.step(0.5)
            assert pos.min() >= -1e-9
            assert pos[:, 0].max() <= AREA[0] and pos[:, 1].max() <= AREA[1]

    def test_alpha_one_keeps_velocity(self):
        model = self.make(alpha=1.0, sigma=1.0)
        v0 = np.array(model.velocity)
        # place nodes mid-area so no wall reflections occur in one tiny step
        model.positions[:] = [AREA[0] / 2, AREA[1] / 2]
        model.step(0.001)
        assert np.allclose(model.velocity, v0)

    def test_alpha_zero_is_memoryless(self):
        model = self.make(alpha=0.0, sigma=2.0)
        model.step(0.5)
        # velocity should equal mean + noise, uncorrelated with previous
        assert model.velocity.shape == (30, 2)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            self.make(alpha=1.5)

    def test_deterministic(self):
        a, b = self.make(seed=8), self.make(seed=8)
        for _ in range(5):
            assert (a.step(0.5) == b.step(0.5)).all()


class TestMobilityDriver:
    def test_updates_topology_epoch(self):
        topo = line_topology(5)
        sim = Simulator()
        model = StaticMobility(np.array(topo.positions), topo.area)
        driver = MobilityDriver(sim, topo, model, step_interval=1.0)
        e0 = topo.epoch
        sim.run(until=5.0)
        assert topo.epoch == e0 + 5
        assert driver.updates_applied == 5

    def test_on_update_callbacks(self):
        topo = line_topology(5)
        sim = Simulator()
        calls = []
        MobilityDriver(
            sim,
            topo,
            StaticMobility(np.array(topo.positions), topo.area),
            step_interval=2.0,
            on_update=[lambda: calls.append(sim.now)],
        )
        sim.run(until=6.0)
        assert calls == [2.0, 4.0, 6.0]

    def test_stop(self):
        topo = line_topology(5)
        sim = Simulator()
        driver = MobilityDriver(
            sim, topo, StaticMobility(np.array(topo.positions), topo.area), 1.0
        )
        driver.stop()
        sim.run(until=10.0)
        assert driver.updates_applied == 0

    def test_node_count_mismatch(self):
        topo = line_topology(5)
        with pytest.raises(ValueError):
            MobilityDriver(
                Simulator(), topo, StaticMobility(np.zeros((3, 2)), topo.area), 1.0
            )
