"""Tests for mobility traces (NS-2 export/replay)."""

import numpy as np
import pytest

from repro.mobility.trace import (
    MobilityTrace,
    TraceMobility,
    TraceSegment,
    parse_ns2_script,
    record_trace,
    to_ns2_script,
)
from repro.mobility.waypoint import RandomWaypoint

AREA = (100.0, 100.0)


class TestTraceRecording:
    def make_model(self, seed=0, n=10):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(10, 90, size=(n, 2))
        return RandomWaypoint(
            pos, AREA, min_speed=1.0, max_speed=4.0, rng=np.random.default_rng(seed)
        )

    def test_record_captures_motion(self):
        model = self.make_model()
        trace = record_trace(model, horizon=5.0, sample_dt=0.5)
        assert trace.num_nodes == 10
        assert any(trace.segments.values())

    def test_replay_matches_samples(self):
        """Replaying a recorded trace reproduces the sampled trajectory."""
        model = self.make_model(seed=3)
        initial = np.array(model.positions, copy=True)
        trace = record_trace(model, horizon=4.0, sample_dt=0.5)
        final = np.array(model.positions, copy=True)
        replay = TraceMobility(trace, AREA)
        assert np.allclose(replay.positions, initial)
        for _ in range(8):
            replay.step(0.5)
        assert np.allclose(replay.positions, final, atol=1e-6)

    def test_replay_step_size_independent(self):
        model = self.make_model(seed=4)
        trace = record_trace(model, horizon=3.0, sample_dt=0.5)
        a = TraceMobility(trace, AREA)
        b = TraceMobility(trace, AREA)
        for _ in range(6):
            a.step(0.5)
        for _ in range(30):
            b.step(0.1)
        assert np.allclose(a.positions, b.positions, atol=1e-6)

    def test_static_model_empty_trace(self):
        from tests.oracles import StaticMobility

        model = StaticMobility(np.full((4, 2), 50.0), AREA)
        trace = record_trace(model, horizon=2.0)
        assert not any(trace.segments.values())

    def test_invalid_horizon(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            record_trace(model, horizon=0.0)


class TestNs2Format:
    def test_roundtrip(self):
        model = TestTraceRecording().make_model(seed=5)
        trace = record_trace(model, horizon=2.0, sample_dt=1.0)
        script = to_ns2_script(trace)
        assert "$node_(0) set X_" in script
        parsed = parse_ns2_script(script)
        assert parsed.num_nodes == trace.num_nodes
        assert np.allclose(parsed.initial, trace.initial, atol=1e-5)
        for node in range(trace.num_nodes):
            ours = trace.sorted_segments(node)
            theirs = parsed.sorted_segments(node)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert a.time == pytest.approx(b.time, abs=1e-5)
                assert a.x == pytest.approx(b.x, abs=1e-5)
                assert a.speed == pytest.approx(b.speed, abs=1e-5)

    def test_setdest_line_format(self):
        trace = MobilityTrace(initial=np.array([[1.0, 2.0]]))
        trace.add(0, TraceSegment(time=1.5, x=3.0, y=4.0, speed=2.0))
        script = to_ns2_script(trace)
        assert '$ns_ at 1.500000 "$node_(0) setdest 3.000000 4.000000 2.000000"' in script

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ns2_script("nothing useful here")

    def test_replayed_roundtrip_trajectory(self):
        model = TestTraceRecording().make_model(seed=6)
        trace = record_trace(model, horizon=3.0, sample_dt=0.5)
        reparsed = parse_ns2_script(to_ns2_script(trace))
        a = TraceMobility(trace, AREA)
        b = TraceMobility(reparsed, AREA)
        for _ in range(6):
            a.step(0.5)
            b.step(0.5)
        assert np.allclose(a.positions, b.positions, atol=1e-3)
