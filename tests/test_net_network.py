"""Tests for the Network façade."""

import pytest

from repro.net.messages import FloodQuery, MessageKind
from repro.net.network import Network
from tests.conftest import line_topology


@pytest.fixture
def net():
    return Network(line_topology(6))


class TestTransmit:
    def test_records_message_kind(self, net):
        net.transmit(FloodQuery(source=0, target=1), 0)
        assert net.stats.total(MessageKind.FLOOD) == 1

    def test_kind_override(self, net):
        net.transmit(FloodQuery(source=0, target=1), 0, kind=MessageKind.BACKTRACK)
        assert net.stats.total(MessageKind.FLOOD) == 0
        assert net.stats.total(MessageKind.BACKTRACK) == 1

    def test_timestamps_default_to_clock(self, net):
        net.sim.schedule(4.0, lambda: net.transmit(FloodQuery(source=0, target=1), 0))
        net.sim.run()
        assert net.stats.series([MessageKind.FLOOD], horizon=6.0) == [0.0, 0.0, 1.0 / 6]


class TestMisc:
    def test_neighbors_view(self, net):
        assert list(net.neighbors(0)) == [1]

    def test_num_nodes(self, net):
        assert net.num_nodes == 6


class TestLinkModelAndDeliver:
    def _net(self, **link_kw):
        from repro.net.link import LinkModel, LinkSpec

        return Network(line_topology(6), link=LinkModel(LinkSpec(**link_kw), seed=0))

    def test_deliver_schedules_after_latency(self):
        net = self._net(latency=0.25)
        got = []
        net.deliver(FloodQuery(source=0, target=1), 0, 1, lambda: got.append(net.sim.now))
        net.sim.run()
        assert got == [0.25]

    def test_deliver_counts_transmission_even_on_drop(self):
        net = self._net(latency=0.1, loss=1.0)
        h = net.deliver(FloodQuery(source=0, target=1), 0, 1, lambda: None)
        assert h is None
        assert net.stats.total(MessageKind.FLOOD) == 1

    def test_deliver_dead_link_returns_none(self):
        net = self._net(latency=0.1)
        h = net.deliver(FloodQuery(source=0, target=3), 0, 3, lambda: None)
        assert h is None

    def test_no_link_model_delivers_at_zero_delay(self):
        net = Network(line_topology(6))
        net.sim.run(until=1.5)
        got = []
        net.deliver(FloodQuery(source=0, target=1), 0, 1, lambda: got.append(net.sim.now))
        net.sim.run()
        assert got == [1.5]
        assert net.byte_seconds == 0.0

    def test_byte_seconds_accumulates(self):
        net = self._net(latency=0.5)
        msg = FloodQuery(source=0, target=1)
        net.deliver(msg, 0, 1, lambda: None)
        assert net.byte_seconds == pytest.approx(msg.wire_size() * 0.5)

    def test_bandwidth_adds_serialization_delay(self):
        net = self._net(latency=0.0, bandwidth=100.0)
        msg = FloodQuery(source=0, target=1)
        got = []
        net.deliver(msg, 0, 1, lambda: got.append(net.sim.now))
        net.sim.run()
        assert got == [pytest.approx(msg.wire_size() / 100.0)]

    def test_loss_and_jitter_deterministic_per_link(self):
        from repro.net.link import LinkModel, LinkSpec

        def draws(seed):
            lm = LinkModel(LinkSpec(latency=0.01, jitter=0.02, loss=0.3), seed=seed)
            return [
                (lm.lost(0, 1), lm.delay(0, 1, 20)) for _ in range(20)
            ] + [(lm.lost(2, 3), lm.delay(2, 3, 20)) for _ in range(5)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_per_link_streams_independent_of_other_links(self):
        # draws on (0,1) must not shift when another link consumes draws
        from repro.net.link import LinkModel, LinkSpec

        a = LinkModel(LinkSpec(latency=0.01, jitter=0.05), seed=3)
        b = LinkModel(LinkSpec(latency=0.01, jitter=0.05), seed=3)
        for _ in range(10):
            b.delay(4, 5, 0)  # interleave traffic on an unrelated link
        assert [a.delay(0, 1, 0) for _ in range(5)] == [
            b.delay(0, 1, 0) for _ in range(5)
        ]

    def test_lossless_spec_is_draw_free(self):
        from repro.net.link import LinkModel, LinkSpec

        lm = LinkModel(LinkSpec(latency=0.01), seed=1)
        assert not lm.lost(0, 1)
        assert lm._streams == {}

    def test_invalid_specs_rejected(self):
        from repro.net.link import LinkSpec

        with pytest.raises(ValueError):
            LinkSpec(latency=-1.0)
        with pytest.raises(ValueError):
            LinkSpec(loss=1.5)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0)
