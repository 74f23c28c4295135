"""Tests for the sensor-field energy model."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.messages import MessageKind

from energy import EnergyModel, PerNodeStats


class TestPerNodeStats:
    def test_tallies_every_transmitter_per_kind(self):
        s = PerNodeStats(3)
        s.record(MessageKind.VALIDATION, 1, time=0.5, nbytes=8)
        s.record_many(MessageKind.VALIDATION, [1, 2, 1], time=2.5, nbytes=8)
        s.record_many(MessageKind.BACKTRACK, [1])
        s.record_many(MessageKind.QUERY, [])
        assert list(s.per_node(MessageKind.VALIDATION)) == [0, 3, 1]
        assert list(s.per_node()) == [0, 4, 1]
        assert list(s.per_node(MessageKind.FLOOD)) == [0, 0, 0]
        # the MessageStats counters underneath are untouched
        assert s.snapshot() == {"backtrack": 1, "validation": 4}
        assert s.total_bytes() == 32
        assert s.series([MessageKind.VALIDATION], 4.0) == [1 / 3, 1.0]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from(list(MessageKind)),
                st.lists(st.integers(0, 3), max_size=5),
            ),
            max_size=25,
        )
    )
    def test_per_node_equals_per_record_oracle(self, ops):
        """Any interleaving of `record` and `record_many` tallies each
        node exactly once per transmission it made."""
        s = PerNodeStats(4)
        sent = Counter()  # (kind, node) -> transmissions
        for bulk, kind, txs in ops:
            if bulk:
                s.record_many(kind, txs)
            else:
                txs = txs[:1] or [0]
                s.record(kind, txs[0])
            sent.update((kind, u) for u in txs)
        for chosen in ([], [MessageKind.QUERY], list(MessageKind)[:3]):
            want = [0] * 4
            for (kind, node), c in sent.items():
                if not chosen or kind in chosen:
                    want[node] += c
            assert list(s.per_node(*chosen)) == want
        assert s.total() == sum(sent.values())

    def test_reset_clears_the_tally(self):
        s = PerNodeStats(2)
        s.record(MessageKind.QUERY, 0)
        s.reset()
        assert s.total() == 0 and list(s.per_node()) == [0, 0]


class TestEnergyModel:
    def stats_with(self, counts):
        s = PerNodeStats(len(counts))
        for node, c in enumerate(counts):
            s.record_many(MessageKind.QUERY, [node] * c)
        return s

    def test_total_energy_exact(self):
        s = self.stats_with([10, 0, 0, 0])
        model = EnergyModel(tx_cost=1.0, rx_cost=0.5, battery_joules=100.0)
        rep = model.report(s)
        # 10 tx * 1 J + 10 rx * 0.5 J
        assert rep.total == pytest.approx(15.0)

    def test_broadcast_rx_multiplier(self):
        s = self.stats_with([10, 0, 0, 0])
        model = EnergyModel(
            tx_cost=1.0, rx_cost=0.5, mean_degree=4.0, battery_joules=100.0
        )
        assert model.report(s).total == pytest.approx(10.0 + 10 * 4 * 0.5)

    def test_skew_and_hottest(self):
        s = self.stats_with([30, 10, 10, 10])
        model = EnergyModel(tx_cost=1.0, rx_cost=0.0, battery_joules=100.0)
        rep = model.report(s)
        assert rep.hottest_node == 0
        assert rep.peak == pytest.approx(30.0)
        assert rep.skew == pytest.approx(30.0 / 15.0)

    def test_remaining_and_dead(self):
        s = self.stats_with([200, 10])
        model = EnergyModel(tx_cost=1.0, rx_cost=0.0, battery_joules=100.0)
        rep = model.report(s)
        assert list(rep.dead_nodes()) == [0]
        assert rep.remaining_fraction()[0] == 0.0
        assert 0.0 < rep.remaining_fraction()[1] < 1.0

    def test_lifetime_extrapolation(self):
        s = self.stats_with([10, 5])
        model = EnergyModel(tx_cost=1.0, rx_cost=0.0, battery_joules=100.0)
        # hottest spends 10 J over 2 rounds -> 5 J/round -> 20 rounds
        assert model.lifetime_rounds(s, rounds_measured=2.0) == pytest.approx(20.0)

    def test_lifetime_infinite_when_idle(self):
        s = self.stats_with([0, 0])
        model = EnergyModel()
        assert model.lifetime_rounds(s, 1.0) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_cost=0.0)
        with pytest.raises(ValueError):
            EnergyModel(battery_joules=0.0)
