"""Tests for the sensor-field energy model."""

import pytest

from repro.net.messages import MessageKind
from repro.net.stats import MessageStats

from energy import EnergyModel


class TestEnergyModel:
    def stats_with(self, counts):
        s = MessageStats(len(counts))
        for node, c in enumerate(counts):
            if c:
                s.record(MessageKind.QUERY, node, count=c)
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
