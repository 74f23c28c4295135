"""Energy accounting: turning message counts into battery drain.

The paper's efficiency requirement (b) is energy-motivated: "nodes ...
comprise portable devices with limited battery power.  Therefore, resource
discovery mechanisms should be efficient in terms of messages transmitted"
(§III.A).  This module converts :class:`~repro.net.stats.MessageStats`
counters into a first-order energy model so the sensor-field example can
report battery impact, not just message tallies:

* per-transmission and per-reception costs (defaults from the classic
  WaveLAN measurements: sending is ~1.6×, receiving ~1× in microjoules per
  byte; we work per-message with a fixed control-message size);
* per-node depletion, network lifetime estimates (time until first death),
  and the energy-skew metric (max/mean), which predicts hot-spot failure.

The model deliberately ignores idle listening (identical across schemes
being compared) — documented, because idle power dominates real radios and
including it would only add a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.net.messages import MessageKind
from repro.net.stats import MessageStats
from repro.util.validation import check_non_negative, check_positive

__all__ = ["EnergyModel", "EnergyReport"]


@dataclass(frozen=True)
class EnergyReport:
    """Per-node energy expenditure summary (joules)."""

    per_node: np.ndarray
    battery_joules: float

    @property
    def total(self) -> float:
        return float(self.per_node.sum())

    @property
    def mean(self) -> float:
        return float(self.per_node.mean()) if self.per_node.size else 0.0

    @property
    def peak(self) -> float:
        return float(self.per_node.max()) if self.per_node.size else 0.0

    @property
    def skew(self) -> float:
        """Peak-to-mean ratio — the hot-spot indicator."""
        return self.peak / self.mean if self.mean > 0 else 0.0

    @property
    def hottest_node(self) -> int:
        return int(np.argmax(self.per_node)) if self.per_node.size else -1

    def remaining_fraction(self) -> np.ndarray:
        """Per-node remaining battery fraction (clipped at 0)."""
        return np.clip(1.0 - self.per_node / self.battery_joules, 0.0, 1.0)

    def dead_nodes(self) -> np.ndarray:
        """Nodes whose expenditure exceeds the battery."""
        return np.flatnonzero(self.per_node >= self.battery_joules)


class EnergyModel:
    """Converts message counters to joules.

    Parameters
    ----------
    tx_cost, rx_cost:
        Joules per transmitted / received control message.  Defaults model
        a ~120-byte control packet on a WaveLAN-class radio (1.9 µJ/byte
        tx, 1.1 µJ/byte rx → ~230 µJ / ~130 µJ per message).
    mean_degree:
        Receptions charged per broadcast-medium transmission (every
        neighbor's radio decodes the frame).  When None, receptions are
        charged per *intended* receiver only (unicast reading).
    battery_joules:
        Battery budget used by lifetime estimates.
    """

    def __init__(
        self,
        *,
        tx_cost: float = 230e-6,
        rx_cost: float = 130e-6,
        mean_degree: Optional[float] = None,
        battery_joules: float = 1.0,
    ) -> None:
        check_positive("tx_cost", tx_cost)
        check_non_negative("rx_cost", rx_cost)
        check_positive("battery_joules", battery_joules)
        if mean_degree is not None:
            check_non_negative("mean_degree", mean_degree)
        self.tx_cost = float(tx_cost)
        self.rx_cost = float(rx_cost)
        self.mean_degree = mean_degree
        self.battery_joules = float(battery_joules)

    # ------------------------------------------------------------------
    def report(
        self,
        stats: MessageStats,
        kinds: Optional[Sequence[MessageKind]] = None,
    ) -> EnergyReport:
        """Energy spent per node for the given categories (default: all).

        Transmission energy is attributed exactly (per-node counters);
        reception energy is attributed uniformly (the accounting layer
        does not track who received what), which keeps the *total* exact
        and only smooths the per-node reception component.
        """
        tx = stats.per_node(*(kinds or ()))
        per_node = tx.astype(np.float64) * self.tx_cost
        receivers = 1.0 if self.mean_degree is None else float(self.mean_degree)
        total_rx_energy = float(tx.sum()) * receivers * self.rx_cost
        if stats.num_nodes:
            per_node += total_rx_energy / stats.num_nodes
        return EnergyReport(per_node=per_node, battery_joules=self.battery_joules)

    def lifetime_rounds(
        self,
        stats: MessageStats,
        rounds_measured: float,
        kinds: Optional[Sequence[MessageKind]] = None,
    ) -> float:
        """Rounds until the hottest node dies, extrapolating linearly.

        ``rounds_measured`` is however many protocol rounds (validation
        cycles, queries, seconds — caller's unit) produced the counters.
        """
        check_positive("rounds_measured", rounds_measured)
        rep = self.report(stats, kinds)
        if rep.peak <= 0:
            return float("inf")
        per_round = rep.peak / rounds_measured
        return self.battery_joules / per_round

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnergyModel(tx={self.tx_cost:g}J, rx={self.rx_cost:g}J, "
            f"battery={self.battery_joules:g}J)"
        )
