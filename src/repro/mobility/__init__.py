"""Mobility models.

The paper's evaluation uses the **random way-point** model (§IV); it is
implemented here together with a bounded random walk and Gauss-Markov,
which cover the paper's future-work note that "different mobility
models may have different effects on performance of CARD" (§IV.B footnote).

All models share the :class:`~repro.mobility.base.MobilityModel` interface:
``step(dt)`` advances every node and returns the new ``(N, 2)`` position
array; models are vectorized over nodes (no per-node Python loops in the
integrator) and draw from a caller-supplied seeded generator.
"""

from repro.mobility.base import MobilityModel, MobilityDriver
from repro.mobility.waypoint import RandomWaypoint
from repro.mobility.walk import RandomWalk
from repro.mobility.gauss_markov import GaussMarkov

__all__ = [
    "MobilityModel",
    "MobilityDriver",
    "RandomWaypoint",
    "RandomWalk",
    "GaussMarkov",
]
