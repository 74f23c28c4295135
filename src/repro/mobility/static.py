"""The trivial mobility model: nobody moves.

The :class:`~repro.mobility.base.MobilityDriver` test double and a
baseline in tests: keeping it as a real model (rather than special-casing
"no mobility" in the driver) means the same code runs static and mobile
scenarios.  The paper motivates this case explicitly: the
mobility-assisted contact scheme of [13] "may not be suitable for static
sensor networks", which CARD targets too.
"""

from __future__ import annotations

# card-lint: disable-file=CARD-R01 -- the MobilityDriver test double; snapshot
# cells move no node, so no entry point imports it
import numpy as np

from repro.mobility.base import MobilityModel

__all__ = ["StaticMobility"]


class StaticMobility(MobilityModel):
    """Positions are constant; ``step`` is a no-op returning them."""

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError("dt must be >= 0")
        return self.positions
