"""The result type every baseline discovery scheme reports.

The Fig 15 cell runs the same (source, target) workload through every
scheme; one result type keeps the accounting honest — all schemes count
*forward control transmissions* and exclude replies, matching the
convention used for CARD's querying traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DiscoveryResult"]


@dataclass
class DiscoveryResult:
    """Outcome of one discovery attempt."""

    source: int
    target: int
    success: bool
    #: forward control transmissions spent on this query
    msgs: int
    #: free-form detail (TTL reached, depth found, rounds used, ...)
    detail: Optional[str] = None
    #: receptions caused by those transmissions.  ``None`` means unicast
    #: semantics (one reception per transmission).  Broadcast schemes set
    #: this to the sum of the transmitters' degrees — NS-2-style "traffic"
    #: counts both directions, and the tx/rx asymmetry between broadcast
    #: flooding and CARD's unicast walks is most of the paper's Fig 15 gap.
    rx_events: Optional[int] = None

    @property
    def radio_events(self) -> int:
        """Transmissions + receptions (the NS-2-like traffic metric)."""
        rx = self.msgs if self.rx_events is None else self.rx_events
        return self.msgs + rx
