"""Baseline resource-discovery schemes the paper compares CARD against.

* :mod:`repro.discovery.flooding` — blind network-wide flooding (the
  reactive-protocol search primitive of DSR/AODV);
* :mod:`repro.discovery.expanding_ring` — TTL-escalated flooding, the
  classic refinement the paper contrasts with CARD's depth-of-search
  escalation (§III.C.4);
* :mod:`repro.discovery.bordercast` — ZRP bordercasting per Pearlman &
  Haas [8], with query detection QD1 (relay marking) and QD2 (overhearing),
  exactly the configuration the paper's Fig 15 uses.

Each scheme answers ``query(source, target)`` with a
:class:`repro.discovery.base.DiscoveryResult`; the Fig 15 and query
ablation cells (:mod:`repro.campaign.runner`) call them directly.
"""

from repro.discovery.base import DiscoveryResult
from repro.discovery.flooding import FloodingDiscovery
from repro.discovery.expanding_ring import ExpandingRingDiscovery
from repro.discovery.bordercast import BordercastDiscovery, QDMode

__all__ = [
    "DiscoveryResult",
    "FloodingDiscovery",
    "ExpandingRingDiscovery",
    "BordercastDiscovery",
    "QDMode",
]
