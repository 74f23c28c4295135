"""The paper's primary contribution: the CARD protocol.

Modules
-------
* :mod:`repro.core.params` — :class:`CARDParams`, the full knob set of the
  paper (R, r, NoC, D, selection method, maintenance timers);
* :mod:`repro.core.state` — per-node contact tables (contact id + stored
  source route + bookkeeping);
* :mod:`repro.core.selection` — the Contact Selection Query: depth-first
  random walk through edge nodes with backtracking, and the two admission
  methods (Probabilistic eq.1/eq.2, Edge);
* :mod:`repro.core.maintenance` — periodic contact validation along the
  stored route, local recovery, the 2R..r path-length rule, and
  re-selection of lost contacts;
* :mod:`repro.core.query` — the Destination Search Query: depth-D querying
  through levels of contacts with sequential escalation;
* :mod:`repro.core.protocol` — :class:`CARDProtocol`, tying the above to a
  network, neighborhood tables and the DES;
* :mod:`repro.core.reachability` — the paper's reachability metric and its
  5 %-bin distribution;
* :mod:`repro.core.runner` — :class:`SnapshotRunner` (static topology,
  Figs 3-9, 14) and :class:`TimeSeriesRunner` (mobility + maintenance,
  Figs 10-13: the des engine with no query workload, plus a bin sampler);
* :mod:`repro.core.des_runner` — :class:`DesRunner`, the event-driven
  message-level regime (per-link latency/loss, query timeout/retry,
  staleness races; the NS-2-style evaluation) and the one engine every
  mobile run uses.
"""

from repro.core.params import CARDParams, SelectionMethod
from repro.core.state import Contact, ContactTable
from repro.core.selection import ContactSelector, SelectionOutcome
from repro.core.maintenance import ContactMaintainer, ValidationOutcome
from repro.core.query import QueryEngine, QueryResult
from repro.core.protocol import CARDProtocol
from repro.core.reachability import (
    reachability_all,
    reachability_distribution,
    DIST_BIN_EDGES,
)
from repro.core.runner import SnapshotRunner, SnapshotResult, TimeSeriesRunner, TimeSeriesResult
from repro.core.des_runner import DesRunner, DesResult

__all__ = [
    "CARDParams",
    "SelectionMethod",
    "Contact",
    "ContactTable",
    "ContactSelector",
    "SelectionOutcome",
    "ContactMaintainer",
    "ValidationOutcome",
    "QueryEngine",
    "QueryResult",
    "CARDProtocol",
    "reachability_all",
    "reachability_distribution",
    "DIST_BIN_EDGES",
    "SnapshotRunner",
    "SnapshotResult",
    "TimeSeriesRunner",
    "TimeSeriesResult",
    "DesRunner",
    "DesResult",
]
