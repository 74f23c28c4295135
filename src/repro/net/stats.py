"""Control-message accounting.

Every overhead figure in the paper (Figs 4, 10-15) is a count of control
messages, attributed to a category and often binned over time.  This module
centralizes that accounting:

* per-category totals (selection, backtracking, validation, query, ...),
* per-category byte totals (the ``des`` regime's wire sizes),
* per-time-bin series (Figs 10-13 plot messages per 2-second window).

That is everything a figure reads: the paper's "overhead per node" is
always a total divided by N, so no per-node count is kept.

A single :class:`MessageStats` instance is owned by the
:class:`repro.net.network.Network` façade; protocol code records through
``network.transmit_path(...)`` (``network.deliver(...)`` in the ``des``
regime) and never touches counters directly, so a message can never be
double- or un-counted.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.messages import MessageKind

__all__ = ["MessageStats", "OVERHEAD_CATEGORIES"]

#: Categories that the paper's "total overhead" figures aggregate
#: (contact selection incl. backtracking + maintenance; §IV.B).
OVERHEAD_CATEGORIES = (
    MessageKind.CONTACT_SELECTION,
    MessageKind.BACKTRACK,
    MessageKind.VALIDATION,
)


class _KindCounters:
    """Everything counted for one :class:`MessageKind`."""

    __slots__ = ("total", "nbytes", "series")

    def __init__(self) -> None:
        self.total = 0
        self.nbytes = 0
        #: time-bin index → transmissions in that bin
        self.series: Dict[int, int] = defaultdict(int)


class MessageStats:
    """Counters for control-message transmissions.

    Parameters
    ----------
    num_nodes:
        Network size; :meth:`series` reports messages per node.
    time_bin:
        Width (seconds) of the time-series bins.  The paper's time plots use
        2-second ticks.
    """

    def __init__(self, num_nodes: int, time_bin: float = 2.0) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if time_bin <= 0:
            raise ValueError("time_bin must be positive")
        self.num_nodes = int(num_nodes)
        self.time_bin = float(time_bin)
        # one record per kind, so recording costs a single enum-keyed
        # lookup (enum hashing is a Python-level call)
        self._kinds: Dict[MessageKind, _KindCounters] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _add(self, kind: MessageKind, count: int, time, nbytes: int) -> None:
        c = self._kinds.get(kind)
        if c is None:
            c = self._kinds[kind] = _KindCounters()
        c.total += count
        if nbytes:
            c.nbytes += count * int(nbytes)
        if time is not None:
            c.series[int(time // self.time_bin)] += count

    def record(
        self,
        kind: MessageKind,
        transmitter: int,
        time: Optional[float] = None,
        nbytes: int = 0,
    ) -> None:
        """Record one transmission of category ``kind`` by ``transmitter``.

        ``nbytes`` is the message's wire size; when given, it accumulates
        into the byte totals (queried via :meth:`total_bytes`).
        """
        self._add(kind, 1, time, nbytes)

    def record_many(
        self,
        kind: MessageKind,
        transmitters: Sequence[int],
        time: Optional[float] = None,
        nbytes: int = 0,
    ) -> None:
        """Record one transmission per entry of ``transmitters`` at ``time``.

        The bulk form of :meth:`record` behind ``Network.transmit_path``:
        repeats are allowed (a node transmitting k hops appears k times),
        and the counters end up identical to one :meth:`record` per entry.
        An empty ``transmitters`` records nothing, not even the category.
        """
        count = len(transmitters)
        if count:
            self._add(kind, count, time, nbytes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _selected(self, kinds: Sequence[MessageKind]) -> List[_KindCounters]:
        """Counters of the given categories that recorded anything (all
        recorded categories if none given)."""
        if not kinds:
            return list(self._kinds.values())
        return [self._kinds[k] for k in kinds if k in self._kinds]

    def total(self, *kinds: MessageKind) -> int:
        """Total messages across the given categories (all if none given)."""
        return sum(c.total for c in self._selected(kinds))

    def total_bytes(self, *kinds: MessageKind) -> int:
        """Total bytes transmitted across the given categories (all if none).

        Only transmissions recorded with an ``nbytes`` argument contribute;
        the snapshot/series engines pass none and report pure counts.
        """
        return sum(c.nbytes for c in self._selected(kinds))

    def series(
        self,
        kinds: Sequence[MessageKind],
        horizon: float,
    ) -> List[float]:
        """Messages-per-node in each time bin of ``[0, horizon)``.

        Returns one value per bin, matching the x-axes of Figs 10-13
        (t = 2, 4, 6, ... seconds for the default 2 s bin).
        """
        nbins = int(np.ceil(horizon / self.time_bin))
        out = [0.0] * nbins
        for c in self._selected(kinds):
            for b, count in c.series.items():
                if 0 <= b < nbins:
                    out[b] += count
        return [v / self.num_nodes for v in out]

    def snapshot(self) -> Dict[str, int]:
        """Category → total, for reporting."""
        totals = {k.value: c.total for k, c in self._kinds.items()}
        return dict(sorted(totals.items()))

    def reset(self) -> None:
        """Zero all counters (used between measurement phases)."""
        self._kinds.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageStats(N={self.num_nodes}, totals={self.snapshot()})"
