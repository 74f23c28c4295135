"""The network façade: topology + simulated clock + message accounting.

Protocol implementations (CARD, flooding, bordercasting) interact with
the network exclusively through this class:

* :meth:`transmit` — account one hop-transmission of a typed message; this
  is *the* counter behind every overhead figure in the paper;
* :meth:`transmit_path` — the bulk form of :meth:`transmit` that CSQ
  walks and DSQ rounds flush their hop transmitters through;
* :meth:`deliver` — transmit one hop and schedule its receipt (the
  ``des`` regime);
* one-hop accessors (:meth:`neighbors`, :meth:`are_neighbors`)
  delegating to the :class:`~repro.net.topology.Topology`.

By default the façade does not model propagation delay or loss — the
paper's simulations ignore the MAC layer, and all reported metrics are
message *counts* and hop-level reachability; overhead is timestamped by
the timer that triggered it, like the paper's per-interval accounting.
The event-driven (``des``) regime attaches a
:class:`~repro.net.link.LinkModel` so that :meth:`deliver` schedules
receive callbacks on the simulator with per-link latency, jitter and loss
instead of synchronous hop accounting.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.des.engine import EventHandle, Simulator
from repro.net.link import LinkModel
from repro.net.messages import Message, MessageKind
from repro.net.stats import MessageStats
from repro.net.topology import Topology

__all__ = ["Network"]


class Network:
    """Couples a :class:`Topology`, a :class:`Simulator` and message stats.

    Parameters
    ----------
    topology:
        The ground-truth connectivity.
    sim:
        Optional simulator; when omitted a fresh one is created (snapshot
        experiments never advance it).
    link:
        Optional :class:`~repro.net.link.LinkModel`; when present,
        :meth:`deliver` draws per-link delay/loss from it (the ``des``
        regime).  Without one, delivered messages arrive at delay 0.
    """

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        link: Optional[LinkModel] = None,
    ) -> None:
        self.topology = topology
        self.sim = sim if sim is not None else Simulator()
        self.link = link
        self.stats = MessageStats(topology.num_nodes)
        #: ∑ wire_size × delay over scheduled deliveries — the link
        #: occupancy integral the ``des`` overhead metrics report.
        self.byte_seconds = 0.0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def adj(self) -> List[np.ndarray]:
        return self.topology.adj

    def neighbors(self, u: int) -> np.ndarray:
        """Direct (one-hop) neighbors of ``u``."""
        return self.topology.adj[u]

    def are_neighbors(self, u: int, v: int) -> bool:
        return self.topology.are_neighbors(u, v)

    # ------------------------------------------------------------------
    # transmission accounting
    # ------------------------------------------------------------------
    def transmit(
        self,
        message: Message,
        transmitter: int,
        *,
        kind: Optional[MessageKind] = None,
    ) -> None:
        """Account one transmission of ``message`` by ``transmitter`` at
        the simulator clock.

        ``kind`` overrides the message's own category — used when a CSQ hop
        is a *backtrack* rather than forward progress.
        """
        k = kind if kind is not None else message.kind
        self.stats.record(k, transmitter, time=self.sim.now, nbytes=message.wire_size())

    def transmit_path(
        self,
        message: Message,
        transmitters: Sequence[int],
        *,
        kind: Optional[MessageKind] = None,
    ) -> None:
        """Account one transmission per entry of ``transmitters`` at once.

        The bulk counterpart of :meth:`transmit`: a CSQ walk or a query
        escalation round accumulates its hop transmitters and flushes
        them in one call, with repeats allowed.  Counters end up
        identical to per-hop :meth:`transmit` calls at the same clock
        reading.
        """
        k = kind if kind is not None else message.kind
        self.stats.record_many(
            k, transmitters, time=self.sim.now, nbytes=message.wire_size()
        )

    # ------------------------------------------------------------------
    # communication primitives
    # ------------------------------------------------------------------
    def deliver(
        self,
        message: Message,
        sender: int,
        receiver: int,
        on_receive: Callable[..., None],
        *args: Any,
        kind: Optional[MessageKind] = None,
    ) -> Optional[EventHandle]:
        """Transmit ``message`` on ``sender → receiver`` and schedule receipt.

        The transmission is accounted immediately (the sender spent the
        airtime either way); the receive callback ``on_receive(*args)`` is
        scheduled on the simulator after the link's delay.  Returns the
        event handle, or ``None`` when the message is dropped — by the link
        model's loss draw, or because the link is no longer alive (callers
        that care *why* should check :meth:`are_neighbors` first; that is
        how the ``des`` runner separates staleness drops from channel
        loss).
        """
        self.transmit(message, sender, kind=kind)
        if not self.are_neighbors(int(sender), int(receiver)):
            return None
        delay = 0.0
        if self.link is not None:
            if self.link.lost(sender, receiver):
                return None
            delay = self.link.delay(sender, receiver, message.wire_size())
        self.byte_seconds += message.wire_size() * delay
        return self.sim.schedule(delay, on_receive, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.topology!r}, t={self.sim.now:.6g})"
