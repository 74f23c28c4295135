"""Failure injection: scheduled node crashes and recoveries.

The paper's requirement (c) is *robustness* — "the mechanism should be
robust to handle frequent link failures due to mobility".  Mobility is one
source of link failure; dead radios (battery exhaustion in sensor fields,
destroyed units in the battlefield scenario) are the harsher one.  This
module drives :meth:`repro.net.topology.Topology.set_active` from the DES
so experiments can measure how CARD's validation/local-recovery/replacement
loop absorbs crashes:

* :class:`FailureInjector.fail_at` / ``recover_at`` — deterministic
  scripted failures;
* :meth:`FailureInjector.schedule_random_failures` — a Poisson-ish crash
  process over a node population;
* listeners — the same hook mechanism the mobility driver uses, so
  protocol state that caches connectivity can be notified.

Failed nodes keep their index (ids are stable) but hold no links, receive
nothing and transmit nothing.  CARD state *at* a failed node is not erased
— when the node recovers it still remembers its contacts, and the next
validation round decides whether they are still valid, which is exactly
the behaviour a rebooting device would exhibit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.des.engine import EventHandle, Simulator
from repro.net.topology import Topology
from repro.util.validation import check_non_negative, check_positive

__all__ = ["FailureInjector"]


class FailureInjector:
    """Schedules node failures/recoveries on a topology inside a DES run."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        on_change: Optional[List[Callable[[], None]]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.on_change: List[Callable[[], None]] = list(on_change or [])
        #: (time, node, alive) log of every applied transition
        self.log: List[tuple] = []
        self._handles: List[EventHandle] = []

    # ------------------------------------------------------------------
    def _apply(self, node: int, alive: bool) -> None:
        if self.topology.is_active(node) == alive:
            return
        self.topology.set_active(node, alive)
        self.log.append((self.sim.now, int(node), bool(alive)))
        for cb in self.on_change:
            cb()

    def fail_at(self, time: float, node: int) -> EventHandle:
        """Crash ``node`` at the given absolute simulation time."""
        check_non_negative("time", time)
        handle = self.sim.schedule_at(time, self._apply, int(node), False)
        self._handles.append(handle)
        return handle

    def recover_at(self, time: float, node: int) -> EventHandle:
        """Bring ``node`` back up at the given absolute simulation time."""
        check_non_negative("time", time)
        handle = self.sim.schedule_at(time, self._apply, int(node), True)
        self._handles.append(handle)
        return handle

    def fail_now(self, node: int) -> None:
        """Immediate crash (usable outside a running simulation too)."""
        self._apply(int(node), False)

    def recover_now(self, node: int) -> None:
        self._apply(int(node), True)

    # ------------------------------------------------------------------
    def schedule_random_failures(
        self,
        rng: np.random.Generator,
        *,
        rate: float,
        horizon: float,
        candidates: Optional[Sequence[int]] = None,
        mttr: Optional[float] = None,
    ) -> int:
        """Schedule exponential-interarrival crashes over ``[now, horizon)``.

        Parameters
        ----------
        rate:
            Expected crashes per simulated second (whole population).
        horizon:
            Absolute end time; no failures are scheduled at or beyond it.
        candidates:
            Nodes eligible to crash (default: all).  A node can be chosen
            more than once only if it recovers in between (``mttr``).
        mttr:
            Mean time to repair; when given, each crash schedules an
            exponentially distributed recovery.  ``None`` = crashes are
            permanent.

        Returns the number of crash events scheduled.
        """
        check_positive("rate", rate)
        check_positive("horizon", horizon)
        if mttr is not None:
            check_positive("mttr", mttr)
        pool = (
            list(range(self.topology.num_nodes))
            if candidates is None
            else [int(c) for c in candidates]
        )
        if not pool:
            return 0
        t = self.sim.now
        count = 0
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= horizon:
                break
            node = int(pool[int(rng.integers(len(pool)))])
            self.fail_at(t, node)
            count += 1
            if mttr is not None:
                self.recover_at(t + float(rng.exponential(mttr)), node)
        return count

    # ------------------------------------------------------------------
    def cancel_all(self) -> None:
        """Cancel every not-yet-fired scheduled transition."""
        for h in self._handles:
            h.cancel()
        self._handles.clear()

    @property
    def failed_nodes(self) -> np.ndarray:
        """Currently-failed node ids."""
        return np.flatnonzero(~self.topology.active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FailureInjector(failed={len(self.failed_nodes)}, "
            f"events={len(self.log)})"
        )
