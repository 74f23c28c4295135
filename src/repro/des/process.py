"""Recurring processes on top of the event loop.

MANET control planes are full of periodic behaviour: CARD's contact
validation timers, the mobility integrator's position updates.
:class:`PeriodicProcess` packages the schedule-fire-reschedule pattern
once, with two features the protocols need:

* **phase jitter** — real nodes are never synchronized; an optional jitter
  fraction draws each firing offset from ``[-j, +j] * period`` so that
  thundering herds (every node validating at exactly t=2,4,6 s) do not
  produce artificial message bursts;
* **clean teardown** — :meth:`PeriodicProcess.stop` cancels the pending
  event, so a simulation can drop a node (failure injection) without leaving
  orphan timers behind.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.des.engine import EventHandle, Simulator
from repro.util.validation import check_in_range, check_positive

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """Fire ``callback()`` every ``period`` seconds, with optional jitter.

    Parameters
    ----------
    sim:
        The simulator to schedule on.
    period:
        Nominal interval between firings (seconds).
    callback:
        Zero-argument callable invoked at each firing.
    jitter:
        Fraction of ``period`` (in ``[0, 0.5]``) by which each interval is
        uniformly perturbed.  ``0`` (default) gives exact periodicity.
    rng:
        Random generator used for jitter; required when ``jitter > 0``.
    start_delay:
        Delay before the first firing; defaults to one (jittered) period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        start_delay: Optional[float] = None,
    ) -> None:
        check_positive("period", period)
        check_in_range("jitter", jitter, 0.0, 0.5)
        if jitter > 0.0 and rng is None:
            raise ValueError("jitter > 0 requires an rng")
        self.sim = sim
        self.period = float(period)
        self.callback: Optional[Callable[[], None]] = callback
        self.jitter = float(jitter)
        self.rng = rng
        #: count of completed firings
        self.fired = 0
        self._handle: Optional[EventHandle] = None
        self._stopped = False
        first = self._interval() if start_delay is None else float(start_delay)
        self._handle = sim.schedule(first, self._fire)

    def _interval(self) -> float:
        if self.jitter <= 0.0:
            return self.period
        assert self.rng is not None
        lo = self.period * (1.0 - self.jitter)
        hi = self.period * (1.0 + self.jitter)
        return float(self.rng.uniform(lo, hi))

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self.callback()
        if not self._stopped:  # callback may have stopped us
            self._handle = self.sim.schedule(self._interval(), self._fire)

    def stop(self) -> None:
        """Cancel the pending firing and suppress all future ones."""
        self._stopped = True
        # the callback usually closes over the process's owner, which holds
        # the process: drop it to break that cycle, as EventHandle.cancel does
        self.callback = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"PeriodicProcess(period={self.period}, fired={self.fired}, {state})"
