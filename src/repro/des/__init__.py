"""A small, deterministic discrete-event simulation (DES) engine.

The paper evaluates CARD in NS-2; this package is our substitute substrate.
It provides exactly what the protocol stack needs and nothing more:

* a :class:`~repro.des.engine.Simulator` with a binary-heap event queue,
  a monotonically advancing clock, and *deterministic* FIFO tie-breaking for
  simultaneous events (so seeded runs are bit-reproducible);
* one-shot scheduling (:meth:`Simulator.schedule`), absolute-time scheduling
  (:meth:`Simulator.schedule_at`) and cancellable handles;
* :class:`~repro.des.process.PeriodicProcess` for recurring protocol actions
  (contact validation, mobility steps), with optional phase
  jitter so all nodes do not fire in lock-step.

The engine is MAC-free and transmission-time-free by default (events model
per-hop forwarding decisions), matching the paper's "no MAC-layer issues"
simulation setup; per-hop latency can still be modelled by scheduling with
non-zero delays.
"""

from repro.des.engine import Simulator, EventHandle
from repro.des.process import PeriodicProcess

__all__ = ["Simulator", "EventHandle", "PeriodicProcess"]
