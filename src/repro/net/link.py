"""Per-link channel model for the event-driven (``des``) regime.

The snapshot and series regimes count messages but deliver them
instantaneously — fine for overhead figures, useless for latency or for
races between in-flight queries and topology churn.  The ``des`` regime
models each link as a lossy, delaying channel:

* **latency** — fixed propagation/processing delay per hop;
* **jitter** — uniform extra delay in ``[0, jitter]``, desynchronizing
  otherwise lock-stepped transmissions;
* **loss** — independent per-transmission drop probability;
* **bandwidth** — optional bytes/second serialization term, turning
  message *size* into extra delay (and making byte-seconds a meaningful
  occupancy integral).

Determinism: every ordered link ``(u, v)`` owns its own named RNG stream
spawned from the root seed, so the delay/loss draws of one link never
depend on how many messages other links carried — the same property the
rest of the simulator gets from :class:`repro.util.rng.RngStreams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["LinkSpec", "LinkModel"]


@dataclass(frozen=True)
class LinkSpec:
    """Channel parameters shared by every link of a network.

    Attributes
    ----------
    latency:
        Fixed per-hop delay, seconds.
    jitter:
        Upper bound of the uniform extra delay, seconds (0 = none).
    loss:
        Per-transmission drop probability in ``[0, 1]``.
    bandwidth:
        Bytes per second; ``None`` disables the serialization term.
    """

    latency: float = 0.002
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        check_non_negative("latency", self.latency)
        check_non_negative("jitter", self.jitter)
        check_probability("loss", self.loss)
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive (or None)")


class LinkModel:
    """Draws per-transmission delay and loss from per-link RNG streams."""

    def __init__(self, spec: LinkSpec, seed: Optional[int] = None) -> None:
        self.spec = spec
        self.seed = seed
        self._streams: Dict[Tuple[int, int], np.random.Generator] = {}

    def _stream(self, u: int, v: int) -> np.random.Generator:
        key = (int(u), int(v))
        rng = self._streams.get(key)
        if rng is None:
            rng = spawn_rng(self.seed, "link", key[0], key[1])
            self._streams[key] = rng
        return rng

    def delay(self, u: int, v: int, nbytes: int = 0) -> float:
        """Transmission delay of an ``nbytes`` message on link ``u → v``."""
        s = self.spec
        d = s.latency
        if s.bandwidth is not None and nbytes > 0:
            d += nbytes / s.bandwidth
        if s.jitter > 0.0:
            d += float(self._stream(u, v).uniform(0.0, s.jitter))
        return d

    def lost(self, u: int, v: int) -> bool:
        """Whether this transmission on ``u → v`` is dropped.

        Draw-free when ``loss == 0`` so lossless configurations consume no
        randomness (and stay bit-identical to pre-link-model runs).
        """
        s = self.spec
        if s.loss <= 0.0:
            return False
        return bool(self._stream(u, v).random() < s.loss)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkModel({self.spec!r}, seed={self.seed})"
