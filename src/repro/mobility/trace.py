"""Mobility traces: NS-2 ``setdest`` export and deterministic replay.

The paper generated its scenarios with NS-2 utilities; interchange with
that world is still occasionally useful (replaying a published trace, or
feeding our RWP trajectories to another simulator).  This module provides:

* :func:`record_trace` — run any :class:`MobilityModel` for a horizon and
  record per-node waypoint segments;
* :func:`to_ns2_script` / :func:`parse_ns2_script` — the classic
  ``$node_(i) setdest x y speed`` Tcl line format (plus initial
  ``set X_/Y_`` positions);
* :class:`TraceMobility` — a MobilityModel that replays a trace, making
  recorded runs bit-reproducible across models and tools.

Traces are piecewise-linear: each segment moves a node from its current
position toward (x, y) at a constant speed, matching both setdest
semantics and our RWP integrator.
"""

from __future__ import annotations

# card-lint: disable-file=CARD-R01,CARD-R02 -- replaying a recorded trace is
# not a cell option yet, so only tests reach this module; ROADMAP [9] makes
# it MobilitySpec(model="trace"), with the trace file content in the cell hash
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.mobility.base import MobilityModel
from repro.util.validation import check_positive

__all__ = [
    "TraceSegment",
    "MobilityTrace",
    "record_trace",
    "to_ns2_script",
    "parse_ns2_script",
    "TraceMobility",
]


@dataclass(frozen=True)
class TraceSegment:
    """One setdest command: at ``time``, head to (x, y) at ``speed``."""

    time: float
    x: float
    y: float
    speed: float


@dataclass
class MobilityTrace:
    """Initial positions plus per-node segment lists."""

    initial: np.ndarray  # (N, 2)
    segments: Dict[int, List[TraceSegment]] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.initial.shape[0]

    def add(self, node: int, segment: TraceSegment) -> None:
        self.segments.setdefault(int(node), []).append(segment)

    def sorted_segments(self, node: int) -> List[TraceSegment]:
        return sorted(self.segments.get(int(node), ()), key=lambda s: s.time)


def record_trace(
    model: MobilityModel, horizon: float, sample_dt: float = 0.5
) -> MobilityTrace:
    """Sample a model's trajectories into a piecewise-linear trace.

    Positions are sampled every ``sample_dt`` and consecutive samples are
    turned into constant-speed segments; replaying the trace through
    :class:`TraceMobility` with any step size reproduces the sampled
    positions at the sample instants exactly.
    """
    check_positive("horizon", horizon)
    check_positive("sample_dt", sample_dt)
    # Absolute sample times by multiplication, never accumulation: summing
    # sample_dt drifts, and a horizon that is "almost" a multiple of
    # sample_dt then leaves a sliver step with dt ~ 1e-12 whose
    # dist / dt explodes into absurd exported speeds.  A final partial
    # step shorter than a relative epsilon of sample_dt is merged into the
    # previous sample instead.
    nsteps = int(np.ceil(horizon / sample_dt - 1e-9))
    times = [min(float(horizon), (i + 1) * float(sample_dt)) for i in range(nsteps)]
    if len(times) >= 2 and times[-1] - times[-2] < 1e-6 * sample_dt:
        del times[-2]
    trace = MobilityTrace(initial=np.array(model.positions, copy=True))
    prev = np.array(model.positions, copy=True)
    t = 0.0
    for t_next in times:
        dt = t_next - t
        cur = np.array(model.step(dt), copy=True)
        delta = cur - prev
        dist = np.hypot(delta[:, 0], delta[:, 1])
        for node in np.flatnonzero(dist > 1e-12):
            trace.add(
                int(node),
                TraceSegment(
                    time=t,
                    x=float(cur[node, 0]),
                    y=float(cur[node, 1]),
                    speed=float(dist[node] / dt),
                ),
            )
        prev = cur
        t = t_next
    return trace


def to_ns2_script(trace: MobilityTrace) -> str:
    """Render a trace as NS-2 setdest Tcl lines."""
    lines: List[str] = []
    for node in range(trace.num_nodes):
        x, y = trace.initial[node]
        lines.append(f"$node_({node}) set X_ {x:.6f}")
        lines.append(f"$node_({node}) set Y_ {y:.6f}")
    for node in range(trace.num_nodes):
        for seg in trace.sorted_segments(node):
            lines.append(
                f'$ns_ at {seg.time:.6f} "$node_({node}) setdest '
                f'{seg.x:.6f} {seg.y:.6f} {seg.speed:.6f}"'
            )
    return "\n".join(lines) + "\n"

_RE_INIT = re.compile(
    r"\$node_\((\d+)\)\s+set\s+([XY])_\s+([-\d.eE+]+)"
)
_RE_SETDEST = re.compile(
    r"\$ns_\s+at\s+([-\d.eE+]+)\s+\"\$node_\((\d+)\)\s+setdest\s+"
    r"([-\d.eE+]+)\s+([-\d.eE+]+)\s+([-\d.eE+]+)\""
)


def parse_ns2_script(text: str) -> MobilityTrace:
    """Parse the subset of setdest Tcl produced by :func:`to_ns2_script`."""
    inits: Dict[int, List[float]] = {}
    segs: List[Tuple[int, TraceSegment]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _RE_INIT.match(line)
        if m:
            node, axis, value = int(m.group(1)), m.group(2), float(m.group(3))
            inits.setdefault(node, [0.0, 0.0])["XY".index(axis)] = value
            continue
        m = _RE_SETDEST.match(line)
        if m:
            t, node = float(m.group(1)), int(m.group(2))
            segs.append(
                (
                    node,
                    TraceSegment(
                        time=t,
                        x=float(m.group(3)),
                        y=float(m.group(4)),
                        speed=float(m.group(5)),
                    ),
                )
            )
    if not inits:
        raise ValueError("no node initial positions found in script")
    missing = sorted({node for node, _seg in segs} - set(inits))
    if missing:
        raise ValueError(
            "setdest segment(s) reference node(s) without an initial "
            f"`set X_/Y_` position: {missing}; the trace would silently "
            "drop their movement on replay"
        )
    n = max(inits) + 1
    initial = np.zeros((n, 2), dtype=np.float64)
    for node, (x, y) in inits.items():
        initial[node] = (x, y)
    trace = MobilityTrace(initial=initial)
    for node, seg in segs:
        trace.add(node, seg)
    return trace


class TraceMobility(MobilityModel):
    """Replays a :class:`MobilityTrace` deterministically.

    At any instant each node heads toward the destination of its most
    recent past segment at that segment's speed (stopping on arrival),
    matching setdest semantics.
    """

    def __init__(self, trace: MobilityTrace, area: Tuple[float, float]) -> None:
        super().__init__(np.array(trace.initial, copy=True), area)
        self.trace = trace
        self._queues = {
            node: list(trace.sorted_segments(node)) for node in range(trace.num_nodes)
        }
        self._current: Dict[int, TraceSegment] = {}
        self.now = 0.0

    def step(self, dt: float) -> np.ndarray:
        if dt < 0:
            raise ValueError("dt must be >= 0")
        remaining = float(dt)
        while remaining > 1e-12:
            # advance to the next segment activation or the step end
            next_t = min(
                (q[0].time for q in self._queues.values() if q),
                default=float("inf"),
            )
            sub = min(remaining, max(0.0, next_t - self.now)) or remaining
            if next_t <= self.now:
                # activate all due segments
                for node, q in self._queues.items():
                    while q and q[0].time <= self.now + 1e-12:
                        self._current[node] = q.pop(0)
                continue
            sub = min(remaining, next_t - self.now)
            self._advance(sub)
            self.now += sub
            remaining -= sub
        self._clip()
        return self.positions

    def _advance(self, dt: float) -> None:
        for node, seg in list(self._current.items()):
            target = np.array([seg.x, seg.y])
            delta = target - self.positions[node]
            dist = float(np.hypot(*delta))
            if dist <= 1e-12 or seg.speed <= 0:
                continue
            travel = min(dist, seg.speed * dt)
            self.positions[node] += delta / dist * travel
