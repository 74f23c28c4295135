"""The ledger's tracer: spans around calls into each ``repro`` layer.

Nothing under ``src/`` is instrumented.  For one traced iteration the
benchmark replaces the public callables listed in :data:`POINTS` with
timing wrappers (and restores them afterwards), so every span is recorded
from this file, around the call into the layer.

Self time is computed online: every open span accumulates the duration
of its direct children, and on exit ``self = duration - children``.  The
per-(layer, name) totals are therefore exact however many calls there
are, while the span list kept for ``ledger.trace.json`` only stores
spans of at least :data:`MIN_SPAN_S` (a parent is never shorter than its
child, so every stored span's parent is stored too).

The span stack is one plain list: wrapped callables must only run on the
thread that drives the traced iteration.  The heartbeat thread of a
service worker and the HTTP client threads call nothing that is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "POINTS", "MIN_SPAN_S"]

#: spans shorter than this are aggregated but not stored one by one
MIN_SPAN_S = 50e-6
#: hard cap on stored spans (the aggregates stay exact past it)
MAX_SPANS = 200_000

#: event callbacks are attributed to the layer of the module defining them
_CALLBACK_LAYERS = {
    "repro.core.des_runner": "core.des_runner",
    "repro.core.runner": "core.runner",
    "repro.mobility.base": "mobility",
    "repro.des.process": "des.engine",
}


# ----------------------------------------------------------------------
# post hooks: counts read at the same boundary the span is taken at
# ----------------------------------------------------------------------
def _post_refresh(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    """Split substrate refresh time into the cold build and later updates.

    Calls that find the band fresh return in well under a microsecond
    and are only counted; a slow call did real work, and the first slow
    call on a substrate is its cold build.  The adjacency build the
    refresh triggers is a child span and is not counted here.
    """
    if dur < MIN_SPAN_S:
        return
    sub = args[0]
    if sub in tr._seen_substrates:
        tr.counters["net.substrate.refresh_s"] += self_s
    else:
        tr._seen_substrates.add(sub)
        tr.counters["net.substrate.cold_build_s"] += self_s


def _post_runner(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    """Harvest the substrate's own counters when a cell runner finishes."""
    tables = args[0].protocol.tables
    c = tr.counters
    for key, value in tables.substrate_stats().items():
        c[f"net.substrate.{key}"] += value
    c["net.substrate.band_bytes"] = max(
        c["net.substrate.band_bytes"], tables.substrate.band_bytes()
    )


def _selection_counts(tr: "Tracer", prefix: str, results) -> None:
    c = tr.counters
    for res in results:
        c[f"core.selection.{prefix}_walks"] += res.attempts
        c["core.selection.msgs"] += res.total_msgs


def _post_bootstrap(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    c = tr.counters
    c["core.selection.bootstrap_sources"] += len(result)
    _selection_counts(tr, "bootstrap", result.values())
    c["core.selection.contacts"] += sum(r.num_contacts for r in result.values())
    c["core.selection.wanted"] += len(result) * args[0].params.noc


def _post_reselect(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    _selection_counts(tr, "reselect", (result,))


def _post_validate(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    c = tr.counters
    c["core.maintenance.rounds"] += 1
    c["core.maintenance.contacts_lost"] += sum(1 for o in result if not o.ok)


def _post_reach(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    tr.counters["core.reachability.sources"] += len(result)


def _post_batch(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    c = tr.counters
    c["core.query.batch_queries"] += len(result)
    c["core.query.msgs"] += sum(r.msgs for r in result)
    c["core.query.successes"] += sum(1 for r in result if r.success)


def _post_single(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    c = tr.counters
    c["core.query.single_queries"] += 1
    c["core.query.msgs"] += result.msgs
    c["core.query.successes"] += 1 if result.success else 0


def _post_record_many(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    tr.counters["net.stats.bulk_messages"] += len(args[2])


def _post_cells(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    tr.counters["campaign.spec.cells"] += len(result)


def _post_campaign(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    tr.counters["campaign.runner.executed"] += result.executed
    tr.counters["campaign.runner.cache_hits"] += result.cached


def _post_lease(tr: "Tracer", args, result, dur: float, self_s: float) -> None:
    if result is None:
        tr.counters["service.queue.empty_leases"] += 1


#: (module, dotted attribute, layer, span name, post hook)
POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.campaign.spec", "TopologySpec.build", "net.topology", "build", None),
    # the lazy adjacency build has no public entry of its own: it runs
    # inside the `adj` property, which is read on every hop
    ("repro.net.topology", "Topology._build_adjacency", "net.topology", "adj", None),
    ("repro.net.topology", "Topology.stats", "net.topology", "stats", None),
    ("repro.net.substrate", "DistanceSubstrate.refresh", "net.substrate", "refresh", _post_refresh),
    ("repro.net.substrate", "DistanceSubstrate.membership", "net.substrate", "membership", None),
    ("repro.mobility.waypoint", "RandomWaypoint.step", "mobility", "step", None),
    ("repro.core.selection", "BatchedContactSelector.select_contacts_many", "core.selection", "bootstrap", _post_bootstrap),
    ("repro.core.selection", "ContactSelector.select_contacts", "core.selection", "reselect", _post_reselect),
    ("repro.core.maintenance", "ContactMaintainer.validate_all", "core.maintenance", "validate", _post_validate),
    ("repro.core.protocol", "CARDProtocol.reachability", "core.reachability", "reach", _post_reach),
    ("repro.core.query", "QueryEngine.query_many", "core.query", "batch", _post_batch),
    ("repro.core.query", "QueryEngine.query", "core.query", "single", _post_single),
    ("repro.net.network", "Network.transmit", "net.network", "transmit", None),
    ("repro.net.network", "Network.transmit_path", "net.network", "transmit_path", None),
    ("repro.net.network", "Network.deliver", "net.network", "deliver", None),
    ("repro.net.stats", "MessageStats.record", "net.stats", "record", None),
    ("repro.net.stats", "MessageStats.record_many", "net.stats", "record_many", _post_record_many),
    ("repro.des.engine", "Simulator.run", "des.engine", "run", None),
    ("repro.des.engine", "Simulator.step", "des.engine", "dispatch", None),
    ("repro.core.des_runner", "DesRunner.run", "core.des_runner", "run", _post_runner),
    ("repro.core.runner", "TimeSeriesRunner.run", "core.runner", "run", _post_runner),
    ("repro.core.runner", "SnapshotRunner.run", "core.runner", "run", _post_runner),
    ("repro.campaign.spec", "CampaignSpec.expand", "campaign.spec", "expand", None),
    ("repro.campaign.spec", "CampaignSpec.unique_cells", "campaign.spec", "expand", _post_cells),
    ("repro.campaign.runner", "CampaignRunner.run", "campaign.runner", "run", _post_campaign),
    ("repro.campaign.runner", "execute_cell", "campaign.runner", "execute", None),
    ("repro.campaign.store", "ResultStore.__init__", "campaign.store", "open_load", None),
    ("repro.campaign.store", "ResultStore.load", "campaign.store", "open_load", None),
    ("repro.campaign.store", "SqliteStore.__init__", "campaign.store", "open_load", None),
    ("repro.campaign.store", "SqliteStore.load", "campaign.store", "open_load", None),
    ("repro.campaign.store", "ResultStore.append", "campaign.store", "append", None),
    ("repro.campaign.store", "SqliteStore.append", "campaign.store", "append", None),
    ("repro.campaign.store", "ResultStore.get", "campaign.store", "get", None),
    ("repro.campaign.store", "ResultStore.metrics", "campaign.store", "get", None),
    ("repro.campaign.store", "ResultStore.__contains__", "campaign.store", "get", None),
    ("repro.campaign.store", "SqliteStore.get", "campaign.store", "get", None),
    ("repro.campaign.store", "SqliteStore.keys", "campaign.store", "get", None),
    ("repro.campaign.store", "SqliteStore.__contains__", "campaign.store", "get", None),
    ("repro.artifacts.registry", "Artifact.run", "artifacts", "run", None),
    ("repro.artifacts.result", "ExperimentResult.render", "artifacts", "render", None),
    ("repro.service.queue", "WorkQueue.enqueue", "service.queue", "enqueue", None),
    ("repro.service.queue", "WorkQueue.lease", "service.queue", "lease", _post_lease),
    ("repro.service.queue", "WorkQueue.commit", "service.queue", "commit", None),
    ("repro.service.queue", "WorkQueue.requeue_expired", "service.queue", "poll", None),
    ("repro.service.queue", "WorkQueue.is_done", "service.queue", "poll", None),
    ("repro.service.queue", "WorkQueue.remaining", "service.queue", "poll", None),
    ("repro.service.queue", "WorkQueue.status", "service.queue", "poll", None),
    ("repro.service.daemon", "seed_queue", "service.daemon", "seed", None),
    ("repro.service.daemon", "run_daemon", "service.daemon", "run", None),
    ("repro.service.http", "ArtifactService.run", "service.http", "run", None),
    ("repro.service.http", "ArtifactService.list_artifacts", "service.http", "list", None),
    ("repro.service.http", "ArtifactService.campaign_status", "service.http", "status", None),
)


class Tracer:
    """Span recorder plus the install/uninstall of the timing wrappers."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, total seconds, self seconds]
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: "layer.metric" -> count taken at a span boundary
        self.counters: Dict[str, float] = defaultdict(float)
        #: (id, parent id, layer, name, start, end, iteration)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.iteration = -1
        self._stack: List[list] = []  # frames: [child seconds, span id]
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []
        self._seen_substrates: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------
    def _keep(self, frame: list, layer: str, name: str, t0: float, t1: float) -> None:
        """Store one span (ids are only handed out to spans that are stored)."""
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        if not frame[1]:
            frame[1] = next(self._ids)
        parent = 0
        if self._stack:
            above = self._stack[-1]
            if not above[1]:
                above[1] = next(self._ids)
            parent = above[1]
        self.spans.append((frame[1], parent, layer, name, t0, t1, self.iteration))

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        post: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer`` named ``name``.

        This runs around calls as short as a microsecond, so the
        bookkeeping is written out inline.
        """
        cell = self.agg.setdefault((layer, name), [0, 0.0, 0.0])
        stack, keep, clock = self._stack, self._keep, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]  # [seconds inside child spans, span id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if dur >= MIN_SPAN_S:
                    keep(frame, layer, name, t0, t1)
            if post is not None:
                post(self, args, result, dur, dur - frame[0])
            return result

        return traced

    # ------------------------------------------------------------------
    def _wrap_callback(self, callback: Callable) -> Callable:
        """An event callback, attributed to the module that defines it."""
        if getattr(callback, "_ledger_traced", False):
            return callback
        layer = _CALLBACK_LAYERS.get(getattr(callback, "__module__", ""))
        if layer is None:
            return callback
        traced = self.wrap(callback, layer, "callback")
        traced._ledger_traced = True  # type: ignore[attr-defined]
        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` (a module or class attribute) until uninstall."""
        original = owner.__dict__[attr]
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace every callable in :data:`POINTS` with its timing wrapper."""
        for module_name, dotted, layer, name, post in POINTS:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], layer, name, post))

        # Where layers interleave inside Simulator.run the event callback
        # is the boundary: wrap it as it is scheduled.
        from repro.des.engine import Simulator
        from repro.des.process import PeriodicProcess

        schedule_at = Simulator.__dict__["schedule_at"]
        process_init = PeriodicProcess.__dict__["__init__"]
        wrap_callback = self._wrap_callback

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, callback, *args):
            return schedule_at(sim, time, wrap_callback(callback), *args)

        @functools.wraps(process_init)
        def traced_process_init(proc, sim, period, callback, **kwargs):
            process_init(proc, sim, period, wrap_callback(callback), **kwargs)

        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(PeriodicProcess, "__init__", traced_process_init)

        # Artifact is a frozen dataclass whose spec builder and reducer
        # are per-instance fields: wrap them on each registered artifact.
        from repro.artifacts.registry import ARTIFACTS

        for artifact in ARTIFACTS.values():
            for field, layer, name in (
                ("build_spec", "campaign.spec", "build"),
                ("reduce", "campaign.figures", "reduce"),
            ):
                original = getattr(artifact, field)
                self._restore.append(
                    functools.partial(object.__setattr__, artifact, field, original)
                )
                object.__setattr__(
                    artifact, field, self.wrap(original, layer, name)
                )

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    def calls(self, layer: str, name: str) -> int:
        return int(self.agg.get((layer, name), (0, 0.0, 0.0))[0])

    def total_s(self, layer: str, name: str) -> float:
        return float(self.agg.get((layer, name), (0, 0.0, 0.0))[1])

    def self_s(self, layer: str, name: Optional[str] = None) -> float:
        """Self seconds of one span name, or of the whole layer."""
        if name is not None:
            return float(self.agg.get((layer, name), (0, 0.0, 0.0))[2])
        return float(sum(v[2] for (lay, _), v in self.agg.items() if lay == layer))

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (the benchmark's own spans included)."""
        out: Dict[str, float] = defaultdict(float)
        for (layer, _), cell in self.agg.items():
            out[layer] += cell[2]
        return dict(out)

    def merge(self, other: Dict[str, object]) -> None:
        """Fold in the :meth:`export` of a tracer from another process."""
        for key, cell in other["agg"].items():  # type: ignore[union-attr]
            layer, name = key.split("|")
            mine = self.agg.setdefault((layer, name), [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += cell[i]
        for key, value in other["counters"].items():  # type: ignore[union-attr]
            self.counters[key] += value
        self.spans.extend(tuple(s) for s in other["spans"])  # type: ignore[union-attr]

    def export(self, span_prefix: int = 0) -> Dict[str, object]:
        """A JSON-safe dump; ``span_prefix`` keeps ids unique per process."""
        shift = span_prefix << 32
        return {
            "agg": {f"{lay}|{name}": list(cell) for (lay, name), cell in self.agg.items()},
            "counters": dict(self.counters),
            "spans": [
                (sid + shift, (parent + shift) if parent else 0, *rest)
                for sid, parent, *rest in self.spans
            ],
        }
