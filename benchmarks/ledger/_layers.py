"""Per-layer metrics: their names, units, and how a trace yields them.

A name is ``<module under repro>.<metric>``.  ``_s`` metrics are *self*
seconds (a span's duration minus the part its child spans cover) unless
the name says ``run_s``/``execute_s``, which are whole durations.  Every
time and count is a mean per traced iteration; ratios are taken over the
sums.  ``BENCHMARK.json`` lists exactly :data:`PER_LAYER`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from _tracer import Tracer

__all__ = ["PER_LAYER", "layer_metrics"]

_LOW, _HIGH = "lower", "higher"

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "net.topology.build_s": ("s", _LOW),
    "net.topology.adj_rebuilds": ("count", _LOW),
    "net.topology.adj_s": ("s", _LOW),
    "net.substrate.cold_build_s": ("s", _LOW),
    "net.substrate.refresh_s": ("s", _LOW),
    "net.substrate.self_s": ("s", _LOW),
    "net.substrate.full_rebuilds": ("count", _LOW),
    "net.substrate.incremental_updates": ("count", _HIGH),
    "net.substrate.rows_recomputed": ("count", _LOW),
    "net.substrate.rows_per_update": ("count", _LOW),
    "net.substrate.membership_builds": ("count", _LOW),
    "net.substrate.membership_hits": ("count", _HIGH),
    "net.substrate.band_mb": ("MB", _LOW),
    "mobility.steps": ("count", _HIGH),
    "mobility.step_s": ("s", _LOW),
    "core.selection.bootstrap_s": ("s", _LOW),
    "core.selection.bootstrap_sources": ("count", _HIGH),
    "core.selection.bootstrap_walks": ("count", _LOW),
    "core.selection.reselect_s": ("s", _LOW),
    "core.selection.reselect_calls": ("count", _LOW),
    "core.selection.reselect_walks": ("count", _LOW),
    "core.selection.msgs_per_walk": ("count", _LOW),
    "core.selection.walk_yield": ("ratio", _HIGH),
    "core.selection.fill_frac": ("ratio", _HIGH),
    "core.maintenance.rounds": ("count", _HIGH),
    "core.maintenance.validate_s": ("s", _LOW),
    "core.maintenance.contacts_lost": ("count", _LOW),
    "core.maintenance.reselect_frac": ("ratio", _LOW),
    "core.reachability.reach_s": ("s", _LOW),
    "core.reachability.sources": ("count", _HIGH),
    "core.query.cold_batch_s": ("s", _LOW),
    "core.query.warm_batch_s": ("s", _LOW),
    "core.query.batch_queries": ("count", _HIGH),
    "core.query.single_s": ("s", _LOW),
    "core.query.single_queries": ("count", _HIGH),
    "core.query.self_s": ("s", _LOW),
    "core.query.success_frac": ("ratio", _HIGH),
    "core.query.msgs_per_query": ("count", _LOW),
    "net.network.transmit_calls": ("count", _LOW),
    "net.network.transmit_s": ("s", _LOW),
    "net.network.deliver_calls": ("count", _LOW),
    "net.network.deliver_s": ("s", _LOW),
    "net.stats.record_calls": ("count", _LOW),
    "net.stats.record_s": ("s", _LOW),
    "net.stats.messages": ("count", _LOW),
    "des.engine.events": ("count", _LOW),
    "des.engine.run_s": ("s", _LOW),
    "des.engine.dispatch_self_s": ("s", _LOW),
    "des.engine.events_per_s": ("1/s", _HIGH),
    "core.des_runner.run_s": ("s", _LOW),
    "core.des_runner.self_s": ("s", _LOW),
    "core.des_runner.sim_s_per_wall_s": ("ratio", _HIGH),
    "core.runner.self_s": ("s", _LOW),
    "campaign.spec.expand_s": ("s", _LOW),
    "campaign.spec.cells": ("count", _LOW),
    "campaign.runner.run_s": ("s", _LOW),
    "campaign.runner.execute_s": ("s", _LOW),
    "campaign.runner.self_s": ("s", _LOW),
    "campaign.runner.executed": ("count", _HIGH),
    "campaign.runner.cache_hits": ("count", _HIGH),
    "campaign.store.open_load_s": ("s", _LOW),
    "campaign.store.append_s": ("s", _LOW),
    "campaign.store.appends": ("count", _LOW),
    "campaign.store.get_s": ("s", _LOW),
    "campaign.store.gets": ("count", _LOW),
    "campaign.store.bytes": ("B", _LOW),
    "campaign.figures.reduce_s": ("s", _LOW),
    "artifacts.render_s": ("s", _LOW),
    "artifacts.self_s": ("s", _LOW),
    "service.queue.enqueue_s": ("s", _LOW),
    "service.queue.lease_calls": ("count", _LOW),
    "service.queue.lease_s": ("s", _LOW),
    "service.queue.empty_leases": ("count", _LOW),
    "service.queue.commit_s": ("s", _LOW),
    "service.queue.self_s": ("s", _LOW),
    "service.queue.heartbeats": ("count", _LOW),
    "service.queue.requeues": ("count", _LOW),
    "service.queue.overhead_ms_per_cell": ("ms", _LOW),
    "service.worker.spawn_s": ("s", _LOW),
    "service.worker.self_s": ("s", _LOW),
    "service.worker.busy_frac": ("ratio", _HIGH),
    "service.worker.lost_leases": ("count", _LOW),
    "service.worker.balance": ("ratio", _HIGH),
    "service.daemon.self_s": ("s", _LOW),
    "service.daemon.tail_s": ("s", _LOW),
    "service.http.requests": ("count", _HIGH),
    "service.http.errors": ("count", _LOW),
    "service.http.self_s": ("s", _LOW),
    "service.http.inproc_run_ms": ("ms", _LOW),
    "service.http.fresh_conn_p50_ms": ("ms", _LOW),
    "service.http.keepalive_p50_ms": ("ms", _LOW),
    "service.http.keepalive_p95_ms": ("ms", _LOW),
    "service.http.wire_overhead_ms": ("ms", _LOW),
    "service.http.resp_bytes": ("B", _LOW),
    "service.http.cold_post_s": ("s", _LOW),
    "bench.attributed_frac": ("ratio", _HIGH),
    "bench.trace_overhead_frac": ("ratio", _LOW),
    "bench.iter_iqr_frac": ("ratio", _LOW),
    "bench.cpu_s": ("s", _LOW),
    "bench.host_slowdown": ("ratio", _LOW),
    "bench.calib_python_s": ("s", _LOW),
    "bench.calib_numpy_s": ("s", _LOW),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    iters: List[object],
    walls: Sequence[float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric the trace itself can give.

    ``extras`` are the numbers only the workload could see; they override
    what is derived here (the ``bench.*`` health metrics that need the
    untraced half are added by the caller).
    """
    n = len(walls)
    t = tracer
    c = tracer.counters

    def self_s(layer: str, *names: str) -> float:
        if not names:
            return t.self_s(layer) / n
        return sum(t.self_s(layer, name) for name in names) / n

    def calls(layer: str, *names: str) -> float:
        return sum(t.calls(layer, name) for name in names) / n

    def phase(name: str) -> float:
        return sum(it.phases.get(name, 0.0) for it in iters) / n  # type: ignore[attr-defined]

    walks = c["core.selection.bootstrap_walks"] + c["core.selection.reselect_walks"]
    queries = c["core.query.batch_queries"] + c["core.query.single_queries"]
    des_run = t.total_s("core.des_runner", "run")
    sim_run = t.total_s("des.engine", "run")
    events = t.calls("des.engine", "dispatch")
    layers = t.layer_self()
    wall = sum(walls) + extras.pop("bench.extra_wall_s", 0.0)

    m: Dict[str, float] = {
        "net.topology.build_s": self_s("net.topology", "build"),
        "net.topology.adj_rebuilds": calls("net.topology", "adj"),
        "net.topology.adj_s": self_s("net.topology", "adj"),
        "net.substrate.cold_build_s": c["net.substrate.cold_build_s"] / n,
        "net.substrate.refresh_s": c["net.substrate.refresh_s"] / n,
        "net.substrate.self_s": self_s("net.substrate"),
        "net.substrate.full_rebuilds": c["net.substrate.full_rebuilds"] / n,
        "net.substrate.incremental_updates": c["net.substrate.incremental_updates"] / n,
        "net.substrate.rows_recomputed": c["net.substrate.rows_recomputed"] / n,
        "net.substrate.rows_per_update": _ratio(
            c["net.substrate.rows_recomputed"], c["net.substrate.incremental_updates"]
        ),
        "net.substrate.membership_builds": c["net.substrate.membership_builds"] / n,
        "net.substrate.membership_hits": c["net.substrate.membership_hits"] / n,
        "net.substrate.band_mb": c["net.substrate.band_bytes"] / 2**20,
        "mobility.steps": calls("mobility", "callback"),
        "mobility.step_s": self_s("mobility"),
        "core.selection.bootstrap_s": self_s("core.selection", "bootstrap"),
        "core.selection.bootstrap_sources": c["core.selection.bootstrap_sources"] / n,
        "core.selection.bootstrap_walks": c["core.selection.bootstrap_walks"] / n,
        "core.selection.reselect_s": self_s("core.selection", "reselect"),
        "core.selection.reselect_calls": calls("core.selection", "reselect"),
        "core.selection.reselect_walks": c["core.selection.reselect_walks"] / n,
        "core.selection.msgs_per_walk": _ratio(c["core.selection.msgs"], walks),
        "core.selection.walk_yield": _ratio(
            c["core.selection.contacts"], c["core.selection.bootstrap_walks"]
        ),
        "core.selection.fill_frac": _ratio(
            c["core.selection.contacts"], c["core.selection.wanted"]
        ),
        "core.maintenance.rounds": c["core.maintenance.rounds"] / n,
        "core.maintenance.validate_s": self_s("core.maintenance", "validate"),
        "core.maintenance.contacts_lost": c["core.maintenance.contacts_lost"] / n,
        "core.maintenance.reselect_frac": _ratio(
            t.calls("core.selection", "reselect"), c["core.maintenance.rounds"]
        ),
        "core.reachability.reach_s": self_s("core.reachability", "reach"),
        "core.reachability.sources": c["core.reachability.sources"] / n,
        "core.query.cold_batch_s": phase("cold_batch_s"),
        "core.query.warm_batch_s": phase("warm_batch_s"),
        "core.query.batch_queries": c["core.query.batch_queries"] / n,
        "core.query.single_s": phase("single_s"),
        "core.query.single_queries": c["core.query.single_queries"] / n,
        "core.query.self_s": self_s("core.query"),
        "core.query.success_frac": _ratio(c["core.query.successes"], queries),
        "core.query.msgs_per_query": _ratio(c["core.query.msgs"], queries),
        "net.network.transmit_calls": calls("net.network", "transmit", "transmit_path"),
        "net.network.transmit_s": self_s("net.network", "transmit", "transmit_path"),
        "net.network.deliver_calls": calls("net.network", "deliver"),
        "net.network.deliver_s": self_s("net.network", "deliver"),
        "net.stats.record_calls": calls("net.stats", "record", "record_many"),
        "net.stats.record_s": self_s("net.stats"),
        "net.stats.messages": (
            t.calls("net.stats", "record") + c["net.stats.bulk_messages"]
        ) / n,
        "des.engine.events": events / n,
        "des.engine.run_s": sim_run / n,
        "des.engine.dispatch_self_s": self_s("des.engine"),
        "des.engine.events_per_s": _ratio(events, sim_run),
        "core.des_runner.run_s": des_run / n,
        "core.des_runner.self_s": self_s("core.des_runner"),
        "core.des_runner.sim_s_per_wall_s": _ratio(
            sum(it.work for it in iters) if des_run else 0.0, des_run  # type: ignore[attr-defined]
        ),
        "core.runner.self_s": self_s("core.runner"),
        "campaign.spec.expand_s": self_s("campaign.spec"),
        "campaign.spec.cells": c["campaign.spec.cells"] / n,
        "campaign.runner.run_s": t.total_s("campaign.runner", "run") / n,
        "campaign.runner.execute_s": t.total_s("campaign.runner", "execute") / n,
        "campaign.runner.self_s": self_s("campaign.runner"),
        "campaign.runner.executed": c["campaign.runner.executed"] / n,
        "campaign.runner.cache_hits": c["campaign.runner.cache_hits"] / n,
        "campaign.store.open_load_s": self_s("campaign.store", "open_load"),
        "campaign.store.append_s": self_s("campaign.store", "append"),
        "campaign.store.appends": calls("campaign.store", "append"),
        "campaign.store.get_s": self_s("campaign.store", "get"),
        "campaign.store.gets": calls("campaign.store", "get"),
        "campaign.figures.reduce_s": self_s("campaign.figures", "reduce"),
        "artifacts.render_s": self_s("artifacts", "render"),
        "artifacts.self_s": self_s("artifacts"),
        "service.queue.enqueue_s": self_s("service.queue", "enqueue"),
        "service.queue.lease_calls": calls("service.queue", "lease"),
        "service.queue.lease_s": self_s("service.queue", "lease"),
        "service.queue.empty_leases": c["service.queue.empty_leases"] / n,
        "service.queue.commit_s": self_s("service.queue", "commit"),
        "service.queue.self_s": self_s("service.queue"),
        "service.worker.self_s": self_s("service.worker"),
        "service.daemon.self_s": self_s("service.daemon"),
        "service.http.self_s": self_s("service.http"),
        "bench.attributed_frac": _ratio(
            sum(v for layer, v in layers.items() if layer != "bench"), wall
        ),
    }
    out = {name: 0.0 for name in PER_LAYER}
    out.update(m)
    out.update(extras)
    return out
