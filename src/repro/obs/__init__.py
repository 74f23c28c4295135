"""`repro.obs` — structured tracing and metrics for the campaign engine.

Two halves:

* :mod:`repro.obs.trace` — the collection side:
  :func:`resolve_telemetry` (the one ``telemetry=`` switch),
  :class:`CellTrace`, :class:`TracedCell`, and the module-level
  :func:`span`/:func:`add` instrumentation hooks that cost one global
  read when disabled;
* :mod:`repro.obs.report` — the aggregation side: :func:`load_trace`,
  :func:`summarize`, :func:`slowest` and the Chrome-trace export.

Instrumented code imports only from here::

    from repro import obs

    with obs.span("topology_build"):
        topo = build(...)
    obs.add("substrate_full_rebuilds", stats["full_rebuilds"])
"""

from repro.obs.trace import (
    CellTrace,
    TracedCell,
    activate,
    active,
    add,
    current,
    deactivate,
    resolve_telemetry,
    set_counter,
    span,
    write_record,
)
from repro.obs.report import (
    PhaseStat,
    TraceLog,
    TraceSummary,
    chrome_trace,
    load_trace,
    render_slowest,
    slowest,
    summarize,
)

__all__ = [
    "resolve_telemetry",
    "CellTrace",
    "TracedCell",
    "span",
    "add",
    "set_counter",
    "active",
    "current",
    "activate",
    "deactivate",
    "write_record",
    "TraceLog",
    "PhaseStat",
    "TraceSummary",
    "load_trace",
    "summarize",
    "slowest",
    "render_slowest",
    "chrome_trace",
]
