"""The renderable artifact result type.

:class:`ExperimentResult` is the common currency of every artifact
producer — the table reducers and the aggregation layer both return
one.  It lives here, below the campaign engine, so that
:mod:`repro.campaign` can produce results without importing the
artifact definitions above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.tables import format_table

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """A reproduced table/figure, renderable as text.

    Attributes
    ----------
    exp_id, title:
        Identity ("fig07", "Fig 7 — Effect of NoC on Reachability").
    headers, rows:
        The tabular data that regenerates the artifact.
    notes:
        Substitutions, scale factors, interpretation reminders.
    plots:
        Pre-rendered ASCII figures appended after the table.
    raw:
        Machine-readable extras for tests (series arrays etc.).
    telemetry:
        The run's :meth:`repro.obs.TraceSummary.as_dict` when it executed
        with telemetry enabled; None otherwise (the default — parity
        comparisons of results never see it because it rides next to,
        not inside, the tabular payload).
    campaign:
        The producing run's execution counters
        (:meth:`repro.campaign.runner.CampaignReport.counts`:
        ``total_cells``/``executed``/``cached``/``failed``/``elapsed``)
        when the result came through the campaign engine; None for
        hand-built results.  ``executed == 0`` is the machine-readable
        "this store was warm" signal the serving facade returns.
    """

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)
    plots: List[str] = field(default_factory=list)
    raw: Dict[str, object] = field(default_factory=dict)
    telemetry: Optional[Dict[str, object]] = None
    campaign: Optional[Dict[str, object]] = None

    def render(self) -> str:
        parts = [
            format_table(self.headers, self.rows, title=f"== {self.title} =="),
        ]
        parts.extend(self.plots)
        if self.notes:
            parts.append("\n".join(f"note: {n}" for n in self.notes))
        return "\n\n".join(parts)
