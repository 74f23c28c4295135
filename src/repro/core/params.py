"""CARD configuration: every knob the paper's evaluation sweeps.

The parameter names follow the paper's notation (§III.B):

====================  =====================================================
``R``                 neighborhood radius (hops)
``r``                 maximum contact distance (hops); contacts live in the
                      band ``(2R, r]``
``noc``               Number of Contacts — the *target* NoC; the achieved
                      count is usually lower (overlap saturation, §III.B)
``depth``             depth of search D — levels of contacts queried
``method``            contact admission: Edge Method or Probabilistic
``pm_equation``       1 → ``P=(d−R)/(r−R)``; 2 → ``P=(d−2R)/(r−2R)``
====================  =====================================================

plus the maintenance/runtime knobs the paper describes qualitatively
(validation period, jitter) and implementation bounds (walk step cap).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.edge_policy import EdgePolicy

from repro.util.validation import (
    check_in_range,
    check_int,
    check_non_negative,
    check_positive,
)

__all__ = ["CARDParams", "SelectionMethod"]


class SelectionMethod(enum.Enum):
    """Contact admission methods of §III.C.2."""

    #: Probabilistic Method — admit with P from eq. (1)/(2)
    PM = "PM"
    #: Edge Method — deterministic non-overlap check incl. the Edge_List
    EM = "EM"


@dataclass(frozen=True)
class CARDParams:
    """Immutable CARD parameter set."""

    #: neighborhood radius R (hops), >= 1
    R: int = 3
    #: maximum contact distance r (hops), >= 2R
    r: int = 10
    #: target number of contacts (NoC); 0 disables contacts entirely
    noc: int = 5
    #: depth of search D (contact levels queried)
    depth: int = 1
    #: admission method (EM is the paper's recommended default)
    method: SelectionMethod = SelectionMethod.EM
    #: which PM probability equation to use (1 or 2); ignored under EM
    pm_equation: int = 2
    #: seconds between contact validation rounds (paper plots 2 s ticks)
    validation_period: float = 2.0
    #: timer phase jitter fraction for validation (0 = lock-step)
    validation_jitter: float = 0.15
    #: enable §III.C.3's local recovery during validation
    local_recovery: bool = True
    #: enforce rule (4): drop contacts whose path length leaves [2R, r]
    enforce_band_on_validation: bool = True
    #: overlap checks used by admission (ablation knobs; paper = both True)
    check_contact_overlap: bool = True
    check_edge_overlap: bool = True
    #: CSQ loop prevention (query/source ids let nodes drop re-received
    #: queries).  The paper specifies this **for EM only** (§III.C.2b) —
    #: PM's walk may revisit nodes, which is precisely why PM's
    #: backtracking explodes in Fig 4.  None = follow the paper (EM: on,
    #: PM: off); True/False force it (ablation knob).
    loop_prevention: Optional[bool] = None
    #: hard cap on CSQ walk steps (forward+backtrack) per query.
    #: None = unbounded for loop-prevented walks (they end when the region
    #: is exhausted) and ``40 * r`` for unprevented walks (which would
    #: otherwise wander indefinitely; the cap plays the role of a TTL).
    max_walk_steps: Optional[int] = None
    #: consecutive fully-failed CSQs before a source stops selecting
    max_failed_queries: int = 2
    #: how the source cycles edge nodes across CSQ launches; None = the
    #: paper's unspecified order, realized as a random cycle (see
    #: :mod:`repro.core.edge_policy` for the future-work heuristics)
    edge_policy: Optional["EdgePolicy"] = None

    def __post_init__(self) -> None:
        check_int("R", self.R)
        check_positive("R", self.R)
        check_int("r", self.r)
        check_int("noc", self.noc)
        check_non_negative("noc", self.noc)
        check_int("depth", self.depth)
        check_positive("depth", self.depth)
        if self.r < 2 * self.R:
            raise ValueError(
                f"r (={self.r}) must be >= 2R (={2 * self.R}): contacts are "
                "selected between 2R and r hops from the source (§III.C.2)"
            )
        if self.pm_equation not in (1, 2):
            raise ValueError("pm_equation must be 1 or 2")
        if not isinstance(self.method, SelectionMethod):
            raise TypeError("method must be a SelectionMethod")
        check_positive("validation_period", self.validation_period)
        check_in_range("validation_jitter", self.validation_jitter, 0.0, 0.5)
        if self.max_walk_steps is not None:
            check_positive("max_walk_steps", self.max_walk_steps)
        check_positive("max_failed_queries", self.max_failed_queries)

    # ------------------------------------------------------------------
    @property
    def effective_loop_prevention(self) -> bool:
        """Loop prevention as the paper specifies it, unless forced."""
        if self.loop_prevention is not None:
            return bool(self.loop_prevention)
        return self.method is SelectionMethod.EM

    @property
    def contact_band(self) -> tuple:
        """The ``[2R, r]`` hop band a validated contact must lie in."""
        return (2 * self.R, self.r)

    @property
    def effective_max_walk_steps(self) -> Optional[int]:
        """The walk-step cap actually applied by the selector."""
        if self.max_walk_steps is not None:
            return self.max_walk_steps
        return None if self.effective_loop_prevention else 40 * self.r

    def admission_probability(self, d: int) -> float:
        """PM admission probability for a CSQ at walk distance ``d``.

        Implements eq. (1) or eq. (2) with clamping to [0, 1]; the
        degenerate ``r == 2R`` band collapses eq. (2) to a step function at
        ``d == r`` (its analytic limit).
        """
        lo = self.R if self.pm_equation == 1 else 2 * self.R
        hi = self.r
        if hi <= lo:
            return 1.0 if d >= hi else 0.0
        p = (d - lo) / (hi - lo)
        return min(1.0, max(0.0, p))

    # ------------------------------------------------------------------
    # serialisation (campaign specs store parameter overrides as JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dict of every field (enums become their values)."""
        out: Dict[str, object] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["method"] = self.method.value
        if self.edge_policy is not None:
            out["edge_policy"] = self.edge_policy.value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CARDParams":
        """Build params from a (possibly partial) dict of field overrides.

        Missing fields keep their defaults, so campaign specs only need to
        name the knobs they sweep.  ``method``/``edge_policy`` accept their
        enum *values* (strings), which is how :meth:`to_dict` writes them.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown CARDParams fields: {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        method = kwargs.get("method")
        if method is not None and not isinstance(method, SelectionMethod):
            kwargs["method"] = SelectionMethod(method)
        policy = kwargs.get("edge_policy")
        if policy is not None:
            from repro.core.edge_policy import EdgePolicy

            if not isinstance(policy, EdgePolicy):
                kwargs["edge_policy"] = EdgePolicy(policy)
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """One-line summary used in experiment headers."""
        return (
            f"R={self.R}, r={self.r}, NoC={self.noc}, D={self.depth}, "
            f"method={self.method.value}"
            + (f"(eq{self.pm_equation})" if self.method is SelectionMethod.PM else "")
        )
