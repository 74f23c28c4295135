"""The single artifact registry: id → :class:`Artifact`.

Everything resolves ids here: :func:`repro.api.run`, ``python -m
repro.campaign figure`` and the HTTP facade.  The entries are the
:data:`~repro.artifacts.definitions.DEFINITIONS` — one ``define(...)``
per artifact — keyed by id in execution order.
"""

from __future__ import annotations

from typing import Dict, List

from repro.artifacts.artifact import Artifact, campaign_note, ensure_report_ok
from repro.artifacts.definitions import DEFINITIONS

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "artifact_ids",
    "get_artifact",
    "campaign_note",
    "ensure_report_ok",
]

#: id → Artifact, in ``python -m repro.campaign figure all`` execution order.
ARTIFACTS: Dict[str, Artifact] = {a.id: a for a in DEFINITIONS}


def artifact_ids() -> List[str]:
    """All registered artifact ids, sorted."""
    return sorted(ARTIFACTS)


def get_artifact(artifact_id: str) -> Artifact:
    """Look an artifact up by id, with the valid ids in the error."""
    try:
        return ARTIFACTS[artifact_id]
    except KeyError:
        known = ", ".join(artifact_ids())
        raise ValueError(
            f"unknown artifact {artifact_id!r}; known: {known}"
        ) from None
