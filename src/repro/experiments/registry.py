"""Experiment registry: id → campaign-first runner.

Since the campaign-first flip, every id resolves to the corresponding
:class:`~repro.artifacts.registry.Artifact`'s ``run`` method — execution
goes through the campaign engine (content-hash cached, parallelisable,
resumable; stores written before the flip stay warm because the cell
schema is unchanged).  The legacy per-figure loops that once backed
these ids are gone entirely: the ``pytest -m parity`` matrix now holds
every artifact bit-for-bit equal to the pinned golden fixtures under
``tests/golden/`` instead of to a second live implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet

from repro.artifacts.registry import ARTIFACTS
from repro.artifacts.result import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "DERIVED_EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]

#: All reproducible artifacts, campaign-first (the paper's, then ours).
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    artifact_id: artifact.run for artifact_id, artifact in ARTIFACTS.items()
}

#: Experiments that merely re-derive another registered artifact (the
#: fig03+fig04 joint).  ``python -m repro.experiments all`` skips these
#: so each artifact is produced exactly once; they stay individually
#: runnable by id.
DERIVED_EXPERIMENTS: FrozenSet[str] = frozenset({"fig03_04"})


def get_experiment(exp_id: str) -> Callable[..., ExperimentResult]:
    """Look an experiment up by id, with a helpful error."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (through the campaign engine)."""
    return get_experiment(exp_id)(**kwargs)
