"""Shared benchmark plumbing: run an experiment once, time it, print it."""

from __future__ import annotations

import repro.api as api
from repro.artifacts.result import ExperimentResult

__all__ = ["run_and_report"]


def run_and_report(benchmark, exp_id: str, **kwargs) -> ExperimentResult:
    """Benchmark one experiment end-to-end (single round) and print it.

    Experiments are whole-simulation workloads, so we run exactly one
    timed round — the interesting number is the wall-clock of regenerating
    the artifact, not a microsecond distribution.
    """
    result = benchmark.pedantic(
        api.run, args=(exp_id,), kwargs=kwargs, iterations=1, rounds=1
    )
    print()
    print(result.render())
    return result
