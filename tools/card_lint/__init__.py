"""``card-lint`` — invariant-enforcing static analysis for this repo.

The reproduction's headline guarantee (bit-identical artifacts across
worker counts, crash/resume and ``kill -9`` mid-lease) rests on
conventions: cells are pure functions of content-hashed specs, all
randomness flows through :func:`repro.util.rng.spawn_rng`, the facade
never imports the legacy harness, sqlite transitions take their locks
eagerly, JSONL appends are single writes.  This package turns those
conventions into machine-checked rules.

It checks the repository's own code and ships with no product: run it
from the repository root as ``python -m tools.card_lint src tests
benchmarks examples tools``.  See :mod:`tools.card_lint.rules` for the
catalog and the README's "Static analysis" section for the pragma
workflow.  Pure stdlib (``ast``/``tokenize``) — no new dependencies.
"""

from .engine import (
    Finding,
    LintConfig,
    LintReport,
    LintUsageError,
    run_lint,
)
from .importgraph import ImportEdge, ImportGraph, build_graph
from .rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "Finding",
    "ImportEdge",
    "ImportGraph",
    "LintConfig",
    "LintReport",
    "LintUsageError",
    "build_graph",
    "rule_catalog",
    "run_lint",
]
