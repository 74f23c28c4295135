"""``repro.lint`` — invariant-enforcing static analysis for this repo.

The reproduction's headline guarantee (bit-identical artifacts across
worker counts, crash/resume and ``kill -9`` mid-lease) rests on
conventions: cells are pure functions of content-hashed specs, all
randomness flows through :func:`repro.util.rng.spawn_rng`, the facade
never imports the legacy harness, sqlite transitions take their locks
eagerly, JSONL appends are single writes.  This package turns those
conventions into machine-checked rules.

Run it as ``card-lint src tests benchmarks examples`` or ``python -m
repro.lint``; see :mod:`repro.lint.rules` for the catalog and the
README's "Static analysis" section for the pragma workflow.  Pure stdlib
(``ast``/``tokenize``) — no new runtime dependencies.
"""

from repro.lint.engine import (
    Finding,
    LintConfig,
    LintReport,
    LintUsageError,
    run_lint,
)
from repro.lint.importgraph import ImportEdge, ImportGraph, build_graph
from repro.lint.rules import ALL_RULES, rule_catalog

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
