"""The ``card-lint`` engine: file discovery, pragmas, reporting.

The engine is deliberately small: it walks the given paths, parses each
``*.py`` file once, hands the AST to every registered rule
(:mod:`tools.card_lint.rules`), then filters the findings through
``# card-lint: disable=RULE`` pragmas.

Two kinds of rules exist:

* **module rules** see one file at a time (wall-clock calls, global RNG,
  sqlite transaction discipline, …);
* **project rules** see the whole-package import graph
  (:mod:`tools.card_lint.importgraph`) and every scanned file, and run once
  per invocation — layering, entropy-reachability and module and name
  reachability cannot be judged file-locally.

Suppression syntax (the ``--`` justification is free text, encouraged):

* ``# card-lint: disable=CARD-D01 -- why this site is legitimate``
  on the offending line;
* ``# card-lint: disable-file=CARD-D01 -- why`` anywhere in the file
  (conventionally at the top) to exempt the whole file from a rule.

Pragmas are the only suppression: an exception sits next to the code
it excuses, with its justification, and nowhere else.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .importgraph import ImportGraph, build_graph

__all__ = [
    "REPORT_VERSION",
    "Finding",
    "LintConfig",
    "LintReport",
    "LintUsageError",
    "ModuleUnit",
    "run_lint",
]

#: schema version of the JSON report emitted by ``--format json``
REPORT_VERSION = 2


class LintUsageError(Exception):
    """Configuration/usage problem (CLI exit code 2, not a finding)."""


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    category: str
    path: str  # posix, relative to the invocation root when possible
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "category": self.category,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerConstraint:
    """One edge class the dependency DAG forbids (data, not code)."""

    rule: str
    #: module/package prefixes the constraint protects
    sources: Tuple[str, ...]
    #: module/package prefixes the sources must never reach
    forbidden: Tuple[str, ...]
    reason: str


#: The repo's dependency DAG, as data; deferred (function-level) imports
#: count like top-level ones.  ``repro.net``/``repro.core``/``repro.des``
#: are simulation layers: orchestration (campaign/service/artifacts) may
#: import them, never the reverse.  The engine proper (spec, runner,
#: stores, aggregation, queue, workers, daemon) runs cells and knows no
#: artifact: the definitions and the facade sit above it, and only the
#: ``__main__`` CLIs and ``service/http.py`` (which serves the registry)
#: bridge the two — ``repro.artifacts.result``, the table type the
#: aggregation layer returns, is the one shared module.
DEFAULT_LAYER_CONSTRAINTS: Tuple[LayerConstraint, ...] = (
    LayerConstraint(
        rule="CARD-L02",
        sources=("repro.net", "repro.core", "repro.des"),
        forbidden=("repro.campaign", "repro.service", "repro.artifacts"),
        reason="simulation layers must not depend on orchestration layers",
    ),
    LayerConstraint(
        rule="CARD-L03",
        sources=(
            "repro.campaign.spec",
            "repro.campaign.runner",
            "repro.campaign.store",
            "repro.campaign.aggregate",
            "repro.service.queue",
            "repro.service.worker",
            "repro.service.daemon",
        ),
        forbidden=(
            "repro.api",
            "repro.artifacts.recipes",
            "repro.artifacts.artifact",
            "repro.artifacts.definitions",
            "repro.artifacts.registry",
        ),
        reason="the campaign engine must not know the artifact definitions",
    ),
)

@dataclass
class LintConfig:
    """What the rules check and where — the repo's invariants as data."""

    #: the package directory (``…/src/repro``); None disables the
    #: project rules (layering, entropy and module reachability)
    package_root: Optional[Path] = None
    #: modules exempt from CARD-D01 (telemetry exists to read clocks)
    clock_exempt_modules: Tuple[str, ...] = ("repro.obs",)
    #: top-level directories where *duration* clocks (perf_counter,
    #: monotonic) are the point; wall-clock stamps stay flagged
    duration_clock_dirs: Tuple[str, ...] = ("benchmarks",)
    #: modules whose JSONL appends must be single-write (CARD-C02)
    jsonl_modules: Tuple[str, ...] = ("repro.campaign.store", "repro.obs.trace")
    #: module prefixes where swallowed exceptions are forbidden (CARD-C03)
    lease_modules: Tuple[str, ...] = ("repro.service",)
    #: entry points whose import closure must be entropy-free (CARD-D03)
    cell_entry_roots: Tuple[str, ...] = ("repro.campaign.runner",)
    layer_constraints: Tuple[LayerConstraint, ...] = DEFAULT_LAYER_CONSTRAINTS
    #: only run rules whose id starts with one of these (empty = all)
    select: Tuple[str, ...] = ()
    #: skip rules whose id starts with one of these
    ignore: Tuple[str, ...] = ()

    @classmethod
    def default(cls, package_root: Optional[Path] = None) -> "LintConfig":
        """The repo's configuration; auto-locates ``src/repro``."""
        if package_root is None:
            candidate = Path("src") / "repro"
            package_root = candidate if candidate.is_dir() else None
        return cls(package_root=package_root)

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and not any(rule_id.startswith(s) for s in self.select):
            return False
        return not any(rule_id.startswith(s) for s in self.ignore)


# ----------------------------------------------------------------------
@dataclass
class ModuleUnit:
    """One parsed source file."""

    path: Path
    rel: str  # posix display path
    module: Optional[str]  # dotted name when inside the package, else None
    tree: ast.AST
    source: str

    @property
    def top_dir(self) -> str:
        return self.rel.split("/", 1)[0] if "/" in self.rel else ""


_PRAGMA_RE = re.compile(
    r"card-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_\-*,\s]+?)\s*(?:--.*)?$"
)


def _parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """(line -> disabled rule ids, file-wide disabled rule ids)."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if not match:
                continue
            rules = {r.strip() for r in match.group(2).split(",") if r.strip()}
            if match.group(1) == "disable-file":
                per_file |= rules
            else:
                per_line.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return per_line, per_file


def _suppressed(finding: Finding, source: str) -> bool:
    per_line, per_file = _parse_pragmas(source)
    for disabled in (per_file, per_line.get(finding.line, set())):
        if finding.rule in disabled or "*" in disabled:
            return True
    return False


# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    suppressed: int
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_dict(self) -> Dict[str, object]:
        from .rules import ALL_RULES  # local: rules import engine

        return {
            "tool": "card-lint",
            "version": REPORT_VERSION,
            "rules": [
                {
                    "id": rule.id,
                    "category": rule.category,
                    "summary": rule.summary,
                }
                for rule in ALL_RULES
            ],
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "files": self.files_checked,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "parse_errors": [
                    {"path": path, "error": err}
                    for path, err in self.parse_errors
                ],
            },
        }


def _display_path(path: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _module_of(path: Path, package_root: Optional[Path]) -> Optional[str]:
    resolved = path.resolve()
    if package_root is not None:
        try:
            rel = resolved.relative_to(package_root.resolve())
        except ValueError:
            rel = None
        if rel is not None:
            parts = list(rel.with_suffix("").parts)
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            return ".".join([package_root.name, *parts])
    # fallback: anything under a `src/` directory is package code
    parts = resolved.with_suffix("").parts
    if "src" in parts[:-1]:
        sub = list(parts[parts.index("src") + 1 :])
        if sub and sub[-1] == "__init__":
            sub = sub[:-1]
        return ".".join(sub) if sub else None
    return None


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if not path.exists():
            raise LintUsageError(f"no such path: {path}")
        candidates = (
            sorted(path.rglob("*.py")) if path.is_dir() else [path]
        )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _parse_unit(path: Path, config: LintConfig) -> Optional[ModuleUnit]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)  # SyntaxError propagates to the caller
    return ModuleUnit(
        path=path,
        rel=_display_path(path),
        module=_module_of(path, config.package_root),
        tree=tree,
        source=source,
    )


# ----------------------------------------------------------------------
def run_lint(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint ``paths`` under ``config``; the library entry point.

    Module rules run over every ``*.py`` file found under ``paths``.
    Project rules (layering, entropy closure) run once over
    ``config.package_root`` regardless of which paths were given — their
    findings land in package files even when only ``tests/`` was
    scanned, because the invariants they enforce are package-global.
    CARD-R02 is the exception: it judges the package files among
    ``paths`` by the uses it finds in the other scanned files.
    """
    from .rules import ALL_RULES

    config = config or LintConfig.default()

    findings: List[Finding] = []
    parse_errors: List[Tuple[str, str]] = []
    units: List[ModuleUnit] = []
    for path in _discover([Path(p) for p in paths]):
        try:
            unit = _parse_unit(path, config)
        except SyntaxError as exc:
            parse_errors.append((_display_path(path), str(exc)))
            continue
        if unit is not None:
            units.append(unit)

    module_rules = [r for r in ALL_RULES if not r.project_wide]
    project_rules = [r for r in ALL_RULES if r.project_wide]

    for unit in units:
        for rule in module_rules:
            if config.rule_enabled(rule.id):
                findings.extend(rule.check(unit, config))

    graph: Optional[ImportGraph] = None
    if config.package_root is not None and Path(config.package_root).is_dir():
        graph = build_graph(Path(config.package_root))
        for rule in project_rules:
            if config.rule_enabled(rule.id):
                findings.extend(rule.check_project(graph, units, config))

    # pragma suppression — look the source up in scanned units first,
    # falling back to reading the file (project findings may point at
    # package files that were not among the scanned paths)
    source_by_path: Dict[str, str] = {u.rel: u.source for u in units}
    kept: List[Finding] = []
    suppressed = 0
    for finding in sorted(
        set(findings), key=lambda f: (f.path, f.line, f.rule, f.col)
    ):
        source = source_by_path.get(finding.path)
        if source is None:
            try:
                source = Path(finding.path).read_text(encoding="utf-8")
            except OSError:
                source = ""
            source_by_path[finding.path] = source
        if _suppressed(finding, source):
            suppressed += 1
        else:
            kept.append(finding)

    return LintReport(
        findings=kept,
        files_checked=len(units),
        suppressed=suppressed,
        parse_errors=parse_errors,
    )
