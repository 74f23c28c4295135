"""The ``card-lint`` rule catalog.

Every rule enforces one convention the reproduction's guarantees rest
on; each is individually suppressible with
``# card-lint: disable=<RULE> -- justification``.

Determinism (cells must be pure functions of their content-hashed spec):

* **CARD-D01** — no wall-clock or monotonic-clock reads outside
  ``repro.obs`` (duration clocks are additionally fine inside
  ``benchmarks/``, where timing is the point);
* **CARD-D02** — no stdlib ``random`` and no global numpy RNG: streams
  come from :func:`repro.util.rng.spawn_rng` or a seeded
  ``default_rng``;
* **CARD-D03** — nothing in the import closure of the cell executor
  (``repro.campaign.runner``) touches ``os.environ``/``os.urandom``/
  ``uuid.uuid4`` — ambient process state must not be able to leak into
  cell metrics.

Layering (the dependency DAG is data in
:data:`tools.card_lint.engine.DEFAULT_LAYER_CONSTRAINTS`):

* **CARD-L02** — simulation layers (``repro.net``/``repro.core``/
  ``repro.des``) never import orchestration
  (``repro.campaign``/``repro.service``/``repro.artifacts``), not even
  lazily;
* **CARD-L03** — the campaign engine (``repro.campaign.{spec,runner,
  store,aggregate}``, ``repro.service.{queue,worker,daemon}``) never
  imports the artifact definitions/registry or ``repro.api``, deferred
  imports included (``repro.artifacts.result`` is the shared table type).

Reachability:

* **CARD-R01** — every package module lies in the deferred-import
  closure of the entry points (:data:`ENTRY_ROOTS` plus every
  ``*.__main__``), walked without ancestor packages so a facade
  re-export is not a use; a package counts while anything inside it is
  reached;
* **CARD-R02** — every public top-level def or class, and every public
  method, under the package is named (an ``ast.Name`` or
  ``ast.Attribute``) by some scanned file that is not a test (one under
  ``tests/``, or a ``test_*.py`` or ``conftest.py`` anywhere): code only
  tests reach is deleted, or is a test oracle and lives in ``tests/``.
  Imports and ``__all__`` strings are not uses; ``visit_*``, ``do_*``
  and ``log_message`` are dispatched by name and exempt.  The verdict
  depends on the scan covering every caller, so lint ``src tests
  benchmarks examples tools`` together.

Concurrency/durability discipline:

* **CARD-C01** — sqlite modules take write locks eagerly: explicit
  transactions open with ``BEGIN IMMEDIATE`` and connections opt out of
  the driver's implicit (deferred) transactions with
  ``isolation_level=None``;
* **CARD-C02** — JSONL appends are a single ``write()`` per record, so
  a crash mid-append truncates at most one line and concurrent writers
  never interleave;
* **CARD-C03** — no silently swallowed broad exceptions in the
  lease/commit/heartbeat paths (``repro.service``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Finding, LintConfig, ModuleUnit
from .importgraph import ImportGraph

__all__ = ["ALL_RULES", "Rule", "rule_catalog"]


# ----------------------------------------------------------------------
class Rule:
    """Base class: module rules override ``check``, project rules
    ``check_project`` (and set ``project_wide = True``); a project rule
    sees the package's import graph and every scanned file."""

    id: str = ""
    category: str = ""
    summary: str = ""
    project_wide: bool = False

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        return []

    def check_project(
        self,
        graph: ImportGraph,
        units: Sequence[ModuleUnit],
        config: LintConfig,
    ) -> List[Finding]:
        return []

    # ------------------------------------------------------------------
    def finding(self, unit_or_path, node: ast.AST, message: str) -> Finding:
        path = (
            unit_or_path.rel
            if isinstance(unit_or_path, ModuleUnit)
            else str(unit_or_path)
        )
        return Finding(
            rule=self.id,
            category=self.category,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Names the file binds to ``module`` (``import time as t`` → {t})."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or module.split(".")[0])
    return aliases


def _matches_prefix(module: Optional[str], prefixes: Sequence[str]) -> bool:
    if module is None:
        return False
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


# ----------------------------------------------------------------------
#: duration clocks: monotonic, meaningless as data, legitimate for
#: measuring elapsed time in benchmark harnesses
_DURATION_CLOCKS = {
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
#: wall clocks: absolute timestamps that differ run to run
_WALL_CLOCKS = {"time", "time_ns"}
_DATETIME_CLOCKS = {"now", "utcnow", "today"}


class WallClockRule(Rule):
    id = "CARD-D01"
    category = "determinism"
    summary = (
        "no wall/monotonic clock reads outside repro.obs "
        "(duration clocks also allowed under benchmarks/)"
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        if _matches_prefix(unit.module, config.clock_exempt_modules):
            return []
        duration_ok = unit.top_dir in config.duration_clock_dirs
        time_aliases = _module_aliases(unit.tree, "time")
        dt_aliases = _module_aliases(unit.tree, "datetime")
        # `from time import perf_counter [as pc]` style bindings
        bound_clocks: Dict[str, str] = {}
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _DURATION_CLOCKS | _WALL_CLOCKS:
                        bound_clocks[alias.asname or alias.name] = alias.name

        findings: List[Finding] = []

        def flag(node: ast.AST, call: str, kind: str) -> None:
            if kind == "duration" and duration_ok:
                return
            findings.append(
                self.finding(
                    unit,
                    node,
                    f"{call} is a {kind} clock read; cells must be pure "
                    "functions of their spec — route timing through "
                    "repro.obs, or pragma this line with a justification",
                )
            )

        # names bound to the datetime/date classes themselves
        dt_class_names: Set[str] = set()
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in {"datetime", "date"}:
                        dt_class_names.add(alias.asname or alias.name)

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Attribute):
                base = _dotted(node.value)
                if base in time_aliases and node.attr in _DURATION_CLOCKS:
                    flag(node, f"time.{node.attr}", "duration")
                elif base in time_aliases and node.attr in _WALL_CLOCKS:
                    flag(node, f"time.{node.attr}", "wall")
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[-1] in _DATETIME_CLOCKS and (
                    # datetime.datetime.now() / dt.date.today()
                    (
                        len(parts) >= 3
                        and parts[0] in dt_aliases
                        and parts[-2] in {"datetime", "date"}
                    )
                    # datetime.now() via `from datetime import datetime`
                    or (len(parts) == 2 and parts[0] in dt_class_names)
                ):
                    flag(node, dotted, "wall")
                elif len(parts) == 1 and parts[0] in bound_clocks:
                    kind = (
                        "duration"
                        if bound_clocks[parts[0]] in _DURATION_CLOCKS
                        else "wall"
                    )
                    flag(node, f"time.{bound_clocks[parts[0]]}", kind)
        return findings


# ----------------------------------------------------------------------
#: numpy.random names that are fine to call: explicitly-seeded
#: generator/bit-generator constructors and seeding machinery
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}
#: constructors that fall back to OS entropy when called with no seed
_NP_SEEDED_CTORS = {"default_rng", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}


class GlobalRngRule(Rule):
    id = "CARD-D02"
    category = "determinism"
    summary = (
        "no stdlib random and no global numpy RNG; streams come from "
        "spawn_rng / an explicitly seeded default_rng"
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        findings: List[Finding] = []
        numpy_aliases = _module_aliases(unit.tree, "numpy")
        npr_aliases = _module_aliases(unit.tree, "numpy.random")
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        npr_aliases.add(alias.asname or "random")

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        findings.append(
                            self.finding(
                                unit,
                                node,
                                "stdlib random draws from hidden global "
                                "state; derive a stream with "
                                "repro.util.rng.spawn_rng instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                findings.append(
                    self.finding(
                        unit,
                        node,
                        "stdlib random draws from hidden global state; "
                        "derive a stream with repro.util.rng.spawn_rng "
                        "instead",
                    )
                )
            elif isinstance(node, ast.Call):
                fn = self._np_random_function(
                    node.func, numpy_aliases, npr_aliases
                )
                if fn is None:
                    continue
                if fn not in _NP_RANDOM_ALLOWED:
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            f"np.random.{fn}() uses numpy's global RNG; "
                            "spawn a seeded Generator via spawn_rng / "
                            "default_rng(seed) instead",
                        )
                    )
                elif fn in _NP_SEEDED_CTORS and not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            f"np.random.{fn}() without a seed draws OS "
                            "entropy and is unreproducible; pass an "
                            "explicit seed (derive it with spawn_rng)",
                        )
                    )
        return findings

    @staticmethod
    def _np_random_function(
        func: ast.AST, numpy_aliases: Set[str], npr_aliases: Set[str]
    ) -> Optional[str]:
        """The ``X`` of an ``np.random.X(...)`` call, else None."""
        if isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in numpy_aliases
            ):
                return func.attr
            if isinstance(base, ast.Name) and base.id in npr_aliases:
                return func.attr
        return None


# ----------------------------------------------------------------------
#: ambient process state readable from cell code; (module, attr, why)
_ENTROPY_SOURCES = (
    ("os", "environ", "environment variables vary across hosts and shells"),
    ("os", "getenv", "environment variables vary across hosts and shells"),
    ("os", "urandom", "os.urandom is OS entropy"),
    ("uuid", "uuid4", "uuid4 is OS entropy"),
    ("uuid", "uuid1", "uuid1 embeds host and wall-clock state"),
)


class CellEntropyRule(Rule):
    id = "CARD-D03"
    category = "determinism"
    summary = (
        "the cell executor's import closure must not read ambient "
        "process state (os.environ / os.urandom / uuid4)"
    )
    project_wide = True

    def check_project(
        self,
        graph: ImportGraph,
        units: Sequence[ModuleUnit],
        config: LintConfig,
    ) -> List[Finding]:
        findings: List[Finding] = []
        roots = [r for r in config.cell_entry_roots if r in graph.modules]
        closure = graph.closure(roots, include_deferred=True)
        for module in sorted(closure):
            path = graph.modules[module]
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue  # reported by the engine as a parse error
            chain = graph.chain(roots, module, include_deferred=True) or [
                module
            ]
            via = " -> ".join(chain)
            for node in ast.walk(tree):
                hit = self._entropy_use(node, tree)
                if hit is None:
                    continue
                name, why = hit
                findings.append(
                    self.finding(
                        _display(path),
                        node,
                        f"{name} is reachable from the cell executor "
                        f"({via}); {why} — cells must be pure functions "
                        "of their spec",
                    )
                )
        return findings

    @staticmethod
    def _entropy_use(
        node: ast.AST, tree: ast.AST
    ) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            for module, attr, why in _ENTROPY_SOURCES:
                if base == module and node.attr == attr:
                    return f"{module}.{attr}", why
        if isinstance(node, ast.ImportFrom):
            for module, attr, why in _ENTROPY_SOURCES:
                if node.module == module and any(
                    a.name == attr for a in node.names
                ):
                    return f"{module}.{attr}", why
        return None


def _display(path) -> str:
    from .engine import _display_path

    return _display_path(path)


# ----------------------------------------------------------------------
class LayerRule(Rule):
    """One rule instance per :class:`LayerConstraint` (data-driven)."""

    category = "layering"
    project_wide = True

    def __init__(self, rule_id: str) -> None:
        self.id = rule_id
        self.summary = "module imports must follow the dependency DAG"

    def check_project(
        self,
        graph: ImportGraph,
        units: Sequence[ModuleUnit],
        config: LintConfig,
    ) -> List[Finding]:
        constraints = [
            c for c in config.layer_constraints if c.rule == self.id
        ]
        findings: List[Finding] = []
        for constraint in constraints:
            sources = [
                m
                for m in graph.modules
                if _matches_prefix(m, constraint.sources)
            ]
            # facade re-exports (edges into a module's own ancestor
            # package) are not dependencies: walk without them
            closure = graph.closure(
                sources, include_deferred=True, follow_ancestors=False
            )
            # report every edge that crosses into forbidden territory,
            # with the chain that reaches the importing module
            for module in sorted(closure):
                for edge in graph.imports_of(module, include_deferred=True):
                    if module.startswith(edge.dst + "."):
                        continue
                    if not _matches_prefix(edge.dst, constraint.forbidden):
                        continue
                    chain = graph.chain(
                        sources, module, include_deferred=True,
                        follow_ancestors=False,
                    ) or [module]
                    via = " -> ".join(chain + [edge.dst])
                    findings.append(
                        Finding(
                            rule=self.id,
                            category=self.category,
                            path=_display(graph.modules[module]),
                            line=edge.lineno,
                            col=1,
                            message=(
                                f"import of {edge.dst} breaks the "
                                f"dependency DAG ({via}); "
                                f"{constraint.reason}"
                            ),
                        )
                    )
        return findings


# ----------------------------------------------------------------------
#: what a user runs: the two console scripts, the facade and the cell
#: executor — every ``*.__main__`` is an entry point as well
ENTRY_ROOTS = (
    "repro.campaign.__main__",
    "repro.service.__main__",
    "repro.api",
    "repro.campaign.runner",
)


class ReachabilityRule(Rule):
    id = "CARD-R01"
    category = "reachability"
    summary = (
        "every package module is imported, lazily or not, from an entry "
        "point (console scripts, *.__main__, repro.api, the cell "
        "executor); facade re-exports do not count"
    )
    project_wide = True

    def check_project(
        self,
        graph: ImportGraph,
        units: Sequence[ModuleUnit],
        config: LintConfig,
    ) -> List[Finding]:
        roots = sorted(
            m
            for m in graph.modules
            if m in ENTRY_ROOTS or m.endswith(".__main__")
        )
        if not roots:
            return []  # no entry point in the package: nothing to judge
        # without ancestors, `repro/__init__.py` re-exporting a module is
        # not a use of it — only an import from reached code is
        reached = graph.closure(
            roots, include_deferred=True, follow_ancestors=False
        )
        findings: List[Finding] = []
        for module in sorted(graph.modules):
            if module in reached:
                continue
            path = graph.modules[module]
            if path.name == "__init__.py" and any(
                m.startswith(module + ".") for m in reached
            ):
                continue  # a package runs with whatever is reached inside it
            findings.append(
                Finding(
                    rule=self.id,
                    category=self.category,
                    path=_display(path),
                    line=1,
                    col=1,
                    message=(
                        f"{module} is imported, lazily or not, by no "
                        "entry point (console scripts, *.__main__, "
                        "repro.api, the cell executor); delete it, move it "
                        "to its only user outside the package, or pragma "
                        "the file with the reason it stays"
                    ),
                )
            )
        return findings


# ----------------------------------------------------------------------
#: names CARD-R02 never judges: private names and dunders (``_``), and
#: methods the runtime calls by a name no source spells out — ``ast``
#: visitors (``visit_*``) and ``http.server`` handlers (``do_*``,
#: ``log_message``)
_UNJUDGED_PREFIXES = ("_", "visit_", "do_")
_UNJUDGED_NAMES = frozenset({"log_message"})


def _is_test(unit: ModuleUnit) -> bool:
    """Whether CARD-R02 reads ``unit`` as a test: anything under
    ``tests/``, and a ``test_*.py`` or ``conftest.py`` in any tree."""
    name = unit.path.name
    return (
        unit.top_dir == "tests"
        or name == "conftest.py"
        or name.startswith("test_")
    )


def _judged_defs(tree: ast.Module) -> Iterator[ast.AST]:
    """Top-level defs and classes, and the methods of top-level classes,
    whose names are public and not dispatched by name."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in [node, *(m for m in members if isinstance(m, defs[:2]))]:
            if not (
                n.name.startswith(_UNJUDGED_PREFIXES)
                or n.name in _UNJUDGED_NAMES
            ):
                yield n


class NameReachabilityRule(Rule):
    id = "CARD-R02"
    category = "reachability"
    summary = (
        "every public def, class and method in the package is named by "
        "some scanned file that is not a test (under tests/, test_*.py or "
        "conftest.py); an import or an __all__ entry is not a use"
    )
    project_wide = True

    def check_project(
        self,
        graph: ImportGraph,
        units: Sequence[ModuleUnit],
        config: LintConfig,
    ) -> List[Finding]:
        used: Set[str] = set()
        for unit in units:
            if _is_test(unit):
                continue
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        findings: List[Finding] = []
        for unit in units:
            if not _matches_prefix(unit.module, (graph.root,)):
                continue
            for node in _judged_defs(unit.tree):
                if node.name in used:
                    continue
                findings.append(
                    self.finding(
                        unit,
                        node,
                        f"{node.name} is named only by tests; delete it "
                        "(and the tests that check only it), move a test "
                        "oracle to tests/oracles.py, or pragma it with the "
                        "reason it stays",
                    )
                )
        return findings


# ----------------------------------------------------------------------
class SqliteTxnRule(Rule):
    id = "CARD-C01"
    category = "concurrency"
    summary = (
        "sqlite write transactions take their lock eagerly: explicit "
        "BEGIN IMMEDIATE, connections opened with isolation_level=None"
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        if unit.module is None or not unit.module.startswith("repro"):
            return []
        if not _module_aliases(unit.tree, "sqlite3"):
            return []
        findings: List[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in {"execute", "executescript"}
                and node.args
            ):
                sql = self._leading_sql(node.args[0])
                if sql is None:
                    continue
                head = sql.lstrip().upper()
                if head.startswith("BEGIN") and not head.startswith(
                    "BEGIN IMMEDIATE"
                ):
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            "write transactions must open with BEGIN "
                            "IMMEDIATE — a deferred BEGIN upgrades its "
                            "lock mid-transaction and can deadlock or "
                            "fail with SQLITE_BUSY after partial work",
                        )
                    )
            if dotted is not None and dotted.endswith("sqlite3.connect"):
                kwargs = {k.arg for k in node.keywords}
                if "isolation_level" not in kwargs:
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            "sqlite3.connect without isolation_level=None "
                            "leaves the driver's implicit deferred "
                            "transactions on; manage transactions "
                            "explicitly (BEGIN IMMEDIATE / COMMIT)",
                        )
                    )
        return findings

    @staticmethod
    def _leading_sql(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                return first.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return SqliteTxnRule._leading_sql(node.left)
        return None


# ----------------------------------------------------------------------
class JsonlAppendRule(Rule):
    id = "CARD-C02"
    category = "concurrency"
    summary = (
        "JSONL appends must be a single write() per record (payload and "
        "newline concatenated), so crashes truncate at most one line"
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        if not _matches_prefix(unit.module, config.jsonl_modules):
            return []
        findings: List[Finding] = []
        for func in ast.walk(unit.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes: List[ast.Call] = []
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write"
                ):
                    writes.append(node)
                    if (
                        node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == "\n"
                    ):
                        findings.append(
                            self.finding(
                                unit,
                                node,
                                "record and newline written separately; a "
                                "crash between the two writes leaves an "
                                "unterminated line and concurrent writers "
                                "can interleave — concatenate and write "
                                "once",
                            )
                        )
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and any(k.arg == "file" for k in node.keywords)
                ):
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            "print(..., file=fh) issues multiple writes "
                            "per line; build the record text and write() "
                            "it once",
                        )
                    )
            if len(writes) > 1:
                for node in writes[1:]:
                    findings.append(
                        self.finding(
                            unit,
                            node,
                            f"{len(writes)} write() calls in "
                            f"{func.name}(); a JSONL append must land in "
                            "exactly one write per record",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
class SwallowedExceptionRule(Rule):
    id = "CARD-C03"
    category = "concurrency"
    summary = (
        "no `except Exception: pass` in lease/commit/heartbeat paths — "
        "a swallowed error there silently loses work or leases"
    )

    _BROAD = {"Exception", "BaseException"}

    def check(self, unit: ModuleUnit, config: LintConfig) -> List[Finding]:
        if not _matches_prefix(unit.module, config.lease_modules):
            return []
        findings: List[Finding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(
                isinstance(stmt, (ast.Pass, ast.Continue))
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            ):
                findings.append(
                    self.finding(
                        unit,
                        node,
                        "broad exception swallowed with no handling; in "
                        "the lease protocol this can silently drop a "
                        "result or leak a lease — handle, log via the "
                        "queue, or narrow the except",
                    )
                )
        return findings

    @classmethod
    def _is_broad(cls, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:  # bare except
            return True
        if isinstance(type_node, ast.Name):
            return type_node.id in cls._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(cls._is_broad(el) for el in type_node.elts)
        return False


# ----------------------------------------------------------------------
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRngRule(),
    CellEntropyRule(),
    LayerRule("CARD-L02"),
    LayerRule("CARD-L03"),
    ReachabilityRule(),
    NameReachabilityRule(),
    SqliteTxnRule(),
    JsonlAppendRule(),
    SwallowedExceptionRule(),
)


def rule_catalog() -> List[Dict[str, str]]:
    """Stable id/category/summary listing (CLI ``--list-rules``)."""
    return [
        {"id": r.id, "category": r.category, "summary": r.summary}
        for r in ALL_RULES
    ]
