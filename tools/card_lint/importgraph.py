"""Static import graph over the ``repro`` package.

The layering and determinism rules of :mod:`tools.card_lint` need to answer
two questions without running any code:

* which modules does ``import repro.api`` pull in *at import time*
  (function-level imports are lazy and do not count)?
* which modules can :func:`repro.campaign.runner.execute_cell` possibly
  reach at *run* time (here lazy imports count — a worker executes them)?

Both reduce to reachability over one graph: every module of the package
is a node, every ``import``/``from … import`` statement an edge tagged
with whether it executes at import time (``deferred=False``) or only
when the enclosing function runs (``deferred=True``).  Imports guarded
by ``typing.TYPE_CHECKING`` never execute and are recorded as deferred.

Python semantics matter for closures: importing ``repro.campaign.store``
also executes ``repro/__init__.py`` and ``repro/campaign/__init__.py``,
so the closure always includes every ancestor package of a reached
module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["ImportEdge", "ImportGraph", "build_graph"]


@dataclass(frozen=True)
class ImportEdge:
    """One ``import`` statement, resolved to an internal module."""

    src: str
    dst: str
    lineno: int
    #: True when the import only executes if some function is called
    #: (function body or ``TYPE_CHECKING`` guard).
    deferred: bool


@dataclass
class ImportGraph:
    """Modules of one package and the import edges between them."""

    #: package name the graph was built for (``"repro"``)
    root: str
    #: dotted module name -> source file
    modules: Dict[str, Path] = field(default_factory=dict)
    #: dotted module name -> outgoing edges
    edges: Dict[str, List[ImportEdge]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def ancestors(self, module: str) -> List[str]:
        """Known package modules that importing ``module`` also executes."""
        parts = module.split(".")
        out = []
        for i in range(1, len(parts)):
            pkg = ".".join(parts[:i])
            if pkg in self.modules:
                out.append(pkg)
        return out

    def imports_of(self, module: str, *, include_deferred: bool) -> List[ImportEdge]:
        return [
            e
            for e in self.edges.get(module, ())
            if include_deferred or not e.deferred
        ]

    # ------------------------------------------------------------------
    def closure(
        self,
        roots: Sequence[str],
        *,
        include_deferred: bool,
        follow_ancestors: bool = True,
    ) -> Set[str]:
        """Every known module reachable from ``roots`` (roots included).

        ``follow_ancestors=True`` models real import semantics: reaching
        ``a.b.c`` also executes packages ``a`` and ``a.b`` — and follows
        whatever *they* import.  Layering checks pass ``False``: an edge
        into a module's own ancestor package (the root facade) is a
        re-export artifact, not a dependency, and following the facade
        would make every layer "reach" every other.
        """
        return set(
            self._walk(
                roots,
                include_deferred=include_deferred,
                follow_ancestors=follow_ancestors,
            )
        )

    def chain(
        self,
        roots: Sequence[str],
        target: str,
        *,
        include_deferred: bool,
        follow_ancestors: bool = True,
    ) -> Optional[List[str]]:
        """A shortest root → … → ``target`` import chain, or ``None``."""
        parents = self._walk(
            roots,
            include_deferred=include_deferred,
            follow_ancestors=follow_ancestors,
        )
        if target not in parents:
            return None
        path = [target]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        return list(reversed(path))

    def _walk(
        self,
        roots: Sequence[str],
        *,
        include_deferred: bool,
        follow_ancestors: bool,
    ) -> Dict[str, Optional[str]]:
        """BFS; returns reached module -> parent (None for roots)."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []

        def reach(module: str, parent: Optional[str]) -> None:
            if module in parents or module not in self.modules:
                return
            parents[module] = parent
            queue.append(module)
            if follow_ancestors:
                # importing a module executes its ancestor packages too
                for pkg in self.ancestors(module):
                    reach(pkg, module)

        for root in roots:
            reach(root, None)
        while queue:
            current = queue.pop(0)
            for edge in self.imports_of(
                current, include_deferred=include_deferred
            ):
                if not follow_ancestors and current.startswith(
                    edge.dst + "."
                ):
                    # `from repro import x` inside repro.y.z — the root
                    # package already ran before this module could exist
                    continue
                reach(edge.dst, current)
        return parents


# ----------------------------------------------------------------------
def _module_name(root: str, package_root: Path, path: Path) -> Optional[str]:
    rel = path.relative_to(package_root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root, *parts]) if parts else root


def _is_type_checking_guard(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            return True
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collect internal import edges of one module."""

    def __init__(self, graph: ImportGraph, module: str) -> None:
        self.graph = graph
        self.module = module
        self.edges: List[ImportEdge] = []
        self._depth = 0  # function nesting ⇒ deferred
        self._guarded = 0  # TYPE_CHECKING nesting ⇒ deferred

    # -- deferral context ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_guard(node.test):
            self._guarded += 1
            for child in node.body:
                self.visit(child)
            self._guarded -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    @property
    def _deferred(self) -> bool:
        return self._depth > 0 or self._guarded > 0

    # -- import statements ---------------------------------------------
    def _add(self, dst: str, lineno: int) -> None:
        root = self.graph.root
        if dst == root or dst.startswith(root + "."):
            self.edges.append(
                ImportEdge(self.module, dst, lineno, self._deferred)
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # resolve `from .x import y` against this module's package
            parts = self.module.split(".")
            # a package module (its file is __init__.py) is its own package
            is_package = (
                self.graph.modules[self.module].name == "__init__.py"
                if self.module in self.graph.modules
                else False
            )
            cut = len(parts) - node.level + (1 if is_package else 0)
            if cut < 1:
                return
            base = ".".join(
                parts[:cut] + ([node.module] if node.module else [])
            )
        else:
            base = node.module or ""
        if not base:
            return
        self._add(base, node.lineno)
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.graph.modules:
                self._add(candidate, node.lineno)


def build_graph(package_root: Path, *, root: Optional[str] = None) -> ImportGraph:
    """Parse every module under ``package_root`` into an :class:`ImportGraph`.

    ``package_root`` is the package directory itself (``…/src/repro``);
    ``root`` defaults to its name.  Files that fail to parse are skipped
    — the lint engine reports syntax errors separately.
    """
    package_root = Path(package_root)
    graph = ImportGraph(root=root or package_root.name)
    files: List[Tuple[str, Path]] = []
    for path in sorted(package_root.rglob("*.py")):
        name = _module_name(graph.root, package_root, path)
        if name is not None:
            graph.modules[name] = path
            files.append((name, path))
    for name, path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        collector = _ImportCollector(graph, name)
        collector.visit(tree)
        graph.edges[name] = collector.edges
    return graph
