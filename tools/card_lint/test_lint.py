"""Tests for :mod:`tools.card_lint` — the invariant-enforcing static analysis.

Structure:

* good/bad fixture pairs per rule family (determinism, layering,
  reachability, concurrency, spec hygiene) over tiny synthetic packages;
* pragma (``disable`` / ``disable-file`` / ``*``) behaviour — pragmas
  are the only suppression;
* CARD-P01 over a package, scripts beside it and a ``pyproject.toml``;
* the import-graph library (closures, deferral, ancestor semantics,
  top-level cycle detection);
* the CLI: exit codes, ``--format json`` schema, ``--select``;
* regressions against the real tree: the repo lints clean, a
  wall-clock read injected into a cell-executed module fails the build
  exactly the way CI would see it, and the modules this package once
  carried without any entry point reaching them are reported again
  when planted back.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from tests.oracles import toplevel_cycles

from . import LintConfig, build_graph, run_lint
from .cli import main
from .rules import ALL_RULES

REPO = Path(__file__).resolve().parents[2]

RULE_IDS = {
    "CARD-D01",
    "CARD-D02",
    "CARD-D03",
    "CARD-L02",
    "CARD-L03",
    "CARD-R01",
    "CARD-R02",
    "CARD-C01",
    "CARD-C02",
    "CARD-C03",
    "CARD-P01",
}


# ----------------------------------------------------------------------
def make_pkg(tmp_path: Path, files: dict) -> Path:
    """Materialise a fake ``src/repro`` package from {relpath: source}."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    for rel, source in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for path in list(pkg.rglob("*.py")):
        directory = path.parent
        while True:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            if directory == pkg:
                break
            directory = directory.parent
    return pkg


def lint_pkg(pkg: Path, *, select=(), paths=None):
    config = LintConfig(package_root=pkg)
    if select:
        config.select = tuple(select)
    return run_lint(paths if paths is not None else [pkg], config)


def rules_hit(report):
    return sorted({f.rule for f in report.findings})


# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_time_time_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/clocky.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert rules_hit(report) == ["CARD-D01"]
        assert "wall clock" in report.findings[0].message

    def test_from_time_binding_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/clocky.py": """
                from time import perf_counter as pc

                def elapsed():
                    return pc()
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert rules_hit(report) == ["CARD-D01"]
        assert "duration clock" in report.findings[0].message

    def test_datetime_now_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/a.py": """
                from datetime import datetime

                def stamp():
                    return datetime.now()
                """,
                "core/b.py": """
                import datetime as dt

                def stamp():
                    return dt.datetime.now()
                """,
            },
        )
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert len(report.findings) == 2

    def test_only_obs_modules_exempt(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        stamp = """
        import time

        def stamp():
            return time.time()
        """
        # an in-package bench module is no exemption: timing harnesses
        # live under benchmarks/, outside the package
        pkg = make_pkg(tmp_path, {"obs/clock.py": stamp, "bench/clock.py": stamp})
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert [f.path.endswith("bench/clock.py") for f in report.findings] == [True]

    def test_duration_clocks_allowed_under_benchmarks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_ok.py").write_text(
            "import time\nT0 = time.perf_counter()\n"
        )
        (bench / "bench_bad.py").write_text(
            "import time\nSTAMP = time.time()\n"
        )
        report = run_lint(
            [bench], LintConfig(package_root=None)
        )
        assert len(report.findings) == 1
        assert report.findings[0].path.endswith("bench_bad.py")


class TestGlobalRngRule:
    def test_global_rng_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/rngy.py": """
                import random
                import numpy as np

                def f():
                    return random.random() + np.random.rand()

                def g():
                    return np.random.default_rng()
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-D02",))
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 3
        assert "stdlib random" in messages
        assert "np.random.rand()" in messages
        assert "without a seed" in messages

    def test_seeded_default_rng_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/rngy.py": """
                import numpy as np

                def f(seed):
                    return np.random.default_rng(seed).random()
                """
            },
        )
        assert lint_pkg(pkg, select=("CARD-D02",)).findings == []


class TestCellEntropyRule:
    FILES = {
        "campaign/runner.py": """
        def execute_cell(spec):
            from repro.core import helper
            return helper.run(spec)
        """,
        "core/helper.py": """
        import os

        def run(spec):
            return {"host": os.environ.get("HOST", "")}
        """,
    }

    def test_entropy_in_cell_closure_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(tmp_path, self.FILES)
        report = lint_pkg(pkg, select=("CARD-D03",), paths=[])
        assert rules_hit(report) == ["CARD-D03"]
        finding = report.findings[0]
        assert "os.environ" in finding.message
        # the import chain from the executor is part of the message
        assert "repro.campaign.runner" in finding.message
        assert finding.path.endswith("core/helper.py")

    def test_clean_closure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        files = dict(self.FILES)
        files["core/helper.py"] = """
        def run(spec):
            return {"ok": True}
        """
        pkg = make_pkg(tmp_path, files)
        assert lint_pkg(pkg, select=("CARD-D03",), paths=[]).findings == []

    def test_entropy_outside_closure_not_flagged(self, tmp_path, monkeypatch):
        # os.environ in a module the executor never imports is D03-clean
        monkeypatch.chdir(tmp_path)
        files = dict(self.FILES)
        files["core/helper.py"] = "def run(spec):\n    return {}\n"
        files["service/envy.py"] = "import os\nHOST = os.environ.get('H')\n"
        pkg = make_pkg(tmp_path, files)
        assert lint_pkg(pkg, select=("CARD-D03",), paths=[]).findings == []


class TestLayerRules:
    def test_simulation_layer_lazy_import_still_flagged(
        self, tmp_path, monkeypatch
    ):
        # CARD-L02 forbids even deferred imports of orchestration
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/engine.py": """
                def save(x):
                    from repro.campaign import store
                    return store.put(x)
                """,
                "campaign/store.py": "def put(x):\n    return x\n",
            },
        )
        report = lint_pkg(pkg, select=("CARD-L02",), paths=[])
        assert rules_hit(report) == ["CARD-L02"]

    def test_engine_lazy_import_of_definitions_flagged(
        self, tmp_path, monkeypatch
    ):
        # CARD-L03: the engine knows no artifact, not even lazily
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/aggregate.py": """
                def title_of(exp_id):
                    from repro.artifacts.registry import ARTIFACTS
                    return ARTIFACTS[exp_id].title
                """,
                "artifacts/registry.py": "ARTIFACTS = {}\n",
            },
        )
        report = lint_pkg(pkg, select=("CARD-L03",), paths=[])
        assert rules_hit(report) == ["CARD-L03"]
        assert "repro.artifacts.registry" in report.findings[0].message

    def test_engine_may_share_the_result_type_and_clis_may_bridge(
        self, tmp_path, monkeypatch
    ):
        # repro.artifacts.result is the one shared module; the __main__
        # CLIs and service/http.py are the bridges to the registry
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/aggregate.py": (
                    "from repro.artifacts.result import ExperimentResult\n"
                ),
                "campaign/__main__.py": """
                def figure(exp_id):
                    from repro.artifacts.registry import ARTIFACTS
                    return ARTIFACTS[exp_id]
                """,
                "service/http.py": "import repro.api as api\n",
                "api.py": "from repro.artifacts.registry import ARTIFACTS\n",
                "artifacts/result.py": "class ExperimentResult: pass\n",
                "artifacts/registry.py": "ARTIFACTS = {}\n",
            },
        )
        assert lint_pkg(pkg, select=("CARD-L03",), paths=[]).findings == []

    def test_orchestration_importing_simulation_is_fine(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/runner.py": "from repro.core import engine\n",
                "core/engine.py": "def run():\n    return 1\n",
            },
        )
        assert lint_pkg(pkg, select=("CARD-L",), paths=[]).findings == []


class TestReachabilityRule:
    def test_facade_reexport_is_not_a_use(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "__init__.py": (
                    "from repro.orphan import helper\n"
                    "from repro.extras.thing import Thing\n"
                ),
                "api.py": "from repro.core import engine\n",
                "core/engine.py": "def run():\n    return 1\n",
                "orphan.py": "def helper():\n    return 1\n",
                "extras/thing.py": "class Thing: pass\n",
            },
        )
        report = lint_pkg(pkg, select=("CARD-R01",), paths=[])
        assert rules_hit(report) == ["CARD-R01"]
        # a package counts while anything inside it is reached: `repro`
        # and `repro.core` do, the wholly unreached `repro.extras` does not
        assert sorted(f.path for f in report.findings) == [
            "src/repro/extras/__init__.py",
            "src/repro/extras/thing.py",
            "src/repro/orphan.py",
        ]
        assert "repro.orphan is imported" in " | ".join(
            f.message for f in report.findings
        )

    def test_lazy_import_from_an_entry_point_is_a_use(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "__init__.py": "from repro.orphan import helper\n",
                "api.py": """
                def run():
                    from repro.orphan import helper
                    return helper()
                """,
                "orphan.py": "def helper():\n    return 1\n",
                "tool/__main__.py": "import repro.extras.thing\n",
                "extras/thing.py": "class Thing: pass\n",
            },
        )
        assert lint_pkg(pkg, select=("CARD-R01",), paths=[]).findings == []

    def test_package_without_entry_points_is_not_judged(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(tmp_path, {"core/engine.py": "X = 1\n"})
        assert lint_pkg(pkg, select=("CARD-R01",), paths=[]).findings == []


class TestNameReachabilityRule:
    ENGINE = """
    class Box:
        def __init__(self):
            self.items = []

        def size(self):
            return len(self.items)

        def _grow(self):
            self.items.append(0)


    def run():
        return Box()


    def helper():
        return 1
    """

    @staticmethod
    def lint_tree(tmp_path, files):
        """Lint {path under tmp_path: source} — the package plus the
        trees beside it — with CARD-R02 alone."""
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        pkg = make_pkg(tmp_path, {})  # adds the package's __init__ files
        top = sorted({rel.split("/", 1)[0] for rel in files})
        return lint_pkg(
            pkg, select=("CARD-R02",), paths=[Path(d) for d in top]
        )

    def test_a_def_only_a_test_calls_is_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/core/engine.py": self.ENGINE,
                "src/repro/api.py": "from repro.core import engine\nBOX = engine.run()\n",
                "tests/test_engine.py": """
                from repro.core import engine

                def test_helper():
                    assert engine.helper() == 1
                    assert engine.run().size() == 0
                """,
            },
        )
        assert rules_hit(report) == ["CARD-R02"]
        assert sorted(
            (f.path, f.message.split()[0]) for f in report.findings
        ) == [
            ("src/repro/core/engine.py", "helper"),
            ("src/repro/core/engine.py", "size"),
        ]

    @pytest.mark.parametrize(
        "test_file", ["tools/x/test_y.py", "examples/demo/conftest.py"]
    )
    def test_a_test_file_outside_tests_is_not_a_use(
        self, tmp_path, monkeypatch, test_file
    ):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/core/engine.py": "def helper():\n    return 1\n",
                test_file: """
                from repro.core import engine

                def test_helper():
                    assert engine.helper() == 1
                """,
            },
        )
        assert [f.message.split()[0] for f in report.findings] == ["helper"]

    @pytest.mark.parametrize("caller", ["examples", "benchmarks"])
    def test_a_caller_in_examples_or_benchmarks_is_a_use(
        self, tmp_path, monkeypatch, caller
    ):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/core/engine.py": self.ENGINE,
                f"{caller}/demo.py": """
                from repro.core import engine

                print(engine.run().size(), engine.helper())
                """,
            },
        )
        assert report.findings == []

    def test_private_and_dispatched_names_are_exempt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/service/handler.py": """
                import ast
                from http.server import BaseHTTPRequestHandler


                def _private():
                    return 1


                class Handler(BaseHTTPRequestHandler):
                    def __init__(self, *args):
                        super().__init__(*args)

                    def do_GET(self):
                        pass

                    def log_message(self, fmt, *args):
                        pass


                class Names(ast.NodeVisitor):
                    def visit_Name(self, node):
                        pass
                """,
                "src/repro/api.py": (
                    "from repro.service import handler\n"
                    "SERVED = (handler.Handler, handler.Names)\n"
                ),
            },
        )
        assert report.findings == []

    def test_an_import_or_all_entry_is_not_a_use(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/core/engine.py": "def helper():\n    return 1\n",
                "src/repro/__init__.py": (
                    "from repro.core.engine import helper\n"
                    "__all__ = ['helper']\n"
                ),
                "examples/demo.py": "from repro.core.engine import helper\n",
            },
        )
        assert [f.message.split()[0] for f in report.findings] == ["helper"]

    def test_pragma_suppresses(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/core/engine.py": (
                    "def helper():  # card-lint: disable=CARD-R02 -- fixture\n"
                    "    return 1\n"
                ),
            },
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestSqliteTxnRule:
    def test_deferred_begin_and_implicit_isolation_flagged(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "service/db.py": """
                import sqlite3

                def open_db(path):
                    conn = sqlite3.connect(path)
                    conn.execute("BEGIN")
                    return conn
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-C01",))
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 2
        assert "BEGIN IMMEDIATE" in messages
        assert "isolation_level" in messages

    def test_eager_discipline_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "service/db.py": """
                import sqlite3

                def open_db(path):
                    conn = sqlite3.connect(path, isolation_level=None)
                    conn.execute("BEGIN IMMEDIATE")
                    return conn
                """
            },
        )
        assert lint_pkg(pkg, select=("CARD-C01",)).findings == []


class TestJsonlAppendRule:
    def test_split_append_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/store.py": """
                def append(fh, payload):
                    fh.write(payload)
                    fh.write("\\n")
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-C02",))
        messages = " | ".join(f.message for f in report.findings)
        assert report.findings
        assert "newline" in messages or "write per record" in messages

    def test_print_to_file_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/store.py": """
                def append(fh, line):
                    print(line, file=fh)
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-C02",))
        assert rules_hit(report) == ["CARD-C02"]

    def test_single_write_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "campaign/store.py": """
                def append(fh, payload):
                    fh.write(payload + "\\n")
                """
            },
        )
        assert lint_pkg(pkg, select=("CARD-C02",)).findings == []

    def test_rule_scoped_to_jsonl_modules(self, tmp_path, monkeypatch):
        # split writes elsewhere are not JSONL appends
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "util/textdump.py": """
                def dump(fh, payload):
                    fh.write(payload)
                    fh.write("\\n")
                """
            },
        )
        assert lint_pkg(pkg, select=("CARD-C02",)).findings == []


class TestSwallowedExceptionRule:
    def test_swallowed_broad_except_flagged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "service/leasey.py": """
                def heartbeat(queue, key):
                    try:
                        queue.heartbeat(key)
                    except Exception:
                        pass
                """
            },
        )
        report = lint_pkg(pkg, select=("CARD-C03",))
        assert rules_hit(report) == ["CARD-C03"]

    def test_handled_and_narrow_excepts_clean(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "service/leasey.py": """
                def heartbeat(queue, key, stats):
                    try:
                        queue.heartbeat(key)
                    except Exception:
                        stats.errors += 1
                    try:
                        queue.ping()
                    except ValueError:
                        pass
                """
            },
        )
        assert lint_pkg(pkg, select=("CARD-C03",)).findings == []


# ----------------------------------------------------------------------
class TestPragmas:
    SOURCE = """
    import time

    def stamp():
        return time.time(){pragma}
    """

    def test_line_pragma_suppresses(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/a.py": self.SOURCE.format(
                    pragma="  # card-lint: disable=CARD-D01 -- fixture"
                )
            },
        )
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert report.findings == []
        assert report.suppressed == 1

    def test_wildcard_pragma_suppresses(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(
            tmp_path,
            {
                "core/a.py": self.SOURCE.format(
                    pragma="  # card-lint: disable=* -- fixture"
                )
            },
        )
        assert lint_pkg(pkg, select=("CARD-D01",)).findings == []

    def test_pragma_on_other_line_does_not_suppress(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        source = (
            "# card-lint: disable=CARD-D01 -- wrong line\n"
            + textwrap.dedent(self.SOURCE.format(pragma=""))
        )
        pkg = make_pkg(tmp_path, {"core/a.py": source})
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert rules_hit(report) == ["CARD-D01"]

    def test_file_pragma_suppresses_everywhere(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = (
            "# card-lint: disable-file=CARD-D01 -- fixture\n"
            "import time\n\n"
            "def a():\n    return time.time()\n\n"
            "def b():\n    return time.time()\n"
        )
        pkg = make_pkg(tmp_path, {"core/a.py": source})
        report = lint_pkg(pkg, select=("CARD-D01",))
        assert report.findings == []
        assert report.suppressed == 2

    def test_file_pragma_only_names_its_rule(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = (
            "# card-lint: disable-file=CARD-D01 -- fixture\n"
            "import random\n"
        )
        pkg = make_pkg(tmp_path, {"core/a.py": source})
        report = lint_pkg(pkg, select=("CARD-D",))
        assert rules_hit(report) == ["CARD-D02"]


# ----------------------------------------------------------------------
class TestImportGraph:
    def test_closure_deferred_and_ancestors(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "a.py": """
                from repro.sub.b import X

                def lazy():
                    from repro import c
                    return c
                """,
                "sub/b.py": "X = 1\n",
                "c.py": "Y = 2\n",
            },
        )
        graph = build_graph(pkg)
        toplevel = graph.closure(["repro.a"], include_deferred=False)
        assert "repro.sub.b" in toplevel
        assert "repro.sub" in toplevel  # ancestor package executes
        assert "repro.c" not in toplevel  # function-level import
        deferred = graph.closure(["repro.a"], include_deferred=True)
        assert "repro.c" in deferred

    def test_chain_reports_shortest_path(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "a.py": "from repro import b\nfrom repro.b import X\n",
                "b.py": "from repro import c\nfrom repro.c import Y\nX = 1\n",
                "c.py": "Y = 2\n",
            },
        )
        graph = build_graph(pkg)
        chain = graph.chain(
            ["repro.a"], "repro.c", include_deferred=False,
            follow_ancestors=False,
        )
        assert chain == ["repro.a", "repro.b", "repro.c"]

    def test_toplevel_cycle_detected(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "a.py": "from repro.b import X\nY = 1\n",
                "b.py": "from repro.a import Y\nX = 1\n",
            },
        )
        assert toplevel_cycles(build_graph(pkg)) == [["repro.a", "repro.b"]]

    def test_deferred_cycle_is_not_a_cycle(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "a.py": "from repro.b import X\nY = 1\n",
                "b.py": "def f():\n    from repro.a import Y\n    return Y\nX = 1\n",
            },
        )
        assert toplevel_cycles(build_graph(pkg)) == []

    def test_facade_reexports_are_not_cycles(self, tmp_path):
        # `from repro import b` inside repro.a: the root package is
        # already (partially) initialised — not a first-import hazard
        pkg = make_pkg(tmp_path, {"a.py": "from repro import b\n", "b.py": ""})
        root_init = pkg / "__init__.py"
        root_init.write_text("from repro import a, b\n")
        assert toplevel_cycles(build_graph(pkg)) == []


# ----------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main(["ok.py"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("import random\n")
        assert main(["bad.py"]) == 1
        assert "CARD-D02" in capsys.readouterr().out

    def test_parse_error_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main(["broken.py"]) == 1
        assert "parse error" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["nope.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_a_baseline_file_suppresses_nothing(self, tmp_path, monkeypatch, capsys):
        # pragmas are the only suppression: a grandfathering file left in
        # the cwd is not read, and the flags that named one are gone
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("import random\n")
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps(
                {"version": 1, "findings": [{"rule": "CARD-D02", "path": "bad.py"}]}
            )
        )
        assert main(["bad.py"]) == 1
        assert "CARD-D02" in capsys.readouterr().out
        for flag in ("--baseline=lint-baseline.json", "--no-baseline"):
            with pytest.raises(SystemExit):
                main(["bad.py", flag])

    def test_json_report_schema(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text("import random\n")
        assert (
            main(
                ["bad.py", "--format", "json", "--out", "r.json"]
            )
            == 1
        )
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads((tmp_path / "r.json").read_text())
        assert printed == on_disk
        assert printed["tool"] == "card-lint"
        assert printed["version"] == 2
        assert {r["id"] for r in printed["rules"]} == RULE_IDS
        finding = printed["findings"][0]
        assert set(finding) == {
            "rule", "category", "path", "line", "col", "message",
        }
        assert printed["summary"]["findings"] == 1
        assert printed["summary"]["files"] == 1
        assert "baselined" not in printed["summary"]

    def test_select_scopes_rules(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "import random\nimport time\nT = time.time()\n"
        )
        assert main(["bad.py", "--select", "CARD-D01"]) == 1
        out = capsys.readouterr().out
        assert "CARD-D01" in out
        assert "CARD-D02" not in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(RULE_IDS):
            assert rule_id in out


# ----------------------------------------------------------------------
class TestDeclaredImportRule:
    PYPROJECT = """
    [project]
    dependencies = ["numpy>=2.0"]

    [project.optional-dependencies]
    fast = ["scipy"]
    test = ["pytest", "Hypothesis", "networkx"]
    """

    def lint_tree(self, tmp_path, files):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent(self.PYPROJECT))
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        pkg = make_pkg(tmp_path, {})
        config = LintConfig(package_root=pkg, select=("CARD-P01",))
        top = sorted({rel.split("/", 1)[0] for rel in files})
        return run_lint([Path(d) for d in top], config)

    def test_scripts_may_use_any_declared_extra(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "examples/demo/run.py": "import numpy\nimport scipy.sparse\nimport helper\n",
                "examples/demo/helper.py": "import os\n",
                "tools/x/test_x.py": "import pytest\nfrom hypothesis import given\n",
                "examples/demo/conftest.py": "import networkx\n",
                "benchmarks/b.py": "from repro.core import engine\n",
                "src/repro/core/engine.py": "import numpy as np\n",
            },
        )
        assert report.findings == []

    @pytest.mark.parametrize("tree", ["examples", "benchmarks", "tools"])
    @pytest.mark.parametrize("module", ["networkx", "yaml"])
    def test_undeclared_import_in_a_script_tree(
        self, tmp_path, monkeypatch, tree, module
    ):
        """A script may not lean on a test-only extra, nor on nothing."""
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {f"{tree}/demo.py": f"import os\n\ndef f():\n    import {module}\n"},
        )
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("CARD-P01", f"{tree}/demo.py", 4)
        ]
        assert report.findings[0].message.startswith(f"{module} is not declared")

    def test_package_imports_extras_only_inside_try(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = self.lint_tree(
            tmp_path,
            {
                "src/repro/net/guarded.py": """
                try:
                    from scipy.sparse import csr_matrix
                except ImportError:
                    csr_matrix = None
                """,
                "src/repro/net/bare.py": "import scipy\n",
                "src/repro/net/lazy.py": "def f():\n    import pytest\n",
                "src/repro/net/unknown.py": "try:\n    import yaml\nexcept ImportError:\n    pass\n",
            },
        )
        assert sorted((f.path, f.message.split()[0]) for f in report.findings) == [
            ("src/repro/net/bare.py", "scipy"),
            ("src/repro/net/lazy.py", "pytest"),
            ("src/repro/net/unknown.py", "yaml"),
        ]

    def test_without_a_pyproject_the_rule_is_off(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pkg = make_pkg(tmp_path, {"core/engine.py": "import yaml\n"})
        assert lint_pkg(pkg, select=("CARD-P01",)).findings == []


# ----------------------------------------------------------------------
class TestRealTree:
    def test_rule_catalog_is_stable(self):
        assert {r.id for r in ALL_RULES} == RULE_IDS

    def test_repo_lints_clean(self, monkeypatch):
        monkeypatch.chdir(REPO)
        paths = [
            Path(p)
            for p in ("src", "tests", "benchmarks", "examples", "tools")
            if (REPO / p).is_dir()
        ]
        report = run_lint(paths, LintConfig.default())
        assert report.parse_errors == []
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

    def test_planted_undeclared_import_fails_the_build(self, tmp_path, monkeypatch):
        for tree in ("src", "examples"):
            shutil.copytree(REPO / tree, tmp_path / tree)
        shutil.copy(REPO / "pyproject.toml", tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "examples", "--select", "CARD-P01"]) == 0
        planted = tmp_path / "examples" / "planted.py"
        planted.write_text("import networkx\n", encoding="utf-8")
        rc = main(
            ["src", "examples", "--select", "CARD-P01",
             "--format", "json", "--out", "report.json"]
        )
        assert rc == 1
        data = json.loads(Path("report.json").read_text())
        assert [(f["rule"], f["path"]) for f in data["findings"]] == [
            ("CARD-P01", "examples/planted.py")
        ]

    def test_injected_wall_clock_fails_the_build(self, tmp_path, monkeypatch):
        # the CI contract end-to-end: copy the real tree, inject a
        # wall-clock read into a module execute_cell runs, and the lint
        # job (same invocation CI uses) must fail the build with CARD-D01
        shutil.copytree(REPO / "src", tmp_path / "src")
        target = tmp_path / "src" / "repro" / "core" / "selection.py"
        target.write_text(
            target.read_text(encoding="utf-8")
            + "\n\nimport time\n\n\ndef _stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["src", "--format", "json", "--out", "report.json"]
        )
        assert rc == 1
        data = json.loads(Path("report.json").read_text())
        hits = [
            f
            for f in data["findings"]
            if f["rule"] == "CARD-D01"
            and f["path"].endswith("core/selection.py")
        ]
        assert hits, data["findings"]

    def test_removed_modules_are_reported_when_planted_back(
        self, tmp_path, monkeypatch
    ):
        # the tree before scoped DSDV was deleted and the sensor-field
        # layer moved out: six modules that only the repro / routing
        # facades re-exported, each planted back beside its re-export
        shutil.copytree(REPO / "src", tmp_path / "src")
        pkg = tmp_path / "src" / "repro"
        planted = {
            "routing/dsdv.py": "class ScopedDSDV: pass\n",
            "routing/adapter.py": (
                "from repro.routing.dsdv import ScopedDSDV\n"
                "class DSDVNeighborhoodTables: pass\n"
            ),
            "net/energy.py": "class EnergyModel: pass\n",
            "resources/registry.py": "class ResourceRegistry: pass\n",
            "resources/discovery.py": (
                "from repro.resources.registry import ResourceRegistry\n"
                "from repro.routing.neighborhood import NeighborhoodTables\n"
                "class ResourceQueryEngine: pass\n"
            ),
            "resources/__init__.py": (
                "from repro.resources.registry import ResourceRegistry\n"
                "from repro.resources.discovery import ResourceQueryEngine\n"
            ),
        }
        for rel, source in planted.items():
            (pkg / rel).parent.mkdir(exist_ok=True)
            (pkg / rel).write_text(source, encoding="utf-8")
        reexports = {
            "__init__.py": (
                "from repro.net.energy import EnergyModel\n"
                "from repro.resources import ResourceRegistry\n"
            ),
            "routing/__init__.py": (
                "from repro.routing.adapter import DSDVNeighborhoodTables\n"
            ),
        }
        for rel, lines in reexports.items():
            path = pkg / rel
            path.write_text(path.read_text(encoding="utf-8") + lines, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["src", "--select", "CARD-R01", "--format",
             "json", "--out", "report.json"]
        )
        assert rc == 1
        data = json.loads(Path("report.json").read_text())
        assert sorted(
            f["path"].split("src/repro/", 1)[1] for f in data["findings"]
        ) == sorted(planted)

    def test_injected_layering_violation_fails_the_build(
        self, tmp_path, monkeypatch
    ):
        # same end-to-end contract for the layering family: a simulation
        # module importing orchestration must fail the build (CARD-L02)
        shutil.copytree(REPO / "src", tmp_path / "src")
        target = tmp_path / "src" / "repro" / "net" / "stats.py"
        target.write_text(
            target.read_text(encoding="utf-8")
            + "\n\nfrom repro.campaign import store as _store\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["src", "--format", "json", "--out", "report.json"]
        )
        assert rc == 1
        data = json.loads(Path("report.json").read_text())
        hits = [
            f
            for f in data["findings"]
            if f["rule"] == "CARD-L02" and f["path"].endswith("net/stats.py")
        ]
        assert hits, data["findings"]
