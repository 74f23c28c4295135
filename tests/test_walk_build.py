"""The compiled CSQ walk: how it is built, and what it hands on.

``repro.core._walk`` is compiled from ``_walk.c`` by the first process
that imports ``repro.core.selection`` (``repro.util.cbuild``), cached in
``__pycache__`` beside the source (or ``~/.cache/repro`` when that
cannot be written) and loaded by every later process.  Pinned here:
imports racing on a cold cache both load one whole file, a warm import
starts no compiler, a read-only package builds into the user's cache, a
compiler that fails is an ``ImportError`` with its command and stderr,
and the walker rejects
inputs it cannot index before it draws anything.  Whether the walk
equals the Python oracle is the hypothesis property in
``tests/test_properties.py``.

The walk hands its transmitters to ``Network.transmit_path`` as lists;
every reader of them must take an int64 array the same way.
"""

from __future__ import annotations

import collections
import importlib.util
import os
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from repro.core import selection
from repro.core.params import CARDParams
from repro.net.messages import ContactSelectionQuery, MessageKind
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables
from repro.util import cbuild

from tests.conftest import line_topology
from tests.oracles import RecordingStats

REPO = Path(__file__).resolve().parents[1]
SOURCE = REPO / "src" / "repro" / "core" / "_walk.c"


def fresh_package(root: Path) -> Path:
    """A copy of the package with no build cache; returns its ``src``."""
    src = root / "src"
    shutil.copytree(
        REPO / "src" / "repro",
        src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return src


def python(src: Path, code: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        # HOME: a per-user cache of this machine must not answer for src
        env={**os.environ, "PYTHONPATH": str(src), "HOME": str(src.parent)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestBuild:
    @pytest.fixture(autouse=True)
    def user_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "user-cache"
        monkeypatch.setattr(cbuild, "_user_cache", lambda: cache)
        return cache

    def test_racing_cold_imports_load_one_whole_file(self, tmp_path):
        src = fresh_package(tmp_path)
        go = tmp_path / "go"
        code = f"""
            import os
            while not os.path.exists({str(go)!r}):
                pass
            import repro.core.selection as s
            print(s._walk.__file__)
        """
        procs = [python(src, code) for _ in range(2)]
        go.touch()
        outs = [p.communicate(timeout=120) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        loaded = {out.strip() for out, _ in outs}
        assert len(loaded) == 1
        (path,) = loaded
        cache = src / "repro" / "core" / "__pycache__"
        assert Path(path).parent == cache
        # one published build, no temporary left behind
        built = [p.name for p in cache.iterdir() if p.suffix != ".pyc"]
        assert built == [Path(path).name]

    def test_warm_import_starts_no_compiler(self, tmp_path):
        src = fresh_package(tmp_path)
        cold = python(src, "import repro.core.selection")
        assert cold.wait(timeout=120) == 0, cold.stderr.read()
        warm = python(
            src,
            """
            import sys
            spawned = []
            sys.addaudithook(
                lambda event, args: event in ("subprocess.Popen", "os.posix_spawn")
                and spawned.append(args)
            )
            import repro.core.selection
            print(spawned)
            """,
        )
        out, err = warm.communicate(timeout=120)
        assert warm.returncode == 0, err
        assert out.strip() == "[]"

    @pytest.mark.parametrize("how", ["read-only", "blocked"])
    def test_unwritable_package_builds_into_the_user_cache(
        self, tmp_path, monkeypatch, user_cache, how
    ):
        package = tmp_path / "site-packages" / "repro" / "core"
        package.mkdir(parents=True)
        source = package / "_walk.c"
        source.write_bytes(SOURCE.read_bytes())
        if how == "read-only":
            if os.geteuid() == 0:
                pytest.skip("root writes into a read-only directory")
            package.chmod(0o555)
        else:
            # a file where the cache directory would go: mkdir fails for
            # every user, root included
            (package / "__pycache__").write_bytes(b"")
        try:
            built = cbuild.load("repro.core._walk", source)
        finally:
            package.chmod(0o755)
        assert Path(built.__file__) == user_cache / cbuild.cached_path(source).name
        assert built.Walker is not None
        # warm: the user's cache answers, no compiler starts
        monkeypatch.setattr(cbuild, "_build", None)
        assert cbuild.load("repro.core._walk", source).__file__ == built.__file__

    def test_no_writable_cache_is_an_import_error(
        self, tmp_path, monkeypatch, user_cache
    ):
        source = tmp_path / "_walk.c"
        source.write_bytes(SOURCE.read_bytes())
        (tmp_path / "__pycache__").write_bytes(b"")
        user_cache.write_bytes(b"")
        with pytest.raises(ImportError, match="can be written"):
            cbuild.load("repro.core._walk", source)

    def test_failing_compiler_is_an_import_error(self, tmp_path, monkeypatch):
        source = tmp_path / "_walk.c"
        source.write_bytes(SOURCE.read_bytes())
        failing = [
            sys.executable,
            "-c",
            "import sys; sys.stderr.write('cc: no such toolchain'); sys.exit(3)",
        ]
        monkeypatch.setattr(cbuild, "compile_command", lambda source, target: failing)
        with pytest.raises(ImportError) as info:
            cbuild.load("repro.core._walk", source)
        message = str(info.value)
        assert sys.executable in message and "status 3" in message
        assert "cc: no such toolchain" in message
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_missing_compiler_is_an_import_error(self, tmp_path, monkeypatch):
        source = tmp_path / "_walk.c"
        source.write_bytes(SOURCE.read_bytes())
        missing = [str(tmp_path / "no-cc"), "-o", "x"]
        monkeypatch.setattr(cbuild, "compile_command", lambda source, target: missing)
        with pytest.raises(ImportError, match="needs a C compiler"):
            cbuild.load("repro.core._walk", source)

    def test_cache_key_follows_the_source_bytes(self, tmp_path):
        copy = tmp_path / "_walk.c"
        copy.write_bytes(SOURCE.read_bytes())
        same = cbuild.cached_path(copy)
        assert same.parent == tmp_path / "__pycache__"
        assert same.name == cbuild.cached_path(SOURCE).name
        copy.write_bytes(SOURCE.read_bytes() + b"\n")
        assert cbuild.cached_path(copy) != same
        assert same.name.endswith(cbuild.sysconfig.get_config_var("EXT_SUFFIX"))


class TestWalkerInputs:
    """Bad inputs raise before the walk draws from the generator."""

    def walker(self, indptr=(0, 1, 2), indices=(1, 0), r=3):
        return selection._walk.Walker(
            np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64),
            r, None, True, True, (0.0,) * (r + 1),
        )

    @pytest.mark.parametrize(
        "indptr, indices, error",
        [
            ((0, 1, 3), (1, 0), "frame"),
            ((0, 2, 1, 2), (1, 2), "decrease"),
            ((0, 1, 2), (1, 2), "range"),
            ((0, 1, 2), (1.0, 0.0), "int64"),
        ],
    )
    def test_malformed_csr(self, indptr, indices, error):
        with pytest.raises((ValueError, TypeError), match=error):
            selection._walk.Walker(
                np.array(indptr, dtype=np.int64),
                np.array(indices),
                2, None, True, True, (0.0,) * 3,
            )

    def test_pm_table_has_r_plus_one_entries(self):
        with pytest.raises(ValueError, match="r \\+ 1"):
            selection._walk.Walker(
                np.array((0, 1, 2)), np.array((1, 0)), 2, None, True, True, (0.0,)
            )

    def test_a_walk_without_loop_prevention_needs_a_cap(self):
        with pytest.raises(ValueError, match="needs a cap"):
            selection._walk.Walker(
                np.array((0, 1, 2)), np.array((1, 0)), 2, None, False, True,
                (0.0,) * 3,
            )

    @pytest.mark.parametrize(
        "blocked, seg, error",
        [
            (np.zeros(3, dtype=bool), [0], ValueError),
            (np.zeros(2, dtype=bool), [0, 2], IndexError),
            (np.zeros(2, dtype=bool), [0, -1], IndexError),
            (np.zeros(2, dtype=bool), 5, TypeError),
            (np.zeros(2, dtype=bool), [0, 1, 0, 1, 0], ValueError),
        ],
    )
    def test_bad_walk_arguments_draw_nothing(self, blocked, seg, error):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(error):
            self.walker().walk(blocked, seg, rng.bit_generator.capsule)
        assert rng.bit_generator.state == before

    def test_walk_needs_a_bit_generator_capsule(self):
        with pytest.raises(ValueError):
            self.walker().walk(np.zeros(2, dtype=bool), [0], object())

    def test_rebinds_when_the_adjacency_is_rebuilt(self):
        topo = line_topology(6)
        sel = selection.ContactSelector(
            Network(topo), NeighborhoodTables(topo, 1), CARDParams(R=1, r=3)
        )
        first = sel._walker()
        assert sel._walker() is first
        topo.set_positions(topo.positions[::-1].copy())
        assert sel._walker() is not first


def load_file(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


class TestTransmitterTypes:
    """A flush read as a list or as an int64 array is the same flush."""

    HOPS = [4, 0, 4, 7, 1, 1]

    def flush(self, stats, transmitters):
        net = Network(line_topology(8))
        net.stats = stats
        msg = ContactSelectionQuery(source=0, query_id=1)
        net.transmit_path(msg, transmitters)
        net.transmit_path(msg, transmitters[::-1], kind=MessageKind.BACKTRACK)
        return stats

    def test_recording_stats_log(self):
        as_list = self.flush(RecordingStats(8), list(self.HOPS))
        as_array = self.flush(RecordingStats(8), np.array(self.HOPS, dtype=np.int64))
        assert as_list.log == as_array.log
        assert len(as_list.log) == 2 * len(self.HOPS)
        assert all(type(entry[1]) is int for entry in as_array.log)
        assert as_list.snapshot() == as_array.snapshot()

    def test_per_node_stats_tally(self):
        energy = load_file(
            "sensor_field_energy", REPO / "examples" / "sensor_field" / "energy.py"
        )
        as_list = self.flush(energy.PerNodeStats(8), list(self.HOPS))
        as_array = self.flush(
            energy.PerNodeStats(8), np.array(self.HOPS, dtype=np.int64)
        )
        assert as_list.per_node().tolist() == as_array.per_node().tolist()
        assert as_list.per_node().tolist() == [2, 4, 0, 0, 4, 0, 0, 2]

    def test_ledger_tracer_count(self):
        tracer = load_file(
            "ledger_tracer", REPO / "benchmarks" / "ledger" / "_tracer.py"
        )
        counts = []
        for transmitters in (list(self.HOPS), np.array(self.HOPS, dtype=np.int64)):
            tr = types.SimpleNamespace(counters=collections.Counter())
            args = (None, MessageKind.BACKTRACK, transmitters)
            tracer._post_record_many(tr, args, None, 0.0, 0.0)
            counts.append(tr.counters["net.stats.bulk_messages"])
        assert counts == [len(self.HOPS)] * 2
