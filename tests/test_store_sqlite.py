"""Store backends — sqlite semantics, URI dispatch, cross-backend merge,
and multi-process writer safety for both backends."""

from __future__ import annotations

import json
import multiprocessing
import sys

import pytest

from repro.campaign.store import (
    CellStore,
    MergeReport,
    ResultStore,
    SqliteStore,
    merge_stores,
    open_store,
)


def _cell(i: int) -> dict:
    return {"topology": {"kind": "standard", "num_nodes": 60}, "seed": i}


# ----------------------------------------------------------------------
class TestOpenStore:
    def test_none_is_ephemeral_jsonl(self):
        store = open_store(None)
        assert isinstance(store, ResultStore)
        assert store.path is None and store.uri() is None

    def test_plain_path_is_jsonl(self, tmp_path):
        store = open_store(tmp_path / "results.jsonl")
        assert isinstance(store, ResultStore)

    def test_sqlite_uri(self, tmp_path):
        store = open_store(f"sqlite:///{tmp_path / 'r.db'}")
        assert isinstance(store, SqliteStore)
        assert store.uri().startswith("sqlite:///")

    def test_bare_db_suffix_is_sqlite(self, tmp_path):
        for name in ("r.db", "r.sqlite", "r.sqlite3"):
            assert isinstance(open_store(tmp_path / name), SqliteStore)

    def test_store_instance_passes_through(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        assert open_store(store) is store

    def test_bad_durability_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            open_store(tmp_path / "r.db", durability="warp")

    def test_non_sqlite_file_is_a_clean_error(self, tmp_path, capsys):
        # a JSONL store saved under a .db name: one error line, no traceback
        from repro.campaign.__main__ import main

        path = tmp_path / "r.db"
        path.write_text(json.dumps({"key": "k", "cell": _cell(0)}) + "\n")
        for target in (path, f"sqlite:///{path}"):
            with pytest.raises(ValueError) as excinfo:
                open_store(target)
            assert f"{path} is not a sqlite result store" in str(excinfo.value)
        assert main(["figure", "fig05", "--store", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSqliteStore:
    def test_append_get_roundtrip(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append("k1", _cell(1), {"m": 1.5}, meta={"campaign": "t"})
        assert "k1" in store and len(store) == 1
        rec = store.get("k1")
        assert rec["metrics"] == {"m": 1.5}
        assert rec["cell"] == _cell(1)
        assert store.metrics("k1") == {"m": 1.5}
        assert store.metrics("absent") is None

    def test_upsert_last_write_wins(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append("k", _cell(0), {"m": 1})
        store.append("k", _cell(0), {"m": 2})
        assert len(store) == 1
        assert store.metrics("k") == {"m": 2}

    def test_keys_in_insertion_order(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        for i in range(5):
            store.append(f"k{i}", _cell(i), {"i": i})
        assert store.keys() == [f"k{i}" for i in range(5)]

    def test_reads_are_live_across_instances(self, tmp_path):
        a = SqliteStore(tmp_path / "r.db")
        b = SqliteStore(tmp_path / "r.db")
        a.append("k", _cell(0), {"m": 1})
        assert "k" in b  # no load() needed: reads query the database
        assert b.metrics("k") == {"m": 1}

    def test_load_counts_records(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append("k", _cell(0), {"m": 1})
        again = SqliteStore(tmp_path / "r.db")
        assert again.load() == 1

    def test_size_bytes_positive(self, tmp_path):
        store = SqliteStore(tmp_path / "r.db")
        store.append("k", _cell(0), {"m": 1})
        assert store.size_bytes() > 0

    def test_interface_is_cellstore(self, tmp_path):
        assert isinstance(SqliteStore(tmp_path / "r.db"), CellStore)
        items = SqliteStore(tmp_path / "r.db")
        items.append("k", _cell(0), {"m": 1})
        assert [(k, r["metrics"]) for k, r in items.items()] == [("k", {"m": 1})]


# ----------------------------------------------------------------------
class TestMergeStores:
    def test_merge_jsonl_shards(self, tmp_path):
        for i in (1, 2):
            shard = ResultStore(tmp_path / f"s{i}.jsonl")
            shard.append(f"k{i}", _cell(i), {"i": i})
        report = merge_stores(tmp_path / "out.jsonl", [
            tmp_path / "s1.jsonl", tmp_path / "s2.jsonl",
        ])
        assert isinstance(report, MergeReport)
        assert report.merged == 2 and report.duplicates == 0
        out = open_store(tmp_path / "out.jsonl")
        assert sorted(out.keys()) == ["k1", "k2"]

    def test_merge_last_write_wins(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        a.append("k", _cell(0), {"v": "old"})
        b = ResultStore(tmp_path / "b.jsonl")
        b.append("k", _cell(0), {"v": "new"})
        report = merge_stores(tmp_path / "out.db", [
            tmp_path / "a.jsonl", tmp_path / "b.jsonl",
        ])
        assert report.duplicates == 1
        assert open_store(tmp_path / "out.db").metrics("k") == {"v": "new"}

    def test_merge_cross_backend(self, tmp_path):
        j = ResultStore(tmp_path / "a.jsonl")
        j.append("kj", _cell(1), {"backend": "jsonl"})
        s = SqliteStore(tmp_path / "b.db")
        s.append("ks", _cell(2), {"backend": "sqlite"})
        report = merge_stores(f"sqlite:///{tmp_path / 'out.db'}", [
            tmp_path / "a.jsonl", f"sqlite:///{tmp_path / 'b.db'}",
        ])
        assert report.merged == 2
        out = open_store(f"sqlite:///{tmp_path / 'out.db'}")
        assert out.metrics("kj") == {"backend": "jsonl"}
        assert out.metrics("ks") == {"backend": "sqlite"}

    def test_jsonl_importable_into_sqlite_preserves_records(self, tmp_path):
        j = ResultStore(tmp_path / "a.jsonl")
        j.append("k", _cell(3), {"m": 7}, meta={"campaign": "x"})
        merge_stores(tmp_path / "out.db", [tmp_path / "a.jsonl"])
        assert open_store(tmp_path / "out.db").get("k") == j.get("k")

    def test_merge_skips_corrupt_tail(self, tmp_path):
        j = ResultStore(tmp_path / "a.jsonl")
        j.append("k", _cell(0), {"m": 1})
        with (tmp_path / "a.jsonl").open("a") as fh:
            fh.write('{"truncated')  # simulated mid-write crash
        report = merge_stores(tmp_path / "out.jsonl", [tmp_path / "a.jsonl"])
        assert report.merged == 1 and report.skipped == 1


# ----------------------------------------------------------------------
def _append_worker(target: str, keys, tag: str) -> None:
    store = open_store(target)
    for key in keys:
        store.append(key, _cell(0), {"tag": tag, "key": key})


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
class TestConcurrentWriters:
    """N processes appending to one store file must never corrupt it."""

    def _target(self, tmp_path, backend: str) -> str:
        return str(
            tmp_path / ("c.jsonl" if backend == "jsonl" else "c.db")
        )

    def _spawn(self, target, key_sets):
        ctx = multiprocessing.get_context("spawn" if sys.platform == "darwin" else "fork")
        procs = [
            ctx.Process(target=_append_worker, args=(target, keys, f"p{i}"))
            for i, keys in enumerate(key_sets)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        return open_store(target)

    def test_disjoint_keys_all_land(self, tmp_path, backend):
        target = self._target(tmp_path, backend)
        key_sets = [[f"p{i}-k{j}" for j in range(20)] for i in range(4)]
        store = self._spawn(target, key_sets)
        store.load()
        assert store.corrupt_lines == 0
        assert len(store) == 80
        for i, keys in enumerate(key_sets):
            for key in keys:
                assert store.metrics(key)["tag"] == f"p{i}"

    def test_overlapping_keys_one_writer_wins(self, tmp_path, backend):
        target = self._target(tmp_path, backend)
        shared = [f"shared-{j}" for j in range(20)]
        store = self._spawn(target, [shared] * 4)
        store.load()
        assert store.corrupt_lines == 0
        assert len(store) == 20  # one record per key survives
        for key in shared:
            rec = store.metrics(key)
            assert rec["key"] == key
            assert rec["tag"] in {"p0", "p1", "p2", "p3"}


class TestJsonlCrashRecovery:
    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append("k1", _cell(1), {"m": 1})
        store.append("k2", _cell(2), {"m": 2})
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # kill -9 mid-write of the last line
        again = ResultStore(path)
        again.load()
        assert again.corrupt_lines == 1
        assert again.keys() == ["k1"]
        # appends after recovery start on a fresh line
        again.append("k3", _cell(3), {"m": 3})
        fresh = ResultStore(path)
        fresh.load()
        assert fresh.keys() == ["k1", "k3"]
