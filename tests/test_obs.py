"""The obs layer: spans, trace files, summaries, and zero-cost disabled mode.

The load-bearing guarantees, in test order:

* spans nest and time monotonically (the collection core is trustworthy);
* disabled mode changes nothing — store records and cell metrics are
  byte-identical with and without telemetry (content hashes are covered
  separately by the pinned-hash tests, which never see obs state);
* trace.jsonl tolerates the truncated line a killed worker leaves;
* ``telemetry=`` has one resolver, and the campaign pool worker and the
  service worker write the same record through one helper;
* ``trace summary`` aggregation is deterministic for ``n_workers=1``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.artifacts.registry import get_artifact
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, TopologySpec
from repro.campaign.store import ResultStore, merge_stores
from repro.obs import (
    CellTrace,
    TracedCell,
    chrome_trace,
    load_trace,
    resolve_telemetry,
    slowest,
    summarize,
)
from repro.service.queue import WorkQueue
from repro.service.worker import run_worker

REPO = Path(__file__).resolve().parent.parent


def tiny_spec(metrics=("reachability",), seeds=(0, 1)) -> CampaignSpec:
    return CampaignSpec(
        name="obs-test",
        topologies=(TopologySpec(kind="standard", num_nodes=60, salt="obs"),),
        base_params={"R": 2, "r": 5, "noc": 2},
        seeds=tuple(seeds),
        metrics=tuple(metrics),
        num_sources=8,
    )


# ----------------------------------------------------------------------
# collection core
# ----------------------------------------------------------------------
class TestCellTrace:
    def test_spans_nest_and_time_monotonically(self):
        trace = CellTrace("k")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("inner"):
                pass
        record = trace.finish()
        spans = record["spans"]
        # children close before the parent, so they appear first
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        assert [s["depth"] for s in spans] == [1, 1, 0]
        for s in spans:
            assert s["t1"] >= s["t0"] >= 0.0
        inner1, inner2, outer = spans
        assert inner2["t0"] >= inner1["t1"]  # sequential siblings
        assert outer["t0"] <= inner1["t0"] and outer["t1"] >= inner2["t1"]
        assert record["phases"]["inner"] == pytest.approx(
            (inner1["t1"] - inner1["t0"]) + (inner2["t1"] - inner2["t0"])
        )

    def test_dangling_spans_closed_on_finish(self):
        trace = CellTrace("k")
        span = trace.span("open")
        span.__enter__()  # an exception would unwind past __exit__
        record = trace.finish(error="boom")
        assert record["error"] == "boom"
        (s,) = record["spans"]
        assert s["name"] == "open" and s["t1"] >= s["t0"]

    def test_counters_add_and_set(self):
        trace = CellTrace("k")
        trace.add("hits")
        trace.add("hits", 2)
        trace.set("size", 42)
        record = trace.finish()
        assert record["counters"] == {"hits": 3, "size": 42}

    def test_module_helpers_are_noops_when_inactive(self):
        assert not obs.active()
        assert obs.current() is None
        # the disabled span is the shared singleton: no allocation per call
        assert obs.span("x") is obs.span("y")
        obs.add("never", 5)  # must not raise, must not record anywhere
        with obs.span("nothing"):
            pass

    def test_module_helpers_record_when_active(self):
        trace = obs.activate(CellTrace("k"))
        try:
            with obs.span("phase"):
                obs.add("n", 2)
                obs.set_counter("abs", 7)
            assert obs.active() and obs.current() is trace
        finally:
            obs.deactivate()
        record = trace.finish()
        assert "phase" in record["phases"]
        assert record["counters"] == {"abs": 7, "n": 2}
        assert not obs.active()


class TestResolveTelemetry:
    def test_off(self, tmp_path):
        assert resolve_telemetry(None) == (False, None)
        assert resolve_telemetry(False, store_path=tmp_path / "s.jsonl") == (
            False, None,
        )

    def test_true_uses_store_path(self, tmp_path):
        assert resolve_telemetry(True, store_path=tmp_path / "s.jsonl") == (
            True, str(tmp_path / "s.trace.jsonl"),
        )
        assert resolve_telemetry(True) == (True, None)  # ephemeral store

    def test_path_wins_over_store(self, tmp_path):
        for given in (tmp_path / "t.jsonl", str(tmp_path / "t.jsonl")):
            assert resolve_telemetry(
                given, store_path=tmp_path / "s.jsonl"
            ) == (True, str(tmp_path / "t.jsonl"))

    @pytest.mark.parametrize("bad", [42, 1, 0, object(), {"embed": True}])
    def test_rejects_anything_else_naming_the_accepted_forms(self, bad):
        with pytest.raises(TypeError, match=r"None or False.*True.*path"):
            resolve_telemetry(bad)

    def test_entry_points_reject_bad_telemetry(self):
        with pytest.raises(TypeError, match="telemetry must be"):
            CampaignRunner(tiny_spec(seeds=(0,)), telemetry=3)


class TestTracedCell:
    def test_off_is_a_no_op(self, tmp_path):
        with TracedCell("k", on=False, path=str(tmp_path / "t.jsonl")) as t:
            assert not obs.active()
        assert t.trace is None and t.record is None
        assert not (tmp_path / "t.jsonl").exists()

    def test_on_activates_finishes_and_writes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TracedCell("k", on=True, path=str(path), meta={"w": 1}) as t:
            assert obs.current() is t.trace
            with obs.span("phase"):
                pass
            t.error = "caught"
        assert not obs.active()
        assert t.record["error"] == "caught" and t.record["meta"] == {"w": 1}
        assert load_trace(path).records == [t.record]

    def test_escaping_exception_is_the_records_error(self):
        with pytest.raises(RuntimeError):
            with TracedCell("k", on=True) as t:
                raise RuntimeError("boom")
        assert not obs.active()
        assert "RuntimeError: boom" in t.record["error"]


#: the record keys ``trace summary|slowest|export`` read
RECORD_KEYS = {
    "key", "pid", "t_wall", "elapsed", "error", "phases", "spans", "counters",
}


class TestOneRecordShape:
    def test_campaign_and_service_workers_write_the_same_record(self, tmp_path):
        spec = get_artifact("fig05").spec(scale=0.3)
        cells = list(spec.unique_cells().items())
        key, cell = cells[0]
        # shard 1/n of n cells is exactly the first cell
        runner_trace = tmp_path / "runner.trace.jsonl"
        CampaignRunner(
            spec, ResultStore(None), shard=(1, len(cells)),
            telemetry=runner_trace,
        ).run()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        queue.enqueue([(key, cell.to_dict())])
        worker_trace = tmp_path / "worker.trace.jsonl"
        run_worker(
            queue, ResultStore(None), worker_id="w1", telemetry=worker_trace
        )
        (from_runner,) = load_trace(runner_trace).records
        (from_worker,) = load_trace(worker_trace).records
        assert from_runner["key"] == from_worker["key"] == key
        assert set(from_runner) == RECORD_KEYS
        assert set(from_worker) == RECORD_KEYS | {"meta"}
        assert from_worker["meta"] == {"worker": "w1"}


# ----------------------------------------------------------------------
# disabled mode leaves stored output untouched
# ----------------------------------------------------------------------
class TestDisabledModeIsInvisible:
    def test_store_records_identical_with_and_without_telemetry(self, tmp_path):
        spec = tiny_spec()
        s_off = ResultStore(tmp_path / "off.jsonl")
        s_on = ResultStore(tmp_path / "on.jsonl")
        CampaignRunner(spec, s_off).run()
        CampaignRunner(spec, s_on, telemetry=True).run()
        for key in s_off.keys():
            off, on = s_off.get(key), s_on.get(key)
            assert sorted(off.keys()) == sorted(on.keys())  # no extra keys
            assert off["metrics"] == on["metrics"]
            assert off["cell"] == on["cell"]

    def test_disabled_run_leaves_no_active_trace(self, tmp_path):
        CampaignRunner(tiny_spec(seeds=(0,)), ResultStore(None)).run()
        assert not obs.active()

    def test_old_store_records_with_an_obs_block_still_load(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(tiny_spec(seeds=(0,)), store).run()
        (key,) = store.keys()
        record = store.get(key)
        assert "_obs" not in record
        # a record written while stores embedded an ``_obs`` block
        old = dict(record, _obs={"pid": 1, "elapsed": 0.5, "phases": {}})
        (tmp_path / "old.jsonl").write_text(json.dumps(old) + "\n")
        reloaded = ResultStore(tmp_path / "old.jsonl")
        assert reloaded.metrics(key) == record["metrics"]
        # merging carries the cell and metrics, not the block
        merge_stores(tmp_path / "merged.jsonl", [tmp_path / "old.jsonl"])
        merged = ResultStore(tmp_path / "merged.jsonl").get(key)
        assert "_obs" not in merged and merged["metrics"] == record["metrics"]


# ----------------------------------------------------------------------
# trace file robustness
# ----------------------------------------------------------------------
class TestTraceFile:
    def test_campaign_writes_one_record_per_executed_cell(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        report = CampaignRunner(tiny_spec(), store, telemetry=True).run()
        log = load_trace(tmp_path / "s.trace.jsonl")
        assert len(log) == report.executed == 2
        for rec in log.records:
            assert rec["key"] in store
            assert rec["error"] is None
            assert rec["phases"]["topology_build"] > 0
            assert rec["counters"]["substrate_full_rebuilds"] >= 1

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = CellTrace("aaa").finish()
        obs.write_record(path, good)
        obs.write_record(path, CellTrace("bbb").finish())
        # a worker killed mid-write leaves a partial final line
        whole = path.read_text()
        path.write_text(whole + '{"key": "ccc", "elapsed"')
        log = load_trace(path)
        assert len(log) == 2
        assert log.corrupt_lines == 1
        assert [r["key"] for r in log.records] == ["aaa", "bbb"]

    def test_missing_file_loads_empty(self, tmp_path):
        log = load_trace(tmp_path / "nope.jsonl")
        assert len(log) == 0 and log.corrupt_lines == 0
        assert summarize(log).cells == 0
        assert summarize(log).render()  # renders without raising

    def test_old_records_with_memory_peaks_still_summarize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = CellTrace("aaa").finish()
        obs.write_record(path, dict(record, mem_peak_bytes=1234))
        summary = summarize(load_trace(path))
        assert summary.cells == 1 and summary.failed == 0
        assert "mem_peak_bytes" not in summary.as_dict()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class TestSummary:
    def test_summary_deterministic_for_serial_runs(self, tmp_path):
        spec = tiny_spec()
        tables = []
        for run in ("a", "b"):
            store = ResultStore(tmp_path / f"{run}.jsonl")
            CampaignRunner(spec, store, n_workers=1, telemetry=True).run()
            summary = summarize(load_trace(tmp_path / f"{run}.trace.jsonl"))
            tables.append(summary)
        a, b = tables
        # identical structure: same cells, phase names in the same (sorted)
        # order, same counter totals — only the wall times may differ
        assert a.cells == b.cells and a.failed == b.failed
        assert [p.name for p in a.phases] == [p.name for p in b.phases]
        assert sorted(p.name for p in a.phases) == [p.name for p in a.phases]
        assert a.counters == b.counters
        assert a.workers == b.workers == 1

    def test_summary_aggregates_phases_and_failures(self):
        records = [
            {
                "key": "a", "pid": 1, "t_wall": 100.0, "elapsed": 2.0,
                "error": None, "phases": {"x": 1.5}, "counters": {"c": 2},
                "spans": [{"name": "x", "t0": 0.0, "t1": 1.5, "depth": 0}],
            },
            {
                "key": "b", "pid": 2, "t_wall": 101.0, "elapsed": 3.0,
                "error": "boom", "phases": {"x": 0.5}, "counters": {"c": 1},
                "spans": [
                    {"name": "x", "t0": 0.0, "t1": 0.25, "depth": 0},
                    {"name": "x", "t0": 0.25, "t1": 0.5, "depth": 0},
                ],
            },
        ]
        s = summarize(records)
        assert s.cells == 2 and s.failed == 1 and s.workers == 2
        assert s.total_cell_seconds == pytest.approx(5.0)
        assert s.wall_span == pytest.approx(4.0)  # 100.0 → 104.0
        (phase,) = s.phases
        assert phase.name == "x" and phase.cells == 2 and phase.count == 3
        assert phase.total == pytest.approx(2.0)
        assert phase.max == pytest.approx(1.5)
        assert s.counters == {"c": 3}
        # throughput excludes the failed cell: 1 completed over 4s wall
        assert s.cells_per_second == pytest.approx(0.25)

    def test_cells_per_second_counts_completed_cells_only(self):
        def rec(key, t_wall, error):
            return {
                "key": key, "pid": 1, "t_wall": t_wall, "elapsed": 1.0,
                "error": error, "phases": {}, "counters": {}, "spans": [],
            }

        records = [
            rec("a", 100.0, None),
            rec("b", 101.0, "boom"),
            rec("c", 102.0, None),
            rec("d", 103.0, "boom"),
        ]
        s = summarize(records)
        assert s.cells == 4 and s.failed == 2
        assert s.wall_span == pytest.approx(4.0)  # 100.0 → 104.0
        assert s.cells_per_second == pytest.approx(2 / 4.0)
        # all-failed trace: zero throughput, not len(recs)/wall
        all_failed = summarize([rec("a", 100.0, "x"), rec("b", 101.0, "y")])
        assert all_failed.cells_per_second == pytest.approx(0.0)

    def test_slowest_orders_by_elapsed_with_key_tiebreak(self):
        records = [
            {"key": "b", "elapsed": 1.0, "phases": {"x": 0.9}},
            {"key": "a", "elapsed": 1.0, "phases": {"y": 0.8}},
            {"key": "c", "elapsed": 5.0, "phases": {"z": 4.0}},
        ]
        rows = slowest(records, limit=2)
        assert [r["key"] for r in rows] == ["c", "a"]
        assert rows[0]["dominant_phase"] == "z"

    def test_chrome_trace_shape(self):
        records = [
            {
                "key": "abc", "pid": 7, "t_wall": 50.0, "elapsed": 1.0,
                "error": None, "phases": {},
                "spans": [{"name": "x", "t0": 0.1, "t1": 0.6, "depth": 0}],
                "counters": {},
            }
        ]
        out = chrome_trace(records)
        events = out["traceEvents"]
        assert len(events) == 2  # the cell event + one span event
        for ev in events:
            assert ev["ph"] == "X" and ev["pid"] == 7
        span_ev = events[1]
        assert span_ev["ts"] == pytest.approx(0.1e6)
        assert span_ev["dur"] == pytest.approx(0.5e6)
        json.dumps(out)  # must be JSON-serialisable as-is


# ----------------------------------------------------------------------
# store + runner surface
# ----------------------------------------------------------------------
class TestStoreSurface:
    def test_status_reports_store_path_and_bytes(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s.jsonl")
        runner = CampaignRunner(spec, store)
        before = runner.status()
        assert before["store_path"] == str(tmp_path / "s.jsonl")
        assert before["store_bytes"] == 0
        runner.run()
        after = runner.status()
        assert after["store_bytes"] > 0
        assert after["store_bytes"] == (tmp_path / "s.jsonl").stat().st_size

    def test_in_memory_store_status(self):
        status = CampaignRunner(tiny_spec(seeds=(0,)), ResultStore(None)).status()
        assert status["store_path"] is None and status["store_bytes"] == 0

    def test_durability_validated_and_flush_mode_persists(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            ResultStore(tmp_path / "s.jsonl", durability="yolo")
        store = ResultStore(tmp_path / "s.jsonl", durability="flush")
        store.append("k", {"cell": 1}, {"m": 2})
        assert ResultStore(tmp_path / "s.jsonl").metrics("k") == {"m": 2}

    def test_substrate_stats_snapshot_does_not_mutate(self):
        from repro.net.topology import Topology
        import numpy as np

        topo = Topology.uniform_random(
            40, (200.0, 200.0), 60.0, np.random.default_rng(0)
        )
        sub = topo.substrate(2)
        sub.refresh()
        snap = sub.stats()
        assert snap.full_rebuilds == 1
        snap.full_rebuilds = 99  # a copy: the live counters are untouched
        assert sub.stats().full_rebuilds == 1
        assert topo.substrate_stats()["full_rebuilds"] == 1


# ----------------------------------------------------------------------
# api + CLI
# ----------------------------------------------------------------------
class TestApiAndCli:
    def test_api_attaches_trace_summary(self, tmp_path):
        import repro.api as api

        result = api.run(
            "fig05", scale=0.2, num_sources=8,
            store=tmp_path / "s.jsonl", telemetry=True,
        )
        assert result.telemetry is not None
        assert result.telemetry["cells"] > 0
        assert any(
            p["name"] == "topology_build" for p in result.telemetry["phases"]
        )
        assert (tmp_path / "s.trace.jsonl").exists()
        # off by default
        off = api.run("fig05", scale=0.2, num_sources=8)
        assert off.telemetry is None
        assert off.rows == result.rows

    def test_cli_trace_summary_exit_codes(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "s.jsonl")
        CampaignRunner(spec, store, telemetry=True).run()
        trace_file = tmp_path / "s.trace.jsonl"

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.campaign", *argv],
                capture_output=True, text=True,
                cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            )

        summary = cli("trace", "summary", str(trace_file))
        assert summary.returncode == 0, summary.stderr
        assert "per-phase wall time" in summary.stdout
        assert "metrics:selection" in summary.stdout
        assert cli("trace", "slowest", str(trace_file), "--limit", "3").returncode == 0
        export = cli("trace", "export", str(trace_file), "--out", str(tmp_path / "c.json"))
        assert export.returncode == 0
        assert json.loads((tmp_path / "c.json").read_text())["traceEvents"]
        # empty/missing trace file is an error, unknown action a clean error
        assert cli("trace", "summary", str(tmp_path / "nope.jsonl")).returncode == 1
        bad = cli("trace", "frobnicate", str(trace_file))
        assert bad.returncode == 1 and "unknown trace action" in bad.stderr
