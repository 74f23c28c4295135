"""Smoke test of the ledger: shape of its output, never its timings.

One ``run.py --smoke`` (every workload at N <= 120, one iteration of each
kind) feeds every test here; nothing asserts how long anything took.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

from _layers import PER_LAYER  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

#: checks every run of a workload must have made
EXPECTED_CHECKS = {
    "snapshot_paper": {
        "all_cells_executed", "rendered", "reachability_non_decreasing",
        "early_gain_exceeds_late_gain", "replay_identical",
    },
    "snapshot_xl": {
        "all_cells_executed", "rendered", "reachability_non_decreasing",
        "replay_identical",
    },
    "des_churn": {
        "all_cells_executed", "queries_accounted", "one_latency_per_success",
        "replay_identical",
    },
    "mobility_field": {
        "all_cells_executed", "one_churn_sample_per_step",
        "substrate_updates_consistent", "replay_identical",
    },
    "query_storm": {"batched_equals_single", "warm_equals_cold", "queries_answered"},
    "queue_drain": {
        "campaign_completed", "store_holds_exactly_the_cells", "no_requeues",
        "traced_workers_executed_every_cell", "replay_identical",
    },
    "http_warm": {
        "cold_post_executes", "no_client_errors", "warm_posts_hit_the_store",
        "inproc_replies_match", "fresh_connection_ok",
    },
}


def ledger(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *args],
        capture_output=True, text=True, timeout=180, cwd=str(cwd),
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = ledger("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-3000:]
    run = json.loads(out.read_text())["runs"][-1]
    spans = json.loads(out.with_name("ledger.trace.json").read_text())
    return out, {r["workload"]: r for r in run["workloads"]}, spans


def test_manifest_names_what_the_code_emits():
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]} == PER_LAYER
    assert [w["name"] for w in MANIFEST["workloads"]] == list(EXPECTED_CHECKS)
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}


def test_every_metric_is_emitted_with_its_unit(smoke):
    _, records, _ = smoke
    assert list(records) == list(EXPECTED_CHECKS)
    for name, record in records.items():
        for kind in ("end_to_end", "per_layer"):
            for spec in MANIFEST[kind]:
                cell = record[kind][spec["name"]]
                assert cell["unit"] == spec["unit"], (name, spec["name"])
                assert math.isfinite(cell["value"]), (name, spec["name"])
        for spec in MANIFEST["end_to_end"]:
            assert record["end_to_end"][spec["name"]]["value"] > 0, (name, spec["name"])


def test_every_correctness_check_ran_and_nothing_failed(smoke):
    _, records, _ = smoke
    for name, record in records.items():
        assert record["correct"], name
        assert record["attempted"] >= 1 and record["failed"] == 0, name
        assert record["fail_frac"] == 0.0, name
        assert EXPECTED_CHECKS[name] <= set(record["checks"]), name


def test_span_parents_resolve_and_time_is_attributed(smoke):
    _, records, spans = smoke
    for name, record in records.items():
        assert record["spans_dropped"] == 0
        ids = {span["id"] for span in spans[name]}
        assert ids, name
        for span in spans[name]:
            assert span["parent"] == 0 or span["parent"] in ids, (name, span)
            assert span["end"] >= span["start"]
        attributed = record["per_layer"]["bench.attributed_frac"]["value"]
        assert 0.0 < attributed <= 1.05, (name, attributed)
        assert any(layer != "bench" for layer in record["layers"]), name


def test_compare_applies_the_bounds(smoke):
    out, _, _ = smoke
    proc = ledger("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| ")][1:]
    # one row per (workload, metric), fail_frac included
    assert len(rows) == len(EXPECTED_CHECKS) * (len(MANIFEST["end_to_end"]) + 1)
    assert all(row.rstrip().endswith("| ok |") for row in rows), proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = ledger(
        "--workload", "snapshot_paper", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
