"""A cell that kills its worker process fails loudly, within a bound, by name.

The campaign fans sweep groups of cells out over worker processes that
each hold one group at a time.  When one cell's process dies
(``os._exit``, a segfault, the OOM killer) its pipe reads as end of
file, so exactly that cell's group fails — never stored — while every
other group runs once and is stored.
A worker whose parent is killed exits instead of waiting for work.  The
doomed executor is installed by monkeypatching the parent, which only
reaches the workers under the fork start method.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.artifacts.registry import get_artifact
from repro.campaign import runner
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, TopologySpec
from repro.campaign.store import ResultStore
from repro.service.http import make_server

pytestmark = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="the patched executor reaches pool workers only by fork",
)

REPO = Path(__file__).resolve().parent.parent

#: the artifact every case runs: 8 cells, about 0.3 s with 2 workers
ARTIFACT, SCALE = "table1", 0.2


def artifact_keys():
    return list(get_artifact(ARTIFACT).spec(scale=SCALE).unique_cells())


def within(seconds, fn):
    """``fn()``'s result (or exception), failing if it runs past
    ``seconds`` — a hung pool fails the test instead of the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.fixture()
def doomed(monkeypatch):
    """One table1 cell key whose worker process exits with code 3."""
    key = artifact_keys()[3]
    real = runner.execute_cell

    def execute(cell, *shared):
        if cell.key() == key:
            os._exit(3)
        return real(cell, *shared)

    monkeypatch.setattr(runner, "execute_cell", execute)
    return key


def test_api_run_fails_the_dying_cell_by_name(doomed, tmp_path):
    store = ResultStore(tmp_path / "s.jsonl")
    with pytest.raises(RuntimeError) as info:
        within(10, lambda: api.run(ARTIFACT, scale=SCALE, workers=2, store=store))
    message = str(info.value)
    assert "1 failed cells" in message and doomed in message
    assert "worker process died (exit code 3)" in message
    others = set(artifact_keys()) - {doomed}
    assert not any(key in message for key in others)
    assert set(ResultStore(tmp_path / "s.jsonl").keys()) == others


def test_runner_reports_one_failed_outcome_and_stores_the_rest(doomed):
    spec = get_artifact(ARTIFACT).spec(scale=SCALE)
    store = ResultStore(None)
    report = within(10, CampaignRunner(spec, store, n_workers=2).run)
    (failed,) = [o for o in report.outcomes if not o.ok]
    assert failed.key == doomed and failed.metrics is None
    assert failed.error == "worker process died (exit code 3)"
    assert report.failed == 1 and report.executed == len(report.outcomes)
    assert doomed not in store
    assert len(store) == len(report.outcomes) - 1


def test_orphans_rerun_in_a_fresh_pool_not_one_process_each(tmp_path, monkeypatch):
    # the first cell kills its worker at once, while the other worker
    # holds the second: no cell starts twice, and the cells after them
    # share the two workers instead of taking a process each
    keys = artifact_keys()
    assert len(keys) >= 8
    log = tmp_path / "starts.log"
    real = runner.execute_cell

    def execute(cell, *shared):
        key = cell.key()
        with open(log, "a") as fh:
            fh.write(f"{key} {os.getpid()}\n")
        if key == keys[0]:
            os._exit(3)
        return real(cell, *shared)

    monkeypatch.setattr(runner, "execute_cell", execute)
    spec = get_artifact(ARTIFACT).spec(scale=SCALE)
    store = ResultStore(None)
    report = within(20, CampaignRunner(spec, store, n_workers=2).run)
    (failed,) = [o for o in report.outcomes if not o.ok]
    assert failed.key == keys[0]
    assert failed.error == "worker process died (exit code 3)"
    assert set(store.keys()) == set(keys[1:])
    starts = [line.split() for line in log.read_text().splitlines()]
    assert max(Counter(key for key, _ in starts).values()) <= 2
    # the last start of each cell is the one that produced its result
    ran_in = dict(starts)
    assert len({ran_in[key] for key in keys[1:]}) < len(keys) - 1


def test_a_dying_worker_fails_only_its_own_cell(tmp_path, monkeypatch):
    # the first cell dies only once another worker holds a cell: that
    # cell is not orphaned, and no cell, the dying one included, starts
    # twice
    keys = artifact_keys()
    log = tmp_path / "starts.log"
    real = runner.execute_cell

    def execute(cell, *shared):
        key = cell.key()
        with open(log, "a") as fh:
            fh.write(f"{key} {os.getpid()}\n")
        if key == keys[0]:
            for _ in range(1000):
                if len(log.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.01)
            os._exit(3)
        return real(cell, *shared)

    monkeypatch.setattr(runner, "execute_cell", execute)
    spec = get_artifact(ARTIFACT).spec(scale=SCALE)
    store = ResultStore(None)
    report = within(20, CampaignRunner(spec, store, n_workers=2).run)
    (failed,) = [o for o in report.outcomes if not o.ok]
    assert failed.key == keys[0]
    assert failed.error == "worker process died (exit code 3)"
    assert set(store.keys()) == set(keys[1:])
    started = Counter(line.split()[0] for line in log.read_text().splitlines())
    assert started == Counter(keys)


def test_a_dying_worker_fails_its_whole_group_and_only_it(tmp_path, monkeypatch):
    # fig07 over three seeds is three sweep groups of seven NoC values;
    # a member after the leader kills its worker, so the members that
    # already finished in that worker fail with it
    spec = get_artifact("fig07").spec(scale=SCALE, seeds=(0, 1, 2))
    groups = [[key for key, _ in g] for g in runner.sweep_groups(
        list(spec.unique_cells().items())
    )]
    assert len(groups) == 3 and all(len(g) == 7 for g in groups)
    doomed = groups[1]
    log = tmp_path / "starts.log"
    real = runner.execute_cell

    def execute(cell, *shared):
        key = cell.key()
        with open(log, "a") as fh:
            fh.write(f"{key}\n")
        if key == doomed[2]:
            os._exit(3)
        return real(cell, *shared)

    monkeypatch.setattr(runner, "execute_cell", execute)
    store = ResultStore(None)
    report = within(30, CampaignRunner(spec, store, n_workers=2).run)
    failed = {o.key: o.error for o in report.outcomes if not o.ok}
    assert failed == {key: "worker process died (exit code 3)" for key in doomed}
    assert report.failed == 7 and report.executed == 21
    others = [key for g in groups if g is not doomed for key in g]
    assert set(store.keys()) == set(others)
    started = Counter(log.read_text().split())
    assert all(started[key] == 1 for key in others)


def test_a_large_campaign_whose_first_cell_dies_completes(monkeypatch):
    # thousands of cells take long enough to submit that the first one
    # could kill its worker before the last is queued; the run must
    # neither raise nor hang, and must not re-run 2 999 cells one by one
    spec = CampaignSpec(
        name="many",
        topologies=(TopologySpec(kind="standard", num_nodes=60),),
        seeds=tuple(range(3000)),
        metrics=("topology",),
    )
    doomed = next(iter(spec.unique_cells()))

    def execute(cell, *shared):
        if cell.key() == doomed:
            os._exit(3)
        return {"n": 1}

    monkeypatch.setattr(runner, "execute_cell", execute)
    store = ResultStore(None)
    report = within(20, CampaignRunner(spec, store, n_workers=2).run)
    (failed,) = [o for o in report.outcomes if not o.ok]
    assert failed.key == doomed
    assert len(store) == spec.num_cells - 1


def test_cli_figure_exits_1(tmp_path):
    key = artifact_keys()[3]
    script = (
        "import os, sys\n"
        "from repro.campaign import runner\n"
        "from repro.campaign.__main__ import main\n"
        "real = runner.execute_cell\n"
        "def execute(cell, *shared):\n"
        "    if cell.key() == sys.argv[1]:\n"
        "        os._exit(3)\n"
        "    return real(cell, *shared)\n"
        "runner.execute_cell = execute\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", script, key, "figure", ARTIFACT,
            "--scale", str(SCALE), "--workers", "2",
            "--store", str(tmp_path / "s.jsonl"),
        ],
        capture_output=True, text=True, timeout=60, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert key in proc.stderr and "worker process died" in proc.stderr
    assert f"--- failed cell {key} ---" in proc.stderr
    assert "Traceback" not in proc.stderr


def _state(pid):
    """``pid``'s one-letter state from ``/proc/<pid>/stat``, or None when
    it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def test_no_worker_outlives_a_killed_run(tmp_path):
    # the run is SIGKILLed while both workers hold a 0.5 s cell: each
    # must finish that cell at most and exit, not wait for work forever
    log = tmp_path / "pids.log"
    script = (
        "import os, sys, time\n"
        "from repro.campaign import runner\n"
        "from repro.campaign.runner import CampaignRunner\n"
        "from repro.campaign.spec import CampaignSpec, TopologySpec\n"
        "def execute(cell, *shared):\n"
        "    with open(sys.argv[1], 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(0.5)\n"
        "    return {'n': 1}\n"
        "runner.execute_cell = execute\n"
        "spec = CampaignSpec(\n"
        "    name='slow', seeds=tuple(range(20)), metrics=('topology',),\n"
        "    topologies=(TopologySpec(kind='standard', num_nodes=60),),\n"
        ")\n"
        "CampaignRunner(spec, None, n_workers=2).run()\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(log)], cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    pids = set()

    def logged():
        return {int(p) for p in log.read_text().split()} if log.exists() else set()

    def kill_then_wait():
        while len(logged()) < 2:
            assert proc.poll() is None, "the campaign ended before its workers started"
            time.sleep(0.02)
        proc.kill()
        proc.wait()
        pids.update(logged())
        for _ in range(100):
            alive = [pid for pid in pids if _state(pid) not in (None, "Z")]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"workers {alive} outlived their run by 5 s"

    try:
        within(20, kill_then_wait)
    finally:
        proc.kill()
        proc.wait()
        for pid in pids | logged():
            if _state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


def test_http_answers_500_then_serves_the_next_run(doomed, tmp_path, monkeypatch):
    srv = make_server("127.0.0.1", 0, str(tmp_path / "f.db"), workers=2)
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = srv.server_address[:2]

    def post():
        req = urllib.request.Request(
            f"http://{host}:{port}/artifacts/{ARTIFACT}/run",
            data=json.dumps({"scale": SCALE}).encode(), method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode())

    try:
        status, payload = post()
        assert status == 500 and doomed in json.dumps(payload)
        monkeypatch.undo()  # the cell stops killing its worker
        status, payload = post()
        # _run_lock was released; only the failed cell runs again
        assert status == 200 and payload["meta"]["executed"] == 1
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
