"""Service layer — lease queue semantics, worker loop, daemon seeding,
lease-expiry requeue determinism and the service CLI."""

from __future__ import annotations

import contextlib
import json
import signal
import sqlite3
import subprocess
import sys
import threading
import warnings

import pytest

from repro import api
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, TopologySpec
from repro.campaign.store import ResultStore, open_store
from repro.service import daemon
from repro.service.__main__ import main as service_main
from repro.service.daemon import run_daemon, seed_queue
from repro.service.queue import DEFAULT_TTL, WorkQueue
from repro.service.worker import run_worker


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="svc-tiny",
        topologies=(TopologySpec(kind="standard", num_nodes=60, salt="svc"),),
        base_params={"R": 2, "r": 5},
        grid={"noc": [2, 3]},
        seeds=(0, 1),
        metrics=("reachability",),
        num_sources=10,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class FakeClock:
    """Deterministic time source so lease expiry needs no sleeping."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_queue(tmp_path, *, ttl=5.0, clock=None) -> WorkQueue:
    return WorkQueue(
        tmp_path / "q.db", ttl=ttl, clock=clock if clock else FakeClock()
    )


def enqueue_keys(queue: WorkQueue, n: int):
    return queue.enqueue((f"k{i}", {"seed": i}) for i in range(n))


# ----------------------------------------------------------------------
class TestWorkQueue:
    def test_enqueue_counts_and_idempotence(self, tmp_path):
        queue = make_queue(tmp_path)
        first = enqueue_keys(queue, 3)
        assert first == {"enqueued": 3, "cached": 0, "queued": 0}
        again = queue.enqueue(
            [("k0", {}), ("k1", {}), ("new", {})], skip=["k0"]
        )
        assert again == {"enqueued": 1, "cached": 1, "queued": 1}
        assert len(queue) == 4

    def test_lease_claims_oldest_pending(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_keys(queue, 2)
        lease = queue.lease("w1")
        assert lease.key == "k0" and lease.owner == "w1"
        assert lease.cell == {"seed": 0}
        assert queue.counts() == {
            "pending": 1, "leased": 1, "done": 0, "failed": 0,
        }

    def test_lease_none_when_drained(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.lease("w1") is None

    def test_commit_done_and_failed(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_keys(queue, 2)
        a = queue.lease("w1")
        b = queue.lease("w1")
        assert queue.commit(a.key, "w1", elapsed=0.5)
        assert queue.commit(b.key, "w1", error="boom")
        assert queue.counts()["done"] == 1
        assert queue.failures() == [(b.key, "boom")]
        assert queue.is_done()

    def test_commit_owner_checked(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_keys(queue, 1)
        lease = queue.lease("w1")
        assert not queue.commit(lease.key, "impostor", elapsed=0.1)
        assert queue.counts()["leased"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, ttl=5.0, clock=clock)
        enqueue_keys(queue, 1)
        lease = queue.lease("w1")
        clock.advance(4.0)
        assert queue.heartbeat(lease.key, "w1")
        clock.advance(4.0)  # 8s total: dead without the heartbeat
        assert queue.requeue_expired() == 0
        assert queue.heartbeat(lease.key, "w1")

    def test_expired_lease_requeues(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, ttl=5.0, clock=clock)
        enqueue_keys(queue, 1)
        lease = queue.lease("w1")  # the worker now dies silently
        clock.advance(6.0)
        assert queue.requeue_expired() == 1
        release = queue.lease("w2")
        assert release.key == lease.key
        assert release.owner == "w2"
        status = queue.status()
        assert status["requeues"] == 1 and status["attempts"] == 2

    def test_lease_requeues_expired_inline(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, ttl=5.0, clock=clock)
        enqueue_keys(queue, 1)
        queue.lease("w1")
        clock.advance(6.0)
        # no explicit requeue call: lease() recovers the dead peer's cell
        assert queue.lease("w2").key == "k0"

    def test_dead_workers_heartbeat_and_commit_rejected(self, tmp_path):
        clock = FakeClock()
        queue = make_queue(tmp_path, ttl=5.0, clock=clock)
        enqueue_keys(queue, 1)
        lease = queue.lease("w1")
        clock.advance(6.0)
        queue.requeue_expired()
        queue.lease("w2")
        # w1 comes back from the dead: it must learn the lease is gone
        assert not queue.heartbeat(lease.key, "w1")
        assert not queue.commit(lease.key, "w1", elapsed=9.0)

    def test_ttl_round_trips_via_meta(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", ttl=7.5)
        queue.set_meta("ttl", queue.ttl)
        fresh = WorkQueue(tmp_path / "q.db")  # no ttl given: reads meta
        assert fresh.ttl == 7.5

    def test_default_ttl(self, tmp_path):
        assert WorkQueue(tmp_path / "q.db").ttl == DEFAULT_TTL

    def test_bad_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            WorkQueue(tmp_path / "q.db", ttl=0)

    def test_status_shape(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_keys(queue, 2)
        queue.lease("w1")
        status = queue.status()
        assert status["total"] == 2
        assert status["leased"] == 1 and status["pending"] == 1
        (lease,) = status["leases"]
        assert lease["owner"] == "w1" and lease["expires_in"] > 0
        json.dumps(status)  # must be JSON-serialisable for status --json


# ----------------------------------------------------------------------
def fake_execute(cell_spec):
    """A deterministic stand-in executor keyed by the cell's seed."""
    return {"seed": int(cell_spec.seed), "value": int(cell_spec.seed) * 10}


class TestRunWorker:
    def _seed(self, queue: WorkQueue, spec: CampaignSpec):
        pairs = [(k, c.to_dict()) for k, c in spec.unique_cells().items()]
        queue.enqueue(pairs)
        return pairs

    def test_drains_queue_into_store(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        spec = tiny_spec()
        pairs = self._seed(queue, spec)
        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_worker(
            queue, store, worker_id="w1", execute=fake_execute
        )
        assert stats.executed == len(pairs)
        assert stats.failed == 0 and stats.lost_leases == 0
        assert queue.is_done()
        assert sorted(store.keys()) == sorted(k for k, _ in pairs)
        for key, _ in pairs:
            assert store.get(key)["meta"]["worker"] == "w1"

    def test_failed_cell_marked_failed_not_stored(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        queue.enqueue([("bad", tiny_spec().expand()[0].to_dict())])

        def explode(cell_spec):
            raise RuntimeError("cell exploded")

        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_worker(queue, store, worker_id="w1", execute=explode)
        assert stats.failed == 1 and stats.executed == 0
        assert len(store) == 0
        ((key, error),) = queue.failures()
        assert key == "bad" and "cell exploded" in error

    def test_max_cells_bounds_the_loop(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        self._seed(queue, tiny_spec())
        store = ResultStore(tmp_path / "r.jsonl")
        stats = run_worker(
            queue, store, worker_id="w1", execute=fake_execute, max_cells=1
        )
        assert stats.executed == 1
        assert queue.remaining() == 3

    def test_telemetry_records_lease_execute_commit(self, tmp_path):
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        self._seed(queue, tiny_spec())
        store = ResultStore(tmp_path / "r.jsonl")
        trace_path = tmp_path / "trace.jsonl"
        run_worker(
            queue, store, worker_id="w1",
            execute=fake_execute, telemetry=trace_path,
        )
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert len(records) == 4
        for record in records:
            assert record["meta"]["worker"] == "w1"
            assert {"lease", "execute", "commit"} <= set(record["phases"])


class TestRequeueDeterminism:
    """A lease lost to a 'dead' worker must not change final results."""

    def test_expired_lease_rerun_is_bit_identical(self, tmp_path):
        spec = tiny_spec()
        # reference: plain single-process campaign run
        ref = ResultStore(tmp_path / "ref.jsonl")
        CampaignRunner(spec, store=ref, n_workers=1).run()

        # service run: worker w-dead leases one cell and vanishes
        clock = FakeClock()
        queue = WorkQueue(tmp_path / "q.db", ttl=5.0, clock=clock)
        store = open_store(tmp_path / "svc.db")
        seed_queue(spec, queue, store)
        dead_lease = queue.lease("w-dead")
        clock.advance(6.0)  # kill -9: the lease expires unheartbeaten

        stats = run_worker(queue, store, worker_id="w-live")
        assert stats.executed == len(spec.unique_cells())
        assert queue.is_done()
        assert queue.status()["requeues"] == 1
        assert dead_lease.key in store

        assert sorted(store.keys()) == sorted(ref.keys())
        for key in ref.keys():
            assert store.metrics(key) == ref.metrics(key), key


# ----------------------------------------------------------------------
class TestDaemon:
    def test_seed_queue_skips_stored_and_queued(self, tmp_path):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = ResultStore(tmp_path / "r.jsonl")
        keys = list(spec.unique_cells())
        store.append(keys[0], {}, {"m": 1})  # warm cell
        counts = seed_queue(spec, queue, store)
        assert counts == {
            "enqueued": 3, "cached": 1, "queued": 0, "total": 4,
        }
        again = seed_queue(spec, queue, store)
        assert again["enqueued"] == 0 and again["queued"] == 3
        assert queue.get_meta("spec") == spec.name
        assert queue.get_meta("store") == store.uri()

    def test_run_daemon_completes_with_threaded_worker(self, tmp_path):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = open_store(tmp_path / "r.db")
        # seed before the worker starts (an empty queue means "done" to
        # a worker); run_daemon re-seeds idempotently
        seed_queue(spec, queue, store)
        worker = threading.Thread(
            target=lambda: run_worker(
                queue, store, worker_id="wt",
                execute=fake_execute, poll=0.05,
            ),
        )
        ticks = []
        worker.start()
        try:
            summary = run_daemon(
                spec, queue, store, poll=0.05, timeout=60,
                progress=ticks.append,
            )
        finally:
            worker.join(timeout=30)
        assert summary["ok"] is True
        assert summary["counts"]["done"] == 4
        assert summary["failures"] == []
        assert len(store) == 4

    def test_run_daemon_timeout_reports_failure(self, tmp_path):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = ResultStore(tmp_path / "r.jsonl")
        summary = run_daemon(spec, queue, store, poll=0.01, timeout=0.05)
        assert summary["timeout"] is True and summary["ok"] is False


# ----------------------------------------------------------------------
@contextlib.contextmanager
def hard_timeout(seconds: float):
    """Fail instead of hanging: a daemon that waits on a dead fleet
    would otherwise block the whole suite."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def os_threads() -> int:
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])


@contextlib.contextmanager
def fork_warning_is_error():
    """Python >= 3.12 warns when a process with more than one OS thread
    forks.  The daemon must have started none by then, so the warning is
    an error here -- unless the test process already carries native
    threads of its own (numpy's BLAS pool starts them at import), which
    would raise it whatever the daemon did."""
    with warnings.catch_warnings():
        if sys.platform == "linux" and os_threads() == 1:
            warnings.filterwarnings(
                "error", message="This process", category=DeprecationWarning
            )
        yield


def integrity(path) -> str:
    conn = sqlite3.connect(str(path))
    try:
        return str(conn.execute("PRAGMA integrity_check").fetchone()[0])
    finally:
        conn.close()


def exits_with_3(n, queue_path, store_target, *, trace=None, poll=0.5):
    """A ``spawn_workers`` whose fleet dies before its first lease."""
    return [
        subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(3)"])
        for _ in range(n)
    ]


class TestLocalWorkers:
    """``run_daemon(workers > 0)``: children of the daemon process."""

    @pytest.mark.parametrize("store_name", ["svc.db", "svc.jsonl"])
    def test_two_local_workers_drain_table1(self, tmp_path, store_name):
        spec = api.describe("table1").spec(scale=0.12, seeds=(0, 1))
        ref = ResultStore(None)
        CampaignRunner(spec, store=ref, n_workers=1).run()

        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = open_store(tmp_path / store_name)
        with hard_timeout(120), fork_warning_is_error():
            summary = run_daemon(spec, queue, store, workers=2, poll=0.02)

        assert summary["ok"] is True and summary["requeues"] == 0
        assert len(summary["worker_exits"]) == 2
        store = open_store(tmp_path / store_name)  # JSONL: re-read the file
        assert sorted(store.keys()) == sorted(spec.unique_cells())
        for key in ref.keys():
            assert store.metrics(key) == ref.metrics(key), key
        owners = {store.get(key)["meta"]["worker"] for key in store.keys()}
        assert owners and owners <= {"local:0", "local:1"}
        assert integrity(tmp_path / "q.db") == "ok"
        if store_name.endswith(".db"):
            assert integrity(tmp_path / store_name) == "ok"

    def test_no_sqlite_connection_open_when_workers_start(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = open_store(tmp_path / "r.db")
        seen = {}

        def recorder(n, queue_path, store_target, *, trace=None, poll=0.5):
            seen["conns"] = (queue._local.conn, store._local.conn)
            seen["threads"] = threading.active_count()
            # drain in-process so the daemon has something to find done
            run_worker(
                queue_path, open_store(store_target),
                worker_id="rec", execute=fake_execute,
            )
            return []

        monkeypatch.setattr(daemon, "spawn_workers", recorder)
        with hard_timeout(60):
            summary = run_daemon(spec, queue, store, workers=2, poll=0.02)
        assert seen["conns"] == (None, None)
        assert seen["threads"] == 1
        # the daemon's own handles reopened transparently afterwards
        assert summary["ok"] is True and summary["worker_exits"] == []
        assert queue.is_done() and len(store) == 4

    def test_sigkill_mid_lease_survivor_finishes(self, tmp_path, monkeypatch):
        spec = tiny_spec(seeds=(0, 1, 2))
        queue = WorkQueue(tmp_path / "q.db", ttl=0.5)
        store = open_store(tmp_path / "r.db")
        handles = []
        spawn = daemon.spawn_workers

        def capture(*args, **kwargs):
            procs = spawn(*args, **kwargs)
            handles.extend(procs)
            return procs

        def kill_first_leaseholder(status) -> None:
            if handles and any(
                lease["owner"] == "local:0" for lease in status["leases"]
            ):
                handles[0].kill()  # SIGKILL: no cleanup, no last beat
                handles.clear()

        monkeypatch.setattr(daemon, "spawn_workers", capture)
        with hard_timeout(120):
            summary = run_daemon(
                spec, queue, store, workers=2, poll=0.02,
                progress=kill_first_leaseholder,
            )
        assert handles == [], "local:0 was never seen holding a lease"
        assert summary["ok"] is True
        assert summary["requeues"] >= 1
        assert summary["worker_exits"][0] == -signal.SIGKILL
        assert sorted(store.keys()) == sorted(spec.unique_cells())
        assert integrity(tmp_path / "q.db") == "ok"
        assert integrity(tmp_path / "r.db") == "ok"

    def test_dead_fleet_stops_the_daemon(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store = open_store(tmp_path / "r.db")
        monkeypatch.setattr(daemon, "spawn_workers", exits_with_3)
        with hard_timeout(30):  # timeout=None: nothing else bounds the call
            summary = run_daemon(spec, queue, store, workers=2, poll=0.02)
        assert summary["ok"] is False and summary["timeout"] is False
        assert summary["worker_exits"] == [3, 3]
        assert summary["counts"]["pending"] == 4

    def test_dead_fleet_reported_by_the_cli(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "svc.json"
        tiny_spec().save(spec_path)
        monkeypatch.setattr(daemon, "spawn_workers", exits_with_3)
        with hard_timeout(30):
            rc = service_main([
                "daemon", str(spec_path), "--workers", "2",
                "--poll", "0.02", "--quiet",
            ])
        assert rc == 1
        assert "exit codes [3, 3]" in capsys.readouterr().err


# ----------------------------------------------------------------------
class TestServiceCli:
    def test_status_missing_queue_errors(self, tmp_path, capsys):
        rc = service_main(["status", "--queue", str(tmp_path / "nope.db")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err

    def test_status_json(self, tmp_path, capsys):
        queue = WorkQueue(tmp_path / "q.db", ttl=9.0)
        queue.enqueue([("k0", {})])
        rc = service_main(["status", "--queue", str(tmp_path / "q.db"), "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["pending"] == 1 and status["ttl"] == 9.0

    def test_worker_cli_drains_real_cells(self, tmp_path, capsys):
        spec = tiny_spec(grid={"noc": [2]}, seeds=(0,))  # 1 real cell
        queue = WorkQueue(tmp_path / "q.db", ttl=30.0)
        store_path = tmp_path / "r.jsonl"
        seed_queue(spec, queue, ResultStore(store_path))
        rc = service_main([
            "worker", "--queue", str(tmp_path / "q.db"),
            "--store", str(store_path), "--id", "cli-w", "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        store = ResultStore(store_path)
        assert len(store) == 1
        key = store.keys()[0]
        assert "mean_reachability" in store.metrics(key)

    def test_daemon_cli_warm_store_no_workers(self, tmp_path, capsys):
        spec = tiny_spec()
        spec_path = tmp_path / "svc.json"
        spec.save(spec_path)
        store = ResultStore(tmp_path / "r.jsonl")
        for key, cell in spec.unique_cells().items():
            store.append(key, cell.to_dict(), {"m": 1})
        rc = service_main([
            "daemon", str(spec_path),
            "--store", str(tmp_path / "r.jsonl"), "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seeded 0 cell(s)" in out
        assert "4 already stored" in out
