"""The seven ledger workloads.

Every workload is a closed loop driven from one process: an *iteration*
issues the workload's operations one after another (or, for the two
service workloads, from at most two workers/clients) and returns what it
attempted, what failed and a digest of the outputs.  Iteration ``i``
draws its inputs from ``spawn_rng(seed, "ledger", workload, i)``, so a
run covers as many distinct inputs as fit in its time box and the
reported medians average over them; the program only ever sees the
generated inputs.

Sizes are chosen so that one iteration takes roughly a second on the
2-core reference box: the contract this benchmark is run under fixes one
``--seconds`` for every workload and needs several iterations inside it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.api as api
from repro.campaign.store import SqliteStore, open_store
from repro.core.params import CARDParams
from repro.core.protocol import CARDProtocol
from repro.net.network import Network
from repro.scenarios.factory import standard_topology
from repro.service import daemon
from repro.service.http import ArtifactService
from repro.service.queue import WorkQueue
from repro.util.rng import spawn_rng

from _httpclient import Connection, request_once
from _tracer import Tracer

__all__ = ["WORKLOADS", "Context", "Iteration", "CheckFailed", "Workload"]

LEDGER_DIR = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """A workload's output failed one of its correctness checks."""


def digest_of(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Context:
    """What a workload is given: the seed, the size class, a scratch dir."""

    seed: int
    smoke: bool
    workdir: Path
    #: set while a traced iteration runs
    tracer: Optional[Tracer] = None

    def rng(self, *keys: object) -> np.random.Generator:
        return spawn_rng(self.seed, "ledger", *keys)

    def sub_seed(self, *keys: object) -> int:
        """A root seed for the program, derived from the workload seed."""
        return int(self.rng(*keys).integers(2**31 - 1))


@dataclass
class Iteration:
    """What one iteration did."""

    #: work units completed (the workload's ``work_unit``)
    work: float
    #: operations attempted / failed (the workload's ``op``)
    attempted: int
    failed: int
    #: digest of the iteration's outputs
    digest: str
    #: per-operation latencies, when an operation is finer than the iteration
    op_ms: Optional[List[float]] = None
    #: seconds the workload timed around its own phases
    phases: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: set-up, iterate, verify, tear down."""

    name = ""
    #: what ``work_per_s`` counts
    work_unit = ""
    #: what ``attempted``/``failed`` count
    op = ""
    #: whether iteration 0 can be run again at the end of a run and must
    #: then give the same outputs (same inputs, same outputs)
    replayable = True
    #: whether the speed the host gives a core sets how long an iteration
    #: takes, so that its time is reported at the reference host speed
    #: (see `_child.PROBE_REFERENCE_S`)
    host_bound = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        #: names of the correctness checks that ran (all must, every run)
        self.checks: set = set()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.add(name)
        if not ok:
            raise CheckFailed(f"{self.name}: {name} failed {detail}".rstrip())

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, i: int) -> Iteration:
        raise NotImplementedError

    def traced_iterate(self, i: int) -> Iteration:
        """The iteration a trace is taken of (tracing on or off)."""
        return self.iterate(i)

    def layer_extras(self, tracer: Tracer) -> Dict[str, float]:
        """Per-layer numbers only the workload can see (traced run only)."""
        return {}

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# artifact workloads: one `api.run` per iteration into a cold JSONL store
# ----------------------------------------------------------------------
class ArtifactWorkload(Workload):
    """``api.run(<artifact>)`` on a fresh seed and a fresh on-disk store.

    The store is a JSONL file in the scratch dir, so ``campaign.store``
    append + fsync is on the measured path, as it is for a user.
    """

    artifact = ""
    op = "cell"
    #: `api.run` calls per iteration, each on a seed of its own: the wall
    #: time of one call depends on the topology it draws, so an iteration
    #: averages over a few
    calls = 1
    full: Dict[str, object] = {}
    small: Dict[str, object] = {}

    def setup(self) -> None:
        self.options = dict(self.small if self.ctx.smoke else self.full)
        # lazy imports and first-call set-up inside numpy and the engine
        # are paid once here, not by the first timed iteration
        self._run("warmup", dict(self.small), verify=False)

    def _run(
        self, tag: object, options: Dict[str, object], verify: bool = True
    ) -> Iteration:
        path = self.ctx.workdir / f"{self.name}-{tag}.jsonl"
        store = open_store(str(path))
        try:
            result = api.run(
                self.artifact,
                store=store,
                seed=self.ctx.sub_seed(self.name, tag),
                **options,
            )
            text = result.render()
            records = [record["metrics"] for _, record in store.items()]
            self.store_bytes = store.size_bytes()
        finally:
            store.close()
            path.unlink(missing_ok=True)
        counts = result.campaign or {}
        cells = int(counts.get("total_cells", 0))
        self.check(
            "all_cells_executed",
            cells > 0 and counts.get("executed") == cells and len(records) == cells,
            str(counts),
        )
        self.check("rendered", result.exp_id == self.artifact and len(text) > 0)
        if verify:
            self.verify(result, records, options)
        return Iteration(
            work=self.work(cells, options),
            attempted=cells,
            failed=int(counts.get("failed", 0)),
            digest=digest_of([result.headers, result.rows]),
        )

    def iterate(self, i: int) -> Iteration:
        parts: List[Iteration] = []
        op_ms: List[float] = []
        for k in range(1 if self.ctx.smoke else self.calls):
            t0 = perf_counter()
            parts.append(self._run(f"{i}-{k}", self.options))
            op_ms.append(1e3 * (perf_counter() - t0))
        return Iteration(
            work=sum(p.work for p in parts),
            attempted=sum(p.attempted for p in parts),
            failed=sum(p.failed for p in parts),
            digest=digest_of([p.digest for p in parts]),
            op_ms=op_ms if len(op_ms) > 1 else None,
        )

    def layer_extras(self, tracer: Tracer) -> Dict[str, float]:
        return {"campaign.store.bytes": float(self.store_bytes)}

    def work(self, cells: int, options: Dict[str, object]) -> float:
        raise NotImplementedError

    def verify(self, result, records: List[dict], options: Dict[str, object]) -> None:
        raise NotImplementedError


class SnapshotPaper(ArtifactWorkload):
    name = "snapshot_paper"
    artifact = "fig07"
    work_unit = "sources"
    calls = 3
    full = {"scale": 1.0, "noc_values": (2, 6, 12), "num_sources": 40}
    # R=1, r=4: at N=100 the paper's R=3, r=10 leaves no room for contacts
    small = {"scale": 0.2, "noc_values": (2, 6, 12), "num_sources": 25, "R": 1, "r": 4}

    def work(self, cells: int, options: Dict[str, object]) -> float:
        return float(cells * int(options["num_sources"]))  # type: ignore[arg-type]

    def verify(self, result, records, options) -> None:
        # the shape of Fig 7: reachability rises with NoC, then saturates
        means = [result.raw["means"][f"NoC={k}"] for k in options["noc_values"]]
        self.check(
            "reachability_non_decreasing",
            all(b >= a for a, b in zip(means, means[1:])),
            str(means),
        )
        if len(means) >= 3:
            self.check(
                "early_gain_exceeds_late_gain",
                means[1] - means[0] > means[-1] - means[-2],
                str(means),
            )


class SnapshotXL(SnapshotPaper):
    name = "snapshot_xl"
    calls = 1
    full = {"scale": "xl", "noc_values": (3, 9), "num_sources": 50}
    small = {"scale": 0.24, "noc_values": (3, 9), "num_sources": 25, "R": 1, "r": 4}


class DesChurn(ArtifactWorkload):
    name = "des_churn"
    artifact = "fig_des_latency"
    work_unit = "sim_s"
    calls = 2
    full = {
        "scale": 0.5, "latencies": (0.01,), "num_queries": 100,
        "duration": 3.0, "num_sources": 60,
    }
    small = {
        "scale": 0.2, "latencies": (0.01,), "num_queries": 20,
        "duration": 2.0, "num_sources": 20,
    }

    def work(self, cells: int, options: Dict[str, object]) -> float:
        return float(cells * float(options["duration"]))  # type: ignore[arg-type]

    def verify(self, result, records, options) -> None:
        for m in records:
            self.check(
                "queries_accounted",
                m["queries"] == m["successes"] + m["failures"]
                and m["queries"] == options["num_queries"],
                str({k: m[k] for k in ("queries", "successes", "failures")}),
            )
            self.check(
                "one_latency_per_success", len(m["latencies"]) == m["successes"]
            )


class MobilityField(ArtifactWorkload):
    name = "mobility_field"
    artifact = "mobility_rate"
    work_unit = "steps"
    #: `TimeSeriesRunner`'s mobility step (s)
    STEP = 0.5
    full = {
        "scale": 8.0, "num_sources": 8, "duration": 3.0,
        "max_speeds": (5.0, 20.0),
    }
    small = {
        "scale": 0.4, "num_sources": 4, "duration": 2.0,
        "max_speeds": (5.0, 20.0),
    }

    def _steps(self, options: Dict[str, object]) -> int:
        return int(float(options["duration"]) / self.STEP)  # type: ignore[arg-type]

    def work(self, cells: int, options: Dict[str, object]) -> float:
        return float(cells * self._steps(options))

    def verify(self, result, records, options) -> None:
        steps = self._steps(options)
        for m in records:
            self.check("one_churn_sample_per_step", len(m["link_churn"]) == steps)
            st = m["substrate_stats"]
            updates = (
                st["full_rebuilds"] + st["incremental_updates"] + st["null_updates"]
            )
            # one cold build, then at most one refresh per mobility step
            self.check(
                "substrate_updates_consistent",
                st["full_rebuilds"] >= 1 and updates <= steps + 1,
                str(st),
            )


# ----------------------------------------------------------------------
class QueryStorm(Workload):
    """DSQ queries against one bootstrapped network, with writes beside."""

    name = "query_storm"
    work_unit = "queries"
    op = "query"
    # every iteration mutates the contact tables, so iteration 0 cannot be
    # run again; `warm_equals_cold` is the in-run determinism check
    replayable = False
    full = dict(n=400, r=10, noc=5, rounds=2, pairs=1000, holders=10, singles=200, probe=200)
    small = dict(n=100, r=8, noc=3, rounds=1, pairs=100, holders=4, singles=30, probe=40)

    def setup(self) -> None:
        size = self.size = self.small if self.ctx.smoke else self.full
        seed = self.ctx.sub_seed(self.name, "network")
        topology = standard_topology(num_nodes=size["n"], seed=seed, salt="ledger")
        params = CARDParams(R=3, r=size["r"], noc=size["noc"], depth=3)
        self.card = CARDProtocol(Network(topology), params, seed=seed)
        self.card.bootstrap()
        probe = self._pairs("probe", size["probe"])
        batched = self.card.query_many(probe)
        single = [self.card.query(s, t) for s, t in probe]
        self.check("batched_equals_single", batched == single)

    def _pairs(self, tag: object, count: int) -> List[Tuple[int, int]]:
        n = self.size["n"]
        rng = self.ctx.rng(self.name, "pairs", tag)
        src = rng.integers(n, size=count)
        dst = (src + 1 + rng.integers(n - 1, size=count)) % n  # never src
        return [(int(s), int(t)) for s, t in zip(src, dst)]

    def iterate(self, i: int) -> Iteration:
        size, card = self.size, self.card
        rng = self.ctx.rng(self.name, "holders", i)
        phases = {"cold_batch_s": 0.0, "warm_batch_s": 0.0}
        outcomes: List[Tuple[bool, int]] = []
        queries = 0
        for round_ in range(size["rounds"]):
            pairs = self._pairs((i, round_), size["pairs"])
            for holder in rng.choice(size["n"], size=size["holders"], replace=False):
                table = card.table_for(int(holder))
                ids = table.ids()
                if ids:
                    table.remove(ids[int(rng.integers(len(ids)))])
                card.maintain(int(holder))
            t1 = perf_counter()
            cold = card.query_many(pairs)  # tables changed: fabric is rebuilt
            t2 = perf_counter()
            warm = card.query_many(pairs)  # same tables: fabric is reused
            t3 = perf_counter()
            phases["cold_batch_s"] += t2 - t1
            phases["warm_batch_s"] += t3 - t2
            self.check("warm_equals_cold", warm == cold)
            outcomes += [(r.success, r.msgs) for r in cold]
            queries += 2 * len(pairs)
        op_ms: List[float] = []
        t_single = perf_counter()
        for s, t in self._pairs((i, "single"), size["singles"]):
            t0 = perf_counter()
            res = card.query(s, t)
            op_ms.append(1e3 * (perf_counter() - t0))
            outcomes.append((res.success, res.msgs))
        phases["single_s"] = perf_counter() - t_single
        queries += size["singles"]
        self.check("queries_answered", len(outcomes) > 0)
        return Iteration(
            work=float(queries),
            attempted=queries,
            failed=0,  # an unresolved target is an answer, not a failure
            digest=digest_of(outcomes),
            op_ms=op_ms,
            phases=phases,
        )


# ----------------------------------------------------------------------
def _spawn_traced_workers(n, queue_path, store_target, *, trace=None, poll=0.5):
    """`daemon.spawn_workers` for the traced run: same workers, started
    through `_traced_worker.py`, which installs the wrappers first."""
    procs = []
    for i in range(n):
        cmd = [
            sys.executable, str(LEDGER_DIR / "_traced_worker.py"),
            "--queue", str(queue_path), "--store", str(store_target),
            "--id", f"local:{i}", "--poll", str(poll),
            "--spawned-at", repr(perf_counter()),
        ]
        procs.append(subprocess.Popen(cmd))
    return procs


class QueueDrain(Workload):
    """A campaign of tiny cells drained through the lease queue."""

    name = "queue_drain"
    work_unit = "cells"
    op = "cell"
    WORKERS = 2
    full = dict(scale=0.5, seeds=8)
    small = dict(scale=0.12, seeds=2)

    def setup(self) -> None:
        self.size = self.small if self.ctx.smoke else self.full
        self.table1 = api.describe("table1")
        #: what each traced worker reported, and each traced drain's tail
        self.worker_marks: List[dict] = []
        self.tails: List[float] = []
        self.daemon_returned_at = 0.0

    def _spec(self, i: int):
        base = self.ctx.sub_seed(self.name, i)
        seeds = tuple(base + k for k in range(self.size["seeds"]))
        return self.table1.spec(scale=self.size["scale"], seeds=seeds)

    def iterate(self, i: int) -> Iteration:
        spec = self._spec(i)
        keys = set(spec.unique_cells())
        tag = f"{self.name}-{i}"
        qpath = self.ctx.workdir / f"{tag}.queue.db"
        spath = self.ctx.workdir / f"{tag}.store.db"
        queue = WorkQueue(qpath, ttl=30.0)
        store = SqliteStore(spath)
        try:
            summary = daemon.run_daemon(
                spec, queue, store, workers=self.WORKERS, poll=0.05, timeout=120.0
            )
            self.daemon_returned_at = perf_counter()
            stored = set(store.keys())
            rows = sorted(
                (key, digest_of(store.metrics(key))) for key in stored
            )
            self.store_bytes = store.size_bytes()
        finally:
            queue.close()
            store.close()
            for path in self.ctx.workdir.glob(f"{tag}.*"):
                if not path.name.endswith(".trace.json"):
                    path.unlink(missing_ok=True)
        self.check("campaign_completed", bool(summary["ok"]), str(summary["counts"]))
        self.check("store_holds_exactly_the_cells", stored == keys)
        self.check("no_requeues", summary["requeues"] == 0)
        self.heartbeats = int(summary["heartbeats"])
        return Iteration(
            work=float(len(keys)),
            attempted=len(keys),
            failed=int(summary["counts"].get("failed", 0)),
            digest=digest_of(rows),
        )

    def traced_iterate(self, i: int) -> Iteration:
        if self.ctx.tracer is None:
            return self.iterate(i)
        original = daemon.spawn_workers
        daemon.spawn_workers = _spawn_traced_workers
        try:
            out = self.iterate(i)
        finally:
            daemon.spawn_workers = original
        marks = []
        for path in sorted(self.ctx.workdir.glob(f"{self.name}-{i}.*.trace.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            marks.append(dump["marks"])
            self.ctx.tracer.merge(dump["trace"])
        # between them the workers that reported ran every cell (one the
        # daemon stopped while it was still starting has run none)
        self.check(
            "traced_workers_executed_every_cell",
            sum(m["executed"] for m in marks) == out.attempted,
        )
        self.worker_marks += marks
        # the drain's tail: its last commit -> run_daemon returning
        self.tails.append(
            self.daemon_returned_at - max(m["last_commit_at"] for m in marks)
        )
        return out

    def layer_extras(self, tracer: Tracer) -> Dict[str, float]:
        marks = self.worker_marks
        elapsed = sum(m["ended_at"] - m["started_at"] for m in marks)
        cells = sum(m["executed"] for m in marks)
        execute = tracer.total_s("campaign.runner", "execute")
        per_worker = [m["executed"] for m in marks]
        return {
            "bench.extra_wall_s": elapsed,  # the workers' share of the traced wall
            "campaign.store.bytes": float(self.store_bytes),
            "service.queue.heartbeats": float(self.heartbeats),
            "service.queue.requeues": 0.0,  # checked: a drain with requeues fails
            "service.queue.overhead_ms_per_cell": 1e3 * (elapsed - execute) / max(cells, 1),
            # a worker the daemon stopped before its first lease has none
            "service.worker.spawn_s": statistics.median(
                [m["first_lease_at"] - m["spawned_at"] for m in marks if m["first_lease_at"]]
            ),
            "service.worker.busy_frac": execute / elapsed if elapsed else 0.0,
            "service.worker.lost_leases": float(sum(m["lost_leases"] for m in marks)),
            "service.worker.balance": min(per_worker) / max(max(per_worker), 1),
            "service.daemon.tail_s": statistics.median(self.tails),
        }


# ----------------------------------------------------------------------
class HttpWarm(Workload):
    """Warm requests against a live `repro.service serve` subprocess."""

    name = "http_warm"
    work_unit = "requests"
    op = "request"
    # every warm reply is compared with the cold one as it arrives
    replayable = False
    # a request takes one 40 ms kernel timer (the server's header/body
    # write-write-read stall), however fast the host runs
    host_bound = False
    CLIENTS = 2
    full = dict(ids=("table1", "fig15", "ablation_query"), scale=0.1, per_client=25, probe=40)
    small = dict(ids=("table1", "ablation_query"), scale=0.1, per_client=6, probe=8)

    def setup(self) -> None:
        self.size = self.small if self.ctx.smoke else self.full
        self.server: Optional[subprocess.Popen] = None
        self.conns: List[Connection] = []
        self.service: Optional[ArtifactService] = None
        self.inproc_ms: List[float] = []
        work = self.ctx.workdir
        self.store_uri = f"sqlite:///{work / 'http.store.db'}"
        # a seeded, never-drained queue for GET /campaigns/<queue>/status
        queue = WorkQueue(work / "http.queue.db", ttl=30.0)
        try:
            spec = api.describe("table1").spec(
                scale=0.1, seeds=(self.ctx.sub_seed(self.name, "queue"),)
            )
            queue.enqueue((k, c.to_dict()) for k, c in spec.unique_cells().items())
        finally:
            queue.close()
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--store", self.store_uri, "--port", "0", "--root", str(work),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()  # "serving <uri> on http://host:port"
        if "http://" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, port = banner.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)
        self.body = {"scale": self.size["scale"], "seed": self.ctx.sub_seed(self.name, "artifacts")}
        self.cold_rows: Dict[str, object] = {}
        t0 = perf_counter()
        for exp_id in self.size["ids"]:
            status, raw = request_once(
                self.host, self.port, "POST", f"/artifacts/{exp_id}/run", self.body
            )
            reply = json.loads(raw)
            self.check(
                "cold_post_executes",
                status == 200 and reply["meta"]["executed"] == reply["meta"]["total_cells"],
                f"{exp_id}: {status}",
            )
            self.cold_rows[exp_id] = reply["rows"]
        self.cold_post_s = perf_counter() - t0
        self.conns = [Connection(self.host, self.port) for _ in range(self.CLIENTS)]

    # -- the request mix -------------------------------------------------
    def _plan(self, i: int, client: int, count: int) -> List[Tuple[str, str, Optional[dict], str]]:
        """80 % warm POST rotating over the ids, 10 % list, 10 % status."""
        rng = self.ctx.rng(self.name, "mix", i, client)
        ids = self.size["ids"]
        rot = int(rng.integers(len(ids)))
        plan = []
        for u in rng.random(count):
            if u < 0.8:
                exp_id = ids[rot % len(ids)]
                rot += 1
                plan.append(("POST", f"/artifacts/{exp_id}/run", self.body, exp_id))
            elif u < 0.9:
                plan.append(("GET", "/artifacts", None, "list"))
            else:
                plan.append(("GET", "/campaigns/http.queue.db/status", None, "status"))
        return plan

    def _ok(self, kind: str, status: int, raw: bytes) -> bool:
        if status != 200:
            return False
        reply = json.loads(raw)
        if kind == "list":
            return reply["count"] == len(api.list_artifacts())
        if kind == "status":
            return reply["kind"] == "queue" and reply["total"] > 0
        return (
            reply["exp_id"] == kind
            and reply["meta"]["executed"] == 0
            and reply["rows"] == self.cold_rows[kind]
        )

    def iterate(self, i: int) -> Iteration:
        plans = [
            self._plan(i, k, self.size["per_client"]) for k in range(self.CLIENTS)
        ]
        replies: List[List[tuple]] = [[] for _ in plans]
        errors: List[BaseException] = []

        def client(k: int) -> None:
            try:
                for method, path, payload, _ in plans[k]:
                    t0 = perf_counter()
                    status, raw = self.conns[k].request(method, path, payload)
                    replies[k].append((1e3 * (perf_counter() - t0), status, raw))
            except (OSError, ValueError) as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        attempted = sum(len(p) for p in plans)
        op_ms: List[float] = []
        good = 0
        sizes = 0
        for plan, got in zip(plans, replies):
            for (_, _, _, kind), (ms, status, raw) in zip(plan, got):
                op_ms.append(ms)
                sizes += len(raw)
                good += 1 if self._ok(kind, status, raw) else 0
        self.resp_bytes = sizes / max(len(op_ms), 1)
        self.check("no_client_errors", not errors, repr(errors[:1]))
        self.check("warm_posts_hit_the_store", good == attempted, f"{good}/{attempted}")
        return Iteration(
            work=float(attempted),
            attempted=attempted,
            failed=attempted - good,
            digest=self._digest(),
            op_ms=op_ms,
        )

    def _digest(self) -> str:
        return digest_of([self.cold_rows[k] for k in self.size["ids"]])

    # -- the traced side: the same requests, served in-process -----------
    def traced_iterate(self, i: int) -> Iteration:
        """Replay the iteration's requests through `ArtifactService`
        in this process, where the layers under the wire can be seen."""
        if self.service is None:
            self.service = ArtifactService(self.store_uri, root=self.ctx.workdir)
        service = self.service
        encode = json.dumps  # what the handler does with a reply
        if self.ctx.tracer is not None:
            encode = self.ctx.tracer.wrap(json.dumps, "service.http", "encode")
        attempted = good = 0
        for k in range(self.CLIENTS):
            for _, _, payload, kind in self._plan(i, k, self.size["per_client"]):
                t0 = perf_counter()
                if kind == "list":
                    reply = service.list_artifacts()
                elif kind == "status":
                    reply = service.campaign_status("http.queue.db")
                else:
                    reply = service.run(kind, dict(payload))
                raw = encode(reply, indent=2).encode("utf-8")
                if kind not in ("list", "status"):
                    self.inproc_ms.append(1e3 * (perf_counter() - t0))
                attempted += 1
                good += 1 if self._ok(kind, 200, raw) else 0
        self.check("inproc_replies_match", good == attempted, f"{good}/{attempted}")
        return Iteration(float(attempted), attempted, attempted - good, self._digest())

    def layer_extras(self, tracer: Tracer) -> Dict[str, float]:
        keepalive = self.iterate(0)
        post = ("POST", f"/artifacts/{self.size['ids'][0]}/run", self.body)
        fresh: List[float] = []
        for _ in range(self.size["probe"]):
            t0 = perf_counter()
            status, _ = request_once(self.host, self.port, *post)
            fresh.append(1e3 * (perf_counter() - t0))
            self.check("fresh_connection_ok", status == 200)
        keep_p50 = statistics.median(keepalive.op_ms)
        inproc = statistics.median(self.inproc_ms)
        return {
            "campaign.store.bytes": float(self.service.store.size_bytes()),
            "service.http.requests": float(keepalive.attempted),
            "service.http.errors": float(keepalive.failed),
            "service.http.inproc_run_ms": inproc,
            "service.http.fresh_conn_p50_ms": statistics.median(fresh),
            "service.http.keepalive_p50_ms": keep_p50,
            "service.http.keepalive_p95_ms": float(np.percentile(keepalive.op_ms, 95)),
            "service.http.wire_overhead_ms": keep_p50 - inproc,
            "service.http.resp_bytes": float(self.resp_bytes),
            "service.http.cold_post_s": float(self.cold_post_s),
        }

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.service is not None:
            self.service.store.close()
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        SnapshotPaper, SnapshotXL, DesChurn, MobilityField,
        QueryStorm, QueueDrain, HttpWarm,
    )
}
