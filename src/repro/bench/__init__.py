"""``card-bench`` — the machine-readable performance-regression harness.

Every scaling PR changes the cost trajectory of the same hot paths:

* **substrate** — cold neighborhood build (bounded frontier products vs
  the seed's all-pairs matrix) and single-source BFS, swept over N;
* **mobility** — the per-step neighborhood refresh under random-waypoint
  movement: the incremental path (bounded BFS only for touched sources)
  vs recomputing from scratch vs the seed APSP-per-step behavior;
* **sparse** — the CSR membership backend vs the dense band at
  N ∈ {1k, 5k, 10k}: bit-identical answers, O(N·ball) memory instead of
  O(N²) (the ratio is the gated "speedup" — it is machine-independent);
* **query** — the batched query engine at N ∈ {1k, 5k, 10k}:
  fabric-backed DSQ workloads (``query_many``) vs the per-query
  reference loop, parity-checked while timing (identical
  ``QueryResult`` lists and traffic accounting);
* **xl** — one N=10⁴ snapshot artifact (``fig07`` at the ``xl`` scale
  profile) built end-to-end through ``repro.api`` on the sparse
  ``DistanceView`` substrate, with peak memory reported.  The seed-era
  implementation (full int32 APSP per epoch, ~800 MB at N=10⁴ before
  counting membership copies) could not run this case at all; the gated
  ratio is sparse-vs-dense peak memory on the identical workload.

``card-bench run`` times everything and emits one ``BENCH_<name>.json``
per bench with wall-times, speedup ratios, per-case peak traced
allocations and the process peak RSS, so the perf trajectory is a
diffable artifact tracked PR-over-PR.  ``card-bench compare`` checks a
fresh run against the committed baselines: it compares **speedup ratios**
(new path vs reference path, both measured on the same machine in the
same process), which makes the gate portable across CI hardware — an
absolute-seconds gate would flake with runner noise.

JSON schema (both files)::

    {
      "bench": "substrate" | "mobility",
      "schema_version": 1,
      "quick": bool,
      "host": {"platform": ..., "python": ..., "numpy": ..., "scipy": ...},
      "peak_rss_kb": int,          # process high-water mark after the run
      "cases": [
        {
          "name": str,             # stable key compare() matches on
          "n": int,                # network size
          ...,                     # case-specific knobs (radius, steps, ...)
          "reference_seconds": float,   # the seed-era implementation
          "candidate_seconds": float,   # the current implementation
          "speedup": float,             # reference / candidate
          "candidate_peak_bytes": int,  # tracemalloc peak of the candidate
          "reference_peak_bytes": int
        }, ...
      ]
    }
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._version import __version__
from repro.mobility.waypoint import RandomWaypoint
from repro.net import graph as g
from repro.net.substrate import DistanceSubstrate
from repro.net.topology import Topology

__all__ = [
    "SCHEMA_VERSION",
    "bench_substrate",
    "bench_mobility",
    "bench_obs",
    "bench_query",
    "bench_sparse",
    "bench_xl",
    "write_report",
    "compare_reports",
]

SCHEMA_VERSION = 1

#: Standard-density geometry (the paper's 500-node field scaled by area so
#: mean degree stays constant across the N sweep).
_BASE_N = 500
_BASE_AREA = 710.0
_TX_RANGE = 50.0


def _topology(n: int, seed: int = 0) -> Topology:
    side = _BASE_AREA * (n / _BASE_N) ** 0.5
    rng = np.random.default_rng(seed)
    return Topology.uniform_random(n, (side, side), _TX_RANGE, rng)


def _timed(fn: Callable[[], object], repeats: int) -> Tuple[float, int, object]:
    """Best-of-``repeats`` wall time, tracemalloc peak, and the last result."""
    best = float("inf")
    peak = 0
    out: object = None
    for _ in range(repeats):
        tracemalloc.start()
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        _, p = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        best = min(best, elapsed)
        peak = max(peak, p)
    return best, peak, out


def _host() -> Dict[str, str]:
    try:
        import scipy

        scipy_version = scipy.__version__
    except Exception:  # pragma: no cover - no-scipy environments
        scipy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "card_repro": __version__,
    }


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX platforms
        return None


# ----------------------------------------------------------------------
# substrate: cold builds over an N sweep
# ----------------------------------------------------------------------
def bench_substrate(
    *,
    sizes: Sequence[int] = (250, 500, 1000),
    radius: int = 3,
    repeats: int = 3,
    quick: bool = False,
) -> Dict[str, object]:
    """Cold neighborhood-build cost: bounded band vs seed all-pairs APSP.

    Each case also cross-checks parity (band == clipped APSP) so a bench
    run can never report a speedup for wrong answers.
    """
    cases: List[Dict[str, object]] = []
    for n in sizes:
        topo = _topology(int(n))
        adj = topo.adj

        apsp_s, apsp_mem, full = _timed(lambda: g.hop_distance_matrix(adj), repeats)
        band_s, band_mem, band = _timed(
            lambda: g.bounded_hop_distances(adj, radius), repeats
        )
        clipped = np.where(
            (full >= 0) & (full <= radius), full, g.UNREACHABLE
        ).astype(band.dtype)
        if not (band == clipped).all():  # pragma: no cover - parity guard
            raise AssertionError(f"bounded band diverged from APSP at N={n}")

        bfs_s, _, _ = _timed(lambda: g.bfs_hops(adj, 0), max(repeats, 5))
        cases.append(
            {
                "name": f"cold_build_n{n}",
                "n": int(n),
                "radius": int(radius),
                "reference_seconds": apsp_s,
                "candidate_seconds": band_s,
                "speedup": apsp_s / band_s if band_s > 0 else float("inf"),
                "reference_peak_bytes": int(apsp_mem),
                "candidate_peak_bytes": int(band_mem),
                "bfs_hops_seconds": bfs_s,
            }
        )
    return {
        "bench": "substrate",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": cases,
    }


# ----------------------------------------------------------------------
# mobility: per-step refresh under random waypoint
# ----------------------------------------------------------------------
def bench_mobility(
    *,
    sizes: Sequence[int] = (500, 1000),
    radius: int = 3,
    steps: int = 10,
    step_dt: float = 0.5,
    quick: bool = False,
) -> Dict[str, object]:
    """Mobility-step refresh: incremental substrate vs seed APSP-per-step.

    Replays the same random-waypoint trajectory three times per size:

    * ``reference`` — what the seed did: full scipy APSP each step;
    * ``full_bounded`` — bounded band rebuilt from scratch each step;
    * ``candidate`` — the incremental substrate (bounded BFS only for
      sources whose zone a changed link touched).

    The incremental result is asserted equal to the cold bounded build
    after every step, so the reported speedup is parity-checked.
    """
    cases: List[Dict[str, object]] = []
    for n in sizes:
        horizon = int(radius)

        def trajectory(topo: Topology) -> List[np.ndarray]:
            model = RandomWaypoint(
                topo.positions, topo.area, rng=np.random.default_rng(7)
            )
            return [np.array(model.step(step_dt)) for _ in range(steps)]

        # one topology per mode, identical movement
        topo_ref = _topology(int(n))
        positions = trajectory(topo_ref)

        ref_total = 0.0
        for pos in positions:
            topo_ref.set_positions(pos)
            adj = topo_ref.adj
            t0 = time.perf_counter()
            g.hop_distance_matrix(adj)
            ref_total += time.perf_counter() - t0

        topo_full = _topology(int(n))
        full_total = 0.0
        for pos in positions:
            topo_full.set_positions(pos)
            adj = topo_full.adj
            t0 = time.perf_counter()
            g.bounded_hop_distances(adj, horizon)
            full_total += time.perf_counter() - t0

        topo_inc = _topology(int(n))
        sub = DistanceSubstrate(topo_inc, horizon)
        topo_inc.enable_delta_tracking()
        sub.refresh()  # cold build outside the timed loop
        inc_total = 0.0
        churn: List[int] = []
        for pos in positions:
            before = topo_inc.epoch
            topo_inc.set_positions(pos)
            adj = topo_inc.adj
            changed = topo_inc.diff(before)
            churn.append(-1 if changed is None else int(changed.size))
            t0 = time.perf_counter()
            sub.refresh()
            inc_total += time.perf_counter() - t0
            check = g.bounded_hop_distances(adj, horizon)
            if not (sub.band() == check).all():  # pragma: no cover
                raise AssertionError(f"incremental refresh diverged at N={n}")

        per_step = steps if steps else 1
        cases.append(
            {
                "name": f"mobility_step_n{n}",
                "n": int(n),
                "radius": int(radius),
                "steps": int(steps),
                "reference_seconds": ref_total / per_step,
                "full_bounded_seconds": full_total / per_step,
                "candidate_seconds": inc_total / per_step,
                "speedup": (ref_total / inc_total) if inc_total > 0 else float("inf"),
                "speedup_vs_full_bounded": (
                    (full_total / inc_total) if inc_total > 0 else float("inf")
                ),
                "mean_changed_nodes": (
                    float(np.mean([c for c in churn if c >= 0])) if churn else 0.0
                ),
                "rows_recomputed": sub.stats().rows_recomputed,
                "full_rebuilds": sub.stats().full_rebuilds,
                "incremental_updates": sub.stats().incremental_updates,
            }
        )
    return {
        "bench": "mobility",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": cases,
    }


# ----------------------------------------------------------------------
# sparse backend: dense vs CSR membership over an N sweep
# ----------------------------------------------------------------------
def bench_sparse(
    *,
    sizes: Sequence[int] = (1000, 5000, 10000),
    radius: int = 3,
    quick: bool = False,
) -> Dict[str, object]:
    """Dense band vs sparse CSR membership backend at large N.

    Both backends are built cold and their membership matrices derived;
    answers are cross-checked on a probe subset so the bench can never
    report a win for wrong numbers.  The gated ``speedup`` is the
    **memory ratio** (dense representation bytes / sparse representation
    bytes) — deterministic and machine-independent, unlike wall-clock at
    these sizes.
    """
    from repro.net.substrate import DistanceSubstrate

    cases: List[Dict[str, object]] = []
    for n in sizes:
        topo = _topology(int(n))
        _ = topo.adj

        def build(kind: str):
            sub = DistanceSubstrate(topo, radius, backend=kind)
            member = sub.membership(radius)
            return sub, member

        dense_s, dense_mem_peak, (dense_sub, dense_member) = _timed(
            lambda: build("dense"), 1
        )
        sparse_s, sparse_mem_peak, (sparse_sub, sparse_member) = _timed(
            lambda: build("sparse"), 1
        )

        # parity probe: band rows + membership rows on a source sample
        probe = np.linspace(0, n - 1, num=min(64, n), dtype=np.int64)
        for u in probe:
            u = int(u)
            if not (
                dense_sub._fresh_band().row_within(u, radius)
                == sparse_sub._fresh_band().row_within(u, radius)
            ).all() or not (dense_member[u] == sparse_member[u]).all():
                raise AssertionError(  # pragma: no cover - parity guard
                    f"sparse backend diverged from dense at N={n}, u={u}"
                )

        dense_bytes = dense_sub.band_bytes() + int(dense_member.nbytes)
        sparse_bytes = sparse_sub.band_bytes() + int(sparse_member.nbytes)
        cases.append(
            {
                "name": f"membership_backend_n{n}",
                "n": int(n),
                "radius": int(radius),
                "reference_seconds": dense_s,
                "candidate_seconds": sparse_s,
                "reference_bytes": int(dense_bytes),
                "candidate_bytes": int(sparse_bytes),
                "reference_peak_bytes": int(dense_mem_peak),
                "candidate_peak_bytes": int(sparse_mem_peak),
                # the gated ratio: representation memory, not seconds
                "speedup": (
                    dense_bytes / sparse_bytes if sparse_bytes else float("inf")
                ),
                "speedup_metric": "bytes",
            }
        )
    return {
        "bench": "sparse",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": cases,
    }


# ----------------------------------------------------------------------
# xl smoke: one N=10^4 snapshot artifact end-to-end
# ----------------------------------------------------------------------
def bench_xl(*, quick: bool = False, num_sources: Optional[int] = None) -> Dict[str, object]:
    """Build ``fig07`` at the ``xl`` scale profile (N=10⁴) end-to-end.

    Candidate: the normal path (sparse backend auto-selected above the
    node threshold).  Reference: the identical workload with the dense
    band forced, which is what the pre-sparse build would have done —
    the seed-era APSP implementation is not even measurable here (an
    int32 all-pairs matrix alone is ~400 MB at N=10⁴, rebuilt per
    epoch).  The gated ``speedup`` is the peak-traced-memory ratio on
    the same workload; wall times and the process peak RSS are recorded
    alongside (the acceptance observable for "runs where the seed code
    could not").
    """
    import repro.api as api
    from repro.net import substrate as substrate_mod
    from repro.scenarios.factory import SCALE_PROFILES, scaled

    sources = int(num_sources) if num_sources is not None else (8 if quick else 24)
    kwargs = dict(scale="xl", num_sources=sources, noc_values=(4,))
    n = scaled(500, SCALE_PROFILES["xl"])

    def run_artifact():
        return api.run("fig07", **kwargs)

    sparse_s, sparse_peak, result = _timed(run_artifact, 1)
    # force the dense band on the identical workload (reference mode)
    threshold = substrate_mod.SPARSE_NODE_THRESHOLD
    substrate_mod.SPARSE_NODE_THRESHOLD = n + 1
    try:
        dense_s, dense_peak, dense_result = _timed(run_artifact, 1)
    finally:
        substrate_mod.SPARSE_NODE_THRESHOLD = threshold
    if dense_result.rows != result.rows:  # pragma: no cover - parity guard
        raise AssertionError("xl artifact differs between backends")

    mean_row = [r for r in result.rows if r[0] == "mean%"]
    case = {
        "name": f"fig07_xl_n{n}",
        "n": int(n),
        "num_sources": sources,
        "reference_seconds": dense_s,
        "candidate_seconds": sparse_s,
        "reference_peak_bytes": int(dense_peak),
        "candidate_peak_bytes": int(sparse_peak),
        "speedup": (dense_peak / sparse_peak) if sparse_peak else float("inf"),
        "speedup_metric": "peak_bytes",
        "mean_reachability": (
            float(mean_row[0][1]) if mean_row else None
        ),
    }
    return {
        "bench": "xl",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": [case],
    }


# ----------------------------------------------------------------------
# obs overhead: the telemetry layer's cost on a real artifact
# ----------------------------------------------------------------------
def bench_obs(
    *,
    quick: bool = False,
    repeats: int = 3,
    num_sources: Optional[int] = None,
) -> Dict[str, object]:
    """Tracing overhead: ``fig07`` telemetry off vs on, same workload.

    The candidate is the instrumented run (spans + counters + one trace
    record appended per cell); the reference is the identical run with
    telemetry disabled, where every ``obs.span`` call is the no-op fast
    path.  Both are best-of-``repeats`` in the same process, so the
    gated ``overhead_fraction`` — (on − off) / off — is machine-
    independent noise aside.  The baseline pins
    ``max_overhead_fraction`` (0.05): :func:`compare_reports` fails when
    measured overhead exceeds it, which is the "observability is free
    enough to leave on" contract.
    """
    import tempfile

    import repro.api as api
    from repro.scenarios.factory import SCALE_PROFILES, scaled

    # the workload is identical in quick and full mode (only ``repeats``
    # differs) so the quick CI case gates against the committed full
    # baseline by name, like the other benches' intersecting sweeps
    sources = int(num_sources) if num_sources is not None else 20
    scale = 0.3
    kwargs = dict(scale=scale, num_sources=sources)
    n = scaled(500, scale)

    off_s, off_peak, off_result = _timed(lambda: api.run("fig07", **kwargs), repeats)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "bench_obs.trace.jsonl")
        on_s, on_peak, on_result = _timed(
            lambda: api.run("fig07", telemetry=trace_path, **kwargs), repeats
        )
    if on_result.rows != off_result.rows:  # pragma: no cover - parity guard
        raise AssertionError("fig07 rows differ with telemetry enabled")

    overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
    case = {
        "name": f"fig07_tracing_overhead_n{n}",
        "n": int(n),
        "num_sources": sources,
        "reference_seconds": off_s,
        "candidate_seconds": on_s,
        "reference_peak_bytes": int(off_peak),
        "candidate_peak_bytes": int(on_peak),
        "speedup": (off_s / on_s) if on_s > 0 else float("inf"),
        "speedup_metric": "seconds",
        "overhead_fraction": float(overhead),
        "traced_cells": int(
            (on_result.telemetry or {}).get("cells", 0)
        ),
    }
    return {
        "bench": "obs",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": [case],
    }


# ----------------------------------------------------------------------
# query engine: batched DSQ workloads vs the per-query path
# ----------------------------------------------------------------------
def bench_query(
    *,
    sizes: Sequence[int] = (1000, 5000, 10000),
    depth: int = 3,
    num_queries: int = 200,
    repeats: int = 3,
    quick: bool = False,
) -> Dict[str, object]:
    """Batched query engine vs the per-query reference path.

    One case per network size, parity-checked while timing:

    * ``query_engine_n{N}`` — a depth-``depth`` DSQ workload over the
      full contact structure: ``QueryEngine.query_many`` (candidate) vs
      a ``query()`` loop (reference) on the same engine; the
      ``QueryResult`` lists must compare equal, which covers message
      accounting down to the discovered routes.  Both paths are warmed
      on a workload prefix first, so the candidate's ``_QueryFabric``
      freeze is amortized the way a campaign workload amortizes it.

    Absolute contact-selection cost is on the ledger
    (``core.selection.bootstrap_s`` / ``reselect_s``), not here.

    Workload knobs are identical in quick and full mode (only ``sizes``
    shrinks), so the quick CI sweep gates against the committed full
    baseline on the intersecting case names.
    """
    from repro.core.params import CARDParams, SelectionMethod
    from repro.core.protocol import CARDProtocol
    from repro.net.network import Network

    cases: List[Dict[str, object]] = []
    for n in sizes:
        n = int(n)
        params = CARDParams(
            R=3, r=10, noc=5, method=SelectionMethod.PM, depth=int(depth)
        )
        card = CARDProtocol(Network(_topology(n)), params, seed=0)
        # queries escalate through other holders' tables, so the case
        # needs the full contact structure (built untimed)
        card.bootstrap()
        engine = card.query_engine
        wl_rng = np.random.default_rng(n)
        pairs = [
            (int(wl_rng.integers(n)), int(wl_rng.integers(n)))
            for _ in range(num_queries)
        ]
        warm_seq = [engine.query(s, t) for s, t in pairs[:20]]
        warm_bat = engine.query_many(pairs[:20])
        if warm_seq != warm_bat:  # pragma: no cover - parity guard
            raise AssertionError(f"query warmup diverged at N={n}")
        seq_s, seq_peak, out_seq = _timed(
            lambda: [engine.query(s, t) for s, t in pairs], repeats
        )
        bat_s, bat_peak, out_bat = _timed(
            lambda: engine.query_many(pairs), repeats
        )
        if out_seq != out_bat:  # pragma: no cover - parity guard
            raise AssertionError(f"batched queries diverged at N={n}")
        cases.append(
            {
                "name": f"query_engine_n{n}",
                "n": n,
                "depth": int(depth),
                "num_queries": int(num_queries),
                "reference_seconds": seq_s,
                "candidate_seconds": bat_s,
                "speedup": seq_s / bat_s if bat_s > 0 else float("inf"),
                "reference_peak_bytes": int(seq_peak),
                "candidate_peak_bytes": int(bat_peak),
                "reference_queries_per_second": (
                    num_queries / seq_s if seq_s > 0 else float("inf")
                ),
                "candidate_queries_per_second": (
                    num_queries / bat_s if bat_s > 0 else float("inf")
                ),
            }
        )
    return {
        "bench": "query",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(quick),
        "host": _host(),
        "peak_rss_kb": _peak_rss_kb(),
        "cases": cases,
    }


# ----------------------------------------------------------------------
# persistence + regression gate
# ----------------------------------------------------------------------
def write_report(report: Dict[str, object], out_dir: Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{report['bench']}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    *,
    max_regression: float = 2.0,
) -> List[str]:
    """Regression messages (empty = pass) comparing speedup ratios.

    A case regresses when its measured speedup falls below the baseline
    speedup divided by ``max_regression`` — i.e. the optimized path lost
    more than ``max_regression``× of its relative advantage.  Ratios are
    machine-independent (both sides of each ratio ran on the same host),
    so the gate is stable across laptop and CI hardware.

    A baseline case may additionally pin ``max_overhead_fraction``
    (the obs bench does, at 0.05): a current case whose measured
    ``overhead_fraction`` exceeds it fails outright — this gate is
    absolute, not relative, because "tracing costs <5 %" is the
    contract, whatever the baseline machine measured.
    """
    failures: List[str] = []
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    matched = 0
    for case in current.get("cases", []):
        ref = base_cases.get(case["name"])
        if ref is None:
            continue
        matched += 1
        floor = float(ref["speedup"]) / max_regression
        if float(case["speedup"]) < floor:
            failures.append(
                f"{current['bench']}/{case['name']}: speedup "
                f"{case['speedup']:.2f}x < floor {floor:.2f}x "
                f"(baseline {ref['speedup']:.2f}x / {max_regression:g})"
            )
        cap = ref.get("max_overhead_fraction")
        if cap is not None and "overhead_fraction" in case:
            if float(case["overhead_fraction"]) > float(cap):
                failures.append(
                    f"{current['bench']}/{case['name']}: overhead "
                    f"{100 * float(case['overhead_fraction']):.1f}% > "
                    f"cap {100 * float(cap):.0f}%"
                )
    if matched == 0:
        failures.append(
            f"{current['bench']}: no case names match the baseline "
            "(did the sweep sizes change without refreshing baselines?)"
        )
    return failures
