"""One workload run in its own interpreter.

``run.py`` starts this file once per run (and again, with
``--mode setup``, to repeat the set-up), so import cost is part of
``setup_s``, ``ru_maxrss`` belongs to one workload and worker chatter
stays out of the parent's output.  The result is written to ``--result``
as JSON; stdout and stderr are a log the parent only shows on failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

#: iterations whose outputs make up ``output_digest`` (every run does at
#: least this many, so the digest does not depend on the host's speed)
DIGEST_ITERS = 2

#: The host probe: a fixed pure-Python loop timed before and after every
#: iteration.  The shared hosts this runs on change speed by tens of
#: percent for seconds at a time (a busy neighbour on the same core); an
#: iteration's time is therefore reported as if the host had run at the
#: reference speed: ``wall * PROBE_REFERENCE_S / probe``, with ``probe``
#: the mean of the two probes around it.  The reference is the probe's
#: time on the 2-core reference box when nothing else runs, so on that
#: box an undisturbed run reads the same compensated or not.
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.024


# ----------------------------------------------------------------------
def python_probe(loops: int) -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def calibrate(smoke: bool) -> Tuple[Dict[str, float], float]:
    """A fixed pure-Python loop and fixed numpy kernels, timed once.

    Recorded so that a noisy or different host is recognisable in a
    result file.  The Python part doubles as the host probe of the
    set-up that follows it: the second value is the host's slowdown.
    """
    import numpy as np

    loops, size = (60_000, 120) if smoke else (4 * PROBE_LOOPS, 420)
    python_s = python_probe(loops)
    t0 = perf_counter()
    grid = np.arange(size * size, dtype=np.float64).reshape(size, size) % 97.0
    np.sort((grid @ grid).ravel())
    calib = {"calib_python_s": python_s, "calib_numpy_s": perf_counter() - t0}
    return calib, python_s / (PROBE_REFERENCE_S * loops / PROBE_LOOPS)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance rule is written in."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def typical(values: Sequence[float]) -> float:
    """The mean without the single smallest and largest value.

    A busy neighbour makes the host alternate between two speeds, so
    iteration times are bimodal and the median of some ten of them jumps
    between the modes from run to run; the mean moves smoothly with the
    share of slow iterations, and dropping the extremes keeps one stall
    from moving it.
    """
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Timed:
    """Iterations run back to back, each bracketed by host probes."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.outs: list = []
        self.probes: List[float] = [python_probe(PROBE_LOOPS)]

    def run(self, iterate: Callable[[int], object], index: int) -> None:
        # garbage of the previous iteration is collected outside the timed
        # region, so neither a pause nor the peak memory depends on when
        # the cyclic collector happens to run
        gc.collect()
        t0 = perf_counter()
        self.outs.append(iterate(index))
        self.walls.append(perf_counter() - t0)
        self.probes.append(python_probe(PROBE_LOOPS))

    def slowdown(self) -> List[float]:
        """Per iteration: how much slower than the reference the host ran."""
        p = self.probes
        return [(a + b) / (2.0 * PROBE_REFERENCE_S) for a, b in zip(p, p[1:])]


def timed_loop(
    iterate: Callable[[int], object], seconds: float, min_iters: int, reserve: int = 0
) -> Timed:
    """Call ``iterate(0), iterate(1), ...`` for ``seconds`` seconds.

    Stops when one more iteration (and ``reserve`` further ones the caller
    still has to run) would no longer fit, judged by the median so far.
    """
    timed = Timed()
    start = perf_counter()
    while len(timed.walls) < min_iters or (
        perf_counter() - start + (1 + reserve) * statistics.median(timed.walls)
        <= seconds
    ):
        timed.run(iterate, len(timed.walls))
    return timed


# ----------------------------------------------------------------------
def end_to_end(workload, seconds: float, min_iters: int) -> Dict[str, object]:
    """The timed, untraced run; ``setup_s`` and ``peak_rss_mb`` are added
    by the callers, which see all set-ups and the torn-down workload."""
    replay = 1 if workload.replayable else 0
    timed = timed_loop(workload.iterate, seconds, min_iters, reserve=replay)
    iters = timed.outs
    if replay:
        # the last timed iteration is iteration 0 again: same inputs, so
        # its outputs must be the same and its wall is one more sample
        timed.run(workload.iterate, 0)
        workload.check(
            "replay_identical",
            iters[-1].digest == iters[0].digest,
            f"({iters[-1].digest} != {iters[0].digest})",
        )
    raw = timed.walls
    slow = timed.slowdown() if workload.host_bound else [1.0] * len(raw)
    walls = [w / f for w, f in zip(raw, slow)]
    op_ms = [ms / f for it, f in zip(iters, slow) for ms in (it.op_ms or ())]
    wall_s = typical(walls)
    return {
        "metrics": {
            "wall_s": wall_s,
            "work_per_s": sum(it.work for it in iters) / sum(walls),
            # where the operation the client times is the whole iteration
            # there is no finer sample to take a median of
            "op_p50_ms": statistics.median(op_ms) if op_ms else 1e3 * wall_s,
        },
        "attempted": sum(it.attempted for it in iters),
        "failed": sum(it.failed for it in iters),
        "output_digest": _digest(iters),
        "iterations": len(walls),
        # as the clock read them, before the host's speed was taken out
        "raw_wall_s": typical(raw),
        "host_slowdown": statistics.median(timed.slowdown()),
        "iter_iqr_frac": quartile_spread(walls),
    }


def _digest(iters: list) -> str:
    from _workloads import digest_of

    return digest_of([it.digest for it in iters[:DIGEST_ITERS]])


def traced(workload, seconds: float, min_iters: int) -> Dict[str, object]:
    """Untraced then traced iterations over the same inputs.

    The per-layer metrics come from the traced half; the ratio of the two
    halves is the tracing overhead.
    """
    from _layers import layer_metrics
    from _tracer import Tracer

    untraced = timed_loop(workload.traced_iterate, seconds / 2, min_iters)
    plain_walls, plain = untraced.walls, untraced.outs
    tracer = Tracer()
    workload.ctx.tracer = tracer
    cpu0 = cpu_seconds()

    # the root span of an iteration; its self time is the benchmark's own
    root = tracer.wrap(workload.traced_iterate, "bench", "iteration")

    def traced_iteration(i: int):
        tracer.iteration = i
        return root(i)

    tracer.install()
    try:
        timed = timed_loop(traced_iteration, seconds / 2, min_iters)
    finally:
        tracer.uninstall()
        workload.ctx.tracer = None
    walls, iters = timed.walls, timed.outs
    cpu = cpu_seconds() - cpu0
    extras = workload.layer_extras(tracer)
    metrics = layer_metrics(tracer, iters, walls, extras)
    # iteration i has the same inputs traced and untraced: compare in pairs
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(t / p for t, p in zip(walls, plain_walls)) - 1.0
    )
    metrics["bench.iter_iqr_frac"] = quartile_spread(plain_walls)
    metrics["bench.cpu_s"] = cpu / len(walls)
    metrics["bench.host_slowdown"] = statistics.median(
        untraced.slowdown() + timed.slowdown()
    )
    layers = {k: v / len(walls) for k, v in tracer.layer_self().items()}
    return {
        "metrics": metrics,
        "layers": layers,
        "traced_wall_s": statistics.median(walls),
        "attempted": sum(it.attempted for it in plain + iters),
        "failed": sum(it.failed for it in plain + iters),
        "output_digest": _digest(plain),
        "iterations": len(walls),
        "spans": tracer.spans,
        "spans_dropped": tracer.spans_dropped,
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "trace", "both", "setup"), required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    smoke = bool(args.smoke)
    out: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "smoke": smoke,
        "correct": False, "error": None,
    }
    t0 = perf_counter()
    calib, slowdown = calibrate(smoke)
    calib_s = perf_counter() - t0

    from _workloads import WORKLOADS, Context  # imports repro: part of set-up

    workload = WORKLOADS[args.workload](
        Context(seed=args.seed, smoke=smoke, workdir=Path(args.workdir))
    )
    min_iters = 1 if smoke else DIGEST_ITERS
    try:
        try:
            workload.setup()
            # spawn -> ready for the first timed iteration, probe excluded,
            # at the reference host speed
            out["raw_setup_s"] = perf_counter() - args.spawned_at - calib_s
            out["setup_s"] = out["raw_setup_s"] / slowdown
            if args.mode in ("e2e", "both"):
                out["e2e"] = end_to_end(workload, args.seconds, min_iters)
            if args.mode in ("trace", "both"):
                out["trace"] = traced(workload, args.seconds, min_iters)
                out["trace"]["metrics"].update(
                    {f"bench.{k}": v for k, v in calib.items()}
                )
            # a set-up-only run is correct when set-up and its checks passed
            out["correct"] = all(
                out[k]["failed"] == 0 for k in ("e2e", "trace") if k in out
            )
        finally:
            workload.teardown()
        if "e2e" in out:  # after teardown: a stopped server is a reaped child
            out["e2e"]["metrics"]["peak_rss_mb"] = peak_rss_mb()
    except Exception:  # noqa: BLE001 - the boundary: report, never hang the parent
        out["correct"] = False
        out["error"] = traceback.format_exc()
        traceback.print_exc()
    out["checks"] = sorted(workload.checks)
    Path(args.result).write_text(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
