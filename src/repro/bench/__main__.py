"""``card-bench`` CLI: run the perf harness, gate regressions.

Examples
--------
Produce the JSON artifacts (full sweep, several minutes)::

    card-bench run --out benchmarks/baselines

CI perf-smoke (reduced sweep, then gate against committed baselines)::

    card-bench run --quick --out /tmp/bench
    card-bench compare /tmp/bench benchmarks/baselines --max-regression 2.0

``compare`` exits 1 when any case's speedup ratio fell below the baseline
ratio divided by ``--max-regression`` — see
:func:`repro.bench.compare_reports` for why ratios (not seconds) gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.bench import (
    bench_mobility,
    bench_obs,
    bench_query,
    bench_sparse,
    bench_substrate,
    bench_xl,
    compare_reports,
    write_report,
)

__all__ = ["main"]

#: Every bench the harness runs and gates, in execution order.
BENCHES = ("substrate", "mobility", "sparse", "query", "xl", "obs")

#: Reduced sweep for CI: a strict subset of the full sweep so a quick run
#: gates against committed full baselines on the intersecting case names,
#: while staying small enough for a smoke job.
QUICK_SIZES_SUBSTRATE = (250, 500)
QUICK_SIZES_MOBILITY = (500,)
QUICK_SIZES_SPARSE = (1000,)
QUICK_SIZES_QUERY = (1000,)
FULL_SIZES_SUBSTRATE = (250, 500, 1000)
FULL_SIZES_MOBILITY = (500, 1000)
FULL_SIZES_SPARSE = (1000, 5000, 10000)
FULL_SIZES_QUERY = (1000, 5000, 10000)


def _cmd_run(args) -> int:
    quick = bool(args.quick)
    out = Path(args.out)
    if quick:
        # never let a reduced sweep clobber full baselines: the larger-N
        # cases would silently vanish from the regression gate
        for bench in BENCHES:
            existing = _load_report(out, bench)
            if existing is not None and not existing.get("quick", False):
                print(
                    f"error: {out} holds full (non-quick) BENCH_{bench}.json; "
                    "refusing to overwrite it with a --quick sweep "
                    "(pick another --out)",
                    file=sys.stderr,
                )
                return 1
    sub_sizes = QUICK_SIZES_SUBSTRATE if quick else FULL_SIZES_SUBSTRATE
    mob_sizes = QUICK_SIZES_MOBILITY if quick else FULL_SIZES_MOBILITY
    sparse_sizes = QUICK_SIZES_SPARSE if quick else FULL_SIZES_SPARSE
    query_sizes = QUICK_SIZES_QUERY if quick else FULL_SIZES_QUERY
    repeats = 2 if quick else 3
    steps = 5 if quick else 10

    print(f"card-bench: substrate sweep N={list(sub_sizes)} ...", flush=True)
    substrate = bench_substrate(sizes=sub_sizes, repeats=repeats, quick=quick)
    path = write_report(substrate, out)
    print(f"wrote {path}")
    for case in substrate["cases"]:
        print(
            f"  {case['name']}: apsp {case['reference_seconds'] * 1e3:.1f} ms, "
            f"bounded {case['candidate_seconds'] * 1e3:.1f} ms "
            f"({case['speedup']:.1f}x)"
        )

    print(f"card-bench: mobility sweep N={list(mob_sizes)} ...", flush=True)
    mobility = bench_mobility(sizes=mob_sizes, steps=steps, quick=quick)
    path = write_report(mobility, out)
    print(f"wrote {path}")
    for case in mobility["cases"]:
        print(
            f"  {case['name']}: apsp/step {case['reference_seconds'] * 1e3:.1f} ms, "
            f"incremental/step {case['candidate_seconds'] * 1e3:.1f} ms "
            f"({case['speedup']:.1f}x, "
            f"mean churn {case['mean_changed_nodes']:.1f} nodes)"
        )

    print(f"card-bench: sparse backend sweep N={list(sparse_sizes)} ...", flush=True)
    sparse = bench_sparse(sizes=sparse_sizes, quick=quick)
    path = write_report(sparse, out)
    print(f"wrote {path}")
    for case in sparse["cases"]:
        print(
            f"  {case['name']}: dense {case['reference_bytes'] / 1e6:.1f} MB, "
            f"CSR {case['candidate_bytes'] / 1e6:.1f} MB "
            f"({case['speedup']:.1f}x smaller; build "
            f"{case['reference_seconds'] * 1e3:.0f} -> "
            f"{case['candidate_seconds'] * 1e3:.0f} ms)"
        )

    print(f"card-bench: query engine sweep N={list(query_sizes)} ...", flush=True)
    query = bench_query(sizes=query_sizes, repeats=repeats, quick=quick)
    path = write_report(query, out)
    print(f"wrote {path}")
    for case in query["cases"]:
        print(
            f"  {case['name']}: per-query {case['reference_seconds'] * 1e3:.1f} ms, "
            f"batched {case['candidate_seconds'] * 1e3:.1f} ms "
            f"({case['speedup']:.1f}x)"
        )

    print("card-bench: xl smoke (fig07 at N=10^4, end to end) ...", flush=True)
    xl = bench_xl(quick=quick)
    path = write_report(xl, out)
    print(f"wrote {path}")
    for case in xl["cases"]:
        print(
            f"  {case['name']}: completed in {case['candidate_seconds']:.1f}s, "
            f"peak traced {case['candidate_peak_bytes'] / 1e6:.1f} MB "
            f"(dense reference {case['reference_peak_bytes'] / 1e6:.1f} MB, "
            f"{case['speedup']:.1f}x); process peak RSS "
            f"{(xl['peak_rss_kb'] or 0) / 1024:.0f} MB"
        )

    print("card-bench: obs overhead (fig07 tracing off vs on) ...", flush=True)
    obs_report = bench_obs(quick=quick, repeats=repeats)
    path = write_report(obs_report, out)
    print(f"wrote {path}")
    for case in obs_report["cases"]:
        print(
            f"  {case['name']}: off {case['reference_seconds']:.2f}s, "
            f"on {case['candidate_seconds']:.2f}s "
            f"({100 * case['overhead_fraction']:+.1f}% overhead, "
            f"{case['traced_cells']} cells traced)"
        )
    return 0


def _load_report(directory: Path, bench: str) -> Optional[dict]:
    path = directory / f"BENCH_{bench}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _cmd_compare(args) -> int:
    current_dir = Path(args.current)
    baseline_dir = Path(args.baseline)
    failures = []
    compared = 0
    for bench in BENCHES:
        current = _load_report(current_dir, bench)
        baseline = _load_report(baseline_dir, bench)
        if current is None:
            failures.append(f"{bench}: missing BENCH_{bench}.json in {current_dir}")
            continue
        if baseline is None:
            failures.append(f"{bench}: missing BENCH_{bench}.json in {baseline_dir}")
            continue
        compared += 1
        failures.extend(
            compare_reports(
                current, baseline, max_regression=float(args.max_regression)
            )
        )
    if failures:
        print("card-bench: REGRESSION", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    print(f"card-bench: OK ({compared} benches within {args.max_regression}x)")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="card-bench",
        description="Substrate/mobility perf harness with JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time the hot paths, write BENCH_*.json")
    p_run.add_argument(
        "--out",
        default="bench-out",
        help=(
            "output directory (default bench-out; pass benchmarks/baselines "
            "explicitly — full sweep only — to refresh the committed gate)"
        ),
    )
    p_run.add_argument(
        "--quick", action="store_true", help="reduced sweep for CI smoke jobs"
    )

    p_cmp = sub.add_parser(
        "compare", help="gate a fresh run against committed baselines"
    )
    p_cmp.add_argument("current", help="directory with the fresh BENCH_*.json")
    p_cmp.add_argument("baseline", help="directory with the baseline BENCH_*.json")
    p_cmp.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a speedup ratio falls below baseline/this (default 2.0)",
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
