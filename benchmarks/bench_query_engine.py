"""Batched query engine bench — queries/sec, batched vs per-query.

Runs the ``card-bench`` query sweep (`repro.bench.bench_query`) at a
reduced size through ``pytest-benchmark``: fabric-backed DSQ workloads
(``query_many``) against the sequential ``query()`` reference loop.
Parity is asserted *inside* the timed sweep — the bench raises rather
than report a speedup for wrong answers.

The committed regression gate lives in
``benchmarks/baselines/BENCH_query.json`` (full sweep N=10³→10⁴,
regenerated with ``python -m repro.bench run --out benchmarks/baselines``)
and is enforced by ``python -m repro.bench compare`` in CI perf-smoke.
"""

from repro.bench import bench_query


def test_query_engine_batched_vs_sequential(benchmark):
    report = benchmark.pedantic(
        lambda: bench_query(
            sizes=(500,), num_queries=100, repeats=1, quick=True,
        ),
        iterations=1,
        rounds=1,
    )
    (queries,) = report["cases"]
    assert queries["name"] == "query_engine_n500"
    print()
    print(
        f"query_engine_n500: per-query {queries['reference_seconds'] * 1e3:.1f} ms, "
        f"batched {queries['candidate_seconds'] * 1e3:.1f} ms "
        f"({queries['speedup']:.2f}x, "
        f"{queries['candidate_queries_per_second']:.0f} q/s)"
    )
    # the batched DSQ path must win outright even at small N
    assert queries["speedup"] > 1.0
    assert queries["candidate_peak_bytes"] > 0
