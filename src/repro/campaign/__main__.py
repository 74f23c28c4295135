"""Command-line campaign workflow: ``python -m repro.campaign <cmd>``.

Examples
--------
Emit a starter spec (3 Table 1 scenarios × 3 seeds), run it on 4
workers, then prove the second invocation is pure cache::

    python -m repro.campaign example --out sweep.json
    python -m repro.campaign run sweep.json --workers 4
    python -m repro.campaign resume sweep.json      # 0 executed
    python -m repro.campaign status sweep.json
    python -m repro.campaign report sweep.json --format csv

Regenerate a paper artifact: ``figure <id>`` writes the figure's
declarative spec (``--out``) for the run/resume/--shard workflow, or —
without ``--out`` — executes the missing cells against ``--store`` and
prints the exact table (``--seeds`` gives mean ± 95 % CI instead)::

    python -m repro.campaign figure fig10 --out fig10.json --scale 0.5
    python -m repro.campaign run fig10.json --store fig10.jsonl --workers 4
    python -m repro.campaign figure fig10 --store fig10.jsonl --scale 0.5
    python -m repro.campaign figure fig07 --seeds 0,1,2

``figure all`` runs every artifact once against one store (in-memory
without ``--store``), so artifacts that share cells pay for them once;
``figure --list`` prints the ids::

    python -m repro.campaign figure all --scale 0.3 --sources 40

The result store defaults to ``<spec>.results.jsonl`` next to the spec
file; pass ``--store`` to share one store between campaigns.  Stores are
append-only JSONL keyed by cell content hash — interrupting a run loses
at most the cell in flight, and re-running skips everything stored.
Because the key covers only cell *content*, overlapping figures share
work: e.g. fig12 re-reads fig11's cells from a shared store.

Every ``--store`` accepts a backend URI: a plain path is append-only
JSONL, ``sqlite:///path.db`` (or a bare ``*.db`` path) is the WAL-mode
sqlite backend that many concurrent writer processes can share — the
store the ``python -m repro.service`` work-queue fleet uses.

Distributed fan-out: ``--shard i/n`` makes an invocation responsible for
the i-th of n disjoint slices of the cell grid (1-based).  Run each shard
on a different machine with its own store, then fold the stores together
with ``merge`` (works across backends, last-write-wins by key, so the
merge needs no coordination)::

    python -m repro.campaign run sweep.json --shard 1/4 --store s1.jsonl
    python -m repro.campaign run sweep.json --shard 2/4 --store s2.jsonl
    ...
    python -m repro.campaign merge sqlite:///sweep.db s1.jsonl s2.jsonl ...
    python -m repro.campaign report sweep.json --store sqlite:///sweep.db

(For pure-JSONL shards ``cat s*.jsonl > merged.jsonl`` still works —
``merge`` adds the duplicate accounting and the cross-backend import.)
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from repro.campaign.aggregate import aggregate_table
from repro.campaign.runner import CampaignRunner, CellOutcome
from repro.campaign.spec import CampaignSpec, TopologySpec
from repro.campaign.store import merge_stores, open_store
from repro.obs import default_trace_path

__all__ = ["main"]

REPORT_FORMATS = ("ascii", "csv", "json")


def _default_store(spec_path: Path) -> Path:
    return spec_path.with_suffix(".results.jsonl")


def _load(args) -> tuple:
    spec_path = Path(args.spec)
    spec = CampaignSpec.load(spec_path)
    target = args.store if args.store else _default_store(spec_path)
    store = open_store(target)
    return spec, store, store.uri()


def _progress(outcome: CellOutcome, finished: int, pending: int) -> None:
    cell = outcome.cell
    status = "FAILED" if not outcome.ok else f"{outcome.elapsed:.1f}s"
    params = ",".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
    print(
        f"[{finished}/{pending}] {outcome.key[:12]} "
        f"{cell.topology.label} seed={cell.seed} {params or '-'} ({status})",
        flush=True,
    )


def _parse_shard(text: Optional[str]):
    """Parse ``--shard i/n`` into a 1-based ``(i, n)`` tuple."""
    if text is None:
        return None
    try:
        index_s, count_s = text.split("/", 1)
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(
            f"invalid --shard {text!r}: expected i/n, e.g. 1/4"
        ) from None
    if count < 1 or not (1 <= index <= count):
        raise ValueError(
            f"invalid --shard {text!r}: need 1 <= i <= n"
        )
    return (index, count)


def _cmd_run(args, *, force: bool) -> int:
    spec, store, store_path = _load(args)
    runner = CampaignRunner(
        spec,
        store=store,
        n_workers=args.workers,
        shard=_parse_shard(args.shard),
        telemetry=getattr(args, "trace", None),
    )
    report = runner.run(force=force, progress=_progress)
    print(report.summary())
    print(f"store: {store_path} ({len(store)} records)")
    if runner.telemetry is not None and runner.telemetry.trace_path:
        print(
            f"trace: {runner.telemetry.trace_path} "
            f"(python -m repro.campaign trace summary "
            f"{runner.telemetry.trace_path})"
        )
    if not report.ok:
        for outcome in report.outcomes:
            if outcome.error:
                print(f"--- failed cell {outcome.key[:12]} ---", file=sys.stderr)
                print(outcome.error, file=sys.stderr)
        return 1
    return 0


def _cmd_status(args) -> int:
    if getattr(args, "follow", False):
        return _follow_status(args)
    spec, store, store_path = _load(args)
    status = CampaignRunner(
        spec, store=store, shard=_parse_shard(getattr(args, "shard", None))
    ).status()
    missing = status["missing"]
    print(f"campaign:  {status['spec']}")
    print(f"store:     {store_path} ({status['store_bytes']} bytes)")
    if status["shard"]:
        print(f"shard:     {status['shard']}")
    print(f"cells:     {status['done']}/{status['total']} done")
    if store.corrupt_lines:
        print(f"corrupt:   {store.corrupt_lines} unreadable line(s) skipped")
    if missing:
        shown = ", ".join(k[:12] for k in missing[:8])
        more = f" (+{len(missing) - 8} more)" if len(missing) > 8 else ""
        print(f"missing:   {shown}{more}")
    return 0 if not missing else 2


def _format_eta(seconds: float) -> str:
    if seconds < 0:
        return "?"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def _follow_status(args) -> int:
    """``status --follow``: poll the store until the campaign completes.

    A concurrent ``run`` appends whole JSONL lines, so re-reading the
    store from another process is safe at any moment; each tick prints
    one progress line with throughput (cells/s since follow started),
    ETA, and bytes written.
    """
    spec_path = Path(args.spec)
    spec = CampaignSpec.load(spec_path)
    target = args.store if args.store else _default_store(spec_path)
    shard = _parse_shard(getattr(args, "shard", None))
    interval = max(float(args.interval), 0.1)
    t0 = time.monotonic()  # card-lint: disable=CARD-D01 -- status --follow progress meter
    done0: Optional[int] = None
    while True:
        status = CampaignRunner(
            spec, store=open_store(target), shard=shard
        ).status()
        done, total = int(status["done"]), int(status["total"])
        if done0 is None:
            done0 = done
        elapsed = time.monotonic() - t0  # card-lint: disable=CARD-D01 -- status --follow progress meter
        rate = (done - done0) / elapsed if elapsed > 0 else 0.0
        left = total - done
        eta = _format_eta(left / rate) if rate > 0 else "?"
        pct = (100.0 * done / total) if total else 100.0
        print(
            f"{status['spec']}: {done}/{total} cells ({pct:.0f}%) | "
            f"{rate:.2f} cells/s | ETA {eta} | "
            f"{status['store_bytes']} bytes",
            flush=True,
        )
        if done >= total:
            return 0
        time.sleep(interval)


def _validate_format(fmt: str) -> str:
    """Reject unknown formats with the CLI's clean one-liner style
    (not argparse choices, whose error is a usage dump + exit 2)."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(
            f"unknown report format {fmt!r} "
            f"(expected one of {', '.join(REPORT_FORMATS)})"
        )
    return fmt


def _render_report(result, fmt: str) -> str:
    """One aggregated table in the requested (validated) format."""
    _validate_format(fmt)
    if fmt == "ascii":
        return result.render()
    if fmt == "csv":
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(result.headers)
        writer.writerows(result.rows)
        return buf.getvalue().rstrip("\n")
    return json.dumps(
        {
            "exp_id": result.exp_id,
            "title": result.title,
            "headers": result.headers,
            "rows": result.rows,
            "notes": result.notes,
        },
        indent=2,
    )


def _cmd_report(args) -> int:
    fmt = _validate_format(args.format)  # fail before touching the store
    spec, store, _ = _load(args)
    by = args.by.split(",") if args.by else None
    values = args.values.split(",") if args.values else None
    result = aggregate_table(spec, store, by=by, values=values)
    print(_render_report(result, fmt))
    return 0


def _parse_seeds(text: Optional[str]):
    """``--seeds 0,1,2`` → ``(0, 1, 2)``."""
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            f"--seeds expects comma-separated integers (e.g. 0,1,2), "
            f"got {text!r}"
        ) from None


def _cmd_figure(args) -> int:
    """List artifact ids, write one artifact's spec, or run artifacts.

    ``all`` runs every non-derived artifact, in registry order, against
    one store, so overlapping artifacts share their cells.  Unknown ids
    fail with the full list of valid artifact ids (the registry's
    ``ValueError``, rendered by ``main``'s error handler).
    """
    import repro.api as api
    from repro.artifacts.registry import ARTIFACTS, get_artifact

    if args.list or args.exp_id is None:
        print("\n".join(ARTIFACTS))
        return 0
    seeds = _parse_seeds(args.seeds)
    options = {}
    if args.sources is not None:
        options["num_sources"] = args.sources
    if args.duration is not None:
        options["duration"] = args.duration

    if args.out is not None:
        if args.exp_id == "all" or seeds is not None:
            raise ValueError("--out writes one artifact's single-seed spec; "
                             "it takes neither 'all' nor --seeds")
        if args.seed is not None:
            options["seed"] = args.seed
        artifact = get_artifact(args.exp_id)
        spec = artifact.spec(scale=args.scale, **options)
        out = Path(args.out)
        spec.save(out)
        print(f"wrote {spec.num_cells}-cell spec {spec.name!r} to {out}")
        print(f"run it:  python -m repro.campaign run {out} --workers 4")
        print(
            f"render:  python -m repro.campaign figure {args.exp_id} "
            f"--store {out.with_suffix('.results.jsonl')}"
        )
        return 0
    ids = [args.exp_id]
    if args.exp_id == "all":
        # a derived artifact re-derives others' tables: produce each once
        ids = [a.id for a in ARTIFACTS.values() if not a.derived]
    store = open_store(args.store)
    for exp_id in ids:
        t0 = time.perf_counter()  # card-lint: disable=CARD-D01 -- CLI wall-time print; never enters results
        result = api.run(
            exp_id,
            scale=args.scale,
            seed=args.seed,
            seeds=seeds,
            workers=args.workers,
            store=store,
            telemetry=args.trace,
            **options,
        )
        dt = time.perf_counter() - t0  # card-lint: disable=CARD-D01 -- CLI wall-time print; never enters results
        print(result.render())
        if result.telemetry is not None:
            print(f"traced {result.telemetry['cells']} cells "
                  f"({result.telemetry['total_cell_seconds']:.2f} cell-seconds)")
        print(f"[{exp_id} finished in {dt:.1f}s]\n")
    if store.path is not None:
        print(f"store: {store.path} ({len(store)} records)")
    return 0


def _cmd_merge(args) -> int:
    """Fold shard/worker stores into one (last-write-wins by key).

    Works across backends: JSONL shards merge into sqlite (the import
    path for ``repro.service`` fleets) and vice versa.  Inputs are
    consumed in argument order, so later stores win duplicate keys.
    """
    for target in args.inputs:
        # checked before anything opens: opening a sqlite URI creates
        # the file, so a typo would merge 0 records from an empty store
        text = str(target)
        path = text[len("sqlite:///"):] if text.startswith("sqlite:///") else text
        if not Path(path).exists():
            raise FileNotFoundError(text)
    report = merge_stores(args.out, args.inputs)
    print(
        f"merged {len(args.inputs)} store(s) into {args.out}: "
        f"{report.merged} records read, "
        f"{report.duplicates} duplicate key(s) overwritten, "
        f"{report.skipped} unreadable line(s) skipped"
    )
    print(f"output holds {report.records} records")
    return 0


TRACE_ACTIONS = ("summary", "slowest", "phases", "export")


def _cmd_trace(args) -> int:
    """Aggregate a ``trace.jsonl`` file: summary | slowest | phases | export."""
    from repro import obs

    if args.action not in TRACE_ACTIONS:
        raise ValueError(
            f"unknown trace action {args.action!r} "
            f"(expected one of {', '.join(TRACE_ACTIONS)})"
        )
    log = obs.load_trace(args.trace_file)
    if not log.records:
        print(f"error: no trace records in {args.trace_file}", file=sys.stderr)
        return 1
    if log.corrupt_lines:
        print(
            f"note: skipped {log.corrupt_lines} unreadable line(s)",
            file=sys.stderr,
        )
    if args.action == "summary":
        print(obs.summarize(log).render())
        return 0
    if args.action == "slowest":
        print(obs.render_slowest(obs.slowest(log, limit=args.limit)))
        return 0
    if args.action == "phases":
        summary = obs.summarize(log)
        # the summary's phase table alone (scripting-friendly)
        print(summary.render().split("\n\n")[1])
        return 0
    out = Path(
        args.out
        if args.out
        else Path(args.trace_file).with_suffix(".chrome.json")
    )
    out.write_text(json.dumps(obs.chrome_trace(log)), encoding="utf-8")
    print(f"wrote {out} — open via chrome://tracing or https://ui.perfetto.dev")
    return 0


def example_spec(*, tiny: bool = False) -> CampaignSpec:
    """The starter campaign the ``example`` subcommand emits.

    Default: Table 1 scenarios 1-3 (shrunk to 80 nodes) × NoC grid ×
    3 seeds, measuring reachability.  ``tiny`` drops to a single
    2-cell smoke grid for CI.
    """
    if tiny:
        return CampaignSpec(
            name="smoke",
            description="2-cell CI smoke campaign",
            topologies=(TopologySpec(kind="standard", num_nodes=60, salt="smoke"),),
            base_params={"R": 2, "r": 5, "noc": 2},
            seeds=(0, 1),
            metrics=("reachability",),
            num_sources=10,
        )
    return CampaignSpec(
        name="example",
        description=(
            "Reachability over Table 1 scenarios 1-3 (density kept, 80 nodes) "
            "x NoC x 3 seeds"
        ),
        topologies=tuple(
            TopologySpec(kind="scenario", scenario=i, num_nodes=80)
            for i in (1, 2, 3)
        ),
        base_params={"R": 2, "r": 6, "depth": 1},
        grid={"noc": [3]},
        seeds=(0, 1, 2),
        metrics=("reachability", "overhead"),
        num_sources=20,
    )


def _cmd_example(args) -> int:
    spec = example_spec(tiny=args.tiny)
    out = Path(args.out)
    spec.save(out)
    print(f"wrote {spec.num_cells}-cell spec {spec.name!r} to {out}")
    print(f"run it:  python -m repro.campaign run {out} --workers 4")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run declarative experiment campaigns (parallel, resumable).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, workers: bool = True, shard: bool = False):
        p.add_argument("spec", help="path to a CampaignSpec JSON file")
        p.add_argument(
            "--store",
            default=None,
            help=(
                "result store: a JSONL path or sqlite:///path.db "
                "(default: <spec>.results.jsonl)"
            ),
        )
        if workers:
            p.add_argument(
                "--workers", type=int, default=1, help="process-pool width"
            )
        if shard:
            p.add_argument(
                "--shard",
                default=None,
                metavar="i/n",
                help=(
                    "run only the i-th of n disjoint cell slices (1-based); "
                    "per-shard stores concatenate safely"
                ),
            )

    def add_trace_arg(p):
        p.add_argument(
            "--trace",
            nargs="?",
            const=True,
            default=None,
            metavar="PATH",
            help=(
                "record per-cell telemetry to PATH "
                "(default: <store>.trace.jsonl next to the store)"
            ),
        )

    p_run = sub.add_parser("run", help="execute cells not yet in the store")
    add_spec_args(p_run, shard=True)
    add_trace_arg(p_run)
    p_run.add_argument(
        "--force", action="store_true", help="re-execute cached cells too"
    )
    p_resume = sub.add_parser("resume", help="execute only the missing cells")
    add_spec_args(p_resume, shard=True)
    add_trace_arg(p_resume)
    p_status = sub.add_parser("status", help="show stored vs missing cells")
    add_spec_args(p_status, workers=False, shard=True)
    p_status.add_argument(
        "--follow",
        action="store_true",
        help="poll until complete, printing progress/ETA each tick",
    )
    p_status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --follow polls (default 2)",
    )
    p_report = sub.add_parser("report", help="aggregate the store into a table")
    add_spec_args(p_report, workers=False)
    p_report.add_argument(
        "--by", default=None, help="comma-separated group-by axes"
    )
    p_report.add_argument(
        "--values", default=None, help="comma-separated metrics to reduce"
    )
    p_report.add_argument(
        "--format",
        default="ascii",
        metavar="FMT",
        help="output format: ascii (default), csv or json",
    )
    p_figure = sub.add_parser(
        "figure",
        help="write a paper artifact's spec (--out) or execute+render it",
    )
    p_figure.add_argument(
        "exp_id",
        nargs="?",
        help=(
            "artifact id (e.g. fig10, table1, smallworld, mobility_rate) "
            "or 'all'; without one, list the ids"
        ),
    )
    p_figure.add_argument(
        "--list", action="store_true", help="list artifact ids and exit"
    )
    p_figure.add_argument(
        "--out",
        default=None,
        help="write the CampaignSpec JSON here instead of executing",
    )
    p_figure.add_argument(
        "--store",
        default=None,
        help=(
            "result store: a JSONL path or sqlite:///path.db, shared by "
            "every artifact run (default: in-memory, nothing persisted)"
        ),
    )
    p_figure.add_argument("--workers", type=int, default=1, help="process-pool width")
    add_trace_arg(p_figure)
    p_figure.add_argument(
        "--scale",
        default="1.0",
        help="size scale: a number or a profile name (paper, xl=20x)",
    )
    p_figure.add_argument(
        "--seed", type=int, default=None, help="root seed (default 0)"
    )
    p_figure.add_argument(
        "--seeds",
        default=None,
        help="comma-separated root seeds (e.g. 0,1,2): mean ± 95%% CI",
    )
    p_figure.add_argument(
        "--sources", type=int, default=None, help="measured source sample size"
    )
    p_figure.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds (time-series figures only)",
    )
    p_merge = sub.add_parser(
        "merge",
        help="merge shard/worker stores into one (last-write-wins by key)",
    )
    p_merge.add_argument(
        "out",
        help=(
            "output store: a JSONL path or sqlite:///path.db "
            "(created if missing, merged into if present)"
        ),
    )
    p_merge.add_argument(
        "inputs",
        nargs="+",
        help="input stores (any mix of JSONL and sqlite; later ones win)",
    )
    p_example = sub.add_parser("example", help="write a starter spec JSON")
    p_example.add_argument("--out", default="campaign_example.json")
    p_example.add_argument(
        "--tiny", action="store_true", help="2-cell smoke spec (CI)"
    )
    p_trace = sub.add_parser(
        "trace", help="aggregate a trace.jsonl (summary|slowest|phases|export)"
    )
    p_trace.add_argument(
        "action", metavar="ACTION", help="summary | slowest | phases | export"
    )
    p_trace.add_argument("trace_file", help="path to a trace.jsonl file")
    p_trace.add_argument(
        "--limit", type=int, default=10, help="rows for `slowest` (default 10)"
    )
    p_trace.add_argument(
        "--out",
        default=None,
        help="export target (default: <trace>.chrome.json)",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, force=args.force)
        if args.command == "resume":
            return _cmd_run(args, force=False)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_example(args)
    except BrokenPipeError:
        # the reader (e.g. `report ... | head`) closed the pipe; park
        # stdout on devnull so interpreter shutdown doesn't re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in spec file: {exc}", file=sys.stderr)
    except (KeyError, TypeError, ValueError) as exc:
        # bad spec contents (incl. typo'd keys), unknown --by/--values axes
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
