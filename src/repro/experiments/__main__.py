"""Command-line entry point: ``python -m repro.experiments <id> [options]``.

Execution is campaign-first: every id routes through the campaign
engine, so ``--store`` turns re-runs into cache hits (cells are keyed by
content hash — stores written before the flip stay warm) and
``--workers`` fans independent cells out over a process pool.

Examples
--------
Run one figure at paper scale, on 4 workers, against a warm store::

    python -m repro.experiments fig07 --workers 4 --store results.jsonl

Run everything quickly (CI smoke)::

    python -m repro.experiments all --scale 0.3 --sources 40

Mean ± 95 % CI over several seeds (the facade's multi-seed path)::

    python -m repro.experiments fig07 --seeds 0,1,2

An N=10⁴ snapshot through the sparse ``DistanceView`` substrate::

    python -m repro.experiments fig07 --scale xl --sources 30

List available experiment ids::

    python -m repro.experiments --list
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import repro.api as api
from repro.artifacts.registry import ARTIFACTS
from repro.campaign.store import ResultStore
from repro.scenarios.factory import resolve_scale

#: what the CLI lists and "all" iterates: the artifact registry's ids,
#: in registration order
PRIMARY_IDS = list(ARTIFACTS)


def _unknown_id_message(exp_id: str) -> str:
    ids = "\n".join(f"  {i}" for i in PRIMARY_IDS)
    return f"error: unknown experiment {exp_id!r}; valid ids:\n{ids}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce CARD paper tables/figures as text "
        "(campaign-first: cached, parallel, resumable).",
    )
    parser.add_argument(
        "exp_id",
        nargs="?",
        help="experiment id (e.g. table1, fig07, fig15, ablation_recovery) "
        "or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--scale",
        default="1.0",
        help="size scale: a number or a profile name (paper, xl=20x -> N=10^4)",
    )
    parser.add_argument(
        "--sources",
        type=int,
        default=None,
        help="measure a random sample of this many source nodes (default all)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root seed (default 0)"
    )
    parser.add_argument(
        "--seeds",
        default=None,
        help="comma-separated root seeds (e.g. 0,1,2): run the sweep once "
        "per seed and report mean ± 95%% CI via the repro.api facade",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds (time-series artifacts only)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="campaign process-pool width"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="shared JSONL result store (re-runs become cache hits)",
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # the reader (e.g. `--list | head`) closed the pipe; park stdout
        # on devnull so interpreter shutdown doesn't re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _parse_seeds(text: str):
    """``"0,1,2"`` → (0, 1, 2), with the CLI's friendly-error treatment."""
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            f"--seeds expects comma-separated integers (e.g. 0,1,2), "
            f"got {text!r}"
        ) from None
    if not seeds:
        raise ValueError(f"--seeds expects at least one seed, got {text!r}")
    return seeds


def _run(args) -> int:
    if args.list or not args.exp_id:
        for exp_id in PRIMARY_IDS:
            print(exp_id)
        return 0

    try:
        scale = resolve_scale(args.scale)
        seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
        if seeds is not None and args.seed is not None:
            raise ValueError(
                "pass either --seed (exact artifact) or --seeds (mean±CI), "
                "not both"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.exp_id == "all":
        # derived experiments re-derive another artifact; produce each once
        ids = [i for i in PRIMARY_IDS if not ARTIFACTS[i].derived]
    else:
        if args.exp_id not in ARTIFACTS:
            print(_unknown_id_message(args.exp_id), file=sys.stderr)
            return 1
        ids = [args.exp_id]
    store = ResultStore(Path(args.store)) if args.store else None
    for exp_id in ids:
        kwargs = {"scale": scale}
        if args.sources is not None:
            kwargs["num_sources"] = args.sources
        if args.duration is not None:
            kwargs["duration"] = args.duration
        t0 = time.time()  # card-lint: disable=CARD-D01 -- CLI wall-time print; never enters results
        run = dict(workers=args.workers, store=store, **kwargs)
        if seeds is not None:
            # the facade's multi-seed path: sweep × seeds → mean ± 95% CI
            try:
                result = api.run(exp_id, seeds=seeds, **run)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            result = api.run(exp_id, seed=args.seed or 0, **run)
        dt = time.time() - t0  # card-lint: disable=CARD-D01 -- CLI wall-time print; never enters results
        print(result.render())
        print(f"[{exp_id} finished in {dt:.1f}s]\n")
    if store is not None:
        print(f"store: {store.path} ({len(store)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
