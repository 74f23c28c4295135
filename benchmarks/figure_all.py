"""Time the whole evaluation: ``figure all --scale 1.0 --workers 1``.

The ledger times single workloads; this times what a user waits for when
they regenerate every artifact of the paper, on one or more source trees
run in alternation (so a parent and a change see the same host drift):

    python benchmarks/figure_all.py PARENT_TREE CHANGE_TREE \\
        --labels parent,change --out benchmarks/BENCH_figure_all.json

Every tree runs the command three times.  Each run starts a fresh
interpreter on ``TREE/src`` and records

* the total wall time, and per artifact the wall time between its
  ``[<id> finished in …]`` line and the previous one (the first artifact
  also carries the interpreter's start-up);
* the peak RSS of the run (``RUSAGE_SELF`` and ``RUSAGE_CHILDREN`` of a
  wrapper process whose only child is the run, so pool workers count);
* the host calibration just before it: a fixed pure-Python loop and a
  fixed numpy matmul + sort;
* a digest of the rendered tables with the timing lines removed, so two
  trees that must render the same tables can be seen to.

``--out`` appends one entry per tree (label, runs, medians) to the JSON
file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

#: the timed command, and how many times each tree runs it
COMMAND = ("figure", "all", "--scale", "1.0", "--workers", "1")
RUNS = 3

_FINISHED = re.compile(r"^\[(?P<id>\S+) finished in \S+\]$")


def calibrate() -> Dict[str, float]:
    """Seconds of a fixed pure-Python loop and of fixed numpy kernels."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(1_200_000):
        acc = (acc + i * i) % 1_000_003
    python_s = perf_counter() - t0
    t0 = perf_counter()
    grid = np.arange(420 * 420, dtype=np.float64).reshape(420, 420) % 97.0
    np.sort((grid @ grid).ravel())
    return {"calib_python_s": python_s, "calib_numpy_s": perf_counter() - t0}


def one_run(tree: Path) -> Dict[str, object]:
    """Run the evaluation once on ``tree``; called in a wrapper process
    of its own so that ``RUSAGE_CHILDREN`` holds this run alone."""
    cmd = [sys.executable, "-m", "repro.campaign", *COMMAND]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONUNBUFFERED": "1"}
    artifacts: Dict[str, float] = {}
    tables = hashlib.sha256()
    t0 = last = perf_counter()
    with subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True
    ) as proc:
        for line in proc.stdout:
            done = _FINISHED.match(line.strip())
            if done:
                now = perf_counter()
                artifacts[done["id"]] = now - last
                last = now
            else:
                tables.update(line.encode())
    total = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode} in {tree}")
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "total_s": total,
        "peak_rss_mb": peak_kb / 1024.0,
        "tables_sha256": tables.hexdigest(),
        "artifacts_s": artifacts,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source trees to time")
    parser.add_argument("--labels", help="comma-separated, one per tree")
    parser.add_argument("--out", type=Path, help="JSON file to append entries to")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one_run(args.trees[0].resolve())))
        return 0

    labels = args.labels.split(",") if args.labels else [str(t) for t in args.trees]
    if len(labels) != len(args.trees):
        parser.error("--labels needs one label per tree")
    runs: Dict[str, List[Dict[str, object]]] = {label: [] for label in labels}
    for i in range(RUNS):
        for label, tree in zip(labels, args.trees):
            calib = calibrate()
            out = subprocess.run(
                [sys.executable, __file__, str(tree), "--one"],
                check=True, capture_output=True, text=True,
            )
            run = {**calib, **json.loads(out.stdout)}
            runs[label].append(run)
            print(
                f"run {i + 1}/{RUNS} {label}: {run['total_s']:.2f} s, "
                f"{run['peak_rss_mb']:.0f} MB, tables {run['tables_sha256'][:12]}",
                flush=True,
            )
    entries = []
    for label in labels:
        mine = runs[label]
        entries.append({
            "label": label,
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "median_total_s": statistics.median(r["total_s"] for r in mine),
            "median_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in mine),
            "runs": mine,
        })
    if args.out:
        book = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
        book["entries"].extend(entries)
        args.out.write_text(json.dumps(book, indent=1) + "\n")
    for entry in entries:
        print(f"{entry['label']}: median {entry['median_total_s']:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
