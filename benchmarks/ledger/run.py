"""ledger: absolute end-to-end and per-layer numbers for seven CARD workloads.

Contract mode (what ``BENCHMARK.json``'s command is run as)::

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Ledger mode::

    python3 benchmarks/ledger/run.py [--seed S] [--workload W] [--smoke] [--out FILE]

runs every workload (or one) untraced and traced, prints one table per
workload and appends the run to ``FILE``;
``run.py compare A.json B.json`` applies the bounds in ``BENCHMARK.json``
to two such files.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
WORK_ROOT = LEDGER_DIR / ".work"
MANIFEST = ROOT / "BENCHMARK.json"

#: a run sets up this many times (each in a fresh interpreter) and
#: reports the median as ``setup_s``
SETUPS = 3
#: hard limit on one run's children together, after which the workload
#: counts as failed (the contract allows a run 180 s)
RUN_TIMEOUT_S = 165.0


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, seconds: float, mode: str, smoke: bool, tag: str,
    deadline: float,
) -> Dict[str, object]:
    """Run ``_child.py`` once in a scratch dir of its own; never hangs.

    The child leads a new session, so a timeout (or any error here) kills
    it together with every worker and server it started.  Its output is
    only kept, as ``logs``, when it failed.
    """
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    log_path = workdir / "child.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(LEDGER_DIR / "_child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--smoke", str(int(smoke)),
        "--workdir", str(workdir), "--result", str(result_path),
        "--spawned-at", repr(perf_counter()),
    ]
    try:
        with log_path.open("wb") as log:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(ROOT), start_new_session=True,
            )
            error = None
            try:
                proc.wait(timeout=max(deadline - perf_counter(), 1.0))
            except subprocess.TimeoutExpired:
                error = "timed out"
            finally:
                # the whole session: workers and servers go with the child
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if error is None and result_path.exists():
            out = json.loads(result_path.read_text())
        else:
            out = {
                "workload": workload, "seed": seed, "correct": False,
                "error": error or f"child exited {proc.returncode} without a result",
            }
        if not out["correct"]:
            out["logs"] = log_path.read_text(errors="replace")[-4000:]
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(
    workload: str, seed: int, seconds: float, mode: str, smoke: bool = False
) -> Dict[str, object]:
    """One run of one workload: the measuring child plus, when end-to-end
    metrics are wanted, the extra set-ups that make ``setup_s`` a median."""
    deadline = perf_counter() + RUN_TIMEOUT_S
    setups: List[float] = []
    if mode == "e2e":
        for k in range(SETUPS - 1):
            extra = run_child(workload, seed, 0.0, "setup", smoke, f"setup{k}", deadline)
            if not extra["correct"]:
                return extra
            setups.append(extra["setup_s"])
    out = run_child(workload, seed, seconds, mode, smoke, mode, deadline)
    if "e2e" in out:
        setups.append(out["setup_s"])
        out["e2e"]["metrics"]["setup_s"] = statistics.median(setups)
    return out


def failed_result(out: Dict[str, object]) -> None:
    print(f"ledger: {out['workload']} failed: {out.get('error')}", file=sys.stderr)
    if out.get("logs"):
        print(out["logs"], file=sys.stderr)


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
def load_manifest() -> Dict[str, object]:
    return json.loads(MANIFEST.read_text())


def with_units(values: Dict[str, float], specs: Sequence[dict]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the metrics in ``specs``."""
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


# ----------------------------------------------------------------------
# ledger mode: tables and the result file
# ----------------------------------------------------------------------
def expected_digest(workload: str) -> str:
    """The workload's digest at HEAD for the default seed (0)."""
    table = json.loads((LEDGER_DIR / "expected_digests.json").read_text())
    return table["digests"][workload]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_table(record: Dict[str, object], manifest: Dict[str, object]) -> str:
    """One workload: end-to-end metrics on top, layer shares below."""
    lines = [f"### {record['workload']}  (seed {record['seed']})", ""]
    lines += ["| end-to-end | value | unit |", "|---|---:|---|"]
    for spec in manifest["end_to_end"]:
        value = record["end_to_end"][spec["name"]]["value"]
        lines.append(f"| `{spec['name']}` | {_fmt(value)} | {spec['unit']} |")
    lines.append(
        f"| ops attempted / failed | {record['attempted']} / {record['failed']} | |"
    )
    match = {True: "yes", False: "no", None: "n/a"}[record["digest_match"]]
    lines.append(f"| `output_digest` | {record['output_digest']} | match: {match} |")
    lines.append(
        f"| raw `wall_s` / host slowdown | {_fmt(record['raw_wall_s'])} / "
        f"{record['host_slowdown']:.2f} | s / ratio |"
    )
    layers = record["layers"]
    total = sum(layers.values())
    lines += ["", "| layer | self s / iteration | share of traced time |", "|---|---:|---:|"]
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        if secs / total >= 0.002:
            lines.append(f"| `{layer}` | {secs:.4f} | {100 * secs / total:.1f} % |")
    per_layer = record["per_layer"]
    picks = (
        "bench.attributed_frac", "bench.trace_overhead_frac", "bench.cpu_s",
        "bench.calib_python_s", "bench.calib_numpy_s",
    )
    lines += ["", "| ruler health | value |", "|---|---:|"]
    lines += [f"| `{k}` | {_fmt(per_layer[k]['value'])} |" for k in picks]
    return "\n".join(lines)


def ledger_record(out: Dict[str, object], manifest: Dict[str, object]) -> Dict[str, object]:
    """The result-file entry of one finished workload run."""
    e2e = out["e2e"]
    record: Dict[str, object] = {
        "workload": out["workload"],
        "seed": out["seed"],
        "correct": out["correct"],
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "fail_frac": e2e["failed"] / max(e2e["attempted"], 1),
        "output_digest": e2e["output_digest"],
        "checks": out["checks"],
        "iterations": e2e["iterations"],
        "iter_iqr_frac": e2e["iter_iqr_frac"],
        # what the clock read, and how much slower than the reference the
        # host probe ran meanwhile
        "raw_wall_s": e2e["raw_wall_s"],
        "raw_setup_s": out["raw_setup_s"],
        "host_slowdown": e2e["host_slowdown"],
        "end_to_end": with_units(e2e["metrics"], manifest["end_to_end"]),
    }
    # recorded, never a failure: a deliberate golden regeneration (or
    # another seed) shows up here without blocking the run
    record["digest_match"] = (
        None if out["smoke"] else expected_digest(out["workload"]) == e2e["output_digest"]
    )
    trace = out["trace"]
    record["per_layer"] = with_units(trace["metrics"], manifest["per_layer"])
    record["layers"] = trace["layers"]
    record["traced_wall_s"] = trace["traced_wall_s"]
    record["spans_dropped"] = trace["spans_dropped"]
    return record


def failed_record(out: Dict[str, object]) -> Dict[str, object]:
    """A workload that failed a check, crashed or hung: it is reported
    with every operation failed (``fail_frac = 1``), not left out."""
    return {
        "workload": out["workload"], "seed": out["seed"], "correct": False,
        "attempted": 1, "failed": 1, "fail_frac": 1.0,
        "error": out.get("error"), "logs": out.get("logs"),
    }


def write_trace(path: Path, spans_by_workload: Dict[str, list]) -> None:
    keys = ("id", "parent", "layer", "name", "start", "end", "iteration")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                w: [dict(zip(keys, span)) for span in spans]
                for w, spans in spans_by_workload.items()
            }
        )
    )


def ledger_mode(args: argparse.Namespace) -> int:
    manifest = load_manifest()
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    if args.seconds is not None:
        seconds = args.seconds
    else:  # a smoke run is one iteration of each kind
        seconds = 0.0 if args.smoke else float(manifest["run_seconds"])

    def one(name: str) -> Dict[str, object]:
        if args.smoke:  # one child, one iteration of each kind
            return run_workload(name, args.seed, seconds, "both", smoke=True)
        # as in contract mode the traced run is a process of its own, so
        # the tracer's memory never reaches `peak_rss_mb`
        out = run_workload(name, args.seed, seconds, "e2e")
        if out["correct"]:
            traced = run_workload(name, args.seed, seconds, "trace")
            if not traced["correct"]:
                return traced
            out["trace"] = traced["trace"]
            out["checks"] = sorted(set(out["checks"]) | set(traced["checks"]))
        return out

    if args.smoke:  # tiny runs: two at a time fits the two cores
        with ThreadPoolExecutor(max_workers=2) as pool:
            outs = list(pool.map(one, names))
    else:
        outs = [one(name) for name in names]

    records = []
    spans: Dict[str, list] = {}
    for out in outs:
        if not out["correct"]:
            failed_result(out)
            records.append(failed_record(out))
            continue
        spans[out["workload"]] = out["trace"].pop("spans")
        records.append(ledger_record(out, manifest))
        print(render_table(records[-1], manifest), end="\n\n")

    trace_path = (
        Path(args.out).with_name("ledger.trace.json") if args.out
        else WORK_ROOT / "ledger.trace.json"
    )
    write_trace(trace_path, spans)
    run = {"seed": args.seed, "smoke": args.smoke, "seconds": seconds, "workloads": records}
    if args.out:
        path = Path(args.out)
        runs = json.loads(path.read_text())["runs"] if path.exists() else []
        path.write_text(json.dumps({"runs": runs + [run]}, indent=1))
    return 0 if all(r["correct"] for r in records) else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _values(path: str) -> Dict[tuple, List[float]]:
    """(workload, metric) -> one value per run recorded in the file."""
    out: Dict[tuple, List[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for record in run["workloads"]:
            for name, cell in record.get("end_to_end", {}).items():
                out.setdefault((record["workload"], name), []).append(cell["value"])
            out.setdefault((record["workload"], "fail_frac"), []).append(
                record["fail_frac"]
            )
    return out


def _spread(values: Sequence[float]) -> float:
    """Quartile distance over the median; the range when too few runs."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def compare(path_a: str, path_b: str) -> int:
    """Apply the manifest's bounds to B (the change) against A (the parent).

    One row per (workload, metric): ``regressed`` when B's median is
    worse than A's by more than the bound, ``unresolved`` when the
    run-to-run spread is wider than the bound (unless every run of B
    reads better than every run of A), else ``ok``.  ``fail_frac`` has
    the absolute bound 0.
    """
    manifest = load_manifest()
    a, b = _values(path_a), _values(path_b)
    specs = {m["name"]: m for m in manifest["end_to_end"]}
    specs["fail_frac"] = {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0}
    print("| workload | metric | A median | B median | worse by | spread | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---|")
    regressed = 0
    for (workload, name), va in sorted(a.items()):
        vb = b.get((workload, name))
        if not vb:
            continue
        spec = specs[name]
        ma, mb = statistics.median(va), statistics.median(vb)
        sign = 1.0 if spec["better"] == "lower" else -1.0
        if name == "fail_frac":
            worse, spread = mb - ma, 0.0
        else:
            worse = sign * (mb - ma) / ma if ma else math.inf
            spread = max(_spread(va), _spread(vb))
        all_better = (
            max(vb) < min(va) if spec["better"] == "lower" else min(vb) > max(va)
        )
        if spread > spec["bound"] and not all_better:
            verdict = "unresolved"
        elif worse > spec["bound"]:
            verdict = "regressed"
            regressed += 1
        else:
            verdict = "ok"
        print(
            f"| {workload} | {name} | {_fmt(ma)} | {_fmt(mb)} | {100 * worse:+.1f} % "
            f"| {100 * spread:.1f} % | {100 * spec['bound']:.0f} % | {verdict} |"
        )
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def contract_mode(args: argparse.Namespace) -> int:
    """One workload, one kind of metric, one JSON line at the end."""
    manifest = load_manifest()
    key, specs, mode = (
        ("trace", manifest["per_layer"], "trace") if args.trace
        else ("e2e", manifest["end_to_end"], "e2e")
    )
    out = run_workload(args.workload, args.seed, args.seconds, mode)
    if key not in out:
        failed_result(out)
        return 1
    part = out[key]
    info = {
        "workload": args.workload, "seed": args.seed, "checks": out["checks"],
        "raw_setup_s": out["raw_setup_s"],
        **{k: part[k] for k in ("iterations", "output_digest", "raw_wall_s", "host_slowdown") if k in part},
    }
    print(f"ledger: {json.dumps(info)}")
    print(
        json.dumps(
            {
                "correct": bool(out["correct"]),
                "attempted": int(part["attempted"]),
                "failed": int(part["failed"]),
                "metrics": with_units(part["metrics"], specs),
            }
        )
    )
    if not out["correct"]:
        failed_result(out)
    return 0 if out["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print("ledger: no src/repro or BENCHMARK.json beside the benchmark", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    names = [w["name"] for w in load_manifest()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one iteration")
    parser.add_argument("--out", help="append this run to a result file")
    args = parser.parse_args(argv)
    if args.workload and args.trace is not None and args.seconds is not None:
        return contract_mode(args)
    return ledger_mode(args)


if __name__ == "__main__":
    sys.exit(main())
