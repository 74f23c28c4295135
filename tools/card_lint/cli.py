"""``python -m tools.card_lint`` — the ``card-lint`` CLI over the engine.

Exit codes: 0 = clean, 1 = findings (or unparseable files), 2 = usage
error (bad paths, a missing ``--package-root``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import (
    LintConfig,
    LintReport,
    LintUsageError,
    run_lint,
)
from .rules import rule_catalog

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.card_lint",
        description=(
            "Repo-invariant static analysis: determinism, layering, "
            "concurrency discipline and spec hygiene as named, "
            "suppressible rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help=(
            "files or directories to lint (default: src); CARD-R02 counts "
            "uses only in the files given, so lint the repo as "
            "'src tests benchmarks examples tools'"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the JSON report to FILE (e.g. for CI artifacts)",
    )
    parser.add_argument(
        "--package-root",
        metavar="DIR",
        help=(
            "the repro package directory for the project-wide rules "
            "(default: ./src/repro when it exists)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule id prefixes to run (e.g. CARD-D,CARD-L02)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule id prefixes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split(value: Optional[str]) -> tuple:
    if not value:
        return ()
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _print_text(report: LintReport) -> None:
    for path, error in report.parse_errors:
        print(f"{path}: parse error: {error}")
    for finding in report.findings:
        print(finding.render())
    bits = [
        f"{len(report.findings)} finding"
        + ("" if len(report.findings) == 1 else "s")
    ]
    if report.suppressed:
        bits.append(f"{report.suppressed} suppressed by pragma")
    if report.parse_errors:
        bits.append(f"{len(report.parse_errors)} unparseable")
    print(
        f"card-lint: {', '.join(bits)} in {report.files_checked} files"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:  # e.g. `python -m tools.card_lint ... | head`
        # swap stdout for /dev/null so the interpreter's exit flush
        # doesn't raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in rule_catalog():
            print(f"{rule['id']}  [{rule['category']}]  {rule['summary']}")
        return 0

    package_root = (
        Path(args.package_root) if args.package_root else None
    )
    if package_root is not None and not package_root.is_dir():
        print(
            f"error: --package-root {package_root} is not a directory",
            file=sys.stderr,
        )
        return 2

    config = LintConfig.default(package_root)
    config.select = _split(args.select)
    config.ignore = _split(args.ignore)

    try:
        report = run_lint([Path(p) for p in args.paths], config)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
