"""Regenerate the golden artifact fixtures (deliberate refreshes only).

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/regen.py [id ...]

Without arguments every artifact in the matrix is re-captured: its own
``<id>.json`` (headers/rows/plots) and its entries in the cross-artifact
``meta.json`` (exp_id/title/notes/raw keys) and ``cell_keys.json``
(content hashes).  Check the diff carefully: a changed fixture means the
artifact's output changed, which is exactly what the matrix exists to
catch.  (``options.json`` — the option names each artifact accepted
before the definitions went declarative — is edited by hand when an
option is deliberately added.)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden_matrix  # noqa: E402


def main(argv=None) -> int:
    ids = (argv if argv else sys.argv[1:]) or golden_matrix.artifact_ids()
    unknown = [i for i in ids if i not in golden_matrix.GOLDEN_KWARGS]
    if unknown:
        print(f"unknown artifact ids {unknown}; known: "
              f"{golden_matrix.artifact_ids()}", file=sys.stderr)
        return 1
    meta = golden_matrix.load_fixture("meta")
    keys = golden_matrix.load_fixture("cell_keys")
    for exp_id in ids:
        t0 = time.time()  # card-lint: disable=CARD-D01 -- regeneration progress print; fixtures hold only metrics
        seeds = golden_matrix.GOLDEN_SEEDS
        results = {str(s): golden_matrix.run_golden(exp_id, s) for s in seeds}
        path = golden_matrix.write_fixture(
            exp_id, {s: golden_matrix.table_view(r) for s, r in results.items()}
        )
        meta[exp_id] = {s: golden_matrix.meta_view(r) for s, r in results.items()}
        keys[exp_id] = {str(s): golden_matrix.cell_keys(exp_id, s) for s in seeds}
        print(f"{exp_id}: wrote {path} in {time.time() - t0:.1f}s")  # card-lint: disable=CARD-D01 -- regeneration progress print; fixtures hold only metrics
    golden_matrix.write_fixture("meta", meta)
    golden_matrix.write_fixture("cell_keys", keys)
    return 0


if __name__ == "__main__":
    sys.exit(main())
