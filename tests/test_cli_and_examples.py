"""Smoke tests for the CLI entry point and every example script."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.__main__ import main

REPO = Path(__file__).resolve().parents[1]


class TestCLI:
    def test_list(self, capsys):
        assert main(["figure", "--list"]) == 0
        ids = capsys.readouterr().out.split()
        assert ids[0] == "table1" and "fig07" in ids and "fig15" in ids

    def test_no_args_lists(self, capsys):
        assert main(["figure"]) == 0
        assert "fig15" in capsys.readouterr().out

    def test_run_single_experiment(self, capsys):
        assert main(["figure", "table1", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[table1 finished in" in out

    def test_sources_flag_filtered_per_signature(self, capsys):
        # table1 takes no num_sources; the CLI must not crash passing it
        assert main(
            ["figure", "table1", "--scale", "0.15", "--sources", "10"]
        ) == 0

    def test_experiment_with_sources(self, capsys):
        assert main(
            ["figure", "fig07", "--scale", "0.2", "--sources", "15"]
        ) == 0
        assert "NoC" in capsys.readouterr().out

    def test_unknown_experiment_lists_valid_ids(self, capsys):
        # CLI UX: a typo'd id prints the valid ids, not a bare KeyError
        assert main(["figure", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown artifact 'nope'" in err
        assert "fig07" in err and "mobility_rate" in err

    def test_all_shares_one_store(self, capsys):
        # every artifact runs against one in-memory store, so artifacts
        # that re-read a sibling's cells execute none of their own
        assert main(
            ["figure", "all", "--scale", "0.15", "--sources", "10",
             "--duration", "3"]
        ) == 0
        out = capsys.readouterr().out
        parts = re.split(r"\[(\S+) finished in [0-9.]+s\]", out)
        sections = dict(zip(parts[1::2], parts[0::2]))
        assert "fig03_04" not in sections  # derived: produced once
        for exp_id in ("fig04", "fig12"):
            assert "via repro.campaign (0 cells executed" in sections[exp_id]

    def test_out_rejects_all(self, tmp_path, capsys):
        assert main(["figure", "all", "--out", str(tmp_path / "s.json")]) == 1
        assert "--out" in capsys.readouterr().err


#: every runnable example -> one line of its output that a deterministic
#: run prints verbatim (seeded topology, walks and queries)
EXAMPLES = {
    "quickstart.py": "mean reachability: 31.0% at D=1, 88.1% at D=3",
    "parameter_tuning.py": "recommended: R=3, r=14, NoC=5, D=1, method=EM",
    "rescue_mission.py": (
        "live queries: 23/25 located, 75 msgs/query (vs ~294 for a flood)"
    ),
    "small_world_study.py": (
        "degrees of separation over covered pairs: mean 2.15, max 6 levels "
        "(vs 11.8 raw hops) — a few introductions replace a dozen relays"
    ),
    "sensor_field/sensor_field.py": "querier reachability at D=4: mean 96.4%",
}


@pytest.mark.slow
class TestExamples:
    def test_every_script_is_listed(self):
        scripts = {
            p.relative_to(REPO / "examples").as_posix()
            for p in (REPO / "examples").rglob("*.py")
            if 'if __name__ == "__main__":' in p.read_text(encoding="utf-8")
        }
        assert scripts == set(EXAMPLES)

    @pytest.mark.parametrize("script", sorted(EXAMPLES))
    def test_example_runs(self, script):
        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert EXAMPLES[script] in proc.stdout.splitlines()
