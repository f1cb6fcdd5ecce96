"""Smoke test of the experiment scripts that use the spectrum API directly.

The other scripts reach the package only through ``run_evolution``,
``run_nmax_sweep``, the CSV writers and the CLI, which the other suites
cover.
"""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_single_cell_modes_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = runpy.run_path(str(SCRIPTS / "single_cell_modes.py"))
    assert script["main"]() == 0
    written = sorted(p.name for p in (tmp_path / "out" / "single_cell").glob("*.csv"))
    assert written == ["modes.csv", "trace_full.csv", "trace_three_mode.csv",
                       "trace_two_mode.csv"]
    assert "interference period of the (0, 2) pair" in capsys.readouterr().out
