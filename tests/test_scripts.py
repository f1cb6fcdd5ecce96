"""Checks of the experiment scripts.

``single_cell_modes.py`` runs in seconds and is run whole.  The others take
minutes, so they are only checked statically: every package name they use
must exist, which catches a script left calling a removed name.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def package_names_used(path):
    """(module, name) pairs a script reads from the package: attributes of
    ``dl`` (``import driven_lattice as dl``) and ``from driven_lattice...
    import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "dl"):
            used.add(("driven_lattice", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("driven_lattice"):
            used.update((node.module, alias.name) for alias in node.names)
    return sorted(used)


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_uses_only_existing_package_names(script):
    used = package_names_used(SCRIPTS / script)
    assert used
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{script} uses names the package does not have: {missing}"


def test_single_cell_modes_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = runpy.run_path(str(SCRIPTS / "single_cell_modes.py"))
    assert script["main"]() == 0
    written = sorted(p.name for p in (tmp_path / "out" / "single_cell").glob("*.csv"))
    assert written == ["modes.csv", "trace_full.csv", "trace_three_mode.csv",
                       "trace_two_mode.csv"]
    assert "interference period of the (0, 2) pair" in capsys.readouterr().out
