"""Checks of the experiment scripts and of what the benchmark calls.

``single_cell_modes.py`` and the README's library quick start run in
seconds and are run whole; the README's command lines are parsed.  The
other scripts take minutes, so they are only checked statically: every
package name they use must exist and every ``dl.<name>(...)`` call must bind
to the signature of what it calls, which catches a script left calling a
removed name or keyword.  The benchmark's child process and the functions
its per-layer metrics name are checked the same way, the CLI must reach
the analysis layer through its public names, and `dynamics` must take its
labeled spectra from floquet's `_labeled_spectra`.
"""

import ast
import importlib.util
import inspect
import json
import re
import runpy
from pathlib import Path

import pytest

from driven_lattice import analysis, cli, dynamics, floquet

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
USERS = [*sorted(SCRIPTS.glob("*.py")), ROOT / "bench" / "child.py"]


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


def exists(module, name):
    """Whether ``module.name`` is an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


@pytest.mark.parametrize("path", USERS, ids=lambda p: p.name)
def test_script_uses_only_existing_package_names(path):
    used = package_names_used(path)
    assert used
    missing = [f"{module}.{name}" for module, name in used if not exists(module, name)]
    assert not missing, f"{path.name} uses names the package does not have: {missing}"


def package_calls(path):
    """(line, dotted name, positional count, keyword names) of every
    ``dl.<name>(...)`` call, attribute chains included; calls with starred
    arguments are skipped."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        if isinstance(func, ast.Name) and func.id == "dl" and chain and not starred:
            calls.append((node.lineno, ".".join(chain), len(node.args),
                          [k.arg for k in node.keywords]))
    return calls


def resolve(dotted):
    """The package object ``dl.<dotted>`` names, importing submodules on the way."""
    obj = importlib.import_module("driven_lattice")
    for name in dotted.split("."):
        if not hasattr(obj, name):
            importlib.import_module(f"{obj.__name__}.{name}")
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("path", USERS, ids=lambda p: p.name)
def test_script_calls_bind_to_package_signatures(path):
    calls = package_calls(path)
    assert calls
    unbound = []
    for line, dotted, positional, keywords in calls:
        try:
            inspect.signature(resolve(dotted)).bind(*[None] * positional,
                                                    **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: dl.{dotted}: {exc}")
    assert not unbound, f"{path.name} calls the package with arguments it does not take: {unbound}"


def benchmark_functions():
    """``layer.function`` of every per-layer ``*.self_s`` or ``*.calls``
    metric of BENCHMARK.json."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set()
    for metric in metrics:
        *span, unit = metric["name"].split(".")
        if len(span) == 2 and unit in ("self_s", "calls"):
            names.add(".".join(span))
    return sorted(names)


# metrics that name a function deleted since: they always read 0
STALE = {"propagate.potential_on_grid"}


@pytest.mark.parametrize("span", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="stale metric of a deleted function")) if name in STALE else name
    for name in benchmark_functions()
])
def test_benchmark_spans_name_public_functions(span):
    layer, function = span.split(".")
    module = importlib.import_module(f"driven_lattice.{layer}")
    if span == "analysis.write_csv":
        # the aggregate of the write_*_csv functions
        assert any(name.startswith("write_") and name.endswith("_csv")
                   and callable(getattr(module, name)) for name in vars(module))
    else:
        assert not function.startswith("_") and callable(getattr(module, function, None))


def test_cli_imports_only_public_analysis_names():
    # the CLI runs public analysis functions; _CONFIG_KEYS builds its flags
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level, node.module) in ((1, "analysis"), (0, "driven_lattice.analysis"))
                for alias in node.names]
    assert imported
    private = [name for name in imported if name.startswith("_") and name != "_CONFIG_KEYS"]
    assert not private, f"cli.py imports private analysis names: {private}"


def test_dynamics_imports_no_spectrum_assembly_from_floquet():
    # every labeled spectrum comes from floquet's `_labeled_spectra`
    tree = ast.parse(Path(dynamics.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level, node.module) in ((1, "floquet"), (0, "driven_lattice.floquet"))
                for alias in node.names}
    assert imported
    assembly = {"monodromy_matrix", "diagonalize_monodromy", "label_by_overlap",
                "match_band_labels", "_monodromy_resolution"}
    assert not imported & assembly, f"dynamics.py imports {sorted(imported & assembly)}"


def test_single_cell_modes_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = runpy.run_path(str(SCRIPTS / "single_cell_modes.py"))
    assert script["main"]() == 0
    written = sorted(p.name for p in (tmp_path / "out" / "single_cell").glob("*.csv"))
    assert written == ["modes.csv", "trace_full.csv", "trace_three_mode.csv",
                       "trace_two_mode.csv"]
    assert "interference period of the (0, 2) pair" in capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    assert namespace["U"].shape == (16, 41, 41)
    assert namespace["trace"].values.shape == (48, 401)  # 16 cells of 3 sites
    assert 70 < float(capsys.readouterr().out) < 85  # the ~77-period comment


def test_readme_command_lines_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("driven-lattice ")]
    assert len(lines) == 5
    for words in lines:
        args = cli.build_parser().parse_args(words[1:])  # exits 2 on an unknown flag
        assert args.command == words[1]


def test_readme_lists_every_config_key_and_subcommand():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    keys = re.search(r"Recognized keys: `([^`]*)`", readme).group(1)
    assert [key.strip() for key in keys.split(",")] == list(analysis._CONFIG_KEYS)
    commands = re.search(r"Subcommands: ((?:`\w+`(?:, )?)+)\.", readme).group(1)
    assert re.findall(r"`(\w+)`", commands) == list(cli._COMMANDS)


def test_readme_lists_every_monodromy_route():
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    section = readme.split("### Output files", 1)[1]
    routes = re.search(r"monodromy route \(((?:`\w+`(?:, | or )?)+);", section).group(1)
    assert re.findall(r"`(\w+)`", routes) == list(floquet._PIECES)
