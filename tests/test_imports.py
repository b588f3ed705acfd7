"""A process imports only the layers its command runs.

Without a bytecode cache every imported module is compiled, so ``cli.py``
imports no layer but ``core`` at module level; its command table and the
parsers that build layer objects look ``classical``, ``quantum``,
``continuity`` or ``dirac`` up through ``cli._layer`` when a command runs.
The package imports a layer on its first attribute lookup.  The checks run
in fresh interpreters, since this one has imported every layer already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitempo import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = SRC / "bitempo" / "scenarios"
LAZY = ("classical", "quantum", "continuity", "dirac")
# the lazily imported layers a run of each command loads; dirac imports continuity
COMMAND_LAYERS = {
    "classical-check": {"classical"},
    "classical-integrate": {"classical"},
    "quantum-fluct": {"quantum"},
    "uncertainty": {"quantum"},
    "continuity": {"continuity"},
    "dirac": {"dirac", "continuity"},
    "mass-spectrum": {"dirac", "continuity"},
}


def fresh(code: str):
    """The JSON value that code prints last, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Python text of the bitempo modules the interpreter has imported, by name
MODULES = "[m[8:] for m in sys.modules if m.startswith('bitempo.')]"


def bundled():
    for path in sorted(SCENARIOS.glob("*.ini")):
        command = cli.load_config(str(path)).get("scenario", "command")
        yield pytest.param(str(path), command, id=path.stem)


def test_every_command_has_its_layers():
    assert set(COMMAND_LAYERS) == set(cli.COMMANDS)


@pytest.mark.parametrize("config, command", bundled())
def test_validate_then_run_load_their_command_layers(tmp_path, config, command):
    # one interpreter: validate's layers are printed before the run loads more
    validated, ran = fresh(
        "import json, sys\nfrom bitempo import cli\n"
        f"assert cli.main(['validate', '--config', {config!r}]) == 0\n"
        f"loaded = {MODULES}\n"
        f"assert cli.main([{command!r}, '--config', {config!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        f"print(json.dumps([loaded, {MODULES}]))")
    assert set(validated) & set(LAZY) <= COMMAND_LAYERS[command]
    assert set(ran) & set(LAZY) == COMMAND_LAYERS[command]


def test_cli_import_loads_no_layer():
    loaded = fresh(f"import json, sys\nimport bitempo.cli\nprint(json.dumps({MODULES}))")
    assert sorted(loaded) == ["cli", "core"]


def test_package_resolves_layers_on_lookup():
    found = fresh("import json, bitempo\n"
                  "names = ['core', 'classical', 'quantum', 'continuity', 'dirac', 'cli']\n"
                  "layers = [getattr(bitempo, n).__name__ for n in names]\n"
                  "try:\n    bitempo.nope\n    missing = None\n"
                  "except AttributeError as exc:\n    missing = str(exc)\n"
                  "print(json.dumps([layers, missing]))")
    assert found == [[f"bitempo.{n}" for n in
                      ("core", "classical", "quantum", "continuity", "dirac", "cli")],
                     "module 'bitempo' has no attribute 'nope'"]


class _ModuleLevelImports(ast.NodeVisitor):
    """The bitempo modules a tree imports at module level: in its body and
    class bodies, not inside a def."""

    def __init__(self):
        self.found = []

    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_Import(self, node):
        self.found += [a.name.split(".", 1)[1] for a in node.names
                       if a.name.startswith("bitempo.")]

    def visit_ImportFrom(self, node):
        if node.level == 0 and node.module == "bitempo":
            self.found += [a.name for a in node.names]
        elif node.level == 0 and (node.module or "").startswith("bitempo."):
            self.found.append(node.module.split(".", 1)[1])
        elif node.level == 1:
            self.found += [node.module] if node.module else [a.name for a in node.names]


def test_cli_imports_only_core_at_module_level():
    path = SRC / "bitempo" / "cli.py"
    imports = _ModuleLevelImports()
    imports.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert "core" in imports.found
    assert [name for name in imports.found if name != "core"] == []
