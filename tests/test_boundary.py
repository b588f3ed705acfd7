"""cli.py parses a config, makes one library call and writes the outputs.

The only attributes of the layer modules that cli.py reads are the seven
command functions of its command table and the builders and checks its
section parsers call.  Domain work that moves back into cli.py has to read
some other layer attribute, and the scan names it.  The entry count of a fixed-length list
key is checked only by _get's size form: a count check written beside it
raises a DomainError of its own, and a second scan names its function."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "bitempo" / "cli.py"
LAYERS = ("classical", "quantum", "continuity", "dirac")
COMMAND_FUNCTIONS = {
    ("classical", "run_classical_check"), ("classical", "run_classical_integrate"),
    ("quantum", "run_quantum_fluct"), ("quantum", "run_uncertainty"),
    ("continuity", "run_continuity"),
    ("dirac", "run_dirac"), ("dirac", "run_mass_spectrum"),
}
PARSER_BUILDERS = {
    ("classical", "rank_one_force"), ("classical", "polynomial_force_1d"),
    ("classical", "affine_force"), ("classical", "zero_force"),
    ("quantum", "UncertaintyBudget"), ("quantum", "TwoTimeQuantumSystem"),
    ("quantum", "StateVector"), ("dirac", "on_shell_residual"),
}


def _layer_call(node):
    """The layer that node looks up as ``_layer("name")``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_layer" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def layer_reads(tree) -> set:
    """(layer, attribute) for every layer attribute the tree reads: through
    ``_layer("dirac").attr``, through a name bound to a layer module (by
    ``from . import dirac`` or ``dirac = _layer("dirac")``) or by an import
    of the attribute itself (``from .dirac import attr``).  A layer module
    used in any other way reads as the attribute "<module>"."""
    nodes = list(ast.walk(tree))
    bound = {}
    reads = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("bitempo")):
            module = (node.module or "").removeprefix("bitempo").lstrip(".")
            for alias in node.names:
                if module in LAYERS:
                    reads.add((module, alias.name))
                elif not module and alias.name in LAYERS:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Assign) and _layer_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = _layer_call(node.value)
    seen = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            layer = _layer_call(node.value)
            if layer is None and isinstance(node.value, ast.Name):
                layer = bound.get(node.value.id)
            if layer is not None:
                reads.add((layer, node.attr))
                seen.add(id(node.value))
    for node in nodes:
        if id(node) in seen or isinstance(node, ast.Assign):
            continue
        if _layer_call(node) and not any(
                isinstance(a, ast.Assign) and a.value is node for a in nodes):
            reads.add((_layer_call(node), "<module>"))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id in bound):
            reads.add((bound[node.id], "<module>"))
    return reads


def test_cli_reads_only_command_functions_and_parser_builders():
    reads = layer_reads(ast.parse(CLI.read_text(encoding="utf-8"), str(CLI)))
    extra = sorted(f"{layer}.{attr}"
                   for layer, attr in reads - COMMAND_FUNCTIONS - PARSER_BUILDERS)
    assert not extra, f"cli.py reads layer attributes beyond its commands: {', '.join(extra)}"
    assert COMMAND_FUNCTIONS <= reads


def test_scan_sees_every_way_of_reading_a_layer():
    tree = ast.parse(
        "def f():\n"
        "    from . import dirac\n"
        "    from .continuity import charges\n"
        "    q = _layer('quantum')\n"
        "    g(dirac)\n"
        "    return dirac.solve_plane_wave, q.variance_trace, _layer('classical').classify\n")
    assert layer_reads(tree) == {
        ("dirac", "solve_plane_wave"), ("continuity", "charges"),
        ("quantum", "variance_trace"), ("classical", "classify"), ("dirac", "<module>")}


def _measures_length(node) -> bool:
    """Whether node reads a ``len(...)`` or a ``.size``."""
    return any((isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "len")
               or (isinstance(n, ast.Attribute) and n.attr == "size") for n in ast.walk(node))


def _raises_domain_error(node) -> bool:
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "DomainError")


def count_checks(tree) -> set:
    """Names of the functions that raise a DomainError about an entry count:
    under an ``if`` that measures a length, or with a message that names
    entries."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.If) and _measures_length(node.test):
                if any(_raises_domain_error(n) for child in node.body for n in ast.walk(child)):
                    found.add(func.name)
            elif _raises_domain_error(node) and any(
                    isinstance(n, ast.Constant) and "entries" in str(n.value)
                    for n in ast.walk(node.exc)):
                found.add(func.name)
    return found


def test_cli_counts_entries_only_in_get():
    extra = count_checks(ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))) - {"_get"}
    assert not extra, f"cli.py checks entry counts outside _get: {', '.join(sorted(extra))}"


def test_count_scan_sees_guards_and_messages():
    tree = ast.parse(
        "def by_len(x):\n"
        "    if len(x) != 3:\n"
        "        raise DomainError('x needs 3 coordinates')\n"
        "def by_size(a, n):\n"
        "    if a.size != n * n:\n"
        "        raise DomainError(f'a has {a.size} values')\n"
        "def by_text(x):\n"
        "    if bad(x):\n"
        "        raise DomainError(f'x needs {n} entries')\n"
        "def unrelated(count):\n"
        "    if count < 2:\n"
        "        raise DomainError('count must be at least 2')\n"
        "    if len(count):\n"
        "        raise ValueError('not a DomainError')\n")
    assert count_checks(tree) == {"by_len", "by_size", "by_text"}
