"""Every public library function is called from outside its own definition:
by the package itself or by the benchmark, so some command or workload runs
it.  A check that only a test reaches, an acceptance test included, is dead
weight, and the gate names it."""

import ast
import inspect
from pathlib import Path

from bitempo import classical, continuity, core, dirac, quantum

ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = (sorted((ROOT / "src" / "bitempo").glob("*.py"))
                + sorted((ROOT / "benchmarks").glob("*.py")))


class _References(ast.NodeVisitor):
    """Every name and attribute name a tree refers to, except where the
    reference sits inside a def of the same name."""

    def __init__(self):
        self.found = set()
        self._defs = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._see(node.id)

    def visit_Attribute(self, node):
        self._see(node.attr)
        self.generic_visit(node)

    def _see(self, name):
        if name not in self._defs:
            self.found.add(name)


def references(path):
    """Every name path refers to outside a def of the same name."""
    refs = _References()
    refs.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return refs.found


def public_functions():
    return [name for module in (core, classical, quantum, continuity, dirac)
            for name in module.__all__ if inspect.isfunction(getattr(module, name))]


def test_every_public_function_has_a_caller():
    found = set().union(*map(references, CALLER_FILES))
    orphans = [name for name in public_functions() if name not in found]
    assert not orphans, f"public functions with no caller: {', '.join(orphans)}"

