"""No hidden state on frozen records.

A frozen dataclass may set its own fields through ``object.__setattr__``
while it is built, in ``__init__`` or ``__post_init__``.  Anywhere else that
call writes a field after construction, so a record's later results would
depend on its earlier calls.  The library refers to ``object.__setattr__``
nowhere else, not even to name it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bitempo"
BUILDERS = {"__init__", "__post_init__"}


def hidden_state_writes(source: str, filename: str = "<source>") -> list:
    """(line, innermost enclosing function) of every reference to
    ``object.__setattr__`` in Python source outside ``__init__`` and
    ``__post_init__``; a function nested in those counts as outside."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"
                    and function not in BUILDERS):
                found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source, filename), None)
    return found


def test_library_sets_frozen_fields_only_while_building():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    writes = {path.name: hidden_state_writes(path.read_text(encoding="utf-8"), str(path))
              for path in modules}
    assert {name: found for name, found in writes.items() if found} == {}


def test_scan_sees_a_write_after_construction():
    # the shape of a cache kept on a frozen field by a method
    source = ("class Field:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'cache', None)\n"
              "    def derivative_tensor(self, x):\n"
              "        object.__setattr__(self, 'cache', x)\n"
              "    def __init__(self):\n"
              "        later = lambda: object.__setattr__(self, 'cache', 1)\n"
              "set_field = object.__setattr__\n")
    assert hidden_state_writes(source) == [(5, "derivative_tensor"), (7, "<lambda>"), (8, None)]
