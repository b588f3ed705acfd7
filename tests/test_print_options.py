"""No report text depends on numpy's print options.

``np.array2string`` and its kin read the process-wide print options, which
a caller may have changed, so the ``comparable`` section of a report would
follow them.  The library quotes vectors as lists of Python floats, whose
repr no print option touches, and neither calls those functions nor changes
the options.  Failure lines follow the same rule."""

import ast
from pathlib import Path

import numpy as np

from corpus import ROWS
from test_corpus import check, run

SRC = Path(__file__).resolve().parents[1] / "src" / "bitempo"
FORBIDDEN = {"array2string", "array_str", "array_repr", "set_printoptions", "printoptions"}


def forbidden_calls(source: str, filename: str = "<source>") -> list:
    """(line, name) of every call in Python source to a name in FORBIDDEN, by
    attribute (np.array2string) or by plain name."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FORBIDDEN:
                found.append((node.lineno, name))
    return found


def test_library_never_calls_numpy_printing():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    calls = {path.name: forbidden_calls(path.read_text(encoding="utf-8"), str(path))
             for path in modules}
    assert {name: found for name, found in calls.items() if found} == {}


def test_scan_sees_both_call_forms():
    source = "import numpy as np\nnp.array2string(v)\nwith printoptions(sign='+'):\n    pass\n"
    assert forbidden_calls(source) == [(2, "array2string"), (3, "printoptions")]


def test_off_shell_line_ignores_print_options():
    # the one failure line that quotes a vector: numpy's str of k would read
    # "[+1.00000000 +0.00000000 +5.00000000]" under these options
    row = next(row for row in ROWS if row.id == "off-shell-k")
    with np.printoptions(sign="+", floatmode="fixed"):
        check(row, run(row))
