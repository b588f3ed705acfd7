"""No report text depends on numpy's print options.

``np.array2string`` and its kin read the process-wide print options, which
a caller may have changed, so the ``comparable`` section of a report would
follow them.  The library quotes vectors as lists of Python floats, whose
repr no print option touches, and neither calls those functions nor changes
the options."""

import ast
from pathlib import Path

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
