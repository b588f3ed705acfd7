"""The classify comparison script counts, per kernel dimension, the draws
whose report fields changed and the largest move of each numeric field, and
names every draw whose verdict, kernel dimension or determinant differs."""

import importlib.util
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # compare_classify imports compare_outputs
_spec = importlib.util.spec_from_file_location("compare_classify", SCRIPTS / "compare_classify.py")
compare_classify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_classify)

RANK_ONE = {"verdict": "effective_one_time", "kernel_dim": 2, "determinant_value": 0.0,
            "fields": [-0.8944271909999159, 0.4472135954999578, -0.8944271909999159, 0.447213595499958],
            "degenerate": [False, False], "parallelism_defect": 1.665334536937735e-16,
            "orthogonality_residual": math.inf, "discrepancy": "oracle=[-0.8944271909999159, ...]"}
GENERIC = {"verdict": "no_two_time_motion", "kernel_dim": 0, "determinant_value": 0.37,
           "fields": [0.0, 0.0, 0.0, 0.0], "degenerate": [True, True], "parallelism_defect": 0.0,
           "orthogonality_residual": None, "discrepancy": None}


def row(base, **changes):
    return {**base, **changes}


def unchanged(counts):
    return all(changed == 0 and largest is None for _, changed, largest in counts.values())


def test_same_rows_change_nothing():
    rows = [row(RANK_ONE), row(GENERIC), row(GENERIC, parallelism_defect=math.nan)]
    table, decisive = compare_classify.diff(rows, [dict(r) for r in rows])
    assert decisive == []
    assert sorted(table) == [0, 2]
    assert table[0]["verdict"][0] == 2 and table[2]["verdict"][0] == 1
    assert unchanged(table[0]) and unchanged(table[2])


def test_moves_counted_per_kernel_dim():
    moved = [-0.894427190999916, 0.44721359549995787, -0.8944271909999159, 0.447213595499958]
    old = [row(RANK_ONE), row(RANK_ONE), row(GENERIC)]
    new = [row(RANK_ONE, fields=moved, parallelism_defect=1.6653345369377348e-16,
               discrepancy="oracle=[-0.894427190999916, ...]"), row(RANK_ONE), row(GENERIC)]
    table, decisive = compare_classify.diff(old, new)
    assert decisive == []
    assert table[2]["fields"] == [2, 1, abs(moved[0] - RANK_ONE["fields"][0])]
    assert table[2]["parallelism_defect"][1] == 1
    assert table[2]["discrepancy"] == [2, 1, None]
    assert table[2]["degenerate"] == [2, 0, None]
    assert unchanged(table[0])


def test_a_number_turned_none_or_infinite_moves_by_inf():
    old = [row(GENERIC), row(RANK_ONE)]
    new = [row(GENERIC, orthogonality_residual=0.5), row(RANK_ONE, orthogonality_residual=2.0)]
    table, _ = compare_classify.diff(old, new)
    assert table[0]["orthogonality_residual"] == [1, 1, math.inf]
    assert table[2]["orthogonality_residual"] == [1, 1, math.inf]


def test_decisive_differences_named():
    old = [row(RANK_ONE), row(GENERIC), row(GENERIC)]
    new = [row(RANK_ONE, verdict="two_time_admissible"), row(GENERIC),
           row(GENERIC, kernel_dim=1, determinant_value=0.0)]
    table, decisive = compare_classify.diff(old, new)
    assert decisive == [(0, "verdict"), (2, "kernel_dim"), (2, "determinant_value")]
    assert table[0]["determinant_value"] == [2, 1, 0.37]


def test_table_lines():
    old = [row(RANK_ONE)]
    new = [row(RANK_ONE, parallelism_defect=2.0e-16)]
    lines = compare_classify.format_table(compare_classify.diff(old, new)[0])
    assert lines[0] == "kernel_dim 2: 1 draws"
    assert "  verdict                      0 changed" in lines
    assert "  parallelism_defect           1 changed, largest move 3.35e-17" in lines
