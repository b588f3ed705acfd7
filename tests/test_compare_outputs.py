"""The output comparison script counts NaN flips, names where its largest
finite difference lies, names a changed text where no number moved (a zero
that changed sign among them), names the key paths and table columns that
only one run holds, and compares the failure message of a run that exits
non-zero."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def run(stdout, files, code=0, message=None):
    return code, stdout, files, message


def test_same_runs_report_nothing(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = continuity\n")
    a = run(b"x\n", {"t.csv": b"t,Q\n0,1\n"})
    assert compare_outputs.differences(str(config), a, a) == ([], None)


def test_largest_difference_names_report_key(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = continuity\n[output]\nreport = r.json\n")
    old = {"comparable": {"results": {"ratio": 4.0, "same": 1.0}}}
    new = {"comparable": {"results": {"ratio": 4.000002, "same": 1.0}}}
    found, largest = compare_outputs.differences(
        str(config),
        run(b"", {"r.json": json.dumps(old).encode(), "t.csv": b"t,Q\n0,1\n1,2\n"}),
        run(b"", {"r.json": json.dumps(new).encode(), "t.csv": b"t,Q\n0,1\n1,2.0000001\n"}))
    assert found == ["r.json comparable", "t.csv"]
    assert largest.startswith("largest difference 2e-06 (5e-07 relative) at r.json results.ratio: ")
    assert largest.endswith("4.0 -> 4.000002")


def test_largest_difference_names_csv_cell(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = continuity\n")
    found, largest = compare_outputs.differences(
        str(config), run(b"", {"t.csv": b"t,Q\n0,1\n1,0\n"}),
        run(b"", {"t.csv": b"t,Q\n0,1\n1,3e-17\n"}))
    assert found == ["t.csv"]
    assert largest == "largest difference 3e-17 (inf relative) at t.csv row 2, column 1: 0.0 -> 3e-17"


def test_nan_flips_counted_apart_from_largest_finite_difference(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = continuity\n")
    found, summary = compare_outputs.differences(
        str(config), run(b"", {"t.csv": b"t,Q\n0,nan\n1,nan\n2,0.5\n3,nan\n"}),
        run(b"", {"t.csv": b"t,Q\n0,0.25\n1,nan\n2,0.75\n3,-1\n"}))
    assert found == ["t.csv"]
    assert summary == ("2 NaN flips; largest difference 0.25 (0.5 relative) at t.csv row 3, "
                       "column 1: 0.5 -> 0.75")


def test_nan_flip_alone(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = continuity\n")
    found, summary = compare_outputs.differences(
        str(config), run(b"", {"t.csv": b"t,Q\n0,1\n"}), run(b"", {"t.csv": b"t,Q\n0,nan\n"}))
    assert (found, summary) == (["t.csv"], "1 NaN flip")


def test_changed_text_leaf_named(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = classical-check\n[output]\nreport = r.json\n")
    old = {"comparable": {"results": {"det": 0.0, "discrepancy": "printed=[0. 0.]"}}}
    new = {"comparable": {"results": {"det": 0.0, "discrepancy": "printed=[0.0, 0.0]"}}}
    found, summary = compare_outputs.differences(
        str(config), run(b"a\n", {"r.json": json.dumps(old).encode()}),
        run(b"b\n", {"r.json": json.dumps(new).encode()}))
    assert found == ["stdout", "r.json comparable"]
    assert summary == ("text differs at r.json results.discrepancy: "
                       "'printed=[0. 0.]' -> 'printed=[0.0, 0.0]'")


def test_sign_of_zero_named(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = dirac\n[output]\nreport = r.json\n")
    old = {"comparable": {"results": {"psi_plus": [[0.5, 0.0], [0.5, 0.0]]}}}
    new = {"comparable": {"results": {"psi_plus": [[0.5, 0.0], [0.5, -0.0]]}}}
    found, summary = compare_outputs.differences(
        str(config), run(b"", {"r.json": json.dumps(old).encode(), "t.csv": b"t,j\n0,0\n"}),
        run(b"", {"r.json": json.dumps(new).encode(), "t.csv": b"t,j\n0,-0\n"}))
    assert found == ["r.json comparable", "t.csv"]
    assert summary == "text differs at r.json results.psi_plus.1.1: '0.0' -> '-0.0'"


def test_changed_failure_message_named(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = mass-spectrum\n")
    old = run(b"", {}, 4, "numerical failure: float division by zero")
    new = run(b"", {}, 4, "numerical failure: c^2 underflows to 0")
    assert compare_outputs.differences(str(config), old, new) == (
        ["failure message"], "failure message 'numerical failure: float division by zero' "
                             "-> 'numerical failure: c^2 underflows to 0'")
    assert compare_outputs.differences(str(config), new, new) == ([], None)


def test_run_keeps_the_last_stderr_line_of_a_failure(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = mass-spectrum\n[sweep]\nm = 1\nc = 1e-200\n"
                      "omega_max = 2\n")
    code, _, files, message = compare_outputs.run(compare_outputs.ROOT, str(config), "csv",
                                                  str(tmp_path / "out"))
    assert (code, files, message) == (4, {}, "numerical failure: c^2 underflows to 0")


def test_places_held_by_one_tree_named(tmp_path):
    config = tmp_path / "c.ini"
    config.write_text("[scenario]\ncommand = uncertainty\n[output]\nreport = r.json\n")
    old = {"comparable": {"results": {"phi": 0.5, "cos_phi": 0.87, "notes": ["w"]}}}
    new = {"comparable": {"results": {"phi": 0.5, "notes": [], "kept": 1.0}}}
    table_old = json.dumps({"columns": ["t", "a"], "rows": [["0", "1"]]}).encode()
    table_new = json.dumps({"columns": ["t", "b"], "rows": [["0", "1"]]}).encode()
    found, summary = compare_outputs.differences(
        str(config),
        run(b"", {"r.json": json.dumps(old).encode(), "t.json": table_old,
                  "q.csv": b"t,Q,dQ\n0,1,2\n"}),
        run(b"", {"r.json": json.dumps(new).encode(), "t.json": table_new,
                  "q.csv": b"t,Q\n0,1\n"}),
        ("HEAD~1", "the working tree"))
    assert found == ["q.csv", "r.json comparable", "t.json"]
    assert summary == ("only in HEAD~1: q.csv column dQ, results.cos_phi, results.notes.0, "
                       "t.json column a; only in the working tree: results.kept, "
                       "t.json column b; text differs at t.json columns.1: 'a' -> 'b'")
