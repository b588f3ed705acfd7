"""Every row of tests/corpus.py, run and checked one way.

run() writes a row's config, runs it through cli.main as
"<command> --out <dir>" and then as "validate", and records whether the
run reached its command's layer function by wrapping the command's
cli._COMMANDS entry.  check() then holds every row to the same properties:

- the run's exit code and its whole stderr are the row's, and it reaches
  the layer function exactly when the row's stage is "compute";
- pairing: validate exits 0 exactly when the run reached the layer
  function, and otherwise prints exactly the run's line with "config
  error: " or "domain error: " replaced by "invalid: ", or with "invalid: "
  before "numerical failure: ...";
- a failed run leaves no --out directory;
- neither call raises a Python warning.

Rows with an older test id are collected under it in test_cli.py (by
collected_under_old_ids), the others by test_row.  The tests that stay in
test_cli.py need what a row cannot state: a monkeypatch, a timing bound,
a current file, an --out that is a file or reaches the config, a command
other than the config's, or more than one validate line.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings
from unittest import mock

import pytest

from bitempo import cli
from bitempo.core import EvaluationError

from corpus import ROWS, Row


@dataclasses.dataclass(frozen=True)
class Outcome:
    config: str
    code: int
    err: str
    reached: bool
    out_files: list | None
    valid: int
    valid_out: str
    valid_err: str
    warnings: list


def run(row: Row) -> Outcome:
    """Run a row's config, then validate it, in a fresh directory."""
    command = row.command
    parsers, layer, table = cli._COMMANDS[command]
    reached = []

    def layer_spy(*args):
        reached.append(True)
        return layer(*args)

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, f"{row.id}.ini")
        with open(config, "w") as fh:
            row.config().write(fh)
        out = os.path.join(tmp, "out")
        err, valid_out, valid_err = io.StringIO(), io.StringIO(), io.StringIO()
        with mock.patch.dict(cli._COMMANDS, {command: (parsers, layer_spy, table)}), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", config, "--out", out])
            with contextlib.redirect_stdout(valid_out), contextlib.redirect_stderr(valid_err):
                valid = cli.main(["validate", "--config", config])
        out_files = sorted(os.listdir(out)) if os.path.exists(out) else None
    return Outcome(config, code, err.getvalue(), bool(reached), out_files, valid,
                   valid_out.getvalue(), valid_err.getvalue(),
                   [str(w.message) for w in caught])


_OUTCOMES = {}


def outcome(row: Row) -> Outcome:
    """run(row), once per row of the corpus in a session."""
    if row.id not in _OUTCOMES:
        _OUTCOMES[row.id] = run(row)
    return _OUTCOMES[row.id]


def paired(line: str) -> str:
    """validate's diagnostic for a run's stderr line."""
    for prefix in ("config error: ", "domain error: "):
        if line.startswith(prefix):
            return "invalid: " + line[len(prefix):]
    assert line.startswith("numerical failure: "), line
    return "invalid: " + line


def check(row: Row, got: Outcome):
    line = row.line.replace("{config}", got.config)
    assert (got.code, got.err) == (row.code, f"{line}\n" if line else "")
    assert got.reached == (row.stage == "compute")
    if got.reached:
        assert (got.valid, got.valid_out, got.valid_err) == (0, "ok\n", "")
    else:
        assert (got.valid, got.valid_out, got.valid_err) == (2, "", paired(line) + "\n")
    if row.code != 0:
        assert got.out_files is None
    assert got.warnings == []


@pytest.mark.parametrize("row", [r for r in ROWS if not r.old_ids], ids=lambda r: r.id)
def test_row(row):
    check(row, outcome(row))


def collected_under_old_ids(cls):
    """Add to a test class one test per old test name of its rows: a row
    with the old id "<class>::<name>" becomes the test <name>, and rows
    with old ids "<class>::<name>[<id>]" the parametrized <name>."""
    tests = {}
    for row in ROWS:
        for was in row.old_ids:
            owner, _, old_id = was.partition("::")
            if owner == cls.__name__:
                name, _, param = old_id.partition("[")
                tests.setdefault(name, []).append((param[:-1], row))
    for name, rows in tests.items():
        setattr(cls, name, _old_test(*zip(*rows)))
    return cls


def _old_test(params, rows):
    if not params[0]:
        def test(self):
            check(rows[0], outcome(rows[0]))
        return test

    @pytest.mark.parametrize("row", rows, ids=params)
    def test(self, row):
        check(row, outcome(row))
    return test


def test_rows_are_unique():
    ids = [row.id for row in ROWS]
    assert len(set(ids)) == len(ids)
    # an input is the command run and the config as written, however stated
    inputs = {(row.command, tuple((name, tuple(sorted(cfg.items(name))))
                                  for name in sorted(cfg.sections())))
              for row in ROWS for cfg in [row.config()]}
    assert len(inputs) == len(ROWS)
    was = [was for row in ROWS for was in row.old_ids]
    assert len(set(was)) == len(was)


def test_every_command_fails_in_both_stages():
    # the stage is where the run ended: before its layer function or in it
    stages = {(row.command, outcome(row).reached) for row in ROWS if row.code != 0}
    assert stages == {(command, reached) for command in cli.COMMANDS
                      for reached in (False, True)}


@pytest.mark.parametrize("error, line", [
    (EvaluationError("the parse stage failed"), "numerical failure: the parse stage failed"),
    (MemoryError("no room"), "numerical failure: cannot allocate: no room"),
], ids=["evaluation", "memory"])
def test_parse_stage_failures_pair(monkeypatch, error, line):
    # no config reaches these failures today: a section parser raises them
    def parse(cfg):
        raise error

    parsers, layer, table = cli._COMMANDS["uncertainty"]
    monkeypatch.setitem(cli._COMMANDS, "uncertainty", ((parse, *parsers), layer, table))
    row = Row("raises", "uncertainty_worked", {}, 4, line)
    check(row, run(row))
