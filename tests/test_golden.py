"""The bundled scenarios reproduce their recorded outputs.

This is characterization testing (M. Feathers, *Working Effectively with
Legacy Code*, 2004).  ``tests/golden/<scenario>.json`` holds, for each
bundled scenario run in csv and in json, the exit code, stdout, the
report's ``comparable`` section as ``json.dumps(sort_keys=True)`` text and
the SHA-256 of every data file, together with the Python and numpy versions
that wrote it.  The 16 runs are repeated in process through ``cli.main``,
and the 8 json runs once more as ``bitempo.cli`` processes with
``OPENBLAS_NUM_THREADS=2``, whose stderr must be empty; a run that differs
fails and is named with what differs, and with both version stamps where
they differ;
``scripts/compare_outputs.py <rev>`` then says where the outputs differ.

A change that moves an output on purpose rewrites the files, in the same
commit, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bitempo import cli

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC / "bitempo" / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("csv", "json")
# what a golden file holds of one run, in the order a mismatch names them
RECORD = ("exit_code", "stdout", "comparable", "files")


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def scenarios():
    return sorted(SCENARIOS.glob("*.ini"))


def _argv(config: Path, out: str, fmt: str) -> list:
    return [cli.load_config(str(config)).get("scenario", "command"), "--config", str(config),
            "--out", out, "--format", fmt]


def record(config: Path, fmt: str, code: int, stdout: str, out: str) -> dict:
    """What the golden files hold of one run that wrote into the empty
    directory out."""
    report = cli._outputs(cli.load_config(str(config)), (fmt,))[fmt][0]
    files, comparable = {}, None
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == report:
            comparable = json.dumps(json.loads(data)["comparable"], sort_keys=True)
        else:
            files[name] = hashlib.sha256(data).hexdigest()
    return dict(zip(RECORD, (code, stdout, comparable, files)))


def in_process(config: Path, fmt: str, tmp: str) -> dict:
    out = tempfile.mkdtemp(dir=tmp)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(_argv(config, out, fmt))
    return record(config, fmt, code, buf.getvalue(), out)


def as_process(config: Path, fmt: str, tmp: str, env: dict) -> tuple:
    """The record of one bitempo.cli process, and its stderr."""
    out = tempfile.mkdtemp(dir=tmp)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bitempo.cli", *_argv(config, out, fmt)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, **env, "PYTHONPATH": path})
    return record(config, fmt, proc.returncode, proc.stdout, out), proc.stderr


def mismatches(runs: dict, golden: dict) -> list:
    """One line per run, keyed (scenario stem, format), whose record differs
    from the golden one of golden[stem], and a line naming both stamps
    where a golden file's stamp is not this process's."""
    lines, stamps = [], set()
    for (stem, fmt), got in runs.items():
        want = golden[stem][fmt]
        what = [key for key in RECORD if got[key] != want[key]]
        if not what:
            continue
        lines.append(f"{stem} {fmt}: {', '.join(what)} differ")
        if golden[stem]["stamp"] != stamp():
            stamps.add(json.dumps(golden[stem]["stamp"], sort_keys=True))
    lines += [f"golden files written under {s}, this run under "
              f"{json.dumps(stamp(), sort_keys=True)}" for s in sorted(stamps)]
    return lines


def load_golden() -> dict:
    golden = {}
    for config in scenarios():
        with open(GOLDEN / f"{config.stem}.json", encoding="utf-8") as fh:
            golden[config.stem] = json.load(fh)
    return golden


def run_all(tmp: str) -> dict:
    return {(config.stem, fmt): in_process(config, fmt, tmp)
            for config in scenarios() for fmt in FORMATS}


def test_bundled_outputs_in_process(tmp_path):
    # one golden file per bundled scenario, none left over from a removed one
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [c.stem for c in scenarios()]
    problems = mismatches(run_all(str(tmp_path)), load_golden())
    assert not problems, "\n".join(problems)


def test_bundled_json_outputs_with_two_blas_threads(tmp_path):
    runs, stderr = {}, {}
    for config in scenarios():
        runs[config.stem, "json"], stderr[config.stem] = as_process(
            config, "json", str(tmp_path), {"OPENBLAS_NUM_THREADS": "2"})
    problems = mismatches(runs, load_golden())
    problems += [f"{stem} json: stderr {err!r}" for stem, err in stderr.items() if err]
    assert not problems, "\n".join(problems)


def test_last_digit_of_one_result_fails(tmp_path, monkeypatch):
    # the uncertainty angle moved to its neighbouring float
    parsers, run, table = cli._COMMANDS["uncertainty"]

    def nudged(*args):
        results, data = run(*args)
        return {**results, "phi": float(np.nextafter(results["phi"], np.inf))}, data

    monkeypatch.setitem(cli._COMMANDS, "uncertainty", (parsers, nudged, table))
    config = SCENARIOS / "uncertainty_worked.ini"
    runs = {(config.stem, fmt): in_process(config, fmt, str(tmp_path)) for fmt in FORMATS}
    lines = mismatches(runs, load_golden())
    assert lines == ["uncertainty_worked csv: stdout, comparable differ",
                     "uncertainty_worked json: stdout, comparable differ"]


def test_stamp_mismatch_names_both_stamps(tmp_path):
    golden = load_golden()
    config = SCENARIOS / "mass_spectrum_sweep.ini"
    run = in_process(config, "csv", str(tmp_path))
    run["stdout"] += " "
    other = {"python": "2.7.18", "numpy": "1.16.6"}
    golden[config.stem] = {**golden[config.stem], "stamp": other}
    lines = mismatches({(config.stem, "csv"): run}, golden)
    assert lines == ["mass_spectrum_sweep csv: stdout differ",
                     f"golden files written under {json.dumps(other, sort_keys=True)}, "
                     f"this run under {json.dumps(stamp(), sort_keys=True)}"]
    # an identical run passes whatever stamp its golden file carries
    assert mismatches({(config.stem, "csv"): in_process(config, "csv", str(tmp_path))},
                      golden) == []


def write_golden():
    """Rewrite tests/golden from in-process runs of this tree."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(tmp)
    for config in scenarios():
        entry = {"stamp": stamp(), **{fmt: runs[config.stem, fmt] for fmt in FORMATS}}
        with open(GOLDEN / f"{config.stem}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
