"""Compare bitempo's outputs at a git revision with those of the working tree.

    python scripts/compare_outputs.py <rev> [config.ini ...]

Exports <rev> with ``git archive`` into a temporary directory, then runs
every bundled scenario in csv and in json, and each config given after the
revision in both formats, under both trees with ``PYTHONPATH`` set to that
tree's ``src``.  Each run compares the exit code, stdout, every data file
byte for byte, the report's ``comparable`` section as serialized JSON text
(so -0.0 against 0.0 differs) and, for a run that exits non-zero, the last line of stderr (the CLI's failure message), and
prints one line.
A line for a run that differs ends with how many numbers at the same place
(same key path, or same row and column) in the ``comparable`` sections and
the data files of both trees turned from NaN into a number or back, and the
largest absolute difference between the other numbers at the same place:
that difference relative to the revision's value, the file and place where
it lies, and both values.  Where no number differs in value, the line
names the first place whose text differs (a string, or a number such as a
zero that changed sign), with both texts, or else both failure messages.
The exit status is 1 if any run differs, 0 otherwise.  All output stays in
the temporary directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "src", "bitempo", "scenarios")
FORMATS = ("csv", "json")


def export(rev: str, dest: str):
    """The tree of ``rev`` unpacked into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            archive.extractall(dest)


def scenario_names(config: str):
    """(command, report file name) of a config; None for a missing command."""
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    cfg.read(config)
    return (cfg.get("scenario", "command", fallback=None),
            cfg.get("output", "report", fallback="report.json"))


def run(tree: str, config: str, fmt: str, out: str):
    """(exit code, stdout, {file name: bytes}, failure message) of one run
    under a tree; the message is the last line of stderr, None on exit 0."""
    command, _ = scenario_names(config)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    os.makedirs(out)
    proc = subprocess.run([sys.executable, "-m", "bitempo.cli", command or "validate",
                           "--config", config, "--out", out, "--format", fmt],
                          cwd=out, env=env, capture_output=True)
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    lines = proc.stderr.decode(errors="replace").splitlines() or [""]
    message = lines[-1] if proc.returncode else None
    return proc.returncode, proc.stdout, files, message


def _leaves(obj, path=()):
    """(key path, scalar) for every leaf of a parsed JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, (*path, i))
    else:
        yield path, obj


def values(name: str, data: bytes, report: str):
    """({place: float}, {place: str}) for the cells of one output file: the
    leaves of the report's ``comparable`` section or of a json table, the
    cells of a csv table.  Numbers written as strings ("0.5", "nan") count
    as numbers; every leaf but a boolean keeps its text, as written in the
    file or serialized by json, so a change of text alone (the sign of a
    zero) has a place too."""
    if name == report:
        cells = _leaves(json.loads(data)["comparable"])
    elif name.endswith(".json"):
        cells = _leaves(json.loads(data))
    else:
        cells = (((r, c), cell) for r, line in enumerate(data.decode().splitlines())
                 for c, cell in enumerate(line.split(",")))
    numbers, texts = {}, {}
    for place, value in cells:
        if isinstance(value, bool):
            continue
        texts[place] = value if isinstance(value, str) else json.dumps(value)
        try:
            numbers[place] = float(value)
        except (TypeError, ValueError):
            pass
    return numbers, texts


def largest_difference(a: dict, b: dict):
    """(how many places hold a NaN on one side and a number on the other,
    (|a - b|, place) of the largest difference over the other places both
    hold a number, or None when they agree)."""
    flips, largest = 0, None
    for place in sorted(a.keys() & b.keys(), key=str):
        x, y = a[place], b[place]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isnan(x) or math.isnan(y):
            flips += 1
            continue
        d = abs(x - y)
        if largest is None or d > largest[0]:
            largest = (d, place)
    return flips, largest


def where(name: str, place) -> str:
    """A place in an output file, as a row and column of a csv table or as
    the key path of a json value."""
    return (f"{name} row {place[0]}, column {place[1]}" if name.endswith(".csv")
            else f"{name} {'.'.join(str(p) for p in place)}")


def describe(name: str, place, d: float, old: float, new: float) -> str:
    """Where a difference d = |new - old| lies and how large it is, absolute
    and relative to the old value."""
    rel = d / abs(old) if old != 0 else math.inf
    return (f"largest difference {d:.3g} ({rel:.2g} relative) at {where(name, place)}: "
            f"{old!r} -> {new!r}")


def differences(config: str, a, b):
    """(what differs between two runs of one config, a description of the
    NaN flips and the largest numeric difference in the files both wrote,
    or else of their first text difference, or else of both failure
    messages, or None)."""
    _, report = scenario_names(config)
    found = [what for what, i in (("exit code", 0), ("stdout", 1), ("failure message", 3))
             if a[i] != b[i]]
    files_a, files_b = a[2], b[2]
    found += [f"only one tree wrote {name}" for name in sorted(set(files_a) ^ set(files_b))]
    flips, largest, text = 0, None, None
    for name in sorted(set(files_a) & set(files_b)):
        if name == report:
            same = (json.dumps(json.loads(files_a[name])["comparable"])
                    == json.dumps(json.loads(files_b[name])["comparable"]))
        else:
            same = files_a[name] == files_b[name]
        if not same:
            found.append(f"{name} comparable" if name == report else name)
            old, old_texts = values(name, files_a[name], report)
            new, new_texts = values(name, files_b[name], report)
            n, here = largest_difference(old, new)
            flips += n
            if here is not None and (largest is None or here[0] > largest[0]):
                d, place = here
                largest = (d, describe(name, place, d, old[place], new[place]))
            changed = [p for p in sorted(old_texts.keys() & new_texts.keys(), key=str)
                       if old_texts[p] != new_texts[p]]
            if changed and text is None:
                p = changed[0]
                text = (f"text differs at {where(name, p)}: "
                        f"{old_texts[p]!r} -> {new_texts[p]!r}")
    numeric = []
    if flips:
        numeric.append(f"{flips} NaN flip" + "s" * (flips > 1))
    if largest:
        numeric.append(largest[1])
    if text is None and a[3] != b[3]:
        text = f"failure message {a[3]!r} -> {b[3]!r}"
    return found, "; ".join(numeric) or text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("configs", nargs="*", help="further scenario configs to run")
    args = parser.parse_args(argv)

    configs = sorted(os.path.join(SCENARIOS, f) for f in os.listdir(SCENARIOS)
                     if f.endswith(".ini"))
    configs += [os.path.abspath(c) for c in args.configs]
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        old_tree = os.path.join(tmp, "rev")
        export(args.rev, old_tree)
        for k, config in enumerate(configs):
            for fmt in FORMATS:
                key = f"{k:02d}-{fmt}"
                old = run(old_tree, config, fmt, os.path.join(tmp, "out", "rev", key))
                new = run(ROOT, config, fmt, os.path.join(tmp, "out", "tree", key))
                found, summary = differences(config, old, new)
                differ += bool(found)
                label = f"{os.path.basename(config)} {fmt} (exit {new[0]})"
                print(f"DIFF  {label}: {', '.join(found)}; "
                      f"{summary or 'no value differs at a place both trees hold'}"
                      if found else f"same  {label}")
    print(f"{len(configs) * len(FORMATS) - differ} of {len(configs) * len(FORMATS)} runs "
          f"identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
