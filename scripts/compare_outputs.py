"""Compare bitempo's outputs at a git revision with those of the working tree.

    python scripts/compare_outputs.py <rev> [config.ini ...]

Exports <rev> with ``git archive`` into a temporary directory, then runs
every bundled scenario in csv and in json, and each config given after the
revision in both formats, under both trees with ``PYTHONPATH`` set to that
tree's ``src``.  Each run compares the exit code, stdout, every data file
byte for byte and the report's ``comparable`` section, and prints one line.
The exit status is 1 if any run differs, 0 otherwise.  All output stays in
the temporary directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
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
    """(exit code, stdout, {file name: bytes}) of one run under a tree."""
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
    return proc.returncode, proc.stdout, files


def differences(config: str, a, b) -> list:
    """What differs between two runs of one config."""
    _, report = scenario_names(config)
    found = [what for what, i in (("exit code", 0), ("stdout", 1)) if a[i] != b[i]]
    files_a, files_b = a[2], b[2]
    found += [f"only one tree wrote {name}" for name in sorted(set(files_a) ^ set(files_b))]
    for name in sorted(set(files_a) & set(files_b)):
        if name == report:
            same = (json.loads(files_a[name])["comparable"]
                    == json.loads(files_b[name])["comparable"])
        else:
            same = files_a[name] == files_b[name]
        if not same:
            found.append(f"{name} comparable" if name == report else name)
    return found


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
                found = differences(config, old, new)
                differ += bool(found)
                label = f"{os.path.basename(config)} {fmt} (exit {new[0]})"
                print(f"DIFF  {label}: {', '.join(found)}" if found else f"same  {label}")
    print(f"{len(configs) * len(FORMATS) - differ} of {len(configs) * len(FORMATS)} runs "
          f"identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
