"""Compare classify's reports at a git revision with those of the working tree.

    python scripts/compare_classify.py <rev>

Exports <rev> with ``git archive`` into a temporary directory, as
``compare_outputs.py`` does, and classifies the 6,000 ``constraint_sweep``
draws of seeds 9001 and 9002 (3,000 each) under both trees.  The draws come
from the working tree's ``benchmarks/workloads.py``, imported without
writing bytecode, with ``PYTHONPATH`` set to each tree's ``src`` in turn, so
both trees see the same inputs built by their own force builders.

For each kernel dimension the script prints how many draws changed in each
report field and the largest move of a numeric field.  The exit status is
1 if any verdict, kernel dimension or determinant differs, 0 otherwise.
The temporary directory is removed at the end.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

from compare_outputs import ROOT, export

SEEDS = (9001, 9002)
DRAWS = 3000
FIELDS = ("verdict", "kernel_dim", "determinant_value", "fields", "degenerate",
          "parallelism_defect", "orthogonality_residual", "discrepancy")
# a draw that differs in one of these fails the comparison
DECISIVE = ("verdict", "kernel_dim", "determinant_value")


def report_row(report) -> dict:
    """The fields of one ConstraintReport as JSON values."""
    return {"verdict": report.verdict.value, "kernel_dim": int(report.kernel_dim),
            "determinant_value": float(report.determinant_value),
            "fields": [x for v in report.fields.vectors for x in v.tolist()],
            "degenerate": [bool(g) for g in report.fields.degenerate],
            "parallelism_defect": float(report.parallelism_defect),
            "orthogonality_residual": report.orthogonality_residual,
            "discrepancy": report.discrepancy}


def dump(path: str):
    """Classify every draw under the bitempo on sys.path; write the rows as
    a JSON list to path."""
    from bitempo import classical
    from workloads import ConstraintSweep

    rows = []
    with tempfile.TemporaryDirectory(prefix="compare_classify_") as work:
        for seed in SEEDS:
            sweep = ConstraintSweep(seed, work)
            for i in range(DRAWS):
                case = sweep.case(i)
                rows.append(report_row(classical.classify(case.force, case.x)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def classify_under(tree: str, path: str) -> list:
    """The rows of every draw classified in a fresh process under a tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"),
                                           os.path.join(ROOT, "benchmarks"),
                                           os.path.dirname(os.path.abspath(__file__))]),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c",
                    "import sys, compare_classify; compare_classify.dump(sys.argv[1])", path],
                   check=True, env=env, cwd=tree)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _move(a, b) -> float | None:
    """Largest |a - b| over the numbers of two equal field values (None for
    a text, flag or verdict, inf where a number turns non-finite or None)."""
    if isinstance(a, list):
        moves = [_move(x, y) for x, y in zip(a, b)]
        return None if None in moves else max(moves, default=0.0)
    if isinstance(a, (str, bool)) or isinstance(b, (str, bool)):
        return None
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b)


def _same(a, b) -> bool:
    """Equal values, NaN equal to NaN."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def diff(old: list, new: list):
    """({kernel dim of the old row: {field: [draws, changed, largest move]}},
    [(draw index, field) of every decisive difference]).  The largest move
    is None for a field without numbers, and where no draw changed."""
    table, decisive = {}, []
    for k, (a, b) in enumerate(zip(old, new, strict=True)):
        counts = table.setdefault(a["kernel_dim"], {f: [0, 0, None] for f in FIELDS})
        for f in FIELDS:
            counts[f][0] += 1
            if _same(a[f], b[f]):
                continue
            counts[f][1] += 1
            if f in DECISIVE:
                decisive.append((k, f))
            move = _move(a[f], b[f])
            if move is not None:
                counts[f][2] = max(move, counts[f][2] or 0.0)
    return table, decisive


def format_table(table: dict) -> list:
    """One line per kernel dimension and one per field under it."""
    lines = []
    for dim in sorted(table):
        counts = table[dim]
        lines.append(f"kernel_dim {dim}: {counts[FIELDS[0]][0]} draws")
        for f in FIELDS:
            _, changed, largest = counts[f]
            move = f", largest move {largest:.3g}" if largest is not None else ""
            lines.append(f"  {f:<24}{changed:>6} changed{move}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_classify_") as tmp:
        old_tree = os.path.join(tmp, "rev")
        export(rev, old_tree)
        old = classify_under(old_tree, os.path.join(tmp, "rev.json"))
        new = classify_under(ROOT, os.path.join(tmp, "tree.json"))
    table, decisive = diff(old, new)
    print("\n".join(format_table(table)))
    for k, f in decisive[:10]:
        seed, i = SEEDS[k // DRAWS], k % DRAWS
        print(f"DIFF  seed {seed} draw {i}: {f} {old[k][f]!r} -> {new[k][f]!r}")
    print(f"{len(decisive)} decisive differences (verdict, kernel_dim, determinant) "
          f"over {len(old)} draws against {rev}")
    return 1 if decisive else 0


if __name__ == "__main__":
    sys.exit(main())
