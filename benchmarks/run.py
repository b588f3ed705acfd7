"""bitempo benchmark: seeded workloads, verified checks, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload harmonic_surface --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, with the host's
speed sampled between checks by a fixed reference pass; ``--trace 1`` runs
every input twice, untraced and traced, and reports the per-layer metrics
from the spans (see NOTES.md).  The metric names, units and workloads are
those of BENCHMARK.json at the repository root.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it is a fuller report (all end-to-end figures, failures by cause,
the generated ranges and the environment).  Checks that end in a known
defect of the program are counted in the report line, not in the result
line's ``attempted`` and ``failed`` (see ``result_counts``).

bitempo is imported from ``src/`` next to this directory and from nowhere
else, so the run exits non-zero, printing no result, in a tree without the
program's source.
"""

import os

# One BLAS/OpenMP thread for this process and the set-up probes it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
# Host speed at which setup_s is stated: one workloads.reference_pass takes
# this long (about its median on a 2-vCPU Xeon VM, 4.7 ms).
REF_PASS_S = 0.005
PROBE_REF_PASSES = 10
PROBE_TIMEOUT_S = 150
# Units of the report line's end-to-end figures that BENCHMARK.json does not
# bound; the others take theirs from BENCHMARK.json.
UNITS = {"check_s.p50": "s", "checks_per_s": "1/s", "failed_ratio": "1", "oracle_err": "1"}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "bitempo", "__init__.py")):
        raise SystemExit(f"error: no bitempo source under {SRC}")
    sys.path.insert(0, SRC)
    import bitempo

    if not os.path.abspath(bitempo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: bitempo imported from {bitempo.__file__}, not {SRC}")
    return bitempo


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _probe(workload: str, seed: int, checks: int) -> tuple[float, float]:
    """(set-up seconds, peak RSS in MiB) of a fresh process.

    The set-up is the time until the process has imported bitempo, generated
    the first input and made one warm-up call.  It then makes ``checks``
    further calls, unverified and unrecorded, and reports its peak RSS: the
    program's memory without the oracles or the per-check records."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe", str(checks)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # a blocking wait; subprocess's own timeout polls in 50 ms steps
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise SystemExit(f"error: probe exited with {proc.returncode}")
    ready, rss_mb = map(float, out.split())
    return ready - started, rss_mb


def _finite(v):
    return v if math.isfinite(v) else repr(v)


def _end_to_end(outcomes, setup, setup_scaled, rss_mb, reference) -> tuple[dict, dict]:
    verified = [o.seconds for o in outcomes if o.verified]
    if not verified:
        raise SystemExit("error: no check ended verified")
    errs = [o.oracle_err for o in outcomes if o.oracle_err is not None]
    check_s = sum(o.seconds for o in outcomes)
    ref_s = statistics.fmean(reference)
    values = {
        "check_s.p50": statistics.median(verified),
        "checks_per_s": len(verified) / check_s,
        "checks_per_ref": len(verified) / (check_s / ref_s),
        "failed_ratio": (len(outcomes) - len(verified)) / len(outcomes),
        "oracle_err": max(errs),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    report = {"check_s": {"p50": values["check_s.p50"], "n": len(verified)},
              "setup_s_samples": setup, "setup_s_unscaled": statistics.median(setup),
              "reference_pass_s": {"mean": ref_s, "n": len(reference)}}
    return values, report


def _per_layer(plain, traced, names, tracer) -> dict:
    """Counts: mean per verified traced check.  Seconds: median per check."""
    done = [o.layers for o in traced if o.verified]
    if not done:
        raise SystemExit("error: no traced check ended verified")
    known = {"trace_overhead", "cli.bytes_written", "classical.derivative_tensor.per_point",
             *tracer.counter_names}
    for span in tracer.span_names:
        known.update((f"{span}.calls", f"{span}_s", f"{span.split('.')[0]}.self_s"))
    values = {}
    for name in names:
        if name not in known:
            raise SystemExit(f"error: no trace figure named {name}")
        if name == "trace_overhead":
            # each input ran untraced and then traced, back to back
            values[name] = statistics.median(t.seconds / p.seconds for p, t in zip(plain, traced)
                                             if p.verified and t.verified)
        elif name.endswith("_s"):
            values[name] = statistics.median(layers.get(name, 0.0) for layers in done)
        else:
            values[name] = sum(layers.get(name, 0) for layers in done) / len(done)
    return values


def result_counts(outcomes, known_failures) -> tuple[int, int]:
    """(attempted, failed) for the result line.

    A check that ends in one of the workload's documented defects is counted
    in the report line (``failures_by_cause``, ``failed_ratio``,
    ``known_defect_checks``) and in the timed rate, but it is not an
    operation of the result line: those count the checks on inputs the
    program supports today, so that a known defect's share of a
    time-bounded run does not read as a difference between two sets of
    runs.  Every other failure is a failed operation."""
    known = sum(1 for o in outcomes if o.cause in known_failures)
    failed = sum(1 for o in outcomes if not o.verified)
    return len(outcomes) - known, failed - known


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bitempo = _import_program()
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.case(0)  # input generation
        workloads.call_unverified(workload, workload.warmup_case())
        if args.probe is not None:
            ready = time.monotonic()
            for i in range(args.probe):
                workloads.call_unverified(workload, workload.case(i))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(repr(ready), repr(rss_mb))
            return 0
        if args.trace:
            tracer = tracing.Tracer(bitempo)
            plain, traced = workloads.run_checks(workload, args.seconds, tracer)
            outcomes = plain + traced
            values = _per_layer(plain, traced, [m["name"] for m in spec["per_layer"]], tracer)
            metrics, report = spec["per_layer"], {}
        else:
            # set-up probes spread over the run, each followed by a slice of
            # checks; the first probe also measures the program's memory
            setup, setup_scaled, outcomes, reference, rss_mb = [], [], [], [], None
            started = time.perf_counter()
            for j in range(workload.SETUP_PROBES):
                # host speed next to the probe, to state its time at REF_PASS_S
                local = [workloads.reference_pass() for _ in range(PROBE_REF_PASSES)]
                seconds, rss = _probe(args.workload, args.seed,
                                      workload.MEMORY_CHECKS if j == 0 else 0)
                local += [workloads.reference_pass() for _ in range(PROBE_REF_PASSES)]
                setup.append(seconds)
                setup_scaled.append(seconds * REF_PASS_S / statistics.fmean(local))
                if j == 0:
                    rss_mb = rss
                left = started + (j + 1) * args.seconds / workload.SETUP_PROBES - time.perf_counter()
                part, _ = workloads.run_checks(workload, left, first=len(outcomes),
                                               reference=reference)
                outcomes += part
            values, report = _end_to_end(outcomes, setup, setup_scaled, rss_mb, reference)
            metrics = spec["end_to_end"]
            units = {**UNITS, **{m["name"]: m["unit"] for m in metrics}}
            report["end_to_end"] = {k: {"value": _finite(v), "unit": units[k]}
                                    for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    causes = dict(Counter(o.cause for o in outcomes if not o.verified))
    attempted, failed = result_counts(outcomes, workload.KNOWN_FAILURES)
    report.update({
        "workload": workload.name, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seconds": args.seconds, "trace": args.trace, "ranges": workload.RANGES,
        "failures_by_cause": causes,
        "known_defect_checks": len(outcomes) - attempted,
        "unknown_failures": sorted(set(causes) - workload.KNOWN_FAILURES),
        "environment": _environment(),
    })
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not report["unknown_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
