"""Self-tests of the benchmark: smoke runs, oracles that can fail, repeatable counts.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bitempo
import run
import tracing
import workloads as wl

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def tiny(name, tmp_path, seed=3):
    return wl.WORKLOADS[name](seed, str(tmp_path), size="tiny")


def traced_layers(workload, checks):
    _, traced = wl.run_checks(workload, math.inf, tracing.Tracer(bitempo), max_checks=checks)
    return traced


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    workload = tiny(name, tmp_path)
    outcomes, _ = wl.run_checks(workload, math.inf, max_checks=8)
    assert len(outcomes) == 8
    assert any(o.verified for o in outcomes)
    assert all(o.cause in workload.KNOWN_FAILURES for o in outcomes if not o.verified)
    assert max(o.oracle_err for o in outcomes if o.oracle_err is not None) <= 1.0


def test_harmonic_counts_known_failures(tmp_path):
    workload = tiny("harmonic_surface", tmp_path)
    outcomes, _ = wl.run_checks(workload, math.inf, max_checks=8)
    # draws 3 and 7 have c1 * c2 < 0: the program exits 3 although the motion exists
    assert [outcomes[i].cause for i in (3, 7)] == ["complex_characteristic"] * 2


def test_derivative_calls_per_check(tmp_path):
    workload = tiny("harmonic_surface", tmp_path)
    traced = traced_layers(workload, 3)
    n = workload.n
    for o in traced:
        assert o.verified
        # one orbit call per grid point, one characteristic call per interior point
        assert o.layers["classical.derivative_tensor.calls"] == n * n + (n - 2) ** 2
        assert o.layers["classical.tensor_at.calls"] == 2 * (n * n + (n - 2) ** 2)
        assert o.layers["cli.run_scenario.calls"] == 1


def test_predicted_zeros(tmp_path):
    harmonic = traced_layers(tiny("harmonic_surface", tmp_path), 1)[0].layers
    assert harmonic.get("core.null_space.calls", 0) == 0
    assert harmonic.get("core.determinant.calls", 0) == 0
    grid = traced_layers(tiny("grid_moments", tmp_path), 1)[0].layers
    assert not [k for k in grid if k.startswith("classical.") and k.endswith(".calls")]
    sweep = traced_layers(tiny("constraint_sweep", tmp_path), 6)
    assert all(o.layers.get("cli.run_scenario.calls", 0) == 0 for o in sweep)
    assert all(o.layers["core.null_space.calls"] >= 1 for o in sweep)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_counts_repeat_for_a_seed(name, tmp_path):
    def counts(sub):
        os.makedirs(tmp_path / sub)
        traced = traced_layers(tiny(name, tmp_path / sub), 4)
        return [{k: v for k, v in o.layers.items() if not k.endswith("_s")
                 and k != "cli.bytes_written"} for o in traced]

    assert counts("a") == counts("b")


def test_tracer_restores_functions():
    before = (bitempo.classical.null_space, bitempo.cli.central_difference,
              bitempo.classical.ForceTensorField.derivative_tensor)
    with tracing.Tracer(bitempo):
        assert bitempo.classical.null_space is not before[0]
    after = (bitempo.classical.null_space, bitempo.cli.central_difference,
             bitempo.classical.ForceTensorField.derivative_tensor)
    assert after == before


def test_self_time_excludes_children():
    spans = [["classical.a", 0, 100, -1], ["core.b", 10, 40, 0], ["core.b", 50, 60, 0]]
    out = tracing.reduce_spans(spans, {})
    assert out["classical.self_s"] == pytest.approx(60e-9)
    assert out["core.self_s"] == pytest.approx(40e-9)
    assert out["core.b.calls"] == 2 and out["classical.a_s"] == pytest.approx(100e-9)


# --- every oracle can fail ---------------------------------------------------

def closed_form_table(case, omega):
    tv = np.linspace(0.0, case.extent, case.n)
    t1, t2 = (a.ravel() for a in np.meshgrid(tv, tv, indexing="ij"))
    s = case.c[0] * t1 + case.c[1] * t2
    x = case.x0 * np.cos(omega * s) + case.v0 / omega * np.sin(omega * s)
    v = -case.x0 * omega * np.sin(omega * s) + case.v0 * np.cos(omega * s)
    phi = np.full_like(s, (case.c[0] / case.c[1]) ** 2)
    return np.column_stack([t1, t2, x, case.c[0] * v, case.c[1] * v, phi, phi, 0 * s])


def test_harmonic_oracle_rejects_off_witness_surface(tmp_path):
    case = tiny("harmonic_surface", tmp_path).case(0)
    results = {"orthogonality_residual": 1e-9, "orbit_residual": 1e-12}
    assert wl.harmonic_oracle(case, closed_form_table(case, case.omega), results) <= 1.0
    off = closed_form_table(case, case.omega * (1 + 1e-4))
    assert wl.harmonic_oracle(case, off, results) > 1.0
    assert wl.harmonic_oracle(case, closed_form_table(case, case.omega),
                              {"orthogonality_residual": 2e-4, "orbit_residual": 0.0}) > 1.0


def test_constraint_oracle_rejects_swapped_verdict(tmp_path):
    workload = tiny("constraint_sweep", tmp_path)
    for i in range(6):
        case = workload.case(i)
        report, det = workload.call(case, None)
        args = (report.kernel_dim, report.orthogonality_residual, report.discrepancy, det)
        assert wl.constraint_oracle(case, report.verdict.value, *args) <= 1.0
        swapped = next(v for v in wl.ConstraintSweep.EXPECTED.values() if v != case.expected)
        assert wl.constraint_oracle(case, swapped, *args) == math.inf
        # a failed cross-validation without a discrepancy is a silent pass
        assert wl.constraint_oracle(case, report.verdict.value, report.kernel_dim,
                                    1.0, None, det) == math.inf


def test_constraint_oracle_rejects_nonzero_determinant(tmp_path):
    case = tiny("constraint_sweep", tmp_path).case(2)  # d = 2, tuned
    assert case.family == "tuned"
    assert wl.constraint_oracle(case, case.expected, 1, 0.0, None,
                                1e-6 * case.smax ** 4) > 1.0


def test_quantum_oracle_rejects_perturbed_trace_value(tmp_path):
    workload = tiny("grid_moments", tmp_path)
    case = workload.case(0)
    out = str(tmp_path / "out")
    os.makedirs(out)
    raw = workload.call(case, out)
    assert all(code == 0 for _, (code, _) in raw)
    trace = wl._read_table(os.path.join(out, "trace.json"))
    points = np.arange(0, workload.qn * workload.qn, 7)
    assert wl.quantum_oracle(case.quantum, workload.qn, trace, points) <= 1.0
    trace[points[3], 4] += 1e-8
    assert wl.quantum_oracle(case.quantum, workload.qn, trace, points) > 1.0


def test_dirac_oracle_rejects_sign_change_under_a_holding_verdict():
    current = np.zeros((4, 6))
    current[:, 3] = [0.5, 0.2, 0.1, 0.3]
    results = {"positivity": {"holds_im": True, "holds_re": False},
               "conservation_residual": 1e-9}
    assert wl.dirac_oracle(results, current) <= 1.0
    current[2, 3] = -0.1
    assert wl.dirac_oracle(results, current) == math.inf


def test_continuity_oracle_needs_second_order_refinement():
    assert wl.continuity_oracle({"refinement_ratio_Q1": 3.9, "refinement_ratio_Q2": 4.0}) <= 1.0
    assert wl.continuity_oracle({"refinement_ratio_Q1": 3.9, "refinement_ratio_Q2": 2.0}) > 1.0


# --- the command ---------------------------------------------------------------

def run_command(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, section):
    proc = run_command(ROOT, "--workload", "constraint_sweep", "--seed", "5",
                       "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in SPEC[section])
    if trace:
        assert result["metrics"]["cli.run_scenario.calls"]["value"] == 0
    else:
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        assert set(report["end_to_end"]) == {"check_s.p50", "checks_per_s", "checks_per_ref",
                                             "failed_ratio", "oracle_err", "peak_rss_mb",
                                             "setup_s"}
        assert all(report["end_to_end"][m["name"]]["unit"] == m["unit"]
                   for m in SPEC["end_to_end"])
        assert len(report["setup_s_samples"]) == wl.ConstraintSweep.SETUP_PROBES
        assert 0 < result["metrics"]["setup_s"]["value"] < 60
        assert 10 < result["metrics"]["peak_rss_mb"]["value"] < 4096


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(tmp_path, "--workload", "grid_moments", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rank_one_verdict_flip_is_a_counted_failure_not_a_pass(tmp_path):
    from types import SimpleNamespace

    workload = tiny("constraint_sweep", tmp_path)
    case = workload.case(0)
    assert case.family == "rank_one"
    report, det = workload.call(case, None)

    def flipped(defect, verdict="two_time_admissible"):
        fake = SimpleNamespace(verdict=SimpleNamespace(value=verdict),
                               kernel_dim=report.kernel_dim, parallelism_defect=defect,
                               orthogonality_residual=report.orthogonality_residual,
                               discrepancy=report.discrepancy)
        return workload.verify(case, (fake, det), None)[0]

    assert workload.verify(case, (report, det), None)[0] is None
    assert flipped(1.2e-8) == "rank_one_verdict_flip"
    assert flipped(0.0, "degenerate") == "rank_one_verdict_flip"
    assert flipped(2e-7) == "oracle_mismatch"
    assert flipped(0.3) == "oracle_mismatch"
    assert flipped(0.0, "no_two_time_motion") == "oracle_mismatch"


def test_reference_passes_keep_their_share_of_check_time(tmp_path):
    reference = []
    outcomes, _ = wl.run_checks(tiny("constraint_sweep", tmp_path), math.inf,
                                max_checks=60, reference=reference)
    check_s = sum(o.seconds for o in outcomes)
    assert reference and sum(reference) >= wl.REFERENCE_SHARE * check_s
    # the last pass was needed: without it the share was not yet reached
    assert sum(reference[:-1]) < wl.REFERENCE_SHARE * check_s


def test_known_defects_are_not_operations_of_the_result_line():
    outcomes = [wl.Outcome(1.0, None, 0.1), wl.Outcome(1.0, "complex_characteristic", None),
                wl.Outcome(1.0, "query_outside_range", None), wl.Outcome(1.0, "oracle_mismatch", 2.0)]
    known = wl.HarmonicSurface.KNOWN_FAILURES
    assert run.result_counts(outcomes, known) == (2, 1)
    assert run.result_counts(outcomes[:3], known) == (1, 0)
