"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (run with -s to see them
on success) and fails the suite if its criterion is not met.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from bitempo import classical as cl
from bitempo import cli
from bitempo import continuity as ct
from bitempo import dirac as dr
from bitempo import quantum as q
from bitempo.core import (
    Grid2T,
    TimePlanePoint,
    Tolerances,
    central_difference,
    determinant,
)

from test_classical import tuned_affine_force
from test_dirac import divergence, random_on_shell
from test_quantum import measure_swept_phase


def report(num, ok, desc):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line


def test_criterion_01_classical_witness():
    started = time.perf_counter()
    tol = Tolerances()
    grid = Grid2T(0.0, 2 * math.pi, 0.0, 2 * math.pi, 101, 101)
    g = lambda x: -x
    c = (1.0, 2.0)
    force = cl.rank_one_force(c, g)
    surf = cl.integrate_rank_one_1d(g, c, 1.0, 0.0, grid, tol=tol)

    T1, T2 = np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij")
    surface_err = float(np.max(np.abs(surf.values - np.cos(T1 + 2 * T2))))

    h = 1e-3
    I1, I2 = np.meshgrid(grid.t1_values[1:-1], grid.t2_values[1:-1], indexing="ij")
    g1 = (surf.position(I1 + h, I2) - surf.position(I1 - h, I2)) / (2 * h)
    g2 = (surf.position(I1, I2 + h) - surf.position(I1, I2 - h)) / (2 * h)
    inner = (slice(1, -1), slice(1, -1))
    xval = surf.values[inner]
    fp = force.derivative_tensor(xval)[..., 0, :, :, 0]
    vec, _ = cl.characteristic_field_1d(fp, xval, tol)
    norm = np.hypot(vec[..., 0], vec[..., 1])
    moving = norm > 0
    ortho = float(np.max(np.abs(vec[..., 0] * g1 + vec[..., 1] * g2)[moving] / norm[moving]))
    velocity = surf.velocity[inner]
    _, _, residual = cl.orbit_relation_1d(fp, c[0] * velocity, c[1] * velocity, tol)
    defined = np.isfinite(residual)
    orbit_res = float(np.max(residual[defined]))
    orbit_checked = int(defined.sum())
    elapsed = time.perf_counter() - started
    ok = (surface_err < 1e-6 and ortho < 1e-4 and orbit_res < 1e-6
          and orbit_checked > 5000 and elapsed < 5.0)
    report(1, ok, f"harmonic witness: surface err {surface_err:.2e}, "
                  f"orthogonality {ortho:.2e}, orbit {orbit_res:.2e}, {elapsed:.2f}s")


def test_criterion_02_consistency_condition():
    rng = np.random.default_rng(100)
    tol = Tolerances()

    def normalized(force, x):
        fp = force.derivative_tensor(x)[0, :, :, 0]
        scale = max(1.0, abs(fp[0, 0] * fp[1, 1]), abs(fp[0, 1] * fp[1, 0]))
        return cl.consistency_residual_1d(fp) / scale

    worst_rank_one = 0.0
    for _ in range(100):
        cvec = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        force = cl.rank_one_force(cvec, lambda x, co=coeffs: np.polyval(co, x))
        worst_rank_one = max(worst_rank_one, normalized(force, rng.uniform(-1, 1)))

    best_generic = math.inf
    for _ in range(100):
        coeffs = {key: rng.uniform(0.2, 1.0, size=3) * rng.choice([-1, 1], 3)
                  for key in ("11", "12", "22")}
        force = cl.polynomial_force_1d(coeffs)
        best_generic = min(best_generic, normalized(force, rng.uniform(-1, 1)))

    ok = worst_rank_one < 1e-9 and best_generic > 1e-3
    report(2, ok, f"consistency: rank-one worst {worst_rank_one:.2e}, "
                  f"generic best {best_generic:.2e}")


def test_criterion_03_higher_dimensional_determinants():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    samples = 0
    silent_failures = 0
    genuine_validation = 0
    det_ok = True
    rank_ok = True

    for d, count in ((2, 250), (3, 250)):
        for _ in range(count):
            lin = rng.normal(size=(d, d))
            cvec = rng.uniform(0.5, 1.5, size=2)
            force = cl.rank_one_force(cvec, lambda p, L=lin: L @ p, d=d)
            x = rng.uniform(-1, 1, size=d)
            m = cl.build_constraint_matrix(force, x)
            smax = np.linalg.svd(m, compute_uv=False)[0]
            det = float(determinant(m))
            det_ok = det_ok and abs(det) < 1e-10 * max(smax, 1e-30) ** (2 * d)
            rep = cl.classify(force, x)
            rank_ok = rank_ok and rep.kernel_dim >= 1
            passed = (rep.orthogonality_residual is not None
                      and rep.orthogonality_residual < 1e-8)
            if not passed and rep.discrepancy is None:
                silent_failures += 1
            samples += 1

    for d, count in ((2, 250), (3, 150)):
        for _ in range(count):
            force = cl.affine_force(d, rng.normal(size=(d, 2, 2, d)))
            x = rng.uniform(-1, 1, size=d)
            rep = cl.classify(force, x)
            rank_ok = rank_ok and rep.kernel_dim == 0
            samples += 1

    for _ in range(100):
        force = tuned_affine_force(3, rng)
        rep = cl.classify(force, np.zeros(3))
        if rep.kernel_dim >= 1:
            passed = (rep.orthogonality_residual is not None
                      and rep.orthogonality_residual < 1e-8)
            if passed:
                genuine_validation += 1
            elif rep.discrepancy is None:
                silent_failures += 1
        samples += 1

    elapsed = time.perf_counter() - started
    ok = (det_ok and rank_ok and silent_failures == 0
          and genuine_validation >= 80 and samples == 1000 and elapsed < 10.0)
    report(3, ok, f"determinant fields: {samples} samples, no silent pass "
                  f"({silent_failures} silent), chain validated on "
                  f"{genuine_validation} admissible samples, {elapsed:.2f}s")


def test_criterion_04_quantum_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    n = 5
    e1, e2 = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
    x0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x0 = 0.5 * (x0 + x0.conj().T)
    system = q.TwoTimeQuantumSystem(e1, e2, x0)
    psi = q.StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
    hbar = 1.0
    grid = Grid2T(0.0, 3.0, -1.5, 1.5, 51, 51)
    trace = q.variance_trace(system, psi, grid, hbar)

    h1, h2 = np.diag(e1), np.diag(e2)
    worst = 0.0
    for i, t1 in enumerate(grid.t1_values):
        for j, t2 in enumerate(grid.t2_values):
            u = expm(-1j * (h1 * t1 + h2 * t2) / hbar)
            pv = u @ psi.psi
            mean = np.vdot(pv, x0 @ pv)
            second = np.vdot(x0 @ pv, x0 @ pv)
            worst = max(worst, abs(mean - trace.mean[i, j]),
                        abs(second - trace.second_moment[i, j]))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    report(4, ok, f"dense-evolution oracle: worst moment diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_single_time_direction_per_element():
    rng = np.random.default_rng(103)
    n = 5
    system = q.TwoTimeQuantumSystem(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                                    _random_hermitian(rng, n))
    d1, d2 = system.spacing_matrices()
    worst_tau = 0.0
    worst_plane = 0.0
    pairs = 0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if d1[a, b] == 0.0 and d2[a, b] == 0.0:
                continue
            pairs += 1
            for _ in range(100):
                tau1 = rng.uniform(-4, 4)
                va = q.evolved_elements(
                    system, *q.element_times(system, tau1, rng.uniform(-4, 4)))[a, b]
                vb = q.evolved_elements(
                    system, *q.element_times(system, tau1, rng.uniform(-4, 4)))[a, b]
                worst_tau = max(worst_tau, abs(va - vb) / max(1.0, abs(va)))
            h = 1e-5
            for _ in range(10):
                t1, t2 = rng.uniform(-1, 1, size=2)
                f = lambda u, v: q.evolved_elements(system, u, v)[a, b]
                d1x = (f(t1 + h, t2) - f(t1 - h, t2)) / (2 * h)
                d2x = (f(t1, t2 + h) - f(t1, t2 - h)) / (2 * h)
                worst_plane = max(worst_plane, abs(d1[a, b] * d2x - d2[a, b] * d1x))
    ok = worst_tau < 1e-12 and worst_plane < 1e-4 and pairs == 20
    report(5, ok, f"per-element direction: tau2 dependence {worst_tau:.2e}, "
                  f"plane-constraint residual {worst_plane:.2e} over {pairs} pairs")


def _random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (x + x.conj().T)


def test_criterion_06_second_derivative_check():
    rng = np.random.default_rng(104)
    n = 4
    hbar = 0.8
    system = q.TwoTimeQuantumSystem(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                                    _random_hermitian(rng, n))
    d1s, d2s = system.spacing_matrices()
    h = 1e-4
    worst = 0.0
    checked = 0
    for a in range(n):
        for b in range(n):
            if abs(d1s[a, b] * d2s[a, b]) < 1e-2 or abs(system.X0[a, b]) < 1e-2:
                continue
            for _ in range(5):
                t1, t2 = rng.uniform(-1, 1, size=2)
                f = lambda u, v: q.evolved_elements(system, u, v, hbar)[a, b]

                def d1(fn, u, v):
                    return (fn(u + h, v) - fn(u - h, v)) / (2 * h)

                def d2(fn, u, v):
                    return (fn(u, v + h) - fn(u, v - h)) / (2 * h)

                mixed_12 = d1(lambda uu, vv: d2(f, uu, vv), t1, t2)
                mixed_21 = d2(lambda uu, vv: d1(f, uu, vv), t1, t2)
                expected = f(t1, t2) * (1j * d1s[a, b] / hbar) * (1j * d2s[a, b] / hbar)
                worst = max(worst,
                            abs(mixed_12 - expected) / abs(expected),
                            abs(mixed_21 - expected) / abs(expected))
                checked += 1
    ok = worst < 1e-4 and checked >= 20
    report(6, ok, f"mixed-partial spacing product: relative residual {worst:.2e} "
                  f"over {checked} probes, symmetric in order")


def test_criterion_07_visibility_classifier():
    rng = np.random.default_rng(105)
    agree = 0
    for _ in range(50):
        budget = q.UncertaintyBudget(rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0, 0.0,
                                     TimePlanePoint(*rng.uniform(-4, 4, size=2)),
                                     hbar=rng.uniform(0.5, 2.0))
        swept = measure_swept_phase(budget)
        if swept < 0.2 * math.pi:
            expected = q.Visibility.FROZEN
        elif swept >= 2 * math.pi:
            expected = q.Visibility.OSCILLATING
        else:
            expected = q.Visibility.THRESHOLD
        agree += q.uncertainty_visibility(budget) is expected
    boundary = q.uncertainty_visibility(
        q.UncertaintyBudget(1.0, 2.0, 0.0, 0.0, TimePlanePoint(2 * math.pi, 0.0)))
    ok = agree == 50 and boundary is q.Visibility.OSCILLATING
    report(7, ok, f"visibility: {agree}/50 oracle agreement, boundary {boundary.value}")


def test_criterion_08_angle_width_bounds():
    rng = np.random.default_rng(106)
    worked = q.angle_and_width(
        q.UncertaintyBudget(1.0, 2.0, 0.1, 0.2, TimePlanePoint(3.0, 4.0), hbar=1.0))
    worked_ok = (abs(math.cos(worked.phi) - 1 / (5 * math.sqrt(5))) < 1e-12
                 and abs(worked.bound - 0.1) < 1e-12)
    holds = 0
    for _ in range(100):
        de = rng.uniform(0.1, 3.0, size=2)
        dde = rng.uniform(0.0, 0.5, size=2)
        hbar = rng.uniform(0.5, 2.0)
        radius = rng.uniform(math.sqrt(2) * 1.001, 20.0) * hbar / math.hypot(*de)
        ang = rng.uniform(0.0, 2 * math.pi)
        budget = q.UncertaintyBudget(de[0], de[1], dde[0], dde[1],
                                     TimePlanePoint(radius * math.cos(ang),
                                                    radius * math.sin(ang)), hbar)
        rep = q.angle_and_width(budget)
        holds += (rep.dphi_exact <= rep.bound * (1 + 1e-12)
                  and rep.dphi_lowest_order <= rep.bound * (1 + 1e-12))
    ok = worked_ok and holds == 100
    report(8, ok, f"angle width: worked values exact, bounds held {holds}/100")


def test_criterion_09_continuity():
    grid = Grid2T(0.0, 2.0, 0.0, 3.0, 41, 41, x_min=-6.0, x_max=6.0, nx=61)
    current, _ = ct.manufactured_current(grid)
    coarse = ct.charges(current)
    fine, _ = ct.manufactured_current(grid.refined())
    refined = ct.charges(fine)
    ratio1 = coarse.dQ1_residual / refined.dQ1_residual
    ratio2 = coarse.dQ2_residual / refined.dQ2_residual

    from test_continuity import separable_density
    rho = separable_density(grid)
    sep_pass = ct.separability_check(rho).residual
    x = grid.x_values[:, None, None]
    t1 = grid.t1_values[None, :, None]
    t2 = grid.t2_values[None, None, :]
    sep_fail = ct.separability_check(rho + np.exp(-x ** 2) * t1 * t2).residual

    tgrid = Grid2T(0.0, 2 * math.pi, 0.0, 2 * math.pi, 41, 41)
    T1, T2 = np.meshgrid(tgrid.t1_values, tgrid.t2_values, indexing="ij")
    force11 = lambda v: -(v - 0.5)
    allowed = ct.ehrenfest_limit_residual(np.cos(T1) + 0.5, tgrid, force_11=force11)
    excluded = ct.ehrenfest_limit_residual(np.cos(T1) + np.cos(T2), tgrid, force_11=force11)

    ok = (ratio1 > 3.0 and ratio2 > 3.0
          and sep_pass < 1e-10 and sep_fail > 1e-3
          and excluded.cross_defect_1 > 1e-2
          and allowed.cross_defect_1 < 1e-10
          and allowed.mixed_partial_residual < 1e-10
          and allowed.f2_constant)
    report(9, ok, f"continuity: refinement ratios ({ratio1:.2f}, {ratio2:.2f}), "
                  f"separability {sep_pass:.1e}/{sep_fail:.1e}, "
                  f"Ehrenfest defect {excluded.cross_defect_1:.2e} vs "
                  f"{allowed.cross_defect_1:.1e}")


def test_criterion_10_dirac():
    rng = np.random.default_rng(107)
    clifford = dr.GAMMAS.clifford_defect()

    dets_ok = True
    for _ in range(20):
        k, m = random_on_shell(rng)
        dets_ok = dets_ok and abs(determinant(-dr.momentum_operator(k) - m * np.eye(2))) < 1e-12
    for _ in range(20):
        k = rng.uniform(-2, 2, size=3)
        m = rng.uniform(0.2, 2.0)
        if abs(k[0] ** 2 + k[1] ** 2 - k[2] ** 2 - m ** 2) < 1e-3:
            continue
        dets_ok = dets_ok and abs(determinant(-dr.momentum_operator(k) - m * np.eye(2))) > 1e-12

    conservation = 0.0
    for _ in range(5):
        k, m = random_on_shell(rng)
        sol = dr.solve_plane_wave(k, m).rescaled(plus=complex(*rng.normal(size=2)),
                                                 minus=complex(*rng.normal(size=2)))
        pos = rng.uniform(-1, 1, size=3)
        conservation = max(conservation, abs(divergence(sol, pos, "imaginary")))
    k, m = random_on_shell(rng)
    sol = dr.solve_plane_wave(k, m).rescaled(minus=0.6 - 0.3j)
    pos = (0.3, 0.25, -0.4)
    ratio = abs(divergence(sol, pos, "imaginary", step=0.08)) / \
        abs(divergence(sol, pos, "imaginary", step=0.04))

    grid = Grid2T(0.0, 6 * math.pi, 0.0, 6 * math.pi, 41, 41)

    def positivity(sol):
        return dr.positivity_check(sol, dr.current_grid(sol, grid))

    holding = positivity(dr.solve_plane_wave((1.0, 0.0, 0.0), 1.0).rescaled(minus=-1j))
    k3 = math.sqrt(0.3 ** 2 + 1.2 ** 2 - 1.0)
    violating = positivity(dr.solve_plane_wave((0.3, 1.2, k3), 1.0).rescaled(minus=0.0))

    origin_defect = dr.hermiticity_defect([(0.0, 0.0)], m=1.0)
    generic_defect = min(dr.hermiticity_defect([(k2, k3_)], m=0.5)
                         for k2, k3_ in rng.uniform(0.2, 2.0, size=(10, 2)))

    ok = (clifford == 0.0 and dets_ok and conservation < 1e-6 and ratio > 2.5
          and holding.holds == (True, True) and holding.min_density_sampled >= -1e-10
          and (not violating.holds[0]) and violating.min_j1 < -1e-6
          and origin_defect == 0.0 and generic_defect > 0.0)
    report(10, ok, f"dirac: clifford {clifford}, conservation {conservation:.2e}, "
                   f"refinement ratio {ratio:.2f}, positivity consistent, "
                   f"defect origin {origin_defect} generic {generic_defect:.2f}")


def test_criterion_11_mode_mass():
    pair = dr.effective_mode_mass(1.0, np.array([0.6, 1.0]))
    a, b = pair.m_eff
    omegas = np.linspace(0.0, 2.0, 81)
    sweep = dr.effective_mode_mass(1.0, omegas)
    sweep_ok = (sweep.classification_consistent.all()
                and np.array_equal(sweep.tachyonic, omegas > 1.0))
    ok = (abs(a - 0.8) < 1e-12 and abs(b) < 1e-15
          and not pair.tachyonic[0] and sweep_ok)
    report(11, ok, f"mode mass: m_eff(1,0.6)={a}, m_eff(1,1)={b}, "
                   f"sweep classification consistent")


def test_criterion_12_cli_suite(tmp_path):
    started = time.perf_counter()
    from test_cli import SCENARIO_DIR, all_scenarios, scenario_path

    runs_ok = True
    for name in all_scenarios():
        cfg = cli.load_config(scenario_path(name))
        command = cfg.get("scenario", "command")
        code = cli.main([command, "--config", scenario_path(name),
                         "--out", str(tmp_path / "run1")])
        runs_ok = runs_ok and code == 0

    deterministic = True
    for name in all_scenarios():
        r1 = cli.run_scenario(scenario_path(name), str(tmp_path / "d1"))
        r2 = cli.run_scenario(scenario_path(name), str(tmp_path / "d2"))
        for key in ("scenario", "comparable"):
            deterministic = deterministic and (
                json.dumps(r1[key], sort_keys=True) == json.dumps(r2[key], sort_keys=True))

    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\ncommand = nonsense\n")
    missing = tmp_path / "missing.ini"
    missing.write_text("[scenario]\ncommand = uncertainty\n")
    codes_ok = (cli.main(["uncertainty", "--config", str(bad)]) == 2
                and cli.main(["uncertainty", "--config", str(missing),
                              "--out", str(tmp_path)]) == 3)

    elapsed = time.perf_counter() - started
    ok = runs_ok and deterministic and codes_ok and elapsed < 60.0
    report(12, ok, f"cli suite: all scenarios clean, reports deterministic, "
                   f"exit codes honored, {elapsed:.1f}s")
