import math
import re

import numpy as np
import pytest

from bitempo import dirac as dr
from bitempo.core import (
    DegenerateKernelError,
    DomainError,
    EvaluationError,
    Grid2T,
    OnShellError,
    Tolerances,
    central_difference,
    determinant,
)


def random_on_shell(rng, m=None):
    m = rng.uniform(0.2, 2.0) if m is None else m
    while True:
        k1, k2 = rng.uniform(-2, 2, size=2)
        k3_sq = k1 ** 2 + k2 ** 2 - m ** 2
        if k3_sq > 1e-3:
            return np.array([k1, k2, rng.choice([-1, 1]) * math.sqrt(k3_sq)]), m


def divergence(sol, pos, part, step=1e-5):
    total = 0.0
    for mu, sign in ((0, 1.0), (1, 1.0), (2, -1.0)):
        def component(u, mu=mu):
            p = list(pos)
            p[mu] = u
            return dr.dirac_current(sol, p, part)[mu]
        total += sign * central_difference(component, pos[mu], step)
    return total


class TestGammaSet:
    def test_clifford_identities_exact(self):
        g = dr.gamma_set()
        assert g.clifford_defect() == 0.0
        eye = np.eye(2)
        np.testing.assert_array_equal(g.g1 @ g.g1 + g.g1 @ g.g1, 2 * eye)
        np.testing.assert_array_equal(g.g3 @ g.g3 + g.g3 @ g.g3, -2 * eye)
        np.testing.assert_array_equal(g.g1 @ g.g2 + g.g2 @ g.g1, np.zeros((2, 2)))
        np.testing.assert_array_equal(g.g1 @ g.g3 + g.g3 @ g.g1, np.zeros((2, 2)))
        np.testing.assert_array_equal(g.g2 @ g.g3 + g.g3 @ g.g2, np.zeros((2, 2)))


class TestPlaneWaveSolver:
    def test_worked_on_shell_point(self):
        sol = dr.solve_plane_wave((1, 1, 1), 1.0)
        op = dr.momentum_operator(sol.k)
        assert np.linalg.norm((-op - np.eye(2)) @ sol.psi_plus) < 1e-12
        assert np.linalg.norm((op - np.eye(2)) @ sol.psi_minus) < 1e-12
        assert np.linalg.norm(sol.psi_plus) == pytest.approx(1.0, abs=1e-12)
        # phase gauge: first nonzero component real positive
        assert sol.psi_plus[0].imag == pytest.approx(0.0, abs=1e-14)
        assert sol.psi_plus[0].real > 0

    @pytest.mark.parametrize("k, m, quantity", [
        ((1.0, 0.0, 0.0), 1e308, "m^2"),
        ((1e200, 0.0, 0.0), 1.0, "k1^2 + k2^2 - k3^2 - m^2"),
    ])
    def test_overflow_names_quantity(self, k, m, quantity):
        with pytest.raises(EvaluationError, match=re.escape(quantity) + " overflows"):
            dr.solve_plane_wave(k, m)

    def test_off_shell_rejected(self):
        with pytest.raises(OnShellError, match="residual"):
            dr.solve_plane_wave((1, 1, 0), 1.0)

    def test_on_shell_iff_vanishing_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k, m = random_on_shell(rng)
            for sign in (-1.0, 1.0):
                det = determinant(sign * dr.momentum_operator(k) - m * np.eye(2))
                assert abs(det) < 1e-12
        for _ in range(20):
            k = rng.uniform(-2, 2, size=3)
            m = rng.uniform(0.2, 2.0)
            residual = k[0] ** 2 + k[1] ** 2 - k[2] ** 2 - m ** 2
            if abs(residual) < 1e-3:
                continue
            det = determinant(-dr.momentum_operator(k) - m * np.eye(2))
            assert abs(det) > 1e-12
            assert abs(det) == pytest.approx(abs(residual), rel=1e-9)

    def test_massless_zero_mode_degenerate(self):
        with pytest.raises(DegenerateKernelError):
            dr.solve_plane_wave((0, 0, 0), 0.0)

    def test_massless_nonzero_k_fine(self):
        sol = dr.solve_plane_wave((1, 0, 1), 0.0)
        op = dr.momentum_operator(sol.k)
        assert np.linalg.norm(op @ sol.psi_plus) < 1e-12


class TestCurrent:
    def test_printed_first_component_expansion(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            k, m = random_on_shell(rng)
            sol = dr.solve_plane_wave(k, m).rescaled(minus=complex(*rng.normal(size=2)))
            cp1, cp2 = sol.psi_plus
            cm1, cm2 = sol.psi_minus
            for _ in range(3):
                pos = rng.uniform(-2, 2, size=3)
                phi = sol.phase(pos)
                j = dr.dirac_current(sol, pos)
                expected = (2 * math.cos(2 * phi)
                            * np.imag(np.conj(cp2) * cp1 + np.conj(cm2) * cm1)
                            + 2 * np.imag(np.conj(cm2) * cp1 + np.conj(cp2) * cm1))
                assert j[0] == pytest.approx(expected, abs=1e-12)

    def test_second_component_is_real_part_form(self):
        # same expansion with the real part in place of the imaginary part
        rng = np.random.default_rng(2)
        k, m = random_on_shell(rng)
        sol = dr.solve_plane_wave(k, m).rescaled(minus=0.3 + 0.8j)
        cp1, cp2 = sol.psi_plus
        cm1, cm2 = sol.psi_minus
        pos = np.array([0.4, -0.7, 0.2])
        phi = sol.phase(pos)
        expected = (2 * math.cos(2 * phi)
                    * np.real(np.conj(cp2) * cp1 + np.conj(cm2) * cm1)
                    + 2 * np.real(np.conj(cm2) * cp1 + np.conj(cp2) * cm1))
        assert dr.dirac_current(sol, pos)[1] == pytest.approx(expected, abs=1e-12)

    def test_rest_frame_pure_branch_unmodulated(self):
        # diagonal quadratic form real: no cosine modulation in time components
        sol = dr.solve_plane_wave((1.0, 0.0, 0.0), 1.0).rescaled(minus=0.0)
        vals = [dr.dirac_current(sol, (t1, 0.3, -0.8))[0] for t1 in np.linspace(0, 6, 25)]
        assert np.ptp(vals) < 1e-14

    def test_conservation_small_step(self):
        rng = np.random.default_rng(3)
        for part in ("imaginary", "real"):
            for _ in range(5):
                k, m = random_on_shell(rng)
                sol = dr.solve_plane_wave(k, m).rescaled(
                    plus=complex(*rng.normal(size=2)), minus=complex(*rng.normal(size=2)))
                for _ in range(3):
                    pos = rng.uniform(-1, 1, size=3)
                    assert abs(divergence(sol, pos, part)) < 1e-6

    def test_conservation_residual_matches_probe_loop(self):
        # the probe loop the CLI ran before conservation_residual existed
        probes = [(-0.4, 0.3, 0.7), (0.9, -0.6, 0.1), (0.2, 0.8, -0.9)]
        rng = np.random.default_rng(7)
        for part in ("imaginary", "real"):
            for fd_step in (1e-5, 1e-3):
                tol = Tolerances(fd_step=fd_step)
                k, m = random_on_shell(rng)
                sol = dr.solve_plane_wave(k, m, tol).rescaled(
                    plus=complex(*rng.normal(size=2)), minus=complex(*rng.normal(size=2)))
                got = dr.conservation_residual(sol, part, tol)
                assert got == max(abs(divergence(sol, pos, part, tol.step_for(pos)))
                                  for pos in probes)
                assert got < 1e-4

    def test_conservation_second_order_in_step(self):
        rng = np.random.default_rng(4)
        k, m = random_on_shell(rng)
        sol = dr.solve_plane_wave(k, m).rescaled(minus=0.7 - 0.2j)
        pos = (0.3, 0.25, -0.4)
        coarse = abs(divergence(sol, pos, "imaginary", step=0.08))
        fine = abs(divergence(sol, pos, "imaginary", step=0.04))
        assert coarse / fine > 3.0

    def test_sine_variant_changes_sign(self):
        # the rejected variant carries sin(2 k.x) modulation and cannot keep
        # one sign on any window covering a full oscillation
        k3 = math.sqrt(0.3 ** 2 + 1.2 ** 2 - 1.0)
        sol = dr.solve_plane_wave((0.3, 1.2, k3), 1.0).rescaled(minus=0.4 + 0.1j)
        ts = np.linspace(0.0, 4 * math.pi, 201)
        vals = np.array([dr.dirac_current(sol, (t, 0.0, 0.0), part="real")[0] for t in ts])
        assert vals.min() < -1e-6 and vals.max() > 1e-6

    def test_unknown_part_rejected(self):
        sol = dr.solve_plane_wave((1, 1, 1), 1.0)
        with pytest.raises(DomainError):
            dr.dirac_current(sol, (0, 0, 0), part="absolute")


class TestPositivity:
    def grid(self):
        return Grid2T(0.0, 6 * math.pi, 0.0, 6 * math.pi, 41, 41)

    def test_constructed_holding_case(self):
        sol = dr.solve_plane_wave((1.0, 0.0, 0.0), 1.0).rescaled(minus=-1j)
        report = dr.positivity_check(sol, self.grid())
        assert report.holds == (True, True)
        assert report.min_j1 >= -1e-10
        assert report.min_j2 >= -1e-10
        assert report.min_j1 > 1.0  # strictly positive first density

    def test_pure_branch_marginal(self):
        sol = dr.solve_plane_wave((1.0, 0.0, 0.0), 1.0).rescaled(minus=0.0)
        report = dr.positivity_check(sol, self.grid())
        assert report.lhs_im == pytest.approx(0.0, abs=1e-14)
        assert report.rhs_im == pytest.approx(0.0, abs=1e-14)
        assert report.holds[0]
        assert abs(report.min_j1) < 1e-12

    def test_constructed_violating_case(self):
        k3 = math.sqrt(0.3 ** 2 + 1.2 ** 2 - 1.0)
        sol = dr.solve_plane_wave((0.3, 1.2, k3), 1.0).rescaled(minus=0.0)
        report = dr.positivity_check(sol, self.grid())
        assert not report.holds[0]
        assert report.min_j1 < -1e-6

    def test_inequalities_predict_grid_minimum(self):
        rng = np.random.default_rng(5)
        grid = self.grid()
        for _ in range(10):
            k, m = random_on_shell(rng)
            sol = dr.solve_plane_wave(k, m).rescaled(
                plus=complex(*rng.normal(size=2)), minus=complex(*rng.normal(size=2)))
            report = dr.positivity_check(sol, grid)
            if report.holds[0] and report.sign_im >= 0:
                assert report.min_j1 >= -1e-10
            if not report.holds[0] and report.rhs_im < report.lhs_im * 0.99:
                # strict violation: modulation must push the density negative
                # somewhere once the grid covers full oscillations
                assert report.min_j1 < 1e-12


class TestEffectiveHamiltonian:
    def test_origin_is_hermitian(self):
        assert dr.hermiticity_defect([(0.0, 0.0)], m=1.3) == 0.0

    def test_defect_driven_by_first_product(self):
        # g1 g2 is anti-Hermitian (it drives the defect), g1 g3 is Hermitian
        g = dr.gamma_set()
        p12, p13 = g.g1 @ g.g2, g.g1 @ g.g3
        assert np.max(np.abs(p12 + p12.conj().T)) == 0.0
        assert np.max(np.abs(p13 - p13.conj().T)) == 0.0
        anti_mag_13 = float(np.max(np.abs(p13 - p13.conj().T))) / 2
        assert dr.hermiticity_defect([(1.0, 0.0)]) == pytest.approx(2.0)
        assert dr.hermiticity_defect([(0.0, 1.0)]) == pytest.approx(2.0 * abs(1.0) * anti_mag_13)

    def test_generic_samples_positive(self):
        rng = np.random.default_rng(6)
        samples = [(k2, k3) for k2, k3 in rng.uniform(-2, 2, size=(20, 2))
                   if abs(k2) > 1e-6]
        assert dr.hermiticity_defect(samples, m=0.5) > 0.0
        assert dr.hermiticity_defect() > 0.0


class TestModeMass:
    def test_worked_values(self):
        assert dr.effective_mode_mass(1.0, 0.0).m_eff == pytest.approx(1.0)
        assert dr.effective_mode_mass(1.0, 1.0).m_eff == pytest.approx(0.0, abs=1e-15)
        assert dr.effective_mode_mass(1.0, 0.6).m_eff == pytest.approx(0.8, abs=1e-12)

    def test_tachyonic_beyond_cutoff(self):
        mode = dr.effective_mode_mass(1.0, 1.5)
        assert mode.tachyonic
        assert math.isnan(mode.m_eff)
        assert mode.c_tau_gt_R is False

    def test_zero_frequency_trivially_fine(self):
        mode = dr.effective_mode_mass(2.0, 0.0)
        assert not mode.tachyonic
        assert math.isinf(mode.tau)
        assert mode.classification_consistent

    def test_massless_with_mode_is_tachyonic(self):
        mode = dr.effective_mode_mass(0.0, 0.5)
        assert mode.tachyonic
        assert mode.classification_consistent

    def test_classification_agreement_sweep(self):
        for hbar, c in ((1.0, 1.0), (0.3, 2.0), (2.5, 0.7)):
            for m in (0.5, 1.0, 3.0):
                for omega in np.linspace(0.0, 4.0, 81):
                    mode = dr.effective_mode_mass(m, float(omega), hbar, c)
                    assert mode.classification_consistent
                    boundary = m * c ** 2 / hbar
                    assert mode.tachyonic == (omega > boundary)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            dr.effective_mode_mass(-1.0, 0.5)

    @pytest.mark.parametrize("args, quantity", [
        ((1e308, 1.0), "m^2"),
        ((1.0, 1e308), "(hbar omega / c^2)^2"),
        ((1.0, 1e300, 1e10), "(hbar omega / c^2)^2"),
        ((1.0, 1.0, 1.0, 1e200), "c^2"),
    ])
    def test_overflow_names_quantity(self, args, quantity):
        with pytest.raises(EvaluationError, match=re.escape(quantity) + " overflows"):
            dr.effective_mode_mass(*args)


class TestDensitySeparability:
    def test_on_shell_density_separable(self):
        rng = np.random.default_rng(7)
        grid = Grid2T(0, 3, 0, 3, 17, 15, x_min=-2, x_max=2, nx=13)
        for _ in range(5):
            k, m = random_on_shell(rng)
            sol = dr.solve_plane_wave(k, m).rescaled(minus=complex(*rng.normal(size=2)))
            report = dr.dirac_density_separability(sol, grid)
            assert report.separability.residual < 1e-8
            assert report.total_fit.residual < 1e-8

    def test_zero_spinors_zero_density(self):
        sol = dr.solve_plane_wave((1, 1, 1), 1.0).rescaled(plus=0.0, minus=0.0)
        grid = Grid2T(0, 3, 0, 3, 9, 9, x_min=-2, x_max=2, nx=9)
        report = dr.dirac_density_separability(sol, grid)
        np.testing.assert_allclose(report.rho, 0.0, atol=1e-15)
