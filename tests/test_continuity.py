import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitempo import continuity as ct
from bitempo.core import DomainError, Grid2T

_trapz = getattr(np, "trapezoid", None) or np.trapz


def space_grid(n1=41, n2=41, nx=61):
    return Grid2T(0.0, 2.0, 0.0, 3.0, n1, n2, x_min=-6.0, x_max=6.0, nx=nx)


def separable_density(grid):
    """Normalized 0.6*rho1(x,t1) + 0.4*rho2(x,t2) samples.

    Each component family is normalized slice by slice (a function of its own
    time only), so the combination stays separable and integrates to one.
    """
    x = grid.x_values[:, None, None]
    t1 = grid.t1_values[None, :, None]
    t2 = grid.t2_values[None, None, :]
    rho1 = np.exp(-(x - 0.3 * np.sin(t1)) ** 2)
    rho1 = rho1 / _trapz(rho1, grid.x_values, axis=0)[None, :, :]
    rho2 = np.exp(-((x - 0.5) / (1.0 + 0.2 * np.cos(t2))) ** 2)
    rho2 = rho2 / _trapz(rho2, grid.x_values, axis=0)[None, :, :]
    return np.broadcast_to(0.6 * rho1, (grid.nx, grid.n1, grid.n2)).copy() \
        + np.broadcast_to(0.4 * rho2, (grid.nx, grid.n1, grid.n2))


class TestCharges:
    def test_zero_current(self):
        grid = space_grid(5, 5, 7)
        zero = np.zeros((grid.nx, grid.n1, grid.n2))
        field = ct.CurrentField(grid=grid, j1=zero, j2=zero, j_space=zero)
        report = ct.charges(field)
        np.testing.assert_array_equal(report.Q1, 0.0)
        np.testing.assert_array_equal(report.Q2, 0.0)
        assert report.dQ1_residual == 0.0 and report.dQ2_residual == 0.0

    def test_manufactured_conservation_and_refinement(self):
        grid = space_grid()
        current, _ = ct.manufactured_current(grid)
        report = ct.charges(current)
        assert report.dQ1_residual < 1e-2
        assert not any("j2" in w or "j1" in w or "j_space" in w
                       for w in report.boundary_warnings)
        fine, _ = ct.manufactured_current(grid.refined())
        fine_report = ct.charges(fine)
        assert report.dQ1_residual / fine_report.dQ1_residual > 3.0
        assert report.dQ2_residual / fine_report.dQ2_residual > 3.0

    def test_separable_time_factor_conserved(self):
        # j1 = f(x) g(t2), j2 = 0, j_space = 0 satisfies the balance exactly
        grid = space_grid(21, 21, 41)
        x = grid.x_values[:, None, None]
        t2 = grid.t2_values[None, None, :]
        j1 = np.broadcast_to(np.exp(-x ** 2) * np.sin(t2),
                             (grid.nx, grid.n1, grid.n2)).copy()
        zero = np.zeros_like(j1)
        field = ct.CurrentField(grid=grid, j1=j1, j2=zero, j_space=zero)
        report = ct.charges(field)
        assert report.dQ1_residual < 1e-6

    def test_known_source_rate(self):
        # the asymmetric range checks that the rate integrates over [x_min, x_max]
        for x_min in (-6.0, 0.0):
            grid = Grid2T(0.0, 2.0, 0.0, 3.0, 401, 161, x_min=x_min, x_max=6.0, nx=81)
            current, rate = ct.manufactured_current(grid, with_source=True)
            report = ct.charges(current)
            dq1 = (report.Q1[2:] - report.Q1[:-2]) / (2 * grid.d1)
            np.testing.assert_allclose(dq1, rate(grid.t1_values[1:-1]), atol=1e-4)

    def test_boundary_warning_on_nondecaying(self):
        grid = space_grid(9, 9, 9)
        ones = np.ones((grid.nx, grid.n1, grid.n2))
        field = ct.CurrentField(grid=grid, j1=ones, j2=ones, j_space=ones)
        report = ct.charges(field)
        assert len(report.boundary_warnings) >= 3

    @given(st.floats(0.1, 50).flatmap(lambda a: st.sampled_from([a, -a])))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_current(self, factor):
        grid = space_grid(9, 9, 15)
        current, _ = ct.manufactured_current(grid)
        base = ct.charges(current, normalize=False)
        scaled_field = ct.CurrentField(grid=grid, j1=factor * current.j1,
                                       j2=factor * current.j2,
                                       j_space=factor * current.j_space)
        scaled = ct.charges(scaled_field, normalize=False)
        np.testing.assert_allclose(scaled.Q1, factor * base.Q1, atol=1e-12 * abs(factor))
        assert scaled.dQ1_residual == pytest.approx(abs(factor) * base.dQ1_residual,
                                                    rel=1e-9, abs=1e-15)

    def test_normalization_rescales_constants(self):
        grid = space_grid(9, 9, 15)
        x = grid.x_values[:, None, None]
        j1 = np.broadcast_to(np.exp(-x ** 2), (grid.nx, grid.n1, grid.n2)).copy()
        zero = np.zeros_like(j1)
        field = ct.CurrentField(grid=grid, j1=j1, j2=zero, j_space=zero)
        report = ct.charges(field, alpha=2.0, beta=1.0)
        assert report.Q_total[0, 0] == pytest.approx(1.0, abs=1e-12)


def alternating_separable_fit(R, max_sweeps=100):
    """Reference: alternating projections onto r1(x, t1) and r2(x, t2)."""
    r1 = np.zeros(R.shape[:2])
    r2 = np.zeros((R.shape[0], R.shape[2]))
    scale = float(np.linalg.norm(R))
    for _ in range(max_sweeps):
        r1_new = (R - r2[:, None, :]).mean(axis=2)
        r2_new = (R - r1_new[:, :, None]).mean(axis=1)
        delta = max(float(np.max(np.abs(r1_new - r1))), float(np.max(np.abs(r2_new - r2))))
        r1, r2 = r1_new, r2_new
        if delta <= 1e-15 * max(1.0, scale):
            break
    residual = float(np.linalg.norm(R - r1[:, :, None] - r2[:, None, :])) / max(scale, 1e-300)
    return r1, r2, residual


class TestSeparability:
    def test_exactly_separable(self):
        grid = space_grid(21, 19, 31)
        rho = separable_density(grid)
        report = ct.separability_check(rho)
        assert report.residual < 1e-10
        assert report.passed

    def test_product_term_detected(self):
        grid = space_grid(21, 19, 31)
        rho = separable_density(grid)
        x = grid.x_values[:, None, None]
        t1 = grid.t1_values[None, :, None]
        t2 = grid.t2_values[None, None, :]
        rho_bad = rho + np.exp(-x ** 2) * t1 * t2
        report = ct.separability_check(rho_bad)
        assert report.residual > 1e-3

    def test_constant_density(self):
        report = ct.separability_check(np.full((5, 7, 9), 2.5))
        assert report.residual == pytest.approx(0.0, abs=1e-14)

    def test_residual_invariant_under_separable_additions(self):
        rng = np.random.default_rng(1)
        grid = space_grid(11, 13, 9)
        x = grid.x_values[:, None, None]
        t1 = grid.t1_values[None, :, None]
        t2 = grid.t2_values[None, None, :]
        rho = np.exp(-x ** 2) * np.sin(t1) * np.cos(t2)  # not separable
        base = ct.separability_check(rho)
        add = (rng.normal() * np.exp(-x ** 2) * np.cos(2 * t1)
               + rng.normal() * np.exp(-(x - 1) ** 2) * np.sin(t2))
        shifted = ct.separability_check(rho + add)
        base_abs = base.residual * np.linalg.norm(rho)
        shifted_abs = shifted.residual * np.linalg.norm(rho + add)
        assert shifted_abs == pytest.approx(base_abs, rel=1e-8)

    def test_matches_alternating_projections(self):
        rng = np.random.default_rng(7)
        grid = space_grid(13, 11, 9)
        x = grid.x_values[:, None, None]
        t1 = grid.t1_values[None, :, None]
        t2 = grid.t2_values[None, None, :]
        noisy = separable_density(grid) + np.exp(-x ** 2) * np.sin(t1) * np.cos(t2)
        for rho in (noisy, rng.normal(size=(5, 7, 6)), rng.normal(size=(1, 8, 9))):
            report = ct.separability_check(rho)
            r1, r2, residual = alternating_separable_fit(rho)
            np.testing.assert_allclose(report.r1, r1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.r2, r2, rtol=0, atol=1e-12)
            assert report.residual == pytest.approx(residual, abs=1e-12)

    def test_two_dimensional_input(self):
        t1 = np.linspace(0, 1, 11)[:, None]
        t2 = np.linspace(0, 2, 13)[None, :]
        report = ct.separability_check(np.sin(t1) + np.cos(t2))
        assert report.residual < 1e-12
        assert ct.separability_check(np.sin(t1) * np.cos(t2)).residual > 1e-2


class TestSeparableAverage:
    def test_separable_density_gives_separable_average(self):
        grid = space_grid(21, 19, 61)
        rho = separable_density(grid)
        report = ct.separable_average(rho, lambda x: x, grid)
        assert report.separability_residual < 1e-8

    def test_unit_function_gives_unit_average(self):
        grid = space_grid(15, 17, 61)
        rho = separable_density(grid)
        report = ct.separable_average(rho, lambda x: np.ones_like(x), grid)
        np.testing.assert_allclose(report.values, 1.0, atol=1e-12)

    def test_product_density_flagged(self):
        grid = space_grid(21, 19, 61)
        rho = separable_density(grid)
        x = grid.x_values[:, None, None]
        t1 = grid.t1_values[None, :, None]
        t2 = grid.t2_values[None, None, :]
        rho = rho + 0.05 * (x - grid.x_values.mean()) * np.exp(-x ** 2) * t1 * t2
        norms = _trapz(rho, grid.x_values, axis=0)
        rho = rho / norms[None, :, :]
        report = ct.separable_average(rho, lambda x: x, grid)
        assert report.separability_residual > 1e-4

    def test_normalization_violation_names_worst_slice(self):
        grid = space_grid(5, 5, 21)
        rho = separable_density(grid).copy()
        rho[:, 2, 3] *= 1.5
        with pytest.raises(DomainError, match=r"i1=2, i2=3"):
            ct.separable_average(rho, lambda x: x, grid)


class TestEhrenfestResiduals:
    def grid(self):
        return Grid2T(0, 2 * np.pi, 0, 2 * np.pi, 41, 41)

    def surfaces(self):
        g = self.grid()
        T1, T2 = np.meshgrid(g.t1_values, g.t2_values, indexing="ij")
        return g, T1, T2

    def test_allowed_single_time_case(self):
        g, T1, T2 = self.surfaces()
        mean = np.cos(T1) + 0.5
        report = ct.ehrenfest_limit_residual(mean, g, force_11=lambda v: -(v - 0.5))
        assert report.mixed_partial_residual < 1e-10
        assert report.cross_defect_1 < 1e-20
        assert report.f2_constant and not report.f1_constant

    def test_excluded_two_time_case(self):
        g, T1, T2 = self.surfaces()
        mean = np.cos(T1) + np.cos(T2)
        report = ct.ehrenfest_limit_residual(mean, g, force_11=lambda v: -(v - 0.5))
        assert report.cross_defect_1 > 1e-2

    def test_constant_mean(self):
        g, T1, T2 = self.surfaces()
        mean = np.full_like(T1, 0.7)
        report = ct.ehrenfest_limit_residual(mean, g, force_11=lambda v: np.zeros_like(v),
                                             force_22=lambda v: np.zeros_like(v))
        assert report.mixed_partial_residual == 0.0
        assert report.cross_defect_1 == 0.0 and report.cross_defect_2 == 0.0
        assert report.f1_constant and report.f2_constant

    def test_non_separable_rejected(self):
        g, T1, T2 = self.surfaces()
        with pytest.raises(DomainError, match="separable"):
            ct.ehrenfest_limit_residual(np.sin(T1) * np.sin(T2), g,
                                        force_11=lambda v: v)

    def test_both_diagonals(self):
        g, T1, T2 = self.surfaces()
        mean = np.cos(T2) - 1.0
        report = ct.ehrenfest_limit_residual(mean, g,
                                             force_11=lambda v: np.zeros_like(v),
                                             force_22=lambda v: -(v + 1.0))
        assert report.cross_defect_2 < 1e-20
        assert report.f1_constant
