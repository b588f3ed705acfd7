from importlib.resources import files as resource_files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitempo import continuity as ct
from bitempo.core import DomainError, Grid2T


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
    rho1 = rho1 / np.trapezoid(rho1, grid.x_values, axis=0)[None, :, :]
    rho2 = np.exp(-((x - 0.5) / (1.0 + 0.2 * np.cos(t2))) ** 2)
    rho2 = rho2 / np.trapezoid(rho2, grid.x_values, axis=0)[None, :, :]
    return np.broadcast_to(0.6 * rho1, (grid.nx, grid.n1, grid.n2)).copy() \
        + np.broadcast_to(0.4 * rho2, (grid.nx, grid.n1, grid.n2))


def parent_manufactured_current(grid, with_source=False):
    """The manufactured current written term by term, as each component
    reads before factoring: (j1, j2, jx)."""
    x = grid.x_values[:, None, None]
    t1 = grid.t1_values[None, :, None]
    t2 = grid.t2_values[None, None, :]
    length1, length2 = grid.t1_max - grid.t1_min, grid.t2_max - grid.t2_min
    u1 = (t1 - grid.t1_min) / length1
    u2 = (t2 - grid.t2_min) / length2
    w = np.exp(-x ** 2)
    wp = -2.0 * x * w
    r = np.sin(np.pi * u1) ** 2 * (1.0 + 0.3 * u1)
    rp = (np.pi * np.sin(2.0 * np.pi * u1) * (1.0 + 0.3 * u1)
          + 0.3 * np.sin(np.pi * u1) ** 2) / length1
    s = np.sin(np.pi * u2) ** 2 * (1.0 - 0.2 * u2)
    sp = (np.pi * np.sin(2.0 * np.pi * u2) * (1.0 - 0.2 * u2)
          - 0.2 * np.sin(np.pi * u2) ** 2) / length2
    j1 = w * r * sp + 0.3 * (w + x * wp) * r * np.cos(t2)
    j2 = -w * rp * s + 0.2 * wp * s * (1.0 + 0.5 * np.sin(t1))
    jx = 0.3 * x * w * rp * np.cos(t2) + 0.2 * w * sp * (1.0 + 0.5 * np.sin(t1))
    if with_source:
        j1 = j1 + (ct.SOURCE_STRENGTH * np.sin(np.pi * u1) ** 2 * w
                   * (0.5 + 0.3 * np.cos(2.0 * np.pi * u2)))
    return j1, j2, jx


# strictly increasing axes with uneven spacing
uneven_axes = st.tuples(
    st.floats(-5.0, 5.0),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
).map(lambda a: a[0] + np.concatenate(([0.0], np.cumsum(a[1]))))


class TestTrapezoidWeights:
    @given(uneven_axes, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_trapezoid(self, v, seed):
        f = np.random.default_rng(seed).normal(size=v.size)
        w = ct.trapezoid_weights(v)
        assert w.shape == v.shape
        assert abs(w @ f - np.trapezoid(f, v)) <= 1e-14 * np.sum(np.abs(f))

    def test_exact_for_linear_on_uniform_axis(self):
        v = np.linspace(-1.5, 2.5, 17)
        a, b = 0.75, -1.25
        exact = a * (v[-1] - v[0]) + 0.5 * b * (v[-1] ** 2 - v[0] ** 2)
        assert ct.trapezoid_weights(v) @ (a + b * v) == pytest.approx(exact, rel=1e-15)

    def test_single_point_has_zero_weight(self):
        np.testing.assert_array_equal(ct.trapezoid_weights([2.0]), [0.0])


class TestCurrentFieldInput:
    def test_lists_are_stored_as_float_arrays(self):
        grid = space_grid(5, 5, 7)
        current, _ = ct.manufactured_current(grid)
        listed = ct.CurrentField(grid=grid, j1=current.j1.tolist(), j2=current.j2.tolist(),
                                 j_space=current.j_space.tolist())
        for name in ("j1", "j2", "j_space"):
            stored = getattr(listed, name)
            assert isinstance(stored, np.ndarray) and stored.dtype == np.float64
        np.testing.assert_array_equal(ct.charges(listed).Q1, ct.charges(current).Q1)

    @pytest.mark.parametrize("name", ["j1", "j2", "j_space"])
    def test_complex_component_rejected(self, name):
        grid = space_grid(5, 5, 7)
        zero = np.zeros((grid.nx, grid.n1, grid.n2))
        parts = {"j1": zero, "j2": zero, "j_space": zero, name: zero + 1j}
        with pytest.raises(DomainError, match=name):
            ct.CurrentField(grid=grid, **parts)

    def test_non_numeric_component_rejected(self):
        grid = space_grid(3, 3, 3)
        zero = np.zeros((grid.nx, grid.n1, grid.n2))
        with pytest.raises(DomainError, match="j2"):
            ct.CurrentField(grid=grid, j1=zero, j2=np.full(zero.shape, "a"), j_space=zero)


class TestCharges:
    def test_matches_nested_trapezoid(self):
        # a non-separable current on uneven extents
        rng = np.random.default_rng(11)
        grid = Grid2T(-0.5, 1.7, 0.2, 2.9, 9, 13, x_min=-3.0, x_max=4.0, nx=11)
        j1, j2, jx = (rng.normal(size=(grid.nx, grid.n1, grid.n2)) for _ in range(3))
        report = ct.charges(ct.CurrentField(grid=grid, j1=j1, j2=j2, j_space=jx))
        scale = max(np.max(np.abs(a)) for a in (j1, j2, jx))
        q1 = np.trapezoid(np.trapezoid(j1, grid.t2_values, axis=2), grid.x_values, axis=0)
        q2 = np.trapezoid(np.trapezoid(j2, grid.t1_values, axis=1), grid.x_values, axis=0)
        np.testing.assert_allclose(report.Q1, q1, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(report.Q2, q2, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("with_source", [False, True])
    def test_manufactured_matches_term_by_term(self, with_source):
        grid = Grid2T(0.0, 2.3, -0.4, 3.1, 17, 23, x_min=-5.0, x_max=3.5, nx=29)
        current, _ = ct.manufactured_current(grid, with_source=with_source)
        for got, want in zip((current.j1, current.j2, current.j_space),
                             parent_manufactured_current(grid, with_source)):
            ulp = np.spacing(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0, atol=8 * ulp)

    def test_zero_current(self):
        grid = space_grid(5, 5, 7)
        zero = np.zeros((grid.nx, grid.n1, grid.n2))
        field = ct.CurrentField(grid=grid, j1=zero, j2=zero, j_space=zero)
        report = ct.charges(field)
        np.testing.assert_array_equal(report.Q1, 0.0)
        np.testing.assert_array_equal(report.Q2, 0.0)
        assert report.dQ1_residual == 0.0 and report.dQ2_residual == 0.0

    def test_zero_total_keeps_unit_constants(self):
        # charges are not rescaled, so a current whose total charge vanishes
        # at the grid origin raises no warning and leaves the charges at zero
        grid = space_grid(5, 5, 7)
        zero = np.zeros((grid.nx, grid.n1, grid.n2))
        report = ct.charges(ct.CurrentField(grid=grid, j1=zero, j2=zero, j_space=zero))
        assert report.boundary_warnings == ()
        np.testing.assert_array_equal(report.Q1, 0.0)
        np.testing.assert_array_equal(report.Q2, 0.0)

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
        base = ct.charges(current)
        scaled_field = ct.CurrentField(grid=grid, j1=factor * current.j1,
                                       j2=factor * current.j2,
                                       j_space=factor * current.j_space)
        scaled = ct.charges(scaled_field)
        np.testing.assert_allclose(scaled.Q1, factor * base.Q1, atol=1e-12 * abs(factor))
        assert scaled.dQ1_residual == pytest.approx(abs(factor) * base.dQ1_residual,
                                                    rel=1e-9, abs=1e-15)


class TestManufacturedCharges:
    @pytest.mark.parametrize("with_source", [False, True], ids=["free", "sourced"])
    @pytest.mark.parametrize("x_min", [-6.0, 0.0])
    @pytest.mark.parametrize("refine", [False, True], ids=["bundled", "refined"])
    def test_match_grid_charges(self, refine, x_min, with_source):
        # the bundled 61 x 41 x 41 grid and its 2x refinement; absolute, since
        # the source-free charges are themselves quadrature error (~4e-4)
        grid = Grid2T(0.0, 2.0, 0.0, 3.0, 41, 41, x_min=x_min, x_max=6.0, nx=61)
        if refine:
            grid = grid.refined()
        current, _ = ct.manufactured_current(grid, with_source=with_source)
        report = ct.charges(current)
        q1, q2 = ct.manufactured_charges(grid, with_source=with_source)
        np.testing.assert_allclose(q1, report.Q1, rtol=0, atol=1e-13)
        np.testing.assert_allclose(q2, report.Q2, rtol=0, atol=1e-13)

    def test_cli_refinement_ratios_match_full_grid(self, tmp_path):
        from bitempo import cli

        config = str(resource_files("bitempo") / "scenarios" / "continuity_manufactured.ini")
        results = cli.run_scenario(config, str(tmp_path))["comparable"]["results"]
        grid = space_grid()
        coarse = ct.charges(ct.manufactured_current(grid)[0])
        fine = ct.charges(ct.manufactured_current(grid.refined())[0])
        assert results["refinement_ratio_Q1"] == pytest.approx(
            coarse.dQ1_residual / fine.dQ1_residual, rel=1e-9)
        assert results["refinement_ratio_Q2"] == pytest.approx(
            coarse.dQ2_residual / fine.dQ2_residual, rel=1e-9)

    def test_doubled_source_fails_the_rate(self):
        grid = space_grid()
        free, _ = ct.manufactured_current(grid)
        sourced, rate = ct.manufactured_current(grid, with_source=True)
        doubled = ct.CurrentField(grid=grid, j1=2.0 * sourced.j1 - free.j1, j2=sourced.j2,
                                  j_space=sourced.j_space)
        exact = rate(grid.t1_values[1:-1])
        kept = ct.charge_rate_residual(ct.charges(sourced).Q1, grid.d1, exact)
        broken = ct.charge_rate_residual(ct.charges(doubled).Q1, grid.d1, exact)
        assert kept < 3e-3
        assert broken >= 100.0 * kept


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

    def test_power_of_two_scaling_is_exact(self):
        # the squares of rho * 2^1000 overflow, its samples do not
        rho = np.random.default_rng(3).normal(size=(5, 7, 6))
        base = ct.separability_check(rho)
        huge = ct.separability_check(np.ldexp(rho, 1000))
        assert huge.residual == base.residual
        assert np.array_equal(huge.r1, np.ldexp(base.r1, 1000))
        assert np.array_equal(huge.r2, np.ldexp(base.r2, 1000))

    def test_two_dimensional_input(self):
        t1 = np.linspace(0, 1, 11)[:, None]
        t2 = np.linspace(0, 2, 13)[None, :]
        report = ct.separability_check(np.sin(t1) + np.cos(t2))
        assert report.residual < 1e-12
        assert ct.separability_check(np.sin(t1) * np.cos(t2)).residual > 1e-2
