import ast
import configparser
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bitempo import classical as cl, cli
from bitempo.core import (
    BitempoError,
    ComplexCharacteristicError,
    DomainError,
    EvaluationError,
    Grid2T,
    Tolerances,
    TruncationError,
    null_space,
)

TOL = Tolerances()


def random_rank_one_1d(rng):
    c = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    coeffs = rng.uniform(-1.0, 1.0, size=3)
    g = lambda x: np.polyval(coeffs, x)
    return cl.rank_one_force(c, g), c, coeffs


def primes(force, x):
    """The d = 1 primes F'_{jk} at positions x, shaped np.shape(x) + (2, 2)."""
    return force.derivative_tensor(x)[..., 0, :, :, 0]


def normalized_consistency(force, x):
    fp = primes(force, x)
    scale = max(1.0, abs(fp[0, 0] * fp[1, 1]), abs(fp[0, 1] * fp[1, 0]))
    return cl.consistency_residual_1d(fp) / scale


def tuned_affine_force(d, rng):
    """Affine force whose constant derivative tensor has a rank-deficient
    velocity system: one tensor entry is solved to put the determinant at
    zero, which generically leaves a one-dimensional kernel."""
    lin = rng.normal(size=(d, 2, 2, d))
    lin = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
    idx = (1, 0, 0, 1)

    def det_for(t):
        lin2 = lin.copy()
        lin2[idx] = t
        lin2[1, 0, 0, 1] = t
        force = cl.affine_force(d, lin2, symmetrize=False)
        return cl.admissibility_determinant(force, np.zeros(d))

    b = det_for(0.0)
    a = det_for(1.0) - b
    if abs(a) < 1e-9:
        return tuned_affine_force(d, rng)
    lin[idx] = -b / a
    return cl.affine_force(d, lin, symmetrize=False)


class TestConsistency1D:
    def test_rank_one_identity(self):
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        assert cl.consistency_residual_1d(primes(force, 0.7)) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_linear_force(self):
        force = cl.polynomial_force_1d({"11": [1.0, 0.0], "22": [1.0, 0.0]})
        assert cl.consistency_residual_1d(primes(force, 0.3)) == pytest.approx(1.0, abs=1e-8)

    def test_constant_force(self):
        force = cl.polynomial_force_1d({"11": [2.0], "12": [0.5], "22": [-1.0]})
        assert cl.consistency_residual_1d(primes(force, 1.1)) == pytest.approx(0.0, abs=1e-12)

    def test_random_rank_one_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            force, _, _ = random_rank_one_1d(rng)
            assert normalized_consistency(force, rng.uniform(-1, 1)) < 1e-9

    def test_generic_polynomial_does_not_vanish(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            coeffs = {key: rng.uniform(0.2, 1.0, size=3) * rng.choice([-1, 1], 3)
                      for key in ("11", "12", "22")}
            force = cl.polynomial_force_1d(coeffs)
            assert normalized_consistency(force, rng.uniform(-1, 1)) > 1e-3


class TestOrbitRelation:
    def test_rank_one_worked_values(self):
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        phi, ratio_sq, residual = cl.orbit_relation_1d(primes(force, 0.3), 1.0, 2.0)
        assert phi == pytest.approx(0.25, abs=1e-9)
        assert ratio_sq == pytest.approx(0.25)
        assert residual == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(0.1, 10).flatmap(lambda lam: st.sampled_from([lam, -lam])))
    @settings(max_examples=25, deadline=None)
    def test_momentum_scale_invariance(self, lam):
        fp = primes(cl.rank_one_force((1.0, 2.0), lambda x: -x), 0.3)
        base = cl.orbit_relation_1d(fp, 1.0, 2.0)
        scaled = cl.orbit_relation_1d(fp, lam, 2 * lam)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12)
        assert scaled[0] == base[0]

    def test_vanishing_prime_is_degenerate(self):
        # F'_21 = 0: Phi is undefined, so all three values are NaN
        force = cl.polynomial_force_1d({"11": [1.0, 0.0], "22": [1.0, 0.0]})
        assert all(np.isnan(v) for v in cl.orbit_relation_1d(primes(force, 0.3), 1.0, 2.0))

    def test_vanishing_momentum_denominator(self):
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        assert all(np.isnan(v) for v in cl.orbit_relation_1d(primes(force, 0.3), 1.0, 0.0))

    def test_gauge_shift_enters_ratio(self):
        # p - A = (1, 2) lies along c: the shifted momenta satisfy the relation, p itself not
        fp = primes(cl.rank_one_force((1.0, 2.0), lambda x: -x), 0.3)
        p, a = np.array([1.5, 1.5]), np.array([0.5, -0.5])
        assert cl.orbit_relation_1d(fp, *(p - a))[2] == pytest.approx(0.0, abs=1e-9)
        assert cl.orbit_relation_1d(fp, *p)[2] == pytest.approx(0.75, abs=1e-9)

    def test_nan_only_where_undefined(self):
        # F'_11 = x^2, F'_12 = F'_21 = 1, F'_22 = x: Phi = x, undefined at x = 0
        force = cl.polynomial_force_1d({"11": [1 / 3, 0.0, 0.0, 0.0], "12": [1.0, 0.0],
                                        "22": [0.5, 0.0, 0.0]})
        x = np.array([[0.5, 0.0], [1.5, -2.0]])
        q2 = np.array([[1.0, 1.0], [0.0, 3.0]])
        phi, ratio_sq, residual = cl.orbit_relation_1d(primes(force, x), np.ones((2, 2)), q2)
        undefined = np.array([[False, True], [True, False]])
        for v in (phi, ratio_sq, residual):
            assert v.shape == (2, 2)
            np.testing.assert_array_equal(np.isnan(v), undefined)
        np.testing.assert_allclose(phi[~undefined], [0.5, -2.0], atol=1e-8)
        np.testing.assert_allclose(residual[~undefined], [0.5, 2.0 + 1.0 / 9.0], atol=1e-8)


class TestCharacteristicField1D:
    def test_rank_one_direction(self):
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        vec, degenerate = cl.characteristic_field_1d(primes(force, 0.3), 0.3)
        np.testing.assert_allclose(vec, [math.sqrt(8.0), -math.sqrt(2.0)], atol=1e-8)
        # parallel to (2, -1)
        assert vec[0] * (-1.0) - vec[1] * 2.0 == pytest.approx(0.0, abs=1e-8)
        assert not degenerate

    def test_constant_force_degenerate(self):
        force = cl.polynomial_force_1d({"11": [2.0], "12": [1.0], "22": [3.0]})
        vec, degenerate = cl.characteristic_field_1d(primes(force, 0.0), 0.0)
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert degenerate

    def test_negative_radicand_raises(self):
        # F'_22 F'_21 = -1 < 0 < F'_11 F'_12 = 1: radicands of opposite sign
        force = cl.polynomial_force_1d({"11": [1.0, 0.0], "12": [1.0, 0.0], "22": [-1.0, 0.0]})
        with pytest.raises(ComplexCharacteristicError, match=r"F'_22\*F'_21 = -1.000e\+00 < 0"):
            cl.characteristic_field_1d(primes(force, 0.5), 0.5)

    @pytest.mark.parametrize("c", [(1.0, -0.7), (-0.6, 1.3)])
    def test_both_radicands_negative_give_real_direction(self, c):
        # rank one with c1 c2 < 0: both radicands are negative, and the direction
        # (sqrt|F'_22 F'_21|, +sqrt|F'_11 F'_12|) is orthogonal to grad x ~ (c1, c2)
        c1, c2 = c
        force = cl.rank_one_force(c, lambda x: -x)
        x = np.array([-0.8, 0.3, 1.7])
        vec, degenerate = cl.characteristic_field_1d(primes(force, x), x)
        np.testing.assert_allclose(vec, np.tile([abs(c1 * c2 ** 3) ** 0.5,
                                                 abs(c1 ** 3 * c2) ** 0.5], (3, 1)), rtol=1e-8)
        assert not degenerate.any()
        assert np.max(np.abs(vec @ np.array([c1, c2]))) < 1e-8

    def test_batch_equals_per_point(self):
        # F'_11 = F'_22 = x, F'_12 = F'_21 = 1: both radicands are x
        force = cl.polynomial_force_1d({"11": [0.5, 0.0, 0.0], "12": [1.0, 0.0],
                                        "22": [0.5, 0.0, 0.0]})
        x = np.array([[0.2, -0.9, 2.0], [-0.1, 0.0, -1e-12]])
        vec, degenerate = cl.characteristic_field_1d(primes(force, x), x)
        assert vec.shape == (2, 3, 2) and degenerate.shape == (2, 3)
        for idx in np.ndindex(x.shape):
            one, flag = cl.characteristic_field_1d(primes(force, x[idx]), x[idx])
            assert vec[idx].tobytes() == one.tobytes() and degenerate[idx] == flag


class TestRankOneIntegrator:
    def test_harmonic_closed_form(self):
        grid = Grid2T(0, 2 * math.pi, 0, 2 * math.pi, 41, 41)
        surf = cl.integrate_rank_one_1d(lambda x: -x, (1, 2), 1.0, 0.0, grid)
        T1, T2 = np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij")
        np.testing.assert_allclose(surf.values, np.cos(T1 + 2 * T2), atol=1e-6)

    def test_last_knot_lands_on_range_end(self):
        # summing the step drifted the last knot below the largest s on the grid
        w2, c, x0, v0 = 2.490084, (1.26, 0.767), 0.579, -0.502
        grid = Grid2T(0, 5.669, 0, 5.669, 101, 101)
        surf = cl.integrate_rank_one_1d(lambda x: -w2 * x, c, x0, v0, grid)
        w = math.sqrt(w2)
        s = surf.s_of(*np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij"))
        np.testing.assert_allclose(surf.values, x0 * np.cos(w * s) + v0 / w * np.sin(w * s),
                                   atol=1e-6)

    def test_zero_force_constant_surface(self):
        grid = Grid2T(-1, 1, -1, 1, 5, 5)
        surf = cl.integrate_rank_one_1d(lambda x: 0.0, (1, 1), 0.7, 0.0, grid)
        np.testing.assert_allclose(surf.values, 0.7, atol=1e-12)

    def test_mixed_partial_matches_force(self):
        c = (1.0, 2.0)
        g = lambda x: -x
        grid = Grid2T(0, 2, 0, 2, 9, 9)
        surf = cl.integrate_rank_one_1d(g, c, 1.0, 0.0, grid)
        rng = np.random.default_rng(8)
        h = 1e-4
        for _ in range(10):
            t1 = rng.uniform(0.2, 1.8)
            t2 = rng.uniform(0.2, 1.8)
            mixed = (surf.position(t1 + h, t2 + h) - surf.position(t1 + h, t2 - h)
                     - surf.position(t1 - h, t2 + h) + surf.position(t1 - h, t2 - h)) / (4 * h * h)
            expected = c[0] * c[1] * g(surf.position(t1, t2))
            assert mixed == pytest.approx(expected, abs=1e-4)

    def test_blowup_truncation(self):
        grid = Grid2T(0, 10, 0, 10, 5, 5)
        with pytest.raises(TruncationError, match=r"\|x\| <= 1e\+06"):
            cl.integrate_rank_one_1d(lambda x: x ** 3, (1, 1), 2.0, 5.0, grid)

    @pytest.mark.parametrize("g0", (0.0, 0.5))
    def test_constant_g_closed_form(self, g0):
        # X'' = g0 is quadratic in s, on which RK4 is exact up to rounding
        c, x0, v0 = np.array([0.8, -1.3]), 0.4, -0.9
        grid = Grid2T(-1.0, 2.0, -0.5, 1.5, 7, 9)
        surf = cl.integrate_rank_one_1d(lambda x: g0, c, x0, v0, grid)
        s = np.add.outer(c[0] * grid.t1_values, c[1] * grid.t2_values)
        np.testing.assert_allclose(surf.values, x0 + v0 * s + 0.5 * g0 * s ** 2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(surf.velocity, v0 + g0 * s, rtol=0, atol=1e-12)
        tensors = cl.rank_one_force(c, lambda x: g0).tensor_at(surf.values)
        assert tensors.shape == (7, 9, 1, 2, 2)
        np.testing.assert_array_equal(tensors, np.broadcast_to(g0 * np.outer(c, c), tensors.shape))

    def test_step_from_richardson_estimate(self):
        # from step 2 the estimate asks for the smallest cut twice: 2, 1, 1/8, 1/64
        grid = Grid2T(0.0, 1.0, 0.0, 1.0, 5, 5)
        surface = cl.integrate_rank_one_1d(lambda x: -x, (1, 1), 1.0, 0.0, grid, step=2.0)
        assert (surface.integrations, surface.knots, surface.step) == (4, 1 + 2 + 16 + 128, 1 / 64)
        assert len(surface.solution.knot_s) == 129
        assert 0 < surface.error_estimate < TOL.rel_tol

    def test_non_convergence_raises(self):
        # steps cut by 1/8 each time pass the knot budget before the cap
        grid = Grid2T(0.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(EvaluationError, match=r"RK4 over s in \[0, 2\] needs 4\.793e\+06 knots "
                           r"by step 4\.768e-07, past the budget of 1000000"):
            cl.integrate_rank_one_1d(lambda x: -x, (1, 1), 1.0, 0.0, grid, step=2.0,
                                     tol=Tolerances(rel_tol=1e-30))

    def test_cap_of_thirteen_integrations(self, monkeypatch):
        # knots offset by +-1e-8 in turn: no step removes the change, whose
        # estimate 2e-8 / 15 stays just above rel_tol, so every step halves
        made = []

        class Jittered(cl._RankOneSolution):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(1)
                self.knot_x = self.knot_x + (-1) ** len(made) * 1e-8

        monkeypatch.setattr(cl, "_RankOneSolution", Jittered)
        grid = Grid2T(0.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(EvaluationError, match=r"RK4 did not converge in 13 integrations to "
                           r"step 0\.0004883: the last error estimate was 1\.333e-09 of "
                           r"max\(1, \|x\|\), not below rel_tol = 1e-09"):
            cl.integrate_rank_one_1d(lambda x: 0.0, (1, 1), 1.0, 0.0, grid, step=2.0)
        assert len(made) == 13

    def test_harmonic_draws_within_rel_tol(self):
        # the ranges of the harmonic_surface benchmark: the kept surface is
        # within rel_tol max(1, |x|) of the closed form
        rng = np.random.default_rng(7)
        for i in range(64):
            w = rng.uniform(0.5, 2.0)
            c = rng.uniform(0.5, 1.5, size=2) * (1.0, -1.0 if i % 4 == 3 else 1.0)
            x0, v0 = rng.uniform(-1.0, 1.0, size=2)
            extent = rng.uniform(math.pi, 2 * math.pi)
            grid = Grid2T(0.0, extent, 0.0, extent, 101, 101)
            surface = cl.integrate_rank_one_1d(lambda x: -w * w * x, c, x0, v0, grid)
            s = surface.s_of(*np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij"))
            exact = x0 * np.cos(w * s) + v0 / w * np.sin(w * s)
            bound = TOL.rel_tol * max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(surface.values - exact)) <= bound
            assert surface.error_estimate < TOL.rel_tol

    def test_initial_point_past_blowup_refused(self):
        grid = Grid2T(0.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(TruncationError, match=r"initial point x0 = 1e\+06 is past \|x\| <= 1e\+06"):
            cl.integrate_rank_one_1d(lambda x: -x, (1, 1), np.nextafter(1e6, 2e6), 0.0, grid)
        surface = cl.integrate_rank_one_1d(lambda x: 0.0, (1, 1), -1e6, 0.0, grid)
        np.testing.assert_array_equal(surface.values, -1e6)

    @pytest.mark.parametrize("g", ["horner", "sin", "constant"])
    def test_knots_equal_per_step_float_loop(self, g):
        # each knot as stepped by a float(g(x)) wrapper with s = target * k / n
        if g == "horner":
            cfg = configparser.ConfigParser()
            cfg.read_string("[force]\ng_poly = -0.3 0.1 -1.2 0.05\n")
            g = cli._g_poly(cfg)
        else:
            g = {"sin": lambda x: -np.sin(x), "constant": lambda x: 0.5}[g]
        step, x0, v0, s_min, s_max = 0.0137, 0.8, -0.4, -2.3, 4.1
        g_float = lambda x: float(g(x))
        knots, xs, vs = [0.0], [x0], [v0]
        for target in (s_max, s_min):
            n = int(math.ceil(abs(target) / step))
            x, v = x0, v0
            for k in range(1, n + 1):
                x, v = cl._rk4(g_float, x, v, target / n)
                knots.append(target * k / n)
                xs.append(x)
                vs.append(v)
        order = np.argsort(knots)
        solution = cl._RankOneSolution(g, x0, v0, s_min, s_max, step)
        for got, expected in ((solution.knot_s, knots), (solution.knot_x, xs),
                              (solution.knot_v, vs)):
            assert got.dtype == np.float64
            assert got.tobytes() == np.asarray(expected)[order].tobytes()

    def test_zero_direction_rejected(self):
        grid = Grid2T(0, 1, 0, 1, 3, 3)
        with pytest.raises(DomainError):
            cl.integrate_rank_one_1d(lambda x: -x, (0, 0), 1.0, 0.0, grid)

    def test_orthogonality_along_surface(self):
        grid = Grid2T(0, 2 * math.pi, 0, 2 * math.pi, 21, 21)
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        surf = cl.integrate_rank_one_1d(lambda x: -x, (1, 2), 1.0, 0.0, grid)
        h = 1e-3
        t1, t2 = np.meshgrid(grid.t1_values[1:-1:4], grid.t2_values[1:-1:4], indexing="ij")
        x = surf.position(t1, t2)
        vec, _ = cl.characteristic_field_1d(primes(force, x), x)
        g1 = (surf.position(t1 + h, t2) - surf.position(t1 - h, t2)) / (2 * h)
        g2 = (surf.position(t1, t2 + h) - surf.position(t1, t2 - h)) / (2 * h)
        norm = np.hypot(vec[..., 0], vec[..., 1])
        moving = norm > 0
        assert moving.sum() > 20
        dot = np.abs(vec[..., 0] * g1 + vec[..., 1] * g2)[moving] / norm[moving]
        assert np.max(dot) < 1e-4

    def test_orbit_invariance_along_trajectory(self):
        grid = Grid2T(0, 2 * math.pi, 0, 2 * math.pi, 21, 21)
        force = cl.rank_one_force((1.0, 2.0), lambda x: -x)
        surf = cl.integrate_rank_one_1d(lambda x: -x, (1, 2), 1.0, 0.0, grid)
        p1, p2 = surf.c[0] * surf.velocity, surf.c[1] * surf.velocity
        _, _, residual = cl.orbit_relation_1d(primes(force, surf.values), p1, p2)
        checked = np.isfinite(residual)
        assert checked.sum() > 300
        assert np.max(residual[checked]) < 1e-6


def batch_forces():
    """d = 1 forces from every builder, plus a hand-made field and a rank-one
    force whose g is a constant."""
    def hand_made(x):
        rows = (np.stack([np.cos(x), x], axis=-1), np.stack([x, x * x], axis=-1))
        return np.stack(rows, axis=-2)

    return {
        "rank_one": cl.rank_one_force((0.8, -1.3), lambda x: np.polyval([-0.3, 0.0, -1.0, 0.0], x)),
        "rank_one_constant_g": cl.rank_one_force((1.1, 0.6), lambda x: 0.5),
        "polynomial": cl.polynomial_force_1d({"11": [0.5, -1.0, 0.2], "12": [1.0, 0.0],
                                              "21": [-0.4, 0.3], "22": [2.0, 0.0, 0.0, 1.0]}),
        "affine": cl.affine_force(1, [[[[1.5]], [[-0.25]]], [[[0.75]], [[2.0]]]],
                                  [0.1, 0.2, 0.3, 0.4]),
        "hand_made": cl.ForceTensorField(1, hand_made),
    }


class TestBatchedForce1D:
    POSITIONS = np.array([-3.7, -1.0, -0.2, 0.0, 0.45, 1.0, 2.5, 40.0])

    @pytest.mark.parametrize("name", sorted(batch_forces()))
    def test_batch_equals_per_point(self, name):
        force = batch_forces()[name]
        tensors = force.tensor_at(self.POSITIONS)
        derivs = force.derivative_tensor(self.POSITIONS)
        assert tensors.shape == (self.POSITIONS.size, 1, 2, 2)
        assert derivs.shape == (self.POSITIONS.size, 1, 2, 2, 1)
        residuals = cl.consistency_residual_1d(primes(force, self.POSITIONS))
        for k, x in enumerate(self.POSITIONS):
            assert tensors[k].tobytes() == force.tensor_at(x).tobytes()
            assert derivs[k].tobytes() == force.derivative_tensor(x).tobytes()
            assert residuals[k] == cl.consistency_residual_1d(primes(force, x))

    def test_non_finite_batch_raises(self):
        force = cl.rank_one_force((1.0, 1.0), lambda x: 1.0 / x)
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match="at 0.0"):
            force.tensor_at(np.array([1.0, 0.0, 2.0]))

    def test_batch_eval_shape_checked(self):
        # an output without the space axis is as wrong as any other shape
        for out in (lambda x: np.zeros((3, 3)), lambda x: np.zeros(np.shape(x)[:-1] + (2, 2))):
            with pytest.raises(DomainError, match="expected"):
                cl.ForceTensorField(1, out).tensor_at(np.array([1.0, 2.0]))


def forces_of_dimension(d):
    """d >= 2 forces from every builder, plus a hand-made field that records
    what its eval receives."""
    rng = np.random.default_rng(30 + d)
    L, lin, const = rng.normal(size=(d, d)), rng.normal(size=(d, 2, 2, d)), rng.normal(size=d * 4)
    seen = []

    def hand_made(p):
        seen.append(p)
        return np.einsum("ijkm,...m->...ijk", lin, np.sin(p)) + const.reshape(d, 2, 2)

    return {
        "rank_one": cl.rank_one_force((0.8, -1.3), lambda p: L @ p + np.cos(p), d=d),
        "affine": cl.affine_force(d, lin, const),
        "affine_unsymmetrized": cl.affine_force(d, lin, symmetrize=False),
        "zero": cl.zero_force(d),
        "hand_made": cl.ForceTensorField(d, hand_made),
    }, seen


def derivative_by_axis(force, x):
    """The per-axis complex step that derivative_tensor batches: d
    single-point tensor_at calls at x + i h e_m, h = 2**-100."""
    x = np.asarray(x, dtype=float)
    h = 2.0 ** -100
    cols = []
    for m in range(force.d):
        e = np.zeros(force.d, dtype=complex)
        e[m] = 1j * h
        cols.append(force.tensor_at(x + e).imag / h)
    return np.stack(cols, axis=-1)


class TestBatchedForce:
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_batch_equals_per_point(self, d):
        rng = np.random.default_rng(40 + d)
        forces = batch_forces() if d == 1 else forces_of_dimension(d)[0]
        positions = rng.uniform(-2.0, 2.0, size=(3, 4) + ((d,) if d > 1 else ()))
        positions[0, 0] = 0.0
        positions[1, 1] *= 60.0
        for name, force in forces.items():
            tensors = force.tensor_at(positions)
            derivs = force.derivative_tensor(positions)
            assert tensors.shape == (3, 4, d, 2, 2), name
            assert derivs.shape == (3, 4, d, 2, 2, d), name
            for idx in np.ndindex(3, 4):
                assert tensors[idx].tobytes() == force.tensor_at(positions[idx]).tobytes(), name
                assert derivs[idx].tobytes() == force.derivative_tensor(positions[idx]).tobytes()
        # real tensors at complex positions break the complex-analytic contract
        real = cl.ForceTensorField(d, lambda p: np.tanh(p.real)[..., None, None] * np.ones((d, 2, 2)))
        assert real.tensor_at(positions).shape == (3, 4, d, 2, 2)
        with pytest.raises(DomainError, match="complex-analytic"):
            real.derivative_tensor(positions)

    @pytest.mark.parametrize("d", (2, 3))
    def test_derivative_equals_per_axis_loop(self, d):
        rng = np.random.default_rng(50 + d)
        forces, _ = forces_of_dimension(d)
        forces["tuned"] = tuned_affine_force(d, rng)
        positions = rng.uniform(-1.5, 1.5, size=(25, d)) * rng.choice([1.0, 40.0], size=(25, 1))
        positions[0] = 0.0
        positions[1, 0] = -0.0
        for name, force in forces.items():
            derivs = force.derivative_tensor(positions)
            for k, x in enumerate(positions):
                assert derivs[k].tobytes() == derivative_by_axis(force, x).tobytes(), name
            # the same force with real output at complex positions is refused
            real = cl.ForceTensorField(d, lambda p, f=force.eval: f(p.real))
            with pytest.raises(DomainError, match="complex-analytic"):
                real.derivative_tensor(positions)

    def test_eval_sees_the_whole_batch(self):
        for d in (1, 2, 3):
            seen = []
            force = cl.ForceTensorField(
                d, lambda p: seen.append(p) or np.zeros(p.shape + (2, 2), dtype=p.dtype))
            force.tensor_at(np.zeros((2, 3) + ((d,) if d > 1 else ())))
            assert len(seen) == 1 and seen[0].shape == (2, 3, d)
            force.derivative_tensor(np.zeros((2, 3) + ((d,) if d > 1 else ())))
            assert len(seen) == 2 and seen[1].shape == (2, 3, d, d)  # [..., m, coordinate]
            assert seen[1].dtype == complex
            # an eval that returns real tensors for complex positions is
            # refused after that one call, with no second one
            real = cl.ForceTensorField(d, lambda p: seen.append(p) or np.zeros(p.shape + (2, 2)))
            with pytest.raises(DomainError, match="complex-analytic"):
                real.derivative_tensor(np.zeros((2, 3) + ((d,) if d > 1 else ())))
            assert len(seen) == 3 and seen[2].shape == (2, 3, d, d)

    @pytest.mark.parametrize("d", (2, 3))
    def test_wrong_length_position_raises(self, d):
        force = cl.affine_force(d, np.ones((d, 2, 2, d)))
        for x in (np.zeros(d + 1), np.zeros((4, d - 1)), 0.5):
            with pytest.raises(DomainError, match="coordinates"):
                force.tensor_at(x)
            with pytest.raises(DomainError, match="coordinates"):
                force.derivative_tensor(x)

    def test_non_finite_names_position(self):
        force = cl.rank_one_force((1.0, 1.0), lambda p: 1.0 / p, d=2)
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match=r"at \[1.0, 0.0\]"):
            force.tensor_at(np.array([[1.0, 2.0], [1.0, 0.0]]))
        # a stacked batch that is NaN only at its second position in
        # row-major order
        force = cl.rank_one_force((1.0, 1.0), np.sqrt, d=2)
        batch = np.array([[[1.0, 2.0], [3.0, -1.0]], [[4.0, 5.0], [6.0, 7.0]]])
        with pytest.raises(EvaluationError, match=r"at \[3.0, -1.0\]"):
            force.tensor_at(batch)

    def test_unsymmetrized_affine_keeps_asymmetry(self):
        lin = np.zeros((2, 2, 2, 2))
        lin[1, 0, 1, 0] = 3.0
        force = cl.affine_force(2, lin, symmetrize=False)
        t = force.tensor_at(np.array([(0.5, 0.0), (-2.0, 1.0)]))
        np.testing.assert_array_equal(t[..., 0, 1] - t[..., 1, 0], [[0.0, 1.5], [0.0, -6.0]])
        assert force.tensor_at(np.empty((0, 2))).shape == (0, 2, 2, 2)


def surface_check_by_point(force, surface, tol=TOL):
    """check_surface's quantities written out point by point on Python
    floats, from the primes of a single-point derivative_tensor call."""
    grid = surface.grid
    step1 = tol.fd_step * max(1.0, abs(grid.t1_max - grid.t1_min))
    step2 = tol.fd_step * max(1.0, abs(grid.t2_max - grid.t2_min))
    T1, T2 = np.meshgrid(grid.t1_values[1:-1], grid.t2_values[1:-1], indexing="ij")
    grad1 = (surface.position(T1 + step1, T2) - surface.position(T1 - step1, T2)) / (2 * step1)
    grad2 = (surface.position(T1, T2 + step2) - surface.position(T1, T2 - step2)) / (2 * step2)
    phi, ratio, resid = (np.full((grid.n1, grid.n2), np.nan) for _ in range(3))
    ortho = orbit = 0.0
    for i in range(grid.n1):
        for j in range(grid.n2):
            (f11, f12), (f21, f22) = primes(force, surface.values[i, j]).tolist()
            q1, q2 = (float(c * surface.velocity[i, j]) for c in surface.c)
            thresh = tol.abs_tol * max(1.0, abs(f11), abs(f12), abs(f21), abs(f22)) ** 2
            if abs(f21 * f22) > thresh and abs(q2) > tol.abs_tol * max(1.0, abs(q1), abs(q2)):
                phi[i, j] = f11 * f12 / (f21 * f22)
                ratio[i, j] = (q1 / q2) ** 2
                resid[i, j] = abs(ratio[i, j] - phi[i, j])
            if 0 < i < grid.n1 - 1 and 0 < j < grid.n2 - 1:
                r1, r2 = f22 * f21, f11 * f12
                if min(r1, r2) < -thresh:  # both negative: the direction's sign flips
                    v1, v2 = math.sqrt(max(-r1, 0.0)), math.sqrt(max(-r2, 0.0))
                else:
                    v1, v2 = math.sqrt(max(r1, 0.0)), -math.sqrt(max(r2, 0.0))
                g1, g2 = grad1[i - 1, j - 1], grad2[i - 1, j - 1]
                if math.hypot(v1, v2) > 0:
                    denom = math.hypot(v1, v2) * max(1.0, math.hypot(g1, g2))
                    ortho = max(ortho, abs(v1 * g1 + v2 * g2) / denom)
                if math.isfinite(resid[i, j]):
                    orbit = max(orbit, resid[i, j])
    return phi, ratio, resid, ortho, orbit


class TestCheckSurface:
    @pytest.mark.parametrize("coeffs, c", [([-1.44, 0.0], (1.0, 2.0)),
                                           ([-0.3, 0.0, -1.0, 0.0], (0.7, 1.3)),
                                           ([-0.8, 0.0], (-1.1, 0.6))],
                             ids=["harmonic", "cubic", "opposite_c"])
    def test_matches_per_point_loop(self, coeffs, c):
        g = lambda x: np.polyval(coeffs, x)
        grid = Grid2T(0.0, 5.0, 0.0, 5.0, 31, 27)
        surface = cl.integrate_rank_one_1d(g, c, 1.0, 0.0, grid)
        force = cl.rank_one_force(c, g)
        check = cl.check_surface(force, surface)
        phi, ratio, resid, ortho, orbit = surface_check_by_point(force, surface)
        # v0 = 0 leaves p2 = 0 at t = (0, 0): the orbit relation is undefined there
        assert np.isnan(phi[0, 0]) and np.isfinite(phi).sum() > 0.9 * phi.size
        for got, want in ((check.phi, phi), (check.ratio_squared, ratio), (check.residual, resid)):
            assert got.shape == (grid.n1, grid.n2)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            assert got.tobytes() == want.tobytes()
        assert check.orbit_residual == orbit
        assert abs(check.orthogonality_residual - ortho) <= 1e-15
        assert check.orthogonality_residual < 1e-4 and check.orbit_residual < 1e-6

    @pytest.mark.parametrize("force", [
        # F'_22 F'_21 = -1 < 0 < F'_11 F'_12 = 1 everywhere
        cl.polynomial_force_1d({"11": [1.0, 0.0], "12": [1.0, 0.0], "22": [-1.0, 0.0]}),
        # F'_22 F'_21 = x against F'_11 F'_12 = 1: opposite signs only where x < 0
        cl.polynomial_force_1d({"11": [1.0, 0.0], "12": [1.0, 0.0], "22": [0.5, 0.0, 0.0]}),
    ], ids=["opposite_signs", "sign_change"])
    def test_complex_characteristic_matches_first_point(self, force):
        grid = Grid2T(0.0, 4.0, 0.0, 4.0, 17, 17)
        surface = cl.integrate_rank_one_1d(lambda x: -x, (1.0, 1.0), 1.0, 0.3, grid)
        expected = None
        for i in range(1, grid.n1 - 1):
            for j in range(1, grid.n2 - 1):
                x = surface.values[i, j]
                try:
                    cl.characteristic_field_1d(primes(force, x), x)
                except ComplexCharacteristicError as exc:
                    expected = str(exc)
                    break
            if expected is not None:
                break
        assert expected is not None
        with pytest.raises(ComplexCharacteristicError) as info:
            cl.check_surface(force, surface)
        assert str(info.value) == expected

    def test_opposite_sign_witness(self):
        # c1 c2 < 0: both radicands are negative, and x = cos(t1 - 0.7 t2) is still a motion
        c = (1.0, -0.7)
        grid = Grid2T(0.0, 2 * math.pi, 0.0, 2 * math.pi, 101, 101)
        surface = cl.integrate_rank_one_1d(lambda x: -x, c, 1.0, 0.0, grid)
        check = cl.check_surface(cl.rank_one_force(c, lambda x: -x), surface)
        T1, T2 = np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij")
        assert np.max(np.abs(surface.values - np.cos(T1 - 0.7 * T2))) < 1e-6
        assert check.orthogonality_residual < 1e-4
        assert check.orbit_residual < 1e-6

    def test_batched_ratio_rounds_as_per_point(self):
        # array ** 2 squares while scalar ** 2 calls pow; they differ about once in 1000
        rng = np.random.default_rng(31)
        q1, q2 = rng.normal(size=(2, 20000))
        fp = np.ones((2, 2))
        _, batched, _ = cl.orbit_relation_1d(np.broadcast_to(fp, (q1.size, 2, 2)), q1, q2)
        for k in range(q1.size):
            _, single, _ = cl.orbit_relation_1d(fp, q1[k], q2[k])
            assert batched[k] == single == (float(q1[k]) / float(q2[k])) ** 2

    def test_force_off_the_surface_fails(self):
        # a surface of X'' = -X checked against the force of X'' = -4 X
        grid = Grid2T(0.0, 3.0, 0.0, 3.0, 21, 21)
        surface = cl.integrate_rank_one_1d(lambda x: -x, (1.0, 2.0), 1.0, 0.0, grid)
        check = cl.check_surface(cl.rank_one_force((2.0, 1.0), lambda x: -4.0 * x), surface)
        assert check.orbit_residual > 1.0
        assert check.orthogonality_residual > 0.1

    def test_overflowing_primes_raise(self):
        grid = Grid2T(0.0, 1.0, 0.0, 1.0, 5, 5)
        surface = cl.integrate_rank_one_1d(lambda x: -x, (1.0, 1.0), 1.0, 0.0, grid)
        with pytest.raises(EvaluationError, match=r"products of the primes F'_jk overflow at x=1\.0: "
                           r"got max\|F'_jk\| = 1e\+300"):
            cl.check_surface(cl.rank_one_force((1.0, 1.0), lambda x: -1e300 * x), surface)

    def test_one_derivative_for_the_whole_surface(self, monkeypatch):
        calls = []
        original = cl.ForceTensorField.derivative_tensor

        def counted(self, x):
            calls.append(np.shape(x))
            return original(self, x)

        grid = Grid2T(0.0, 2.0, 0.0, 2.0, 11, 9)
        surface = cl.integrate_rank_one_1d(lambda x: -x, (1.0, 2.0), 1.0, 0.0, grid)
        monkeypatch.setattr(cl.ForceTensorField, "derivative_tensor", counted)
        cl.check_surface(cl.rank_one_force((1.0, 2.0), lambda x: -x), surface)
        assert calls == [(11 * 9,)]


class TestConstraintMatrix:
    def test_zero_force_zero_matrix(self):
        m = cl.build_constraint_matrix(cl.zero_force(2), (0.1, 0.2))
        np.testing.assert_allclose(m, 0.0, atol=1e-12)

    def test_d1_rejected(self):
        with pytest.raises(DomainError):
            cl.build_constraint_matrix(cl.rank_one_force((1, 1), lambda x: x), 0.0)

    def test_rank_one_kernel_contains_scaled_direction(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            c = np.array([1.0, 2.0])
            lin = rng.normal(size=(d, d))
            const = rng.normal(size=d)
            force = cl.rank_one_force(c, lambda p, lin=lin, const=const: const + lin @ p, d=d)
            x = rng.uniform(-1, 1, size=d)
            m = cl.build_constraint_matrix(force, x)
            for _ in range(3):
                u = rng.normal(size=d)
                v = np.concatenate([[c[0] * ui, c[1] * ui] for ui in u])
                assert np.linalg.norm(m @ v) < 1e-6 * max(1.0, np.linalg.norm(m)) * np.linalg.norm(v)

    def test_structural_bookkeeping(self):
        # bumping one tensor component touches exactly the matrix entries
        # holding that component's derivatives
        d = 2
        rng = np.random.default_rng(10)
        lin = rng.normal(size=(d, 2, 2, d))
        base = cl.build_constraint_matrix(cl.affine_force(d, lin, symmetrize=False), (0.3, 0.4))
        i0, j0, k0, m0 = 1, 0, 1, 1  # F^2_{12,y}
        lin2 = lin.copy()
        lin2[i0, j0, k0, m0] += 0.5
        bumped = cl.build_constraint_matrix(cl.affine_force(d, lin2, symmetrize=False), (0.3, 0.4))
        diff = np.abs(bumped - base) > 1e-9
        expected = np.zeros_like(diff)
        row = 2 * i0 + k0  # d=2 row order: space index outer, time index inner
        col = 2 * m0 + (1 if j0 == 0 else 0)
        expected[row, col] = True
        np.testing.assert_array_equal(diff, expected)


class TestAdmissibilityDeterminant:
    def test_zero_force(self):
        assert cl.admissibility_determinant(cl.zero_force(2), (0.0, 0.0)) == 0.0

    def test_rank_one_vanishes_scaled(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            for _ in range(5):
                lin = rng.normal(size=(d, d))
                force = cl.rank_one_force((1.0, -0.7), lambda p, lin=lin: lin @ p, d=d)
                x = rng.uniform(-1, 1, size=d)
                m = cl.build_constraint_matrix(force, x)
                smax = np.linalg.svd(m, compute_uv=False)[0]
                det = cl.admissibility_determinant(force, x)
                assert abs(det) < 1e-10 * max(smax, 1e-30) ** (2 * d)

    def test_generic_nonzero(self):
        rng = np.random.default_rng(13)
        for d in (2, 3):
            lin = rng.normal(size=(d, 2, 2, d))
            force = cl.affine_force(d, lin)
            x = rng.uniform(-1, 1, size=d)
            m = cl.build_constraint_matrix(force, x)
            smax = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(cl.admissibility_determinant(force, x)) > 1e-6 * smax ** (2 * d)


class TestParallelFields:
    def test_zero_force_unconstrained(self):
        report = cl.classify(cl.zero_force(2), (0.0, 0.0))
        assert report.kernel_dim == 4
        assert report.fields.degenerate == (True, True)
        assert report.discrepancy.count("oracle=unconstrained") == 2

    def test_rank_one_2d_oracle_directions(self):
        rng = np.random.default_rng(14)
        c = np.array([1.0, 2.0])
        lin = rng.normal(size=(2, 2))
        force = cl.rank_one_force(c, lambda p: lin @ p, d=2)
        report = cl.classify(force, (0.4, -0.2))
        expect = np.array([c[1], -c[0]]) / np.linalg.norm(c)
        for vec, degenerate in zip(report.fields.vectors, report.fields.degenerate):
            assert not degenerate
            cross = abs(vec[0] * expect[1] - vec[1] * expect[0])
            assert cross < 1e-10
        # printed formulas disagree here: the report must say so
        assert report.discrepancy is not None

    def test_discrepancy_quotes_vectors_exactly(self):
        # each quoted vector reads back as the report's floats, bit for bit
        rng = np.random.default_rng(17)
        for d in (2, 3):
            for _ in range(10):
                lin = rng.normal(size=(d, d))
                force = cl.rank_one_force((0.8, -1.1), lambda p, lin=lin: lin @ p, d=d)
                report = cl.classify(force, rng.uniform(-1, 1, size=d))
                quoted = re.findall(r"oracle=(\[[^\]]*\])", report.discrepancy)
                assert len(quoted) == d
                for text, vec in zip(quoted, report.fields.vectors):
                    assert np.array(ast.literal_eval(text)).tobytes() == vec.tobytes()

    def test_never_silent(self):
        rng = np.random.default_rng(15)
        for d in (2, 3):
            for _ in range(10):
                lin = rng.normal(size=(d, d))
                force = cl.rank_one_force((0.8, -1.1), lambda p, lin=lin: lin @ p, d=d)
                report = cl.classify(force, rng.uniform(-1, 1, size=d))
                ok = (report.orthogonality_residual is not None
                      and report.orthogonality_residual < 1e-8)
                assert ok or report.discrepancy is not None

    def test_3d_corrected_chain_matches_oracle(self):
        rng = np.random.default_rng(16)
        hits = 0
        for _ in range(20):
            force = tuned_affine_force(3, rng)
            report = cl.classify(force, np.zeros(3))
            if report.kernel_dim != 1:
                continue
            hits += 1
            assert report.orthogonality_residual < 1e-8
            assert report.discrepancy is None
        assert hits >= 15

    def test_3d_printed_chain_fails_oracle(self):
        # the published first-stage column pairing, cross-validated against
        # the kernel as classify cross-validates the corrected chain
        rng = np.random.default_rng(17)
        flagged = 0
        for _ in range(10):
            force = tuned_affine_force(3, rng)
            M = cl.build_constraint_matrix(force, np.zeros(3))
            kernel = null_space(M, TOL)
            if len(kernel) != 1:
                continue
            printed = cl._chain_field(M[cl._RELABELINGS], True)
            if not cl._cross_validate(printed, kernel, 3) < cl.CROSS_VALIDATION_TOL:
                flagged += 1
        assert flagged >= 5


class TestClassify:
    def test_rank_one_2d_effective_one_time(self):
        rng = np.random.default_rng(18)
        lin = rng.normal(size=(2, 2))
        force = cl.rank_one_force((1.0, 2.0), lambda p: lin @ p, d=2)
        report = cl.classify(force, (0.4, -0.2))
        assert report.verdict is cl.Verdict.EFFECTIVE_ONE_TIME
        assert report.parallelism_defect < 1e-10
        assert report.kernel_dim >= 1

    def test_generic_2d_no_motion(self):
        rng = np.random.default_rng(19)
        force = cl.affine_force(2, rng.normal(size=(2, 2, 2, 2)))
        report = cl.classify(force, (0.1, 0.2))
        assert report.verdict is cl.Verdict.NO_TWO_TIME_MOTION
        assert report.kernel_dim == 0

    def test_zero_force_degenerate(self):
        for d in (1, 2, 3):
            report = cl.classify(cl.zero_force(d), np.zeros(d) if d > 1 else 0.0)
            assert report.verdict is cl.Verdict.DEGENERATE

    def test_tuned_admissible_two_time(self):
        rng = np.random.default_rng(20)
        found = 0
        for _ in range(10):
            force = tuned_affine_force(3, rng)
            report = cl.classify(force, np.zeros(3))
            if report.verdict is cl.Verdict.TWO_TIME_ADMISSIBLE:
                found += 1
                assert report.kernel_dim >= 1
                assert report.parallelism_defect > 1e-8
        assert found >= 5

    def test_scale_covariance(self):
        rng = np.random.default_rng(21)
        lin = rng.normal(size=(2, 2))
        base = cl.rank_one_force((1.0, 2.0), lambda p: lin @ p, d=2)
        generic = cl.affine_force(2, rng.normal(size=(2, 2, 2, 2)))
        for lam in (1e-3, 0.1, 7.0, 1e3):
            for force in (base, generic):
                scaled = cl.ForceTensorField(force.d, lambda p, f=force, s=lam: s * f.eval(p))
                assert cl.classify(scaled, (0.4, -0.2)).verdict is cl.classify(force, (0.4, -0.2)).verdict

    def test_one_derivative_tensor_per_call(self, monkeypatch):
        calls = []
        original = cl.ForceTensorField.derivative_tensor

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(cl.ForceTensorField, "derivative_tensor", counted)
        for force in (cl.rank_one_force((1.0, 2.0), lambda x: -x),
                      cl.polynomial_force_1d({"11": [1.0, 0.0], "22": [1.0, 0.0]})):
            calls.clear()
            cl.classify(force, 0.3)
            assert len(calls) == 1
        rng = np.random.default_rng(23)
        for d in (2, 3):
            rank_one = cl.rank_one_force((1.0, 2.0), lambda p, a=rng.normal(size=(d, d)): a @ p, d=d)
            generic = cl.affine_force(d, rng.normal(size=(d, 2, 2, d)))
            for force in (rank_one, generic, tuned_affine_force(d, rng)):
                calls.clear()
                cl.classify(force, rng.uniform(-1, 1, size=d))
                assert len(calls) == 1

    def test_1d_rank_one(self):
        for c in ((1.0, 2.0), (1.0, -0.7)):  # c1 c2 < 0 leaves both radicands negative
            report = cl.classify(cl.rank_one_force(c, lambda x: -x), 0.3)
            assert report.verdict is cl.Verdict.EFFECTIVE_ONE_TIME
            assert report.consistency_residual < 1e-9
            vec = report.fields.vectors[0]
            assert abs(vec @ c) < 1e-8 * np.linalg.norm(vec)

    def test_1d_generic_no_motion(self):
        force = cl.polynomial_force_1d({"11": [1.0, 0.0], "22": [1.0, 0.0]})
        report = cl.classify(force, 0.3)
        assert report.verdict is cl.Verdict.NO_TWO_TIME_MOTION
        assert report.kernel_dim == 0

    def test_affine_force_symmetrized_by_default(self):
        rng = np.random.default_rng(22)
        force = cl.affine_force(2, rng.normal(size=(2, 2, 2, 2)))
        t = force.tensor_at(rng.uniform(-1, 1, size=(5, 2)))
        assert np.max(np.abs(t[..., 0, 1] - t[..., 1, 0])) < 1e-12


def force_of_system(M):
    """The affine force whose velocity system at x = 0 is M, entry for entry:
    build_constraint_matrix's layout read backwards, with no symmetrizing."""
    d = M.shape[0] // 2
    M4 = M.reshape(2, d, d, 2).transpose(1, 0, 2, 3) if d == 3 else M.reshape(d, 2, d, 2)
    T = np.empty((d, 2, 2, d))
    T[:, 1] = M4[..., 0]
    T[:, 0] = -M4[..., 1]
    return cl.affine_force(d, T, symmetrize=False)


def report_text(F, x, tol):
    """Every field of classify's report, or the error it raised, as exact text."""
    try:
        r = cl.classify(F, x, tol)
    except BitempoError as exc:  # both routes must raise alike
        return repr(exc)
    return repr((r.determinant_value, r.kernel_dim, [v.tolist() for v in r.fields.vectors],
                 r.fields.degenerate, r.parallelism_defect, r.verdict,
                 r.orthogonality_residual, r.discrepancy, r.consistency_residual))


class TestFullRankCertificate:
    """Where the determinant certifies full rank, null_space finds no kernel,
    and classify reports exactly what the SVD route would have reported."""

    @settings(max_examples=400, deadline=None)
    @given(n=st.sampled_from([2, 4, 6]), k=st.integers(-300, 300),
           kind=st.sampled_from(["generic", "deficient", "near"]),
           ratio=st.floats(1e-11, 1e-9), abs_tol=st.sampled_from([1e-10, 1e-3, 0.4]),
           seed=st.integers(0, 2 ** 32 - 1))
    # determinants that overflow to inf and underflow to 0
    @example(n=6, k=300, kind="generic", ratio=1e-10, abs_tol=1e-10, seed=1)
    @example(n=4, k=300, kind="near", ratio=1e-10, abs_tol=1e-10, seed=2)
    @example(n=6, k=-300, kind="generic", ratio=1e-10, abs_tol=1e-10, seed=3)
    @example(n=4, k=-300, kind="deficient", ratio=1e-10, abs_tol=1e-3, seed=4)
    # past the threshold at n = 2: s_min / s_max = 3e-10 > 2 abs_tol
    @example(n=2, k=0, kind="near", ratio=3e-10, abs_tol=1e-10, seed=5)
    def test_certified_systems_have_no_kernel(self, n, k, kind, ratio, abs_tol, seed):
        rng = np.random.default_rng(seed)
        if kind == "generic":
            M = rng.normal(size=(n, n))
        else:
            U = np.linalg.qr(rng.normal(size=(n, n)))[0]
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            s = rng.uniform(0.5, 2.0, size=n)
            if kind == "deficient":
                s[rng.choice(n, size=rng.integers(1, n), replace=False)] = 0.0
            else:
                s[0] = ratio * s.max()
            M = (U * s) @ V.T
        M = M * 2.0 ** k
        tol = Tolerances(abs_tol=abs_tol)
        F, x = force_of_system(M), np.zeros(n // 2) if n > 2 else 0.0
        assert cl._constraint_matrix_from_tensor(F.derivative_tensor(x), n // 2).tobytes() \
            == M.tobytes()
        with np.errstate(all="ignore"):  # an overflowed determinant is one of the rows
            if cl._certified_full_rank(M, float(np.linalg.det(M)), tol):
                assert null_space(M, tol) == []
            fast = report_text(F, x, tol)
            with mock.patch.object(cl, "_certified_full_rank", lambda *a: False):
                assert report_text(F, x, tol) == fast


def relabeled_fields_by_tensor(T, printed):
    """The chain fields built the way they were before the velocity system
    was relabeled by index: permute the space axes of the tensor, then build
    each permuted system from it."""
    fields = []
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        Tp = T[list(perm)][:, :, :, list(perm)]
        M = np.stack([Tp[:, 1], -Tp[:, 0]], axis=-1).transpose(1, 0, 2, 3).reshape(6, 6)
        fields.append(cl._chain_field(M, printed))
    return tuple(fields)


class TestRelabeledSystems:
    @pytest.mark.parametrize("printed", [False, True], ids=["corrected", "printed"])
    def test_equal_to_permuted_tensor_bitwise(self, printed):
        rng = np.random.default_rng(4243)
        for k in range(200):
            if k % 2:
                force = tuned_affine_force(3, rng)
                x = np.zeros(3)
            else:
                force = cl.affine_force(3, rng.normal(size=(3, 2, 2, 3)) * 10.0 ** rng.integers(-3, 4))
                x = rng.uniform(-1, 1, size=3)
            T = force.derivative_tensor(x)
            M = cl._constraint_matrix_from_tensor(T, 3)
            got = cl._chain_field(M[cl._RELABELINGS], True) if printed else cl._appendix_fields_3d(M)
            want = relabeled_fields_by_tensor(T, printed)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
