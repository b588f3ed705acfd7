import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from bitempo import quantum as q
from bitempo.core import DomainError, EvaluationError, Grid2T, TimePlanePoint


def random_system(rng, n=4):
    e1 = rng.normal(size=n)
    e2 = rng.normal(size=n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = 0.5 * (x + x.conj().T)
    return q.TwoTimeQuantumSystem(e1, e2, x)


def degenerate_system(rng):
    """Six levels: pairs degenerate in both generators, and one pair
    degenerate in E1 only."""
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    return q.TwoTimeQuantumSystem([0.5, 0.5, -1.0, 2.0, 2.0, 0.5],
                                  [1.0, 1.0, 0.3, -0.7, 1.2, 1.0], 0.5 * (x + x.conj().T))


def whole_grid_moments(sys_, psi, grid, hbar):
    """<X> and <X^2> from w = D^dagger psi and y = X0 w formed over the whole grid at once."""
    d1 = np.exp(-1j * (np.multiply.outer(grid.t1_values, sys_.E1) / hbar))
    d2 = np.exp(-1j * (np.multiply.outer(grid.t2_values, sys_.E2) / hbar))
    w = d1[:, None, :] * (d2 * psi.psi)
    y = (w.reshape(-1, sys_.n_levels) @ sys_.X0.T).reshape(w.shape)
    mean = (w.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]
    yf = y.view(float)
    return mean, (yf[..., None, :] @ yf[..., :, None])[..., 0, 0]


def measure_swept_phase(budget, samples=4001):
    """Brute-force oracle: unwrap the phase of the evolved element along the
    ray to t and count real/imaginary sign changes as a cross-check."""
    lam = np.linspace(0.0, 1.0, samples)
    vals = np.exp(1j * (budget.dE1 * budget.t.t1 + budget.dE2 * budget.t.t2) * lam / budget.hbar)
    steps = np.angle(vals[1:] / vals[:-1])
    total = float(np.sum(np.abs(steps)))
    crossings = 0
    for comp in (vals.real, vals.imag):
        signs = np.sign(comp)
        signs = signs[signs != 0]
        crossings += int(np.sum(signs[1:] != signs[:-1]))
    assert abs(crossings - math.floor(2 * total / math.pi)) <= 1
    return total


class TestEvolveElement:
    """evolved_elements, read element by element."""

    def test_diagonal_elements_frozen(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0.5, 1], [1, -0.5]])
        for t1, t2 in ((0, 0), (3.2, -1.1)):
            x = q.evolved_elements(sys_, t1, t2)
            assert x[0, 0] == pytest.approx(0.5)
            assert x[1, 1] == pytest.approx(-0.5)

    def test_full_turn_phase(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        got = q.evolved_elements(sys_, 2 * math.pi, 0.0)[1, 0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_modulus_time_independent(self):
        rng = np.random.default_rng(1)
        sys_ = random_system(rng)
        for _ in range(20):
            t1, t2 = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(np.abs(q.evolved_elements(sys_, t1, t2)),
                                       np.abs(sys_.X0), rtol=0, atol=1e-12)

    def test_each_element_at_its_own_point(self):
        rng = np.random.default_rng(5)
        sys_ = random_system(rng)
        t1, t2 = rng.uniform(-5, 5, size=(2, 4, 4))
        hbar = 0.6
        got = q.evolved_elements(sys_, t1, t2, hbar)
        for n in range(4):
            for m in range(4):
                assert got[n, m] == q.evolved_elements(sys_, t1[n, m], t2[n, m], hbar)[n, m]

    def test_mixed_partial_matches_spacing_product(self):
        rng = np.random.default_rng(2)
        sys_ = random_system(rng)
        d1, d2 = sys_.spacing_matrices()
        hbar = 0.7
        h = 1e-4
        for _ in range(10):
            n, m = rng.integers(0, 4, size=2)
            if abs(d1[n, m] * d2[n, m]) < 1e-3 or abs(sys_.X0[n, m]) < 1e-3:
                continue
            t1, t2 = rng.uniform(-1, 1, size=2)
            f = lambda a, b: q.evolved_elements(sys_, a, b, hbar)[n, m]
            mixed = (f(t1 + h, t2 + h) - f(t1 + h, t2 - h)
                     - f(t1 - h, t2 + h) + f(t1 - h, t2 - h)) / (4 * h * h)
            expected = f(t1, t2) * (1j * d1[n, m] / hbar) * (1j * d2[n, m] / hbar)
            assert abs(mixed - expected) / abs(expected) < 1e-4

    def test_antisymmetric_plane_constraint(self):
        # d1 * d(x)/dt2 - d2 * d(x)/dt1 vanishes for every element
        rng = np.random.default_rng(3)
        sys_ = random_system(rng)
        d1, d2 = sys_.spacing_matrices()
        h = 1e-5
        for _ in range(10):
            t1, t2 = rng.uniform(-1, 1, size=2)
            f = lambda a, b: q.evolved_elements(sys_, a, b)
            d1x = (f(t1 + h, t2) - f(t1 - h, t2)) / (2 * h)
            d2x = (f(t1, t2 + h) - f(t1, t2 - h)) / (2 * h)
            assert np.max(np.abs(d1 * d2x - d2 * d1x)) < 1e-4

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(DomainError):
            q.evolved_elements(random_system(np.random.default_rng(1)), 0.3, 0.4, hbar=0.0)


class TestElementCharacteristic:
    """The spacing direction of each element, as element_times rotates onto it."""

    def test_worked_pair(self):
        # element (1, 0) has spacings (1, 2): its rotated tau1 axis is (1, 2) / sqrt(5)
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        t1, t2 = q.element_times(sys_, 1.0, 0.0)
        assert (t1[1, 0], t2[1, 0]) == pytest.approx((1 / math.sqrt(5), 2 / math.sqrt(5)))

    def test_diagonal_degenerate(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        t1, t2 = q.element_times(sys_, 0.3, -0.8)
        assert (t1[0, 0], t2[0, 0]) == (0.3, -0.8)
        assert (t1[1, 1], t2[1, 1]) == (0.3, -0.8)

    def test_proportional_spectra_single_direction(self):
        eps = 0.37
        e2 = np.array([0.0, 1.0, 2.5, 4.1])
        e1 = eps * e2 + 3.0
        sys_ = q.TwoTimeQuantumSystem(e1, e2, np.eye(4))
        d1, d2 = sys_.spacing_matrices()
        t1, t2 = q.element_times(sys_, 1.0, 0.0)
        angles = np.arctan2(t2, t1)[(d1 != 0) | (d2 != 0)] % math.pi
        assert angles.size > 0
        spread = np.max(angles) - np.min(angles)
        assert min(spread, math.pi - spread) < 1e-12


class TestRotation:
    def test_zero_angle_identity(self):
        # E2 constant and E1 increasing: every pair n > m points along +t1
        sys_ = q.TwoTimeQuantumSystem([0.0, 1.0, 2.5], [0.4, 0.4, 0.4], np.eye(3))
        t1, t2 = q.element_times(sys_, 0.3, -0.8)
        for n, m in ((1, 0), (2, 0), (2, 1)):
            assert (t1[n, m], t2[n, m]) == pytest.approx((0.3, -0.8))

    @given(st.floats(-math.pi, math.pi), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, theta, tau1, tau2):
        sys_ = q.TwoTimeQuantumSystem([math.cos(theta), 0.0], [math.sin(theta), 0.0], np.eye(2))
        t1, t2 = q.element_times(sys_, tau1, tau2)
        assert t1 ** 2 + t2 ** 2 == pytest.approx(np.full((2, 2), tau1 ** 2 + tau2 ** 2),
                                                  abs=1e-9)

    def test_element_depends_on_tau1_only(self):
        rng = np.random.default_rng(4)
        sys_ = random_system(rng)
        tau1 = rng.uniform(-3, 3, size=(4, 4))
        a = q.evolved_elements(sys_, *q.element_times(sys_, tau1, rng.uniform(-3, 3, (4, 4))))
        b = q.evolved_elements(sys_, *q.element_times(sys_, tau1, rng.uniform(-3, 3, (4, 4))))
        assert np.all(np.abs(a - b) < 1e-12 * np.maximum(1.0, np.abs(a)))


class TestTau2Dependence:
    @staticmethod
    def per_element(sys_, hbar):
        # reference: each element evolved on its own in scalar arithmetic
        tau1, tau2 = 0.37, (0.21, -0.83)
        worst = 0.0
        for n in range(sys_.n_levels):
            for m in range(sys_.n_levels):
                d1 = float(sys_.E1[n] - sys_.E1[m])
                d2 = float(sys_.E2[n] - sys_.E2[m])
                if d1 == 0.0 and d2 == 0.0:
                    continue
                theta = math.atan2(d2, d1)
                ct, st = math.cos(theta), math.sin(theta)
                a, b = (complex(sys_.X0[n, m])
                        * cmath.exp(1j * (d1 * (ct * tau1 - st * t2) + d2 * (st * tau1 + ct * t2))
                                    / hbar)
                        for t2 in tau2)
                worst = max(worst, abs(a - b))
        return worst

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_element_loop(self, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, n=32)
        if seed % 2:  # repeated levels give degenerate off-diagonal pairs
            sys_ = q.TwoTimeQuantumSystem(np.round(sys_.E1), np.round(sys_.E2), sys_.X0)
        hbar = rng.uniform(0.5, 2.0)
        tol = 1e-14 * max(1.0, float(np.max(np.abs(sys_.X0))))
        assert abs(q.tau2_dependence(sys_, hbar) - self.per_element(sys_, hbar)) < tol

    def test_degenerate_pairs_left_out(self):
        sys_ = q.TwoTimeQuantumSystem([1, 1], [2, 2], [[0.0, 0.7], [0.7, 0.0]])
        assert q.tau2_dependence(sys_) == 0.0

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(DomainError):
            q.tau2_dependence(random_system(np.random.default_rng(1)), hbar=0.0)


class TestVarianceTrace:
    def test_overflow_named_before_hermiticity(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], np.full((2, 2), 1e308))
        psi = q.StateVector.normalized([1, 1])
        with pytest.raises(EvaluationError, match=re.escape("<X> and <X^2> overflow")):
            q.variance_trace(sys_, psi, Grid2T(0, 1, 0, 1, 5, 5))

    def test_eigenstate_of_diagonal_observable(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1, 2], [0, 2, 1], np.diag([0.3, -0.4, 1.1]))
        psi = q.StateVector([1, 0, 0])
        grid = Grid2T(0, 2, 0, 2, 5, 5)
        trace = q.variance_trace(sys_, psi, grid)
        np.testing.assert_allclose(trace.variance, 0.0, atol=1e-12)

    def test_two_level_closed_form(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        psi = q.StateVector.normalized([1, 1])
        grid = Grid2T(0, 2 * math.pi, 0, 2 * math.pi, 21, 21)
        trace = q.variance_trace(sys_, psi, grid)
        T1, T2 = np.meshgrid(grid.t1_values, grid.t2_values, indexing="ij")
        np.testing.assert_allclose(trace.variance, np.sin(T1 + 2 * T2) ** 2, atol=1e-12)
        np.testing.assert_allclose(trace.mean.real, np.cos(T1 + 2 * T2), atol=1e-12)

    def test_dense_evolution_oracle(self):
        rng = np.random.default_rng(5)
        sys_ = random_system(rng)
        psi = q.StateVector.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        hbar = 0.9
        grid = Grid2T(0, 2, -1, 1, 7, 7)
        trace = q.variance_trace(sys_, psi, grid, hbar)
        h1, h2 = np.diag(sys_.E1), np.diag(sys_.E2)
        for i, t1 in enumerate(grid.t1_values):
            for j, t2 in enumerate(grid.t2_values):
                u = expm(-1j * (h1 * t1 + h2 * t2) / hbar)
                pv = u @ psi.psi
                assert np.linalg.norm(pv) == pytest.approx(1.0, abs=1e-12)
                mean = np.vdot(pv, sys_.X0 @ pv)
                second = np.vdot(sys_.X0 @ pv, sys_.X0 @ pv)
                assert abs(mean - trace.mean[i, j]) < 1e-10
                assert abs(second - trace.second_moment[i, j]) < 1e-10

    def test_matches_per_point_loop(self):
        # reference: the per-point loop the closed form replaced, on a random
        # spectrum and on a degenerate one with hbar != 1
        for seed, make, hbar in ((11, lambda rng: random_system(rng, n=32), 0.7),
                                 (12, degenerate_system, 1.9)):
            rng = np.random.default_rng(seed)
            sys_ = make(rng)
            n = sys_.n_levels
            psi = q.StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
            grid = Grid2T(-1, 2, 0, 3, 6, 5)
            trace = q.variance_trace(sys_, psi, grid, hbar)
            tol = 1e-12 * max(1.0, np.linalg.norm(sys_.X0) ** 2)
            d1, d2 = sys_.spacing_matrices()
            for i, t1 in enumerate(grid.t1_values):
                for j, t2 in enumerate(grid.t2_values):
                    xv = (sys_.X0 * np.exp(1j * (d1 * t1 + d2 * t2) / hbar)) @ psi.psi
                    mean = np.vdot(psi.psi, xv)
                    second = np.vdot(xv, xv).real
                    assert abs(mean - trace.mean[i, j]) < tol
                    assert abs(second - trace.second_moment[i, j]) < tol
                    assert abs(second - mean.real ** 2 - trace.variance[i, j]) < tol

    def test_per_axis_tables_match_inline_construction(self):
        # reference: D^dagger psi from one phase table per time axis, then
        # y = X0 w, <X> = w^dagger y and <X^2> = |y|^2; the moments must agree
        # bit for bit
        rng = np.random.default_rng(21)
        sys_ = random_system(rng, n=32)
        psi = q.StateVector.normalized(rng.normal(size=32) + 1j * rng.normal(size=32))
        hbar = 0.8
        grid = Grid2T(0, 2, -1, 1, 101, 101)
        trace = q.variance_trace(sys_, psi, grid, hbar)
        d1 = np.exp(-1j * (np.multiply.outer(grid.t1_values, sys_.E1) / hbar))
        d2 = np.exp(-1j * (np.multiply.outer(grid.t2_values, sys_.E2) / hbar))
        w = d1[:, None, :] * (d2 * psi.psi)
        y = (w.reshape(-1, 32) @ sys_.X0.T).reshape(w.shape)
        mean = (w.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]
        yf = y.view(float)
        second = (yf[..., None, :] @ yf[..., :, None])[..., 0, 0]
        assert trace.mean.tobytes() == mean.tobytes()
        assert trace.second_moment.tobytes() == second.tobytes()
        assert trace.variance.tobytes() == (second - mean.real ** 2).tobytes()

    @pytest.mark.parametrize("make, n1, n2, hbar", [
        (lambda rng: random_system(rng, n=32), 3, 5000, 0.8),
        (lambda rng: random_system(rng, n=32), 7, 333, 1.0),
        (lambda rng: random_system(rng, n=2), 3, 16385, 1.0),
        (lambda rng: random_system(rng, n=200), 37, 29, 1.3),
        (degenerate_system, 101, 101, 1.9),
    ], ids=["row_over_blocks", "last_block_partial", "two_levels_last_block_one_point",
            "200_levels", "degenerate_hbar"])
    def test_blocks_match_whole_grid(self, make, n1, n2, hbar):
        rng = np.random.default_rng(n1 * n2)
        sys_ = make(rng)
        n = sys_.n_levels
        block = q.TRACE_BLOCK_ELEMENTS // n
        assert n1 * n2 > block and (n1 * n2) % block != 0
        psi = q.StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
        grid = Grid2T(-1, 2, 0, 3, n1, n2)
        trace = q.variance_trace(sys_, psi, grid, hbar)
        mean, second = whole_grid_moments(sys_, psi, grid, hbar)
        assert trace.mean.tobytes() == mean.tobytes()
        assert trace.second_moment.tobytes() == second.tobytes()
        assert trace.variance.tobytes() == (second - mean.real ** 2).tobytes()

    @pytest.mark.parametrize("n, n1, n2", [(32, 101, 101), (32, 3, 5000), (200, 101, 101)])
    def test_working_set_bounded(self, n, n1, n2):
        # w and y for the whole grid at once would take 2 n1 n2 n complex numbers:
        # 10.4, 15.4 and 65 MB here
        rng = np.random.default_rng(n)
        sys_ = random_system(rng, n=n)
        psi = q.StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
        grid = Grid2T(0, 2, -1, 1, n1, n2)
        tracemalloc.start()
        try:
            trace = q.variance_trace(sys_, psi, grid, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = trace.mean.nbytes + trace.second_moment.nbytes + trace.variance.nbytes
        assert peak - outputs < 5 * 2 ** 20

    def test_degenerate_pairs_kept(self):
        # identical spectra in both generators: evolution is trivial but the
        # off-diagonal constants must still feed the second moment
        x0 = np.array([[0.0, 0.7], [0.7, 0.0]])
        sys_ = q.TwoTimeQuantumSystem([1, 1], [2, 2], x0)
        psi = q.StateVector([1, 0])
        grid = Grid2T(0, 1, 0, 1, 3, 3)
        trace = q.variance_trace(sys_, psi, grid)
        np.testing.assert_allclose(trace.variance, 0.49, atol=1e-12)

    def test_ehrenfest_double_commutator(self):
        # second derivatives of <x> match the averaged acceleration operator
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        psi = q.StateVector.normalized([1, 0.6 + 0.2j])
        hbar = 1.0
        d1, d2 = sys_.spacing_matrices()

        def mean_x(t1, t2):
            xt = sys_.X0 * np.exp(1j * (d1 * t1 + d2 * t2) / hbar)
            return float(np.vdot(psi.psi, xt @ psi.psi).real)

        h = 1e-4
        for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            di = d1 if i == 0 else d2
            dj = d1 if j == 0 else d2
            accel = -sys_.X0 * di * dj / hbar ** 2  # double-commutator force
            for t1, t2 in ((0.3, 0.5), (1.1, -0.4)):
                ft = accel * np.exp(1j * (d1 * t1 + d2 * t2) / hbar)
                expected = float(np.vdot(psi.psi, ft @ psi.psi).real)
                ti = (t1 + h, t2) if i == 0 else (t1, t2 + h)
                lo = (t1 - h, t2) if i == 0 else (t1, t2 - h)
                if i == j:
                    got = (mean_x(*ti) - 2 * mean_x(t1, t2) + mean_x(*lo)) / h ** 2
                else:
                    got = (mean_x(t1 + h, t2 + h) - mean_x(t1 + h, t2 - h)
                           - mean_x(t1 - h, t2 + h) + mean_x(t1 - h, t2 - h)) / (4 * h * h)
                assert got == pytest.approx(expected, abs=1e-4)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            q.TwoTimeQuantumSystem([0, 1], [0, 1], [[0, 1], [0.5, 0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x0_rejected(self, bad):
        # NaN passes the Hermiticity comparison, and the trace guards compare
        # False on NaN too, so only this check stops an all-NaN trace
        with pytest.raises(DomainError, match="X0 must be finite"):
            q.TwoTimeQuantumSystem([0, 1], [0, 2], [[bad, 1], [1, 0]])

    def test_state_norm_enforced(self):
        with pytest.raises(DomainError):
            q.StateVector([1, 1])


class TestVisibility:
    def test_zero_time_frozen(self):
        b = q.UncertaintyBudget(1, 2, 0, 0, TimePlanePoint(0, 0))
        assert q.uncertainty_visibility(b) is q.Visibility.FROZEN

    def test_boundary_oscillating(self):
        b = q.UncertaintyBudget(1, 2, 0, 0, TimePlanePoint(2 * math.pi, 0))
        assert q.uncertainty_visibility(b) is q.Visibility.OSCILLATING

    def test_swept_phase_overflow_named(self):
        b = q.UncertaintyBudget(1e10, 0, 0, 0, TimePlanePoint(1e10, 0), hbar=1e-300)
        with pytest.raises(EvaluationError, match="swept phase .* overflows"):
            q.uncertainty_visibility(b)

    def test_agrees_with_phase_measurement(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = q.UncertaintyBudget(rng.uniform(-2, 2), rng.uniform(-2, 2), 0, 0,
                                    TimePlanePoint(*rng.uniform(-4, 4, size=2)),
                                    hbar=rng.uniform(0.5, 2))
            swept = measure_swept_phase(b)
            assert b.swept_phase == pytest.approx(swept, rel=1e-9, abs=1e-12)
            if swept < 0.2 * math.pi:
                expected = q.Visibility.FROZEN
            elif swept >= 2 * math.pi:
                expected = q.Visibility.OSCILLATING
            else:
                expected = q.Visibility.THRESHOLD
            assert q.uncertainty_visibility(b) is expected


class TestAngleAndWidth:
    def test_worked_angle(self):
        b = q.UncertaintyBudget(1, 2, 0.1, 0.2, TimePlanePoint(3, 4))
        report = q.angle_and_width(b)
        assert math.cos(report.phi) == pytest.approx(1 / (5 * math.sqrt(5)), abs=1e-12)
        assert report.bound == pytest.approx(0.1, abs=1e-12)

    def test_out_of_domain_names_inequality(self):
        b = q.UncertaintyBudget(0.1, 0.1, 0.0, 0.0, TimePlanePoint(0.1, 0.1))
        with pytest.raises(q.UncertaintyDomainError, match="cos"):
            q.angle_and_width(b)

    def test_equality_singular(self):
        b = q.UncertaintyBudget(0.0, 1.0, 0.1, 0.1, TimePlanePoint(0.0, 1.0))
        report = q.angle_and_width(b)
        assert report.singular
        assert report.phi == 0.0
        assert math.isinf(report.dphi_exact)

    @pytest.mark.parametrize("budget, quantity", [
        ((1.0, 1.0, 1e308, 1e308, 3.0, 3.0), "dE1*ddE1 + dE2*ddE2"),
        ((1e308, 1.0, 0.0, 0.0, 3.0, 3.0), "dE^2 = dE1^2 + dE2^2"),
        ((1e103, 0.0, 0.0, 0.0, 3.0, 3.0), "dE^3"),
        ((1e-10, 0.0, 1e300, 0.0, 1e11, 0.0), "bound"),
        ((1e100, 0.0, 1.0, 0.0, 1e210, 0.0), "q = t*dE"),
        ((1e100, 0.0, 1.0, 0.0, 1e60, 0.0), "t*dE^3"),
        ((1.0, 0.0, 1.0, 0.0, 1e160, 0.0), "q^2"),
    ])
    def test_overflow_names_quantity(self, budget, quantity):
        b = q.UncertaintyBudget(*budget[:4], TimePlanePoint(*budget[4:]))
        with pytest.raises(EvaluationError, match=re.escape(quantity) + " overflows"):
            q.angle_and_width(b)

    @pytest.mark.parametrize("budget, quantity", [
        ((1e-200, 0.0, 1.0, 0.0, 1e201, 0.0), "dE^2 = dE1^2 + dE2^2"),
        ((1e-110, 0.0, 1.0, 0.0, 1e111, 0.0), "dE^3"),
    ])
    def test_underflow_names_quantity(self, budget, quantity):
        b = q.UncertaintyBudget(*budget[:4], TimePlanePoint(*budget[4:]))
        with pytest.raises(EvaluationError, match=re.escape(quantity) + " underflows to 0"):
            q.angle_and_width(b)

    def test_zero_spacings_rejected(self):
        b = q.UncertaintyBudget(0, 0, 0.1, 0.1, TimePlanePoint(1, 1))
        with pytest.raises(q.UncertaintyDomainError):
            q.angle_and_width(b)

    def test_bounds_hold_in_domain(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            de = rng.uniform(0.1, 3, size=2)
            dde = rng.uniform(0, 0.5, size=2)
            hbar = rng.uniform(0.5, 2)
            norm = math.hypot(*de)
            radius = rng.uniform(math.sqrt(2) * 1.001, 20) * hbar / norm
            ang = rng.uniform(0, 2 * math.pi)
            b = q.UncertaintyBudget(de[0], de[1], dde[0], dde[1],
                                    TimePlanePoint(radius * math.cos(ang), radius * math.sin(ang)),
                                    hbar=hbar)
            report = q.angle_and_width(b)
            assert report.dphi_exact <= report.bound * (1 + 1e-12)
            assert report.dphi_lowest_order <= report.bound * (1 + 1e-12)
            count += 1
