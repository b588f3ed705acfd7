import math
import re

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
    def test_diagonal_elements_frozen(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0.5, 1], [1, -0.5]])
        for t in (TimePlanePoint(0, 0), TimePlanePoint(3.2, -1.1)):
            assert q.evolve_element(sys_, 0, 0, t) == pytest.approx(0.5)
            assert q.evolve_element(sys_, 1, 1, t) == pytest.approx(-0.5)

    def test_full_turn_phase(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        got = q.evolve_element(sys_, 1, 0, TimePlanePoint(2 * math.pi, 0.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_modulus_time_independent(self):
        rng = np.random.default_rng(1)
        sys_ = random_system(rng)
        for _ in range(20):
            n, m = rng.integers(0, 4, size=2)
            t = TimePlanePoint(*rng.uniform(-5, 5, size=2))
            assert abs(q.evolve_element(sys_, n, m, t)) == pytest.approx(abs(sys_.X0[n, m]), abs=1e-12)

    def test_mixed_partial_matches_spacing_product(self):
        rng = np.random.default_rng(2)
        sys_ = random_system(rng)
        hbar = 0.7
        h = 1e-4
        for _ in range(10):
            n, m = rng.integers(0, 4, size=2)
            sp = sys_.spacing(n, m)
            if abs(sp.d1 * sp.d2) < 1e-3 or abs(sys_.X0[n, m]) < 1e-3:
                continue
            t1, t2 = rng.uniform(-1, 1, size=2)
            f = lambda a, b: q.evolve_element(sys_, n, m, TimePlanePoint(a, b), hbar)
            mixed = (f(t1 + h, t2 + h) - f(t1 + h, t2 - h)
                     - f(t1 - h, t2 + h) + f(t1 - h, t2 - h)) / (4 * h * h)
            expected = f(t1, t2) * (1j * sp.d1 / hbar) * (1j * sp.d2 / hbar)
            assert abs(mixed - expected) / abs(expected) < 1e-4

    def test_antisymmetric_plane_constraint(self):
        # d1 * d(x)/dt2 - d2 * d(x)/dt1 vanishes for every element
        rng = np.random.default_rng(3)
        sys_ = random_system(rng)
        h = 1e-5
        for _ in range(10):
            n, m = rng.integers(0, 4, size=2)
            sp = sys_.spacing(n, m)
            t1, t2 = rng.uniform(-1, 1, size=2)
            f = lambda a, b: q.evolve_element(sys_, n, m, TimePlanePoint(a, b))
            d1x = (f(t1 + h, t2) - f(t1 - h, t2)) / (2 * h)
            d2x = (f(t1, t2 + h) - f(t1, t2 - h)) / (2 * h)
            assert abs(sp.d1 * d2x - sp.d2 * d1x) < 1e-4


class TestElementCharacteristic:
    def test_worked_pair(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        ec = q.element_characteristic(sys_, 1, 0)
        np.testing.assert_allclose(ec.field, [2.0, -1.0])
        assert ec.norm == pytest.approx(math.sqrt(5))
        assert math.cos(ec.theta) == pytest.approx(1 / math.sqrt(5))

    def test_diagonal_degenerate(self):
        sys_ = q.TwoTimeQuantumSystem([0, 1], [0, 2], [[0, 1], [1, 0]])
        assert q.element_characteristic(sys_, 0, 0).degenerate

    def test_proportional_spectra_single_direction(self):
        eps = 0.37
        e2 = np.array([0.0, 1.0, 2.5, 4.1])
        e1 = eps * e2 + 3.0
        sys_ = q.TwoTimeQuantumSystem(e1, e2, np.eye(4))
        angles = []
        for n in range(4):
            for m in range(4):
                ec = q.element_characteristic(sys_, n, m)
                if not ec.degenerate:
                    angles.append(ec.theta % math.pi)
        assert len(angles) > 0
        spread = max(angles) - min(angles)
        assert min(spread, math.pi - spread) < 1e-12


class TestRotation:
    def test_zero_angle_identity(self):
        ec = q.ElementCharacteristic(field=np.array([0.0, -1.0]), norm=1.0,
                                     theta=0.0, degenerate=False)
        at = q.inverse_rotate_times(ec, 0.3, -0.8)
        assert (at.t1, at.t2) == pytest.approx((0.3, -0.8))

    @given(st.floats(-math.pi, math.pi), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, theta, tau1, tau2):
        ec = q.ElementCharacteristic(field=np.array([math.sin(theta), -math.cos(theta)]),
                                     norm=1.0, theta=theta, degenerate=False)
        at = q.inverse_rotate_times(ec, tau1, tau2)
        assert at.t1 ** 2 + at.t2 ** 2 == pytest.approx(tau1 ** 2 + tau2 ** 2, abs=1e-9)

    def test_element_depends_on_tau1_only(self):
        rng = np.random.default_rng(4)
        sys_ = random_system(rng)
        for n in range(4):
            for m in range(4):
                ec = q.element_characteristic(sys_, n, m)
                if ec.degenerate:
                    continue
                tau1 = rng.uniform(-3, 3)
                a = q.evolve_element(sys_, n, m, q.inverse_rotate_times(ec, tau1, rng.uniform(-3, 3)))
                b = q.evolve_element(sys_, n, m, q.inverse_rotate_times(ec, tau1, rng.uniform(-3, 3)))
                assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_degenerate_rotation_rejected(self):
        ec = q.ElementCharacteristic(field=np.zeros(2), norm=0.0, theta=0.0, degenerate=True)
        with pytest.raises(DomainError):
            q.inverse_rotate_times(ec, 1.0, 1.0)


class TestTau2Dependence:
    @staticmethod
    def per_element(sys_, hbar):
        # reference: the per-element loop the array expression replaced
        tau1, tau2 = 0.37, (0.21, -0.83)
        worst = 0.0
        for n in range(sys_.n_levels):
            for m in range(sys_.n_levels):
                ec = q.element_characteristic(sys_, n, m)
                if ec.degenerate:
                    continue
                a = q.evolve_element(sys_, n, m, q.inverse_rotate_times(ec, tau1, tau2[0]), hbar)
                b = q.evolve_element(sys_, n, m, q.inverse_rotate_times(ec, tau1, tau2[1]), hbar)
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
        # reference: the per-point loop the closed form replaced
        rng = np.random.default_rng(11)
        sys_ = random_system(rng, n=32)
        psi = q.StateVector.normalized(rng.normal(size=32) + 1j * rng.normal(size=32))
        hbar = 0.7
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

    def test_conjugate_phases_match_second_exp(self):
        # reference: the conjugate phases taken from a second complex exp; the
        # moments must agree bit for bit
        rng = np.random.default_rng(21)
        sys_ = random_system(rng, n=32)
        psi = q.StateVector.normalized(rng.normal(size=32) + 1j * rng.normal(size=32))
        hbar = 0.8
        grid = Grid2T(0, 2, -1, 1, 101, 101)
        trace = q.variance_trace(sys_, psi, grid, hbar)
        phase = (np.multiply.outer(grid.t1_values, sys_.E1)[:, None, :]
                 + np.multiply.outer(grid.t2_values, sys_.E2)[None, :, :]) / hbar
        conjugate = np.exp(-1j * phase)
        product = (conjugate * psi.psi) @ sys_.X0.T
        phases = np.exp(1j * phase)
        xv = phases * product
        mean = (psi.psi.conj() @ xv[..., None])[..., 0]
        second = (xv.conj()[..., None, :] @ xv[..., :, None])[..., 0, 0].real
        assert trace.mean.tobytes() == mean.tobytes()
        assert trace.second_moment.tobytes() == second.tobytes()

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
