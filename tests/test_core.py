import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitempo.core import (
    DomainError,
    EvaluationError,
    Grid2T,
    TimePlanePoint,
    Tolerances,
    central_difference,
    determinant,
    finite,
    finite_power,
    null_space,
)


def cofactor_det(a):
    """Brute-force cofactor expansion, the independent determinant oracle."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestCentralDifference:
    def test_quadratic_exact(self):
        assert central_difference(lambda x: x ** 2, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-7)

    def test_constant(self):
        assert central_difference(lambda x: 3.7, 12.3, 0.5) == 0.0

    def test_sin_against_cos(self):
        for at in (0.0, 0.4, -1.2):
            got = central_difference(math.sin, at, 1e-3)
            assert got == pytest.approx(math.cos(at), abs=1e-6)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-3, 3))
    def test_degree_two_polynomials_exact(self, a, b, c, at):
        f = lambda x: a * x ** 2 + b * x + c
        got = central_difference(f, at, 1e-4)
        assert got == pytest.approx(2 * a * at + b, abs=1e-6 * (1 + abs(a) + abs(b)))

    def test_nonfinite_reported_with_point(self):
        with pytest.raises(EvaluationError, match="1.5"):
            central_difference(lambda x: float("nan"), 1.0, 0.5)

    def test_positive_step_required(self):
        with pytest.raises(DomainError):
            central_difference(math.sin, 0.0, 0.0)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == 1.0

    def test_repeated_row(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        assert determinant(m) == pytest.approx(0.0, abs=1e-14)

    def test_random_against_cofactor_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = rng.normal(size=(6, 6))
            expected = cofactor_det(m)
            assert determinant(m) == pytest.approx(expected, rel=1e-10)

    def test_complex_entries(self):
        m = np.array([[1j, 1.0], [1.0, 1j]])
        assert determinant(m) == pytest.approx(-2.0)

    def test_product_with_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
            assert determinant(m) * determinant(np.linalg.inv(m)) == pytest.approx(1.0, abs=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            determinant(np.ones((2, 3)))

    def test_oversize_rejected(self):
        with pytest.raises(DomainError):
            determinant(np.eye(9))


class TestNullSpace:
    def test_identity_has_empty_kernel(self):
        assert null_space(np.eye(5)) == []

    def test_zero_matrix_full_kernel(self):
        basis = null_space(np.zeros((4, 4)))
        assert len(basis) == 4

    def test_rank_deficient_membership(self):
        rng = np.random.default_rng(3)
        tol = Tolerances()
        for n, k in ((4, 2), (6, 3), (5, 4)):
            m = rng.normal(size=(n, k)) @ rng.normal(size=(k, n))
            basis = null_space(m, tol)
            assert len(basis) == n - k
            norm = np.linalg.norm(m)
            for v in basis:
                assert np.linalg.norm(m @ v) <= 10 * tol.abs_tol * norm * np.linalg.norm(v)

    def test_complex_kernel_vectors_satisfy_mv_zero(self):
        # regression: complex kernels need the conjugated SVD rows
        m = np.array([[1j + 1, 1 - 1j], [1 + 1j, 1j - 1]], dtype=complex)
        m[1] = m[0] * (2 - 1j)
        basis = null_space(m)
        assert len(basis) == 1
        assert np.linalg.norm(m @ basis[0]) < 1e-12

    def test_rank_one_velocity_system_kernel(self):
        # derivative tensor of a rank-one force admits p^m_j = c_j u^m
        rng = np.random.default_rng(11)
        c = np.array([1.0, 2.0])
        gd = rng.normal(size=(2, 2))
        T = np.einsum("j,k,im->ijkm", c, c, gd)
        rows = []
        for i in range(2):
            for k in range(2):
                rows.append([T[i, 1, k, 0], -T[i, 0, k, 0], T[i, 1, k, 1], -T[i, 0, k, 1]])
        m = np.array(rows)
        basis = null_space(m)
        assert len(basis) >= 1
        for u, w in ((1.0, 0.0), (0.3, -0.7)):
            v = np.array([c[0] * u, c[1] * u, c[0] * w, c[1] * w])
            v /= np.linalg.norm(v)
            assert np.linalg.norm(m @ v) < 1e-12
            # v lies in the span of the returned basis
            coords = np.stack(basis, axis=1)
            proj = coords @ (coords.conj().T @ v)
            assert np.linalg.norm(proj - v) < 1e-10


class TestTypes:
    def test_time_plane_point_finite(self):
        with pytest.raises(DomainError):
            TimePlanePoint(float("inf"), 0.0)

    def test_grid_needs_three_points(self):
        with pytest.raises(DomainError):
            Grid2T(0, 1, 0, 1, 2, 5)

    def test_grid_needs_increasing_axes(self):
        with pytest.raises(DomainError):
            Grid2T(1, 0, 0, 1, 5, 5)

    def test_grid_space_axis_all_or_nothing(self):
        with pytest.raises(DomainError):
            Grid2T(0, 1, 0, 1, 5, 5, x_min=0.0)

    def test_grid_values_and_spacing(self):
        g = Grid2T(0, 1, 0, 2, 5, 3, x_min=-1, x_max=1, nx=11)
        assert g.d1 == pytest.approx(0.25)
        assert g.d2 == pytest.approx(1.0)
        assert g.dx == pytest.approx(0.2)
        assert g.refined().n1 == 9

    def test_tolerances_positive(self):
        with pytest.raises(DomainError):
            Tolerances(fd_step=-1.0)

    def test_tolerances_step_scaling(self):
        t = Tolerances(fd_step=1e-5)
        assert t.step_for(100.0) == pytest.approx(1e-3)
        assert t.step_for(0.01) == pytest.approx(1e-5)


class TestFinite:
    def test_finite_values_pass_through(self):
        assert finite(2.5, "x") == 2.5
        assert finite_power(3.0, 2, "x^2") == 9.0
        assert finite_power(1e-200, 2, "x^2") == 0.0

    @pytest.mark.parametrize("call", [
        lambda: finite(math.inf, "x^2"),
        lambda: finite(math.nan, "x^2"),
        lambda: finite_power(1e308, 2, "x^2"),
        lambda: finite_power(math.inf, 2, "x^2"),
        lambda: finite_power(np.float64(1e200), 2, "x^2"),
    ])
    def test_overflow_names_quantity(self, call):
        with pytest.raises(EvaluationError, match=r"^x\^2 overflows"):
            call()
