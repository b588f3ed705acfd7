"""Complex-step derivative tensors: exactness, the complex-analytic contract
of a force eval, the branch-cut rule, one eval call per derivative on every
builder, the 1-D kernel direction and the sign of every kernel direction,
the closed-form direction of a k >= 2 kernel and the one SVD of a d >= 2
classify, the stacked d = 3 chain, and verdicts that central-difference
noise used to flip."""

import configparser
import inspect
import math
import warnings

import numpy as np
import pytest

from bitempo import classical as cl, cli
from bitempo.core import DomainError, Tolerances
from test_classical import tuned_affine_force

TOL = Tolerances()


def rank_one_exact(c, dg):
    """T[..., i, j, k, m] = c_j c_k dG^i/dx^m of a rank-one force, from the
    Jacobian dG shaped (..., d, d)."""
    return np.einsum("j,k,...im->...ijkm", c, c, dg)


def counting(force):
    """The force with an eval that records the dtype of every batch it is
    given, and that record."""
    seen = []
    return cl.ForceTensorField(force.d, lambda p: seen.append(p.dtype) or force.eval(p)), seen


class TestExactTensors:
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_affine(self, d):
        rng = np.random.default_rng(60 + d)
        lin = rng.normal(size=(d, 2, 2, d)) * 10.0 ** rng.integers(-3, 4, size=(d, 2, 2, d))
        force = cl.affine_force(d, lin, rng.normal(size=d * 4))
        x = rng.uniform(-50.0, 50.0, size=(7, d))
        got = force.derivative_tensor(x[:, 0] if d == 1 else x)
        # an affine map's imaginary part is the linear part times h: exact
        want = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
        assert np.array_equal(got, np.broadcast_to(want, got.shape))

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_rank_one(self, d):
        rng = np.random.default_rng(70 + d)
        c = rng.uniform(-1.5, 1.5, size=2)
        L = rng.normal(size=(d, d))
        x = rng.uniform(-3.0, 3.0, size=(9, d))
        if d == 1:
            coeffs = rng.normal(size=4)
            force = cl.rank_one_force(c, lambda s: np.polyval(coeffs, s))
            got = force.derivative_tensor(x[:, 0])
            dg = np.polyval(np.polyder(coeffs), x)[..., None]
        else:
            force = cl.rank_one_force(c, lambda p: L @ p + np.cos(p), d=d)
            got = force.derivative_tensor(x)
            dg = L - np.sin(x)[:, :, None] * np.eye(d)
        want = rank_one_exact(c, dg)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_fd_step_plays_no_part(self):
        # fd_step reaches classify, whose derivatives do not read it
        force = cl.polynomial_force_1d({"11": [1.0, 0.0, 0.0, 0.0], "12": [2.0, 0.0, 1.0],
                                        "22": [0.5, -1.0]})
        want = cl.classify(force, 0.7)
        for fd_step in (1e-3, 1e-5, 0.5):
            got = cl.classify(force, 0.7, Tolerances(fd_step=fd_step))
            assert got.determinant_value == want.determinant_value
            assert got.consistency_residual == want.consistency_residual
            assert got.fields.vectors[0].tobytes() == want.fields.vectors[0].tobytes()

    def test_constant_g_is_flat(self):
        # a 0-d g value is broadcast at the positions' dtype: derivative exactly 0
        force = cl.rank_one_force((1.1, 0.6), lambda x: 0.5)
        x = np.array([-2.0, 0.0, 3.5])
        assert np.array_equal(force.derivative_tensor(x), np.zeros((3, 1, 2, 2, 1)))
        np.testing.assert_array_equal(force.tensor_at(x)[:, 0], np.broadcast_to(
            0.5 * np.outer((1.1, 0.6), (1.1, 0.6)), (3, 2, 2)))


class TestNotComplex:
    """An eval that is not complex-analytic in form, returning real tensors
    at complex positions or raising TypeError on them, is refused: there is
    no fallback to another derivative."""

    def test_real_zeros_are_refused(self):
        for d in (1, 2, 3):
            force = cl.ForceTensorField(d, lambda p: np.zeros(p.shape + (2, 2)))
            x = np.linspace(-1.0, 1.0, 6 * d).reshape(6, d)
            x = x[:, 0] if d == 1 else x
            with pytest.raises(DomainError, match="complex-analytic.*real tensor"):
                force.derivative_tensor(x)
            with pytest.raises(DomainError, match="complex-analytic"):
                cl.classify(force, x[0])

    @pytest.mark.parametrize("how", ["drops_imaginary", "raises_type_error"])
    def test_non_complex_eval_is_refused(self, how):
        rng = np.random.default_rng(90)
        lin = rng.normal(size=(2, 2, 2, 2))

        def evaluate(p):
            if how == "raises_type_error" and np.iscomplexobj(p):
                raise TypeError("real positions only")
            return np.einsum("ijkm,...m->...ijk", lin, np.abs(p.real) ** 1.5)

        force = cl.ForceTensorField(2, evaluate)
        x = rng.uniform(-2.0, 2.0, size=(5, 2))
        assert force.tensor_at(x).shape == (5, 2, 2, 2)
        with pytest.raises(DomainError, match="complex-analytic") as info:
            force.derivative_tensor(x)
        assert isinstance(info.value.__cause__, TypeError) == (how == "raises_type_error")

    def test_real_g_is_refused(self):
        # a g value that is not 0-d keeps its dtype: np.abs of complex is real
        for force in (cl.rank_one_force((1.0, 2.0), np.abs),
                      cl.rank_one_force((1.0, 2.0), lambda p: np.abs(p), d=2)):
            x = 0.5 if force.d == 1 else np.array([0.5, -0.25])
            with pytest.raises(DomainError, match="complex-analytic"):
                force.derivative_tensor(x)

    def test_no_state_between_calls(self):
        # a refused call leaves nothing behind: the next one is refused too
        force, seen = counting(cl.ForceTensorField(2, lambda p: np.zeros(p.shape + (2, 2))))
        for _ in range(2):
            with pytest.raises(DomainError):
                force.derivative_tensor(np.zeros(2))
        assert seen == [np.dtype(complex)] * 2


def builders():
    """(id, builder, force) for every force builder of classical at every
    dimension it takes, and for the force of every [force] family the CLI
    builds, with both forms of the rank-one g."""
    rng = np.random.default_rng(100)
    out = [("rank_one_force-1d", "rank_one_force", cl.rank_one_force((0.8, 1.2), lambda s: -s * s)),
           ("polynomial_force_1d", "polynomial_force_1d",
            cl.polynomial_force_1d({"11": [1.0, 0.5, 2.0], "21": [1.0]}))]
    for d in (2, 3):
        L = rng.normal(size=(d, d))
        out.append((f"rank_one_force-{d}d", "rank_one_force",
                    cl.rank_one_force((0.8, 1.2), lambda p, L=L: L @ p, d=d)))
    for d in (1, 2, 3):
        out.append((f"affine_force-{d}d", "affine_force",
                    cl.affine_force(d, rng.normal(size=(d, 2, 2, d)))))
        out.append((f"zero_force-{d}d", "zero_force", cl.zero_force(d)))
    sections = [
        ("cli-g_poly", "rank_one", "dimension = 1\nc = 1 2\ng_poly = -1 0.5 0\n"),
        ("cli-g_poly_constant", "rank_one", "dimension = 1\nc = 1 2\ng_poly = 0.5\n"),
        ("cli-g_poly_empty", "rank_one", "dimension = 1\nc = 1 2\ng_poly =\n"),
        ("cli-g_linear-2d", "rank_one",
         "dimension = 2\nc = 1 2\ng_const = 0.5 -0.3\ng_linear = -1 0.4 0.2 -0.8\n"),
        ("cli-g_linear-3d", "rank_one",
         "dimension = 3\nc = 1 2\ng_const = 0.5 -0.3 1\ng_linear = -1 0.4 0.2 -0.8 1 0 0 1 2\n"),
        ("cli-polynomial", "polynomial", "dimension = 1\nf11_poly = 1 0 0\nf22_poly = 2 1\n"),
        ("cli-affine", "affine", "dimension = 2\nlinear = " + " ".join(["0.5"] * 16) + "\n"),
        ("cli-zero", "zero", "dimension = 3\n"),
    ]
    for name, family, section in sections:
        cfg = configparser.ConfigParser(interpolation=None)
        cfg.read_string(f"[force]\nfamily = {family}\n{section}")
        out.append((name, f"cli:{family}", cli._force(cfg)))
    return out


def one_entry_force(fn):
    """A d = 1 force whose every entry is fn(x)."""
    return cl.ForceTensorField(1, lambda p: fn(p[..., 0])[..., None, None, None] * np.ones((1, 2, 2)))


BRANCH_CUTS = {"sqrt": np.sqrt, "log": np.log, "power": lambda x: x ** 0.5, "arcsin": np.arcsin}


class TestBranchCuts:
    """A cut crossed at x gives a finite complex step with an imaginary part
    of the size of F, where the real eval is NaN.  Where an imaginary part
    exceeds 2^-50 (1 + |Re F|), the tensors at the real positions are
    evaluated once: a cut raises there, and finite tensors leave the large
    derivative standing."""

    @pytest.mark.parametrize("name", sorted(BRANCH_CUTS))
    def test_cut_raises_as_the_real_eval(self, name):
        force, seen = counting(one_entry_force(BRANCH_CUTS[name]))
        with pytest.raises(cl.EvaluationError, match=r"non-finite at -4\.0"):
            force.derivative_tensor(-4.0)
        assert seen == [np.dtype(complex), np.dtype(float)]

    @pytest.mark.parametrize("name", sorted(BRANCH_CUTS))
    def test_cut_after_the_complex_path_was_found(self, name):
        # nothing of an earlier call decides a later one
        force = one_entry_force(BRANCH_CUTS[name])
        first = force.derivative_tensor(0.25)
        with pytest.raises(cl.EvaluationError, match=r"non-finite at -4\.0"):
            force.derivative_tensor(np.array([0.25, -4.0]))
        assert force.derivative_tensor(0.25).tobytes() == first.tobytes()

    def test_cut_at_d2_fails_classify(self):
        force = cl.rank_one_force((1.0, 2.0), lambda p: np.sqrt(p), d=2)
        assert cl.classify(force, np.array([1.0, 4.0])).verdict is cl.Verdict.EFFECTIVE_ONE_TIME
        with pytest.raises(cl.EvaluationError, match=r"non-finite at \[1.0, -4.0\]"):
            cl.classify(force, np.array([1.0, -4.0]))

    def test_analytic_side_keeps_the_exact_step(self):
        force = one_entry_force(np.sqrt)
        assert force.derivative_tensor(4.0)[0, 0, 0, 0] == 0.25

    def test_large_derivative_of_a_large_value_keeps_the_complex_step(self):
        force, seen = counting(one_entry_force(lambda x: 2.0 ** 60 * x))
        assert force.derivative_tensor(0.5)[0, 0, 0, 0] == 2.0 ** 60
        assert seen == [np.dtype(complex)]

    def test_bound_is_relative_to_one_plus_the_value(self):
        # Im F = 1.5 * 2^-50 at F = 1: within 2^-50 (1 + |F|)
        force, seen = counting(one_entry_force(lambda x: 1.0 + 1.5 * 2.0 ** 50 * x))
        assert force.derivative_tensor(0.0)[0, 0, 0, 0] == 1.5 * 2.0 ** 50
        assert seen == [np.dtype(complex)]

    def test_large_derivative_of_a_small_value_stands(self):
        # dF/dx = 2^60 where F = 0 is past 2^50 (1 + |F|): the test fires,
        # the real tensor is finite, and the exact complex step stands
        force, seen = counting(one_entry_force(lambda x: 2.0 ** 60 * x))
        assert force.derivative_tensor(0.0)[0, 0, 0, 0] == 2.0 ** 60
        assert seen == [np.dtype(complex), np.dtype(float)]

    def test_pole_named_by_real_position(self):
        # 1/(x + ih) is finite, with |Im| = 2^100; the real eval divides by zero
        force = one_entry_force(lambda x: 1.0 / x)
        with (np.errstate(divide="ignore"),
              pytest.raises(cl.EvaluationError, match=r"non-finite at 0\.0")):
            force.derivative_tensor(np.array([1.0, 0.0]))

    def test_non_finite_named_by_real_position(self):
        # 1 / (p - a) divides by zero at a, and a is named, not a + i h e_m
        force = cl.rank_one_force((1.0, 1.0), lambda p: 1.0 / (p - np.array([1.0, 0.5])), d=2)
        with (np.errstate(divide="ignore", invalid="ignore"),
              pytest.raises(cl.EvaluationError, match=r"at \[1.0, 0.5\]")):
            force.derivative_tensor(np.array([[0.0, 0.0], [1.0, 0.5]]))

    def test_cut_under_a_far_larger_value_is_missed(self):
        # the limit of the test: Im sqrt(-4 + ih) = 2 is below 2^-50 * 1e20,
        # so this step passes, and its derivative is 2 / h
        force = one_entry_force(lambda x: 1e20 + np.sqrt(x))
        got = force.derivative_tensor(-4.0)[0, 0, 0, 0]
        assert got == 2.0 * 2.0 ** 100


class TestEveryBuilderIsComplex:
    def test_every_builder_covered(self):
        names = {name for name in cl.__all__ if inspect.isfunction(getattr(cl, name))
                 and inspect.signature(getattr(cl, name)).return_annotation == "ForceTensorField"}
        names |= {f"cli:{family}" for family in cli.FORCE_FAMILIES}
        assert names == {builder for _, builder, _ in builders()}

    @pytest.mark.parametrize("force", [force for _, _, force in builders()],
                             ids=[name for name, _, _ in builders()])
    def test_complex_step_without_warnings(self, force):
        x = np.linspace(-0.9, 0.7, 4 * force.d).reshape(4, force.d)
        x = x[:, 0] if force.d == 1 else x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = force.derivative_tensor(x)
            cl.classify(force, x[1])
        assert got.dtype == float and np.isfinite(got).all()

    @pytest.mark.parametrize("force", [force for _, _, force in builders()],
                             ids=[name for name, _, _ in builders()])
    def test_one_eval_per_derivative(self, force):
        counted, seen = counting(force)
        x = np.linspace(-0.9, 0.7, 4 * force.d).reshape(4, force.d)
        x = x[:, 0] if force.d == 1 else x
        counted.derivative_tensor(x)
        assert seen == [np.dtype(complex)]
        cl.classify(counted, x[1])
        assert seen == [np.dtype(complex)] * 2


# (seed, check index) of constraint_sweep-shaped rank-one draws whose verdict
# the central difference flipped, with the verdict it gave: the draw is
# rng = default_rng([seed, i]), d = 2 when i % 6 == 0 and 3 when i % 6 == 3,
# then L ~ N(0, 1) (d x d), c ~ U(0.5, 1.5)^2, x ~ U(-1, 1)^d and
# G(p) = L p.  The complex step gives every one of them effective_one_time.
FLIPPED_DRAWS = [
    (21, 524034, "degenerate"),
    (21, 548589, "two_time_admissible"),
    (21, 747384, "two_time_admissible"),
    (22, 44946, "two_time_admissible"),
    (22, 563379, "two_time_admissible"),
    (22, 716970, "degenerate"),
]


class TestRankOneVerdictFlips:
    @pytest.mark.parametrize("seed, i, flipped", FLIPPED_DRAWS,
                             ids=[f"{s}-{i}" for s, i, _ in FLIPPED_DRAWS])
    def test_effective_one_time(self, seed, i, flipped):
        d = 2 if i % 6 == 0 else 3
        rng = np.random.default_rng([seed, i])
        L = rng.normal(size=(d, d))
        c = rng.uniform(0.5, 1.5, size=2)
        x = rng.uniform(-1.0, 1.0, size=d)
        force = cl.rank_one_force(c, lambda p: L @ p, d=d)
        report = cl.classify(force, x)
        assert report.verdict is cl.Verdict.EFFECTIVE_ONE_TIME, flipped
        assert report.kernel_dim == d
        assert report.parallelism_defect <= 1e-12


def svd_direction(b):
    """The 90-degree rotation of the right singular vector of the 1 x 2
    block b, signed as np.linalg.svd signs it."""
    u = np.linalg.svd(b[None, :])[2][0]
    return np.array([u[1], -u[0]])


class TestOneDimensionalKernel:
    def test_direction_equals_svd(self):
        # the SVD's direction up to its sign, which the one rule sets; on
        # blocks without a zero entry the rule and LAPACK agree
        rng = np.random.default_rng(110)
        eps = np.finfo(float).eps
        for k in range(4000):
            b = rng.normal(size=2) * 10.0 ** rng.integers(-4, 5, size=2)
            if k % 8 < 4:
                b[k % 2] = (0.0, -0.0)[(k // 2) % 2]
            v = np.concatenate([b, rng.normal(size=2)])
            (status, got), _ = cl._kernel_directions([v], 2, TOL)
            want = svd_direction(b)
            assert status == "direction"
            assert got[1] >= 0.0 and (got[1] != 0.0 or got[0] < 0.0), b
            if k % 8 >= 4:
                assert np.all(np.sign(got) == np.sign(want)), b
            np.testing.assert_allclose(got, math.copysign(1.0, got @ want) * want,
                                       rtol=0, atol=4 * eps)

    def test_zero_velocity_kept(self):
        v = np.array([0.0, 0.0, 0.6, 0.8])
        assert cl._kernel_directions([v], 2, TOL)[0] == ("zero-velocity", None)


class TestKernelDirectionSign:
    """Every kernel direction, from a 1-D kernel or from a k >= 2 one, is
    signed by one rule on its unit span u: u[0] < 0, or u[1] < 0 where
    u[0] = 0.  Its field (u[1], -u[0]) thus has a second entry that is never
    negative, and a negative first entry where the second is zero.  The sign
    follows the span and not the basis that LAPACK picks for it."""

    def test_one_dimensional_kernel_on_the_first_axis(self):
        # the velocity block is (b, 0) with b > 0: the SVD signed it u = (1, 0)
        rng = np.random.default_rng(3)
        lin = rng.normal(size=(2, 2, 2, 2))
        lin = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
        lin[:, 1, :, 0] = lin[:, :, 1, 0] = 0
        report = cl.classify(cl.affine_force(2, lin), np.zeros(2))
        assert report.kernel_dim == 1
        assert str(report.fields.vectors[0].tolist()) == "[-0.0, 1.0]"
        assert "oracle=[-0.0, 1.0]" in report.discrepancy

    def test_ulp_change_keeps_every_sign(self):
        rng = np.random.default_rng(130)
        for k in range(120):
            d = 2 + k % 2
            L = rng.normal(size=(d, d))
            c = rng.uniform(0.5, 1.5, size=2)
            x = rng.uniform(-1.0, 1.0, size=d)
            bumped = L.copy()
            idx = tuple(rng.integers(d, size=2))
            bumped[idx] = np.nextafter(bumped[idx], np.inf)
            a, b = (cl.classify(cl.rank_one_force(c, lambda p, L=M: L @ p, d=d), x)
                    for M in (L, bumped))
            assert a.kernel_dim == b.kernel_dim == d
            for u, w in zip(a.fields.vectors, b.fields.vectors):
                assert u[1] >= 0.0 and w[1] >= 0.0
                np.testing.assert_allclose(u, w, rtol=0, atol=1e-9)

    def test_any_basis_of_one_span(self):
        # two kernel vectors whose 2 x 2 blocks each have rank one
        rng = np.random.default_rng(131)
        for _ in range(200):
            dirs = rng.normal(size=(2, 2))  # one velocity direction per coordinate
            coef = rng.normal(size=(2, 2))  # its amplitude in each kernel vector
            v1, v2 = (np.concatenate([coef[0, j] * dirs[0], coef[1, j] * dirs[1]]) for j in (0, 1))
            want = cl._kernel_directions([v1, v2], 2, TOL)
            for basis in ([-v1, v2], [v2, v1], [v1 + v2, v1 - v2], [-v2, -v1]):
                got = cl._kernel_directions(basis, 2, TOL)
                for (sw, uw), (sg, ug) in zip(want, got):
                    assert sw == sg == "direction"
                    np.testing.assert_allclose(ug, uw, rtol=0, atol=1e-12)
                    assert ug[1] >= 0.0


def block_with(rng, k, s0, s1):
    """A 2 x k velocity block with singular values s0 >= s1 and random
    singular vectors."""
    u = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(k, 2)))[0]
    return u @ np.diag([s0, s1]) @ v.T


def first_coordinate(block, rng):
    """(status, field) of the first coordinate of d = 2 kernel vectors
    whose first blocks are the columns of block."""
    kernel = [np.concatenate([block[:, j], rng.normal(size=2)]) for j in range(block.shape[1])]
    return cl._kernel_directions(kernel, 2, TOL)[0]


class TestGramDirection:
    """A k x 2 block of k >= 2 kernel vectors takes its direction from the
    closed-form Gram eigenvector and its rank from the 2 x 2 minors, as an
    SVD would: s1 > 1e-8 s0 is the plane."""

    def test_rank_one_blocks_match_the_svd(self):
        rng = np.random.default_rng(140)
        eps = np.finfo(float).eps
        for n in range(4000):
            k = 2 + n % 2
            dirn = rng.normal(size=2)
            if n % 8 < 2:
                dirn[n % 2] = (0.0, -0.0)[(n // 8) % 2]
            block = np.outer(dirn, rng.normal(size=k)) * 10.0 ** rng.integers(-4, 5)
            status, got = first_coordinate(block, rng)
            assert status == "direction", block
            u = np.linalg.svd(block.T)[2][0]
            if u[0] > 0.0 or (u[0] == 0.0 and u[1] > 0.0):
                u = -u
            assert got[1] >= 0.0 and (got[1] != 0.0 or got[0] < 0.0), block
            np.testing.assert_allclose(got, [u[1], -u[0]], rtol=0, atol=4 * eps)

    @pytest.mark.parametrize("k", (2, 3))
    def test_rank_by_singular_value_ratio(self, k):
        rng = np.random.default_rng(141 + k)
        for n in range(1000):
            s0 = 10.0 ** rng.uniform(-4, 4)
            wide = 10.0 ** rng.uniform(-6, 0)    # s1 / s0 >= 1e-6: the plane
            thin = 10.0 ** rng.uniform(-16, -10)  # s1 / s0 <= 1e-10: one direction
            assert first_coordinate(block_with(rng, k, s0, wide * s0), rng)[0] == "unconstrained"
            status, got = first_coordinate(block_with(rng, k, s0, thin * s0), rng)
            assert status == "direction" and got[1] >= 0.0

    def test_zero_block_kept(self):
        rng = np.random.default_rng(142)
        assert first_coordinate(np.zeros((2, 3)), rng) == ("zero-velocity", None)


class TestOneSvdPerClassify:
    """classify at d >= 2 makes one SVD, the kernel's, and evaluates the
    printed fields only where there is a kernel to check them against."""

    @staticmethod
    def force(family, d, rng):
        if family == "rank_one":
            L = rng.normal(size=(d, d))
            return cl.rank_one_force(rng.uniform(0.5, 1.5, size=2), lambda p: L @ p, d=d), d
        if family == "generic":
            return cl.affine_force(d, rng.normal(size=(d, 2, 2, d))), 0
        return tuned_affine_force(d, rng), 1

    @pytest.mark.parametrize("family", ("rank_one", "generic", "tuned"))
    @pytest.mark.parametrize("d", (2, 3))
    def test_one_svd(self, d, family, monkeypatch):
        rng = np.random.default_rng(150 + d)
        force, kdim = self.force(family, d, rng)
        x = np.zeros(d) if family == "tuned" else rng.uniform(-1.0, 1.0, size=d)
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        report = cl.classify(force, x)
        assert report.kernel_dim == kdim
        assert len(calls) == 1

    @pytest.mark.parametrize("d", (2, 3))
    def test_printed_fields_only_with_a_kernel(self, d, monkeypatch):
        rng = np.random.default_rng(160 + d)
        calls = []
        name = f"_appendix_fields_{d}d"
        printed = getattr(cl, name)
        monkeypatch.setattr(cl, name, lambda *a: calls.append(a) or printed(*a))
        generic = cl.affine_force(d, rng.normal(size=(d, 2, 2, d)))
        report = cl.classify(generic, rng.uniform(-1.0, 1.0, size=d))
        assert report.kernel_dim == 0 and report.verdict is cl.Verdict.NO_TWO_TIME_MOTION
        assert report.orthogonality_residual is None and report.discrepancy is None
        assert report.fields.degenerate == (True,) * d
        assert calls == []
        assert cl.classify(tuned_affine_force(d, rng), np.zeros(d)).kernel_dim == 1
        assert len(calls) == 1


def chain_by_relabeling(M, printed):
    """The d = 3 chain fields one relabeled system at a time, through
    np.ix_ and np.outer, as they were taken before the (3, 6, 6) stack."""
    P = 0 if printed else 5
    out = []
    for p in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        S = M[np.ix_([3 * k + p[i] for k in range(2) for i in range(3)],
                     [2 * p[m] + j for m in range(3) for j in range(2)])]
        A1 = S[:5, :5] * S[5, P] - np.outer(S[:5, P], S[5, :5])
        A2 = A1[:4, :4] * A1[4, 4] - np.outer(A1[:4, 4], A1[4, :4])
        A3 = A2[:3, :3] * A2[3, 3] - np.outer(A2[:3, 3], A2[3, :3])
        out.append(A3[1, :2] * A3[2, 2] - A3[1, 2] * A3[2, :2])
    return out


class TestStackedChain:
    @pytest.mark.parametrize("printed", [False, True], ids=["corrected", "printed"])
    def test_bitwise_equal_to_per_relabeling(self, printed):
        rng = np.random.default_rng(120)
        for k in range(300):
            M = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-4, 5)
            if k % 3 == 0:
                M[rng.integers(6), :] = 0.0
            got = cl._chain_field(M[cl._RELABELINGS], True) if printed else cl._appendix_fields_3d(M)
            assert got.shape == (3, 2)
            for g, w in zip(got, chain_by_relabeling(M, printed)):
                assert g.tobytes() == w.tobytes()

    def test_rank_one_corrected_chain_vanishes(self):
        # on an exact rank-one tensor the corrected chain is the zero field,
        # so its cross-validation residual reads inf and a discrepancy is named
        L = np.array([[0.3, -1.1, 0.4], [0.9, 0.2, -0.5], [-0.7, 0.6, 1.3]])
        force = cl.rank_one_force((0.8, 1.3), lambda p: L @ p, d=3)
        report = cl.classify(force, np.array([0.2, -0.4, 0.5]))
        assert report.verdict is cl.Verdict.EFFECTIVE_ONE_TIME
        assert report.orthogonality_residual == math.inf
        assert report.discrepancy is not None
