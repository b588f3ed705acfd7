"""Constraint analysis for Newtonian dynamics driven by two time parameters.

A force tensor F^i_{jk}(x) (space index i up, the two time indices j, k down)
drives the momenta p^i_j through d p^i_j / d t_k = F^i_{kj}.  Demanding that
the coordinates be twice continuously differentiable in (t1, t2) turns the
force derivatives into a homogeneous linear system for the velocities.  This
module builds that system for one, two and three space dimensions, evaluates
the determinant fields that decide whether genuinely two-time motion is
possible, extracts the characteristic direction each coordinate is forced to
follow, and provides a reference integrator for the rank-one force family
F^i_{jk} = c_j c_k G^i(x), the constructive family on which all constraints
are satisfied.

Closed-form field expressions from nested 2x2 determinants are evaluated
exactly as published alongside a null-space oracle; whenever the two routes
disagree the report carries both candidates instead of silently preferring
either.  Verdicts are always driven by the null-space route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    ComplexCharacteristicError,
    DomainError,
    EvaluationError,
    Grid2T,
    Tolerances,
    TruncationError,
    determinant,
    null_space,
)

__all__ = [
    "ForceTensorField",
    "CharacteristicField",
    "Verdict",
    "ParallelFieldReport",
    "ConstraintReport",
    "TrajectorySurface",
    "SurfaceCheck",
    "rank_one_force",
    "polynomial_force_1d",
    "affine_force",
    "zero_force",
    "consistency_residual_1d",
    "orbit_relation_1d",
    "characteristic_field_1d",
    "check_surface",
    "integrate_rank_one_1d",
    "build_constraint_matrix",
    "admissibility_determinant",
    "parallel_fields_2d",
    "parallel_fields_3d",
    "classify",
]

CROSS_VALIDATION_TOL = 1e-8
# RK4 knots integrate_rank_one_1d may lay over all its step sizes together;
# the bundled harmonic scenario takes about 13.2k
RK4_KNOT_BUDGET = 1_000_000
# |X| past which integrate_rank_one_1d stops with TruncationError
RK4_BLOWUP = 1e6


# ---------------------------------------------------------------------------
# domain types and force builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceTensorField:
    """A force tensor field x -> F^i_{jk}(x) in d space dimensions; it never
    sees t1 or t2.

    ``eval`` maps a batch of positions shaped (..., d) to tensors shaped
    (..., d, 2, 2) in one call, at d = 1 too.  ``tensor_at`` and
    ``derivative_tensor`` take positions shaped (..., d), or plain numbers at
    d = 1, and return (..., d, 2, 2) and (..., d, 2, 2, d); each position
    takes its own FD step fd_step * max(1, max_m |x^m|).
    """

    d: int
    eval: callable

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise DomainError(f"spatial dimension must be 1, 2 or 3, got {self.d}")

    @property
    def _point_shape(self) -> tuple:
        """Shape of one position as ``tensor_at`` takes it."""
        return () if self.d == 1 else (self.d,)

    def _positions(self, x) -> np.ndarray:
        """Positions as a float array shaped (..., d)."""
        pos = np.asarray(x, dtype=float)
        if self.d == 1:
            return pos[..., None]
        if pos.shape[-1:] != (self.d,):
            raise DomainError(f"a d={self.d} position needs {self.d} coordinates, "
                              f"got an array of shape {pos.shape}")
        return pos

    def tensor_at(self, x) -> np.ndarray:
        """Force tensors at positions (..., d), shaped (..., d, 2, 2)."""
        pos = self._positions(x)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the position
            out = np.asarray(self.eval(pos), dtype=float)
        expected = pos.shape + (2, 2)
        if out.shape != expected:
            raise DomainError(f"force eval returned shape {out.shape}, expected {expected}")
        finite = np.isfinite(out).all(axis=(-3, -2, -1))
        if not finite.all():
            where = pos.reshape((-1,) + self._point_shape)[np.argmin(finite.ravel())]
            raise EvaluationError(f"force tensor non-finite at {where.tolist()!r}")
        return out

    def derivative_tensor(self, x, tol: Tolerances = Tolerances()) -> np.ndarray:
        """Central-difference derivatives T[..., i, j, k, m] = dF^i_{jk}/dx^m,
        from one ``tensor_at`` call at both sides along every axis m."""
        pos = self._positions(x)
        step = tol.fd_step * np.maximum(1.0, np.max(np.abs(pos), axis=-1))
        shift = step[..., None, None] * np.eye(self.d)  # [..., m, coordinate]
        points = pos[..., None, :] + np.stack([shift, -shift])  # [side, ..., m, coordinate]
        t = self.tensor_at(points.reshape(points.shape[:-1] + self._point_shape))
        diff = (t[0] - t[1]) / (2.0 * step)[..., None, None, None, None]
        return np.moveaxis(diff, -4, -1)


@dataclass(frozen=True)
class CharacteristicField:
    """Per-coordinate characteristic directions in the (t1, t2) plane."""

    vectors: tuple
    degenerate: tuple


class Verdict(str, Enum):
    NO_TWO_TIME_MOTION = "no_two_time_motion"
    EFFECTIVE_ONE_TIME = "effective_one_time"
    TWO_TIME_ADMISSIBLE = "two_time_admissible"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ParallelFieldReport:
    """Closed-form fields next to their null-space cross-check.

    ``appendix`` holds the published determinant expressions evaluated as
    printed; ``oracle`` holds unit field directions recovered from the kernel
    of the velocity system (None when the kernel leaves a coordinate
    unconstrained or motionless).  ``discrepancy`` is non-None whenever the
    two routes disagree beyond CROSS_VALIDATION_TOL, and carries both.
    """

    d: int
    appendix: tuple
    oracle: tuple
    oracle_status: tuple
    kernel_dim: int
    orthogonality_residual: float | None
    discrepancy: str | None


@dataclass(frozen=True)
class ConstraintReport:
    """A verdict at one point.  ``orthogonality_residual`` and ``discrepancy``
    come from the d >= 2 field report, ``consistency_residual`` from the
    d = 1 primes."""

    determinant_value: float
    kernel_dim: int
    fields: CharacteristicField
    parallelism_defect: float
    verdict: Verdict
    orthogonality_residual: float | None = None
    discrepancy: str | None = None
    consistency_residual: float | None = None


def rank_one_force(c, g, d: int = 1) -> ForceTensorField:
    """Force family F^i_{jk} = c_j c_k G^i(x).

    For d=1, ``g`` maps an array of positions elementwise, and its value
    is broadcast against them, so a constant ``g`` works too; otherwise it
    maps one position to a length-d array and is called once per position.
    Every admissibility constraint holds identically on this family.
    """
    c = np.asarray(c, dtype=float).reshape(2)
    cc = np.outer(c, c)
    if d == 1:
        def gv(x):
            return np.broadcast_to(np.asarray(g(x), dtype=float), np.shape(x))
    else:
        def gv(pos):
            pos = np.asarray(pos, dtype=float)
            return np.array([np.asarray(g(p), dtype=float).reshape(d)
                             for p in pos.reshape(-1, d)]).reshape(pos.shape)
    return ForceTensorField(d, lambda x: cc * gv(x)[..., None, None])


def polynomial_force_1d(coeffs: dict) -> ForceTensorField:
    """d=1 force with polynomial components.

    ``coeffs`` maps "11", "12", "22" (and optionally "21") to polynomial
    coefficient sequences in numpy's highest-power-first order.  A missing
    "21" mirrors "12".
    """
    polys = {key: np.asarray(val, dtype=float) for key, val in coeffs.items()}
    if "21" not in polys and "12" in polys:
        polys["21"] = polys["12"]

    def evaluate(x):
        out = np.zeros(np.shape(x) + (2, 2))
        for (j, k), key in (((0, 0), "11"), ((0, 1), "12"), ((1, 0), "21"), ((1, 1), "22")):
            if key in polys:
                out[..., j, k] = np.polyval(polys[key], x)
        return out

    return ForceTensorField(1, evaluate)


def affine_force(d: int, linear, const=None, symmetrize: bool = True) -> ForceTensorField:
    """Force affine in position: F^i_{jk}(x) = const[i,j,k] + linear[i,j,k,m] x^m.

    Affine forces realize any prescribed derivative tensor exactly, which
    makes them the natural probes for the determinant and field checks.
    """
    lin = np.asarray(linear, dtype=float).reshape(d, 2, 2, d)
    con = np.zeros((d, 2, 2)) if const is None else np.asarray(const, dtype=float).reshape(d, 2, 2)
    if symmetrize:
        lin = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
        con = 0.5 * (con + con.transpose(0, 2, 1))
    if d == 1:
        # a product: a one-term einsum sum starts from +0.0, so loses a -0.0
        return ForceTensorField(1, lambda x: con + lin[..., 0] * np.asarray(x)[..., None, None])
    return ForceTensorField(d, lambda x: con + np.einsum("ijkm,...m->...ijk", lin, x))


def zero_force(d: int) -> ForceTensorField:
    return affine_force(d, np.zeros((d, 2, 2, d)))


# ---------------------------------------------------------------------------
# one space dimension: functions of the primes F'_{jk} = dF_{jk}/dx, shaped
# (..., 2, 2) and taken from one derivative_tensor call
# ---------------------------------------------------------------------------

# primes up to this size keep every product of two of them, and every
# difference of two such products, finite
_PRIME_LIMIT = math.sqrt(np.finfo(float).max / 2)


def _primes_1d(T: np.ndarray, x) -> np.ndarray:
    """The primes F'_{jk} = T[..., 0, j, k, 0] of a d = 1 derivative tensor
    at positions x (...).  Raises EvaluationError at the first position, in
    row-major order, where their products would overflow."""
    fp = T[..., 0, :, :, 0]
    size = np.max(np.abs(fp), axis=(-2, -1))
    fits = size <= _PRIME_LIMIT
    if not np.all(fits):
        k = int(np.argmin(np.ravel(fits)))
        raise EvaluationError(f"products of the primes F'_jk overflow at x={np.ravel(x)[k]}: "
                              f"got max|F'_jk| = {np.ravel(size)[k]:.6g}")
    return fp


def _prime_scale(fp: np.ndarray):
    return np.maximum(1.0, np.max(np.abs(fp), axis=(-2, -1))) ** 2


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Dot products of the rows of (..., 2) arrays, each rounded as np.dot
    rounds a single pair (which a plain multiply-and-sum does not)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def consistency_residual_1d(fp: np.ndarray) -> np.ndarray:
    """|F'_11 F'_22 - F'_12 F'_21| for primes (..., 2, 2); zero is necessary
    for two-time motion."""
    return np.abs(fp[..., 0, 0] * fp[..., 1, 1] - fp[..., 0, 1] * fp[..., 1, 0])


def orbit_relation_1d(fp: np.ndarray, q1, q2, tol: Tolerances = Tolerances()):
    """The orbit function Phi = F'_11 F'_12 / (F'_21 F'_22) against the
    squared momentum ratio (q1 / q2)^2, which must agree along any consistent
    motion.

    Takes primes (..., 2, 2) and gauge-shifted momenta q_j = p_j - A_j shaped
    (...); the ratio is invariant under rescaling q.  Returns the arrays phi,
    ratio_squared and residual = |ratio_squared - phi|, each NaN wherever
    F'_21 F'_22 or q2 vanishes within tolerance.
    """
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    denom = fp[..., 1, 0] * fp[..., 1, 1]
    undefined = ((np.abs(denom) <= tol.abs_tol * _prime_scale(fp))
                 | (np.abs(q2) <= tol.abs_tol * np.maximum(1.0, np.maximum(np.abs(q1), np.abs(q2)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = fp[..., 0, 0] * fp[..., 0, 1] / denom
        # float_power rounds as libm pow, like ``** 2`` on a scalar; ``** 2``
        # on an array squares, which differs in the last bit about once in 1000
        ratio_sq = np.float_power(q1 / q2, 2)
        residual = np.abs(ratio_sq - phi)
    return tuple(np.where(undefined, np.nan, v) for v in (phi, ratio_sq, residual))


def characteristic_field_1d(fp: np.ndarray, x, tol: Tolerances = Tolerances()):
    """Directions along which x(t1, t2) is constant, shaped (..., 2), and
    their degenerate flags, from primes (..., 2, 2) at positions x (...).

    The direction is the paper's (sqrt(F'_22 F'_21), -sqrt(F'_11 F'_12)).
    On a consistent force the two radicands share a sign; where both are
    negative beyond tolerance the real direction is
    (sqrt|F'_22 F'_21|, +sqrt|F'_11 F'_12|), the paper's up to a common
    factor i.  Raises at the first position, in row-major order, where the
    radicands have opposite signs beyond tolerance.  A zero direction is
    returned with its degenerate flag set.
    """
    r1 = fp[..., 1, 1] * fp[..., 1, 0]
    r2 = fp[..., 0, 0] * fp[..., 0, 1]
    thresh = tol.abs_tol * _prime_scale(fp)
    negative = (r1 < -thresh) | (r2 < -thresh)
    mixed = negative & ((r1 > thresh) | (r2 > thresh))
    if np.any(mixed):
        k = int(np.argmax(mixed))
        a, b, t = (np.ravel(v)[k] for v in (r1, r2, thresh))
        bad = "F'_22*F'_21" if a < -t else "F'_11*F'_12"
        raise ComplexCharacteristicError(
            f"radicand {bad} = {min(a, b):.3e} < 0 at x={np.ravel(x)[k]}: complex characteristics")
    sign = np.where(negative, -1.0, 1.0)
    vec = np.stack([np.sqrt(np.maximum(sign * r1, 0.0)),
                    -sign * np.sqrt(np.maximum(sign * r2, 0.0))], axis=-1)
    return vec, np.sqrt(_rowdot(vec, vec)) <= np.sqrt(thresh)


@dataclass(frozen=True)
class SurfaceCheck:
    """The d = 1 constraints of a force checked along a sampled surface.

    ``phi``, ``ratio_squared`` and ``residual`` are (n1, n2) grids of the
    orbit relation, NaN wherever the orbit function or the momentum ratio is
    undefined.  The two scalars are worst cases over the interior grid
    points: ``orthogonality_residual`` of |v . grad x| / (|v| max(1, |grad x|))
    for the characteristic direction v wherever it is nonzero, and
    ``orbit_residual`` of the finite orbit residuals.
    """

    phi: np.ndarray
    ratio_squared: np.ndarray
    residual: np.ndarray
    orthogonality_residual: float
    orbit_residual: float


def check_surface(F: ForceTensorField, surface: TrajectorySurface,
                  tol: Tolerances = Tolerances()) -> SurfaceCheck:
    """Orbit relation at every grid point and characteristic orthogonality at
    every interior grid point of a surface x(t1, t2) with momenta c_j X'.

    One batched FD derivative at the sampled positions serves both checks.
    grad x is a central difference of the dense surface evaluator with step
    fd_step * max(1, extent) along each time axis.  A complex characteristic
    raises at the first interior point in row-major order.
    """
    if F.d != 1:
        raise DomainError(f"check_surface needs a one-dimensional force, got d={F.d}")
    grid, x = surface.grid, surface.values
    fp = _primes_1d(F.derivative_tensor(x.ravel(), tol), x.ravel()).reshape(x.shape + (2, 2))
    phi, ratio_sq, residual = orbit_relation_1d(fp, *surface.grid_momenta, tol)

    inner = (slice(1, -1), slice(1, -1))
    vec, _ = characteristic_field_1d(fp[inner], x[inner], tol)
    T1, T2 = np.meshgrid(grid.t1_values[1:-1], grid.t2_values[1:-1], indexing="ij")
    step1 = tol.fd_step * max(1.0, abs(grid.t1_max - grid.t1_min))
    step2 = tol.fd_step * max(1.0, abs(grid.t2_max - grid.t2_min))
    grad = np.stack([
        (surface.position(T1 + step1, T2) - surface.position(T1 - step1, T2)) / (2 * step1),
        (surface.position(T1, T2 + step2) - surface.position(T1, T2 - step2)) / (2 * step2),
    ], axis=-1)
    norm = np.sqrt(_rowdot(vec, vec))
    moving = norm > 0
    ortho = (np.abs(_rowdot(vec, grad))[moving]
             / (norm * np.maximum(1.0, np.sqrt(_rowdot(grad, grad))))[moving])
    inner_residual = residual[inner]
    return SurfaceCheck(
        phi, ratio_sq, residual,
        orthogonality_residual=float(np.max(ortho, initial=0.0)),
        orbit_residual=float(np.max(inner_residual[np.isfinite(inner_residual)], initial=0.0)),
    )


# ---------------------------------------------------------------------------
# rank-one reference integrator
# ---------------------------------------------------------------------------

def _rk4(g, x, v, h):
    """One classical RK4 step of X'' = g(X); on floats or on arrays alike."""
    k1x, k1v = v, g(x)
    k2x, k2v = v + 0.5 * h * k1v, g(x + 0.5 * h * k1x)
    k3x, k3v = v + 0.5 * h * k2v, g(x + 0.5 * h * k2x)
    k4x, k4v = v + h * k3v, g(x + h * k3x)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


class _RankOneSolution:
    """Dense solution of X'' = g(X) with fixed-step classical RK4 knots.

    The knots are stepped on Python floats through ``g``; queries between
    knots take a single partial RK4 step from the knot at or below the
    target through ``g`` on arrays, so evaluation error stays at the knot
    accuracy.
    """

    def __init__(self, g, x0: float, v0: float, s_min: float, s_max: float, step: float):
        self.g = g
        self.x0 = float(x0)
        self.v0 = float(v0)
        g_float = lambda x: float(g(x))
        knots = [0.0]
        xs = [self.x0]
        vs = [self.v0]
        for target in (s_max, s_min):
            if target == 0:
                continue
            n = int(_steps_to(target, step))
            h = target / n
            x, v = self.x0, self.v0
            seg_s, seg_x, seg_v = [], [], []
            for k in range(1, n + 1):
                x, v = _rk4(g_float, x, v, h)
                # knots from the index, not a running sum, so the last one is target
                s = target * k / n
                if not (math.isfinite(x) and abs(x) <= RK4_BLOWUP):
                    raise TruncationError(f"trajectory exceeded |x| <= {RK4_BLOWUP:g} "
                                          f"near s={s:.6g}", last_valid=target * (k - 1) / n)
                seg_s.append(s)
                seg_x.append(x)
                seg_v.append(v)
            knots.extend(seg_s)
            xs.extend(seg_x)
            vs.extend(seg_v)
        order = np.argsort(knots)
        self.knot_s = np.asarray(knots)[order]
        self.knot_x = np.asarray(xs)[order]
        self.knot_v = np.asarray(vs)[order]

    def evaluate(self, s):
        """X and X' at arbitrary parameters inside the integrated range."""
        s_arr = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s_arr).ravel()
        lo, hi = self.knot_s[0], self.knot_s[-1]
        if np.any(flat < lo - 1e-12) or np.any(flat > hi + 1e-12):
            raise DomainError(f"query outside integrated range [{lo:g}, {hi:g}]")
        idx = np.clip(np.searchsorted(self.knot_s, flat, side="right") - 1,
                      0, len(self.knot_s) - 1)
        xo, vo = _rk4(self.g, self.knot_x[idx], self.knot_v[idx], flat - self.knot_s[idx])
        return xo.reshape(s_arr.shape), vo.reshape(s_arr.shape)


@dataclass(frozen=True)
class TrajectorySurface:
    """Sampled surface x(t1, t2) = X(c1 t1 + c2 t2) plus a dense evaluator."""

    grid: Grid2T
    c: np.ndarray
    values: np.ndarray
    velocity: np.ndarray
    solution: _RankOneSolution = field(repr=False)

    def s_of(self, t1, t2):
        return self.c[0] * np.asarray(t1, dtype=float) + self.c[1] * np.asarray(t2, dtype=float)

    def position(self, t1, t2):
        """x at arbitrary (t1, t2), not restricted to grid points."""
        return self.solution.evaluate(self.s_of(t1, t2))[0]

    @property
    def grid_momenta(self):
        """(p1, p2) = (c1 X', c2 X') at the grid points."""
        return self.c[0] * self.velocity, self.c[1] * self.velocity


def _steps_to(target: float, step: float) -> float:
    """RK4 steps of at most ``step`` from s = 0 to target; inf when the count
    passes the float range."""
    return max(1.0, float(np.ceil(abs(target) / step))) if target else 0.0


def integrate_rank_one_1d(g, c, x0: float, v0: float, grid: Grid2T,
                          step: float | None = None,
                          tol: Tolerances = Tolerances()) -> TrajectorySurface:
    """Reference solution for the rank-one family F_{jk} = c_j c_k g(x).

    Substituting p_j = c_j X' reduces the two-time system to X''(s) = g(X)
    along s = c1 t1 + c2 t2; ``g`` takes floats and arrays, elementwise.
    Integrated with fixed-step RK4 until |X| passes RK4_BLOWUP; the step is
    accepted once halving it changes the solution by less than rel_tol, and
    EvaluationError is raised when 12 halvings do not get there.  Before
    each step size is integrated, the knots of all step sizes so far are
    checked against RK4_KNOT_BUDGET.
    """
    c = np.asarray(c, dtype=float).reshape(2)
    if np.allclose(c, 0.0):
        raise DomainError("rank-one direction c must be nonzero")

    t1v, t2v = grid.t1_values, grid.t2_values
    with np.errstate(over="ignore", invalid="ignore"):
        s_grid = np.add.outer(c[0] * t1v, c[1] * t2v)
    s_min = min(0.0, float(s_grid.min()))
    s_max = max(0.0, float(s_grid.max()))
    if not (np.isfinite(s_grid).all() and math.isfinite(s_max - s_min)):
        raise EvaluationError(f"s = c1 t1 + c2 t2 overflows on the grid: c = ({c[0]:g}, {c[1]:g})")
    span = max(s_max - s_min, 1e-6)

    h = step if step is not None else min(1e-2, span / 256.0)
    sol, knots = None, 0.0
    for _ in range(13):  # the first step size and up to 12 halvings
        knots += _steps_to(s_max, h) + _steps_to(s_min, h)
        if not knots <= RK4_KNOT_BUDGET:
            raise EvaluationError(f"RK4 over s in [{s_min:g}, {s_max:g}] needs {knots:.4g} knots "
                                  f"by step {h:.4g}, past the budget of {RK4_KNOT_BUDGET}")
        finer = _RankOneSolution(g, x0, v0, s_min, s_max, h)
        if sol is not None:
            xa, _ = sol.evaluate(sol.knot_s)
            xb, _ = finer.evaluate(sol.knot_s)
            change = float(np.max(np.abs(xa - xb)))
            scale = max(1.0, float(np.max(np.abs(xb))))
            if change < tol.rel_tol * scale:
                sol = finer
                break
        sol = finer
        h /= 2.0
    else:
        raise EvaluationError(f"RK4 did not converge in 12 halvings to step {2 * h:.4g}: the last "
                              f"changed x by {change / scale:.3e} of max(1, |x|), "
                              f"not below rel_tol = {tol.rel_tol:g}")
    values, vel = sol.evaluate(s_grid)
    return TrajectorySurface(grid=grid, c=c, values=values, velocity=vel, solution=sol)


# ---------------------------------------------------------------------------
# two and three space dimensions
# ---------------------------------------------------------------------------

def _constraint_matrix_from_tensor(T: np.ndarray, d: int) -> np.ndarray:
    M = np.stack([T[:, 1], -T[:, 0]], axis=-1)  # [i, k, m, j]
    if d == 3:
        M = M.transpose(1, 0, 2, 3)
    return M.reshape(2 * d, 2 * d)


def build_constraint_matrix(F: ForceTensorField, x,
                            tol: Tolerances = Tolerances()) -> np.ndarray:
    """The homogeneous velocity system: 4x4 for d=2, 6x6 for d=3.

    Row r, for d=2, pairs (space index i, time index k) with i outermost;
    for d=3 the k blocks come first.  Column 2m+j holds F^i_{2k,x^m} for
    j=0 and -F^i_{1k,x^m} for j=1, acting on (p^1_1, p^1_2, p^2_1, ...).
    """
    if F.d == 1:
        raise DomainError("dimension 1 is handled by the *_1d operations")
    return _constraint_matrix_from_tensor(F.derivative_tensor(x, tol), F.d)


def admissibility_determinant(F: ForceTensorField, x,
                              tol: Tolerances = Tolerances()) -> float:
    """Determinant of the velocity system; it must vanish for any force
    that is to allow nonzero two-time velocities."""
    return float(determinant(build_constraint_matrix(F, x, tol)))


def _det2(a, b, c, d):
    return a * d - b * c


def _appendix_fields_2d(T: np.ndarray):
    """The published 2x2-determinant fields for d=2, exactly as printed."""
    def f(i, j, k, m):
        return T[i, j - 1, k - 1, m]
    x, y = 0, 1
    al = _det2(f(0, 2, 1, x), f(0, 2, 1, y), f(1, 2, 1, x), f(1, 2, 1, y))
    be = _det2(f(0, 1, 1, x), f(0, 1, 2, x), f(1, 1, 1, x), f(1, 2, 1, x))
    ga = _det2(f(0, 2, 1, y), f(0, 2, 2, y), f(0, 2, 1, x), f(0, 2, 2, x))
    de = _det2(f(0, 2, 1, x), f(0, 1, 2, x), f(0, 2, 1, x), f(0, 2, 2, x))
    alt = -al
    bet = _det2(f(0, 1, 1, y), f(0, 2, 1, y), f(1, 1, 1, y), f(1, 2, 1, y))
    gat = -ga
    det_ = _det2(f(0, 1, 1, y), f(0, 1, 2, y), f(0, 2, 1, y), f(0, 2, 2, y))
    alp = _det2(f(0, 2, 1, x), f(0, 1, 1, y), f(1, 2, 1, x), f(1, 1, 1, y))
    gap = _det2(f(0, 1, 1, y), f(0, 1, 2, y), f(0, 2, 1, x), f(0, 2, 2, x))
    altp = _det2(f(1, 2, 1, y), f(1, 1, 1, x), f(0, 2, 1, y), f(0, 1, 1, x))
    gatp = _det2(f(0, 2, 2, y), f(0, 1, 2, x), f(0, 2, 1, y), f(0, 1, 1, x))
    C = np.array([_det2(alt, bet, gat, det_), _det2(altp, bet, gatp, det_)])
    D = np.array([_det2(al, be, ga, de), _det2(alp, be, gap, de)])
    return C, D


def _chain_field(M: np.ndarray, use_printed_column: bool) -> np.ndarray:
    """Successive-elimination field for the first coordinate of a 6x6 system.

    The nested determinants eliminate the trailing velocity components one
    at a time.  The published first stage pairs column 1 with row 6; pairing
    column 6 instead makes each stage a genuine elimination step, and that
    corrected variant is what the null-space oracle confirms.
    """
    P = 0 if use_printed_column else 5
    A1 = M[:5, :5] * M[5, P] - np.outer(M[:5, P], M[5, :5])
    A2 = A1[:4, :4] * A1[4, 4] - np.outer(A1[:4, 4], A1[4, :4])
    A3 = A2[:3, :3] * A2[3, 3] - np.outer(A2[:3, 3], A2[3, :3])
    return A3[1, :2] * A3[2, 2] - A3[1, 2] * A3[2, :2]


def _appendix_fields_3d(T: np.ndarray, variant: str = "corrected"):
    """Chain fields for all three coordinates via space-axis relabeling."""
    if variant not in ("corrected", "printed"):
        raise DomainError(f"unknown chain variant {variant!r}")
    use_printed = variant == "printed"
    fields = []
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        Tp = T[list(perm)][:, :, :, list(perm)]
        Mp = _constraint_matrix_from_tensor(Tp, 3)
        fields.append(_chain_field(Mp, use_printed))
    return tuple(fields)


def _kernel_directions(kernel: list, d: int, tol: Tolerances):
    """Per-coordinate velocity directions spanned by the kernel.

    Returns (status, unit_field) pairs: the field is the 90-degree rotation
    of the velocity span when that span is one-dimensional.
    """
    out = []
    if not kernel:
        return [("no-kernel", None)] * d
    K = np.stack(kernel, axis=1)
    for i in range(d):
        block = K[2 * i:2 * i + 2, :].T
        norms = np.linalg.norm(block)
        if norms <= tol.abs_tol:
            out.append(("zero-velocity", None))
            continue
        _, s, vt = np.linalg.svd(block)
        if s.size > 1 and s[1] > 1e-8 * s[0]:
            out.append(("unconstrained", None))
        else:
            u = vt[0]
            out.append(("direction", np.array([u[1], -u[0]])))
    return out


def _cross_validate(appendix, kernel, d: int):
    """Worst normalized |field_i . (p^i_1, p^i_2)| over all kernel vectors."""
    if not kernel:
        return None
    worst = 0.0
    for i in range(d):
        f = appendix[i]
        nf = np.linalg.norm(f)
        if nf == 0.0:
            return math.inf
        for v in kernel:
            block = v[2 * i:2 * i + 2]
            nb = np.linalg.norm(block)
            if nb <= 1e-14:
                continue
            worst = max(worst, abs(float(f @ block)) / (nf * nb))
    return worst


def _field_report(T: np.ndarray, tol: Tolerances, variant: str) -> ParallelFieldReport:
    """Field report from the derivative tensor T of a d = 2 or 3 force."""
    d = T.shape[0]
    kernel = null_space(_constraint_matrix_from_tensor(T, d), tol)
    if d == 2:
        appendix = _appendix_fields_2d(T)
    else:
        appendix = _appendix_fields_3d(T, variant)
    dirs = _kernel_directions(kernel, d, tol)
    residual = _cross_validate(appendix, kernel, d)
    discrepancy = None
    if residual is not None and not (residual < CROSS_VALIDATION_TOL):
        parts = []
        for i in range(d):
            status, vec = dirs[i]
            oracle_txt = np.array2string(vec, precision=6) if vec is not None else status
            parts.append(f"coordinate {i + 1}: printed={np.array2string(appendix[i], precision=6)} "
                         f"oracle={oracle_txt}")
        discrepancy = (f"printed determinant fields fail kernel cross-validation "
                       f"(residual {residual:.3e}); " + "; ".join(parts))
    return ParallelFieldReport(
        d=d,
        appendix=tuple(np.asarray(a, dtype=float) for a in appendix),
        oracle=tuple(vec for _, vec in dirs),
        oracle_status=tuple(status for status, _ in dirs),
        kernel_dim=len(kernel),
        orthogonality_residual=residual,
        discrepancy=discrepancy,
    )


def parallel_fields_2d(F: ForceTensorField, x,
                       tol: Tolerances = Tolerances()) -> ParallelFieldReport:
    """Published fields restricting x and y evolution, cross-validated
    against the kernel of the velocity system."""
    if F.d != 2:
        raise DomainError(f"parallel_fields_2d needs d=2, got d={F.d}")
    return _field_report(F.derivative_tensor(x, tol), tol, "corrected")


def parallel_fields_3d(F: ForceTensorField, x, tol: Tolerances = Tolerances(),
                       variant: str = "corrected") -> ParallelFieldReport:
    """Chain fields for the three coordinates.

    ``variant="printed"`` keeps the published first-stage column pairing;
    the default pairs the pivot column instead, which is the variant the
    null-space oracle confirms on admissible forces.
    """
    if F.d != 3:
        raise DomainError(f"parallel_fields_3d needs d=3, got d={F.d}")
    return _field_report(F.derivative_tensor(x, tol), tol, variant)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _pairwise_defect(directions) -> float:
    defined = [v for v in directions if v is not None]
    worst = 0.0
    for a in range(len(defined)):
        for b in range(a + 1, len(defined)):
            u, w = defined[a], defined[b]
            cross = abs(u[0] * w[1] - u[1] * w[0])
            worst = max(worst, float(cross / (np.linalg.norm(u) * np.linalg.norm(w))))
    return worst


def classify(F: ForceTensorField, x, tol: Tolerances = Tolerances()) -> ConstraintReport:
    """Full admissibility verdict for a force at a point.

    Full-rank velocity system: no two-time motion.  Rank-deficient with all
    characteristic directions parallel (always so at d = 1): effectively one
    time.  Rank-deficient with genuinely different directions: two-time
    admissible.  Vanishing fields: degenerate.
    """
    T = F.derivative_tensor(x, tol)
    fp = _primes_1d(T, x) if F.d == 1 else None
    M = _constraint_matrix_from_tensor(T, F.d)
    det_val = float(determinant(M))
    if F.d == 1:
        kdim = len(null_space(M, tol))
        checks = (None, None, float(consistency_residual_1d(fp)))
    else:
        pf = _field_report(T, tol, "corrected")
        kdim = pf.kernel_dim
        checks = (pf.orthogonality_residual, pf.discrepancy)
    if kdim == 0:
        fields = CharacteristicField(vectors=tuple(np.zeros(2) for _ in range(F.d)),
                                     degenerate=(True,) * F.d)
        return ConstraintReport(det_val, 0, fields, 0.0, Verdict.NO_TWO_TIME_MOTION, *checks)

    if F.d == 1:
        vec, degenerate = characteristic_field_1d(fp, x, tol)
        fields = CharacteristicField(vectors=(vec,), degenerate=(bool(degenerate),))
    else:
        found = [status == "direction" for status in pf.oracle_status]
        fields = CharacteristicField(
            vectors=tuple(vec if ok else np.zeros(2) for ok, vec in zip(found, pf.oracle)),
            degenerate=tuple(not ok for ok in found))
    defined = [v for v, dgn in zip(fields.vectors, fields.degenerate) if not dgn]
    defect = _pairwise_defect(defined)

    if not defined:
        verdict = Verdict.DEGENERATE
    elif defect <= CROSS_VALIDATION_TOL:
        verdict = Verdict.EFFECTIVE_ONE_TIME
    else:
        verdict = Verdict.TWO_TIME_ADMISSIBLE
    return ConstraintReport(det_val, kdim, fields, defect, verdict, *checks)
