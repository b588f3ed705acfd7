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
import sys
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
    "classify",
    "run_classical_check",
    "run_classical_integrate",
]

CROSS_VALIDATION_TOL = 1e-8
# RK4 knots integrate_rank_one_1d may lay over all its step sizes together;
# the bundled harmonic scenario takes 5,655 (its report's rk4.knots)
RK4_KNOT_BUDGET = 1_000_000
# |X| past which integrate_rank_one_1d stops with TruncationError
RK4_BLOWUP = 1e6


# ---------------------------------------------------------------------------
# domain types and force builders
# ---------------------------------------------------------------------------

# complex step of derivative_tensor: a power of two, so dividing by it is
# exact, and small enough that its O(h^2) truncation is far below rounding
_COMPLEX_STEP = 2.0 ** -100
# i h e_m for every axis m, rows indexed by m, per dimension d
_COMPLEX_SHIFTS = {d: (1j * _COMPLEX_STEP) * np.eye(d) for d in (1, 2, 3)}
# an analytic eval's Im F(x + i h e_m) is h dF/dx^m; one above
# _BRANCH_CUT_BOUND * (1 + |Re F|), a derivative beyond about
# 1e15 (1 + |F|), is taken for a branch cut crossed (sqrt, log or a
# fractional power of a negative value), where Im F is of the size of F
_BRANCH_CUT_BOUND = 2.0 ** -50


def _axis_m_last(t: np.ndarray) -> np.ndarray:
    """Tensors [..., m, i, j, k] as [..., i, j, k, m]: np.moveaxis(t, -4, -1)
    without its argument checks."""
    n = t.ndim
    return t.transpose(*range(n - 4), n - 3, n - 2, n - 1, n - 4)


@dataclass(frozen=True)
class ForceTensorField:
    """A force tensor field x -> F^i_{jk}(x) in d space dimensions; it never
    sees t1 or t2.

    ``eval`` maps a batch of positions shaped (..., d) to tensors shaped
    (..., d, 2, 2) in one call, at d = 1 too.  ``tensor_at`` and
    ``derivative_tensor`` take positions shaped (..., d), or plain numbers at
    d = 1, and return (..., d, 2, 2) and (..., d, 2, 2, d).

    ``eval`` must be complex-analytic in x: ``derivative_tensor`` takes the
    complex step Im F(x + i h e_m) / h, which is exact to rounding for such a
    map.  An ``eval`` that returns a real array for complex positions, or
    raises TypeError on them, breaks that contract and is a DomainError.
    ``abs``, comparisons and ``np.where`` on x are not analytic and give
    wrong complex-step derivatives.  Branch cuts are not analytic either:
    sqrt, log or a fractional power of a value that is negative at x is
    finite at x + i h e_m, with an imaginary part of the size of the value,
    where the real ``eval`` is NaN.  A complex step whose imaginary part
    exceeds 2^-50 (1 + |real part|) in any entry may have crossed such a
    cut, so the tensors at the real positions are evaluated once more: a
    crossed cut is NaN there and raises EvaluationError, and finite tensors
    leave the large derivative standing.
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
        """Positions as a float or complex array shaped (..., d)."""
        pos = np.asarray(x)
        pos = pos.astype(complex if pos.dtype.kind == "c" else float, copy=False)
        if self.d == 1:
            return pos[..., None]
        if pos.shape[-1:] != (self.d,):
            raise DomainError(f"a d={self.d} position needs {self.d} coordinates, "
                              f"got an array of shape {pos.shape}")
        return pos

    def tensor_at(self, x) -> np.ndarray:
        """Force tensors at positions (..., d), shaped (..., d, 2, 2); complex
        positions keep whatever dtype ``eval`` returns for them."""
        return self._evaluate(self._positions(x))

    def _evaluate(self, pos: np.ndarray) -> np.ndarray:
        """``tensor_at`` at positions already shaped by ``_positions``."""
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the position
            out = np.asarray(self.eval(pos))
        if pos.dtype.kind != "c" or out.dtype.kind != "c":
            out = out.astype(float, copy=False)
        expected = pos.shape + (2, 2)
        if out.shape != expected:
            raise DomainError(f"force eval returned shape {out.shape}, expected {expected}")
        if not np.isfinite(out).all():
            finite = np.isfinite(out).all(axis=(-3, -2, -1))
            where = pos.reshape((-1,) + self._point_shape)[np.argmin(finite.ravel())].real
            raise EvaluationError(f"force tensor non-finite at {where.tolist()!r}")
        return out

    def derivative_tensor(self, x) -> np.ndarray:
        """Derivatives T[..., i, j, k, m] = dF^i_{jk}/dx^m by the complex
        step, from one evaluation at x + i h e_m along every axis m, and a
        second at x only where the branch-cut test fires; both are checked
        as ``tensor_at`` checks its tensors."""
        pos = self._positions(np.asarray(x, dtype=float))
        points = pos[..., None, :] + _COMPLEX_SHIFTS[self.d]  # [..., m, coordinate]
        try:
            t = self._evaluate(points)
        except TypeError as exc:
            raise DomainError(f"force eval must be complex-analytic in x: it raised "
                              f"TypeError at complex positions ({exc})") from exc
        if t.dtype.kind != "c":
            raise DomainError("force eval must be complex-analytic in x: it returned "
                              "a real tensor at complex positions")
        im = np.abs(t.imag)
        # an imaginary part within 2^-50 everywhere passes the branch-cut test
        if (im.max(initial=0.0) > _BRANCH_CUT_BOUND
                and (im > _BRANCH_CUT_BOUND * (1.0 + np.abs(t.real))).any()):
            self._evaluate(pos)  # a crossed cut is NaN here and raises
        return _axis_m_last(t.imag / _COMPLEX_STEP)


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
class ConstraintReport:
    """A verdict at one point.  ``orthogonality_residual`` and
    ``discrepancy`` come from the d >= 2 field report,
    ``consistency_residual`` from the d = 1 primes."""

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

    For d=1, ``g`` maps an array of positions elementwise; a 0-d value is
    a constant, broadcast against the positions at their dtype, so its
    derivative is exactly 0.  Otherwise ``g`` maps one position to a
    length-d array and is called once per position.  Other values keep
    their dtype, so ``g`` must be complex-analytic, as the ``eval`` of any
    ``ForceTensorField``: a real value at complex positions is refused by
    ``derivative_tensor``.
    Every admissibility constraint holds identically on this family.
    """
    c = np.asarray(c, dtype=float).reshape(2)
    cc = np.outer(c, c)
    if d == 1:
        def gv(x):
            v = np.asarray(g(x))
            return np.broadcast_to(v.astype(x.dtype) if v.ndim == 0 else v, x.shape)
    else:
        def gv(pos):
            return np.array([np.asarray(g(p)).reshape(d)
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
        out = np.zeros(np.shape(x) + (2, 2), dtype=np.result_type(x, float))
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # masked below
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

    One batched complex-step derivative at the sampled positions serves
    both checks.
    grad x is a central difference of the dense surface evaluator with step
    fd_step * max(1, extent) along each time axis; a DomainError naming
    fd_step is raised, before any is evaluated, when those points leave the
    integrated s range.  A complex characteristic raises at the first
    interior point in row-major order.
    """
    if F.d != 1:
        raise DomainError(f"check_surface needs a one-dimensional force, got d={F.d}")
    grid, x = surface.grid, surface.values
    fp = _primes_1d(F.derivative_tensor(x.ravel()), x.ravel()).reshape(x.shape + (2, 2))
    phi, ratio_sq, residual = orbit_relation_1d(fp, *surface.grid_momenta, tol)

    inner = (slice(1, -1), slice(1, -1))
    vec, _ = characteristic_field_1d(fp[inner], x[inner], tol)
    T1, T2 = np.meshgrid(grid.t1_values[1:-1], grid.t2_values[1:-1], indexing="ij")
    step1 = tol.fd_step * max(1.0, abs(grid.t1_max - grid.t1_min))
    step2 = tol.fd_step * max(1.0, abs(grid.t2_max - grid.t2_min))
    sol = surface.solution
    stencil = np.stack([surface.s_of(T1 + step1, T2), surface.s_of(T1 - step1, T2),
                        surface.s_of(T1, T2 + step2), surface.s_of(T1, T2 - step2)])
    if not sol.covers(stencil):
        raise DomainError(
            f"fd_step = {tol.fd_step:g} puts the finite-difference points of grad x at s in "
            f"[{stencil.min():g}, {stencil.max():g}]: query outside integrated range "
            f"[{sol.knot_s[0]:g}, {sol.knot_s[-1]:g}]")
    xp1, xm1, xp2, xm2 = (sol.evaluate(s)[0] for s in stencil)
    grad = np.stack([(xp1 - xm1) / (2 * step1), (xp2 - xm2) / (2 * step2)], axis=-1)
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


def _rk4_segment(g, x0: float, v0: float, target: float, step: float):
    """(s, x, v) at the RK4 knots from s = 0 to target by steps of at most
    ``step``, s = 0 itself left out: s an array, x and v lists."""
    if target == 0:
        return np.empty(0), [], []
    n = int(_steps_to(target, step))
    h = target / n
    # knots from the index, not a running sum, so the last one is target
    seg_s = target * np.arange(1, n + 1) / n
    x, v = x0, v0
    seg_x, seg_v = [], []
    for k in range(n):
        x, v = _rk4(g, x, v, h)
        if not abs(x) <= RK4_BLOWUP:  # NaN fails it too
            raise TruncationError(f"trajectory exceeded |x| <= {RK4_BLOWUP:g} "
                                  f"near s={seg_s[k]:.6g}", last_valid=target * k / n)
        seg_x.append(x)
        seg_v.append(v)
    return seg_s, seg_x, seg_v


class _RankOneSolution:
    """Dense solution of X'' = g(X) with fixed-step classical RK4 knots.

    The knots are stepped on scalars through ``g`` itself; queries between
    knots take a single partial RK4 step from the knot at or below the
    target through ``g`` on arrays, so evaluation error stays at the knot
    accuracy.  TruncationError is raised when x0 or a knot leaves
    |x| <= RK4_BLOWUP.
    """

    def __init__(self, g, x0: float, v0: float, s_min: float, s_max: float, step: float):
        self.g = g
        self.x0 = float(x0)
        self.v0 = float(v0)
        if not abs(self.x0) <= RK4_BLOWUP:
            raise TruncationError(f"initial point x0 = {self.x0:g} is past |x| <= "
                                  f"{RK4_BLOWUP:g}", last_valid=math.nan)
        # s_max's knots run up from 0, then s_min's down from it
        high, low = (_rk4_segment(g, self.x0, self.v0, target, step) for target in (s_max, s_min))
        self.knot_s = np.concatenate((low[0][::-1], [0.0], high[0]))
        self.knot_x = np.array(low[1][::-1] + [self.x0] + high[1], dtype=float)
        self.knot_v = np.array(low[2][::-1] + [self.v0] + high[2], dtype=float)

    def covers(self, s) -> bool:
        """Whether every parameter of the array s lies in the integrated
        range, up to 1e-12."""
        return not (np.any(s < self.knot_s[0] - 1e-12) or np.any(s > self.knot_s[-1] + 1e-12))

    def evaluate(self, s):
        """X and X' at arbitrary parameters inside the integrated range."""
        s_arr = np.asarray(s, dtype=float)
        flat = np.atleast_1d(s_arr).ravel()
        if not self.covers(flat):
            raise DomainError(f"query outside integrated range "
                              f"[{self.knot_s[0]:g}, {self.knot_s[-1]:g}]")
        idx = np.clip(np.searchsorted(self.knot_s, flat, side="right") - 1,
                      0, len(self.knot_s) - 1)
        xo, vo = _rk4(self.g, self.knot_x[idx], self.knot_v[idx], flat - self.knot_s[idx])
        return xo.reshape(s_arr.shape), vo.reshape(s_arr.shape)


@dataclass(frozen=True)
class TrajectorySurface:
    """Sampled surface x(t1, t2) = X(c1 t1 + c2 t2) plus a dense evaluator.

    The RK4 counters of the integration that made it: ``integrations`` run,
    ``knots`` stepped over all of their step sizes, the kept ``step`` and
    ``error_estimate``, the kept solution's Richardson error estimate
    relative to max(1, |x|).
    """

    grid: Grid2T
    c: np.ndarray
    values: np.ndarray
    velocity: np.ndarray
    solution: _RankOneSolution = field(repr=False)
    integrations: int
    knots: int
    step: float
    error_estimate: float

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
    Integrated with fixed-step RK4, from ``step`` (by default the smaller
    of 0.01 and the s span over 256) on; TruncationError is raised when x0
    or a knot passes |x| <= RK4_BLOWUP.  Each integration after the first
    is compared with the one before at that one's knots: their largest
    change times r^4 / (1 - r^4), for the ratio r of the two steps (change
    / 15 for a halving), is the Richardson estimate of the finer solution's
    error.  The finer solution is kept once that estimate is below
    rel_tol * max(1, |x|); otherwise the next step is
    h min(1/2, max(1/8, 0.9 (rel_tol max(1, |x|) / estimate)^(1/4)))
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  EvaluationError is
    raised when 13 integrations do not get there, and before an integration
    whose knots, added to those of all before it, would pass
    RK4_KNOT_BUDGET.  The surface carries the counters of the run.
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
    for integrations in range(1, 14):  # the first step size and up to 12 more
        knots += _steps_to(s_max, h) + _steps_to(s_min, h)
        if not knots <= RK4_KNOT_BUDGET:
            raise EvaluationError(f"RK4 over s in [{s_min:g}, {s_max:g}] needs {knots:.4g} knots "
                                  f"by step {h:.4g}, past the budget of {RK4_KNOT_BUDGET}")
        finer = _RankOneSolution(g, x0, v0, s_min, s_max, h)
        factor = 0.5
        if sol is not None:
            xb, _ = finer.evaluate(sol.knot_s)
            r4 = (h / coarse_h) ** 4
            # Richardson: RK4's error scales as h^4, so the finer one's is
            # change r^4 / (1 - r^4), change / 15 for a halving
            error = float(np.max(np.abs(sol.knot_x - xb))) * r4 / (1.0 - r4)
            scale = max(1.0, float(np.max(np.abs(xb))))
            if error < tol.rel_tol * scale:
                sol = finer
                break
            factor = min(0.5, max(0.125, 0.9 * (tol.rel_tol * scale / error) ** 0.25))
        sol, coarse_h = finer, h
        h *= factor
    else:
        raise EvaluationError(f"RK4 did not converge in 13 integrations to step {coarse_h:.4g}: "
                              f"the last error estimate was {error / scale:.3e} of max(1, |x|), "
                              f"not below rel_tol = {tol.rel_tol:g}")
    values, vel = sol.evaluate(s_grid)
    return TrajectorySurface(grid=grid, c=c, values=values, velocity=vel, solution=sol,
                             integrations=integrations, knots=int(knots), step=h,
                             error_estimate=error / scale)


def run_classical_integrate(tol: Tolerances, force, initial, grid: Grid2T):
    """The classical-integrate results and surface table of the d = 1
    rank-one force (c, g) integrated from (x0, v0) = initial over grid."""
    (c, g), (x0, v0) = force, initial
    surface = integrate_rank_one_1d(g, c, x0, v0, grid, tol=tol)
    check = check_surface(rank_one_force(c, g, d=1), surface, tol)
    results = {
        "c": c,
        "x0": x0,
        "v0": v0,
        "max_abs_x": float(np.max(np.abs(surface.values))),
        "orthogonality_residual": check.orthogonality_residual,
        "orbit_residual": check.orbit_residual,
        "grid": [grid.n1, grid.n2],
        "rk4": {"integrations": surface.integrations, "knots": surface.knots,
                "step": surface.step, "error_estimate": surface.error_estimate,
                "rel_tol": tol.rel_tol},
    }
    columns = ("t1", "t2", "x", "p1", "p2", "phi", "ratio_squared", "orbit_residual")
    fields = (surface.values, *surface.grid_momenta, check.phi, check.ratio_squared,
              check.residual)
    return results, (columns, (grid.t1_values, grid.t2_values), fields)


# ---------------------------------------------------------------------------
# two and three space dimensions
# ---------------------------------------------------------------------------

def _constraint_matrix_from_tensor(T: np.ndarray, d: int) -> np.ndarray:
    M = np.empty((d, 2, d, 2))  # [i, k, m, j], filled without np.stack's checks
    M[..., 0] = T[:, 1]
    M[..., 1] = -T[:, 0]
    if d == 3:
        M = M.transpose(1, 0, 2, 3)
    return M.reshape(2 * d, 2 * d)


def build_constraint_matrix(F: ForceTensorField, x) -> np.ndarray:
    """The homogeneous velocity system: 4x4 for d=2, 6x6 for d=3.

    Row r, for d=2, pairs (space index i, time index k) with i outermost;
    for d=3 the k blocks come first.  Column 2m+j holds F^i_{2k,x^m} for
    j=0 and -F^i_{1k,x^m} for j=1, acting on (p^1_1, p^1_2, p^2_1, ...).
    """
    if F.d == 1:
        raise DomainError("dimension 1 is handled by the *_1d operations")
    return _constraint_matrix_from_tensor(F.derivative_tensor(x), F.d)


def admissibility_determinant(F: ForceTensorField, x) -> float:
    """Determinant of the velocity system; it must vanish for any force
    that is to allow nonzero two-time velocities."""
    return float(determinant(build_constraint_matrix(F, x)))


def _det2(a, b, c, d):
    return a * d - b * c


def _appendix_fields_2d(T: np.ndarray):
    """The published 2x2-determinant fields for d=2, exactly as printed."""
    t = T.tolist()

    def f(i, j, k, m):
        return t[i][j - 1][k - 1][m]
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
    """Successive-elimination fields for the first coordinate of a stack of
    6x6 systems (..., 6, 6), shaped (..., 2).

    The nested determinants eliminate the trailing velocity components one
    at a time.  The published first stage pairs column 1 with row 6; pairing
    column 6 instead makes each stage a genuine elimination step, and that
    corrected variant is what the null-space oracle confirms.  Each outer
    product is one multiply per entry, as ``np.outer`` rounds it.
    """
    P = 0 if use_printed_column else 5
    A1 = M[..., :5, :5] * M[..., 5, P, None, None] - M[..., :5, P, None] * M[..., None, 5, :5]
    A2 = A1[..., :4, :4] * A1[..., 4, 4, None, None] - A1[..., :4, 4, None] * A1[..., None, 4, :4]
    A3 = A2[..., :3, :3] * A2[..., 3, 3, None, None] - A2[..., :3, 3, None] * A2[..., None, 3, :3]
    return A3[..., 1, :2] * A3[..., 2, 2, None] - A3[..., 1, 2, None] * A3[..., 2, :2]


# (rows, columns) of the d = 3 velocity system relabeled by each space
# permutation p, shaped (3, 6, 1) and (3, 1, 6) to index one (3, 6, 6)
# stack: row 3k + p[i], column 2p[m] + j
_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (2, 1, 0))
_RELABELINGS = (
    np.array([[3 * k + p[i] for k in range(2) for i in range(3)] for p in _PERMUTATIONS])[:, :, None],
    np.array([[2 * p[m] + j for m in range(3) for j in range(2)] for p in _PERMUTATIONS])[:, None, :])


def _appendix_fields_3d(M: np.ndarray):
    """Corrected chain fields for all three coordinates from the 6x6 velocity
    system M, relabeled so that each coordinate in turn comes first, as one
    (3, 2) array from one (3, 6, 6) stack."""
    return _chain_field(M[_RELABELINGS], False)


def _gram_direction(r0, r1, tol: Tolerances):
    """(status, u) of one coordinate's velocities over k >= 2 kernel
    vectors: r0 and r1 hold their first and second components, the two rows
    of the coordinate's 2 x k block.

    The rows' Gram matrix [[a, b], [b, c]] has the eigenvalues
    lambda = (a + c + hypot(a - c, 2b)) / 2 = s0^2 and s1^2, for the block's
    singular values s0 >= s1.  By Lagrange's identity its determinant
    (s0 s1)^2 is the sum of the block's squared 2 x 2 minors, which keeps s1
    accurate to eps s0; s1^2 taken from the trace and the determinant would
    be off by about eps s0^2, right at the threshold below, and flip
    rank-one blocks on rounding.  The span is the plane when
    s0 s1 > 1e-8 lambda, that is s1 > 1e-8 s0, as an SVD would test it.
    Otherwise u is the eigenvector of lambda, (lambda - c, b) or
    (b, lambda - a), whichever has no cancellation, normalised: the cosine
    and sine of the Jacobi rotation (Golub & Van Loan, Matrix Computations,
    8.5), with an exact zero entry kept exact.
    """
    a = c = b = minors = 0.0
    for m, (p, q) in enumerate(zip(r0, r1)):
        a += p * p
        c += q * q
        b += p * q
        for n in range(m):  # the minors of column m with each column before it
            minors += (r0[n] * q - p * r1[n]) ** 2
    if math.sqrt(a + c) <= tol.abs_tol:
        return "zero-velocity", None
    h = math.hypot(a - c, 2.0 * b)
    if math.sqrt(minors) > 1e-8 * 0.5 * (a + c + h):
        return "unconstrained", None
    u = (0.5 * (a - c + h), b) if a >= c else (b, 0.5 * (c - a + h))
    n = math.hypot(*u)
    return "direction", (u[0] / n, u[1] / n)


def _kernel_directions(kernel: list, d: int, tol: Tolerances):
    """Per-coordinate velocity directions spanned by a nonempty kernel.

    Returns (status, unit_field) pairs: the field is the 90-degree rotation
    (u[1], -u[0]) of a unit vector u spanning the velocities when that span
    is one-dimensional.  A 1 x 2 block b is its own span, u = b/|b|; a k x 2
    block of k >= 2 kernel vectors takes u in closed form from its Gram
    matrix (``_gram_direction``).  Either u is then signed by one rule,
    u[0] < 0, or u[1] < 0 where u[0] = 0, so that its sign follows the span
    and not the kernel basis.
    """
    if len(kernel) == 1:
        spans = []
        for b in kernel[0].reshape(d, 2):
            norm = math.sqrt(b.dot(b))
            spans.append(("zero-velocity", None) if norm <= tol.abs_tol
                         else ("direction", (b / norm).tolist()))
    else:
        rows = list(zip(*[v.tolist() for v in kernel]))  # rows[r]: entry r of each vector
        spans = [_gram_direction(rows[2 * i], rows[2 * i + 1], tol) for i in range(d)]
    out = []
    for status, u in spans:
        if u is not None:
            u0, u1 = u
            if u0 > 0.0 or (u0 == 0.0 and u1 > 0.0):
                u0, u1 = -u0, -u1
            u = np.array([u1, -u0])
        out.append((status, u))
    return out


def _cross_validate(appendix, kernel, d: int):
    """Worst normalized |field_i . (p^i_1, p^i_2)| over all kernel vectors."""
    worst = 0.0
    for i in range(d):
        f = appendix[i]
        nf = math.sqrt(f.dot(f))
        if nf == 0.0:
            return math.inf
        for v in kernel:
            block = v[2 * i:2 * i + 2]
            nb = math.sqrt(block.dot(block))
            if nb <= 1e-14:
                continue
            worst = max(worst, abs(float(f @ block)) / (nf * nb))
    return worst


def _no_kernel_field(d: int) -> CharacteristicField:
    """The field of a full-rank system: a zero vector per coordinate, each
    flagged degenerate."""
    return CharacteristicField(vectors=tuple(np.zeros(2) for _ in range(d)),
                               degenerate=(True,) * d)


def _field_report(T: np.ndarray, M: np.ndarray, tol: Tolerances):
    """Kernel dimension, oracle fields, orthogonality residual and
    discrepancy text from the derivative tensor T of a d = 2 or 3 force and
    its velocity system M.  A coordinate without a kernel direction gets a
    zero vector flagged degenerate.  The printed fields are only ever
    checked against kernel vectors, so a full-rank system has neither
    residual nor text.  The text quotes vectors as lists of Python floats,
    whose repr is exact and follows no numpy print option."""
    d = T.shape[0]
    kernel = null_space(M, tol)
    if not kernel:
        return 0, _no_kernel_field(d), None, None
    dirs = _kernel_directions(kernel, d, tol)
    appendix = _appendix_fields_2d(T) if d == 2 else _appendix_fields_3d(M)
    residual = _cross_validate(appendix, kernel, d)
    discrepancy = None
    if not residual < CROSS_VALIDATION_TOL:
        parts = []
        for i in range(d):
            status, vec = dirs[i]
            oracle = vec.tolist() if vec is not None else status
            parts.append(f"coordinate {i + 1}: printed={appendix[i].tolist()} oracle={oracle}")
        discrepancy = (f"printed determinant fields fail kernel cross-validation "
                       f"(residual {residual:.3e}); " + "; ".join(parts))
    fields = CharacteristicField(
        vectors=tuple(np.zeros(2) if vec is None else vec for _, vec in dirs),
        degenerate=tuple(vec is None for _, vec in dirs))
    return len(kernel), fields, residual, discrepancy


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
            worst = max(worst, float(cross / (math.sqrt(u.dot(u)) * math.sqrt(w.dot(w)))))
    return worst


def _certified_full_rank(M: np.ndarray, det: float, tol: Tolerances) -> bool:
    """Whether det, the determinant of the n x n system M, proves that
    ``null_space(M, tol)`` is empty, by the test ``classify`` states; an
    infinite, NaN, zero or subnormal det proves nothing."""
    if not (math.isfinite(det) and abs(det) >= sys.float_info.min):
        return False
    n = M.shape[0]
    frobenius = math.hypot(*M.ravel().tolist())
    return abs(det) ** (1.0 / n) > (2.0 * tol.abs_tol) ** (1.0 / n) * frobenius


def classify(F: ForceTensorField, x, tol: Tolerances = Tolerances()) -> ConstraintReport:
    """Full admissibility verdict for a force at a point.

    Full-rank velocity system: no two-time motion.  Rank-deficient with all
    characteristic directions parallel (always so at d = 1): effectively one
    time.  Rank-deficient with genuinely different directions: two-time
    admissible.  Vanishing fields: degenerate.

    The determinant of the n x n velocity system M decides first.  The
    largest singular value is at most the Frobenius norm |M|_F and
    |det| <= s_min s_max^(n-1), so |det|^(1/n) > (2 abs_tol)^(1/n) |M|_F
    gives s_min > 2 abs_tol s_max, twice the kernel threshold; the factor 2
    covers the rounding of the LU determinant and of the SVD, the n-th
    roots keep both sides finite, and ``math.hypot`` takes |M|_F without
    overflow.  Where that certificate holds, the no-kernel report is
    returned at once; ``null_space`` (one SVD) and the field report run
    only where it fails, and the report is the same either way.
    """
    T = F.derivative_tensor(x)
    fp = _primes_1d(T, x) if F.d == 1 else None
    M = _constraint_matrix_from_tensor(T, F.d)
    det_val = float(determinant(M))
    ortho = discrepancy = None
    if _certified_full_rank(M, det_val, tol):
        kdim, fields = 0, _no_kernel_field(F.d)
    elif F.d == 1:
        kdim = len(null_space(M, tol))
        # characteristic_field_1d raises on mixed-sign radicands, which a
        # full-rank system may have
        vec, degenerate = characteristic_field_1d(fp, x, tol) if kdim else (np.zeros(2), True)
        fields = CharacteristicField(vectors=(vec,), degenerate=(bool(degenerate),))
    else:
        kdim, fields, ortho, discrepancy = _field_report(T, M, tol)
    consistency = float(consistency_residual_1d(fp)) if F.d == 1 else None
    defined = [v for v, dgn in zip(fields.vectors, fields.degenerate) if not dgn]
    defect = _pairwise_defect(defined)

    if kdim == 0:
        verdict = Verdict.NO_TWO_TIME_MOTION
    elif not defined:
        verdict = Verdict.DEGENERATE
    elif defect <= CROSS_VALIDATION_TOL:
        verdict = Verdict.EFFECTIVE_ONE_TIME
    else:
        verdict = Verdict.TWO_TIME_ADMISSIBLE
    return ConstraintReport(det_val, kdim, fields, defect, verdict, ortho, discrepancy,
                            consistency)


def run_classical_check(tol: Tolerances, force: ForceTensorField, x: list):
    """The classical-check results of classify at the point x."""
    report = classify(force, x[0] if force.d == 1 else np.asarray(x), tol=tol)
    results = {
        "dimension": force.d,
        "point": x,
        "verdict": report.verdict.value,
        "determinant": report.determinant_value,
        "kernel_dim": report.kernel_dim,
        "parallelism_defect": report.parallelism_defect,
        "fields": [list(map(float, v)) for v in report.fields.vectors],
        "fields_degenerate": list(report.fields.degenerate),
        "orthogonality_residual": report.orthogonality_residual,
        "discrepancy": report.discrepancy,
    }
    if force.d == 1:
        results["consistency_residual"] = report.consistency_residual
    return results, None
