"""Shared numeric primitives.

Small dense matrices (at most 8x8), central finite differences, rectangular
grids over the time plane (optionally with one space axis), and the tolerance
bundle threaded through every check in the package.  All functions here are
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitempoError",
    "EvaluationError",
    "TruncationError",
    "DomainError",
    "ComplexCharacteristicError",
    "DegenerateKernelError",
    "OnShellError",
    "ConfigError",
    "TimePlanePoint",
    "Grid2T",
    "Tolerances",
    "finite",
    "finite_power",
    "nonzero",
    "central_difference",
    "determinant",
    "null_space",
]

MAX_DIM = 8


class BitempoError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(BitempoError):
    """A user-supplied map produced a non-finite value."""


class TruncationError(EvaluationError):
    """An integration blew up; carries the last valid parameter value."""

    def __init__(self, message: str, last_valid: float):
        super().__init__(message)
        self.last_valid = last_valid


class DomainError(BitempoError):
    """Inputs violate a documented precondition."""


class ComplexCharacteristicError(DomainError):
    """A radicand went negative: the characteristic direction is not real."""


class DegenerateKernelError(DomainError):
    """A kernel expected to be one-dimensional is not."""


class OnShellError(DomainError):
    """A wavevector does not satisfy the mass-shell relation."""


class ConfigError(BitempoError):
    """A scenario configuration is malformed."""


def _require_finite(value, what: str):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"non-finite value in {what}: {value!r}")


def finite(value: float, name: str) -> float:
    """value itself; EvaluationError naming the quantity when it overflowed
    to inf or NaN."""
    if not math.isfinite(value):
        raise EvaluationError(f"{name} overflows: got {value!r}")
    return value


def finite_power(base: float, exponent: int, name: str) -> float:
    """float(base) ** exponent, rounded as Python rounds it, or
    EvaluationError naming the quantity when the power overflows."""
    try:
        return finite(float(base) ** exponent, name)
    except OverflowError:
        raise EvaluationError(f"{name} overflows: ({base:.6g})^{exponent}") from None


def nonzero(value: float, name: str) -> float:
    """value itself; EvaluationError naming the quantity when it overflowed or
    underflowed to 0."""
    if value == 0.0:
        raise EvaluationError(f"{name} underflows to 0")
    return finite(value, name)


@dataclass(frozen=True)
class TimePlanePoint:
    """A point (t1, t2) in the plane of the two evolution parameters."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise DomainError(f"time-plane point must be finite, got ({self.t1}, {self.t2})")


def _check_axis(lo: float, hi: float, n: int, name: str):
    """DomainError unless the axis has finite ends, a finite span max - min > 0,
    at least 3 points and a nonzero step (max - min)/(n - 1)."""
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"{name} axis needs finite max > min, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise DomainError(f"{name} axis span max - min overflows: got [{lo}, {hi}]")
    if n < 3:
        raise DomainError(f"{name} axis needs at least 3 points, got {n}")
    # a count past the float range (which the CLI's point cap refuses) divides
    # as 2**1023, which can only make the step larger, instead of overflowing
    if (hi - lo) / min(n - 1, 2 ** 1023) == 0:
        raise DomainError(f"{name} axis step (max - min)/(n - 1) underflows to 0: "
                          f"got [{lo}, {hi}] with {n} points")


@dataclass(frozen=True)
class Grid2T:
    """Uniform rectangular grid over (t1, t2), optionally with a space axis.

    Counts must be at least 3 so that interior points exist for central
    differences.
    """

    t1_min: float
    t1_max: float
    t2_min: float
    t2_max: float
    n1: int
    n2: int
    x_min: float | None = None
    x_max: float | None = None
    nx: int | None = None

    def __post_init__(self):
        _check_axis(self.t1_min, self.t1_max, self.n1, "t1")
        _check_axis(self.t2_min, self.t2_max, self.n2, "t2")
        space = (self.x_min, self.x_max, self.nx)
        if any(v is not None for v in space):
            if any(v is None for v in space):
                raise DomainError("space axis needs all of x_min, x_max, nx")
            _check_axis(*space, "x")

    @property
    def has_space(self) -> bool:
        return self.nx is not None

    @property
    def t1_values(self) -> np.ndarray:
        return np.linspace(self.t1_min, self.t1_max, self.n1)

    @property
    def t2_values(self) -> np.ndarray:
        return np.linspace(self.t2_min, self.t2_max, self.n2)

    @property
    def x_values(self) -> np.ndarray:
        if not self.has_space:
            raise DomainError("grid has no space axis")
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def d1(self) -> float:
        return (self.t1_max - self.t1_min) / (self.n1 - 1)

    @property
    def d2(self) -> float:
        return (self.t2_max - self.t2_min) / (self.n2 - 1)

    @property
    def dx(self) -> float:
        if not self.has_space:
            raise DomainError("grid has no space axis")
        return (self.x_max - self.x_min) / (self.nx - 1)

    def refined(self) -> "Grid2T":
        """Same extents with the point count doubled on every axis."""
        return Grid2T(self.t1_min, self.t1_max, self.t2_min, self.t2_max,
                      2 * self.n1 - 1, 2 * self.n2 - 1,
                      self.x_min, self.x_max,
                      None if self.nx is None else 2 * self.nx - 1)


# smallest fd_step: a step below eps can put a finite difference's points on
# its centre
FD_STEP_MIN = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs shared by every check.

    fd_step sets only the central differences that remain: the grad-x
    stencil of ``classical.check_surface``, scaled by the extent of each
    time axis, and the probes of ``dirac.conservation_residual``, scaled by
    the size of the point (``step_for``); force derivatives are complex
    steps and do not read it.  abs_tol doubles as the relative
    kernel-detection threshold on singular values.  In
    ``classical.integrate_rank_one_1d``, rel_tol bounds the Richardson
    estimate of the kept RK4 solution's error, relative to max(1, |x|),
    not the change from the coarser solution it was checked against.  Each
    lies in (0, 1), and fd_step is at least FD_STEP_MIN: past these bounds
    a check switches off, as a tolerance of 1 or more passes any residual
    (or overflows the thresholds it scales).  DomainError names the first
    value out of bounds.
    """

    fd_step: float = 1e-5
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.fd_step < FD_STEP_MIN:
            raise DomainError(f"fd_step = {self.fd_step:g} is below the float64 eps "
                              f"{FD_STEP_MIN:g}")
        for key in ("fd_step", "abs_tol", "rel_tol"):
            value = getattr(self, key)
            if not value > 0:
                raise DomainError(f"{key} = {value:g} is not above 0")
            if not value < 1:
                raise DomainError(f"{key} = {value:g} is not below 1")

    def step_for(self, at) -> float:
        """Finite-difference step scaled to the magnitude of `at`."""
        scale = float(np.max(np.abs(np.atleast_1d(np.asarray(at, dtype=float)))))
        return self.fd_step * max(1.0, scale)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got array of shape {a.shape}")
    if max(a.shape) > MAX_DIM:
        raise DomainError(f"matrix larger than {MAX_DIM}x{MAX_DIM}: shape {a.shape}")
    return a


def central_difference(f, at: float, step: float) -> float:
    """Second-order central difference of a scalar map at a point.

    Exact to round-off for polynomials of degree <= 2; error O(step^2) for
    smooth maps.
    """
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    hi = f(at + step)
    lo = f(at - step)
    for v, p in ((hi, at + step), (lo, at - step)):
        if not np.all(np.isfinite(v)):
            raise EvaluationError(f"map returned non-finite value {v!r} at {p}")
    return (hi - lo) / (2.0 * step)


def determinant(m):
    """Determinant of a small square matrix; supports real and complex entries."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"determinant needs a square matrix, got {a.shape}")
    return np.linalg.det(a)


def null_space(m, tol: Tolerances = Tolerances()) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of a small matrix.

    A right singular direction belongs to the kernel when its singular value
    is below abs_tol times the largest singular value.  Returns an empty list
    for full-rank input.
    """
    a = _as_matrix(m)
    _require_finite(a, "null_space input")
    n = a.shape[1]
    _, s, vt = np.linalg.svd(a)
    # right singular vectors are the conjugated rows of vt (a = u s vt)
    vecs = vt.conj()
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return [vecs[i] for i in range(n)]
    small = np.zeros(n, dtype=bool)
    small[:s.size] = s < tol.abs_tol * smax
    small[s.size:] = True
    return [vecs[i] for i in range(n) if small[i]]
