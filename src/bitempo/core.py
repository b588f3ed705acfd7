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


@dataclass(frozen=True)
class TimePlanePoint:
    """A point (t1, t2) in the plane of the two evolution parameters."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise DomainError(f"time-plane point must be finite, got ({self.t1}, {self.t2})")


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
        for lo, hi, n, name in ((self.t1_min, self.t1_max, self.n1, "t1"),
                                (self.t2_min, self.t2_max, self.n2, "t2")):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise DomainError(f"{name} axis needs finite max > min, got [{lo}, {hi}]")
            if n < 3:
                raise DomainError(f"{name} axis needs at least 3 points, got {n}")
        space = (self.x_min, self.x_max, self.nx)
        if any(v is not None for v in space):
            if any(v is None for v in space):
                raise DomainError("space axis needs all of x_min, x_max, nx")
            if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                    and self.x_max > self.x_min):
                raise DomainError(f"x axis needs finite max > min, got [{self.x_min}, {self.x_max}]")
            if self.nx < 3:
                raise DomainError(f"x axis needs at least 3 points, got {self.nx}")

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


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs shared by every check.

    fd_step is scaled by the characteristic size of the point where a
    derivative is taken; abs_tol doubles as the relative kernel-detection
    threshold on singular values.
    """

    fd_step: float = 1e-5
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (self.fd_step > 0 and self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must all be positive")

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
