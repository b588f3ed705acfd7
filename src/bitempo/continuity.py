"""Two-time continuity bookkeeping on grids.

A current (j1, j2, j_space) over (x, t1, t2) satisfying
d1 j1 + d2 j2 - dx j_space = 0 with decaying boundaries yields one conserved
charge per time axis: Q1(t1) integrates j1 over (t2, x) and Q2(t2)
integrates j2 over (t1, x).  Any density normalized jointly in both times
must then be a linear combination rho = alpha rho1(x, t1) + beta rho2(x, t2),
which this module tests as a least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Grid2T, Tolerances

__all__ = [
    "CurrentField",
    "ChargeReport",
    "SeparabilityReport",
    "charges",
    "separability_check",
    "manufactured_current",
    "manufactured_charges",
    "charge_rate_residual",
    "trapezoid_weights",
    "run_continuity",
]

# amplitude of the source manufactured_current adds to j1
SOURCE_STRENGTH = 0.1


@dataclass(frozen=True)
class CurrentField:
    """Sampled current components over (x, t1, t2), indexed [ix, i1, i2].

    Each component is stored as a float64 array; a complex or non-numeric
    component is a DomainError.
    """

    grid: Grid2T
    j1: np.ndarray
    j2: np.ndarray
    j_space: np.ndarray

    def __post_init__(self):
        if not self.grid.has_space:
            raise DomainError("current fields need a grid with a space axis")
        shape = (self.grid.nx, self.grid.n1, self.grid.n2)
        for name in ("j1", "j2", "j_space"):
            a = np.asarray(getattr(self, name))
            if np.iscomplexobj(a):
                raise DomainError(f"{name} is complex; current components are real")
            if a.shape != shape:
                raise DomainError(f"{name} has shape {a.shape}, expected {shape}")
            try:
                a = a.astype(np.float64, copy=False)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"{name} is not numeric: {exc}") from exc
            if not np.all(np.isfinite(a)):
                raise DomainError(f"{name} contains non-finite samples")
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ChargeReport:
    """Charges per time axis with their conservation residuals, the worst
    interior |dQ_i/dt_i| of the charges."""

    Q1: np.ndarray
    Q2: np.ndarray
    dQ1_residual: float
    dQ2_residual: float
    boundary_warnings: tuple


@dataclass(frozen=True)
class SeparabilityReport:
    residual: float
    r1: np.ndarray
    r2: np.ndarray
    sweeps: int  # always 1: the fit is one closed-form pass, not an iteration


def trapezoid_weights(v) -> np.ndarray:
    """Weights w for which ``w @ f`` is the trapezoid rule on samples f at
    the points v: half of each neighbouring interval."""
    dv = 0.5 * np.diff(np.asarray(v, dtype=float))
    w = np.zeros(len(dv) + 1)
    w[:-1] += dv
    w[1:] += dv
    return w


def charges(j: CurrentField, tol: Tolerances = Tolerances()) -> ChargeReport:
    """Integrate the two charges and their conservation residuals.

    The current should vanish on the integration boundary; leakage is
    reported as warnings and shows up in the residuals rather than aborting.
    Each double integral contracts its component with the trapezoid weights
    of x, then of the other time, in one pass over the component.
    """
    g = j.grid
    wx, w1, w2 = (trapezoid_weights(v) for v in (g.x_values, g.t1_values, g.t2_values))
    scale = max(max(float(a.max()), -float(a.min())) for a in (j.j1, j.j2, j.j_space))
    scale = max(scale, 1e-300)

    warnings = []
    checks = (
        ("j2 at the t2 boundary", max(np.max(np.abs(j.j2[:, :, 0])), np.max(np.abs(j.j2[:, :, -1])))),
        ("j1 at the t1 boundary", max(np.max(np.abs(j.j1[:, 0, :])), np.max(np.abs(j.j1[:, -1, :])))),
        ("j_space at the x boundary", max(np.max(np.abs(j.j_space[0])), np.max(np.abs(j.j_space[-1])))),
    )
    for what, worst in checks:
        if worst > tol.abs_tol * scale:
            warnings.append(f"{what} does not vanish (max {worst:.3e}, scale {scale:.3e})")

    # the x integral as an einsum: a BLAS vector-matrix product over the
    # leading axis can be many times slower when BLAS runs threaded
    q1 = np.einsum("i,ijk->jk", wx, j.j1) @ w2
    q2 = w1 @ np.einsum("i,ijk->jk", wx, j.j2)
    return ChargeReport(Q1=q1, Q2=q2, dQ1_residual=charge_rate_residual(q1, g.d1),
                        dQ2_residual=charge_rate_residual(q2, g.d2),
                        boundary_warnings=tuple(warnings))


def charge_rate_residual(q, step: float, rate=0.0) -> float:
    """Worst interior |dq/dt - rate|, where dq/dt is the central difference
    of charge samples q at spacing step and rate the exact rate at the
    interior points: zero for a conserved charge, the source_rate of a
    sourced manufactured current."""
    return float(np.max(np.abs((q[2:] - q[:-2]) / (2.0 * step) - rate)))


def _as_3d(rho) -> np.ndarray:
    arr = np.asarray(rho, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise DomainError(f"density must be 2-d or 3-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("density contains non-finite samples")
    return arr


def separability_check(rho) -> SeparabilityReport:
    """Least-squares fit of rho(x, t1, t2) to r1(x, t1) + r2(x, t2).

    On a full grid the fit is the two-way mean decomposition: r1 is the mean
    over t2, r2 the mean over t1 less the mean over both.  The relative
    Frobenius residual measures how far the samples are from exact
    separability.  Accepts (n1, n2) arrays too, for time-plane-only fields.

    The samples are first scaled by the power of two 2^-e of max|R|, as in
    Blue's norm, so the squares in the norms stay finite for any finite
    samples; a power of two scales exactly, and r1, r2 are scaled back.
    """
    R = _as_3d(rho)
    e = int(np.frexp(np.max(np.abs(R)))[1])
    R = np.ldexp(R, -e)
    scale = float(np.linalg.norm(R))
    r1 = R.mean(axis=2)
    r2 = R.mean(axis=1) - r1.mean(axis=1)[:, None]
    fit = r1[:, :, None] + r2[:, None, :]
    residual = float(np.linalg.norm(R - fit)) / max(scale, 1e-300)
    r1, r2 = np.ldexp(r1, e), np.ldexp(r2, e)
    if np.asarray(rho).ndim == 2:
        r1, r2 = r1[0], r2[0]
    return SeparabilityReport(residual=residual, r1=r1, r2=r2, sweeps=1)


def _load_current_file(path: str, grid: Grid2T) -> CurrentField:
    """The CurrentField sampled on grid in a CSV file with columns
    x,t1,t2,j1,j2,jx, one row per grid point in any order."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read current samples from {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 6:
        raise DomainError("current sample file needs columns x,t1,t2,j1,j2,jx")
    expected = grid.nx * grid.n1 * grid.n2
    if data.shape[0] != expected:
        raise DomainError(f"current sample file has {data.shape[0]} rows, grid needs {expected}")
    shape = (grid.nx, grid.n1, grid.n2)
    order = np.lexsort((data[:, 2], data[:, 1], data[:, 0]))
    data = data[order]
    # each sorted row must sit on the grid point it is reshaped onto
    axes = np.meshgrid(grid.x_values, grid.t1_values, grid.t2_values, indexing="ij", sparse=True)
    off = np.zeros(shape, dtype=bool)
    for k, (axis, step) in enumerate(zip(axes, (grid.dx, grid.d1, grid.d2))):
        off |= ~(np.abs(data[:, k].reshape(shape) - axis) <= 1e-9 * step)
    if off.any():
        i = int(np.argmax(off))
        point = tuple(float(a.flat[j]) for a, j in zip(axes, np.unravel_index(i, shape)))
        raise DomainError(f"current sample row {order[i] + 1} of {path} lies at (x, t1, t2) = "
                          f"{tuple(data[i, :3].tolist())}, not at the grid point {point}")
    return CurrentField(grid=grid, j1=data[:, 3].reshape(shape), j2=data[:, 4].reshape(shape),
                        j_space=data[:, 5].reshape(shape))


def run_continuity(tol: Tolerances, grid: Grid2T, source: str):
    """The continuity results and Q1 table of the builtin, builtin-sourced or
    file:<path> current on grid; a builtin current adds its refinement study."""
    sourced = source == "builtin-sourced"
    if source.startswith("file:"):
        current = _load_current_file(source[5:], grid)
    else:
        current, source_rate = manufactured_current(grid, with_source=sourced)
    report = charges(current, tol=tol)
    results = {
        "source": source,
        "dQ1_residual": report.dQ1_residual,
        "dQ2_residual": report.dQ2_residual,
        "boundary_warnings": list(report.boundary_warnings),
        "grid": [grid.nx, grid.n1, grid.n2],
    }
    if source.startswith("builtin"):
        q1, q2 = manufactured_charges(grid, with_source=sourced)
        results["charge_contraction"] = float(max(np.max(np.abs(report.Q1 - q1)),
                                                  np.max(np.abs(report.Q2 - q2))))
        # Q1 is measured against the exact source rate (zero without a
        # source) on both grids, so that the ratio sees the quadrature error,
        # not the source; the refined charges come from the factored
        # contraction, without sampling the refined current
        coarse1 = charge_rate_residual(report.Q1, grid.d1, source_rate(grid.t1_values[1:-1]))
        if sourced:
            results["source_rate_residual"] = coarse1
        refined = grid.refined()
        results["grid_refined"] = [refined.nx, refined.n1, refined.n2]
        fine_q1, fine_q2 = manufactured_charges(refined, with_source=sourced)
        fine1 = charge_rate_residual(fine_q1, refined.d1, source_rate(refined.t1_values[1:-1]))
        fine2 = charge_rate_residual(fine_q2, refined.d2)
        results["dQ1_residual_refined"] = fine1
        results["dQ2_residual_refined"] = fine2
        if fine1 > 0:
            results["refinement_ratio_Q1"] = coarse1 / fine1
        if fine2 > 0:
            results["refinement_ratio_Q2"] = report.dQ2_residual / fine2
    return results, (("t1", "Q1"), (grid.t1_values,), (report.Q1,))


# ---------------------------------------------------------------------------
# manufactured example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Factors:
    """The one-axis factors of the manufactured current as 1-D arrays: w and
    its derivative wp over x; r, rp, b = 1 + 0.5 sin(t1) and the source
    amplitude lam over t1; s, sp, cos(t2) and the source profile g over t2."""

    x: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    sp: np.ndarray
    cos2: np.ndarray
    g: np.ndarray


def _factors(grid: Grid2T) -> _Factors:
    if not grid.has_space:
        raise DomainError("manufactured current needs a grid with a space axis")
    x, t1, t2 = grid.x_values, grid.t1_values, grid.t2_values
    length1, length2 = grid.t1_max - grid.t1_min, grid.t2_max - grid.t2_min
    u1 = (t1 - grid.t1_min) / length1
    u2 = (t2 - grid.t2_min) / length2
    w = np.exp(-x ** 2)
    return _Factors(
        x=x, w=w, wp=-2.0 * x * w,
        r=np.sin(np.pi * u1) ** 2 * (1.0 + 0.3 * u1),
        rp=(np.pi * np.sin(2.0 * np.pi * u1) * (1.0 + 0.3 * u1)
            + 0.3 * np.sin(np.pi * u1) ** 2) / length1,
        b=1.0 + 0.5 * np.sin(t1),
        lam=SOURCE_STRENGTH * np.sin(np.pi * u1) ** 2,
        s=np.sin(np.pi * u2) ** 2 * (1.0 - 0.2 * u2),
        sp=(np.pi * np.sin(2.0 * np.pi * u2) * (1.0 - 0.2 * u2)
            - 0.2 * np.sin(np.pi * u2) ** 2) / length2,
        cos2=np.cos(t2),
        g=0.5 + 0.3 * np.cos(2.0 * np.pi * u2),
    )


def manufactured_current(grid: Grid2T, with_source: bool = False):
    """Analytic current with decaying boundaries, divergence-free by
    construction (j1 = d2 phi + dx A, j2 = -d1 phi + dx B,
    j_space = d1 A + d2 B), plus an optional known source added to j1.

    Returns (CurrentField, source_rate) where source_rate(t1) is the exact
    dQ1/dt1 induced by the source (identically zero without it).
    """
    f = _factors(grid)
    x, w, wp = (v[:, None, None] for v in (f.x, f.w, f.wp))
    r, rp, b, lam = (v[:, None] for v in (f.r, f.rp, f.b, f.lam))

    # each component is a sum of products of one-axis factors; grouping them
    # first leaves one full-grid broadcast product for j1 and one for j2
    j1 = r * (w * f.sp + 0.3 * (w + x * wp) * f.cos2)
    j2 = f.s * (-w * rp + 0.2 * wp * b)
    # jx = A(x, t1) cos(t2) + B(x, t1) sp(t2) is a rank-two product: one
    # matmul writes it with no full-grid temporary
    jx = (np.concatenate((0.3 * x * w * rp, 0.2 * w * b), axis=2)
          @ np.stack((f.cos2, f.sp)))

    a1, length1 = grid.t1_min, grid.t1_max - grid.t1_min
    ix_integral = 0.5 * math.sqrt(math.pi) * (math.erf(grid.x_max) - math.erf(grid.x_min))
    it2_integral = 0.5 * (grid.t2_max - grid.t2_min)

    if with_source:
        j1 += lam * w * f.g

        def source_rate(t1_point):
            uu = (np.asarray(t1_point, dtype=float) - a1) / length1
            lam_prime = SOURCE_STRENGTH * np.pi * np.sin(2.0 * np.pi * uu) / length1
            return lam_prime * ix_integral * it2_integral
    else:
        def source_rate(t1_point):
            return np.zeros_like(np.asarray(t1_point, dtype=float))

    return CurrentField(grid=grid, j1=j1, j2=j2, j_space=jx), source_rate


def manufactured_charges(grid: Grid2T, with_source: bool = False):
    """The charges (Q1, Q2) that charges() integrates from
    manufactured_current(grid, with_source), without sampling the current.

    Each component is a sum of products of one-axis factors, so its trapezoid
    double integral is a sum of products of one-axis trapezoid contractions:
    O(nx + n1 + n2) work, equal to the full-grid contraction up to rounding.
    """
    f = _factors(grid)
    wx, w1, w2 = (trapezoid_weights(v) for v in (f.x, grid.t1_values, grid.t2_values))
    xw = wx @ f.w
    q1 = f.r * (xw * (w2 @ f.sp) + 0.3 * (wx @ (f.w + f.x * f.wp)) * (w2 @ f.cos2))
    q2 = f.s * (0.2 * (wx @ f.wp) * (w1 @ f.b) - xw * (w1 @ f.rp))
    if with_source:
        q1 += f.lam * (xw * (w2 @ f.g))
    return q1, q2

