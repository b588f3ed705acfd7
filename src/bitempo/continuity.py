"""Two-time continuity bookkeeping on grids.

A current (j1, j2, j_space) over (x, t1, t2) satisfying
d1 j1 + d2 j2 - dx j_space = 0 with decaying boundaries yields one conserved
charge per time axis: Q1(t1) integrates j1 over (t2, x) and Q2(t2)
integrates j2 over (t1, x).  Any density normalized jointly in both times
must then be a linear combination rho = alpha rho1(x, t1) + beta rho2(x, t2),
which this module tests as a least-squares fit.  In the classical limit
the same separability forces the mean position to move along a single time
axis; the Ehrenfest residuals measure exactly that.
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
    "EhrenfestReport",
    "charges",
    "separability_check",
    "ehrenfest_limit_residual",
    "manufactured_current",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

# largest separability fit residual ehrenfest_limit_residual accepts
EHRENFEST_SEPARABLE_TOL = 1e-8
# amplitude of the source manufactured_current adds to j1
SOURCE_STRENGTH = 0.1


@dataclass(frozen=True)
class CurrentField:
    """Sampled current components over (x, t1, t2), indexed [ix, i1, i2]."""

    grid: Grid2T
    j1: np.ndarray
    j2: np.ndarray
    j_space: np.ndarray

    def __post_init__(self):
        if not self.grid.has_space:
            raise DomainError("current fields need a grid with a space axis")
        shape = (self.grid.nx, self.grid.n1, self.grid.n2)
        for name, arr in (("j1", self.j1), ("j2", self.j2), ("j_space", self.j_space)):
            a = np.asarray(arr)
            if a.shape != shape:
                raise DomainError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.all(np.isfinite(a)):
                raise DomainError(f"{name} contains non-finite samples")


@dataclass(frozen=True)
class ChargeReport:
    """Charges per time axis with their conservation residuals.

    Q_total[i, j] = alpha * Q1[i] + beta * Q2[j] by construction; the
    residuals are the worst interior |dQ_i/dt_i| before any rescaling of
    alpha, beta.
    """

    Q1: np.ndarray
    Q2: np.ndarray
    dQ1_residual: float
    dQ2_residual: float
    alpha: float
    beta: float
    Q_total: np.ndarray
    boundary_warnings: tuple


@dataclass(frozen=True)
class SeparabilityReport:
    residual: float
    r1: np.ndarray
    r2: np.ndarray
    sweeps: int  # always 1: the fit is one closed-form pass, not an iteration
    passed: bool


@dataclass(frozen=True)
class EhrenfestReport:
    """Residuals of the separable classical limit for the mean position."""

    mixed_partial_residual: float
    cross_defect_1: float | None
    cross_defect_2: float | None
    f1_constant: bool
    f2_constant: bool
    separability_residual: float


def charges(j: CurrentField, alpha: float = 1.0, beta: float = 1.0,
            normalize: bool = True, tol: Tolerances = Tolerances()) -> ChargeReport:
    """Integrate the two charges and their conservation residuals.

    The current should vanish on the integration boundary; leakage is
    reported as warnings and shows up in the residuals rather than aborting.
    With ``normalize`` the combination constants are rescaled so the total
    charge is 1 at the grid origin (skipped when that value is zero, e.g.
    for the zero current).
    """
    g = j.grid
    xv, t1v, t2v = g.x_values, g.t1_values, g.t2_values
    scale = max(float(np.max(np.abs(a))) for a in (j.j1, j.j2, j.j_space))
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

    q1 = _trapz(_trapz(j.j1, t2v, axis=2), xv, axis=0)
    q2 = _trapz(_trapz(j.j2, t1v, axis=1), xv, axis=0)
    dq1 = float(np.max(np.abs((q1[2:] - q1[:-2]) / (2.0 * g.d1))))
    dq2 = float(np.max(np.abs((q2[2:] - q2[:-2]) / (2.0 * g.d2))))

    a, b = float(alpha), float(beta)
    if normalize:
        total0 = a * q1[0] + b * q2[0]
        if abs(total0) > 1e-12 * max(1.0, abs(q1[0]) + abs(q2[0])):
            a, b = a / total0, b / total0
        else:
            warnings.append("total charge vanishes at the grid origin; normalization skipped")
    q_total = a * q1[:, None] + b * q2[None, :]
    return ChargeReport(Q1=q1, Q2=q2, dQ1_residual=dq1, dQ2_residual=dq2,
                        alpha=a, beta=b, Q_total=q_total,
                        boundary_warnings=tuple(warnings))


def _as_3d(rho) -> np.ndarray:
    arr = np.asarray(rho, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise DomainError(f"density must be 2-d or 3-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("density contains non-finite samples")
    return arr


def separability_check(rho, tol: Tolerances = Tolerances()) -> SeparabilityReport:
    """Least-squares fit of rho(x, t1, t2) to r1(x, t1) + r2(x, t2).

    On a full grid the fit is the two-way mean decomposition: r1 is the mean
    over t2, r2 the mean over t1 less the mean over both.  The relative
    Frobenius residual measures how far the samples are from exact
    separability.  Accepts (n1, n2) arrays too, for time-plane-only fields.
    """
    R = _as_3d(rho)
    scale = float(np.linalg.norm(R))
    r1 = R.mean(axis=2)
    r2 = R.mean(axis=1) - r1.mean(axis=1)[:, None]
    fit = r1[:, :, None] + r2[:, None, :]
    residual = float(np.linalg.norm(R - fit)) / max(scale, 1e-300)
    if np.asarray(rho).ndim == 2:
        r1, r2 = r1[0], r2[0]
    return SeparabilityReport(residual=residual, r1=r1, r2=r2, sweeps=1,
                              passed=residual < tol.rel_tol)


def ehrenfest_limit_residual(mean_x, grid: Grid2T, force_11=None,
                             force_22=None) -> EhrenfestReport:
    """Residuals of the single-time classical limit for a mean position.

    The input surface must already be separable, f(t1, t2) = f1 + f2, to
    within EHRENFEST_SEPARABLE_TOL.  The report carries the worst mixed
    partial (it must vanish), and, per diagonal force component, the
    variance across the other time of
    d^2 f/dt_j^2 - F_jj(f).  An autonomous diagonal force can only match a
    motion in which the other time component is frozen, so a nonzero
    cross defect is exactly the signature of attempted two-time motion.
    """
    f = np.asarray(mean_x, dtype=float)
    if f.shape != (grid.n1, grid.n2):
        raise DomainError(f"mean surface has shape {f.shape}, expected {(grid.n1, grid.n2)}")
    fit = separability_check(f)
    if fit.residual > EHRENFEST_SEPARABLE_TOL:
        raise DomainError(
            f"mean position is not separable (fit residual {fit.residual:.3e}); "
            "the continuity structure requires f1(t1) + f2(t2)")

    d1, d2 = grid.d1, grid.d2
    mixed = (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4.0 * d1 * d2)
    mixed_residual = float(np.max(np.abs(mixed)))

    def defect(axis, force):
        if force is None:
            return None
        if axis == 0:
            second = (f[2:, :] - 2.0 * f[1:-1, :] + f[:-2, :]) / d1 ** 2
            delta = second - force(f[1:-1, :])
            return float(np.max(np.var(delta, axis=1)))
        second = (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / d2 ** 2
        delta = second - force(f[:, 1:-1])
        return float(np.max(np.var(delta, axis=0)))

    ptp_scale = max(1.0, float(np.max(np.abs(f))))
    return EhrenfestReport(
        mixed_partial_residual=mixed_residual,
        cross_defect_1=defect(0, force_11),
        cross_defect_2=defect(1, force_22),
        f1_constant=bool(np.ptp(fit.r1) <= 1e-8 * ptp_scale),
        f2_constant=bool(np.ptp(fit.r2) <= 1e-8 * ptp_scale),
        separability_residual=fit.residual,
    )


# ---------------------------------------------------------------------------
# manufactured example
# ---------------------------------------------------------------------------

def manufactured_current(grid: Grid2T, with_source: bool = False):
    """Analytic current with decaying boundaries, divergence-free by
    construction (j1 = d2 phi + dx A, j2 = -d1 phi + dx B,
    j_space = d1 A + d2 B), plus an optional known source added to j1.

    Returns (CurrentField, source_rate) where source_rate(t1) is the exact
    dQ1/dt1 induced by the source (identically zero without it).
    """
    if not grid.has_space:
        raise DomainError("manufactured current needs a grid with a space axis")
    x = grid.x_values[:, None, None]
    t1 = grid.t1_values[None, :, None]
    t2 = grid.t2_values[None, None, :]
    a1, length1 = grid.t1_min, grid.t1_max - grid.t1_min
    a2, length2 = grid.t2_min, grid.t2_max - grid.t2_min
    u1 = (t1 - a1) / length1
    u2 = (t2 - a2) / length2

    w = np.exp(-x ** 2)
    wp = -2.0 * x * w
    r = np.sin(np.pi * u1) ** 2 * (1.0 + 0.3 * u1)
    rp = (np.pi * np.sin(2.0 * np.pi * u1) * (1.0 + 0.3 * u1)
          + 0.3 * np.sin(np.pi * u1) ** 2) / length1
    s = np.sin(np.pi * u2) ** 2 * (1.0 - 0.2 * u2)
    sp = (np.pi * np.sin(2.0 * np.pi * u2) * (1.0 - 0.2 * u2)
          - 0.2 * np.sin(np.pi * u2) ** 2) / length2

    j1 = w * r * sp + 0.3 * (w + x * wp) * r * np.cos(t2)
    j2 = -w * rp * s + 0.2 * wp * s * (1.0 + 0.5 * np.sin(t1))
    jx = 0.3 * x * w * rp * np.cos(t2) + 0.2 * w * sp * (1.0 + 0.5 * np.sin(t1))

    ix_integral = 0.5 * math.sqrt(math.pi) * (math.erf(grid.x_max) - math.erf(grid.x_min))
    it2_integral = 0.5 * length2

    if with_source:
        lam = SOURCE_STRENGTH * np.sin(np.pi * u1) ** 2
        j1 += lam * w * (0.5 + 0.3 * np.cos(2.0 * np.pi * u2))

        def source_rate(t1_point):
            uu = (np.asarray(t1_point, dtype=float) - a1) / length1
            lam_prime = SOURCE_STRENGTH * np.pi * np.sin(2.0 * np.pi * uu) / length1
            return lam_prime * ix_integral * it2_integral
    else:
        def source_rate(t1_point):
            return np.zeros_like(np.asarray(t1_point, dtype=float))

    return CurrentField(grid=grid, j1=j1, j2=j2, j_space=jx), source_rate
