"""First-order relativistic wave equation in 1+2 dimensions (two times, one
space coordinate) with metric diag(+, +, -).

A 2x2 representation of the Clifford algebra suffices: g1 = sigma_1,
g2 = sigma_2, g3 = i sigma_3.  Plane-wave solutions combine the two momentum
branches exp(+-i k.x); their conserved current pairs the field with its
coordinate-reflected adjoint, j_mu ~ i Psi^dag(-x) g3 g_mu Psi(x).  Of the
two real parts of that bilinear, the one with cosine modulation can stay
positive when the cross-branch terms dominate the diagonal ones; the sine
variant always changes sign and is kept only to demonstrate that.  The
separability of the resulting densities is delegated to the continuity
module.  A stationary mode in the second time shifts the squared mass down
by (hbar omega / c^2)^2, which bounds the mode frequency from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DegenerateKernelError, DomainError, Grid2T, OnShellError, Tolerances,
                   central_difference, finite, finite_power, nonzero, null_space)
from .continuity import (CurrentField, SeparabilityReport, charges, separability_check,
                         trapezoid_weights)

__all__ = [
    "GammaSet",
    "GAMMAS",
    "PlaneWaveSolution",
    "PositivityReport",
    "ModeMass",
    "DensityReport",
    "momentum_operator",
    "solve_plane_wave",
    "dirac_current",
    "conservation_residual",
    "current_grid",
    "positivity_check",
    "effective_mode_mass",
    "dirac_density_separability",
    "run_dirac",
    "run_mass_spectrum",
]


@dataclass(frozen=True)
class GammaSet:
    """The three gamma matrices of the (+, +, -) metric, made read-only."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        for a in self.matrices():
            a.flags.writeable = False

    def matrices(self):
        return (self.g1, self.g2, self.g3)


# the fixed 2x2 representation g1 = sigma_1, g2 = sigma_2, g3 = i sigma_3
GAMMAS = GammaSet(g1=np.array([[0, 1], [1, 0]], dtype=complex),
                  g2=np.array([[0, -1j], [1j, 0]], dtype=complex),
                  g3=1j * np.array([[1, 0], [0, -1]], dtype=complex))
# g3 g_mu, the matrix of the bilinear behind current component mu
_CURRENT_MATRICES = tuple(GAMMAS.g3 @ gm for gm in GAMMAS.matrices())


def momentum_operator(k) -> np.ndarray:
    """Contraction g_mu k^mu = k1 g1 + k2 g2 - k3 g3 for covariant k."""
    k = np.asarray(k, dtype=float).reshape(3)
    return k[0] * GAMMAS.g1 + k[1] * GAMMAS.g2 - k[2] * GAMMAS.g3


def _on_shell_residual(k: np.ndarray, m: float, tol: Tolerances) -> float:
    """k1^2 + k2^2 - k3^2 - m^2 of a wavevector k (3,) for mass m;
    OnShellError when its size passes abs_tol max(1, m^2) 1e4."""
    m_sq = finite_power(m, 2, "m^2")
    with np.errstate(over="ignore", invalid="ignore"):
        res = finite(float(k[0] ** 2 + k[1] ** 2 - k[2] ** 2 - m_sq), "k1^2 + k2^2 - k3^2 - m^2")
    if abs(res) > tol.abs_tol * max(1.0, m_sq) * 1e4:
        raise OnShellError(
            f"wavevector {k} violates k1^2 + k2^2 - k3^2 = m^2 for m = {m}: residual {res:.3e}")
    return res


def _bilinear_coeffs(pp: np.ndarray, pm: np.ndarray, h: np.ndarray):
    """Coefficients of e^{2i phi}, e^{-2i phi} and 1 in Psi^dag(-x) h Psi(x)
    for the branch spinors pp (plus) and pm (minus)."""
    a = complex(pp.conj() @ h @ pp)
    b = complex(pm.conj() @ h @ pm)
    c = complex(pp.conj() @ h @ pm + pm.conj() @ h @ pp)
    return a, b, c


@dataclass(frozen=True)
class PlaneWaveSolution:
    """Two-branch plane wave: exp(+ik.x) psi_plus + exp(-ik.x) psi_minus.

    psi_plus spans the kernel of (-g.k - m), psi_minus of (+g.k - m); the
    branch amplitudes may be rescaled or rephased freely afterwards.  Each
    build checks both and the on-shell relation, and keeps the relation's
    residual, per current component mu the coefficients (a, b, c) of
    Psi^dag(-x) g3 g_mu Psi(x) (see _bilinear_coeffs), and current_bound,
    the largest sum of |Re| and |Im| over one component's a, b, c; k and
    the spinors are read-only copies, so none of these can go stale.  A
    spinor norm or a current bound that overflows is an EvaluationError
    naming it.
    """

    k: np.ndarray
    m: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    on_shell_residual: float
    coeffs: tuple
    current_bound: float

    def __init__(self, k, m, psi_plus, psi_minus, tol: Tolerances = Tolerances()):
        k = np.array(k, dtype=float).reshape(3)
        pp = np.array(psi_plus, dtype=complex).reshape(2)
        pm = np.array(psi_minus, dtype=complex).reshape(2)
        for a in (k, pp, pm):
            a.flags.writeable = False
        residual = _on_shell_residual(k, m, tol)
        op = momentum_operator(k)
        with np.errstate(over="ignore", invalid="ignore"):
            for name, op_signed, spinor in (("psi_plus", -op, pp), ("psi_minus", op, pm)):
                norm = finite(float(np.linalg.norm(spinor)), f"the norm |{name}|")
                if norm > 0:
                    defect = float(np.linalg.norm((op_signed - m * np.eye(2)) @ spinor)) / norm
                    if defect > 1e-8 * max(1.0, abs(m), float(np.max(np.abs(k)))):
                        raise DomainError(f"{name} is not in the kernel of its branch operator "
                                          f"(defect {defect:.3e})")
            coeffs = tuple(_bilinear_coeffs(pp, pm, h) for h in _CURRENT_MATRICES)
            # every partial sum of a e^{2i phi} + b e^{-2i phi} + c is at most the sum
            # of |Re| and |Im| over a, b, c, which names an overflow before sampling
            bound = finite(float(np.max(np.sum(np.abs(np.array(coeffs).view(float)), axis=1))),
                           "the current bound |a| + |b| + |c|")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", float(m))
        object.__setattr__(self, "psi_plus", pp)
        object.__setattr__(self, "psi_minus", pm)
        object.__setattr__(self, "on_shell_residual", residual)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "current_bound", bound)

    def phase(self, pos) -> np.ndarray:
        """k.x = k1 t1 + k2 t2 + k3 x for position (t1, t2, x)."""
        pos = np.asarray(pos, dtype=float)
        return pos[..., 0] * self.k[0] + pos[..., 1] * self.k[1] + pos[..., 2] * self.k[2]

    def rescaled(self, plus: complex = 1.0, minus: complex = 1.0,
                 tol: Tolerances = Tolerances()) -> "PlaneWaveSolution":
        return PlaneWaveSolution(self.k, self.m, plus * self.psi_plus, minus * self.psi_minus,
                                 tol)


@dataclass(frozen=True)
class PositivityReport:
    """The four sign-stability magnitudes plus sampled current minima.

    Each time-component current is (diagonal term) * cos(2 k.x) + (cross
    term); its sign is fixed exactly when |diagonal| <= |cross|.
    """

    lhs_im: float
    rhs_im: float
    lhs_re: float
    rhs_re: float
    holds: tuple
    min_j1: float
    min_j2: float


@dataclass(frozen=True)
class ModeMass:
    """Effective masses of stationary second-time modes, as columns over
    the mode frequencies omega.

    m_eff^2 c^4 = m^2 c^4 - hbar^2 omega^2 (m_eff NaN where tachyonic).  tau
    is the mode period 2 pi / omega and R the Compton wavelength
    2 pi hbar / (m c); a mode is tachyonic exactly when c tau < R (equality
    gives a massless mode).  c_tau_gt_R holds 1.0 or 0.0, NaN where both
    c tau and R are infinite.
    """

    m_eff: np.ndarray
    tachyonic: np.ndarray
    tau: np.ndarray
    R: np.ndarray
    c_tau_gt_R: np.ndarray
    classification_consistent: np.ndarray


@dataclass(frozen=True)
class DensityReport:
    separability: SeparabilityReport
    total_fit: SeparabilityReport
    charge_report: object


def solve_plane_wave(k, m: float, tol: Tolerances = Tolerances()) -> PlaneWaveSolution:
    """Branch spinors for an on-shell wavevector.

    Each branch kernel is one-dimensional away from the massless zero-mode
    edge; spinors come back unit-norm with the first nonzero component made
    real positive so results are reproducible.  An off-shell k has no
    kernel, and raises OnShellError rather than DegenerateKernelError.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    op = momentum_operator(k)
    spinors = []
    for sign in (-1.0, +1.0):
        kern = null_space(sign * op - m * np.eye(2), Tolerances(abs_tol=1e-9))
        if len(kern) != 1:
            _on_shell_residual(k, m, tol)
            raise DegenerateKernelError(
                f"branch kernel has dimension {len(kern)} (m = {m}, k = {k}); "
                "expected 1 away from the massless zero-mode edge")
        spin = kern[0].astype(complex)
        idx = int(np.argmax(np.abs(spin) > 1e-12))
        ph = spin[idx] / abs(spin[idx])
        spin = spin / ph / np.linalg.norm(spin)
        spinors.append(spin)
    return PlaneWaveSolution(k, m, spinors[0], spinors[1], tol)


def _current_from_bilinear(sol: PlaneWaveSolution, phase, part: str):
    """All three current components at the given phases k.x."""
    if part not in ("imaginary", "real"):
        raise DomainError(f"part must be 'imaginary' or 'real', got {part!r}")
    e_plus = np.exp(1j * (2.0 * np.asarray(phase, dtype=float)))
    ib = [1j * (a * e_plus + b * np.conj(e_plus) + c) for a, b, c in sol.coeffs]
    return [v.imag if part == "imaginary" else v.real for v in ib]


def dirac_current(sol: PlaneWaveSolution, pos, part: str = "imaginary") -> np.ndarray:
    """Conserved current (j1, j2, j3) at a position (t1, t2, x).

    ``part`` selects which real part of i Psi^dag(-x) g3 g_mu Psi(x) is
    used: "imaginary" gives the cosine-modulated current whose sign can be
    pinned; "real" gives the sine-modulated variant that necessarily
    changes sign and exists only to demonstrate that failure.
    """
    phi = sol.phase(np.asarray(pos, dtype=float).reshape(3))
    return np.array([float(c) for c in _current_from_bilinear(sol, phi, part)])


_CONSERVATION_PROBES = ((-0.4, 0.3, 0.7), (0.9, -0.6, 0.1), (0.2, 0.8, -0.9))


def conservation_residual(sol: PlaneWaveSolution, part: str = "imaginary",
                          tol: Tolerances = Tolerances()) -> float:
    """Max |d1 j1 + d2 j2 - dx jx| over three fixed probe positions, each
    derivative a central difference of dirac_current along one coordinate,
    relative to max(1, sol.current_bound): the divergence of a rescaled wave
    grows with the square of its rescale, and so does that bound."""
    worst = 0.0
    for pos in _CONSERVATION_PROBES:
        div = 0.0
        for mu, sgn in ((0, 1.0), (1, 1.0), (2, -1.0)):
            def comp(u, mu=mu, pos=pos):
                q = list(pos)
                q[mu] = u
                return dirac_current(sol, q, part)[mu]
            div += sgn * central_difference(comp, pos[mu], tol.step_for(pos))
        worst = max(worst, abs(div))
    return worst / max(1.0, sol.current_bound)


def current_grid(sol: PlaneWaveSolution, grid: Grid2T, part: str = "imaginary"):
    """Current components sampled over (x, t1, t2); x = 0 plane when the
    grid has no space axis.  Arrays are indexed [ix, i1, i2]."""
    xv = grid.x_values if grid.has_space else np.array([0.0])
    # |2 k.x| is at most this, which names an overflow without a pass over the grid
    finite(2.0 * sum(abs(float(k)) * float(np.max(np.abs(v)))
                     for k, v in zip(sol.k, (grid.t1_values, grid.t2_values, xv))),
           "the phase 2 k.x")
    phi = (sol.k[0] * grid.t1_values[None, :, None]
           + sol.k[1] * grid.t2_values[None, None, :]
           + sol.k[2] * xv[:, None, None])
    return _current_from_bilinear(sol, phi, part)


def positivity_check(sol: PlaneWaveSolution, current,
                     tol: Tolerances = Tolerances()) -> PositivityReport:
    """Sign-stability inequalities for the two time components, checked
    against the minima of current, sol's part = "imaginary" samples
    (j1, j2, ...) from current_grid.

    The diagonal-branch magnitudes multiply cos(2 k.x) while the
    cross-branch magnitudes are constant; each inequality
    |diagonal| <= |cross| pins the sign of its component over all of
    space-time.
    """
    cp1, cp2 = sol.psi_plus
    cm1, cm2 = sol.psi_minus
    diag = np.conj(cp2) * cp1 + np.conj(cm2) * cm1
    cross = np.conj(cm2) * cp1 + np.conj(cp2) * cm1
    lhs_im, rhs_im = abs(diag.imag), abs(cross.imag)
    lhs_re, rhs_re = abs(diag.real), abs(cross.real)
    holds = (lhs_im <= rhs_im + tol.abs_tol, lhs_re <= rhs_re + tol.abs_tol)
    return PositivityReport(lhs_im=float(lhs_im), rhs_im=float(rhs_im),
                            lhs_re=float(lhs_re), rhs_re=float(rhs_re), holds=holds,
                            min_j1=float(np.min(current[0])), min_j2=float(np.min(current[1])))


def effective_mode_mass(m: float, omega, hbar: float = 1.0, c: float = 1.0) -> ModeMass:
    """Effective masses left after freezing modes of the frequencies omega
    (an array) in the second time, with the period-versus-Compton-length
    classification of each.  A nonzero m or a c whose square underflows to
    0 is an EvaluationError, as is an overflowing square."""
    omega = np.asarray(omega, dtype=float)
    if m < 0 or np.any(omega < 0) or hbar <= 0 or c <= 0:
        raise DomainError("need m >= 0, omega >= 0, hbar > 0, c > 0")
    m_sq = nonzero(finite_power(m, 2, "m^2"), "m^2") if m else 0.0
    c_sq = nonzero(finite_power(c, 2, "c^2"), "c^2")
    with np.errstate(over="ignore", invalid="ignore"):
        q = hbar * omega / c_sq
        # float_power calls C pow, as Python's float ** does; numpy's ** 2 is q * q
        q_sq = np.float_power(q, 2)
    bad = ~np.isfinite(q_sq)
    if bad.any():
        finite_power(q[bad][0], 2, "(hbar omega / c^2)^2")
    m_eff_sq = m_sq - q_sq
    tachyonic = m_eff_sq < 0
    with np.errstate(divide="ignore", over="ignore"):
        tau = np.where(omega == 0, math.inf, 2.0 * math.pi / omega)
        c_tau = c * tau
    R = math.inf if m == 0 else 2.0 * math.pi * hbar / (m * c)
    undefined = np.isinf(tau) & math.isinf(R)
    c_tau_gt_R = c_tau > R
    consistent = np.where(c_tau == R, m_eff_sq == 0, c_tau_gt_R == (m_eff_sq > 0))
    return ModeMass(m_eff=np.sqrt(np.where(tachyonic, math.nan, m_eff_sq)),
                    tachyonic=tachyonic, tau=tau, R=np.full(omega.shape, R),
                    c_tau_gt_R=np.where(undefined, math.nan, c_tau_gt_R),
                    classification_consistent=np.where(undefined, ~tachyonic, consistent))


def dirac_density_separability(field: CurrentField,
                               tol: Tolerances = Tolerances()) -> DensityReport:
    """Density built from the time components of a sampled plane-wave
    current.

    rho(x, t1, t2) = Int dt2 j1 + Int dt1 j2 is a function of (x, t1) plus
    one of (x, t2) as built, and so the total charge P(t1, t2) = Int rho dx
    is separable too.  Both fits are run through the
    continuity machinery, so their residuals (the CLI's
    density_separability_residual and total_charge_fit_residual) are
    identities that hold by construction: they measure the rounding of the
    fit, never a physical coupling of the two times.  They are reported
    together with the raw charge bookkeeping (plane waves do not decay, so
    expect boundary warnings there).
    """
    grid = field.grid
    wx, w1, w2 = (trapezoid_weights(v) for v in (grid.x_values, grid.t1_values, grid.t2_values))
    rho = (field.j1 @ w2)[:, :, None] + (w1 @ field.j2)[:, None, :]
    return DensityReport(separability=separability_check(rho),
                         total_fit=separability_check(np.einsum("i,ijk->jk", wx, rho)),
                         charge_report=charges(field, tol=tol))


def run_dirac(tol: Tolerances, wave, grid: Grid2T):
    """The dirac results and current table of the plane wave (k, m, part,
    rescales) = wave on grid; rescales maps a branch to its factor."""
    k, m, part, rescales = wave
    sol = solve_plane_wave(k, m, tol)
    if rescales:
        sol = sol.rescaled(**rescales, tol=tol)
    current = current_grid(sol, grid, part)
    field = CurrentField(grid, *current)
    positivity = positivity_check(
        sol, current if part == "imaginary" else current_grid(sol, grid), tol)
    density = dirac_density_separability(field, tol)
    results = {
        "k": k,
        "m": m,
        "part": part,
        "on_shell_residual": sol.on_shell_residual,
        "psi_plus": [[v.real, v.imag] for v in sol.psi_plus.tolist()],
        "psi_minus": [[v.real, v.imag] for v in sol.psi_minus.tolist()],
        "conservation_residual": conservation_residual(sol, part, tol),
        "positivity": {
            "lhs_im": positivity.lhs_im, "rhs_im": positivity.rhs_im,
            "lhs_re": positivity.lhs_re, "rhs_re": positivity.rhs_re,
            "holds_im": bool(positivity.holds[0]), "holds_re": bool(positivity.holds[1]),
            "min_j1": positivity.min_j1, "min_j2": positivity.min_j2,
        },
        "density_separability_residual": density.separability.residual,
        "total_charge_fit_residual": density.total_fit.residual,
        "charge_boundary_warnings": len(density.charge_report.boundary_warnings),
    }
    return results, (("x", "t1", "t2", "j1", "j2", "jx"),
                     (grid.x_values, grid.t1_values, grid.t2_values), current)


def run_mass_spectrum(sweep):
    """The mass-spectrum results and mode table of the sweep (m, hbar, c,
    omegas): effective_mode_mass over the omega array."""
    m, hbar, c, omegas = sweep
    mode = effective_mode_mass(m, omegas, hbar, c)
    results = {
        "m": m,
        "hbar": hbar,
        "c": c,
        "boundary_omega": finite(m * c ** 2 / hbar, "m c^2 / hbar"),
        "tachyonic_count": int(mode.tachyonic.sum()),
        "classification_consistent": bool(mode.classification_consistent.all()),
        "count": len(omegas),
    }
    return results, (("omega", "m_eff", "tachyonic", "tau", "R", "c_tau_gt_R"), (omegas,),
                     (mode.m_eff, mode.tachyonic.astype(float), mode.tau, mode.R,
                      mode.c_tau_gt_R))
