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

from .core import (
    DegenerateKernelError,
    DomainError,
    Grid2T,
    OnShellError,
    Tolerances,
    central_difference,
    determinant,
    finite,
    finite_power,
    null_space,
)
from .continuity import CurrentField, SeparabilityReport, _trapz, charges, separability_check

__all__ = [
    "GammaSet",
    "PlaneWaveSolution",
    "PositivityReport",
    "ModeMass",
    "DensityReport",
    "gamma_set",
    "momentum_operator",
    "solve_plane_wave",
    "dirac_current",
    "conservation_residual",
    "current_grid",
    "positivity_check",
    "effective_hamiltonian",
    "hermiticity_defect",
    "effective_mode_mass",
    "dirac_density_separability",
]

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class GammaSet:
    """The three gamma matrices and the (+, +, -) metric."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    metric: np.ndarray

    def matrices(self):
        return (self.g1, self.g2, self.g3)

    def clifford_defect(self) -> float:
        """Max entry of |{g_mu, g_nu} - 2 g_{mu nu} 1|; exactly zero here."""
        worst = 0.0
        eye = np.eye(2)
        for mu, gm in enumerate(self.matrices()):
            for nu, gn in enumerate(self.matrices()):
                anti = gm @ gn + gn @ gm
                worst = max(worst, float(np.max(np.abs(anti - 2.0 * self.metric[mu, nu] * eye))))
        return worst


def gamma_set() -> GammaSet:
    """Fixed 2x2 representation: g1 = sigma_1, g2 = sigma_2, g3 = i sigma_3."""
    return GammaSet(g1=_SIGMA1.copy(), g2=_SIGMA2.copy(), g3=1j * _SIGMA3,
                    metric=np.diag([1.0, 1.0, -1.0]))


def momentum_operator(k) -> np.ndarray:
    """Contraction g_mu k^mu = k1 g1 + k2 g2 - k3 g3 for covariant k."""
    k = np.asarray(k, dtype=float).reshape(3)
    g = gamma_set()
    return k[0] * g.g1 + k[1] * g.g2 - k[2] * g.g3


def _on_shell_residual(k, m: float) -> float:
    k = np.asarray(k, dtype=float).reshape(3)
    m_sq = finite_power(m, 2, "m^2")
    with np.errstate(over="ignore", invalid="ignore"):
        return finite(float(k[0] ** 2 + k[1] ** 2 - k[2] ** 2 - m_sq), "k1^2 + k2^2 - k3^2 - m^2")


@dataclass(frozen=True)
class PlaneWaveSolution:
    """Two-branch plane wave: exp(+ik.x) psi_plus + exp(-ik.x) psi_minus.

    psi_plus spans the kernel of (-g.k - m), psi_minus of (+g.k - m); the
    branch amplitudes may be rescaled or rephased freely afterwards.
    """

    k: np.ndarray
    m: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray

    def __init__(self, k, m, psi_plus, psi_minus, tol: Tolerances = Tolerances()):
        k = np.asarray(k, dtype=float).reshape(3)
        pp = np.asarray(psi_plus, dtype=complex).reshape(2)
        pm = np.asarray(psi_minus, dtype=complex).reshape(2)
        res = _on_shell_residual(k, m)
        if abs(res) > tol.abs_tol * max(1.0, m ** 2) * 1e4:
            raise OnShellError(f"k = {k} is off shell for m = {m}: residual {res:.3e}")
        op = momentum_operator(k)
        for name, op_signed, spinor in (("psi_plus", -op, pp), ("psi_minus", op, pm)):
            norm = np.linalg.norm(spinor)
            if norm > 0:
                defect = float(np.linalg.norm((op_signed - m * np.eye(2)) @ spinor)) / norm
                if defect > 1e-8 * max(1.0, abs(m), float(np.max(np.abs(k)))):
                    raise DomainError(f"{name} is not in the kernel of its branch operator "
                                      f"(defect {defect:.3e})")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", float(m))
        object.__setattr__(self, "psi_plus", pp)
        object.__setattr__(self, "psi_minus", pm)

    def phase(self, pos) -> np.ndarray:
        """k.x = k1 t1 + k2 t2 + k3 x for position (t1, t2, x)."""
        pos = np.asarray(pos, dtype=float)
        return pos[..., 0] * self.k[0] + pos[..., 1] * self.k[1] + pos[..., 2] * self.k[2]

    def rescaled(self, plus: complex = 1.0, minus: complex = 1.0) -> "PlaneWaveSolution":
        return PlaneWaveSolution(self.k, self.m, plus * self.psi_plus, minus * self.psi_minus)


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
    min_density_sampled: float
    min_j1: float
    min_j2: float
    sign_im: float
    sign_re: float


@dataclass(frozen=True)
class ModeMass:
    """Effective mass of a stationary second-time mode.

    m_eff^2 c^4 = m^2 c^4 - hbar^2 omega^2.  tau is the mode period
    2 pi / omega and R the Compton wavelength 2 pi hbar / (m c); the mode is
    tachyonic exactly when c tau < R (equality gives a massless mode).
    """

    m: float
    omega: float
    m_eff: float
    tachyonic: bool
    tau: float
    R: float
    c_tau_gt_R: bool | None
    classification_consistent: bool


@dataclass(frozen=True)
class DensityReport:
    rho: np.ndarray
    separability: SeparabilityReport
    total_fit: SeparabilityReport
    charge_report: object


def solve_plane_wave(k, m: float, tol: Tolerances = Tolerances()) -> PlaneWaveSolution:
    """Branch spinors for an on-shell wavevector.

    Each branch kernel is one-dimensional away from the massless zero-mode
    edge; spinors come back unit-norm with the first nonzero component made
    real positive so results are reproducible.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    res = _on_shell_residual(k, m)
    if abs(res) > tol.abs_tol * max(1.0, m ** 2) * 1e4:
        raise OnShellError(
            f"wavevector {k} violates k1^2 + k2^2 - k3^2 = m^2 for m = {m}: residual {res:.3e}")
    op = momentum_operator(k)
    spinors = []
    for sign in (-1.0, +1.0):
        kern = null_space(sign * op - m * np.eye(2), Tolerances(abs_tol=1e-9))
        if len(kern) != 1:
            raise DegenerateKernelError(
                f"branch kernel has dimension {len(kern)} (m = {m}, k = {k}); "
                "expected 1 away from the massless zero-mode edge")
        spin = kern[0].astype(complex)
        idx = int(np.argmax(np.abs(spin) > 1e-12))
        ph = spin[idx] / abs(spin[idx])
        spin = spin / ph / np.linalg.norm(spin)
        spinors.append(spin)
    return PlaneWaveSolution(k, m, spinors[0], spinors[1], tol)


def _bilinear_coeffs(sol: PlaneWaveSolution, h: np.ndarray):
    """Coefficients of e^{2i phi}, e^{-2i phi} and 1 in Psi^dag(-x) h Psi(x)."""
    a = complex(sol.psi_plus.conj() @ h @ sol.psi_plus)
    b = complex(sol.psi_minus.conj() @ h @ sol.psi_minus)
    c = complex(sol.psi_plus.conj() @ h @ sol.psi_minus
                + sol.psi_minus.conj() @ h @ sol.psi_plus)
    return a, b, c


def _current_from_bilinear(sol: PlaneWaveSolution, phase, part: str):
    """All three current components at the given phases k.x."""
    g = gamma_set()
    two_phi = 2.0 * np.asarray(phase, dtype=float)
    e_plus = np.exp(1j * two_phi)
    comps = []
    for gm in g.matrices():
        a, b, c = _bilinear_coeffs(sol, g.g3 @ gm)
        bilinear = a * e_plus + b * np.conj(e_plus) + c
        ib = 1j * bilinear
        comps.append(ib.imag if part == "imaginary" else ib.real)
    return comps


def dirac_current(sol: PlaneWaveSolution, pos, part: str = "imaginary") -> np.ndarray:
    """Conserved current (j1, j2, j3) at a position (t1, t2, x).

    ``part`` selects which real part of i Psi^dag(-x) g3 g_mu Psi(x) is
    used: "imaginary" gives the cosine-modulated current whose sign can be
    pinned; "real" gives the sine-modulated variant that necessarily
    changes sign and exists only to demonstrate that failure.
    """
    if part not in ("imaginary", "real"):
        raise DomainError(f"part must be 'imaginary' or 'real', got {part!r}")
    phi = sol.phase(np.asarray(pos, dtype=float).reshape(3))
    j = _current_from_bilinear(sol, phi, part)
    return np.array([float(c) for c in j])


_CONSERVATION_PROBES = ((-0.4, 0.3, 0.7), (0.9, -0.6, 0.1), (0.2, 0.8, -0.9))


def conservation_residual(sol: PlaneWaveSolution, part: str = "imaginary",
                          tol: Tolerances = Tolerances()) -> float:
    """Max |d1 j1 + d2 j2 - dx jx| over three fixed probe positions, each
    derivative a central difference of dirac_current along one coordinate."""
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
    return worst


def current_grid(sol: PlaneWaveSolution, grid: Grid2T, part: str = "imaginary"):
    """Current components sampled over (x, t1, t2); x = 0 plane when the
    grid has no space axis.  Arrays are indexed [ix, i1, i2]."""
    if part not in ("imaginary", "real"):
        raise DomainError(f"part must be 'imaginary' or 'real', got {part!r}")
    xv = grid.x_values if grid.has_space else np.array([0.0])
    # |2 k.x| is at most this, which names an overflow without a pass over the grid
    finite(2.0 * sum(abs(float(k)) * float(np.max(np.abs(v)))
                     for k, v in zip(sol.k, (grid.t1_values, grid.t2_values, xv))),
           "the phase 2 k.x")
    phi = (sol.k[0] * grid.t1_values[None, :, None]
           + sol.k[1] * grid.t2_values[None, None, :]
           + sol.k[2] * xv[:, None, None])
    return _current_from_bilinear(sol, phi, part)


def positivity_check(sol: PlaneWaveSolution, sample_grid: Grid2T,
                     tol: Tolerances = Tolerances()) -> PositivityReport:
    """Sign-stability inequalities for the two time components, checked
    against sampled minima.

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
    j1, j2, _ = current_grid(sol, sample_grid, part="imaginary")
    return PositivityReport(
        lhs_im=float(lhs_im), rhs_im=float(rhs_im),
        lhs_re=float(lhs_re), rhs_re=float(rhs_re),
        holds=holds,
        min_density_sampled=float(min(np.min(j1), np.min(j2))),
        min_j1=float(np.min(j1)), min_j2=float(np.min(j2)),
        sign_im=float(np.sign(cross.imag)), sign_re=float(np.sign(cross.real)),
    )


def effective_hamiltonian(k2: float, k3: float, m: float = 0.0) -> np.ndarray:
    """Generator of t1 evolution in a plane-wave (k2, k3) representation:
    k2 (g1 g2) - k3 (g1 g3) + m g1."""
    g = gamma_set()
    return k2 * (g.g1 @ g.g2) - k3 * (g.g1 @ g.g3) + m * g.g1


def hermiticity_defect(k_samples=None, m: float = 0.0) -> float:
    """Max entry magnitude of H_eff - H_eff^dag over sampled (k2, k3).

    The g1 g2 product is anti-Hermitian, so the defect is positive for any
    generic sample set; H_eff(0, 0) = m g1 alone is Hermitian.
    """
    if k_samples is None:
        k_samples = [(0.7, 0.3), (-1.1, 0.9), (0.4, -1.3), (1.0, 1.0)]
    worst = 0.0
    for k2, k3 in k_samples:
        h = effective_hamiltonian(float(k2), float(k3), m)
        worst = max(worst, float(np.max(np.abs(h - h.conj().T))))
    return worst


def effective_mode_mass(m: float, omega: float, hbar: float = 1.0,
                        c: float = 1.0) -> ModeMass:
    """Effective mass left after freezing a mode of frequency omega in the
    second time, with the period-versus-Compton-length classification."""
    if m < 0 or omega < 0 or hbar <= 0 or c <= 0:
        raise DomainError("need m >= 0, omega >= 0, hbar > 0, c > 0")
    m_eff_sq = (finite_power(m, 2, "m^2")
                - finite_power(hbar * omega / finite_power(c, 2, "c^2"), 2, "(hbar omega / c^2)^2"))
    tachyonic = m_eff_sq < 0
    m_eff = math.sqrt(m_eff_sq) if not tachyonic else float("nan")
    tau = math.inf if omega == 0 else 2.0 * math.pi / omega
    R = math.inf if m == 0 else 2.0 * math.pi * hbar / (m * c)
    if math.isinf(tau) and math.isinf(R):
        c_tau_gt_R = None
        consistent = not tachyonic
    else:
        c_tau = math.inf if math.isinf(tau) else c * tau
        c_tau_gt_R = bool(c_tau > R)
        consistent = c_tau_gt_R == (m_eff_sq > 0)
        if c_tau == R:
            consistent = m_eff_sq == 0
    return ModeMass(m=float(m), omega=float(omega), m_eff=m_eff,
                    tachyonic=bool(tachyonic), tau=tau, R=R,
                    c_tau_gt_R=c_tau_gt_R, classification_consistent=bool(consistent))


def dirac_density_separability(sol: PlaneWaveSolution, grid: Grid2T,
                               part: str = "imaginary",
                               tol: Tolerances = Tolerances()) -> DensityReport:
    """Density built from the time components of the plane-wave current.

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
    if not grid.has_space:
        raise DomainError("density separability needs a grid with a space axis")
    j1, j2, j3 = current_grid(sol, grid, part)
    rho1 = _trapz(j1, grid.t2_values, axis=2)
    rho2 = _trapz(j2, grid.t1_values, axis=1)
    rho = rho1[:, :, None] + rho2[:, None, :]
    sep = separability_check(rho, tol)
    total = _trapz(rho, grid.x_values, axis=0)
    total_fit = separability_check(total, tol)
    field = CurrentField(grid=grid, j1=np.asarray(j1), j2=np.asarray(j2),
                         j_space=np.asarray(j3))
    report = charges(field, tol=tol)
    return DensityReport(rho=rho, separability=sep, total_fit=total_fit,
                         charge_report=report)
