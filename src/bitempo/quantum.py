"""Unitary evolution with two commuting generators in a shared eigenbasis.

Observables evolve element by element: each matrix element picks up the
phase exp(i (d1 t1 + d2 t2) / hbar) built from the level-spacing pair
(d1, d2) of the two generator spectra.  That spacing pair fixes a direction
in the (t1, t2) plane along which the element is constant, so every element
follows a single effective time of its own.  Fluctuation traces, the
visibility classifier for the spacing-weighted elapsed time, and the
angle-width bound quantify when a genuinely two-time signal could survive
in second moments.

Sign conventions: second moments are stored as the nonnegative variance
<x^2> - <x>^2.  The mixed second derivative of an evolved element equals
x^{nm}(t) (i d1 / hbar)(i d2 / hbar), carrying the minus sign of the
double-commutator acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (DomainError, EvaluationError, Grid2T, TimePlanePoint, finite, finite_power,
                   nonzero)

__all__ = [
    "TwoTimeQuantumSystem",
    "StateVector",
    "FluctuationTrace",
    "UncertaintyBudget",
    "AngleWidthReport",
    "Visibility",
    "UncertaintyDomainError",
    "evolved_elements",
    "evolve_element",
    "element_times",
    "tau2_dependence",
    "variance_trace",
    "uncertainty_visibility",
    "angle_and_width",
    "run_quantum_fluct",
    "run_uncertainty",
]

HERMITICITY_ATOL = 1e-12
# share of a full turn below which uncertainty_visibility calls the phase frozen
FROZEN_MARGIN = 0.1
# complex elements (grid points x levels) of w and of y per block of variance_trace
TRACE_BLOCK_ELEMENTS = 2 ** 15


class UncertaintyDomainError(DomainError):
    """The elapsed time is too short for the angle construction."""


@dataclass(frozen=True)
class TwoTimeQuantumSystem:
    """Spectra of the two generators plus an observable in their shared basis.

    E1, E2 list the eigenvalues of the generators (which must commute, hence
    the shared basis); X0 is the Hermitian observable matrix at time zero.
    """

    E1: np.ndarray
    E2: np.ndarray
    X0: np.ndarray

    def __init__(self, E1, E2, X0):
        e1 = np.asarray(E1, dtype=float)
        e2 = np.asarray(E2, dtype=float)
        x0 = np.asarray(X0, dtype=complex)
        n = e1.size
        if n < 2:
            raise DomainError(f"need at least 2 levels, got {n}")
        if e2.size != n or x0.shape != (n, n):
            raise DomainError(f"shape mismatch: E1 {e1.shape}, E2 {e2.shape}, X0 {x0.shape}")
        if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
            raise DomainError("spectra must be finite")
        if not np.all(np.isfinite(x0)):
            raise DomainError("X0 must be finite")
        scale = max(1.0, float(np.max(np.abs(x0))))
        if np.max(np.abs(x0 - x0.conj().T)) > HERMITICITY_ATOL * scale:
            raise DomainError("X0 must be Hermitian to 1e-12")
        object.__setattr__(self, "E1", e1)
        object.__setattr__(self, "E2", e2)
        object.__setattr__(self, "X0", x0)

    @property
    def n_levels(self) -> int:
        return self.E1.size

    def spacing_matrices(self):
        d1 = np.subtract.outer(self.E1, self.E1)
        d2 = np.subtract.outer(self.E2, self.E2)
        return d1, d2


@dataclass(frozen=True)
class StateVector:
    """Unit-norm state expressed in the shared eigenbasis."""

    psi: np.ndarray

    def __init__(self, psi):
        arr = np.asarray(psi, dtype=complex).ravel()
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state must have unit norm, got {norm!r}")
        object.__setattr__(self, "psi", arr)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        arr = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(arr)
        if norm == 0:
            raise DomainError("cannot normalize the zero vector")
        return cls(arr / norm)


@dataclass(frozen=True)
class FluctuationTrace:
    """Sampled first and second moments of an observable over a grid."""

    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class UncertaintyBudget:
    """Inputs for visibility and angle-width estimates.

    dE1, dE2 are representative level spacings of the two generators;
    ddE1, ddE2 their fluctuations across the populated pairs; t the elapsed
    point in the time plane.
    """

    dE1: float
    dE2: float
    ddE1: float
    ddE2: float
    t: TimePlanePoint
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")
        vals = (self.dE1, self.dE2, self.ddE1, self.ddE2)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("budget entries must be finite")

    @property
    def swept_phase(self) -> float:
        """|dE1 t1 + dE2 t2| / hbar, the phase the spacing pair sweeps by t."""
        return finite(abs(self.dE1 * self.t.t1 + self.dE2 * self.t.t2) / self.hbar,
                      "swept phase |dE1 t1 + dE2 t2| / hbar")


@dataclass(frozen=True)
class AngleWidthReport:
    """Angle between the time vector and the spacing vector with its width.

    dphi_exact diverges at the domain boundary (singular=True there);
    dphi_lowest_order keeps only the leading power of hbar; bound is the
    constant-free estimate that survives when hbar drops out.
    """

    phi: float
    dphi_exact: float
    dphi_lowest_order: float
    bound: float
    singular: bool = False


class Visibility(str, Enum):
    FROZEN = "frozen"
    THRESHOLD = "threshold"
    OSCILLATING = "oscillating"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evolved_elements(sys: TwoTimeQuantumSystem, t1, t2, hbar: float = 1.0) -> np.ndarray:
    """Every element of the evolved observable, X0 exp(i (d1 t1 + d2 t2) / hbar).

    t1 and t2 broadcast against the (n, n) spacing matrices, so scalars
    give all elements at one time-plane point and (n, n) arrays put each
    element at a point of its own.  No element's modulus ever changes.
    """
    if hbar <= 0:
        raise DomainError("hbar must be positive")
    d1, d2 = sys.spacing_matrices()
    return sys.X0 * np.exp(1j * ((d1 * t1 + d2 * t2) / hbar))


# the span BENCHMARK.json's per-layer metric quantum.evolve_element.calls
# reads, without which `benchmarks/run.py --trace 1` stops; the alias goes
# once the benchmark names evolved_elements instead
evolve_element = evolved_elements


def element_times(sys: TwoTimeQuantumSystem, tau1, tau2):
    """Per-element time-plane points (t1, t2) whose coordinates, rotated
    onto the element's spacing direction (d1, d2), are (tau1, tau2).

    The element depends on tau1 only.  A degenerate pair (d1 = d2 = 0) has
    no direction and takes the zero angle; its element is constant anyway.
    """
    d1, d2 = sys.spacing_matrices()
    theta = np.arctan2(d2, d1)
    ct, st = np.cos(theta), np.sin(theta)
    return ct * tau1 - st * tau2, st * tau1 + ct * tau2


# rotated coordinates of the two time-plane points tau2_dependence compares:
# one shared tau1, two tau2 values on a leading axis, so one call takes both
_PROBE_TAU1 = 0.37
_PROBE_TAU2 = np.array((0.21, -0.83))[:, None, None]


def tau2_dependence(sys: TwoTimeQuantumSystem, hbar: float = 1.0) -> float:
    """Largest change of any element between the two time-plane points
    whose rotated coordinates are (tau1, tau2) = (0.37, 0.21) and
    (0.37, -0.83).

    Each element depends on its own tau1 only, so this is an identity that
    holds by construction: the result measures the rounding of the rotation
    and of the phases, never a physical tau2 dependence.  Degenerate pairs
    have a zero phase at both points and so change by exactly 0.
    """
    a, b = evolved_elements(sys, *element_times(sys, _PROBE_TAU1, _PROBE_TAU2), hbar)
    return float(np.max(np.abs(a - b)))


def variance_trace(sys: TwoTimeQuantumSystem, psi: StateVector, grid: Grid2T,
                   hbar: float = 1.0) -> FluctuationTrace:
    """First and second moments of the evolved observable over a grid.

    The evolved observable is X(t) = D X0 D^dagger with the level phases
    D = diag(exp(i (E1 t1 + E2 t2) / hbar)).  The two generators commute, so
    D^dagger factors into one table per time axis, D1 = exp(-i E1 t1 / hbar)
    (n1 x n) and D2 = exp(-i E2 t2 / hbar) (n2 x n), and w = D^dagger psi =
    D1 D2 psi at a grid point is one row of each table multiplied together.
    One product with X0 gives y = X0 w, and the moments are
    <X> = w^dagger X0 w = w^dagger y and <X^2> = |X(t) psi|^2 = |X0 w|^2 = |y|^2;
    degenerate element pairs contribute their constant terms exactly.

    w and y are formed for one block of consecutive grid points at a time, in
    row-major order, so a block may cross rows; each holds at most
    max(n, TRACE_BLOCK_ELEMENTS) complex elements (0.5 MiB).  Beside the three
    (n1, n2) outputs and the per-axis tables ((n1 + n2) x n complex), the
    working memory then stays bounded whatever the grid size, and each point's
    arithmetic is that of an evaluation over the whole grid at once.
    """
    if hbar <= 0:
        raise DomainError("hbar must be positive")
    v = psi.psi
    if v.size != sys.n_levels:
        raise DomainError(f"state has {v.size} amplitudes for {sys.n_levels} levels")
    # |phase| is at most this, which names an overflow without a pass over the grid
    finite(sum(float(np.max(np.abs(t))) * float(np.max(np.abs(e)))
               for t, e in ((grid.t1_values, sys.E1), (grid.t2_values, sys.E2))) / float(hbar),
           "the phase (E1 t1 + E2 t2) / hbar")
    d1 = -1j * (np.multiply.outer(grid.t1_values, sys.E1) / hbar)
    d2 = -1j * (np.multiply.outer(grid.t2_values, sys.E2) / hbar)
    # the phase tables are exponentiated, and D2 scaled by psi, in place
    np.exp(d1, out=d1)
    np.exp(d2, out=d2)
    d2 *= v
    mean = np.empty((grid.n1, grid.n2), dtype=complex)
    second = np.empty((grid.n1, grid.n2))
    flat_mean, flat_second = mean.reshape(-1), second.reshape(-1)
    size = max(1, TRACE_BLOCK_ELEMENTS // v.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, mean.size, size):
            block = slice(start, min(start + size, mean.size))
            i, j = np.divmod(np.arange(block.start, block.stop), grid.n2)
            w = d1[i]
            w *= d2[j]
            y = w @ sys.X0.T
            # w is spent once y is formed, so it is conjugated in place
            flat_mean[block] = (np.conj(w, out=w)[:, None, :] @ y[:, :, None])[:, 0, 0]
            # |y|^2 as a real dot product of the interleaved real and imaginary parts
            yf = y.view(float)
            flat_second[block] = (yf[:, None, :] @ yf[:, :, None])[:, 0, 0]
        variance = second - mean.real ** 2
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()):
        raise EvaluationError("the moments <X> and <X^2> overflow: "
                              f"largest |X0| entry {np.max(np.abs(sys.X0)):.6g}")
    if np.max(np.abs(mean.imag)) > 1e-10:
        raise DomainError("mean acquired an imaginary part; X0 is not Hermitian enough")
    if np.min(variance) < -1e-10:
        raise DomainError("variance went negative; X0 is not Hermitian enough")
    return FluctuationTrace(mean=mean, second_moment=second, variance=variance)


def uncertainty_visibility(budget: UncertaintyBudget) -> Visibility:
    """Classify whether the evolved phase can complete an oscillation.

    The swept phase is |dE1 t1 + dE2 t2| / hbar: below FROZEN_MARGIN of a full
    turn nothing moves (frozen); at or past a full turn the element
    oscillates; in between sits the threshold regime.
    """
    s = budget.swept_phase
    if s < 2.0 * math.pi * FROZEN_MARGIN:
        return Visibility.FROZEN
    if s >= 2.0 * math.pi:
        return Visibility.OSCILLATING
    return Visibility.THRESHOLD


def angle_and_width(budget: UncertaintyBudget) -> AngleWidthReport:
    """Angle between the elapsed-time vector and the spacing vector, and the
    spread of that angle induced by spacing fluctuations.

    Requires t * sqrt(dE1^2 + dE2^2) >= hbar; the exact width diverges at
    equality (reported singular).  The constant-free bound dominates the
    exact width once the angle passes 45 degrees.
    """
    de = math.hypot(budget.dE1, budget.dE2)
    if de == 0.0:
        raise UncertaintyDomainError("both level spacings vanish; no angle defined")
    t = math.hypot(budget.t.t1, budget.t.t2)
    q = t * de
    hbar = budget.hbar
    if q < hbar * (1.0 - 1e-12):
        raise UncertaintyDomainError(
            f"t*sqrt(dE1^2+dE2^2) = {q:.6g} < hbar = {hbar:.6g}: "
            "cos(phi) would exceed 1")
    num = finite(budget.dE1 * budget.ddE1 + budget.dE2 * budget.ddE2, "dE1*ddE1 + dE2*ddE2")
    de_sq = nonzero(finite_power(de, 2, "dE^2 = dE1^2 + dE2^2"), "dE^2 = dE1^2 + dE2^2")
    q = finite(q, "q = t*dE")
    bound = finite(num / de_sq, "bound")
    de_cube = nonzero(finite_power(de, 3, "dE^3"), "dE^3")
    lowest = finite(hbar * num / nonzero(t * de_cube, "t*dE^3"), "dphi_lowest_order")
    if abs(q - hbar) <= 1e-12 * hbar:
        return AngleWidthReport(phi=0.0, dphi_exact=math.inf,
                                dphi_lowest_order=lowest, bound=bound, singular=True)
    phi = math.acos(hbar / q)
    width = de_sq * math.sqrt(finite(q * q, "q^2") - hbar * hbar)
    exact = finite(hbar * num / nonzero(width, "dE^2 sqrt(q^2 - hbar^2)"), "dphi_exact")
    return AngleWidthReport(phi=phi, dphi_exact=exact,
                            dphi_lowest_order=lowest, bound=bound)


def run_quantum_fluct(setup, grid: Grid2T):
    """The quantum-fluct results and moment table of the (system, state,
    hbar) of setup over grid."""
    system, state, hbar = setup
    trace = variance_trace(system, state, grid, hbar)
    results = {
        "n_levels": system.n_levels,
        "hbar": hbar,
        "variance_min": float(np.min(trace.variance)),
        "variance_max": float(np.max(trace.variance)),
        "mean_imag_max": float(np.max(np.abs(trace.mean.imag))),
        "tau2_dependence": tau2_dependence(system, hbar),
        "grid": [grid.n1, grid.n2],
    }
    columns = ("t1", "t2", "mean_re", "mean_im", "second_moment", "variance")
    fields = (trace.mean.real, trace.mean.imag, trace.second_moment, trace.variance)
    return results, (columns, (grid.t1_values, grid.t2_values), fields)


def run_uncertainty(budget: UncertaintyBudget):
    """The uncertainty results of a budget: its visibility and angle-width
    report."""
    # the angle first: its dE^2 overflow is named before the swept phase's
    report = angle_and_width(budget)
    results = {
        "visibility": uncertainty_visibility(budget).value,
        "swept_phase_over_two_pi": budget.swept_phase / (2.0 * math.pi),
        "phi": report.phi,
        "dphi_exact": report.dphi_exact,
        "dphi_lowest_order": report.dphi_lowest_order,
        "bound": report.bound,
        "singular": report.singular,
    }
    return results, None
