"""The benchmark's workloads: seeded inputs, the timed call, the oracle.

Each workload turns ``(seed, check index)`` into one input, runs it through
bitempo (the only part that is timed), and checks the outputs against an
independent oracle.  The program sees only the generated INI files or force
objects.  Check ``i`` of a workload depends on ``(seed, i)`` alone, so a run
that stops after ``n`` checks always saw the same ``n`` inputs.

Failures are never filtered out.  A check that exits non-zero or disagrees
with its oracle is counted as failed, with its cause.  ``KNOWN_FAILURES``
lists the causes that are documented defects of the program (see NOTES.md);
they are reported by cause but are not operations of the result line, and
any other cause makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from bitempo import classical, cli
from tracing import reduce_spans

SIZES = ("full", "tiny")


@dataclass(slots=True)
class Outcome:
    """One check: its timed seconds, verdict and per-check trace figures.

    Slotted and without a dict for untraced checks, so that keeping tens of
    thousands of outcomes adds little to the process's peak memory."""

    seconds: float
    cause: str | None            # None when verified
    oracle_err: float | None     # worst error / tolerance; None if nothing to check
    layers: dict | None = None   # traced checks only

    @property
    def verified(self) -> bool:
        return self.cause is None


def _ini(sections: dict) -> str:
    """INI text; floats as repr(float(v)) so numpy scalars never leak in."""
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        for key, value in items.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                value = " ".join(repr(float(v)) for v in np.ravel(value))
            elif isinstance(value, (float, np.floating)):
                value = repr(float(value))
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(argv) -> tuple[int, str]:
    """``bitempo.cli.main`` in process, with stdout discarded and stderr kept."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read_table(path: str) -> np.ndarray:
    """A data file written by the CLI, as a float array (CSV or JSON)."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        return np.array(rows, dtype=float)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_results(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["comparable"]["results"]


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one per equal-width stratum, in random order."""
    return lo + (rng.permutation(n) + rng.uniform(size=n)) / n * (hi - lo)


class Workload:
    """Interface shared by the workloads."""

    name = ""
    RANGES: dict = {}
    KNOWN_FAILURES: frozenset = frozenset()
    # seeded calls the memory probe makes after the warm-up; none where the
    # warm-up is already a full-size check
    MEMORY_CHECKS = 0
    # set-up probes per run (fresh processes); setup_s is their median
    SETUP_PROBES = 7

    def __init__(self, seed: int, workdir: str, size: str = "full"):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = seed
        self.workdir = workdir

    def case(self, i: int):
        """Input of check i, generated outside the timed interval."""
        raise NotImplementedError

    def warmup_case(self):
        """A fixed mid-range input for the untimed warm-up check."""
        raise NotImplementedError

    def call(self, case, out: str):
        """The timed part: bitempo's work on one input."""
        raise NotImplementedError

    def verify(self, case, raw, out: str) -> tuple[str | None, float | None]:
        """(failure cause or None, worst error / tolerance) for one call."""
        raise NotImplementedError

    def positions(self, case) -> int:
        """Positions at which the check needs the force derivative."""
        return 0


# ---------------------------------------------------------------------------
# harmonic_surface
# ---------------------------------------------------------------------------

@dataclass
class HarmonicCase:
    omega: float
    c: tuple
    x0: float
    v0: float
    extent: float
    n: int
    ini: str


class HarmonicSurface(Workload):
    name = "harmonic_surface"
    RANGES = {"omega": [0.5, 2.0], "abs_c": [0.5, 1.5], "x0": [-1.0, 1.0],
              "v0": [-1.0, 1.0], "t_extent": [math.pi, 2.0 * math.pi],
              "opposite_sign_share": 0.25, "grid": "101x101 (tiny: 11x11)"}
    KNOWN_FAILURES = frozenset({"complex_characteristic", "query_outside_range"})
    BLOCK = 8            # draws per stratified block
    SURFACE_TOL = 1e-6   # acceptance criterion 1
    ORTHO_TOL = 1e-4
    ORBIT_TOL = 1e-6

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.n = 101 if size == "full" else 11
        self._blocks = {}

    def _block(self, b: int):
        """omega and extent are stratified within each block of draws, so a
        short run still spans their ranges; every fourth draw has c1*c2 < 0."""
        if b not in self._blocks:
            rng = np.random.default_rng([self.seed, b])
            k = self.BLOCK
            omega = _stratified(rng, k, *self.RANGES["omega"])
            extent = _stratified(rng, k, *self.RANGES["t_extent"])
            c = rng.uniform(*self.RANGES["abs_c"], size=(k, 2))
            c[3::4, 1] *= -1.0
            x0 = rng.uniform(*self.RANGES["x0"], size=k)
            v0 = rng.uniform(*self.RANGES["v0"], size=k)
            self._blocks[b] = [(omega[j], tuple(c[j]), x0[j], v0[j], extent[j])
                               for j in range(k)]
        return self._blocks[b]

    def _make(self, tag, omega, c, x0, v0, extent) -> HarmonicCase:
        text = _ini({
            "scenario": {"command": "classical-integrate"},
            "force": {"family": "rank_one", "dimension": 1, "c": c,
                      "g_poly": [-omega * omega, 0.0]},
            "initial": {"x0": x0, "v0": v0},
            "grid": {"t1_min": 0.0, "t1_max": extent, "t2_min": 0.0, "t2_max": extent,
                     "n1": self.n, "n2": self.n},
            "output": {"report": "report.json", "surface": "surface.csv"},
        })
        ini = _write(os.path.join(self.workdir, f"harmonic_{tag}.ini"), text)
        return HarmonicCase(float(omega), tuple(float(v) for v in c), float(x0),
                            float(v0), float(extent), self.n, ini)

    def case(self, i):
        params = self._block(i // self.BLOCK)[i % self.BLOCK]
        return self._make(i, *params)

    def warmup_case(self):
        return self._make("warmup", 1.25, (1.0, 1.0), 1.0, 0.0, 1.5 * math.pi)

    def call(self, case, out):
        return _cli(["classical-integrate", "--config", case.ini, "--out", out])

    def verify(self, case, raw, out):
        code, err = raw
        if code != 0:
            if code == 3 and "complex characteristics" in err:
                return "complex_characteristic", None
            if code == 3 and "query outside integrated range" in err:
                return "query_outside_range", None
            return f"exit_{code}", None
        worst = harmonic_oracle(case, _read_table(os.path.join(out, "surface.csv")),
                                _read_results(os.path.join(out, "report.json")))
        return (None if worst <= 1.0 else "oracle_mismatch"), worst

    def positions(self, case):
        return case.n * case.n


def harmonic_oracle(case: HarmonicCase, table: np.ndarray, results: dict) -> float:
    """Worst error / tolerance of a written surface against the closed form
    x0 cos(w s) + (v0/w) sin(w s), s = c1 t1 + c2 t2, and of the reported
    orthogonality and orbit residuals against acceptance criterion 1."""
    w, (c1, c2) = case.omega, case.c
    tv = np.linspace(0.0, case.extent, case.n)
    t1, t2 = np.meshgrid(tv, tv, indexing="ij")
    t1, t2 = t1.ravel(), t2.ravel()
    if table.shape != (case.n * case.n, 8):
        return math.inf
    s = c1 * t1 + c2 * t2
    x = case.x0 * np.cos(w * s) + case.v0 / w * np.sin(w * s)
    v = -case.x0 * w * np.sin(w * s) + case.v0 * np.cos(w * s)
    phi = table[:, 5]
    finite = np.isfinite(phi)
    if not finite.any():
        return math.inf
    errors = [
        np.max(np.abs(table[:, 0] - t1)) / 1e-12,
        np.max(np.abs(table[:, 1] - t2)) / 1e-12,
        np.max(np.abs(table[:, 2] - x)) / HarmonicSurface.SURFACE_TOL,
        np.max(np.abs(table[:, 3] - c1 * v)) / HarmonicSurface.SURFACE_TOL,
        np.max(np.abs(table[:, 4] - c2 * v)) / HarmonicSurface.SURFACE_TOL,
        # rank one: F'_jk = -w^2 c_j c_k, so Phi = (c1/c2)^2 wherever defined
        np.max(np.abs(phi[finite] - (c1 / c2) ** 2), initial=0.0)
        / (HarmonicSurface.ORBIT_TOL * (c1 / c2) ** 2),
        results["orthogonality_residual"] / HarmonicSurface.ORTHO_TOL,
        results["orbit_residual"] / HarmonicSurface.ORBIT_TOL,
    ]
    return float(max(errors))


# ---------------------------------------------------------------------------
# constraint_sweep
# ---------------------------------------------------------------------------

def constraint_matrix(T: np.ndarray, d: int) -> np.ndarray:
    """The velocity system built from an exact derivative tensor T[i, j, k, m],
    following the documented row and column layout of
    ``classical.build_constraint_matrix``."""
    if d == 2:
        rows = [(i, k) for i in range(2) for k in range(2)]
    else:
        rows = [(i, k) for k in range(2) for i in range(3)]
    M = np.empty((2 * d, 2 * d))
    for r, (i, k) in enumerate(rows):
        for m in range(d):
            M[r, 2 * m] = T[i, 1, k, m]
            M[r, 2 * m + 1] = -T[i, 0, k, m]
    return M


@dataclass
class ConstraintCase:
    d: int
    family: str
    force: object
    x: np.ndarray
    expected: str        # verdict value
    smax: float          # largest singular value of the exact velocity system
    det_exact: float     # numpy determinant of the exact velocity system


class ConstraintSweep(Workload):
    name = "constraint_sweep"
    KINDS = tuple((d, fam) for d in (2, 3) for fam in ("rank_one", "generic", "tuned"))
    EXPECTED = {"rank_one": "effective_one_time", "generic": "no_two_time_motion",
                "tuned": "two_time_admissible"}
    RANGES = {"d": [2, 3], "families": list(EXPECTED), "share": "equal, cycled",
              "rank_one": "c ~ U(0.5, 1.5)^2, G(p) = L p, L ~ N(0, 1)",
              "generic": "affine, linear part ~ N(0, 1)",
              "tuned": "affine N(0, 1), one entry solved for det = 0, at x = 0",
              "x": [-1.0, 1.0]}
    KNOWN_FAILURES = frozenset({"rank_one_verdict_flip"})
    MEMORY_CHECKS = 600
    # a probe here is short (about 0.2 s) and its time falls into two levels
    # on a shared host, so more of them steady the median (NOTES.md)
    SETUP_PROBES = 15
    NEAR_ZERO_TOL = 1e-10   # |det| / smax^(2d), acceptance criterion 3
    DET_TOL = 1e-8          # |det - numpy det| / smax^(2d) on generic samples
    CROSS_TOL = 1e-8        # classical.CROSS_VALIDATION_TOL
    NOISE_DEFECT = 1e-7     # parallelism defect still explained by FD noise (NOTES.md)

    def case(self, i):
        d, family = self.KINDS[i % len(self.KINDS)]
        rng = np.random.default_rng([self.seed, i])
        return self._make(d, family, rng)

    def warmup_case(self):
        return self._make(3, "tuned", np.random.default_rng(0))

    def _make(self, d, family, rng) -> ConstraintCase:
        if family == "rank_one":
            L = rng.normal(size=(d, d))
            c = rng.uniform(0.5, 1.5, size=2)
            force = classical.rank_one_force(c, lambda p, L=L: L @ p, d=d)
            T = np.einsum("j,k,im->ijkm", c, c, L)
            x = rng.uniform(-1.0, 1.0, size=d)
        elif family == "generic":
            lin = rng.normal(size=(d, 2, 2, d))
            force = classical.affine_force(d, lin)
            T = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
            x = rng.uniform(-1.0, 1.0, size=d)
        else:
            T = self._tuned_tensor(d, rng)
            force = classical.affine_force(d, T, symmetrize=False)
            x = np.zeros(d)
        M = constraint_matrix(T, d)
        return ConstraintCase(d, family, force, x, self.EXPECTED[family],
                              float(np.linalg.svd(M, compute_uv=False)[0]),
                              float(np.linalg.det(M)))

    @staticmethod
    def _tuned_tensor(d, rng) -> np.ndarray:
        """Symmetric affine tensor with one entry solved so that the velocity
        system is singular (the determinant is affine in that entry)."""
        while True:
            lin = rng.normal(size=(d, 2, 2, d))
            lin = 0.5 * (lin + lin.transpose(0, 2, 1, 3))
            idx = (1, 0, 0, 1)
            lin[idx] = 0.0
            b = np.linalg.det(constraint_matrix(lin, d))
            lin[idx] = 1.0
            a = np.linalg.det(constraint_matrix(lin, d)) - b
            if abs(a) >= 1e-9:
                lin[idx] = -b / a
                return lin

    def call(self, case, out):
        report = classical.classify(case.force, case.x)
        det = classical.admissibility_determinant(case.force, case.x)
        return report, det

    def verify(self, case, raw, out):
        report, det = raw
        rest = (report.kernel_dim, report.orthogonality_residual, report.discrepancy, det)
        worst = constraint_oracle(case, report.verdict.value, *rest)
        if worst <= 1.0:
            return None, worst
        # classify's fixed 1e-8 thresholds (parallelism defect, per-coordinate
        # kernel rank) meet FD noise on a few rank-one samples, which then come
        # out two-time admissible (directions parallel to within 1e-7) or
        # degenerate: a known defect, counted as failed but not a mismatch.
        verdict = report.verdict.value
        flip = case.family == "rank_one" and (
            verdict == "degenerate"
            or (verdict == "two_time_admissible" and report.parallelism_defect < self.NOISE_DEFECT))
        rest_err = constraint_oracle(case, case.expected, *rest)
        if flip and rest_err <= 1.0:
            return "rank_one_verdict_flip", rest_err
        return "oracle_mismatch", worst

    def positions(self, case):
        return 1


def constraint_oracle(case: ConstraintCase, verdict: str, kernel_dim: int,
                      ortho, discrepancy, det: float) -> float:
    """Worst error / tolerance of one classify + determinant result."""
    if verdict != case.expected:
        return math.inf
    if (kernel_dim == 0) != (case.family == "generic"):
        return math.inf
    # never a silent pass: a failed cross-validation must carry a discrepancy
    if ortho is not None and not ortho < ConstraintSweep.CROSS_TOL and discrepancy is None:
        return math.inf
    scale = case.smax ** (2 * case.d)
    if case.family == "generic":
        return abs(det - case.det_exact) / (ConstraintSweep.DET_TOL * scale)
    return abs(det) / (ConstraintSweep.NEAR_ZERO_TOL * scale)


# ---------------------------------------------------------------------------
# grid_moments
# ---------------------------------------------------------------------------

@dataclass
class GridCase:
    quantum: dict
    continuity: dict
    dirac: dict
    ini: dict            # command -> config path


class GridMoments(Workload):
    name = "grid_moments"
    RANGES = {"quantum": "n = 32 levels, E1, E2 ~ U(-1, 1), X0 and psi complex N(0, 1), "
                         "t1 in [0, U(1, 3)], t2 in [-U(0.5, 1.5), +same], 101x101",
              "continuity": "builtin current, t1 in [0, U(1.5, 3)], t2 in [0, U(2, 4)], "
                            "x in [-6, 6], 61x41x41 (nx x n1 x n2) plus refinement",
              "dirac": "m ~ U(0.2, 2), k1, k2 ~ U(-2, 2) on shell, branch rescales "
                       "complex N(0, 1), t in [0, 6]^2, x in [-2, 2], 13x21x21",
              "tiny": "n = 4 on 11x11, continuity 21x11x11, dirac 5x7x7"}
    MOMENT_TOL = 1e-10       # acceptance criterion 4
    REFINEMENT_MIN = 3.0     # acceptance criterion 9
    CONSERVATION_TOL = 1e-6  # acceptance criterion 10
    SIGN_TOL = 1e-10
    ORACLE_POINTS = 16

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        full = size == "full"
        self.levels = 32 if full else 4
        self.qn = 101 if full else 11
        self.cont = (61, 41, 41) if full else (21, 11, 11)
        self.dgrid = (13, 21, 21) if full else (5, 7, 7)

    def case(self, i):
        rng = np.random.default_rng([self.seed, i])
        n = self.levels
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x0 = 0.5 * (a + a.conj().T)
        t2 = rng.uniform(0.5, 1.5)
        quantum = {"e1": rng.uniform(-1, 1, n), "e2": rng.uniform(-1, 1, n), "x0": x0,
                   "psi": rng.normal(size=n) + 1j * rng.normal(size=n),
                   "t1": (0.0, rng.uniform(1.0, 3.0)), "t2": (-t2, t2)}
        continuity = {"t1_max": rng.uniform(1.5, 3.0), "t2_max": rng.uniform(2.0, 4.0)}
        m = rng.uniform(0.2, 2.0)
        while True:
            k1, k2 = rng.uniform(-2.0, 2.0, size=2)
            k3_sq = k1 * k1 + k2 * k2 - m * m
            if k3_sq > 1e-3:
                break
        dirac = {"k": [k1, k2, rng.choice([-1.0, 1.0]) * math.sqrt(k3_sq)], "m": m,
                 "plus": rng.normal(size=2), "minus": rng.normal(size=2)}
        return self._make(i, quantum, continuity, dirac)

    def warmup_case(self):
        n = self.levels
        x0 = np.ones((n, n)) + 1j * np.triu(np.ones((n, n)), 1) - 1j * np.tril(np.ones((n, n)), -1)
        quantum = {"e1": np.linspace(-1, 1, n), "e2": np.linspace(1, -1, n) ** 3, "x0": x0,
                   "psi": np.ones(n, dtype=complex), "t1": (0.0, 2.0), "t2": (-1.0, 1.0)}
        dirac = {"k": [1.0, 0.0, 0.0], "m": 1.0, "plus": (1.0, 0.0), "minus": (0.0, -1.0)}
        return self._make("warmup", quantum, {"t1_max": 2.0, "t2_max": 3.0}, dirac)

    def _make(self, tag, quantum, continuity, dirac) -> GridCase:
        q, nq = quantum, self.qn
        nx, n1, n2 = self.cont
        dx, d1, d2 = self.dgrid
        texts = {
            "quantum-fluct": {
                "scenario": {"command": "quantum-fluct"},
                "system": {"e1": q["e1"], "e2": q["e2"], "x0_real": q["x0"].real,
                           "x0_imag": q["x0"].imag, "psi_real": q["psi"].real,
                           "psi_imag": q["psi"].imag, "hbar": 1.0},
                "grid": {"t1_min": q["t1"][0], "t1_max": q["t1"][1],
                         "t2_min": q["t2"][0], "t2_max": q["t2"][1], "n1": nq, "n2": nq},
                "output": {"report": "quantum_report.json", "trace": "trace.csv"},
            },
            "continuity": {
                "scenario": {"command": "continuity"},
                "current": {"source": "builtin"},
                "grid": {"t1_min": 0.0, "t1_max": continuity["t1_max"], "t2_min": 0.0,
                         "t2_max": continuity["t2_max"], "n1": n1, "n2": n2,
                         "x_min": -6.0, "x_max": 6.0, "nx": nx},
                "output": {"report": "continuity_report.json", "charge_q1": "q1.csv"},
            },
            "dirac": {
                "scenario": {"command": "dirac"},
                "wave": {"k": dirac["k"], "m": dirac["m"], "rescale_plus": dirac["plus"],
                         "rescale_minus": dirac["minus"], "part": "imaginary"},
                "grid": {"t1_min": 0.0, "t1_max": 6.0, "t2_min": 0.0, "t2_max": 6.0,
                         "n1": d1, "n2": d2, "x_min": -2.0, "x_max": 2.0, "nx": dx},
                "output": {"report": "dirac_report.json", "current": "current.csv"},
            },
        }
        ini = {cmd: _write(os.path.join(self.workdir, f"{cmd}_{tag}.ini"), _ini(sections))
               for cmd, sections in texts.items()}
        return GridCase(quantum, continuity, dirac, ini)

    def call(self, case, out):
        return [(cmd, _cli([cmd, "--config", path, "--out", out, "--format", "json"]))
                for cmd, path in case.ini.items()]

    def verify(self, case, raw, out):
        for cmd, (code, _) in raw:
            if code != 0:
                return f"{cmd}_exit_{code}", None
        q = case.quantum
        trace = _read_table(os.path.join(out, "trace.json"))
        rng = np.random.default_rng([self.seed, 7919])
        points = rng.choice(self.qn * self.qn, size=min(self.ORACLE_POINTS, self.qn * self.qn),
                            replace=False)
        worst = max(
            quantum_oracle(q, self.qn, trace, points),
            continuity_oracle(_read_results(os.path.join(out, "continuity_report.json"))),
            dirac_oracle(_read_results(os.path.join(out, "dirac_report.json")),
                         _read_table(os.path.join(out, "current.json"))),
        )
        return (None if worst <= 1.0 else "oracle_mismatch"), worst


def quantum_oracle(q: dict, n_grid: int, trace: np.ndarray, points) -> float:
    """Worst moment error / 1e-10 against dense expm evolution at the given
    flat grid indices (rows are t1-major)."""
    from scipy.linalg import expm

    if trace.shape != (n_grid * n_grid, 6):
        return math.inf
    t1v = np.linspace(*q["t1"], n_grid)
    t2v = np.linspace(*q["t2"], n_grid)
    h1, h2 = np.diag(q["e1"]), np.diag(q["e2"])
    psi = q["psi"] / np.linalg.norm(q["psi"])
    worst = 0.0
    for p in points:
        t1, t2 = t1v[p // n_grid], t2v[p % n_grid]
        row = trace[p]
        if max(abs(row[0] - t1), abs(row[1] - t2)) > 1e-12:
            return math.inf
        pv = expm(-1j * (h1 * t1 + h2 * t2)) @ psi
        xv = q["x0"] @ pv
        mean = np.vdot(pv, xv)
        second = np.vdot(xv, xv).real
        worst = max(worst, abs(row[2] - mean.real), abs(row[3] - mean.imag),
                    abs(row[4] - second), abs(row[5] - (second - mean.real ** 2)))
    return worst / GridMoments.MOMENT_TOL


def continuity_oracle(results: dict) -> float:
    """Both refinement ratios of the charge residuals must exceed 3 (O(h^2))."""
    ratios = [results.get("refinement_ratio_Q1", 0.0), results.get("refinement_ratio_Q2", 0.0)]
    if min(ratios) <= 0.0:
        return math.inf
    return GridMoments.REFINEMENT_MIN / min(ratios)


def dirac_oracle(results: dict, current: np.ndarray) -> float:
    """Conservation residual below 1e-6, and each positivity verdict borne
    out by the sampled current: a component whose inequality holds keeps one
    sign over the written grid."""
    pos = results["positivity"]
    for holds, column in ((pos["holds_im"], 3), (pos["holds_re"], 4)):
        j = current[:, column]
        scale = max(1.0, float(np.max(np.abs(j))))
        tol = GridMoments.SIGN_TOL * scale
        if holds and not (np.min(j) >= -tol or np.max(j) <= tol):
            return math.inf
    return results["conservation_residual"] / GridMoments.CONSERVATION_TOL


WORKLOADS = {w.name: w for w in (HarmonicSurface, ConstraintSweep, GridMoments)}


# ---------------------------------------------------------------------------
# running checks
# ---------------------------------------------------------------------------

def _bytes_in(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def call_unverified(workload: Workload, case):
    """One untimed call whose outputs are discarded; a failure is ignored."""
    out = tempfile.mkdtemp(dir=workload.workdir, prefix="unverified_")
    try:
        workload.call(case, out)
    except Exception:
        pass
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_check(workload: Workload, case, tracer=None) -> Outcome:
    """Time one call, then verify it outside the timed interval."""
    out = tempfile.mkdtemp(dir=workload.workdir, prefix="out_")
    try:
        ctx = tracer if tracer is not None else contextlib.nullcontext()
        with ctx:
            started = time.perf_counter()
            try:
                raw = workload.call(case, out)
            except Exception as exc:  # a traceback is a failed check, not a crashed run
                traceback.print_exc(file=sys.stderr)
                raw = exc
            seconds = time.perf_counter() - started
        if isinstance(raw, Exception):
            cause, err = f"exception_{type(raw).__name__}", None
        else:
            cause, err = workload.verify(case, raw, out)
        layers = None
        if tracer is not None:
            layers = reduce_spans(tracer.spans, tracer.counters)
            layers["cli.bytes_written"] = _bytes_in(out)
            positions = workload.positions(case)
            calls = layers.get("classical.derivative_tensor.calls", 0)
            layers["classical.derivative_tensor.per_point"] = calls / positions if positions else 0.0
        return Outcome(seconds, cause, err, layers)
    finally:
        shutil.rmtree(out, ignore_errors=True)


_REF_MATRICES = np.random.default_rng(12345).normal(size=(40, 6, 6))
REFERENCE_SHARE = 0.05   # reference time kept at this share of the check time


def reference_pass() -> float:
    """Seconds of one pass of fixed work that does not touch bitempo.

    It mixes the kinds of work the checks do: small dense linear algebra, a
    Python float loop and float formatting.  Timed between checks, it tracks
    the speed of the host, which on a shared VM shifts by tens of percent
    within seconds and drifts between runs (NOTES.md, Steadiness)."""
    started = time.perf_counter()
    acc = 0.0
    for m in _REF_MATRICES:
        acc += np.linalg.svd(m, compute_uv=False)[0] + np.linalg.det(m)
        acc += float(np.einsum("ij,jk->ik", m, m).sum())
    parts = []
    for i in range(3000):
        acc += math.sin(i * 1e-3) * 0.5
        parts.append(repr(acc))
    ",".join(parts)
    return time.perf_counter() - started


def run_checks(workload: Workload, seconds: float, tracer=None,
               max_checks: int | None = None, first: int = 0,
               reference: list | None = None) -> tuple[list, list]:
    """Checks first, first + 1, ... until ``seconds`` of wall time (or ``max_checks``).

    Untraced, returns (outcomes, []).  With a tracer every input runs twice,
    untraced then traced, and the traced outcomes come second.  Given a
    ``reference`` list, reference passes run between checks, untimed as
    checks, until their summed seconds (appended to the list) reach
    ``REFERENCE_SHARE`` of the summed check seconds.
    """
    plain, traced = [], []
    check_s = ref_s = 0.0
    started = time.perf_counter()
    while (max_checks is None or len(plain) < max_checks) and (
            not plain or time.perf_counter() - started < seconds):
        case = workload.case(first + len(plain))
        plain.append(run_check(workload, case))
        if tracer is not None:
            traced.append(run_check(workload, case, tracer))
        if reference is not None:
            check_s += plain[-1].seconds
            while ref_s < REFERENCE_SHARE * check_s:
                reference.append(reference_pass())
                ref_s += reference[-1]
    return plain, traced
