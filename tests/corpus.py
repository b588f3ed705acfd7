"""Failure inputs of the bitempo CLI, one row each.

A row is a config and what a run of it does: a base (a bundled scenario
name, or INI text), edits to it ("[section] key" set to a value, or removed
by None), the run's exit code, its whole stderr line ("" for none;
"{config}" stands for the config's path) and its stage.  The stage is
"parse" when the run ends before its command's layer function, which is
the default for a failure, and "compute" when it reaches it, as every run
that exits 0 does.  The command run is the base's.  tests/test_corpus.py
runs each row and checks it; a new failure input is one more row here.

A row's ``was`` is the test id it was collected under before it became a
row, or a tuple of ids where two tests ran the same input: test_cli.py
still collects such rows under each of those ids, and
test_corpus.py::test_row collects the others.  An input that a row cannot
state stays a test of its own in test_cli.py: one that needs a
monkeypatch, a timing bound, a current file, an --out that is a file or
reaches the config, a command other than the config's (validate is not
told the command a run invokes) or more than one validate line.
"""

import configparser
import dataclasses
import os
from importlib.resources import files

from bitempo import cli

SCENARIO_DIR = str(files("bitempo") / "scenarios")


def parse(base: str) -> configparser.ConfigParser:
    """A bundled scenario, by name, or INI text."""
    cfg = configparser.ConfigParser(interpolation=None)
    if "[" in base:
        cfg.read_string(base)
    else:
        cfg.read(os.path.join(SCENARIO_DIR, f"{base}.ini"))
    return cfg


@dataclasses.dataclass(frozen=True)
class Row:
    id: str
    base: str
    edits: dict
    code: int
    line: str
    stage: str = None
    was: str | tuple = None

    def __post_init__(self):
        if self.stage is None:
            object.__setattr__(self, "stage", "compute" if self.code == 0 else "parse")

    @property
    def old_ids(self) -> tuple:
        """The old test ids the row is collected under."""
        return (self.was,) if isinstance(self.was, str) else tuple(self.was or ())

    @property
    def command(self) -> str:
        return parse(self.base).get("scenario", "command")

    def config(self) -> configparser.ConfigParser:
        """The base with the edits applied."""
        cfg = parse(self.base)
        for name, value in self.edits.items():
            section, key = name[1:].split("] ")
            if value is None:
                cfg.remove_option(section, key)
            else:
                if not cfg.has_section(section):
                    cfg.add_section(section)
                cfg.set(section, key, value)
        return cfg


def ini(command, sections=""):
    return f"[scenario]\ncommand = {command}\n{sections}"


def first_entry(base, section, key, value):
    """A bundled list value with its first entry replaced."""
    entries = parse(base).get(section, key).split()
    return " ".join([value, *entries[1:]])


GRID = "[grid]\nt1_min = 0\nt1_max = 1\nt2_min = 0\nt2_max = 1\nn1 = 5\nn2 = 5\n"
SPACE = "x_min = -1\nx_max = 1\nnx = 5\n"
FLUCT = ini("quantum-fluct",
            "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n" + GRID)
INTEGRATE = ini("classical-integrate", "[force]\nfamily = rank_one\ndimension = 1\nc = 1 2\n"
                "g_poly = -1 0\n[initial]\nx0 = 1\nv0 = 0\n" + GRID)
DIRAC = ini("dirac", "[wave]\nk = 1 0 0\nm = 1\n" + GRID + SPACE)
CONTINUITY = ini("continuity", GRID + SPACE)
SWEEP = ini("mass-spectrum", "[sweep]\nm = 1\nomega_max = 2\n")
BUDGET = ini("uncertainty", "[budget]\nde1 = 1\nde2 = 1\ndde1 = 0\ndde2 = 0\nt1 = 3\nt2 = 3\n")
CHECK_2D = ini("classical-check", "[force]\nfamily = rank_one\ndimension = 2\nc = 1 2\n"
               "g_const = 0.5 -0.3\ng_linear = -1 0.4 0.2 0.1\n[point]\nx = 0.4 -0.2\n")
POLY_1D = ini("classical-check", "[force]\nfamily = polynomial\ndimension = 1\n"
              "f11_poly = 1 0 0\nf12_poly = 1 0 0\nf22_poly = 1 0 0\n[point]\nx = 0\n")
CAP = "more than MAX_GRID_POINTS = 10000000"


def group(prefix, was, rows, stage=None):
    """Rows first collected as the parametrized test ``was``, all in one
    stage: each row is (param, base, edits, code, line), its id
    prefix-param and its old id was[param]."""
    return [Row(f"{prefix}-{param}", *fields, stage=stage, was=f"{was}[{param}]")
            for param, *fields in rows]


ROWS = [
    # rows added with the corpus, collected by test_row: a required key
    # removed from each command's bundled scenario, and three domain checks
    *(Row(f"missing-{key}", base, {f"[{section}] {key}": None}, 3,
          f"domain error: missing required key [{section}] {key}")
      for base, section, key in (("classical_check_generic_3d", "point", "x"),
                                 ("classical_harmonic", "initial", "v0"),
                                 ("quantum_fluct_two_level", "system", "psi_real"),
                                 ("uncertainty_worked", "budget", "t2"),
                                 ("continuity_manufactured", "grid", "nx"),
                                 ("dirac_plane_wave", "wave", "m"),
                                 ("mass_spectrum_sweep", "sweep", "omega_max"))),
    Row("unknown-current-source", "continuity_manufactured", {"[current] source": "nowhere"}, 3,
        "domain error: unknown current source 'nowhere'; use builtin, builtin-sourced or "
        "file:<path>"),
    Row("non-hermitian-x0", "quantum_fluct_two_level", {"[system] x0_real": "0 1 2 0"}, 3,
        "domain error: X0 must be Hermitian to 1e-12"),
    # the [wave] parser checks the mass shell, so validate refuses this config too
    Row("off-shell-k", "dirac_plane_wave", {"[wave] k": "1 0 5"}, 3,
        "domain error: wavevector [1.0, 0.0, 5.0] violates k1^2 + k2^2 - k3^2 = m^2 for "
        "m = 1.0: residual -2.500e+01"),

    # rows collected under their old test ids in test_cli.py
    Row("unknown-command", ini("uncertainty"), {"[scenario] command": "frobnicate"}, 2,
        "config error: config {config} names unknown command 'frobnicate'; known: "
        + ", ".join(cli.COMMANDS), was="TestExitCodes::test_unknown_command_exits_2"),
    Row("missing-key", FLUCT, {"[system] e1": None, "[system] e2": None}, 3,
        "domain error: missing required key [system] e1",
        was="TestExitCodes::test_missing_key_exits_3"),
    Row("domain-error", BUDGET, {"[budget] de1": "0.1", "[budget] de2": "0.1",
                                 "[budget] t1": "0.1", "[budget] t2": "0.1"}, 3,
        "domain error: t*sqrt(dE1^2+dE2^2) = 0.02 < hbar = 1: cos(phi) would exceed 1",
        stage="compute", was="TestExitCodes::test_domain_error_exits_3"),
    Row("numerical-blowup", INTEGRATE, {"[force] c": "1 1", "[force] g_poly": "1 0 0 0",
                                        "[initial] x0": "2.0", "[initial] v0": "5.0",
                                        "[grid] t1_max": "10", "[grid] t2_max": "10"}, 4,
        "numerical failure: trajectory exceeded |x| <= 1e+06 near s=0.63",
        stage="compute", was="TestExitCodes::test_numerical_blowup_exits_4"),
    *group("bad-value", "TestExitCodes::test_bad_value_exits_3_naming_key", [
        ("g_linear", CHECK_2D, {"[force] g_linear": "-1 0.4 0.2"}, 3,
         "domain error: [force] g_linear needs 4 entries, got 3"),
        ("const", ini("classical-check", "[force]\nfamily = affine\ndimension = 1\n"
                      "linear = 1 2 2 3\nconst = 1 2 3\n[point]\nx = 0.1\n"), {}, 3,
         "domain error: [force] const needs 4 entries, got 3"),
        ("c", ini("classical-check", "[force]\nfamily = rank_one\ndimension = 1\nc = 1 abc\n"
                  "g_poly = -1 0\n[point]\nx = 0.1\n"), {}, 3,
         "domain error: bad value for [force] c: entry 2 'abc' "
         "(could not convert string to float: 'abc')"),
        ("psi_imag", FLUCT, {"[system] psi_imag": "0.5"}, 3,
         "domain error: [system] psi_imag needs 2 entries, got 1"),
        ("omega_max", SWEEP, {"[sweep] m": "1.0", "[sweep] omega_max": "nan"}, 3,
         "domain error: bad value for [sweep] omega_max: 'nan' (not finite)"),
        ("integrate_c", INTEGRATE, {"[force] c": "1 2 3"}, 3,
         "domain error: [force] c needs 2 entries, got 3"),
    ]),
    Row("bad-value-x0_imag", FLUCT, {"[system] x0_imag": "0 1 -1"}, 3,
        "domain error: [system] x0_imag needs 4 entries, got 3",
        was=("TestExitCodes::test_bad_value_exits_3_naming_key[x0_imag]",
             "TestValidate::test_wrong_size_x0_imag_rejected")),
    *group("overflow", "TestExitCodes::test_overflow_exits_4", [
        ("uncertainty_de1", BUDGET, {"[budget] de1": "1e308"}, 4,
         "numerical failure: dE^2 = dE1^2 + dE2^2 overflows: (1e+308)^2"),
        ("sweep_m", SWEEP, {"[sweep] m": "1e308"}, 4,
         "numerical failure: m^2 overflows: (1e+308)^2"),
        ("sweep_omega_max", SWEEP, {"[sweep] omega_max": "1e308"}, 4,
         "numerical failure: (hbar omega / c^2)^2 overflows: (2.5e+306)^2"),
        ("integrate_c", INTEGRATE, {"[force] c": "1e308 1e308"}, 4,
         "numerical failure: s = c1 t1 + c2 t2 overflows on the grid: c = (1e+308, 1e+308)"),
        ("uncertainty_dde", BUDGET, {"[budget] dde1": "1e308", "[budget] dde2": "1e308"}, 4,
         "numerical failure: dE1*ddE1 + dE2*ddE2 overflows: got inf"),
        ("fluct_x0", FLUCT, {"[system] x0_real": "1e308 1e308 1e308 1e308"}, 4,
         "numerical failure: the moments <X> and <X^2> overflow: largest |X0| entry 1e+308"),
        ("uncertainty_de_underflow", BUDGET,
         {"[budget] de1": "1e-200", "[budget] de2": "0", "[budget] dde1": "1",
          "[budget] t1": "1e201", "[budget] t2": "0"}, 4,
         "numerical failure: dE^2 = dE1^2 + dE2^2 underflows to 0"),
        ("uncertainty_q", BUDGET,
         {"[budget] de1": "1e100", "[budget] de2": "0", "[budget] dde1": "1",
          "[budget] t1": "1e210", "[budget] t2": "0"}, 4,
         "numerical failure: q = t*dE overflows: got inf"),
        ("fluct_phase", FLUCT, {"[grid] t2_min": "-1e308"}, 4,
         "numerical failure: the phase (E1 t1 + E2 t2) / hbar overflows: got inf"),
        ("dirac_phase", DIRAC, {"[grid] t1_min": "-1e308"}, 4,
         "numerical failure: the phase 2 k.x overflows: got inf"),
        ("sweep_boundary_m", SWEEP, {"[sweep] m": "1e150", "[sweep] c": "1e100"}, 4,
         "numerical failure: m c^2 / hbar overflows: got inf"),
        ("sweep_boundary_hbar", SWEEP, {"[sweep] hbar": "1e-300", "[sweep] c": "1e10"}, 4,
         "numerical failure: m c^2 / hbar overflows: got inf"),
        ("sweep_m_underflow", SWEEP, {"[sweep] m": "1e-170"}, 4,
         "numerical failure: m^2 underflows to 0"),
        ("sweep_c_underflow", SWEEP, {"[sweep] c": "1e-200"}, 4,
         "numerical failure: c^2 underflows to 0"),
    ], stage="compute"),
    # the mass-shell check of the [wave] parser squares m
    Row("overflow-dirac_m", DIRAC, {"[wave] m": "1e308"}, 4,
        "numerical failure: m^2 overflows: (1e+308)^2",
        was="TestExitCodes::test_overflow_exits_4[dirac_m]"),
    *group("numpy", "TestExitCodes::test_numpy_error_ends_at_the_boundary", [
        ("determinant", "classical_check_rank_one_2d", {"[force] c": "1e154 2"}, 4,
         "numerical failure: overflow encountered in det"),
        ("kernel_dot", "classical_check_rank_one_2d", {"[force] g_linear": "-1.0 1e200 0.2 -0.8"},
         4, "numerical failure: overflow encountered in dot"),
        ("affine_3d_dot", "classical_check_generic_3d",
         {"[force] linear": first_entry("classical_check_generic_3d", "force", "linear", "1e200")},
         4, "numerical failure: overflow encountered in dot"),
        ("wave_matmul", "dirac_plane_wave", {"[wave] rescale_minus": "1e154 -1"}, 4,
         "numerical failure: invalid value encountered in matmul"),
        ("continuity_square", "continuity_manufactured", {"[grid] x_max": "1e200"}, 4,
         "numerical failure: overflow encountered in square"),
        ("continuity_divide", "continuity_manufactured", {"[grid] t1_max": "1e-308"}, 4,
         "numerical failure: overflow encountered in divide"),
        ("density_matmul", "dirac_plane_wave", {"[grid] t2_max": "1e308"}, 4,
         "numerical failure: overflow encountered in matmul"),
        ("null_space_input", "classical_check_rank_one_2d",
         {"[force] g_linear": "1e308 0.4 0.2 -0.8"}, 4,
         "numerical failure: overflow encountered in divide"),
        ("orbit_masked", "classical_harmonic", {"[force] c": "1 1e-308"}, 0, ""),
    ], stage="compute"),
    # the same numpy errors raised in a section parser
    *group("numpy", "TestExitCodes::test_numpy_error_ends_at_the_boundary", [
        ("psi_norm", "quantum_fluct_two_level", {"[system] psi_real": "1e200 1"}, 4,
         "numerical failure: overflow encountered in dot"),
        ("affine_3d_parse", "classical_check_generic_3d",
         {"[force] linear": first_entry("classical_check_generic_3d", "force", "linear", "1e308")},
         4, "numerical failure: overflow encountered in add"),
        ("rank_one_parse", "classical_check_rank_one_2d", {"[force] c": "1e200 2"}, 4,
         "numerical failure: overflow encountered in multiply"),
    ]),
    *group("past-blowup", "TestExitCodes::test_initial_point_past_blowup_exits_4", [
        (x0, "classical_harmonic", {"[initial] x0": x0}, 4,
         f"numerical failure: initial point x0 = {float(x0):g} is past |x| <= 1e+06")
        for x0 in ("2e6", "1000001")
    ], stage="compute"),
    Row("on-blowup", "classical_harmonic", {"[initial] x0": "-1e6"}, 0, "",
        was="TestExitCodes::test_initial_point_on_blowup_runs"),
    *group("d1-overflow", "TestExitCodes::test_d1_overflow_exits_4_without_warnings", [
        ("prime_products", POLY_1D, {"[point] x": "1.2e154"}, 4,
         "numerical failure: products of the primes F'_jk overflow at x=1.2e+154: "
         "got max|F'_jk| = 2.4e+154"),
        ("force_tensor", POLY_1D, {"[point] x": "1e160"}, 4,
         "numerical failure: force tensor non-finite at 1e+160"),
    ], stage="compute"),
    *group("wave-overflow", "TestExitCodes::test_overflowing_wave_exits_4_without_warnings", [
        (param, DIRAC, {"[wave] rescale_plus": scale, "[wave] rescale_minus": scale}, 4,
         f"numerical failure: {quantity} overflows: got inf")
        for param, scale, quantity in (
            ("spinor_norm", "1e200 0", "the norm |psi_plus|"),
            ("current_bound", "1.2e154 0", "the current bound |a| + |b| + |c|"))
    ], stage="compute"),
    # on-shell residual -4.0e-6: inside abs_tol 1e-8 (bound 1e-4), outside the default
    Row("rescaled-wave", DIRAC, {"[wave] k": "100 0 99.99499989499375",
                                 "[wave] rescale_plus": "2 0", "[wave] rescale_minus": "0 -1",
                                 "[tolerances] abs_tol": "1e-8"}, 0, "",
        was="TestExitCodes::test_rescaled_wave_keeps_run_tolerances"),
    Row("sweep-count-over-cap", SWEEP, {"[sweep] count": "1000000000000000"}, 3,
        f"domain error: [sweep] count = 1000000000000000, {CAP}",
        was=("TestExitCodes::test_sweep_count_over_cap_exits_3",
             "TestValidate::test_sweep_count_over_cap")),
    *group("grid-cap", "TestExitCodes::test_grid_over_cap_rejected", [
        ("fluct_grid", FLUCT, {"[grid] n1": "1000000000000000"}, 3,
         f"domain error: [grid] holds {5 * 10 ** 15} points, {CAP}"),
        ("integrate_grid", INTEGRATE, {"[grid] n1": "1000000000000000"}, 3,
         f"domain error: [grid] holds {5 * 10 ** 15} points, {CAP}"),
        ("continuity_grid", CONTINUITY, {"[grid] nx": "400001"}, 3,
         f"domain error: [grid] holds 10000025 points, {CAP}"),
        ("dirac_grid", DIRAC, {"[grid] n2": "1000", "[grid] nx": "2001"}, 3,
         f"domain error: [grid] holds 10005000 points, {CAP}"),
    ]),
    *group("span", "TestExitCodes::test_grid_span_overflow_rejected", [
        ("fluct_t2", FLUCT, {"[grid] t2_min": "-1e308", "[grid] t2_max": "1e308"}, 3,
         "domain error: t2 axis span max - min overflows: got [-1e+308, 1e+308]"),
        ("continuity_x", CONTINUITY, {"[grid] x_min": "-1e308", "[grid] x_max": "1e308"}, 3,
         "domain error: x axis span max - min overflows: got [-1e+308, 1e+308]"),
    ]),
    *group("zero-step", "TestExitCodes::test_zero_axis_step_rejected", [
        (param, name, {f"[grid] {key}": value for key, value in changes.items()}, 3,
         f"domain error: {axis} axis step (max - min)/(n - 1) underflows to 0: "
         f"got [0.0, 5e-324] with {n} points")
        for param, name, changes, axis, n in (
            ("dirac_t1", "dirac_plane_wave", {"t1_max": "5e-324"}, "t1", 21),
            ("dirac_t2", "dirac_plane_wave", {"t2_max": "5e-324"}, "t2", 21),
            ("dirac_x", "dirac_plane_wave", {"x_min": "0", "x_max": "5e-324"}, "x", 13),
            ("continuity_t1", "continuity_manufactured", {"t1_max": "5e-324"}, "t1", 41),
            ("continuity_t2", "continuity_manufactured", {"t2_max": "5e-324"}, "t2", 41),
            ("continuity_x", "continuity_manufactured", {"x_min": "0", "x_max": "5e-324"}, "x",
             61),
            ("fluct_t1", "quantum_fluct_two_level", {"t1_max": "5e-324"}, "t1", 41),
            ("integrate_t2", "classical_harmonic", {"t2_max": "5e-324"}, "t2", 101),
        )
    ]),
    *group("entry-count", "TestExitCodes::test_wrong_entry_count_exits_3", [
        (param, name, {f"[{section}] {key}": value}, 3,
         f"domain error: [{section}] {key} needs {size} entries, got {len(value.split())}")
        for param, name, section, key, value, size in (
            ("c", "classical_check_rank_one_2d", "force", "c", "1 2 3", 2),
            ("integrate_c", "classical_harmonic", "force", "c", "1", 2),
            ("g_const", "classical_check_rank_one_2d", "force", "g_const", "0.5", 2),
            ("g_linear", "classical_check_rank_one_2d", "force", "g_linear", "-1 0.4 0.2", 4),
            ("linear", "classical_check_generic_3d", "force", "linear", "0.31 -0.78", 36),
            ("const", "classical_check_generic_3d", "force", "const", "1", 12),
            ("point_x", "classical_check_rank_one_2d", "point", "x", "0.4", 2),
            ("e2", "quantum_fluct_two_level", "system", "e2", "0 2 3", 2),
            ("x0_real", "quantum_fluct_two_level", "system", "x0_real", "0 1 1", 4),
            ("x0_imag", "quantum_fluct_two_level", "system", "x0_imag", "0 1 -1 0 2", 4),
            ("psi_real", "quantum_fluct_two_level", "system", "psi_real", "1 1 1", 2),
            ("psi_imag", "quantum_fluct_two_level", "system", "psi_imag", "0.5", 2),
            ("k", "dirac_plane_wave", "wave", "k", "1 0", 3),
            ("rescale_plus", "dirac_plane_wave", "wave", "rescale_plus", "1 0 0", 2),
            ("rescale_minus", "dirac_plane_wave", "wave", "rescale_minus", "", 2),
        )
    ]),
    # 52 bytes under validate; the list's 1,025 entries are not echoed
    Row("long-list-count", "quantum_fluct_two_level",
        {"[system] x0_real": " ".join(["0.125"] * 1025)}, 3,
        "domain error: [system] x0_real needs 4 entries, got 1025",
        was="TestExitCodes::test_long_list_count_message_stays_short"),
    # 97 bytes under validate
    Row("long-list-bad-entry", "quantum_fluct_two_level",
        {"[system] x0_real": " ".join(["0.125"] * 1023 + ["x"])}, 3,
        "domain error: bad value for [system] x0_real: entry 1024 'x' "
        "(could not convert string to float: 'x')",
        was="TestExitCodes::test_long_list_bad_entry_named_by_position"),
    *group("list-entry", "TestExitCodes::test_list_entry_error_names_the_entry", [
        (f"{key}-{value}-{entry}", "quantum_fluct_two_level", {f"[system] {key}": value}, 3,
         f"domain error: bad value for [system] {key}: {entry}")
        for key, value, entry in (("e1", "0 1e999", "entry 2 '1e999' (not finite)"),
                                  ("psi_real", "1,,nan", "entry 2 'nan' (not finite)"))
    ]),
    *group("output-name", "TestExitCodes::test_output_name_rejected_in_parse", [
        (f"{kind}-{name}-{key}", name, {f"[output] {key}": value}, 3,
         f"domain error: bad value for [output] {key}: {value!r} (not a file name)")
        for kind, value in (("empty", ""), ("directory", "sub/"))
        for name in sorted(f[:-4] for f in os.listdir(SCENARIO_DIR) if f.endswith(".ini"))
        for key in parse(name).options("output")
    ]),
    # the finite-difference points of grad x leave the integrated s range
    # [0, 6 pi] of the harmonic witness
    *group("fd-step", "TestExitCodes::test_fd_step_past_integrated_range_exits_3", [
        ("0.05", "classical_harmonic", {"[tolerances] fd_step": "0.05"}, 3,
         "domain error: fd_step = 0.05 puts the finite-difference points of grad x at "
         "s in [-0.439823, 19.2894]: query outside integrated range [0, 18.8496]"),
    ], stage="compute"),
    *group("tolerance-past", "TestExitCodes::test_tolerance_past_its_bound_exits_2", [
        (param, "classical_harmonic", {f"[tolerances] {key}": value}, 2,
         f"config error: [tolerances] {message}")
        for param, key, value, message in (
            ("fd_step-10", "fd_step", "10", "fd_step = 10 is not below 1"),
            ("fd_step-1", "fd_step", "1", "fd_step = 1 is not below 1"),
            ("fd_step-1e-300", "fd_step", "1e-300",
             "fd_step = 1e-300 is below the float64 eps 2.22045e-16"),
            ("fd_step-negative", "fd_step", "-1e-5",
             "fd_step = -1e-05 is below the float64 eps 2.22045e-16"),
            ("abs_tol-1e308", "abs_tol", "1e308", "abs_tol = 1e+308 is not below 1"),
            ("abs_tol-1", "abs_tol", "1", "abs_tol = 1 is not below 1"),
            ("rel_tol-1", "rel_tol", "1", "rel_tol = 1 is not below 1"),
            ("rel_tol-2.5", "rel_tol", "2.5", "rel_tol = 2.5 is not below 1"),
            ("abs_tol-0", "abs_tol", "0", "abs_tol = 0 is not above 0"),
            ("rel_tol-negative", "rel_tol", "-1", "rel_tol = -1 is not above 0"),
        )
    ]),
    *group("tolerance-inside", "TestExitCodes::test_tolerance_inside_its_bound_validates", [
        ("fd_step-2.3e-16", "classical_harmonic", {"[tolerances] fd_step": "2.3e-16"}, 0, ""),
        ("fd_step-0.5", "classical_harmonic", {"[tolerances] fd_step": "0.5"}, 3,
         "domain error: fd_step = 0.5 puts the finite-difference points of grad x at "
         "s in [-6.09469, 24.9442]: query outside integrated range [0, 18.8496]"),
        ("abs_tol-0.99", "classical_harmonic", {"[tolerances] abs_tol": "0.99"}, 0, ""),
        ("rel_tol-0.99", "classical_harmonic", {"[tolerances] rel_tol": "0.99"}, 0, ""),
    ], stage="compute"),
    Row("negative-grid-count", FLUCT, {"[grid] n1": "-5"}, 3,
        "domain error: t1 axis needs at least 3 points, got -5",
        was="TestValidate::test_negative_grid_count_named"),
    *group("rejects", "TestValidate::test_rejects_what_run_rejects", [
        ("point_x", CHECK_2D, {"[point] x": "0.4"}, 3,
         "domain error: [point] x needs 2 entries, got 1"),
        ("wave_k", DIRAC, {"[wave] k": "1 0"}, 3, "domain error: [wave] k needs 3 entries, got 2"),
        ("rescale_plus", DIRAC, {"[wave] rescale_plus": "1 0 0"}, 3,
         "domain error: [wave] rescale_plus needs 2 entries, got 3"),
        ("wave_part", DIRAC, {"[wave] part": "both"}, 3,
         "domain error: [wave] part must be 'imaginary' or 'real', got 'both'"),
        ("sweep_count", SWEEP, {"[sweep] m": "1.0", "[sweep] omega_max": "2.0",
                                "[sweep] count": "1"}, 3,
         "domain error: [sweep] count must be at least 2"),
        ("sweep_hbar", SWEEP, {"[sweep] m": "1.0", "[sweep] omega_max": "2.0",
                               "[sweep] hbar": "-1"}, 3,
         "domain error: [sweep] needs m, omega_min, omega_max >= 0 and hbar, c > 0"),
        ("system_hbar", FLUCT, {"[system] hbar": "0"}, 3,
         "domain error: [system] hbar must be positive"),
        ("budget_hbar", BUDGET, {"[budget] hbar": "abc"}, 3,
         "domain error: bad value for [budget] hbar: 'abc' "
         "(could not convert string to float: 'abc')"),
        ("psi_real", FLUCT, {"[system] psi_real": "1 1 1"}, 3,
         "domain error: [system] psi_real needs 2 entries, got 3"),
        ("e2", FLUCT, {"[system] e2": "0 2 3"}, 3,
         "domain error: [system] e2 needs 2 entries, got 3"),
    ]),
    # quantum-fluct reads no [tolerances]; validate and run agree on that
    Row("unread-section", FLUCT, {"[tolerances] fd_step": "nan"}, 0, "",
        was="TestValidate::test_unread_section_ignored"),
    # _force and _point both read [force] dimension: validate names it once
    Row("diagnostics-not-repeated", ini("classical-check", "[force]\nfamily = zero\n"
                                        "[point]\nx = 0.1\n"), {}, 3,
        "domain error: missing required key [force] dimension",
        was="TestValidate::test_diagnostics_not_repeated"),
    Row("integrate-force-family", INTEGRATE, {"[force] family": "polynomial", "[force] c": None,
                                              "[force] g_poly": None, "[force] f11_poly": "1 0"},
        3, "domain error: classical-integrate needs a rank_one force with dimension 1",
        was="TestValidate::test_integrate_force_family_checked"),
    Row("unknown-force-family", ini("classical-check", "[force]\nfamily = quartic\n"
                                    "dimension = 1\n[point]\nx = 0.0\n"), {}, 3,
        "domain error: unknown force family 'quartic'; known families: rank_one, polynomial, "
        "affine, zero",
        was="TestValidate::test_unknown_force_family_suggests"),
]
