import json
import math
import os
import time

import numpy as np
import pytest

from bitempo import classical, cli
from bitempo.core import ConfigError

try:  # Python 3.9+: importlib.resources.files
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None

SCENARIO_DIR = str(resource_files("bitempo") / "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, name)


def all_scenarios():
    return sorted(f for f in os.listdir(SCENARIO_DIR) if f.endswith(".ini"))


GRID = "[grid]\nt1_min = 0\nt1_max = 1\nt2_min = 0\nt2_max = 1\nn1 = 5\nn2 = 5\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBundledScenarios:
    def test_every_scenario_runs_clean(self, tmp_path):
        assert len(all_scenarios()) >= 7
        for name in all_scenarios():
            cfg = cli.load_config(scenario_path(name))
            command = cfg.get("scenario", "command")
            code = cli.main([command, "--config", scenario_path(name), "--out", str(tmp_path)])
            assert code == 0, f"{name} failed"

    def test_validate_accepts_all_bundled(self):
        for name in all_scenarios():
            assert cli.validate_config(scenario_path(name)) == []

    def test_deterministic_comparable_sections(self, tmp_path):
        path = scenario_path("uncertainty_worked.ini")
        r1 = cli.run_scenario(path, str(tmp_path / "a"))
        r2 = cli.run_scenario(path, str(tmp_path / "b"))
        for key in ("scenario", "comparable"):
            assert json.dumps(r1[key], sort_keys=True) == json.dumps(r2[key], sort_keys=True)
        assert r1["meta"]["timestamp"] != "" and "duration_s" in r1["meta"]

    def test_harmonic_surface_matches_closed_form(self, tmp_path):
        report = cli.run_scenario(scenario_path("classical_harmonic.ini"), str(tmp_path))
        name = [a for a in report["comparable"]["artifacts"] if "surface" in a][0]
        data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        t1, t2, x = data[:, 0], data[:, 1], data[:, 2]
        np.testing.assert_allclose(x, np.cos(t1 + 2 * t2), atol=1e-6)
        results = report["comparable"]["results"]
        assert results["orthogonality_residual"] < 1e-4
        assert results["orbit_residual"] < 1e-6

    def test_mass_spectrum_table(self, tmp_path):
        cli.run_scenario(scenario_path("mass_spectrum_sweep.ini"), str(tmp_path))
        data = np.loadtxt(tmp_path / "mass_spectrum.csv", delimiter=",", skiprows=1)
        omega, m_eff, tachyonic = data[:, 0], data[:, 1], data[:, 2]
        at_one = np.argmin(np.abs(omega - 1.0))
        assert omega[at_one] == pytest.approx(1.0)
        assert m_eff[at_one] == pytest.approx(0.0, abs=1e-12)
        assert np.all(tachyonic[omega > 1.0] == 1.0)
        assert np.all(tachyonic[omega <= 1.0] == 0.0)

    def test_surface_floats_roundtrip(self, tmp_path):
        report = cli.run_scenario(scenario_path("quantum_fluct_two_level.ini"), str(tmp_path))
        with open(tmp_path / "quantum_fluct_trace.csv") as fh:
            header = fh.readline().split(",")
            first = fh.readline().split(",")
        assert header[0] == "t1"
        # 17 significant digits reproduce the double exactly
        val = float(first[2])
        assert f"{val:.17g}" == first[2].strip()


def reference_table(columns, rows, fmt):
    """The table text as the writer laid it out before it had one row
    template per format: CSV lines, split back into strings for JSON and
    encoded by json.dumps."""
    template = ",".join(["%.17g"] * len(columns))
    lines = [template % tuple(row) for row in np.asarray(rows, dtype=float).tolist()]
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [line.split(",") for line in lines]}
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in [",".join(columns)] + lines)


def table_values(path):
    """Column names and float rows of a data file in either format."""
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        return payload["columns"], [[float(v) for v in row] for row in payload["rows"]]
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class TestWriteTable:
    SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 1e-300, -1e300, 0.1, 5e-324]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 4097, 8193])
    def test_matches_reference_layout(self, tmp_path, fmt, n_rows):
        columns = ["t1", "t2", "mean_re", "mean_im", "second_moment", "variance",
                   "c_tau_gt_R", "x"]
        rows = np.random.default_rng(n_rows).normal(size=(n_rows, len(columns)))
        rows *= 10.0 ** np.random.default_rng(n_rows + 1).integers(-300, 300, size=rows.shape)
        for i, value in enumerate(self.SPECIALS):
            if i < n_rows:
                rows[i] = value
                rows[-1 - i, i] = value
        path = str(tmp_path / f"table.{fmt}")
        cli._write_table(path, columns, rows, fmt)
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == reference_table(columns, rows, fmt)

    def test_json_rows_equal_csv_rows_for_bundled_scenarios(self, tmp_path):
        tables = 0
        for name in all_scenarios():
            csv_report = cli.run_scenario(scenario_path(name), str(tmp_path / "csv"), "csv")
            json_report = cli.run_scenario(scenario_path(name), str(tmp_path / "json"), "json")
            csv_files = csv_report["comparable"]["artifacts"]
            json_files = json_report["comparable"]["artifacts"]
            assert [a[:-4] for a in csv_files] == [a[:-5] for a in json_files]
            for csv_name, json_name in zip(csv_files, json_files):
                csv_columns, csv_rows = table_values(str(tmp_path / "csv" / csv_name))
                json_columns, json_rows = table_values(str(tmp_path / "json" / json_name))
                assert json_columns == csv_columns
                assert np.array(json_rows).tobytes() == np.array(csv_rows).tobytes()
                tables += 1
        assert tables >= 5


class TestCurrentFileRoundTrip:
    def test_dirac_current_feeds_continuity(self, tmp_path):
        report = cli.run_scenario(scenario_path("dirac_plane_wave.ini"), str(tmp_path))
        current_file = str(tmp_path / "dirac_current.csv")
        assert os.path.exists(current_file)
        cfg = cli.load_config(scenario_path("dirac_plane_wave.ini"))
        grid_lines = "\n".join(f"{k} = {v}" for k, v in cfg.items("grid"))
        config = write(tmp_path, "from_file.ini", f"""
[scenario]
command = continuity

[current]
source = file:{current_file}

[grid]
{grid_lines}

[output]
report = from_file_report.json
""")
        code = cli.main(["continuity", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "from_file_report.json") as fh:
            payload = json.load(fh)["comparable"]["results"]
        assert "dQ1_residual" in payload


class TestExitCodes:
    def test_unknown_command_exits_2(self, tmp_path):
        config = write(tmp_path, "bad.ini", "[scenario]\ncommand = frobnicate\n")
        assert cli.main(["validate", "--config", config]) == 2
        assert cli.main(["uncertainty", "--config", config]) == 2

    def test_command_mismatch_exits_2(self):
        assert cli.main(["uncertainty", "--config",
                         scenario_path("mass_spectrum_sweep.ini")]) == 2

    def test_missing_key_exits_3(self, tmp_path):
        config = write(tmp_path, "missing.ini", """
[scenario]
command = quantum-fluct

[system]
x0_real = 0 1 1 0
psi_real = 1 1

[grid]
t1_min = 0
t1_max = 1
t2_min = 0
t2_max = 1
n1 = 5
n2 = 5
""")
        assert cli.main(["quantum-fluct", "--config", config, "--out", str(tmp_path)]) == 3

    def test_unreadable_config_exits_2(self, tmp_path):
        assert cli.main(["uncertainty", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_domain_error_exits_3(self, tmp_path):
        config = write(tmp_path, "oob.ini", """
[scenario]
command = uncertainty

[budget]
de1 = 0.1
de2 = 0.1
dde1 = 0.0
dde2 = 0.0
t1 = 0.1
t2 = 0.1
""")
        assert cli.main(["uncertainty", "--config", config, "--out", str(tmp_path)]) == 3

    def test_numerical_blowup_exits_4(self, tmp_path):
        config = write(tmp_path, "blowup.ini", """
[scenario]
command = classical-integrate

[force]
family = rank_one
dimension = 1
c = 1 1
g_poly = 1 0 0 0

[initial]
x0 = 2.0
v0 = 5.0

[grid]
t1_min = 0
t1_max = 10
t2_min = 0
t2_max = 10
n1 = 5
n2 = 5
""")
        assert cli.main(["classical-integrate", "--config", config, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command, sections, key", [
        ("classical-check", "[force]\nfamily = rank_one\ndimension = 2\nc = 1 2\n"
         "g_const = 0.5 -0.3\ng_linear = -1 0.4 0.2\n[point]\nx = 0.4 -0.2\n", "[force] g_linear"),
        ("classical-check", "[force]\nfamily = affine\ndimension = 1\nlinear = 1 2 2 3\n"
         "const = 1 2 3\n[point]\nx = 0.1\n", "[force] const"),
        ("classical-check", "[force]\nfamily = rank_one\ndimension = 1\nc = 1 abc\n"
         "g_poly = -1 0\n[point]\nx = 0.1\n", "[force] c"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\nx0_imag = 0 1 -1\n"
         "psi_real = 1 1\n" + GRID, "[system] x0_imag"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         "psi_imag = 0.5\n" + GRID, "[system] psi_imag"),
        ("mass-spectrum", "[sweep]\nm = 1.0\nomega_max = nan\n", "[sweep] omega_max"),
        ("classical-integrate", "[force]\nfamily = rank_one\ndimension = 1\nc = 1 2 3\n"
         "g_poly = -1 0\n[initial]\nx0 = 1\nv0 = 0\n" + GRID, "[force] c"),
    ], ids=["g_linear", "const", "c", "x0_imag", "psi_imag", "omega_max", "integrate_c"])
    def test_bad_value_exits_3_naming_key(self, tmp_path, capsys, command, sections, key):
        config = write(tmp_path, "bad.ini", f"[scenario]\ncommand = {command}\n{sections}")
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, sections, quantity", [
        ("uncertainty", "[budget]\nde1 = 1e308\nde2 = 1\ndde1 = 0\ndde2 = 0\nt1 = 3\nt2 = 3\n",
         "dE^2 = dE1^2 + dE2^2 overflows"),
        ("dirac", "[wave]\nk = 1 0 0\nm = 1e308\n" + GRID + "x_min = -1\nx_max = 1\nnx = 5\n",
         "m^2 overflows"),
        ("mass-spectrum", "[sweep]\nm = 1e308\nomega_max = 2\n", "m^2 overflows"),
        ("mass-spectrum", "[sweep]\nm = 1\nomega_max = 1e308\n", "(hbar omega / c^2)^2 overflows"),
        ("classical-integrate", "[force]\nfamily = rank_one\ndimension = 1\nc = 1e308 1e308\n"
         "g_poly = -1 0\n[initial]\nx0 = 1\nv0 = 0\n" + GRID, "s = c1 t1 + c2 t2 overflows"),
        ("uncertainty", "[budget]\nde1 = 1\nde2 = 1\ndde1 = 1e308\ndde2 = 1e308\nt1 = 3\nt2 = 3\n",
         "dE1*ddE1 + dE2*ddE2 overflows"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 1e308 1e308 1e308 1e308\n"
         "psi_real = 1 1\n" + GRID, "the moments <X> and <X^2> overflow"),
        ("uncertainty", "[budget]\nde1 = 1e-200\nde2 = 0\ndde1 = 1\ndde2 = 0\nt1 = 1e201\nt2 = 0\n",
         "dE^2 = dE1^2 + dE2^2 underflows to 0"),
        ("uncertainty", "[budget]\nde1 = 1e100\nde2 = 0\ndde1 = 1\ndde2 = 0\nt1 = 1e210\nt2 = 0\n",
         "q = t*dE overflows"),
    ], ids=["uncertainty_de1", "dirac_m", "sweep_m", "sweep_omega_max", "integrate_c",
            "uncertainty_dde", "fluct_x0", "uncertainty_de_underflow", "uncertainty_q"])
    def test_overflow_exits_4(self, tmp_path, capsys, command, sections, quantity):
        config = write(tmp_path, "huge.ini", f"[scenario]\ncommand = {command}\n{sections}")
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 4
        assert f"numerical failure: {quantity}" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["1e200 1e200", "1e306 1e306"])
    def test_knot_budget_exits_4_quickly(self, tmp_path, capsys, c):
        # 2e202 knots at step 0.01; a count past the float range ends the same way
        config = write(tmp_path, "far.ini", "[scenario]\ncommand = classical-integrate\n[force]\n"
                       f"family = rank_one\ndimension = 1\nc = {c}\ng_poly = -1 0\n"
                       "[initial]\nx0 = 1\nv0 = 0\n" + GRID)
        started = time.perf_counter()
        assert cli.main(["classical-integrate", "--config", config, "--out", str(tmp_path)]) == 4
        assert time.perf_counter() - started < 1.0
        err = capsys.readouterr().err
        assert "numerical failure: RK4 over s in [0, " in err
        assert "knots" in err and f"budget of {classical.RK4_KNOT_BUDGET}" in err

    def test_non_numeric_current_file_exits_3(self, tmp_path, capsys):
        samples = write(tmp_path, "current.csv", "x,t1,t2,j1,j2,jx\n0,0,0,1,abc,0\n")
        config = write(tmp_path, "file.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = file:{samples}\n" + GRID
                       + "x_min = -1\nx_max = 1\nnx = 5\n")
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 3
        assert samples in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_integrate_takes_at_most_two_derivatives(self, tmp_path, monkeypatch):
        calls = []
        original = classical.ForceTensorField.derivative_tensor

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(classical.ForceTensorField, "derivative_tensor", counted)
        assert cli.main(["classical-integrate", "--config", scenario_path("classical_harmonic.ini"),
                         "--out", str(tmp_path)]) == 0
        assert 1 <= len(calls) <= 2


    def test_check_d1_takes_one_derivative(self, tmp_path, monkeypatch):
        calls = []
        original = classical.ForceTensorField.derivative_tensor

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        config = write(tmp_path, "d1.ini", "[scenario]\ncommand = classical-check\n[force]\n"
                       "family = rank_one\ndimension = 1\nc = 1 2\ng_poly = -1 0 0\n"
                       "[point]\nx = 0.3\n")
        monkeypatch.setattr(classical.ForceTensorField, "derivative_tensor", counted)
        report = cli.run_scenario(config, str(tmp_path))
        assert len(calls) == 1
        results = report["comparable"]["results"]
        assert results["verdict"] == "effective_one_time"
        assert results["consistency_residual"] < 1e-9


class TestOppositeSignWitness:
    def test_integrates_and_checks(self, tmp_path):
        # c1 c2 < 0: x = cos(t1 - 0.7 t2), with both characteristic radicands negative
        config = write(tmp_path, "opposite.ini", """
[scenario]
command = classical-integrate

[force]
family = rank_one
dimension = 1
c = 1.0 -0.7
g_poly = -1 0

[initial]
x0 = 1.0
v0 = 0.0

[grid]
t1_min = 0.0
t1_max = 6.283185307179586
t2_min = 0.0
t2_max = 6.283185307179586
n1 = 101
n2 = 101
""")
        assert cli.main(["classical-integrate", "--config", config, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "surface.csv", delimiter=",", skiprows=1)
        t1, t2, x = data[:, 0], data[:, 1], data[:, 2]
        np.testing.assert_allclose(x, np.cos(t1 - 0.7 * t2), atol=1e-6)
        with open(tmp_path / "report.json") as fh:
            results = json.load(fh)["comparable"]["results"]
        assert results["orthogonality_residual"] < 1e-4
        assert results["orbit_residual"] < 1e-6


class TestValidate:
    def test_ok_output(self, capsys):
        assert cli.main(["validate", "--config",
                         scenario_path("uncertainty_worked.ini")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_negative_grid_count_named(self, tmp_path, capsys):
        config = write(tmp_path, "neg.ini", """
[scenario]
command = quantum-fluct

[system]
e1 = 0 1
e2 = 0 2
x0_real = 0 1 1 0
psi_real = 1 1

[grid]
t1_min = 0
t1_max = 1
t2_min = 0
t2_max = 1
n1 = -5
n2 = 5
""")
        assert cli.main(["validate", "--config", config]) == 2
        assert "at least 3 points" in capsys.readouterr().err

    def test_wrong_size_x0_imag_rejected(self, tmp_path, capsys):
        config = write(tmp_path, "imag.ini", "[scenario]\ncommand = quantum-fluct\n[system]\n"
                       "e1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\nx0_imag = 0 1 -1\n"
                       "psi_real = 1 1\n" + GRID)
        assert cli.main(["validate", "--config", config]) == 2
        assert "[system] x0_imag" in capsys.readouterr().err

    @pytest.mark.parametrize("command, sections, key", [
        ("classical-check", "[force]\nfamily = rank_one\ndimension = 2\nc = 1 2\n"
         "g_const = 0.5 -0.3\ng_linear = -1 0.4 0.2 0.1\n[point]\nx = 0.4\n", "[point] x"),
        ("dirac", "[wave]\nk = 1 0\nm = 1\n" + GRID + "x_min = -1\nx_max = 1\nnx = 5\n",
         "[wave] k"),
        ("dirac", "[wave]\nk = 1 0 0\nm = 1\nrescale_plus = 1 0 0\n" + GRID
         + "x_min = -1\nx_max = 1\nnx = 5\n", "[wave] rescale_plus"),
        ("dirac", "[wave]\nk = 1 0 0\nm = 1\npart = both\n" + GRID
         + "x_min = -1\nx_max = 1\nnx = 5\n", "[wave] part"),
        ("mass-spectrum", "[sweep]\nm = 1.0\nomega_max = 2.0\ncount = 1\n", "[sweep] count"),
        ("mass-spectrum", "[sweep]\nm = 1.0\nomega_max = 2.0\nhbar = -1\n", "[sweep]"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         "hbar = 0\n" + GRID, "[system] hbar"),
        ("uncertainty", "[budget]\nde1 = 1\nde2 = 1\ndde1 = 0\ndde2 = 0\nt1 = 3\nt2 = 3\n"
         "hbar = abc\n", "[budget] hbar"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1 1\n"
         + GRID, "[system] psi_real"),
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2 3\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         + GRID, "[system] e2"),
    ], ids=["point_x", "wave_k", "rescale_plus", "wave_part", "sweep_count", "sweep_hbar",
            "system_hbar", "budget_hbar", "psi_real", "e2"])
    def test_rejects_what_run_rejects(self, tmp_path, capsys, command, sections, key):
        config = write(tmp_path, "bad.ini", f"[scenario]\ncommand = {command}\n{sections}")
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 3
        assert key in capsys.readouterr().err
        assert cli.main(["validate", "--config", config]) == 2
        assert key in capsys.readouterr().err

    def test_bad_force_and_missing_point_both_named(self, tmp_path, capsys):
        config = write(tmp_path, "both.ini", "[scenario]\ncommand = classical-check\n"
                       "[force]\nfamily = rank_one\ndimension = 2\nc = 1 2 3\n"
                       "g_const = 0.5 -0.3\ng_linear = -1 0.4 0.2 0.1\n")
        assert cli.main(["validate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "[force] c" in err
        assert "[point]" in err

    def test_unread_section_ignored(self, tmp_path):
        # quantum-fluct reads no [tolerances]; validate and run agree on that
        config = write(tmp_path, "tol.ini", "[scenario]\ncommand = quantum-fluct\n[system]\n"
                       "e1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
                       "[tolerances]\nfd_step = nan\n" + GRID)
        assert cli.main(["validate", "--config", config]) == 0
        assert cli.main(["quantum-fluct", "--config", config, "--out", str(tmp_path)]) == 0

    def test_diagnostics_not_repeated(self, tmp_path):
        # _force and _point both read [force] dimension
        config = write(tmp_path, "dim.ini", "[scenario]\ncommand = classical-check\n"
                       "[force]\nfamily = zero\n[point]\nx = 0.1\n")
        assert cli.validate_config(config) == ["missing required key [force] dimension"]

    def test_integrate_force_family_checked(self, tmp_path, capsys):
        config = write(tmp_path, "fam.ini", "[scenario]\ncommand = classical-integrate\n[force]\n"
                       "family = polynomial\ndimension = 1\nf11_poly = 1 0\n"
                       "[initial]\nx0 = 1\nv0 = 0\n" + GRID)
        assert cli.main(["validate", "--config", config]) == 2
        assert "needs a rank_one force" in capsys.readouterr().err

    def test_unknown_force_family_suggests(self, tmp_path, capsys):
        config = write(tmp_path, "fam.ini", """
[scenario]
command = classical-check

[force]
family = quartic
dimension = 1

[point]
x = 0.0
""")
        assert cli.main(["validate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "rank_one" in err and "polynomial" in err

    def test_load_config_error_type(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(str(tmp_path / "missing.ini"))
