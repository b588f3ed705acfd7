import contextlib
import io
import json
import math
import os
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def forbid_runner(monkeypatch, command):
    """Fail the test if the command's layer function is reached."""
    parsers, _, table = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command,
                        (parsers, lambda *args: pytest.fail(f"{command} ran"), table))


def output_keys():
    for name in all_scenarios():
        for key in cli.load_config(scenario_path(name)).options("output"):
            yield pytest.param(name, key, id=f"{name[:-4]}-{key}")


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

    def test_comparable_ignores_print_options(self, tmp_path):
        # the rank-one d = 2 check carries a discrepancy text of printed vectors
        path = scenario_path("classical_check_rank_one_2d.ini")
        default = cli.run_scenario(path, str(tmp_path / "a"))
        with np.printoptions(floatmode="fixed", sign="+"):
            styled = cli.run_scenario(path, str(tmp_path / "b"))
        assert "printed=[11.52, 5.76]" in default["comparable"]["results"]["discrepancy"]
        assert json.dumps(styled["comparable"], sort_keys=True) == json.dumps(
            default["comparable"], sort_keys=True)

    def test_meta_stage_timers(self, tmp_path):
        path = scenario_path("classical_harmonic.ini")
        r1 = cli.run_scenario(path, str(tmp_path / "a"))
        r2 = cli.run_scenario(path, str(tmp_path / "b"))
        for report in (r1, r2):
            stages = report["meta"]["stages"]
            assert sorted(stages) == ["compute", "parse", "write"]
            assert all(math.isfinite(s) and s >= 0 for s in stages.values())
            assert sum(stages.values()) <= report["meta"]["duration_s"]
            assert sorted(report["comparable"]) == ["artifacts", "command", "results"]
        assert json.dumps(r1["comparable"], sort_keys=True) == json.dumps(r2["comparable"],
                                                                          sort_keys=True)

    def test_harmonic_surface_matches_closed_form(self, tmp_path):
        report = cli.run_scenario(scenario_path("classical_harmonic.ini"), str(tmp_path))
        name = [a for a in report["comparable"]["artifacts"] if "surface" in a][0]
        data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        t1, t2, x = data[:, 0], data[:, 1], data[:, 2]
        np.testing.assert_allclose(x, np.cos(t1 + 2 * t2), atol=1e-6)
        results = report["comparable"]["results"]
        assert results["orthogonality_residual"] < 1e-4
        assert results["orbit_residual"] < 1e-6

    def test_harmonic_reports_rk4_counters(self, tmp_path, capsys):
        # steps 0.01 and 0.005 over s in [0, 6 pi]: 1885 + 3770 knots
        path = scenario_path("classical_harmonic.ini")
        assert cli.main(["classical-integrate", "--config", path, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "classical_harmonic_report.json") as fh:
            rk4 = json.load(fh)["comparable"]["results"]["rk4"]
        assert sorted(rk4) == ["error_estimate", "integrations", "knots", "rel_tol", "step"]
        assert (rk4["integrations"], rk4["knots"], rk4["step"]) == (2, 1885 + 3770, 0.005)
        assert 0 < rk4["error_estimate"] < rk4["rel_tol"] == 1e-9
        assert "rk4" not in json.loads(capsys.readouterr().out)

    def test_mass_spectrum_table(self, tmp_path):
        cli.run_scenario(scenario_path("mass_spectrum_sweep.ini"), str(tmp_path))
        data = np.loadtxt(tmp_path / "mass_spectrum.csv", delimiter=",", skiprows=1)
        omega, m_eff, tachyonic = data[:, 0], data[:, 1], data[:, 2]
        at_one = np.argmin(np.abs(omega - 1.0))
        assert omega[at_one] == pytest.approx(1.0)
        assert m_eff[at_one] == pytest.approx(0.0, abs=1e-12)
        assert np.all(tachyonic[omega > 1.0] == 1.0)
        assert np.all(tachyonic[omega <= 1.0] == 0.0)

    def test_massless_sweep_runs(self, tmp_path):
        # m = 0 is no underflow: every mode but omega = 0 is tachyonic
        config = write(tmp_path, "massless.ini", "[scenario]\ncommand = mass-spectrum\n"
                       "[sweep]\nm = 0\nomega_max = 2\ncount = 5\n")
        assert cli.main(["mass-spectrum", "--config", config, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            results = json.load(fh)["comparable"]["results"]
        assert (results["tachyonic_count"], results["classification_consistent"]) == (4, True)

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
    @pytest.mark.parametrize("n_rows", [0, 1, 2048, 2049, 4096, 4097, 8193])
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
            # compared line by line: a failing string comparison this long diffs slowly
            lines = fh.read().split("\n")
        assert lines == reference_table(columns, rows, fmt).split("\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [1, 2048, 2049, 4100])
    def test_repeated_values_keep_their_bits(self, tmp_path, fmt, n_rows):
        # a few distinct values fill every cell; 0.0 and -0.0 compare equal but
        # print differently, so a writer that merged equal floats would fail here
        negative_nan = np.array(0xFFF8000000000000, dtype=np.uint64).view(float)
        pool = [0.0, -0.0, math.nan, negative_nan, math.inf, -math.inf, 5e-324, 0.1, -2.5]
        rows = np.random.default_rng(n_rows).choice(pool, size=(n_rows, 6))
        rows[0] = [0.0, -0.0, math.nan, math.inf, -math.inf, -0.0]
        if n_rows > cli._BLOCK_ROWS:  # the same values on both sides of a block boundary
            rows[cli._BLOCK_ROWS - 1] = [-0.0, 0.0, -math.inf, math.nan, 0.0, math.inf]
            rows[cli._BLOCK_ROWS] = [0.0, -0.0, math.inf, -math.inf, -0.0, math.nan]
        path = str(tmp_path / f"table.{fmt}")
        cli._write_table(path, list("abcdef"), rows, fmt)
        with open(path, encoding="utf-8", newline="") as fh:
            # compared line by line: a failing string comparison this long diffs slowly
            lines = fh.read().split("\n")
        assert lines == reference_table(list("abcdef"), rows, fmt).split("\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bundled_files_equal_per_cell_17g(self, tmp_path, fmt):
        # 17 significant digits read back exactly, so re-rendering the parsed
        # floats one cell at a time must give the written file byte for byte
        tables = 0
        for name in all_scenarios():
            out = tmp_path / name
            report = cli.run_scenario(scenario_path(name), str(out), fmt)
            for artifact in report["comparable"]["artifacts"]:
                columns, rows = table_values(str(out / artifact))
                with open(out / artifact, encoding="utf-8", newline="") as fh:
                    lines = fh.read().split("\n")
                assert lines == reference_table(columns, rows, fmt).split("\n"), artifact
                tables += 1
        assert tables >= 5

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


def near_ties():
    """Doubles v whose T = |v| * 10**(16 - E), E the decimal exponent of v,
    is within 1e-14 of a half-integer but not on it, where 10**(16 - E) is
    not a double: T = m 2**k / 5**q (E = 16 + q) and T = m 5**p / 2**s
    (E = 16 - p), with the mantissa m solved from a congruence."""
    found = []
    for q in (20, 21, 22):
        mod = 5 ** q
        for k in range(q, q + 120):
            for c in ((mod + 1) // 2, (mod - 1) // 2):
                m = c * pow(2 ** (k - q), -1, mod) % mod
                m += -(-(2 ** 52 - m) // mod) * mod  # the first solution >= 2**52
                found += [math.ldexp(n, k) for n in range(m, 2 ** 53, mod)
                          if 10 ** (16 + q) <= n * 2 ** k < 10 ** (17 + q)]
    for p in (23, 24):
        for s in range(45, 53):
            mod = 2 ** s
            for c in (mod // 2 + 1, mod // 2 - 1):
                m = c * pow(5 ** p, -1, mod) % mod
                m += -(-(2 ** 52 - m) // mod) * mod
                found += [math.ldexp(n, -(s + p)) for n in range(m, 2 ** 53, mod)
                          if 10 ** 16 * mod <= n * 5 ** p < 10 ** 17 * mod]
    return found


def edge_values():
    """Zeros, NaN of both signs, infinities, the extreme doubles, 10**k with
    both neighbours over the whole double range, %g's switch points, values
    that round up into the next decade, and ties exactly half-way."""
    negative_nan = float(np.array(0xFFF8000000000000, dtype=np.uint64).view(float))
    values = [0.0, -0.0, math.nan, negative_nan, math.inf, -math.inf, 5e-324,
              2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
              1e-5, 1e-4, math.nextafter(1e-4, 0), 1e16, 1e17, math.nextafter(1e17, 0),
              2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 54 - 2, 123456789012345678.0]
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [power, math.nextafter(power, 0), math.nextafter(power, math.inf),
                   float(f"9.9999999999999999e{k}"), float(f"9.99999999999999995e{k}")]
    values += [m / 4 for m in range(2 ** 53 - 4001, 2 ** 53, 2)]  # ties T = 2.5 m, t exact
    values += [math.ldexp(m, -24) for m in range(3, 17, 2)]     # ties T = m 5**23 / 2
    values += near_ties()
    return values + [-v for v in values]


class TestFormat17:
    @staticmethod
    def check(values):
        x = np.array(values, dtype=float)
        assert [t.decode() for t in cli._format17(x)] == ["%.17g" % v for v in x.tolist()]

    def test_edge_values(self):
        self.check(edge_values())

    def test_near_ties_are_near_ties(self):
        # without the band around 1/2, test_edge_values fails on some of these
        ties = near_ties()
        assert len(ties) > 100
        for v in ties:
            scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
            assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10 ** 14)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        self.check(np.array(bits, dtype=np.uint64).view(float))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_floats(self, values):
        self.check(values)

    def test_empty(self):
        assert cli._format17(np.empty(0)) == []


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
        # a file source is integrated on its own grid only
        assert payload["grid"] == [cfg.getint("grid", k) for k in ("nx", "n1", "n2")]
        assert "grid_refined" not in payload
        assert "charge_contraction" not in payload and "source_rate_residual" not in payload

    def test_builtin_source_reports_refined_grid(self, tmp_path):
        report = cli.run_scenario(scenario_path("continuity_manufactured.ini"), str(tmp_path))
        results = report["comparable"]["results"]
        nx, n1, n2 = results["grid"]
        assert results["grid_refined"] == [2 * nx - 1, 2 * n1 - 1, 2 * n2 - 1]
        assert 0.0 <= results["charge_contraction"] < 1e-13
        assert "source_rate_residual" not in results

    def test_sourced_run_checks_the_source_rate(self, tmp_path):
        with open(scenario_path("continuity_manufactured.ini")) as fh:
            text = fh.read()
        config = write(tmp_path, "sourced.ini",
                       text.replace("source = builtin", "source = builtin-sourced"))
        results = cli.run_scenario(config, str(tmp_path))["comparable"]["results"]
        # dQ1_residual is the source itself; the exact rate leaves O(h^2)
        assert results["dQ1_residual"] > 0.4
        assert 1e-3 < results["source_rate_residual"] < 3e-3
        assert 0.0 <= results["charge_contraction"] < 1e-13
        # the refined Q1 is measured against the source rate too, so the
        # ratio shows the O(h^2) quadrature error and not the source
        assert results["dQ1_residual_refined"] < results["source_rate_residual"]
        assert results["refinement_ratio_Q1"] > 3.0


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
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         + GRID.replace("t2_min = 0", "t2_min = -1e308"),
         "the phase (E1 t1 + E2 t2) / hbar overflows"),
        ("dirac", "[wave]\nk = 1 0 0\nm = 1\n" + GRID.replace("t1_min = 0", "t1_min = -1e308")
         + "x_min = -1\nx_max = 1\nnx = 5\n", "the phase 2 k.x overflows"),
        ("mass-spectrum", "[sweep]\nm = 1e150\nc = 1e100\nomega_max = 2\n",
         "m c^2 / hbar overflows"),
        ("mass-spectrum", "[sweep]\nm = 1\nhbar = 1e-300\nc = 1e10\nomega_max = 2\n",
         "m c^2 / hbar overflows"),
        ("mass-spectrum", "[sweep]\nm = 1e-170\nomega_max = 2\n", "m^2 underflows to 0"),
        ("mass-spectrum", "[sweep]\nm = 1\nc = 1e-200\nomega_max = 2\n", "c^2 underflows to 0"),
    ], ids=["uncertainty_de1", "dirac_m", "sweep_m", "sweep_omega_max", "integrate_c",
            "uncertainty_dde", "fluct_x0", "uncertainty_de_underflow", "uncertainty_q",
            "fluct_phase", "dirac_phase", "sweep_boundary_m", "sweep_boundary_hbar",
            "sweep_m_underflow", "sweep_c_underflow"])
    def test_overflow_exits_4(self, tmp_path, capsys, command, sections, quantity):
        config = write(tmp_path, "huge.ini", f"[scenario]\ncommand = {command}\n{sections}")
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 4
        assert f"numerical failure: {quantity}" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["2e6", "1000001"])
    def test_initial_point_past_blowup_exits_4(self, tmp_path, capsys, x0):
        # 1000001 used to fall under the bound after one step and end near s = 18.8
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("initial", "x0", x0)
        config = str(tmp_path / "far.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        out = tmp_path / "out"
        assert cli.main(["classical-integrate", "--config", config, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (f"numerical failure: initial point x0 = {float(x0):g} "
                                           "is past |x| <= 1e+06\n")
        assert not out.exists() or not os.listdir(out)

    def test_initial_point_on_blowup_runs(self, tmp_path):
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("initial", "x0", "-1e6")
        config = str(tmp_path / "edge.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        assert cli.main(["classical-integrate", "--config", config, "--out", str(tmp_path)]) == 0

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

    @pytest.mark.parametrize("x, message", [
        ("1.2e154", "numerical failure: products of the primes F'_jk overflow at x=1.2e+154: "
                    "got max|F'_jk| = 2.4e+154\n"),
        ("1e160", "numerical failure: force tensor non-finite at 1e+160\n"),
    ], ids=["prime_products", "force_tensor"])
    def test_d1_overflow_exits_4_without_warnings(self, tmp_path, capsys, x, message):
        config = write(tmp_path, "huge_d1.ini", "[scenario]\ncommand = classical-check\n[force]\n"
                       "family = polynomial\ndimension = 1\nf11_poly = 1 0 0\n"
                       f"f12_poly = 1 0 0\nf22_poly = 1 0 0\n[point]\nx = {x}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["classical-check", "--config", config, "--out", str(tmp_path)]) == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("scale, quantity", [
        ("1e200 0", "the norm |psi_plus|"), ("1.2e154 0", "the current bound |a| + |b| + |c|"),
    ], ids=["spinor_norm", "current_bound"])
    def test_overflowing_wave_exits_4_without_warnings(self, tmp_path, capsys, scale, quantity):
        config = write(tmp_path, "huge_wave.ini", "[scenario]\ncommand = dirac\n[wave]\nk = 1 0 0\n"
                       f"m = 1\nrescale_plus = {scale}\nrescale_minus = {scale}\n" + GRID
                       + "x_min = -1\nx_max = 1\nnx = 5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["dirac", "--config", config, "--out", str(tmp_path)]) == 4
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"numerical failure: {quantity} overflows: got inf\n"

    def test_rescaled_wave_keeps_run_tolerances(self, tmp_path):
        # on-shell residual -4.0e-6: inside abs_tol 1e-8 (bound 1e-4), outside the default
        config = write(tmp_path, "loose.ini", "[scenario]\ncommand = dirac\n[wave]\n"
                       "k = 100 0 99.99499989499375\nm = 1\nrescale_plus = 2 0\n"
                       "rescale_minus = 0 -1\n[tolerances]\nabs_tol = 1e-8\n" + GRID
                       + "x_min = -1\nx_max = 1\nnx = 5\n")
        assert cli.main(["dirac", "--config", config, "--out", str(tmp_path)]) == 0

    def test_sweep_count_over_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # [sweep] count is capped as [grid] is, before its omega array exists
        config = write(tmp_path, "vast.ini", "[scenario]\ncommand = mass-spectrum\n[sweep]\n"
                       "m = 1\nomega_max = 2\ncount = 1000000000000000\n")
        forbid_runner(monkeypatch, "mass-spectrum")
        assert cli.main(["mass-spectrum", "--config", config, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("domain error: [sweep] count = 1000000000000000, "
                                           "more than MAX_GRID_POINTS = 10000000\n")
        assert os.listdir(tmp_path) == ["vast.ini"]

    def test_sweep_count_at_patched_cap_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        for count, code in ((5, 0), (6, 3)):
            config = write(tmp_path, f"sweep{count}.ini", "[scenario]\ncommand = mass-spectrum\n"
                           f"[sweep]\nm = 1\nomega_max = 2\ncount = {count}\n")
            assert cli.main(["mass-spectrum", "--config", config, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == ("domain error: [sweep] count = 6, more than "
                                           "MAX_GRID_POINTS = 5\n")
        with open(tmp_path / "mass_spectrum.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + 5

    @pytest.mark.parametrize("command, sections, points", [
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         + GRID.replace("n1 = 5", "n1 = 1000000000000000"), 5 * 10 ** 15),
        ("classical-integrate", "[force]\nfamily = rank_one\ndimension = 1\nc = 1 2\n"
         "g_poly = -1 0\n[initial]\nx0 = 1\nv0 = 0\n"
         + GRID.replace("n1 = 5", "n1 = 1000000000000000"), 5 * 10 ** 15),
        ("continuity", GRID + "x_min = -1\nx_max = 1\nnx = 400001\n", 10000025),
        ("dirac", "[wave]\nk = 1 0 0\nm = 1\n" + GRID.replace("n2 = 5", "n2 = 1000")
         + "x_min = -1\nx_max = 1\nnx = 2001\n", 10005000),
    ], ids=["fluct_grid", "integrate_grid", "continuity_grid", "dirac_grid"])
    def test_grid_over_cap_rejected(self, tmp_path, capsys, monkeypatch, command, sections,
                                    points):
        # the runner, which allocates the grid, is replaced: nothing is computed
        # even where a count passes the parse stage
        config = write(tmp_path, "vast.ini", f"[scenario]\ncommand = {command}\n{sections}")
        forbid_runner(monkeypatch, command)
        message = f"[grid] holds {points} points, more than MAX_GRID_POINTS = 10000000\n"
        assert cli.main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == f"invalid: {message}"
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"domain error: {message}"
        assert os.listdir(tmp_path) == ["vast.ini"]

    @pytest.mark.parametrize("source", ["builtin", "builtin-sourced"])
    def test_refined_grid_not_counted(self, tmp_path, capsys, monkeypatch, source):
        # the refined residuals of a builtin current come from its factored
        # charges, so only the parsed [grid] counts against MAX_GRID_POINTS:
        # a 129^3 [grid] (257^3 refined) validates
        grid = (GRID.replace("n1 = 5", "n1 = 129").replace("n2 = 5", "n2 = 129")
                + "x_min = -1\nx_max = 1\nnx = 129\n")
        config = write(tmp_path, "fine.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = {source}\n{grid}")
        assert cli.main(["validate", "--config", config]) == 0
        # a [grid] over the cap is still refused before the runner
        forbid_runner(monkeypatch, "continuity")
        config = write(tmp_path, "vast.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = {source}\n"
                       + grid.replace("nx = 129", "nx = 601"))
        message = "[grid] holds 10001241 points, more than MAX_GRID_POINTS = 10000000\n"
        assert cli.main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == f"invalid: {message}"
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"domain error: {message}"
        assert sorted(os.listdir(tmp_path)) == ["fine.ini", "vast.ini"]

    @pytest.mark.parametrize("source", ["builtin", "builtin-sourced"])
    def test_builtin_current_sampled_on_parsed_grid_only(self, tmp_path, monkeypatch, source):
        # a run whose refined grid alone passes the cap samples the current
        # once, on the parsed grid
        from bitempo import continuity

        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 7 * 5 * 5)
        sampled = []
        build = continuity.manufactured_current
        monkeypatch.setattr(continuity, "manufactured_current",
                            lambda grid, **kw: sampled.append(grid) or build(grid, **kw))
        config = write(tmp_path, "small.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = {source}\n{GRID}x_min = -4\nx_max = 4\nnx = 7\n")
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 0
        assert [(g.nx, g.n1, g.n2) for g in sampled] == [(7, 5, 5)]

    @pytest.mark.parametrize("command, sections, axis, ends", [
        ("quantum-fluct", "[system]\ne1 = 0 1\ne2 = 0 2\nx0_real = 0 1 1 0\npsi_real = 1 1\n"
         + GRID.replace("t2_min = 0", "t2_min = -1e308").replace("t2_max = 1", "t2_max = 1e308"),
         "t2", "[-1e+308, 1e+308]"),
        ("continuity", GRID + "x_min = -1e308\nx_max = 1e308\nnx = 5\n", "x",
         "[-1e+308, 1e+308]"),
    ], ids=["fluct_t2", "continuity_x"])
    def test_grid_span_overflow_rejected(self, tmp_path, capsys, monkeypatch, command, sections,
                                         axis, ends):
        # both ends are finite, so only the span check stops the run before
        # linspace warns about the overflowing spacing
        config = write(tmp_path, "wide.ini", f"[scenario]\ncommand = {command}\n{sections}")
        forbid_runner(monkeypatch, command)
        message = f"{axis} axis span max - min overflows: got {ends}\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["validate", "--config", config]) == 2
            assert capsys.readouterr().err == f"invalid: {message}"
            assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == 3
            assert capsys.readouterr().err == f"domain error: {message}"
        assert [str(w.message) for w in caught] == []
        assert os.listdir(tmp_path) == ["wide.ini"]

    @pytest.mark.parametrize("name, key", output_keys())
    @pytest.mark.parametrize("value", ["", "sub/"], ids=["empty", "directory"])
    def test_output_name_rejected_in_parse(self, tmp_path, capsys, monkeypatch, name, key,
                                           value):
        cfg = cli.load_config(scenario_path(name))
        cfg.set("output", key, value)
        config = str(tmp_path / name)
        with open(config, "w") as fh:
            cfg.write(fh)
        command = cfg.get("scenario", "command")
        forbid_runner(monkeypatch, command)
        message = f"bad value for [output] {key}: {value!r} (not a file name)\n"
        assert cli.main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == f"invalid: {message}"
        assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"domain error: {message}"
        assert not (tmp_path / "out").exists()

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        argv = ["uncertainty", "--config", scenario_path("uncertainty_worked.ini"),
                "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / 'uncertainty_report.json'}: ")
        assert "Traceback" not in err
        assert out.read_text() == "not a directory\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_report_under_a_file_exits_2(self, tmp_path, capsys):
        # validate cannot see the file in the way: it is there only at run time
        out = tmp_path / "out"
        out.mkdir()
        (out / "blocker").write_text("a file\n")
        cfg = cli.load_config(scenario_path("uncertainty_worked.ini"))
        cfg.set("output", "report", "blocker/report.json")
        config = str(tmp_path / "blocked.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        assert cli.main(["validate", "--config", config]) == 0
        capsys.readouterr()
        assert cli.main(["uncertainty", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / 'blocker' / 'report.json'}: ")
        assert "Traceback" not in err
        assert os.listdir(out) == ["blocker"]
        assert (out / "blocker").read_text() == "a file\n"

    @pytest.mark.parametrize("surface, report, formats", [
        ("same.json", "same.json", ("csv", "json")),
        ("./same.json", "same.json", ("csv", "json")),
        ("r.csv", "r.json", ("json",)),
    ], ids=["same", "same_normalized", "renamed_under_json"])
    def test_table_and_report_on_one_file_refused(self, tmp_path, capsys, monkeypatch, surface,
                                                   report, formats):
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("output", "surface", surface)
        cfg.set("output", "report", report)
        config = str(tmp_path / "clash.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        message = {fmt: f"[output] surface = {surface!r} and report = {report!r} name one file "
                        f"under --format {fmt}\n" for fmt in formats}
        assert cli.main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == f"invalid: {message[formats[0]]}"
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            argv = ["classical-integrate", "--config", config, "--out", str(out), "--format", fmt]
            if fmt in formats:
                with monkeypatch.context() as patch:
                    forbid_runner(patch, "classical-integrate")
                    assert cli.main(argv) == 3
                assert capsys.readouterr().err == f"domain error: {message[fmt]}"
                assert not out.exists()
            else:
                assert cli.main(argv) == 0
                assert sorted(os.listdir(out)) == sorted([report, surface])

    def test_report_over_its_own_config_refused(self, tmp_path, capsys, monkeypatch):
        cfg = cli.load_config(scenario_path("uncertainty_worked.ini"))
        cfg.set("output", "report", "u.ini")
        config = tmp_path / "u.ini"
        with open(config, "w") as fh:
            cfg.write(fh)
        text = config.read_text()
        # validate cannot know --out, so it accepts the config
        assert cli.main(["validate", "--config", str(config)]) == 0
        capsys.readouterr()
        with monkeypatch.context() as patch:
            forbid_runner(patch, "uncertainty")
            assert cli.main(["uncertainty", "--config", str(config)]) == 3
        assert capsys.readouterr().err == (f"domain error: output {config} would overwrite "
                                           f"the config {config}\n")
        assert config.read_text() == text
        assert os.listdir(tmp_path) == ["u.ini"]
        # an --out that reaches the config's directory through a link
        link = tmp_path / "link"
        link.symlink_to(tmp_path, target_is_directory=True)
        assert cli.main(["uncertainty", "--config", str(config), "--out", str(link)]) == 3
        assert capsys.readouterr().err == (f"domain error: output {link / 'u.ini'} would "
                                           f"overwrite the config {config}\n")
        assert config.read_text() == text
        out = tmp_path / "out"
        assert cli.main(["uncertainty", "--config", str(config), "--out", str(out)]) == 0
        assert os.listdir(out) == ["u.ini"]
        assert config.read_text() == text

    def test_table_over_its_file_source_refused(self, tmp_path, capsys, monkeypatch):
        cli.run_scenario(scenario_path("dirac_plane_wave.ini"), str(tmp_path))
        source = tmp_path / "dirac_current.csv"
        samples = source.read_bytes()
        cfg = cli.load_config(scenario_path("dirac_plane_wave.ini"))
        grid_lines = "\n".join(f"{k} = {v}" for k, v in cfg.items("grid"))
        config = write(tmp_path, "loop.ini", f"""
[scenario]
command = continuity

[current]
source = file:{source}

[grid]
{grid_lines}

[output]
charge_q1 = dirac_current.csv
report = loop_report.json
""")
        with monkeypatch.context() as patch:
            forbid_runner(patch, "continuity")
            assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"domain error: output {source} would overwrite "
                                           f"the current source {source}\n")
        assert source.read_bytes() == samples
        assert not (tmp_path / "loop_report.json").exists()

    @pytest.mark.parametrize("fd_step", ["0.05"])
    def test_fd_step_past_integrated_range_exits_3(self, tmp_path, capsys, fd_step):
        # the surface check's finite-difference points for grad x leave the
        # integrated s range [0, 6 pi] of the bundled harmonic witness
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("tolerances", "fd_step", fd_step)
        config = str(tmp_path / "wide_fd.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        argv = ["classical-integrate", "--config", config, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: fd_step = {fd_step} puts the finite-difference "
                              "points of grad x at s in [")
        assert err.endswith(": query outside integrated range [0, 18.8496]\n")

    @pytest.mark.parametrize("key, value, message", [
        ("fd_step", "10", "[tolerances] fd_step = 10 is not below 1"),
        ("fd_step", "1", "[tolerances] fd_step = 1 is not below 1"),
        ("fd_step", "1e-300", "[tolerances] fd_step = 1e-300 is below the float64 eps 2.22045e-16"),
        ("fd_step", "-1e-5", "[tolerances] fd_step = -1e-05 is below the float64 eps 2.22045e-16"),
        ("abs_tol", "1e308", "[tolerances] abs_tol = 1e+308 is not below 1"),
        ("abs_tol", "1", "[tolerances] abs_tol = 1 is not below 1"),
        ("rel_tol", "1", "[tolerances] rel_tol = 1 is not below 1"),
        ("rel_tol", "2.5", "[tolerances] rel_tol = 2.5 is not below 1"),
        ("abs_tol", "0", "[tolerances] abs_tol = 0 is not above 0"),
        ("rel_tol", "-1", "[tolerances] rel_tol = -1 is not above 0"),
    ], ids=["fd_step-10", "fd_step-1", "fd_step-1e-300", "fd_step-negative", "abs_tol-1e308",
            "abs_tol-1", "rel_tol-1", "rel_tol-2.5", "abs_tol-0", "rel_tol-negative"])
    def test_tolerance_past_its_bound_exits_2(self, tmp_path, capsys, key, value, message):
        # each of these switched a check of the harmonic witness off, or
        # overflowed its thresholds, and still exited 0
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("tolerances", key, value)
        config = str(tmp_path / "bound.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["validate", "--config", config]) == 2
            assert capsys.readouterr().err == f"invalid: {message}\n"
            assert cli.main(["classical-integrate", "--config", config,
                             "--out", str(tmp_path / "out")]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("fd_step", "2.3e-16"), ("fd_step", "0.5"),
                                            ("abs_tol", "0.99"), ("rel_tol", "0.99")])
    def test_tolerance_inside_its_bound_validates(self, tmp_path, key, value):
        cfg = cli.load_config(scenario_path("classical_harmonic.ini"))
        cfg.set("tolerances", key, value)
        config = str(tmp_path / "inside.ini")
        with open(config, "w") as fh:
            cfg.write(fh)
        assert cli.main(["validate", "--config", config]) == 0

    @pytest.mark.parametrize("row, where", [
        ("0,0.5,0.7,0,0,0", "(0.0, 0.5, 0.7)"),
        ("0,0.5,0,0,0,0", "(0.0, 0.5, 0.0)"),
    ], ids=["moved", "duplicated"])
    def test_current_file_off_the_grid_exits_3(self, tmp_path, capsys, row, where):
        # row 14 samples (0, 0.5, 0.5) of the 3x3x3 grid; replaced, the sorted
        # row reshaped onto that point lies elsewhere
        lines = [f"{x},{t1},{t2},0,0,0" for x in (-1, 0, 1) for t1 in (0, 0.5, 1)
                 for t2 in (0, 0.5, 1)]
        lines[13] = row
        samples = write(tmp_path, "current.csv", "x,t1,t2,j1,j2,jx\n" + "\n".join(lines) + "\n")
        config = write(tmp_path, "file.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = file:{samples}\n"
                       + GRID.replace("5", "3") + "x_min = -1\nx_max = 1\nnx = 3\n")
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"domain error: current sample row 14 of {samples} lies at (x, t1, t2) = {where}, "
            "not at the grid point (0.0, 0.5, 0.5)\n")
        assert sorted(os.listdir(tmp_path)) == ["current.csv", "file.ini"]

    def test_current_file_decimal_coordinates_accepted(self, tmp_path):
        # "0.3" is the t1 sample that linspace makes 0.30000000000000004
        lines = [f"{x},{t1},{t2},0,0,0" for x in (-1, 0, 1) for t1 in (0.1, 0.2, 0.3, 0.4, 0.5)
                 for t2 in (0, 0.5, 1)]
        samples = write(tmp_path, "current.csv", "x,t1,t2,j1,j2,jx\n" + "\n".join(lines) + "\n")
        config = write(tmp_path, "file.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = file:{samples}\n[grid]\nt1_min = 0.1\n"
                       "t1_max = 0.5\nt2_min = 0\nt2_max = 1\nn1 = 5\nn2 = 3\n"
                       "x_min = -1\nx_max = 1\nnx = 3\n")
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 0

    def test_non_numeric_current_file_exits_3(self, tmp_path, capsys):
        samples = write(tmp_path, "current.csv", "x,t1,t2,j1,j2,jx\n0,0,0,1,abc,0\n")
        config = write(tmp_path, "file.ini", "[scenario]\ncommand = continuity\n"
                       f"[current]\nsource = file:{samples}\n" + GRID
                       + "x_min = -1\nx_max = 1\nnx = 5\n")
        assert cli.main(["continuity", "--config", config, "--out", str(tmp_path)]) == 3
        assert samples in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        assert cli.main([]) == 2

    def test_repeated_calls_share_one_parser(self, tmp_path):
        # a run, a usage error and a validate in one process: each keeps its
        # exit code and writes to the streams redirected at that moment
        config = scenario_path("uncertainty_worked.ini")
        calls = [
            (["uncertainty", "--config", config, "--out", str(tmp_path)], 0,
             '"command": "uncertainty"', None),
            (["uncertainty", "--out", str(tmp_path)], 2,
             None, "the following arguments are required: --config"),
            (["validate", "--config", config], 0, "ok\n", None),
        ]
        for argv, code, out_part, err_part in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(argv) == code
            for stream, part in ((out, out_part), (err, err_part)):
                assert part in stream.getvalue() if part else stream.getvalue() == ""
        assert cli._parser() is cli._parser()

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


    def test_check_d1_large_derivative_is_exact(self, tmp_path, capsys):
        # g = 1e18 x at x = 0: the complex step's 1e18 passes the branch-cut
        # test only after the real tensor is found finite, and stays exact
        config = write(tmp_path, "steep.ini", "[scenario]\ncommand = classical-check\n[force]\n"
                       "family = rank_one\ndimension = 1\nc = 1 2\ng_poly = 1e18 0\n"
                       "[point]\nx = 0\n")
        assert cli.main(["classical-check", "--config", config, "--out", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["determinant"] == 0.0
        assert out["verdict"] == "effective_one_time"
        assert out["consistency_residual"] == 0.0
        assert "derivative" not in out


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


class TestConstantG:
    @pytest.mark.parametrize("g_poly, g0", [("", 0.0), ("0.5", 0.5)], ids=["empty", "half"])
    def test_surface_is_quadratic(self, tmp_path, g_poly, g0):
        # X'' = g0 gives X = x0 + v0 s + g0 s^2 / 2, on which RK4 is exact up to rounding
        config = write(tmp_path, "constant.ini", "[scenario]\ncommand = classical-integrate\n"
                       "[force]\nfamily = rank_one\ndimension = 1\nc = 0.8 -1.3\n"
                       f"g_poly = {g_poly}\n[initial]\nx0 = 0.4\nv0 = -0.9\n" + GRID)
        assert cli.main(["classical-integrate", "--config", config, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "surface.csv", delimiter=",", skiprows=1)
        s = 0.8 * data[:, 0] - 1.3 * data[:, 1]
        np.testing.assert_allclose(data[:, 2], 0.4 - 0.9 * s + 0.5 * g0 * s ** 2,
                                   rtol=0, atol=1e-12)


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

    def test_sweep_count_over_cap(self, tmp_path, capsys):
        # [sweep] builds its omega array at parse time, after the cap is checked
        config = write(tmp_path, "vast.ini", "[scenario]\ncommand = mass-spectrum\n[sweep]\n"
                       "m = 1\nomega_max = 2\ncount = 1000000000000000\n")
        assert cli.main(["validate", "--config", config]) == 2
        assert capsys.readouterr().err == ("invalid: [sweep] count = 1000000000000000, "
                                           "more than MAX_GRID_POINTS = 10000000\n")

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
