"""Scenario runner: every check in the package behind one command.

Scenarios are flat INI files, one scenario per file, with a [scenario]
section naming the command and further sections holding parameters.  Each
run writes a JSON report whose "scenario" and "comparable" sections are
bit-identical across repeated runs (timestamps and durations live in
"meta"), plus optional delimited data files with one-line headers and
17-significant-digit floats.

Exit codes: 0 success, 2 usage or unreadable/unrecognized config,
3 domain or precondition error (including missing parameter keys),
4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import classical, continuity, dirac, quantum
from .core import (
    BitempoError,
    ConfigError,
    DomainError,
    EvaluationError,
    Grid2T,
    TimePlanePoint,
    Tolerances,
    central_difference,  # noqa: F401 -- benchmarks/tests reads cli.central_difference
)

__all__ = ["main", "run_scenario", "validate_config", "load_config", "COMMANDS"]

FORCE_FAMILIES = ("rank_one", "polynomial", "affine", "zero")

_REQUIRED = object()

# most points a parsed grid may hold, nx included; the bundled scenarios and
# the benchmark's draws hold at most 61 x 41 x 41
MAX_GRID_POINTS = 10 ** 7


# ---------------------------------------------------------------------------
# config access
# ---------------------------------------------------------------------------

def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ConfigError(f"config {path} has no [scenario] section")
    command = parser.get("scenario", "command", fallback=None)
    if command not in COMMANDS:
        raise ConfigError(
            f"config {path} names unknown command {command!r}; known: {', '.join(COMMANDS)}")
    return parser


def _get(cfg, section: str, key: str, cast=str, default=_REQUIRED):
    if not cfg.has_option(section, key):
        if default is _REQUIRED:
            raise DomainError(f"missing required key [{section}] {key}")
        return default
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _floats(raw: str) -> list:
    return [_float(p) for p in raw.replace(",", " ").split()]


def _tolerances(cfg) -> Tolerances:
    return Tolerances(
        fd_step=_get(cfg, "tolerances", "fd_step", _float, 1e-5),
        abs_tol=_get(cfg, "tolerances", "abs_tol", _float, 1e-10),
        rel_tol=_get(cfg, "tolerances", "rel_tol", _float, 1e-9),
    )


def _grid(cfg, need_space: bool = False) -> Grid2T:
    kwargs = dict(
        t1_min=_get(cfg, "grid", "t1_min", _float),
        t1_max=_get(cfg, "grid", "t1_max", _float),
        t2_min=_get(cfg, "grid", "t2_min", _float),
        t2_max=_get(cfg, "grid", "t2_max", _float),
        n1=_get(cfg, "grid", "n1", int),
        n2=_get(cfg, "grid", "n2", int),
    )
    if need_space or cfg.has_option("grid", "nx"):
        kwargs.update(
            x_min=_get(cfg, "grid", "x_min", _float),
            x_max=_get(cfg, "grid", "x_max", _float),
            nx=_get(cfg, "grid", "nx", int),
        )
    grid = Grid2T(**kwargs)
    points = grid.n1 * grid.n2 * (grid.nx or 1)
    if points > MAX_GRID_POINTS:
        raise DomainError(f"[grid] holds {points} points, more than MAX_GRID_POINTS = "
                          f"{MAX_GRID_POINTS}")
    return grid


def _space_grid(cfg) -> Grid2T:
    return _grid(cfg, need_space=True)


def _rank_one_c(cfg) -> list:
    c = _get(cfg, "force", "c", _floats)
    if len(c) != 2:
        raise DomainError(f"[force] c needs 2 entries, got {len(c)}")
    return c


def _g_poly(cfg):
    """g from [force] g_poly as a Horner closure over Python floats; on floats
    and on arrays it rounds exactly as np.polyval does."""
    coeffs = _get(cfg, "force", "g_poly", _floats)

    def g(x):
        y = 0.0
        for a in coeffs:
            y = y * x + a
        return y
    return g


def _integrate_force(cfg):
    """(c, g) of the d = 1 rank-one force that classical-integrate needs."""
    if _get(cfg, "force", "family") != "rank_one" or _get(cfg, "force", "dimension", int) != 1:
        raise DomainError("classical-integrate needs a rank_one force with dimension 1")
    return _rank_one_c(cfg), _g_poly(cfg)


def _force(cfg) -> classical.ForceTensorField:
    family = _get(cfg, "force", "family")
    if family not in FORCE_FAMILIES:
        raise DomainError(
            f"unknown force family {family!r}; known families: {', '.join(FORCE_FAMILIES)}")
    d = _get(cfg, "force", "dimension", int)
    if family == "zero":
        return classical.zero_force(d)
    if family == "rank_one":
        c = _rank_one_c(cfg)
        if d == 1:
            return classical.rank_one_force(c, _g_poly(cfg), d=1)
        g_const = np.asarray(_get(cfg, "force", "g_const", _floats))
        g_linear = np.asarray(_get(cfg, "force", "g_linear", _floats))
        if g_const.size != d:
            raise DomainError(f"[force] g_const needs {d} entries")
        if g_linear.size != d * d:
            raise DomainError(f"[force] g_linear needs {d * d} entries, got {g_linear.size}")
        g_linear = g_linear.reshape(d, d)
        return classical.rank_one_force(c, lambda p: g_const + g_linear @ p, d=d)
    if family == "polynomial":
        if d != 1:
            raise DomainError("polynomial forces are d=1; use affine for d >= 2")
        coeffs = {}
        for key in ("11", "12", "21", "22"):
            poly = _get(cfg, "force", f"f{key}_poly", _floats, None)
            if poly is not None:
                coeffs[key] = poly
        if not coeffs:
            raise DomainError("polynomial force needs at least one fjk_poly key")
        return classical.polynomial_force_1d(coeffs)
    linear = np.asarray(_get(cfg, "force", "linear", _floats))
    if linear.size != d * 2 * 2 * d:
        raise DomainError(f"[force] linear needs {d * 4 * d} entries, got {linear.size}")
    const = _get(cfg, "force", "const", _floats, None)
    if const is not None and len(const) != d * 2 * 2:
        raise DomainError(f"[force] const needs {d * 4} entries, got {len(const)}")
    return classical.affine_force(d, linear.reshape(d, 2, 2, d), const)


def _point(cfg) -> list:
    x = _get(cfg, "point", "x", _floats)
    d = _get(cfg, "force", "dimension", int)
    if len(x) != d:
        raise DomainError(f"[point] x needs {d} coordinates, got {len(x)}")
    return x


def _initial(cfg):
    """(x0, v0) of the [initial] section."""
    return _get(cfg, "initial", "x0", _float), _get(cfg, "initial", "v0", _float)


def _budget(cfg) -> quantum.UncertaintyBudget:
    return quantum.UncertaintyBudget(
        dE1=_get(cfg, "budget", "de1", _float),
        dE2=_get(cfg, "budget", "de2", _float),
        ddE1=_get(cfg, "budget", "dde1", _float),
        ddE2=_get(cfg, "budget", "dde2", _float),
        t=TimePlanePoint(_get(cfg, "budget", "t1", _float), _get(cfg, "budget", "t2", _float)),
        hbar=_get(cfg, "budget", "hbar", _float, 1.0),
    )


def _quantum_system(cfg):
    """The size-checked quantum-fluct system, initial state and hbar."""
    e1 = _get(cfg, "system", "e1", _floats)
    e2 = _get(cfg, "system", "e2", _floats)
    n = len(e1)
    if len(e2) != n:
        raise DomainError(f"[system] e2 needs {n} entries, got {len(e2)}")
    x0 = np.asarray(_get(cfg, "system", "x0_real", _floats), dtype=complex)
    if x0.size != n * n:
        raise DomainError(f"[system] x0_real needs {n * n} entries, got {x0.size}")
    x0 = x0.reshape(n, n)
    x0_imag = _get(cfg, "system", "x0_imag", _floats, None)
    if x0_imag is not None:
        if len(x0_imag) != n * n:
            raise DomainError(f"[system] x0_imag needs {n * n} entries, got {len(x0_imag)}")
        x0 = x0 + 1j * np.reshape(x0_imag, (n, n))
    psi = np.asarray(_get(cfg, "system", "psi_real", _floats), dtype=complex)
    if psi.size != n:
        raise DomainError(f"[system] psi_real needs {n} entries, got {psi.size}")
    psi_imag = _get(cfg, "system", "psi_imag", _floats, None)
    if psi_imag is not None:
        if len(psi_imag) != psi.size:
            raise DomainError(f"[system] psi_imag needs {psi.size} entries, got {len(psi_imag)}")
        psi = psi + 1j * np.asarray(psi_imag)
    hbar = _get(cfg, "system", "hbar", _float, 1.0)
    if hbar <= 0:
        raise DomainError("[system] hbar must be positive")
    return quantum.TwoTimeQuantumSystem(e1, e2, x0), quantum.StateVector.normalized(psi), hbar


def _current_source(cfg) -> str:
    source = _get(cfg, "current", "source", str, "builtin")
    if not (source in ("builtin", "builtin-sourced") or source.startswith("file:")):
        raise DomainError(f"unknown current source {source!r}; "
                          "use builtin, builtin-sourced or file:<path>")
    return source


def _wave(cfg):
    """(k, m, part, rescales) of [wave]; rescales maps each branch named by a
    rescale_plus/rescale_minus key to its complex factor."""
    k = _get(cfg, "wave", "k", _floats)
    if len(k) != 3:
        raise DomainError(f"[wave] k needs 3 components, got {len(k)}")
    m = _get(cfg, "wave", "m", _float)
    part = _get(cfg, "wave", "part", str, "imaginary")
    if part not in ("imaginary", "real"):
        raise DomainError(f"[wave] part must be 'imaginary' or 'real', got {part!r}")
    rescales = {}
    for key, branch in (("rescale_plus", "plus"), ("rescale_minus", "minus")):
        re_im = _get(cfg, "wave", key, _floats, None)
        if re_im is not None:
            if len(re_im) != 2:
                raise DomainError(f"[wave] {key} needs 're im', got {len(re_im)} entries")
            rescales[branch] = complex(re_im[0], re_im[1])
    return k, m, part, rescales


def _sweep(cfg):
    """(m, hbar, c, omegas) of the [sweep] section."""
    m = _get(cfg, "sweep", "m", _float)
    hbar = _get(cfg, "sweep", "hbar", _float, 1.0)
    c = _get(cfg, "sweep", "c", _float, 1.0)
    omega_min = _get(cfg, "sweep", "omega_min", _float, 0.0)
    omega_max = _get(cfg, "sweep", "omega_max", _float)
    count = _get(cfg, "sweep", "count", int, 41)
    if count < 2:
        raise DomainError("[sweep] count must be at least 2")
    if min(m, omega_min, omega_max) < 0 or min(hbar, c) <= 0:
        raise DomainError("[sweep] needs m, omega_min, omega_max >= 0 and hbar, c > 0")
    return m, hbar, c, np.linspace(omega_min, omega_max, count)


def _file_name(raw: str) -> str:
    if os.path.basename(raw) in ("", ".", ".."):
        raise ValueError("not a file name")
    return raw


def _outputs(cfg) -> dict:
    """The file names the [output] section sets, by key."""
    keys = cfg.options("output") if cfg.has_section("output") else ()
    return {key: _get(cfg, "output", key, _file_name) for key in keys}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks):
    """Write an iterable of text chunks to path, replacing it only when all
    of them are written."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_BLOCK_ROWS = 2048  # rows formatted at a time, so a table's text is never all in memory

# _format17 works on 1e-270 <= |v| < 1e270 with array operations; its
# tables run over the decimal exponents E of that window, one more each side.
_E_MIN, _E_MAX = -271, 271
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
# Byte offsets in the 32-byte source row of one value: "000" and the 17
# digits, ".", "-", two NULs, then the NUL-padded exponent text ("e-270").
_ZERO, _DOT, _MINUS, _NUL, _EXP = 0, 20, 21, 22, 24
_WIDTH = 24  # longest %.17g text of a double: "-2.2250738585072014e-308"
_GATHER_ROWS = 1024  # values per byte gather, which keeps its index array small


def _pow10():
    """10**(16 - E) for E in [_E_MIN, _E_MAX] as the double-double hi + lo,
    from Python ints, with hi's Veltkamp halves.  It takes about 1 ms and is
    built at import: built during the first write, its big-int temporaries
    raised the peak memory of a run."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e <= 16:
            power = 10 ** (16 - e)
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10 ** (e - 16)
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    split = _SPLIT * hi
    head = split - (split - hi)
    return hi, head, hi - head, np.array(lo)


_POW10 = _pow10()


def _layout(form: int, digits: int) -> list:
    """Source byte offsets of one non-negative %.17g text, NUL-padded to
    _WIDTH - 1 so that a sign still fits.

    form 0..20 is %g's fixed notation for the decimal exponent form - 4;
    21 and 22 are its exponent notation with a 2- or 3-digit exponent.
    digits counts the significant digits, trailing zeros stripped."""
    sig = list(range(3, 3 + digits))
    if form >= 21:
        body = sig[:1] + ([_DOT] + sig[1:] if digits > 1 else [])
        body += list(range(_EXP, _EXP + form - 17))
    elif form <= 3:  # 0.ddd, 0.0ddd, ...
        body = [_ZERO, _DOT] + [_ZERO] * (3 - form) + sig
    else:
        point = form - 3  # digits before the decimal point
        body = list(range(3, 3 + point))
        if digits > point:
            body += [_DOT] + sig[point:]
    return body + [_NUL] * (_WIDTH - 1 - len(body))


@functools.cache
def _text_tables():
    """The %04d bytes of 0..9999 as uint32 and their trailing-zero counts
    (4 for 0), each E's exponent text and first layout row, and the layout
    rows: _layout's for each (form, digits), then the same with a leading
    "-".  Built on the first write, in about 1 ms."""
    i = np.arange(10000)
    chunks = np.empty((10000, 4), np.uint8)
    trailing = np.zeros(10000, np.intp)
    for k in range(4):
        chunks[:, 3 - k] = i // 10 ** k % 10 + 48
        trailing += i % 10 ** (k + 1) == 0
    exps = range(_E_MIN, _E_MAX + 1)
    exp_text = np.array([b"e%+03d" % e for e in exps], dtype="S8").view(np.uint64)
    form = [e + 4 if -4 <= e < 17 else 21 + (abs(e) >= 100) for e in exps]
    layouts = np.empty((23, 17, 2, _WIDTH), np.uint8)
    for f in range(23):
        for d in range(17):
            layouts[f, d, 0, :-1] = _layout(f, d + 1)
    layouts[..., 0, -1] = _NUL
    layouts[..., 1, 0] = _MINUS
    layouts[..., 1, 1:] = layouts[..., 0, :-1]
    return (chunks.view(np.uint32)[:, 0], trailing, exp_text, np.array(form) * 17 * 2,
            layouts.reshape(-1, _WIDTH))


def _digits17(x: np.ndarray):
    """(N, row of E, exact) for the float64 array x: N = round(|v| * 10**(16 - E))
    in [1e16, 1e17) and E the decimal exponent of "%.17g" % v, where exact.

    T = |v| * 10**(16 - E), with E = floor(log10|v|) corrected once, is
    Dekker's error-free product ph + t of |v| and the double-double
    10**(16 - E) (Numer. Math. 18, 1971).  N = ph + rint(t) rounds T
    half-even, as %.17g does, since ph >= 2**53 is an even integer.  t is
    exact where 10**(16 - E) is a double; elsewhere its error is below
    2**-47, so there a fraction of t within 1e-6 of 1/2 counts as a possible
    tie.  exact is false, and N is 1e16, at zeros, NaN, infinities, |v|
    outside [1e-270, 1e270), possible ties and T outside [1e16, 1e17)."""
    hi, hi_head, hi_tail, lo = _POW10
    a = np.abs(x)
    inside = (a >= 1e-270) & (a < 1e270)
    a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp) - _E_MIN  # table row of E
    ph = a * hi[e]
    e += ph >= 1e17
    e -= ph < 1e16
    low = lo[e]
    ph = a * hi[e]
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    t = ((a_head * hi_head[e] - ph) + a_head * hi_tail[e] + a_tail * hi_head[e]
         + a_tail * hi_tail[e]) + a * low
    n = ph.astype(np.int64) + np.rint(t).astype(np.int64)
    exact = inside & (ph - 1e16 + t >= 0) & (ph - 1e17 + t < 0)
    exact &= (low == 0) | (np.abs(t - np.floor(t) - 0.5) > 1e-6)
    n[~exact] = 10 ** 16
    carry = n == 10 ** 17  # T rounded up into the next decade
    n[carry] = 10 ** 16
    e += carry
    return n, e, exact


def _glyphs17(x: np.ndarray):
    """(exact, source, layout) for the float64 array x: row i of source
    holds the 32 bytes "000", the 17 digits of N from _digits17, ".", "-",
    two NULs and the exponent text of x[i], and row i of layout lists the
    source bytes of its %.17g text."""
    n, e, exact = _digits17(x)
    chunks, trailing, exp_text, form, layouts = _text_tables()
    upper, lower = np.divmod(n, 10 ** 8)
    lead, upper = np.divmod(upper, 10 ** 8)
    c1, c2 = np.divmod(upper, 10 ** 4)
    c3, c4 = np.divmod(lower, 10 ** 4)
    source = np.empty((len(x), 8), np.uint32)
    for column, chunk in enumerate((lead, c1, c2, c3, c4)):
        source[:, column] = chunks[chunk]
    source[:, 5] = int.from_bytes(b".-\0\0", "little")
    source.view(np.uint64)[:, 3] = exp_text[e]
    z4, z3, z2 = trailing[c4], trailing[c3], trailing[c2]
    zeros = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * trailing[c1]))
    layout = layouts[form[e] + 2 * (16 - zeros) + (x < 0)]  # row (form, digits - 1, sign)
    return exact, source.view(np.uint8).reshape(-1), layout


def _format17(values) -> list:
    """The ASCII bytes of "%.17g" % v for each float v of the 1-D values.

    Each text is a byte gather from its row of _glyphs17, _GATHER_ROWS
    values at a time; where _digits17 is not exact it is the scalar
    "%.17g" % v instead.  _digits17 and _glyphs17 are functions of their
    own so that their temporaries are freed before the texts are made."""
    x = np.asarray(values, dtype=float)
    exact, source, layout = _glyphs17(x)
    texts = []
    for start in range(0, len(x), _GATHER_ROWS):
        rows = layout[start:start + _GATHER_ROWS]
        rows = rows + 32 * np.arange(start, start + len(rows))[:, None]
        texts += source[rows].view(f"S{_WIDTH}")[:, 0].tolist()
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = b"%.17g" % x[i]
    return texts


def _fill(template: bytes, block: np.ndarray) -> str:
    """template % the %.17g texts of block's values in row-major order.

    Each distinct bit pattern is formatted once, by _format17, and its text
    gathered into every cell that holds it, so repeated values (grid axes,
    near-constant columns) cost one text each, and -0.0 keeps its own text.
    The texts are freed before the filled bytes are decoded, and the other
    temporaries on return, before the next block is formatted."""
    bits, inverse = np.unique(block.reshape(-1).view(np.int64), return_inverse=True)
    filled = template % tuple(
        np.array(_format17(bits.view(float)), dtype=object)[inverse].tolist())
    return filled.decode()


def _write_table(path: str, columns: list, rows, fmt: str):
    """Write rows of floats as 17-significant-digit text under a header of
    column names: CSV lines, or the JSON object {"columns": [...],
    "rows": [[...]]} with every value a string, laid out as
    json.dumps(indent=1, sort_keys=True) lays it out.  Both formats fill a
    block of rows with one % operation, their row template repeated with a
    separator, and differ only in head, row template, separator and tail."""
    values = np.asarray(rows, dtype=float)
    if fmt == "json":
        names = json.dumps(list(columns), indent=1).replace("\n", "\n ")
        head = '{\n "columns": %s,\n "rows": [' % names
        template = "  [\n" + ",\n".join(['   "%s"'] * len(columns)) + "\n  ]"
        sep, tail = ",\n", "]\n}\n"
        if len(values):  # a non-empty list opens and closes on lines of its own
            head, tail = head + "\n", "\n ]\n}\n"
    else:
        head, tail = ",".join(columns) + "\n", ""
        template, sep = ",".join(["%s"] * len(columns)) + "\n", ""

    def chunks():
        yield head
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start:start + _BLOCK_ROWS]
            if start:
                yield sep
            yield _fill(sep.join([template] * len(block)).encode(), block)
        yield tail

    _atomic_write(path, chunks())


def _grid_rows(axes, *fields) -> np.ndarray:
    """One row per grid point: the axis values, then each field's sample."""
    coords = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([np.ravel(a) for a in (*coords, *fields)])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _echo_config(cfg) -> dict:
    return {section: dict(cfg.items(section)) for section in cfg.sections()}


# ---------------------------------------------------------------------------
# command runners: each takes the values of its command's section parsers
# (see _COMMANDS) and returns (comparable_payload, data_files)
# data_files: list of (config_key, default_name, columns, rows)
# ---------------------------------------------------------------------------

def _run_classical_check(tol, force, x):
    point = x[0] if force.d == 1 else np.asarray(x)
    report = classical.classify(force, point, tol=tol)
    payload = {
        "dimension": force.d,
        "point": x,
        "verdict": report.verdict.value,
        "determinant": report.determinant_value,
        "kernel_dim": report.kernel_dim,
        "parallelism_defect": report.parallelism_defect,
        "fields": [list(map(float, v)) for v in report.fields.vectors],
        "fields_degenerate": list(report.fields.degenerate),
        "orthogonality_residual": report.orthogonality_residual,
        "discrepancy": report.discrepancy,
    }
    if force.d == 1:
        payload["consistency_residual"] = report.consistency_residual
    return payload, []


def _run_classical_integrate(tol, force, initial, grid):
    c, g = force
    x0, v0 = initial
    surface = classical.integrate_rank_one_1d(g, c, x0, v0, grid, tol=tol)
    check = classical.check_surface(classical.rank_one_force(c, g, d=1), surface, tol)
    payload = {
        "c": c,
        "x0": x0,
        "v0": v0,
        "max_abs_x": float(np.max(np.abs(surface.values))),
        "orthogonality_residual": check.orthogonality_residual,
        "orbit_residual": check.orbit_residual,
        "grid": [grid.n1, grid.n2],
    }
    rows = _grid_rows((grid.t1_values, grid.t2_values), surface.values, *surface.grid_momenta,
                      check.phi, check.ratio_squared, check.residual)
    columns = ["t1", "t2", "x", "p1", "p2", "phi", "ratio_squared", "orbit_residual"]
    return payload, [("surface", "surface.csv", columns, rows)]


def _run_quantum_fluct(setup, grid):
    system, state, hbar = setup
    n = system.n_levels
    trace = quantum.variance_trace(system, state, grid, hbar)
    rows = _grid_rows((grid.t1_values, grid.t2_values), trace.mean.real, trace.mean.imag,
                      trace.second_moment, trace.variance)
    payload = {
        "n_levels": n,
        "hbar": hbar,
        "variance_min": float(np.min(trace.variance)),
        "variance_max": float(np.max(trace.variance)),
        "mean_imag_max": float(np.max(np.abs(trace.mean.imag))),
        "tau2_dependence": quantum.tau2_dependence(system, hbar),
        "grid": [grid.n1, grid.n2],
    }
    columns = ["t1", "t2", "mean_re", "mean_im", "second_moment", "variance"]
    return payload, [("trace", "trace.csv", columns, rows)]


def _run_uncertainty(budget):
    # the angle first: its dE^2 overflow is named before the swept phase's
    report = quantum.angle_and_width(budget)
    payload = {
        "visibility": quantum.uncertainty_visibility(budget).value,
        "swept_phase_over_two_pi": budget.swept_phase / (2.0 * math.pi),
        "phi": report.phi,
        "cos_phi": math.cos(report.phi),
        "dphi_exact": report.dphi_exact,
        "dphi_lowest_order": report.dphi_lowest_order,
        "bound": report.bound,
        "singular": report.singular,
    }
    return payload, []


def _load_current_file(path: str, grid: Grid2T) -> continuity.CurrentField:
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
    return continuity.CurrentField(
        grid=grid,
        j1=data[:, 3].reshape(shape),
        j2=data[:, 4].reshape(shape),
        j_space=data[:, 5].reshape(shape),
    )


def _run_continuity(tol, grid, source):
    if source.startswith("file:"):
        current = _load_current_file(source[5:], grid)
    else:
        current, _ = continuity.manufactured_current(
            grid, with_source=source == "builtin-sourced")
    report = continuity.charges(current, tol=tol)
    payload = {
        "source": source,
        "dQ1_residual": report.dQ1_residual,
        "dQ2_residual": report.dQ2_residual,
        "alpha": report.alpha,
        "beta": report.beta,
        "boundary_warnings": list(report.boundary_warnings),
        "grid": [grid.nx, grid.n1, grid.n2],
    }
    if source.startswith("builtin"):
        fine, _ = continuity.manufactured_current(
            grid.refined(), with_source=source == "builtin-sourced")
        fine_report = continuity.charges(fine, tol=tol)
        payload["dQ1_residual_refined"] = fine_report.dQ1_residual
        payload["dQ2_residual_refined"] = fine_report.dQ2_residual
        if fine_report.dQ1_residual > 0:
            payload["refinement_ratio_Q1"] = report.dQ1_residual / fine_report.dQ1_residual
        if fine_report.dQ2_residual > 0:
            payload["refinement_ratio_Q2"] = report.dQ2_residual / fine_report.dQ2_residual
    rows = _grid_rows((grid.t1_values,), report.Q1)
    return payload, [("charge_q1", "charge_q1.csv", ["t1", "Q1"], rows)]


def _run_dirac(tol, wave, grid):
    k, m, part, rescales = wave
    sol = dirac.solve_plane_wave(k, m, tol)
    for branch, factor in rescales.items():
        sol = sol.rescaled(**{branch: factor})
    pos_report = dirac.positivity_check(sol, grid, tol)
    density = dirac.dirac_density_separability(sol, grid, part=part, tol=tol)
    gset = dirac.gamma_set()
    payload = {
        "k": k,
        "m": m,
        "part": part,
        "on_shell_residual": float(k[0] ** 2 + k[1] ** 2 - k[2] ** 2 - m ** 2),
        "clifford_defect": gset.clifford_defect(),
        "psi_plus": [[sol.psi_plus[i].real, sol.psi_plus[i].imag] for i in range(2)],
        "psi_minus": [[sol.psi_minus[i].real, sol.psi_minus[i].imag] for i in range(2)],
        "conservation_residual": dirac.conservation_residual(sol, part, tol),
        "positivity": {
            "lhs_im": pos_report.lhs_im, "rhs_im": pos_report.rhs_im,
            "lhs_re": pos_report.lhs_re, "rhs_re": pos_report.rhs_re,
            "holds_im": bool(pos_report.holds[0]), "holds_re": bool(pos_report.holds[1]),
            "min_j1": pos_report.min_j1, "min_j2": pos_report.min_j2,
        },
        "density_separability_residual": density.separability.residual,
        "total_charge_fit_residual": density.total_fit.residual,
        "charge_boundary_warnings": len(density.charge_report.boundary_warnings),
        "hermiticity_defect_origin": dirac.hermiticity_defect([(0.0, 0.0)], m),
        "hermiticity_defect_wave": dirac.hermiticity_defect([(k[1], k[2])], m),
        "hermiticity_defect_generic": dirac.hermiticity_defect(m=m),
    }
    rows = _grid_rows((grid.x_values, grid.t1_values, grid.t2_values),
                      *dirac.current_grid(sol, grid, part))
    columns = ["x", "t1", "t2", "j1", "j2", "jx"]
    return payload, [("current", "current.csv", columns, rows)]


def _run_mass_spectrum(sweep):
    m, hbar, c, omegas = sweep
    rows = []
    consistent = True
    tachyon_count = 0
    for omega in omegas:
        mode = dirac.effective_mode_mass(m, float(omega), hbar, c)
        consistent = consistent and mode.classification_consistent
        tachyon_count += int(mode.tachyonic)
        rows.append((
            omega,
            mode.m_eff if not mode.tachyonic else float("nan"),
            float(mode.tachyonic),
            mode.tau if math.isfinite(mode.tau) else float("inf"),
            mode.R if math.isfinite(mode.R) else float("inf"),
            float(mode.c_tau_gt_R) if mode.c_tau_gt_R is not None else float("nan"),
        ))
    payload = {
        "m": m,
        "hbar": hbar,
        "c": c,
        "boundary_omega": m * c ** 2 / hbar,
        "tachyonic_count": tachyon_count,
        "classification_consistent": consistent,
        "count": len(omegas),
    }
    columns = ["omega", "m_eff", "tachyonic", "tau", "R", "c_tau_gt_R"]
    return payload, [("table", "mass_spectrum.csv", columns, rows)]


# command -> (section parsers, runner).  A run calls the parsers in order and
# passes their values to the runner; validate calls the same parsers.  Both
# also parse the [output] names with _outputs.
_COMMANDS = {
    "classical-check": ((_tolerances, _force, _point), _run_classical_check),
    "classical-integrate": ((_tolerances, _integrate_force, _initial, _grid),
                            _run_classical_integrate),
    "quantum-fluct": ((_quantum_system, _grid), _run_quantum_fluct),
    "uncertainty": ((_budget,), _run_uncertainty),
    "continuity": ((_tolerances, _space_grid, _current_source), _run_continuity),
    "dirac": ((_tolerances, _wave, _space_grid), _run_dirac),
    "mass-spectrum": ((_sweep,), _run_mass_spectrum),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# run / validate
# ---------------------------------------------------------------------------

def run_scenario(config_path: str, out_dir: str | None = None, fmt: str = "csv",
                 expected_command: str | None = None) -> dict:
    """Execute one scenario file and write its report and data files.

    Returns the full report dictionary; the "scenario" and "comparable"
    sections are deterministic for a fixed config.  "meta" holds the wall
    time of the run and of its stages: parse (reading the config and its
    section parsers), compute (the command's runner) and write (the data
    files).
    """
    started = time.perf_counter()
    cfg = load_config(config_path)
    command = cfg.get("scenario", "command")
    if expected_command is not None and command != expected_command:
        raise ConfigError(
            f"config names command {command!r} but {expected_command!r} was invoked")
    parsers, runner = _COMMANDS[command]
    parsed_args = [parse(cfg) for parse in parsers]
    names = _outputs(cfg)
    parsed = time.perf_counter()
    payload, tables = runner(*parsed_args)
    computed = time.perf_counter()

    directory = out_dir or os.path.dirname(os.path.abspath(config_path))
    artifacts = []
    for key, default_name, columns, rows in tables:
        name = names.get(key, default_name)
        if fmt == "json" and name.endswith(".csv"):
            name = name[:-4] + ".json"
        path = os.path.join(directory, name)
        _write_table(path, columns, rows, fmt)
        artifacts.append(name)
    written = time.perf_counter()

    report_name = names.get("report", "report.json")
    report_path = os.path.join(directory, report_name)
    report = {
        "scenario": _echo_config(cfg),
        "comparable": _jsonable({"command": command, "results": payload,
                                 "artifacts": sorted(artifacts)}),
        "meta": {
            "duration_s": time.perf_counter() - started,
            "stages": {"parse": parsed - started, "compute": computed - parsed,
                       "write": written - computed},
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "report_file": report_name,
        },
    }
    _atomic_write(report_path, (json.dumps(report, indent=1, sort_keys=True), "\n"))
    return report


def validate_config(config_path: str) -> list:
    """Diagnostics of a run's parse stage: every section parser of the
    config's command runs, and each distinct failure is one line."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        return [str(exc)]
    parsers, _ = _COMMANDS[cfg.get("scenario", "command")]
    diagnostics = []
    for parse in (*parsers, _outputs):
        try:
            parse(cfg)
        except (DomainError, ConfigError) as exc:
            diagnostics.append(str(exc))
        except BitempoError as exc:
            diagnostics.append(f"unexpected: {exc}")
        except MemoryError as exc:
            diagnostics.append(f"cannot allocate: {exc}")
    return list(dict.fromkeys(diagnostics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitempo",
        description="Scenario runner for two-time dynamics checks.")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="csv")
    pv = sub.add_parser("validate", help="check a scenario file without running it")
    pv.add_argument("--config", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "validate":
            diagnostics = validate_config(args.config)
            if diagnostics:
                for line in diagnostics:
                    print(f"invalid: {line}", file=sys.stderr)
                return 2
            print("ok")
            return 0
        report = run_scenario(args.config, args.out, args.format,
                              expected_command=args.command)
        results = report["comparable"]["results"]
        summary = {k: v for k, v in results.items() if not isinstance(v, (list, dict))}
        print(json.dumps({"command": args.command, **summary}, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except BitempoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"numerical failure: cannot allocate: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
