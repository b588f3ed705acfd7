"""Scenario runner: every check in the package behind one command.

Scenarios are flat INI files, one scenario per file, with a [scenario]
section naming the command and further sections holding parameters.  This
module parses them, makes one call to the command's function in its layer
(see _COMMANDS) and writes what that returns.  Each run writes a JSON report
whose "scenario" and "comparable" sections are bit-identical across repeated
runs (timestamps and durations live in "meta"), plus optional delimited data
files with one-line headers and 17-significant-digit floats.

Exit codes: 0 success, 2 usage, unreadable/unrecognized config or an
output file that cannot be written, 3 domain or precondition error
(including missing parameter keys, and an output file that would overwrite
the config or a file: current source), 4 numerical failure (including any
numpy overflow, invalid value or division by zero in parse or compute).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import importlib
import json
import math
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from .core import (
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

FORMATS = ("csv", "json")

_REQUIRED = object()

# most points the parsed [grid] of a run may hold, nx included, and most
# [sweep] rows; the bundled scenarios and the benchmark's draws hold at most 61 x 41 x 41
MAX_GRID_POINTS = 10 ** 7

# numpy's floating-point errors during parse and compute raise
# FloatingPointError, an ArithmeticError, instead of warning; underflow stays
# ignored, since a harmless one precedes the named overflows of some inputs
_RAISE = dict(over="raise", invalid="raise", divide="raise")


# ---------------------------------------------------------------------------
# config access
# ---------------------------------------------------------------------------

def _layer(name: str):
    """The layer module name of this package, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


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


def _get(cfg, section: str, key: str, cast=str, default=_REQUIRED, *, size=None):
    """The value of [section] key by cast, or default when the key is absent.
    With size it is a list of size finite floats.  A list's errors never
    echo the value: a bad entry is named with its position, a wrong count
    by the count, so that a long list stays a one-line diagnostic."""
    if not cfg.has_option(section, key):
        if default is _REQUIRED:
            raise DomainError(f"missing required key [{section}] {key}")
        return default
    raw = cfg.get(section, key)
    if size is not None:
        cast = _floats
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        what = exc if cast is _floats else f"{raw!r} ({exc})"
        raise DomainError(f"bad value for [{section}] {key}: {what}") from exc
    if size is not None and len(value) != size:
        raise DomainError(f"[{section}] {key} needs {size} entries, got {len(value)}")
    return value


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _floats(raw: str) -> list:
    """The finite floats of a space- or comma-separated list; a bad entry
    raises ValueError naming its 1-based position, not the whole list."""
    values = []
    for k, part in enumerate(raw.replace(",", " ").split(), 1):
        try:
            values.append(_float(part))
        except ValueError as exc:
            raise ValueError(f"entry {k} {part!r} ({exc})") from None
    return values


def _tolerances(cfg) -> Tolerances:
    values = {f.name: _get(cfg, "tolerances", f.name, _float, f.default)
              for f in dataclasses.fields(Tolerances)}
    try:
        return Tolerances(**values)
    except DomainError as exc:
        raise ConfigError(f"[tolerances] {exc}") from None


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


def _g_poly(cfg):
    """g from [force] g_poly as a Horner closure over Python floats; on floats
    and on arrays it rounds exactly as np.polyval does, and it keeps complex
    positions complex, an empty g_poly (g = 0) too."""
    coeffs = _get(cfg, "force", "g_poly", _floats)
    if not coeffs:
        return lambda x: np.zeros_like(x)

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
    return _get(cfg, "force", "c", size=2), _g_poly(cfg)


def _force(cfg):
    """The classical.ForceTensorField of the [force] section."""
    classical = _layer("classical")
    family = _get(cfg, "force", "family")
    if family not in FORCE_FAMILIES:
        raise DomainError(
            f"unknown force family {family!r}; known families: {', '.join(FORCE_FAMILIES)}")
    d = _get(cfg, "force", "dimension", int)
    if family == "zero":
        return classical.zero_force(d)
    if family == "rank_one":
        c = _get(cfg, "force", "c", size=2)
        if d == 1:
            return classical.rank_one_force(c, _g_poly(cfg), d=1)
        g_const = np.asarray(_get(cfg, "force", "g_const", size=d))
        g_linear = np.reshape(_get(cfg, "force", "g_linear", size=d * d), (d, d))
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
    linear = np.reshape(_get(cfg, "force", "linear", size=d * 4 * d), (d, 2, 2, d))
    return classical.affine_force(d, linear, _get(cfg, "force", "const", default=None, size=d * 4))


def _point(cfg) -> list:
    return _get(cfg, "point", "x", size=_get(cfg, "force", "dimension", int))


def _initial(cfg):
    """(x0, v0) of the [initial] section."""
    return _get(cfg, "initial", "x0", _float), _get(cfg, "initial", "v0", _float)


def _budget(cfg):
    return _layer("quantum").UncertaintyBudget(
        dE1=_get(cfg, "budget", "de1", _float),
        dE2=_get(cfg, "budget", "de2", _float),
        ddE1=_get(cfg, "budget", "dde1", _float),
        ddE2=_get(cfg, "budget", "dde2", _float),
        t=TimePlanePoint(_get(cfg, "budget", "t1", _float), _get(cfg, "budget", "t2", _float)),
        hbar=_get(cfg, "budget", "hbar", _float, 1.0),
    )


def _quantum_system(cfg):
    """The size-checked quantum-fluct system, initial state and hbar."""
    quantum = _layer("quantum")
    e1 = _get(cfg, "system", "e1", _floats)
    n = len(e1)
    e2 = _get(cfg, "system", "e2", size=n)
    x0 = np.asarray(_get(cfg, "system", "x0_real", size=n * n), dtype=complex).reshape(n, n)
    x0_imag = _get(cfg, "system", "x0_imag", default=None, size=n * n)
    if x0_imag is not None:
        x0 = x0 + 1j * np.reshape(x0_imag, (n, n))
    psi = np.asarray(_get(cfg, "system", "psi_real", size=n), dtype=complex)
    psi_imag = _get(cfg, "system", "psi_imag", default=None, size=n)
    if psi_imag is not None:
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
    rescale_plus/rescale_minus key to its complex factor.  k must lie on the
    mass shell of m within the config's tolerances, as the run requires."""
    k = _get(cfg, "wave", "k", size=3)
    m = _get(cfg, "wave", "m", _float)
    part = _get(cfg, "wave", "part", str, "imaginary")
    if part not in ("imaginary", "real"):
        raise DomainError(f"[wave] part must be 'imaginary' or 'real', got {part!r}")
    rescales = {}
    for key, branch in (("rescale_plus", "plus"), ("rescale_minus", "minus")):
        re_im = _get(cfg, "wave", key, default=None, size=2)
        if re_im is not None:
            rescales[branch] = complex(re_im[0], re_im[1])
    _layer("dirac").on_shell_residual(np.array(k), m, _tolerances(cfg))
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
    if count > MAX_GRID_POINTS:
        raise DomainError(f"[sweep] count = {count}, more than MAX_GRID_POINTS = "
                          f"{MAX_GRID_POINTS}")
    if min(m, omega_min, omega_max) < 0 or min(hbar, c) <= 0:
        raise DomainError("[sweep] needs m, omega_min, omega_max >= 0 and hbar, c > 0")
    return m, hbar, c, np.linspace(omega_min, omega_max, count)


def _file_name(raw: str) -> str:
    if os.path.basename(raw) in ("", ".", ".."):
        raise ValueError("not a file name")
    return raw


def _outputs(cfg, formats=FORMATS) -> dict:
    """(report name, data table name or None) of cfg's command under each
    of formats, by format.  Every [output] key must hold a file name; under
    json a table's .csv becomes .json.  A table that would replace the
    report under one of formats is refused."""
    keys = cfg.options("output") if cfg.has_section("output") else ()
    given = {key: _get(cfg, "output", key, _file_name) for key in keys}
    report = given.get("report", "report.json")
    key, default = _COMMANDS[cfg.get("scenario", "command")][2] or (None, None)
    table = given.get(key, default)
    names = {}
    for fmt in formats:
        name = table
        if fmt == "json" and table is not None and table.endswith(".csv"):
            name = table[:-4] + ".json"
        if name is not None and os.path.normpath(name) == os.path.normpath(report):
            raise DomainError(f"[output] {key} = {table!r} and report = {report!r} name one "
                              f"file under --format {fmt}")
        names[fmt] = report, name
    return names


def _file_id(path: str):
    """(device, inode) of the file at path, following symbolic links; None
    when there is none."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _spare_inputs(cfg, config_path: str, directory: str, names):
    """DomainError when one of the output file names, in directory, is a
    file the run reads: the config itself or a file: current source, under
    any path or link."""
    reads = {_file_id(config_path): f"config {config_path}"}
    if _current_source in _COMMANDS[cfg.get("scenario", "command")][0]:
        source = _current_source(cfg)
        if source.startswith("file:"):
            reads.setdefault(_file_id(source[5:]), f"current source {source[5:]}")
    reads.pop(None, None)
    for name in names:
        path = os.path.join(directory, name)
        read = reads.get(_file_id(path))
        if read is not None:
            raise DomainError(f"output {path} would overwrite the {read}")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks):
    """Write an iterable of bytes-like chunks to path, replacing it only
    when all of them are written.  An OS error (a directory that cannot be
    made, a full disk) is a ConfigError naming path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# rows of a table laid out at a time; a block's arrays are freed before the
# next is laid out, so a table's text is never all in memory, however long an axis
_BLOCK_ROWS = 2048

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
    rows as gather indices: _layout's for each (form, digits), then the same
    with a leading "-".  Built on the first write, in about 1 ms."""
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
            layouts.reshape(-1, _WIDTH).astype(np.intp))


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
    two NULs and the exponent text of x[i], and layout[i] is the row of
    _text_tables' layouts that lists the source bytes of its %.17g text."""
    n, e, exact = _digits17(x)
    chunks, trailing, exp_text, form, _ = _text_tables()
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
    layout = form[e] + 2 * (16 - zeros) + (x < 0)  # row (form, digits - 1, sign)
    return exact, source.view(np.uint8).reshape(-1), layout


def _format17(values) -> np.ndarray:
    """The ASCII texts of "%.17g" % v for each float v of the 1-D values, as
    an S24 array: each text NUL-padded to _WIDTH bytes.

    Each text is a byte gather from its row of _glyphs17, _GATHER_ROWS
    values at a time; where _digits17 is not exact it is the scalar
    "%.17g" % v instead.  _digits17 and _glyphs17 are functions of their
    own so that their temporaries are freed before the texts are made."""
    x = np.asarray(values, dtype=float)
    exact, source, layout = _glyphs17(x)
    layouts = _text_tables()[-1]
    texts = np.empty(len(x), f"S{_WIDTH}")
    cells = texts.view(np.uint8).reshape(-1, _WIDTH)
    for start in range(0, len(x), _GATHER_ROWS):
        rows = np.take(layouts, layout[start:start + _GATHER_ROWS], axis=0)
        rows += 32 * np.arange(start, start + len(rows))[:, None]
        np.take(source, rows, out=cells[start:start + len(rows)])
    for i in np.flatnonzero(~exact).tolist():
        texts[i] = b"%.17g" % x[i]
    return texts


def _write_table(path: str, columns, axes, fields, fmt: str):
    """Write a command's table: one row per point of the grid of the 1-D
    axes, in row-major order, holding the point's axis values and then each
    field's sample there (fields hold one sample per point, in the same
    order), as 17-significant-digit text under a header of column names.
    CSV gives comma-separated lines; JSON the object {"columns": [...],
    "rows": [[...]]} with every value a string, laid out as
    json.dumps(indent=1, sort_keys=True) lays it out.  The formats differ
    only in head, tail and the literal pieces of a row: the lead before its
    first value, mid after each value but the last and end after the last.
    _BLOCK_ROWS rows at a time are laid out by _block_text."""
    axes = [np.asarray(a, dtype=float).reshape(-1) for a in axes]
    fields = [np.asarray(f, dtype=float).reshape(-1) for f in fields]
    n_rows = math.prod(len(a) for a in axes)
    if fmt == "json":
        names = json.dumps(list(columns), indent=1).replace("\n", "\n ")
        head = '{\n "columns": %s,\n "rows": [' % names
        lead, mid, end = '  [\n   "', '",\n   "', '"\n  ],\n'
        cut, tail = 2, "]\n}\n"  # the last row drops the ",\n" of its end
        if n_rows:  # a non-empty list opens and closes on lines of its own
            head, tail = head + "\n", "\n ]\n}\n"
    else:
        head, tail = ",".join(columns) + "\n", ""
        lead, mid, end, cut = "", ",", "\n", 0
    lead = np.frombuffer(lead.encode(), np.uint8)
    after = np.array([mid.encode(), end.encode()]).view(np.uint8).reshape(2, -1)

    def chunks():
        yield head.encode()
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            yield _block_text(start, stop, axes, fields, lead, after,
                              cut if stop == n_rows else 0)
        yield tail.encode()

    _atomic_write(path, chunks())


def _block_text(start: int, stop: int, axes, fields, lead, after, cut: int) -> bytearray:
    """The text of table rows start..stop-1, less its last cut bytes.

    The rows are laid out in one byte array: each row is the lead bytes,
    then per value a cell of its _WIDTH-byte NUL-padded text followed by
    the row of after (mid, then end for the last value; the two NUL-padded
    to one length).  The texts come from one _format17 call: on the stretch
    of each axis that the rows reach, and on each distinct bit pattern of
    the field values, so that -0.0 keeps its own text.  One gather fills
    every cell, and every NUL is then dropped in one pass.  The arrays are
    freed on return, before the next block is laid out."""
    rows = np.arange(start, stop)
    index = np.empty((len(rows), len(axes) + len(fields)), np.intp)
    parts, at = [], 0
    for k, axis in enumerate(axes):
        # axis k of row r is axis[r // stride % n]; the rows reach the
        # quotients q0..q1 of r // stride, which are at most n axis values
        q = rows // math.prod(len(a) for a in axes[k + 1:])
        reach = min(int(q[-1] - q[0]) + 1, len(axis))
        parts.append(axis[(q[0] + np.arange(reach)) % len(axis)])
        index[:, k] = at + (q - q[0]) % len(axis)
        at += reach
    values = np.stack([f[start:stop] for f in fields], axis=1)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    parts.append(bits.view(float))
    index[:, len(axes):] = at + inverse.reshape(values.shape)
    texts = _format17(np.concatenate(parts))
    cells = np.empty((len(texts), _WIDTH + after.shape[1]), np.uint8)
    cells[:, :_WIDTH] = texts.view(np.uint8).reshape(-1, _WIDTH)
    cells[:, _WIDTH:] = after[0]
    text = bytearray(len(rows) * (len(lead) + index.shape[1] * cells.shape[1]))
    block = np.frombuffer(text, np.uint8).reshape(len(rows), -1)
    block[:, :len(lead)] = lead
    row_cells = block[:, len(lead):].reshape(*index.shape, -1)
    np.take(cells, index, axis=0, out=row_cells)
    row_cells[:, -1, _WIDTH:] = after[1]
    text = text.translate(None, b"\0")
    del text[len(text) - cut:]
    return text


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


# command -> (section parsers, layer function, ([output] key, default file
# name) of its data table or None).  A run passes the parsers' values to the
# layer function, looked up at call time so that a process imports only its
# command's layers; it returns (results, table), table being (column names,
# axes, fields) with one row per point of the axes' grid, or None.  validate
# calls the same parsers, and both parse the [output] names with _outputs.
_COMMANDS = {
    "classical-check": ((_tolerances, _force, _point),
                        lambda *a: _layer("classical").run_classical_check(*a), None),
    "classical-integrate": ((_tolerances, _integrate_force, _initial, _grid),
                            lambda *a: _layer("classical").run_classical_integrate(*a),
                            ("surface", "surface.csv")),
    "quantum-fluct": ((_quantum_system, _grid),
                      lambda *a: _layer("quantum").run_quantum_fluct(*a), ("trace", "trace.csv")),
    "uncertainty": ((_budget,), lambda *a: _layer("quantum").run_uncertainty(*a), None),
    "continuity": ((_tolerances, _space_grid, _current_source),
                   lambda *a: _layer("continuity").run_continuity(*a),
                   ("charge_q1", "charge_q1.csv")),
    "dirac": ((_tolerances, _wave, _space_grid), lambda *a: _layer("dirac").run_dirac(*a),
              ("current", "current.csv")),
    "mass-spectrum": ((_sweep,), lambda *a: _layer("dirac").run_mass_spectrum(*a),
                      ("table", "mass_spectrum.csv")),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# run / validate
# ---------------------------------------------------------------------------

# the failures a run and validate catch: (exception types, exit code, prefix
# of the run's stderr line), first match first
_FAILURES = (
    ((ConfigError,), 2, "config error: "),
    ((DomainError,), 3, "domain error: "),
    ((EvaluationError, ArithmeticError), 4, "numerical failure: "),
    ((MemoryError,), 4, "numerical failure: cannot allocate: "),
)
_CAUGHT = tuple(t for types, _, _ in _FAILURES for t in types)


def _failure(exc: BaseException) -> tuple:
    """The exit code and stderr prefix of a caught failure."""
    return next((code, prefix) for types, code, prefix in _FAILURES if isinstance(exc, types))


def run_scenario(config_path: str, out_dir: str | None = None, fmt: str = "csv",
                 expected_command: str | None = None) -> dict:
    """Execute one scenario file and write its report and data files.

    Returns the full report dictionary; the "scenario" and "comparable"
    sections are deterministic for a fixed config.  "meta" holds the wall
    time of the run and of its stages: parse (reading the config and its
    section parsers), compute (the command's layer function) and write (the
    data files).
    """
    started = time.perf_counter()
    cfg = load_config(config_path)
    command = cfg.get("scenario", "command")
    if expected_command is not None and command != expected_command:
        raise ConfigError(
            f"config names command {command!r} but {expected_command!r} was invoked")
    parsers, run, _ = _COMMANDS[command]
    with np.errstate(**_RAISE):
        parsed_args = [parse(cfg) for parse in parsers]
        report_name, table_name = _outputs(cfg, (fmt,))[fmt]
        directory = out_dir or os.path.dirname(os.path.abspath(config_path))
        _spare_inputs(cfg, config_path, directory, filter(None, (report_name, table_name)))
        parsed = time.perf_counter()
        results, table = run(*parsed_args)
    computed = time.perf_counter()

    artifacts = []
    if table is not None:
        columns, axes, fields = table
        _write_table(os.path.join(directory, table_name), columns, axes, fields, fmt)
        artifacts.append(table_name)
    written = time.perf_counter()

    report_path = os.path.join(directory, report_name)
    report = {
        "scenario": _echo_config(cfg),
        "comparable": _jsonable({"command": command, "results": results,
                                 "artifacts": sorted(artifacts)}),
        "meta": {
            "duration_s": time.perf_counter() - started,
            "stages": {"parse": parsed - started, "compute": computed - parsed,
                       "write": written - computed},
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "report_file": report_name,
        },
    }
    _atomic_write(report_path, ((json.dumps(report, indent=1, sort_keys=True) + "\n").encode(),))
    return report


def validate_config(config_path: str) -> list:
    """Diagnostics of a run's parse stage: every section parser of the
    config's command runs, and each distinct failure is one line."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        return [str(exc)]
    parsers = _COMMANDS[cfg.get("scenario", "command")][0]
    diagnostics = []
    for parse in (*parsers, _outputs):
        try:
            with np.errstate(**_RAISE):
                parse(cfg)
        except _CAUGHT as exc:
            code, prefix = _failure(exc)
            # a config or domain error names its key; a numerical failure keeps its prefix
            diagnostics.append(f"{prefix}{exc}" if code == 4 else str(exc))
    return list(dict.fromkeys(diagnostics))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls and looks sys.stderr up when it writes."""
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
    except _CAUGHT as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
