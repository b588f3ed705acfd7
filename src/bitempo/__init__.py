"""Numerical checks for classical and quantum dynamics with two times.

Subpackages cover the classical constraint analysis of two-time force
tensors, unitary two-parameter quantum evolution and its uncertainty
bounds, continuity-equation bookkeeping on grids, the 1+2-dimensional
Dirac equation, and a scenario CLI tying them together.

Each layer module is imported on its first lookup (``bitempo.quantum``),
so a process compiles only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("core", "classical", "quantum", "continuity", "dirac", "cli")


def __getattr__(name):
    """The layer module ``name``, imported on first lookup (PEP 562)."""
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
