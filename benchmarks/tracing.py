"""Spans around the public calls into each bitempo module.

A ``Tracer`` replaces, while it is active, every public function of the
layer modules (``core``, ``classical``, ``quantum``, ``continuity``,
``dirac``, ``cli``) with a wrapper that records one span per call: its
name, start, end and parent span.  Names imported by another module
(``from .core import null_space``) are rebound there too, because the
importing module looks the name up in its own namespace.

Spans stay in memory for one check and are reduced to per-check figures
(call counts, inclusive seconds per function, self seconds per module) by
``reduce_spans``.  A layer's self time is the time its spans cover minus the
time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("core", "classical", "quantum", "continuity", "dirac", "cli")

# Methods and shared bodies that carry a layer's work but are not module-level
# public functions.  ``classify`` calls ``_field_report`` directly; the public
# ``parallel_fields_2d``/``parallel_fields_3d`` are one-line wrappers of it.
_EXTRA = (
    ("classical", "ForceTensorField", "tensor_at", "classical.tensor_at"),
    ("classical", "ForceTensorField", "derivative_tensor", "classical.derivative_tensor"),
    ("classical", None, "_field_report", "classical.parallel_fields"),
)

# Work counters read from return values: span name -> (counter, extractor).
_RESULT_COUNTERS = {
    "classical.integrate_rank_one_1d": ("classical.rk4_knots",
                                        lambda r: len(r.solution.knot_s)),
    "continuity.separability_check": ("continuity.separability_sweeps",
                                      lambda r: r.sweeps),
}


def _targets(package):
    """(owner, attribute, span name) for every function to wrap."""
    out = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                out.append((module, attr, f"{layer}.{attr}"))
    for layer, cls, attr, span in _EXTRA:
        module = getattr(package, layer)
        out.append((getattr(module, cls) if cls else module, attr, span))
    return out


class Tracer:
    """Records spans while used as a context manager; idle otherwise."""

    def __init__(self, package):
        self._package = package
        self._targets = _targets(package)
        self.span_names = tuple(sorted({span for _, _, span in self._targets}))
        self.counter_names = tuple(sorted(c for c, _ in _RESULT_COUNTERS.values()))
        self.spans = []       # [name, start_ns, end_ns, parent index or -1]
        self.counters = {}
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = _RESULT_COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                key, extract = counter
                self.counters[key] = self.counters.get(key, 0) + extract(result)
            return result

        return wrapper

    def __enter__(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        wrapped = {}
        for owner, attr, span in self._targets:
            original = inspect.getattr_static(owner, attr)
            wrapper = self._wrap(original, span)
            wrapped[id(original)] = wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # rebind names other modules imported from the wrapped ones
        for layer in LAYERS:
            module = getattr(self._package, layer)
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def reduce_spans(spans, counters) -> dict:
    """Per-check figures from one check's spans.

    Keys: ``<span>.calls``, ``<span>_s`` (inclusive seconds), ``<layer>.self_s``
    and the result counters.  Missing keys mean zero.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = dict(counters)
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur * 1e-9
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + (dur - child_ns[i]) * 1e-9
    return out
