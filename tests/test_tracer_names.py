"""The benchmark's tracer (benchmarks/tracing.py) wraps some private bodies by
name, such as classical._field_report as the span classical.parallel_fields,
and BENCHMARK.json names the spans its per-layer metrics read.  A rename
that drops one of them fails here, not only in traced benchmark runs."""

import importlib.util
import json
import os

import numpy as np

import bitempo
from bitempo import classical as cl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "benchmarks", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_d2_classify_records_field_report_span():
    tracing = load_tracing()
    lin = np.array([[0.3, -1.1], [0.9, 0.2]])
    force = cl.rank_one_force((1.0, 2.0), lambda p: lin @ p, d=2)
    before = (cl.classify, cl._field_report, cl.ForceTensorField.derivative_tensor,
              cl.ForceTensorField.tensor_at)
    with tracing.Tracer(bitempo) as tracer:
        report = cl.classify(force, np.array([0.4, -0.2]))
    names = [span[0] for span in tracer.spans]
    assert names.count("classical.classify") == 1
    assert names.count("classical.parallel_fields") == 1
    assert names.count("classical.derivative_tensor") == 1
    assert report.verdict is cl.Verdict.EFFECTIVE_ONE_TIME
    after = (cl.classify, cl._field_report, cl.ForceTensorField.derivative_tensor,
             cl.ForceTensorField.tensor_at)
    assert after == before


def test_every_per_layer_span_is_traced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    spans = set(load_tracing().Tracer(bitempo).span_names)
    wanted = [name[:-len(".calls")] if name.endswith(".calls") else name[:-len("_s")]
              for name in names
              if name.endswith(".calls") or (name.endswith("_s") and not name.endswith(".self_s"))]
    assert wanted and [span for span in wanted if span not in spans] == []
