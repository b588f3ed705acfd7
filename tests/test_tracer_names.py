"""The benchmark's tracer (benchmarks/tracing.py) wraps some private bodies by
name, such as classical._field_report as the span classical.parallel_fields.
A rename that drops one of them fails here, not only in traced benchmark
runs."""

import importlib.util
import os

import numpy as np

import bitempo
from bitempo import classical as cl

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "benchmarks", "tracing.py")


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
