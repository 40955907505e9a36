"""The benchmark's own operations, run once each, must pass their checks.

``perfbench/workloads.py`` builds densities, triplets and configs through the
package's public contract, and ``perfbench/spans.py`` wraps the package's
functions by name.  Both are imported here by path, unchanged, so that a
contract change that breaks the benchmark, untraced or traced, fails this
suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ["flow-decay", "jump-lsi", "quadrature-route", "heat-sweep-d2"]


def _import(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _import("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.fixture(scope="module")
def spans():
    yield from _import("perfbench_spans", PERFBENCH / "spans.py")


@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
@pytest.mark.parametrize("name", NAMES)
def test_every_operation_passes_its_check(workloads, name, tmp_path):
    ops = workloads.WORKLOADS[name](tmp_path, 1)
    assert ops
    for op in ops:
        margin = op.check(op.run())
        assert margin <= 1.0, (op.name, margin)


@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
@pytest.mark.parametrize("name", NAMES)
def test_every_operation_runs_traced(workloads, spans, name, tmp_path):
    # the tracer looks each wrapped function up as owner.__dict__[attr] and
    # binds the arguments it reads by name: a moved function or a renamed
    # argument raises here, as it would in a traced benchmark run
    ops = workloads.WORKLOADS[name](tmp_path, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            with tracer.root(op.name):
                value = op.run()
            margin = op.check(value)
            assert margin <= 1.0, (op.name, margin)
    finally:
        tracer.uninstall()
    assert len(tracer.spans) > len(ops)
    assert spans.layer_metrics(tracer, [0])["trace.wall_s"] > 0.0
