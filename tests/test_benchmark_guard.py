"""The benchmark's own operations, run once each, must pass their checks.

``perfbench/workloads.py`` builds densities, triplets and configs through the
package's public contract.  It is imported here by path, unchanged, so that a
contract change that breaks the benchmark fails this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
@pytest.mark.parametrize("name", ["flow-decay", "jump-lsi", "quadrature-route",
                                  "heat-sweep-d2"])
def test_every_operation_passes_its_check(workloads, name, tmp_path):
    ops = workloads.WORKLOADS[name](tmp_path, 1)
    assert ops
    for op in ops:
        margin = op.check(op.run())
        assert margin <= 1.0, (op.name, margin)
