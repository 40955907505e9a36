"""Golden-output guard: closed-form CLI runs reproduce their recorded outputs.

Each directory under ``tests/golden`` holds a ``config.json``, the exit code
and the ``results.csv`` / ``summary.json`` a reference run produced.  The
runs are re-executed and every numeric cell compared at rtol 1e-12, with an
absolute floor of 1e-15 for cells at round-off level; text cells must match
exactly.
"""

import csv
import json
from contextlib import nullcontext
from pathlib import Path

import pytest

from levylab.cli import main
from levylab.errors import InterpolationDegradation

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
ATOL = 1e-15
# runs whose initial field has not decayed at the Nyquist edge of the flow:
# the warning is part of the recorded behaviour
WARNS = {"fp_d2_stable15": InterpolationDegradation}


def _numeric(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _assert_cell(got, want, where):
    """Compare one scalar; CSV cells may be ``key=value`` pairs."""
    if isinstance(want, str) and "=" in want:
        wkey, wval = want.split("=", 1)
        gkey, gval = str(got).split("=", 1)
        assert gkey == wkey, where
        got, want = gval, wval
    w = None if isinstance(want, bool) else _numeric(want)
    if w is None:
        assert got == want, f"{where}: {got!r} != {want!r}"
        return
    g = float(got)
    assert abs(g - w) <= max(RTOL * abs(w), ATOL), f"{where}: {g!r} vs {w!r}"


def _assert_tree(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_tree(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_tree(g, w, f"{where}[{i}]")
    else:
        _assert_cell(got, want, where)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
)
def test_golden_cli_run(name, tmp_path):
    ref = GOLDEN / name
    out = tmp_path / "out"
    warning = WARNS.get(name)
    with pytest.warns(warning) if warning else nullcontext():
        rc = main(["--config", str(ref / "config.json"), "--out", str(out)])
    assert rc == int((ref / "exit_code").read_text())

    got_rows = _read_csv(out / "results.csv")
    want_rows = _read_csv(ref / "results.csv")
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(g) == len(w), f"row {i}"
        for j, (gc, wc) in enumerate(zip(g, w)):
            _assert_cell(gc, wc, f"results.csv row {i} col {j}")

    _assert_tree(
        json.loads((out / "summary.json").read_text()),
        json.loads((ref / "summary.json").read_text()),
        "summary",
    )
