"""Golden-output guard: closed-form CLI runs reproduce their recorded outputs.

Each directory under ``tests/golden`` holds a ``config.json``, the exit code
and the ``summary.json`` and ``.csv`` files a reference run produced.  The
runs are re-executed and every numeric cell compared at rtol 1e-12, with an
absolute floor of 1e-15 for cells at round-off level; text cells must match
exactly.  A reference that holds only ``config.json`` and ``exit_code``
records a run that writes nothing, and the re-run must leave no ``--out``
directory either.  A case on a tabulated density keeps its table next to its
config, named relative to the case's directory, and each run is made from
that directory.  ``tests/regenerate_golden.py`` rewrites the references.
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
# the warning is part of the recorded behaviour: the initial fields that
# fp_d2_stable15 and all_d2 evolve have not decayed at the Nyquist edge of the
# flow
WARNS = {"fp_d2_stable15": InterpolationDegradation,
         "all_d2": InterpolationDegradation}


def _numeric(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _close(got, want):
    """Whether one scalar matches its reference: a number to RTOL, with ATOL
    as a floor, anything else exactly; CSV cells may be ``key=value`` pairs."""
    if isinstance(want, str) and "=" in want:
        wkey, want = want.split("=", 1)
        gkey, _, got = str(got).partition("=")
        if gkey != wkey:
            return False
    w = None if isinstance(want, bool) else _numeric(want)
    g = None if isinstance(got, bool) else _numeric(got)
    if w is None or g is None:
        return got == want
    return abs(g - w) <= max(RTOL * abs(w), ATOL)


def _assert_cell(got, want, where):
    assert _close(got, want), f"{where}: {got!r} != {want!r}"


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


def _inputs(case):
    """The names of the files in a case directory that the run reads, not
    writes: the config, the exit code and a density table."""
    nu = json.loads((case / "config.json").read_text()).get("triplet", {}).get("nu")
    table = (nu or {}).get("table_path")
    return {"config.json", "exit_code"} | ({table} if table else set())


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
)
def test_golden_cli_run(name, tmp_path, monkeypatch):
    ref = GOLDEN / name
    out = tmp_path / "out"
    monkeypatch.chdir(ref)
    warning = WARNS.get(name)
    with pytest.warns(warning) if warning else nullcontext():
        rc = main(["--config", str(ref / "config.json"), "--out", str(out)])
    assert rc == int((ref / "exit_code").read_text())
    if not (ref / "summary.json").exists():
        assert not out.exists()
        return

    for want in sorted(set(ref.glob("*.csv")) - {ref / f for f in _inputs(ref)}):
        got_rows = _read_csv(out / want.name)
        want_rows = _read_csv(want)
        assert got_rows[0] == want_rows[0], want.name
        assert len(got_rows) == len(want_rows), want.name
        for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
            assert len(g) == len(w), f"{want.name} row {i}"
            for j, (gc, wc) in enumerate(zip(g, w)):
                _assert_cell(gc, wc, f"{want.name} row {i} col {j}")

    _assert_tree(
        json.loads((out / "summary.json").read_text()),
        json.loads((ref / "summary.json").read_text()),
        "summary",
    )
