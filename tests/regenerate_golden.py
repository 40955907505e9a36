"""Rerun every golden case and copy its outputs over the reference.

    python tests/regenerate_golden.py            # rerun and rewrite
    python tests/regenerate_golden.py --check    # rerun and write nothing

Each directory under ``tests/golden`` is rerun from its ``config.json``, with
that directory as the working directory.
Every cell whose text changed is printed as ``case file row col: old → new``,
with the key path in place of row and column for ``summary.json``, and
marked ``PAST TOLERANCE`` where it moved past ``test_golden.py``'s tolerance
(rtol 1e-12, atol 1e-15); so is a changed exit code, and a file that the run
newly writes or no longer writes.  Without ``--check`` the run's outputs and
exit code then replace the reference's; ``run.log``, which holds the wall
time, is not kept.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from levylab.cli import main  # noqa: E402
from test_golden import GOLDEN, _close, _inputs, _read_csv  # noqa: E402

_NONE = "(none)"


def _leaves(tree, where=""):
    if not isinstance(tree, (dict, list)):
        yield where, tree
        return
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        yield from _leaves(value, f"{where}.{key}" if where else str(key))


def _cells(path):
    """Each cell of an output file, by its place."""
    if path.suffix == ".csv":
        return {f"row {i} col {j}": cell
                for i, row in enumerate(_read_csv(path)) for j, cell in enumerate(row)}
    return dict(_leaves(json.loads(path.read_text())))


def regenerate(case: Path, write=True):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cwd = os.getcwd()
        os.chdir(case)
        try:
            rc = main(["--config", str(case / "config.json"), "--out", str(out)])
        finally:
            os.chdir(cwd)
        code = case / "exit_code"
        old_rc = code.read_text().strip() if code.exists() else _NONE
        if old_rc != str(rc):
            print(f"{case.name} exit_code: {old_rc} → {rc}")
        new = {p.name: p for p in out.glob("*") if p.name != "run.log"}
        old = {p.name: p for p in case.iterdir() if p.name not in _inputs(case)}
        for name in sorted(set(new) | set(old)):
            if name not in new:
                print(f"{case.name} {name}: no longer written")
                if write:
                    old[name].unlink()
                continue
            if name not in old:
                print(f"{case.name} {name}: new file")
            else:
                before, after = _cells(old[name]), _cells(new[name])
                for where in dict.fromkeys([*before, *after]):
                    b, a = before.get(where, _NONE), after.get(where, _NONE)
                    if a != b:
                        past = "" if where in before and where in after and _close(
                            a, b) else "  PAST TOLERANCE"
                        print(f"{case.name} {name} {where}: {b} → {a}{past}")
            if write:
                shutil.copyfile(new[name], case / name)
        if write:
            code.write_text(f"{rc}\n")


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    for case in sorted(p for p in GOLDEN.iterdir() if p.is_dir()):
        regenerate(case, write=not check)
