"""The benchmark's workloads: inputs made from the seed, timed operations and
the checks that decide whether each operation succeeded.

An operation is one CLI invocation (``levylab.cli.main``) or one library
call.  Its ``check`` returns the operation's margin, the worst figure over
its bound, and raises ``CheckFailed`` when the output is malformed; the
operation passes when the margin is at most 1.  levylab only ever sees the
generated configs and fields: the seed is turned into the config's ``seed``
or into the initial field here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import levylab
import levylab.cli
from levylab import fokker_planck

STABLE_1 = {"kind": "stable", "alpha": 1.0}


class CheckFailed(Exception):
    """An operation's output is malformed or its exit status is not 0."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], float]
    out_dir: Optional[Path] = None


def _ratio(figure, bound):
    """figure / bound for a check that passes when figure <= bound."""
    if not (math.isfinite(figure) and math.isfinite(bound)):
        raise CheckFailed(f"non-finite figure {figure!r} or bound {bound!r}")
    if bound > 0:
        return figure / bound
    return 0.0 if figure <= bound else math.inf


def _rows(out):
    with open(out / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out):
    with open(out / "summary.json") as fh:
        return json.load(fh)


def _cli_op(work: Path, name: str, config: dict, check) -> Op:
    path = work / f"{name}.json"
    out = work / name
    path.write_text(json.dumps(config, sort_keys=True))
    argv = ["--config", str(path), "--out", str(out)]

    def verify(rc):
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        return check(out)

    return Op(name, lambda: levylab.cli.main(argv), verify, out)


def _expect_rows(rows, n):
    if len(rows) != n:
        raise CheckFailed(f"{len(rows)} result rows, expected {n}")


def _no_failures(out):
    summary = _summary(out)
    if summary["failures"] != 0:
        raise CheckFailed(f"{summary['failures']} failures in summary.json")


# -- flow-decay ------------------------------------------------------------

DECAY_TIMES = [0.25, 0.5, 1.0, 2.0]
DECAY_PHIS = ["quadratic", "xlogx"]


def _check_decay(out):
    summary = _summary(out)
    if summary["results"]["violation_count"] != 0:
        raise CheckFailed("entropy decay bound violated")
    rows = _rows(out)
    _expect_rows(rows, len(DECAY_PHIS) * (len(DECAY_TIMES) + 1))
    margin = -math.inf
    for name in DECAY_PHIS:
        track = [r for r in rows if r["phi"] == name]
        ents = [float(r["entropy"]) for r in track]
        if not all(math.isfinite(e) for e in ents):
            raise CheckFailed(f"non-finite {name} entropy")
        for r in track[1:]:
            # the CLI's own bound test: Ent(t) <= e^{-t/C} Ent(0) (1 + 1e-6)
            margin = max(margin, _ratio(float(r["entropy"]),
                                        float(r["bound"]) * (1.0 + 1e-6)))
        for a, b in zip(ents, ents[1:]):
            margin = max(margin, _ratio(b, a * (1.0 + 1e-8)))
    return margin


def flow_decay(work: Path, seed: int):
    config = {
        "experiment": "decay",
        "grid": {"d": 1, "L": 640.0, "M": 4096},
        "triplet": {"d": 1, "sigma": 0.0, "b": [0.0], "nu": STABLE_1},
        "sweep": {"phi": DECAY_PHIS, "times": DECAY_TIMES, "C": 1.0},
        "seed": seed,
    }
    return [_cli_op(work, "decay", config, _check_decay)]


# -- jump-lsi --------------------------------------------------------------

LSI_FIELDS = 8      # seeded random fields per phi in `check-lsi`


def _check_lsi(out):
    _no_failures(out)
    rows = _rows(out)
    _expect_rows(rows, LSI_FIELDS)
    return max(_ratio(float(r["ratio"]), 1.0 + 1e-6) for r in rows)


def jump_lsi(work: Path, seed: int):
    ops = []
    for d, L, M in ((1, 160.0, 4096), (2, 10.0, 32)):
        config = {
            "experiment": "check-lsi",
            "grid": {"d": d, "L": L, "M": M},
            "triplet": {"d": d, "sigma": 0.0, "b": [0.0] * d, "nu": STABLE_1},
            "seed": seed,
        }
        ops.append(_cli_op(work, f"check-lsi-d{d}", config, _check_lsi))
    return ops


# -- quadrature-route ------------------------------------------------------

QUAD_T = 0.5
QUAD_TOL = 1e-9     # agreement with the stable closed-form route


def _max_diff(a, b):
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    if not math.isfinite(diff):
        raise CheckFailed("non-finite result")
    return diff


def quadrature_route(work: Path, seed: int):
    grid = levylab.Grid(1, 8.0, 16)
    zero = {"sigma": np.zeros((1, 1)), "b": np.zeros(1), "d": 1}
    stable = levylab.LevyTriplet(nu=levylab.stable_density(1.0, 1), **zero)
    # the same Cauchy density, but opaque: it takes the quadrature route
    cauchy = levylab.LevyDensity(
        kind="analytic", d=1, func=levylab.stable_density(1.0, 1), is_even=True
    )
    quad = levylab.LevyTriplet(nu=cauchy, **zero)
    oracle = levylab.build_steady_state(stable, grid)
    u0 = levylab.generate_test_fields(
        grid, seed, "perturbed-steady", oracle.density)[0]
    oracle_u = levylab.fp_evolve(u0, stable, QUAD_T)
    return [
        Op("build_steady_state",
           lambda: fokker_planck.build_steady_state(quad, grid),
           lambda s: _max_diff(s.density.values,
                               oracle.density.values) / QUAD_TOL),
        Op("fp_evolve",
           lambda: fokker_planck.fp_evolve(u0, quad, QUAD_T),
           lambda u: _max_diff(u.coefficients,
                               oracle_u.coefficients) / QUAD_TOL),
    ]


# -- heat-sweep-d2 ---------------------------------------------------------

def _check_heat(out):
    _no_failures(out)
    rows = _rows(out)
    _expect_rows(rows, 4 * 3 * 6)     # alpha x t x battery
    return max(_ratio(float(r["ratio"]), 1.0 + 1e-6) for r in rows)


def _check_euclidean_lsi(out):
    _no_failures(out)
    rows = _rows(out)
    _expect_rows(rows, 4 * 6)         # alpha x battery
    # the CLI passes lhs <= rhs + 1e-10 max(1, |rhs|); compare exponentials
    # so that the margin is a ratio even when both sides are negative
    margins = []
    for r in rows:
        lhs, rhs = float(r["lhs"]), float(r["rhs"])
        slack = 1e-10 * max(1.0, abs(rhs))
        margins.append(_ratio(math.exp(min(lhs - rhs - slack, 700.0)), 1.0))
    return max(margins)


def _check_kato(out):
    _no_failures(out)
    rows = _rows(out)
    _expect_rows(rows, 4 * 2 * 6)     # alpha x phi x battery
    return max(_ratio(float(r["max_violation"]), 1e-8 * float(r["scale"]))
               for r in rows)


def heat_sweep_d2(work: Path, seed: int):
    base = {"grid": {"d": 2, "L": 20.0, "M": 512},
            "sweep": {"family": "bumps"}, "seed": seed}
    return [
        _cli_op(work, name, {"experiment": name, **base}, check)
        for name, check in (("heat", _check_heat),
                            ("euclidean-lsi", _check_euclidean_lsi),
                            ("kato", _check_kato))
    ]


WORKLOADS = {
    "flow-decay": flow_decay,
    "jump-lsi": jump_lsi,
    "quadrature-route": quadrature_route,
    "heat-sweep-d2": heat_sweep_d2,
}
