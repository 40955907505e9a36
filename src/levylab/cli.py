"""Command-line experiment runner binding all modules.

Subcommands run named experiment suites over configured parameter sweeps
and emit machine-readable results: ``results.csv`` (one row per parameter
tuple and metric), ``summary.json`` (pass/fail counts and headline
figures), and ``run.log`` (parameters, grid, tolerances, wall time).

A config is checked against one table of keys (``TABLE``) and the rules
between keys (``RULES``) before anything runs.

Exit codes: 0 success, 1 assertion failure (an inequality violated),
2 malformed configuration, 3 numerical failure (any other library error, such
as a quadrature breakdown, or a non-finite number bound for ``summary.json``,
which is strict JSON; decay's undefined fitted rate is written as null).
Nothing is written before the summary is known; a run that exits 2 or 3
leaves no ``--out`` directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .entropy import (
    PhiFunction,
    WeightedMeasure,
    decay_track,
    modified_lsi_check,
)
from .errors import ConfigError, LevyLabError
from .fields import FAMILIES, _bump, _iter_fields
from .fokker_planck import (
    build_steady_state,
    check_domination,
    check_log_tail,
    drift_correction,
    fp_evolve,
    limit_density,
)
from .heat import kato_check, lsi_gap, verify_hypercontractivity
from .levy import LevyTriplet, _law, _tabulated_density, stable_density
from .spectral import Grid, SpectralField

_FMT = "%.17g"

def _battery(cfg: ExperimentConfig):
    """The config's battery as a generator: a runner that maps its check over
    it holds one field at a time."""
    return _iter_fields(cfg.grid, cfg.seed, cfg.sweep["family"])


def _verdicts(header, rows, worst_key: str, column: int, worst=max):
    """The runner's return for rows whose last cell is the 0/1 verdict."""
    failures = sum(1 for r in rows if not r[-1])
    summary = {"checked": len(rows), "failures": failures,
               worst_key: worst(r[column] for r in rows) if rows else 0.0}
    return header, rows, summary, failures, {}


# ---------------------------------------------------------------------------
# experiment bodies: each takes the config and returns (header, rows, summary,
# failures, files), where failures counts the failed checks and files maps the
# name of each extra output file to the field it holds; none writes a file


def _run_heat(cfg: ExperimentConfig):
    fields = [cfg.input_field] if cfg.input_field is not None else _battery(cfg)
    sweep = cfg.sweep
    # one sweep of the battery; the rows run over (alpha, p, q, t), field inner
    reports = verify_hypercontractivity(fields, sweep["alpha"], sweep["p"], sweep["q"],
                                        sweep["t"])
    rows = [[r.alpha, r.p, r.q, r.t, idx, r.lhs, r.rhs, r.ratio, int(not r.violated)]
            for per_tuple in zip(*reports) for idx, r in enumerate(per_tuple)]
    return _verdicts(["alpha", "p", "q", "t", "field", "lhs", "rhs", "ratio", "pass"],
                     rows, "worst_ratio", 7)


def _run_euclidean_lsi(cfg: ExperimentConfig):
    alphas = cfg.sweep["alpha"]
    gaps = list(map(lsi_gap, _battery(cfg), repeat(alphas)))
    rows = []
    for alpha, per_field in zip(alphas, zip(*gaps)):
        for idx, (lhs, rhs) in enumerate(per_field):
            ok = lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
            rows.append([alpha, idx, lhs, rhs, rhs - lhs, int(ok)])
    return _verdicts(["alpha", "field", "lhs", "rhs", "gap", "pass"],
                     rows, "smallest_gap", 4, worst=min)


def _r32_slope(v):
    """1.5 sign(v) sqrt|v|, bitwise (+0 at v = -0 too), without the sign pass."""
    s = 1.5 * np.sqrt(np.abs(v))
    return np.negative(s, out=s, where=v < 0)


_KATO_PHIS = {
    "r2": (lambda v: v * v, lambda v: 2.0 * v),
    # pow only off the zeros, which it takes slowly and a clipped field has
    # many of: bitwise |v| ** 1.5
    "r3/2": (
        lambda v: np.power(np.abs(v), 1.5, out=np.zeros_like(v), where=v != 0),
        _r32_slope,
    ),
}


def _run_kato(cfg: ExperimentConfig):
    alphas = cfg.sweep["alpha"]
    names = sorted(_KATO_PHIS)
    phis, dphis = zip(*(_KATO_PHIS[name] for name in names))
    reports = list(map(kato_check, _battery(cfg), repeat(phis), repeat(dphis),
                       repeat(alphas)))
    rows = []
    for alpha, per_field in zip(alphas, zip(*reports)):
        for j, name in enumerate(names):
            for idx, rep in enumerate(row[j] for row in per_field):
                rows.append([alpha, name, idx, rep.max_violation, rep.scale,
                             int(rep.passed)])
    return _verdicts(["alpha", "phi", "field", "max_violation", "scale", "pass"],
                     rows, "worst_violation", 3)


def _run_fp(cfg: ExperimentConfig):
    tr, steady = cfg.triplet, cfg.steady
    u0 = next(_iter_fields(cfg.grid, cfg.seed, cfg.sweep["family"], steady.density))
    cell = cfg.grid.dx**cfg.grid.d
    rows = []
    for t in sorted(cfg.sweep["times"]):
        u = fp_evolve(u0, tr, t, cfg.tol)
        dist = float(np.sum(np.abs(u.values - steady.density.values)) * cell)
        rows.append([t, u.mass(), dist])
    summary = {"final_distance": rows[-1][2] if rows else 0.0,
               "mass_drift": max(abs(r[1] - u0.mass()) for r in rows)}
    return ["t", "mass", "l1_distance_to_steady"], rows, summary, 0, {}


def _run_steady(cfg: ExperimentConfig):
    nu, steady = cfg.triplet.nu, cfg.steady
    dom = check_domination(nu, tol=cfg.tol)
    report = {
        "con1": check_log_tail(nu, cfg.tol).value,
        # the steady build raises Con1Violation when the log tail diverges
        "con1_diverged": False,
        "con2_C": dom.C_est,
        "con2_unbounded": dom.unbounded,
        "bA": [float(b) for b in drift_correction(nu, cfg.tol)],
        "normalization_defect": steady.mass_defect,
    }
    rows = [[k, json.dumps(v)] for k, v in sorted(report.items())]
    return ["key", "value"], rows, report, 0, {"steady_density.csv": steady.density}


def _run_check_conditions(cfg: ExperimentConfig):
    rep = check_domination(cfg.triplet.nu, tol=cfg.tol)
    rows = [[z, ratio] for z, ratio in rep.table]
    summary = {"C_est": rep.C_est, "unbounded": rep.unbounded}
    # an undominated density (an infinite or runaway ratio) fails the
    # domination condition
    return ["z", "ratio"], rows, summary, int(rep.unbounded), {}


def _run_decay(cfg: ExperimentConfig):
    tr, steady = cfg.triplet, cfg.steady
    u0 = cfg.input_field
    if u0 is None:
        u0 = next(_iter_fields(cfg.grid, cfg.seed, "perturbed-steady", steady.density))
    C = cfg.sweep["C"]
    names = cfg.sweep["phi"]
    reports = decay_track(u0, tr, [PHIS[n]() for n in names],
                          cfg.sweep["times"], C, steady, cfg.tol)
    rows = []
    summaries = {}
    violations_total = 0
    for name, rep in zip(names, reports):
        ent0 = rep.entropies[0]
        for t, ent in zip(rep.times, rep.entropies):
            bound = math.exp(-t / C) * ent0
            rows.append([name, t, ent, bound, int(t not in rep.violations)])
        violations_total += len(rep.violations)
        summaries[name] = {
            # NaN when fewer than two entropies are usable: written as null
            "fitted_rate": (None if math.isnan(rep.fitted_rate)
                            else rep.fitted_rate),
            "bound_rate": rep.bound_rate,
            "violations": rep.violations,
        }
    summaries["violation_count"] = violations_total
    return ["phi", "t", "entropy", "bound", "pass"], rows, summaries, violations_total, {}


def _run_check_lsi(cfg: ExperimentConfig):
    tr = cfg.triplet
    mu_triplet = LevyTriplet(
        sigma=tr.sigma / 2.0, b=np.zeros(tr.d), nu=limit_density(tr.nu, cfg.tol), d=tr.d
    )
    mu = WeightedMeasure.from_field(cfg.steady.density)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for name in cfg.sweep["phi"]:
        phi = PHIS[name]()
        for idx in range(8):
            bump = _bump(cfg.grid, rng)
            amp = float(rng.uniform(0.2, 0.8))
            v = SpectralField(cfg.grid, values=1.0 + amp * bump)
            ent, rhs, ratio = modified_lsi_check(v, mu, mu_triplet, phi)
            rows.append([name, idx, ent, rhs, ratio, int(ratio <= 1.0 + 1e-6)])
    return _verdicts(["phi", "field", "entropy", "rhs", "ratio", "pass"],
                     rows, "worst_ratio", 4)


def _run_all(cfg: ExperimentConfig):
    """Composite desk-scale suite: every experiment on capped grids; the
    flow runners share one sub-config, so its steady state is built once."""
    cap = 512 if cfg.grid.d == 1 else 128
    grid = cfg.grid if cfg.grid.M <= cap else Grid(cfg.grid.d, cfg.grid.L, cap)
    d = grid.d
    sub = replace(cfg, grid=grid, input_field=None, out_csv=None)
    jump_sub = replace(sub, triplet=LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(1.0, d), d=d
    ))
    rows = []
    summary = {}
    failures = 0
    for name in ("heat", "euclidean-lsi", "kato", "fp", "check-conditions",
                 "decay", "check-lsi"):
        config = jump_sub if name == "check-conditions" else sub
        header, sub_rows, summary[name], sub_failures, _ = _RUNNERS[name](config)
        failures += sub_failures
        for r in sub_rows:
            rows.append([name] + [f"{h}={_cell(v)}" for h, v in zip(header, r)])
    return ["experiment", *(f"kv{i}" for i in range(9))], rows, summary, failures, {}


_RUNNERS = {
    "heat": _run_heat,
    "fp": _run_fp,
    "steady": _run_steady,
    "decay": _run_decay,
    "check-lsi": _run_check_lsi,
    "check-conditions": _run_check_conditions,
    "euclidean-lsi": _run_euclidean_lsi,
    "kato": _run_kato,
    "all": _run_all,
}
EXPERIMENTS = tuple(_RUNNERS)

# ---------------------------------------------------------------------------
# the config: one table of keys, walked by load_config, and the rules between them

PHIS = {"xlogx": PhiFunction.xlogx, "quadratic": PhiFunction.quadratic}
# nu.kind names the other nu key that describes the density
_NU_KINDS = {"stable": "alpha", "tabulated": "table_path"}
REQUIRED = "required"
_ABSENT = object()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    experiment: str
    grid: Grid
    triplet: LevyTriplet | None
    sweep: dict
    output: str
    seed: int
    tol: float
    input_field: SpectralField | None = None
    out_csv: str | None = None

    @cached_property
    def steady(self):
        """The triplet's steady state on the grid, built on first use and
        kept: every runner of one config reads the same one."""
        return build_steady_state(self.triplet, self.grid, self.tol)


def _number(x):
    """x as a float when it is a finite JSON number (not true or false)."""
    return float(x) if type(x) in (int, float) and math.isfinite(x) else None


def _exponent(x):
    """A number, or infinity written "inf" or as JSON Infinity."""
    if x == math.inf or isinstance(x, str) and x.lower() in ("inf", "infinity"):
        return math.inf
    return _number(x)


def _matrix(x):
    """A scalar, vector or matrix of finite numbers, as an array."""
    entries = np.array(x, dtype=object).ravel()
    return np.asarray(x, dtype=float) if all(
        _number(v) is not None for v in entries) else None


def _text(x):
    return x if type(x) is str else None


# kind: the reader of a value (of each entry of a nonempty JSON list, for a
# kind ending in "list"), which returns None for a value not of the kind; the
# keys of an "object" are rows of their own
_KINDS = {
    "number": _number,
    "integer": lambda x: x if type(x) is int else None,
    "number list": _number,
    "exponent list": _exponent,
    "name": _text,
    "distinct name list": _text,
    "path string": _text,
    "numeric matrix": _matrix,
}
# how a flag's text (each comma-separated entry, for a list) is converted
# before its row reads it; a kind not named here takes the text as it is
_FROM_TEXT = {"integer": int, "number": float, "number list": float,
              "exponent list": float}


@dataclass(frozen=True)
class Key:
    """One row of the config table: the key at ``path``, its kind, its range
    (text, and whether each value ``holds`` in it), its default, the
    experiments that read it and the command-line flags that set it, as
    (subcommand, or None for the main parser, option) pairs.  A key whose
    default is None is None when left out; one whose default is ``REQUIRED``
    may not be left out."""

    path: str
    kind: str
    range: str = ""
    holds: Callable = lambda x: True
    default: object = None
    readers: tuple = EXPERIMENTS
    flags: tuple = ()

    def read(self, text: str):
        """The config value that a flag's ``text`` stands for, for ``parse`` to
        check: an object is the JSON file the text names; a list is the
        comma-separated entries, empty ones dropped."""
        if self.kind == "object":
            return _read_json(text, f"{self.path} config")
        many = self.kind.endswith("list")
        entries = [x for x in text.split(",") if x] if many else [text]
        try:
            values = [_FROM_TEXT.get(self.kind, str)(x) for x in entries]
        except ValueError:
            raise ConfigError(f"{self.path} must be: {self.kind}, {self.range}; "
                              f"got {text!r}") from None
        return values if many else values[0]

    def parse(self, value=_ABSENT):
        """The key's value, or its default when left out, checked."""
        if value is _ABSENT:
            if self.default is REQUIRED:
                raise ConfigError(f"{self.path} is required")
            if self.default is None:
                return None
            value = self.default
        if self.kind == "object":
            # an object without a default (triplet, nu) may be null
            return None if value is None and self.default is None else _walk(
                value, self.path)
        many = self.kind.endswith("list")
        listed = many and isinstance(value, (list, tuple))
        if listed and not value:
            raise ConfigError(f"{self.path} must not be empty")
        parsed = [_KINDS[self.kind](x) for x in (value if listed else [value])]
        if (many and not listed or any(x is None or not self.holds(x) for x in parsed)
                or self.kind.startswith("distinct") and len(set(parsed)) < len(parsed)):
            raise ConfigError(f"{self.path} must be: {self.kind}, {self.range}; "
                              f"got {value!r}")
        return parsed if listed else parsed[0]


def _walk(raw, path=""):
    """The object at ``path`` as a dict of its keys, each one checked against
    its row; an unknown key is refused."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {raw!r}")
    rows = {key.path.rpartition(".")[2]: key for key in TABLE
            if key.path.rpartition(".")[0] == path}
    unknown = set(raw) - set(rows)
    if unknown:
        raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown, key=str)}")
    return {name: key.parse(raw.get(name, _ABSENT)) for name, key in rows.items()}


def _one_of(names):
    """The range text and test of a name from ``names``."""
    names = tuple(names)
    return "one of " + ", ".join(names), lambda x: x in names


_FLOWS = ("fp", "steady", "decay", "check-lsi", "check-conditions", "all")
_HEAT = ("heat", "all")
TABLE = (
    Key("experiment", "name", *_one_of(EXPERIMENTS), REQUIRED),
    Key("grid", "object", "the keys below", default={}),
    Key("grid.d", "integer", "1 or 2", lambda x: x in (1, 2), 1),
    Key("grid.L", "number", "> 0", lambda x: x > 0, 20.0),
    Key("grid.M", "integer", "a power of two >= 8",
        lambda x: x >= 8 and x & (x - 1) == 0, 512),
    Key("triplet", "object", "null, or the keys below", readers=_FLOWS,
        flags=tuple((name, "--triplet-config")
                    for name in ("fp", "decay", "steady", "check-conditions"))),
    Key("triplet.d", "integer", "1 or 2", lambda x: x in (1, 2), 1, _FLOWS),
    # _triplet checks the shapes against d, and the triplet itself that
    # sigma is positive semi-definite
    Key("triplet.sigma", "numeric matrix",
        "d x d, positive semi-definite; a scalar is that times the identity",
        default=0.0, readers=_FLOWS),
    Key("triplet.b", "numeric matrix", "a vector of length d; a scalar if d = 1",
        readers=_FLOWS),
    Key("triplet.nu", "object", "null, or the keys below", readers=_FLOWS),
    Key("triplet.nu.kind", "name", *_one_of(_NU_KINDS), REQUIRED, _FLOWS),
    Key("triplet.nu.alpha", "number", "in (0, 2)", lambda x: 0 < x < 2,
        readers=_FLOWS),
    Key("triplet.nu.table_path", "path string", "nonempty", bool, readers=_FLOWS),
    Key("sweep", "object", "the keys below", default={}),
    Key("sweep.alpha", "number list", "in (0, 2]", lambda x: 0 < x <= 2,
        [0.5, 1.0, 1.5, 2.0], flags=(("heat", "--alpha"),)),
    Key("sweep.p", "number list", ">= 2", lambda x: x >= 2, [2.0], _HEAT,
        (("heat", "--p"),)),
    Key("sweep.q", "exponent list", '>= 2, or "inf"', lambda x: x >= 2, [4.0], _HEAT,
        (("heat", "--q"),)),
    Key("sweep.t", "number list", "> 0", lambda x: x > 0, [0.25, 1.0, 4.0], _HEAT,
        (("heat", "--t"),)),
    Key("sweep.phi", "distinct name list", *_one_of(PHIS), ["xlogx"],
        ("decay", "check-lsi", "all"), (("decay", "--phi"),)),
    Key("sweep.C", "number", "> 0", lambda x: x > 0, 1.0, ("decay", "all"),
        (("decay", "--C"),)),
    Key("sweep.family", "name", *_one_of(FAMILIES), "gaussians",
        ("heat", "euclidean-lsi", "kato", "fp", "all")),
    Key("sweep.times", "number list", ">= 0", lambda x: x >= 0,
        [0.25, 0.5, 1.0, 2.0], ("fp", "decay", "all"),
        (("fp", "--t-list"), ("decay", "--times"))),
    Key("output", "path string", "nonempty", bool, "levylab-out",
        flags=((None, "--out"),)),
    Key("seed", "integer", ">= 0", lambda x: x >= 0, 7,
        ("heat", "euclidean-lsi", "kato", "fp", "decay", "check-lsi", "all"),
        ((None, "--seed"),)),
    Key("tol", "number", "in (0, 1)", lambda x: 0 < x < 1, 1e-10, _FLOWS,
        ((None, "--tol"),)),
)

# (rule, the experiments it binds, whether a config keeps it)
RULES = (
    ("triplet.d must equal grid.d", EXPERIMENTS,
     lambda c: c.triplet is None or c.triplet.d == c.grid.d),
    # alpha = 2 is the Gaussian, which a triplet gives by its sigma
    ("without a triplet, the stable density of alpha[0] needs alpha[0] < 2",
     ("fp", "steady", "decay", "check-lsi", "check-conditions"),
     lambda c: c.triplet is not None or c.sweep["alpha"][0] < 2.0),
    ("family perturbed-steady needs a steady state, which only fp and decay build",
     ("heat", "euclidean-lsi", "kato", "all"),
     lambda c: c.sweep["family"] != "perturbed-steady"),
    ("check-conditions needs a triplet with a jump density nu", ("check-conditions",),
     lambda c: c.triplet is None or _law(c.triplet.nu, c.tol).jumps),
    # with neither, the invariant law is a point mass, on which every entropy is 0
    ("check-lsi needs a diffusion sigma or a jump density nu", ("check-lsi", "all"),
     lambda c: c.triplet is None or _law(c.triplet.nu, c.tol).jumps
     or bool(np.any(c.triplet.sigma))),
    ("heat needs q >= p for every p and q, and p = 2 where q = inf", _HEAT,
     lambda c: all(q >= p and (q < math.inf or p == 2.0)
                   for p in c.sweep["p"] for q in c.sweep["q"])),
)


def _triplet(spec):
    """The triplet of a walked ``triplet`` object."""
    d, nu = spec["d"], spec["nu"]
    sigma = spec["sigma"] * np.eye(d) if spec["sigma"].ndim == 0 else spec["sigma"]
    b = np.zeros(d) if spec["b"] is None else np.atleast_1d(spec["b"])
    for name, shape, wanted in (("sigma", np.atleast_2d(sigma).shape, (d, d)),
                                ("b", b.shape, (d,))):
        if shape != wanted:
            raise ConfigError(f"triplet.{name} must have shape {wanted} at d = {d}, "
                              f"got shape {np.shape(spec[name])}")
    if nu is not None:
        key = _NU_KINDS[nu["kind"]]
        if nu[key] is None:
            raise ConfigError(f"triplet.nu.{key} is required for kind {nu['kind']}")
    try:
        if nu is not None:
            nu = (stable_density if key == "alpha" else _tabulated_density)(nu[key], d)
        return LevyTriplet(sigma=sigma, b=b, nu=nu, d=d)
    except (LookupError, OSError, ValueError) as exc:
        # an unreadable table, or a sigma that is not positive semi-definite
        raise ConfigError(f"invalid triplet: {exc}") from exc


def triplet_from_config(cfg: dict) -> LevyTriplet:
    """Build a triplet from its config, the ``triplet.*`` rows of ``TABLE``.

    Keys: ``d`` (1 or 2), ``sigma`` (scalar or matrix), ``b`` (scalar or
    vector), ``nu`` (null, or {kind, and alpha or table_path}).  A refused
    key or triplet raises ConfigError, which is a ValueError.
    """
    return _triplet(_walk(cfg, "triplet"))


def load_config(raw: dict, io: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-decoded dict, strictly.

    Every key is checked against its row of ``TABLE``, and the config against
    ``RULES``, before any computation starts.  An experiment that reads a
    triplet gets its default when the config has none.  ``io`` holds the
    file flags that set no key: its ``input_csv`` is read as the input field,
    and its ``out_csv`` is where a copy of ``results.csv`` goes.
    """
    io = io or {}
    spec = _walk(raw)
    spec["grid"] = Grid(**spec["grid"])
    if spec["triplet"] is not None:
        spec["triplet"] = _triplet(spec["triplet"])
    cfg = ExperimentConfig(**spec, out_csv=io.get("out_csv"))
    for rule, experiments, holds in RULES:
        if cfg.experiment in experiments and not holds(cfg):
            raise ConfigError(f"{cfg.experiment}: {rule}")
    if cfg.triplet is None and cfg.experiment in _FLOWS:
        # all's default, a unit diffusion, has its steady state and flow
        # resolved exactly at desk-scale grids, so the suite's verdicts are
        # honest; the others default to the stable density of alpha[0]
        d, gauss = cfg.grid.d, cfg.experiment == "all"
        cfg = replace(cfg, triplet=LevyTriplet(
            sigma=np.eye(d) if gauss else np.zeros((d, d)), b=np.zeros(d),
            nu=None if gauss else stable_density(cfg.sweep["alpha"][0], d), d=d))
    if io.get("input_csv") is None:
        return cfg
    try:
        return replace(cfg, input_field=SpectralField.from_csv(cfg.grid, io["input_csv"]))
    except (OSError, IndexError, ValueError) as exc:
        raise ConfigError(f"cannot read input field: {exc}") from exc


def _cell(value):
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _write_results(out_dir: Path, header, rows):
    path = out_dir / "results.csv"
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header[: max(len(r) for r in rows)] if rows else header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment and write its outputs; returns the
    exit status, 0 or 1.  The ``--out`` directory is created only once the
    summary is known to be strict JSON."""
    start = time.time()
    header, rows, summary, failures, files = _RUNNERS[cfg.experiment](cfg)
    summary_doc = {
        "experiment": cfg.experiment,
        "failures": failures,
        "results": summary,
    }
    try:
        summary_text = json.dumps(summary_doc, indent=2, sort_keys=True,
                                  default=str, allow_nan=False)
    except ValueError as exc:
        raise LevyLabError(f"non-finite value in the summary: {exc}") from exc
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, field in files.items():
        field.to_csv(out_dir / name)
    results_path = _write_results(out_dir, header, rows)
    if cfg.out_csv is not None:
        Path(cfg.out_csv).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.out_csv).write_bytes(results_path.read_bytes())
    with open(out_dir / "summary.json", "w") as fh:
        fh.write(summary_text + "\n")
    with open(out_dir / "run.log", "w") as fh:
        fh.write(f"experiment: {cfg.experiment}\n")
        fh.write(f"grid: d={cfg.grid.d} L={cfg.grid.L} M={cfg.grid.M}\n")
        fh.write(f"seed: {cfg.seed}\n")
        fh.write(f"tol: {cfg.tol}\n")
        fh.write(f"sweep: {json.dumps(cfg.sweep, sort_keys=True, default=str)}\n")
        fh.write(f"wall_seconds: {time.time() - start:.3f}\n")
    if not failures:
        return 0
    print(f"assertion failure: {failures} assertion failure(s); see {out_dir}",
          file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    """The main parser and one subparser per experiment; a flag that sets a
    key is declared on its row of ``TABLE`` and stores its text under the
    row's path, for ``Key.read``."""
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Spectral laboratory for Levy semigroups, Fokker-Planck "
        "flows, and entropy inequalities.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="path to a strict-JSON experiment config")
    sub = parser.add_subparsers(dest="experiment")
    parsers = {None: parser, **{name: sub.add_parser(name) for name in EXPERIMENTS}}
    for key in TABLE:
        for name, flag in key.flags:
            parsers[name].add_argument(
                flag, dest=key.path, metavar="FILE" if key.kind == "object" else "TEXT",
                help=f"{key.path}: {key.kind}, {key.range}")
    # file flags that set no key
    parsers["heat"].add_argument("--input-csv", type=str, default=None)
    parsers["decay"].add_argument("--u0-csv", dest="input_csv", type=str, default=None)
    for name in ("heat", "fp"):
        parsers[name].add_argument("--out-csv", type=str, default=None)
    return parser


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _set(raw, path: str, value):
    """Put ``value`` at ``path`` in the raw config; a config or section that
    is not an object is left as it is, for ``load_config`` to refuse."""
    *sections, name = path.split(".")
    for section in sections:
        raw = raw.setdefault(section, {}) if isinstance(raw, dict) else None
    if isinstance(raw, dict):
        raw[name] = value


def _joined(argv):
    """``argv`` with each flag that sets a key joined to the token after it,
    as ``--flag=text``, so that a text such as ``-inf`` reaches the key's row
    instead of being taken by argparse for an option."""
    flags = {flag for key in TABLE for _, flag in key.flags}
    joined, tokens = [], iter(argv)
    for token in tokens:
        text = next(tokens, None) if token in flags else None
        joined.append(token if text is None else f"{token}={text}")
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        raw = {}
        if args.config is not None:
            raw = _read_json(args.config, "config")
        # the subcommand is stored at the experiment row's path, as each
        # flag's text is at the path of the row it sets
        for key in TABLE:
            text = getattr(args, key.path, None)
            if text is not None:
                _set(raw, key.path, key.read(text))
        cfg = load_config(raw, {name: getattr(args, name, None)
                                for name in ("input_csv", "out_csv")})
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevyLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
