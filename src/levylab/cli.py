"""Command-line experiment runner binding all modules.

Subcommands run named experiment suites over configured parameter sweeps
and emit machine-readable results: ``results.csv`` (one row per parameter
tuple and metric), ``summary.json`` (pass/fail counts and headline
figures), and ``run.log`` (parameters, grid, tolerances, wall time).

Exit codes: 0 success, 1 assertion failure (an inequality violated),
2 malformed configuration, 3 numerical failure (quadrature breakdown, or a
non-finite number bound for ``summary.json``, which is strict JSON; decay's
undefined fitted rate is written as null).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .entropy import (
    PhiFunction,
    WeightedMeasure,
    decay_track,
    modified_lsi_check,
)
from .errors import (
    AssertionFailure,
    ConfigError,
    LevyLabError,
    NumericalFailure,
    QuadratureFailure,
)
from .fields import FAMILIES, generate_test_fields
from .fokker_planck import build_steady_state, check_domination, fp_evolve, limit_density
from .heat import kato_check, lsi_gap, verify_hypercontractivity
from .levy import LevyTriplet, stable_density, triplet_from_config
from .spectral import Grid, SpectralField

_FMT = "%.17g"


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


_TOP_KEYS = {"experiment", "grid", "triplet", "sweep", "output", "seed", "tol"}
_SWEEP_KEYS = {"alpha", "p", "q", "t", "phi", "C", "family", "times"}

_DEFAULT_SWEEP = {
    "alpha": [0.5, 1.0, 1.5, 2.0],
    "p": [2.0],
    "q": [4.0],
    "t": [0.25, 1.0, 4.0],
    "phi": ["xlogx"],
    "C": 1.0,
    "family": "gaussians",
    "times": [0.25, 0.5, 1.0, 2.0],
}


# experiments whose field battery is built without a steady state
_NO_STEADY_BATTERY = ("heat", "euclidean-lsi", "kato", "all")
# experiments whose default triplet is stable_density(alpha[0])
_STABLE_DEFAULT = ("fp", "steady", "decay", "check-lsi", "check-conditions")


def _finite(name: str, value) -> float:
    """float(value), rejecting non-numbers, booleans, NaN and +-Infinity."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _finite_array(name: str, value) -> None:
    """Reject a scalar, vector or matrix unless every entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    # dtype=float reads true and false as 1 and 0; a boolean is not a number
    if arr is None or any(type(v) is bool for v in np.array(value, object).flat):
        raise ConfigError(f"{name} must be numeric, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _finite_list(name: str, values) -> list:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return [_finite(name, v) for v in values]


def _parse_q(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"exponent q must be numeric or 'inf', got {value!r}")
    if value == math.inf:
        return math.inf
    return _finite("exponent q", value)


def load_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-decoded dict, strictly.

    Unknown keys are rejected and every numeric field is range-checked
    before any computation starts.  ``overrides`` (from command-line flags)
    replace the corresponding config entries.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val

    experiment = merged.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}"
        )

    grid_spec = merged.get("grid", {"d": 1, "L": 20.0, "M": 512})
    if not isinstance(grid_spec, dict) or set(grid_spec) - {"d", "L", "M"}:
        raise ConfigError(
            f"grid must be an object with keys d, L, M; got {grid_spec!r}"
        )
    d = grid_spec.get("d", 1)
    L = grid_spec.get("L", 20.0)
    M = grid_spec.get("M", 512)
    if type(d) is not int or d not in (1, 2):
        raise ConfigError(f"grid.d must be 1 or 2, got {d!r}")
    if not (type(L) in (int, float) and math.isfinite(L) and L > 0):
        raise ConfigError(f"grid.L must be positive and finite, got {L!r}")
    if not (isinstance(M, int) and M >= 8 and M & (M - 1) == 0):
        raise ConfigError(f"grid.M must be a power of two >= 8, got {M!r}")
    grid = Grid(d, float(L), M)

    sweep = dict(_DEFAULT_SWEEP)
    user_sweep = merged.get("sweep", {})
    if not isinstance(user_sweep, dict):
        raise ConfigError("sweep must be an object")
    bad = set(user_sweep) - _SWEEP_KEYS
    if bad:
        raise ConfigError(f"unknown sweep keys: {sorted(bad)}")
    for key, val in user_sweep.items():
        if isinstance(val, (list, tuple)) and not val:
            raise ConfigError(f"sweep.{key} must not be empty")
    sweep.update(user_sweep)
    sweep["alpha"] = _finite_list("alpha", sweep["alpha"])
    for a in sweep["alpha"]:
        if not (0.0 < a <= 2.0):
            raise ConfigError(f"alpha must lie in (0, 2], got {a}")
    sweep["p"] = _finite_list("exponent p", sweep["p"])
    if not isinstance(sweep["q"], (list, tuple)):
        raise ConfigError(f"q must be a list, got {sweep['q']!r}")
    sweep["q"] = [_parse_q(q) for q in sweep["q"]]
    for name in ("p", "q"):
        for v in sweep[name]:
            if v < 1.0:
                raise ConfigError(f"exponent {name} must be >= 1, got {v}")
    sweep["t"] = _finite_list("t", sweep["t"])
    sweep["times"] = _finite_list("times", sweep["times"])
    for t in sweep["t"] + sweep["times"]:
        if t < 0.0:
            raise ConfigError(f"times must be nonnegative, got {t}")
    for name in sweep["phi"]:
        if name not in ("xlogx", "quadratic"):
            raise ConfigError(f"phi must be xlogx or quadratic, got {name!r}")
    sweep["C"] = _finite("C", sweep["C"])
    if sweep["C"] <= 0.0:
        raise ConfigError(f"C must be positive, got {sweep['C']}")
    if sweep["family"] not in FAMILIES:
        raise ConfigError(f"family must be one of {FAMILIES}, got {sweep['family']!r}")
    if sweep["family"] == "perturbed-steady" and experiment in _NO_STEADY_BATTERY:
        raise ConfigError(f"{experiment} builds no steady state to perturb; "
                          "family perturbed-steady serves fp and decay")

    seed = merged.get("seed", 7)
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    tol = merged.get("tol", 1e-10)
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and 0 < tol < 1):
        raise ConfigError(f"tol must lie in (0, 1), got {tol!r}")
    output = merged.get("output", "levylab-out")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"output must be a nonempty path, got {output!r}")

    triplet = merged.get("triplet")
    if triplet is not None:
        if not isinstance(triplet, dict):
            raise ConfigError("triplet must be an object")
        for key in ("sigma", "b"):
            if key in triplet:
                _finite_array(f"triplet.{key}", triplet[key])
        try:
            triplet = triplet_from_config(triplet)
        except (LevyLabError, LookupError, OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid triplet: {exc}") from exc
        if triplet.d != grid.d:
            raise ConfigError(f"triplet.d is {triplet.d} but grid.d is {grid.d}")
    if experiment == "check-conditions" and triplet is not None and triplet.nu is None:
        raise ConfigError("check-conditions needs a triplet with a jump density")
    if (experiment in ("check-lsi", "all") and triplet is not None
            and triplet.nu is None and not np.any(triplet.sigma)):
        # the invariant law is then a point mass, on which every entropy is 0
        raise ConfigError(f"{experiment} runs check-lsi, which needs a diffusion "
                          "sigma or a jump density nu: with neither it checks nothing")
    if triplet is None and experiment in _STABLE_DEFAULT and 2.0 in sweep["alpha"][:1]:
        raise ConfigError(f"{experiment} without a triplet builds the stable density "
                          "of alpha[0], which must lie in (0, 2), got 2.0")

    io = overrides or {}
    input_field = None
    if io.get("input_csv") is not None:
        try:
            input_field = SpectralField.from_csv(grid, io["input_csv"])
        except (OSError, IndexError, ValueError) as exc:
            raise ConfigError(f"cannot read input field: {exc}") from exc
    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        triplet=triplet,
        sweep=sweep,
        output=output,
        seed=seed,
        tol=float(tol),
        input_field=input_field,
        out_csv=io.get("out_csv"),
    )


def _phi_by_name(name: str) -> PhiFunction:
    return PhiFunction.xlogx() if name == "xlogx" else PhiFunction.quadratic()


def _default_triplet(cfg: ExperimentConfig) -> LevyTriplet:
    if cfg.triplet is not None:
        return cfg.triplet
    alpha = cfg.sweep["alpha"][0]
    d = cfg.grid.d
    return LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(alpha, d), d=d
    )


def _battery(cfg: ExperimentConfig, steady=None):
    return generate_test_fields(cfg.grid, cfg.seed, cfg.sweep["family"], steady)


def _verdicts(rows, worst_key: str, column: int, worst=max) -> dict:
    """Summary of rows whose last cell is the 0/1 verdict."""
    return {
        "checked": len(rows),
        "failures": sum(1 for r in rows if not r[-1]),
        worst_key: worst(r[column] for r in rows) if rows else 0.0,
    }


# ---------------------------------------------------------------------------
# experiment bodies: each takes the config and returns (header, rows, summary)


def _run_heat(cfg: ExperimentConfig):
    fields = [cfg.input_field] if cfg.input_field is not None else _battery(cfg)
    sweep = cfg.sweep
    rows = []
    for alpha, p, q, t in product(sweep["alpha"], sweep["p"], sweep["q"], sweep["t"]):
        for idx, f in enumerate(fields):
            rep = verify_hypercontractivity(f, alpha=alpha, p=p, q=q, t=t)
            rows.append([alpha, p, q, t, idx, rep.lhs, rep.rhs, rep.ratio,
                         int(not rep.violated)])
    return (["alpha", "p", "q", "t", "field", "lhs", "rhs", "ratio", "pass"],
            rows, _verdicts(rows, "worst_ratio", 7))


def _run_euclidean_lsi(cfg: ExperimentConfig):
    alphas = cfg.sweep["alpha"]
    gaps = [lsi_gap(f, alphas) for f in _battery(cfg)]
    rows = []
    for alpha, per_field in zip(alphas, zip(*gaps)):
        for idx, (lhs, rhs) in enumerate(per_field):
            ok = lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
            rows.append([alpha, idx, lhs, rhs, rhs - lhs, int(ok)])
    return (["alpha", "field", "lhs", "rhs", "gap", "pass"],
            rows, _verdicts(rows, "smallest_gap", 4, worst=min))


_KATO_PHIS = {
    "r2": (lambda v: v * v, lambda v: 2.0 * v),
    "r3/2": (
        lambda v: np.abs(v) ** 1.5,
        lambda v: 1.5 * np.sign(v) * np.sqrt(np.abs(v)),
    ),
}


def _run_kato(cfg: ExperimentConfig):
    alphas = cfg.sweep["alpha"]
    names = sorted(_KATO_PHIS)
    phis, dphis = zip(*(_KATO_PHIS[name] for name in names))
    reports = [kato_check(f, phis, dphis, alphas) for f in _battery(cfg)]
    rows = []
    for alpha, per_field in zip(alphas, zip(*reports)):
        for j, name in enumerate(names):
            for idx, rep in enumerate(row[j] for row in per_field):
                rows.append([alpha, name, idx, rep.max_violation, rep.scale,
                             int(rep.passed)])
    return (["alpha", "phi", "field", "max_violation", "scale", "pass"],
            rows, _verdicts(rows, "worst_violation", 3))


def _run_fp(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    u0 = _battery(cfg, steady.density if cfg.sweep["family"] ==
                  "perturbed-steady" else None)[0]
    cell = cfg.grid.dx**cfg.grid.d
    rows = []
    for t in sorted(cfg.sweep["times"]):
        u = fp_evolve(u0, tr, t, cfg.tol)
        dist = float(np.sum(np.abs(u.values - steady.density.values)) * cell)
        rows.append([t, u.mass(), dist])
    summary = {"final_distance": rows[-1][2] if rows else 0.0,
               "mass_drift": max(abs(r[1] - u0.mass()) for r in rows)}
    return (["t", "mass", "l1_distance_to_steady"], rows, summary)


def _run_steady(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    steady.density.to_csv(Path(cfg.output) / "steady_density.csv")
    dom = check_domination(tr.nu, tol=cfg.tol) if tr.nu is not None else None
    # build_steady_state raises Con1Violation when the log tail diverges
    report = {
        "con1": steady.log_tail,
        "con1_diverged": False,
        "con2_C": (dom.C_est if dom is not None else 0.0),
        "con2_unbounded": (dom.unbounded if dom is not None else False),
        "bA": [float(b) for b in np.atleast_1d(steady.drift_correction)],
        "normalization_defect": steady.mass_defect,
    }
    rows = [[k, json.dumps(v)] for k, v in sorted(report.items())]
    return (["key", "value"], rows, report)


def _run_check_conditions(cfg: ExperimentConfig):
    rep = check_domination(_default_triplet(cfg).nu, tol=cfg.tol)
    rows = [[z, ratio] for z, ratio in rep.table]
    summary = {"C_est": rep.C_est, "unbounded": rep.unbounded}
    return (["z", "ratio"], rows, summary)


def _run_decay(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    u0 = cfg.input_field
    if u0 is None:
        u0 = generate_test_fields(
            cfg.grid, cfg.seed, "perturbed-steady", steady.density
        )[0]
    C = cfg.sweep["C"]
    rows = []
    summaries = {}
    violations_total = 0
    for name in cfg.sweep["phi"]:
        phi = _phi_by_name(name)
        rep = decay_track(u0, tr, phi, cfg.sweep["times"], C, steady, cfg.tol)
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
    return (["phi", "t", "entropy", "bound", "pass"], rows, summaries)


def _run_check_lsi(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    nu_mu = None if tr.nu is None else limit_density(tr.nu, cfg.tol)
    mu_triplet = LevyTriplet(
        sigma=tr.sigma / 2.0, b=np.zeros(tr.d), nu=nu_mu, d=tr.d
    )
    mu = WeightedMeasure.from_field(steady.density)
    rng = np.random.default_rng(cfg.seed)
    coords = cfg.grid.coords()
    rows = []
    for name in cfg.sweep["phi"]:
        phi = _phi_by_name(name)
        for idx in range(8):
            center = float(rng.uniform(-2.0, 2.0))
            width = float(rng.uniform(0.8, 2.0))
            amp = float(rng.uniform(0.2, 0.8))
            r2 = sum((c - center) ** 2 for c in coords)
            v = SpectralField(
                cfg.grid, values=1.0 + amp * np.exp(-r2 / (2.0 * width**2))
            )
            ent, rhs, ratio = modified_lsi_check(v, mu, mu_triplet, phi)
            rows.append([name, idx, ent, rhs, ratio, int(ratio <= 1.0 + 1e-6)])
    return (["phi", "field", "entropy", "rhs", "ratio", "pass"],
            rows, _verdicts(rows, "worst_ratio", 4))


def _run_all(cfg: ExperimentConfig):
    """Composite desk-scale suite: every experiment on capped grids."""
    cap = 512 if cfg.grid.d == 1 else 128
    grid = cfg.grid if cfg.grid.M <= cap else Grid(cfg.grid.d, cfg.grid.L, cap)
    d = grid.d
    # pure-diffusion default: its steady state and flow are resolved
    # exactly at desk-scale grids, so the suite's verdicts are honest
    triplet = cfg.triplet
    if triplet is None:
        triplet = LevyTriplet(sigma=np.eye(d), b=np.zeros(d), d=d)
    sub = replace(cfg, grid=grid, triplet=triplet, input_field=None, out_csv=None)
    jump_sub = replace(sub, triplet=LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(1.0, d), d=d
    ))
    rows = []
    summary = {}
    for name in ("heat", "euclidean-lsi", "kato", "fp", "check-conditions",
                 "decay", "check-lsi"):
        config = jump_sub if name == "check-conditions" else sub
        header, sub_rows, sub_summary = _RUNNERS[name](config)
        for r in sub_rows:
            rows.append([name] + [f"{h}={_cell(v)}" for h, v in zip(header, r)])
        summary[name] = sub_summary
    return (["experiment", *(f"kv{i}" for i in range(9))], rows, summary)


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
    """Execute the configured experiment; returns the exit status."""
    start = time.time()
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        header, rows, summary = _RUNNERS[cfg.experiment](cfg)
    except QuadratureFailure as exc:
        raise NumericalFailure(str(exc)) from exc

    failures = _count_failures(summary)
    summary_doc = {
        "experiment": cfg.experiment,
        "failures": failures,
        "results": summary,
    }
    try:
        summary_text = json.dumps(summary_doc, indent=2, sort_keys=True,
                                  default=str, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"non-finite value in the summary: {exc}") from exc
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
    if failures:
        raise AssertionFailure(f"{failures} assertion failure(s); see {out_dir}")
    return 0


def _count_failures(summary) -> int:
    total = 0
    if isinstance(summary, dict):
        for key, val in summary.items():
            if key in ("failures", "violation_count") and isinstance(val, int):
                total += val
            # an undominated density (an infinite or runaway ratio) fails
            # the domination condition
            elif key == "unbounded" and val is True:
                total += 1
            elif isinstance(val, dict):
                total += _count_failures(val)
    return total


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Spectral laboratory for Levy semigroups, Fokker-Planck "
        "flows, and entropy inequalities.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="path to a strict-JSON experiment config")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="battery seed (overrides config)")
    parser.add_argument("--tol", type=float, default=None,
                        help="quadrature tolerance (overrides config)")
    sub = parser.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        if name == "heat":
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--t", type=float, default=None)
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--q", type=str, default=None)
            p.add_argument("--input-csv", type=str, default=None)
            p.add_argument("--out-csv", type=str, default=None)
        if name in ("fp", "decay", "steady", "check-conditions"):
            p.add_argument("--triplet-config", type=str, default=None)
        if name == "fp":
            p.add_argument("--t-list", type=str, default=None)
            p.add_argument("--out-csv", type=str, default=None)
        if name == "decay":
            p.add_argument("--phi", type=str, default=None,
                           choices=("xlogx", "quadratic"))
            p.add_argument("--times", type=str, default=None)
            p.add_argument("--C", type=float, default=None)
            p.add_argument("--u0-csv", type=str, default=None)
    return parser


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _number_list(flag: str, text: str) -> list:
    try:
        return [float(s) for s in text.split(",") if s]
    except ValueError:
        raise ConfigError(
            f"{flag} must be a comma-separated list of numbers, got {text!r}"
        ) from None


def _apply_subcommand_flags(args, raw: dict) -> dict:
    sweep = dict(raw.get("sweep", {}))
    for key in ("alpha", "t", "p", "q", "phi"):
        if getattr(args, key, None) is not None:
            sweep[key] = [getattr(args, key)]
    if getattr(args, "t_list", None) is not None:
        sweep["times"] = _number_list("--t-list", args.t_list)
    if getattr(args, "times", None) is not None:
        sweep["times"] = _number_list("--times", args.times)
    if getattr(args, "C", None) is not None:
        sweep["C"] = args.C
    if sweep:
        raw = dict(raw)
        raw["sweep"] = sweep
    triplet_path = getattr(args, "triplet_config", None)
    if triplet_path is not None:
        raw["triplet"] = _read_json(triplet_path, "triplet config")
    return raw


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            raw = _read_json(args.config, "config")
        if args.experiment is None and "experiment" not in raw:
            parser.print_usage(sys.stderr)
            raise ConfigError("no experiment selected")
        raw = _apply_subcommand_flags(args, raw)
        overrides = {
            "experiment": args.experiment,
            "output": args.out,
            "seed": args.seed,
            "tol": args.tol,
            "input_csv": getattr(args, "input_csv", None)
            or getattr(args, "u0_csv", None),
            "out_csv": getattr(args, "out_csv", None),
        }
        cfg = load_config(raw, overrides)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1
    except LevyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
