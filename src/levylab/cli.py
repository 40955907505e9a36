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
from dataclasses import dataclass
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
from .fokker_planck import (
    build_steady_state,
    check_domination,
    check_log_tail,
    fp_evolve,
)
from .heat import kato_check, lsi_gap, verify_hypercontractivity
from .levy import LevyDensity, LevyTriplet, stable_density, triplet_from_config
from .spectral import Grid, SpectralField

EXPERIMENTS = (
    "heat",
    "fp",
    "steady",
    "decay",
    "check-lsi",
    "check-conditions",
    "euclidean-lsi",
    "kato",
    "all",
)

_FMT = "%.17g"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    experiment: str
    grid: Grid
    triplet_spec: dict | None
    sweep: dict
    output: str
    seed: int
    tol: float
    input_csv: str | None = None
    out_csv: str | None = None

    def triplet(self) -> LevyTriplet | None:
        if self.triplet_spec is None:
            return None
        return triplet_from_config(self.triplet_spec)


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


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg)


def _finite(name: str, value) -> float:
    """float(value), rejecting non-numbers, NaN and +-Infinity."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise _fail(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise _fail(f"{name} must be finite, got {value!r}")
    return x


def _finite_array(name: str, value) -> None:
    """Reject a scalar, vector or matrix unless every entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise _fail(f"{name} must be numeric, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise _fail(f"{name} must be finite, got {value!r}")


def _finite_list(name: str, values) -> list:
    if not isinstance(values, (list, tuple)):
        raise _fail(f"{name} must be a list of numbers, got {values!r}")
    return [_finite(name, v) for v in values]


def _parse_q(value):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise _fail(f"exponent q must be numeric or 'inf', got {value!r}")
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
        raise _fail("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise _fail(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val

    experiment = merged.get("experiment")
    if experiment not in EXPERIMENTS:
        raise _fail(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    grid_spec = merged.get("grid", {"d": 1, "L": 20.0, "M": 512})
    if not isinstance(grid_spec, dict) or set(grid_spec) - {"d", "L", "M"}:
        raise _fail(f"grid must be an object with keys d, L, M; got {grid_spec!r}")
    d = grid_spec.get("d", 1)
    L = grid_spec.get("L", 20.0)
    M = grid_spec.get("M", 512)
    if d not in (1, 2):
        raise _fail(f"grid.d must be 1 or 2, got {d!r}")
    if not (isinstance(L, (int, float)) and math.isfinite(L) and L > 0):
        raise _fail(f"grid.L must be positive and finite, got {L!r}")
    if not (isinstance(M, int) and M >= 8 and M & (M - 1) == 0):
        raise _fail(f"grid.M must be a power of two >= 8, got {M!r}")
    grid = Grid(d, float(L), M)

    sweep = dict(_DEFAULT_SWEEP)
    user_sweep = merged.get("sweep", {})
    if not isinstance(user_sweep, dict):
        raise _fail("sweep must be an object")
    bad = set(user_sweep) - _SWEEP_KEYS
    if bad:
        raise _fail(f"unknown sweep keys: {sorted(bad)}")
    sweep.update(user_sweep)
    sweep["alpha"] = _finite_list("alpha", sweep["alpha"])
    for a in sweep["alpha"]:
        if not (0.0 < a <= 2.0):
            raise _fail(f"alpha must lie in (0, 2], got {a}")
    sweep["p"] = _finite_list("exponent p", sweep["p"])
    if not isinstance(sweep["q"], (list, tuple)):
        raise _fail(f"q must be a list, got {sweep['q']!r}")
    sweep["q"] = [_parse_q(q) for q in sweep["q"]]
    for p in sweep["p"]:
        if p < 1.0:
            raise _fail(f"exponent p must be >= 1, got {p}")
    for q in sweep["q"]:
        if q < 1.0:
            raise _fail(f"exponent q must be >= 1, got {q}")
    sweep["t"] = _finite_list("t", sweep["t"])
    sweep["times"] = _finite_list("times", sweep["times"])
    for t in sweep["t"] + sweep["times"]:
        if t < 0.0:
            raise _fail(f"times must be nonnegative, got {t}")
    for name in sweep["phi"]:
        if name not in ("xlogx", "quadratic"):
            raise _fail(f"phi must be xlogx or quadratic, got {name!r}")
    sweep["C"] = _finite("C", sweep["C"])
    if sweep["C"] <= 0.0:
        raise _fail(f"C must be positive, got {sweep['C']}")
    if sweep["family"] not in FAMILIES:
        raise _fail(f"family must be one of {FAMILIES}, got {sweep['family']!r}")

    seed = merged.get("seed", 7)
    if not isinstance(seed, int) or seed < 0:
        raise _fail(f"seed must be a nonnegative integer, got {seed!r}")
    tol = merged.get("tol", 1e-10)
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and 0 < tol < 1):
        raise _fail(f"tol must lie in (0, 1), got {tol!r}")
    output = merged.get("output", "levylab-out")
    if not isinstance(output, str) or not output:
        raise _fail(f"output must be a nonempty path, got {output!r}")

    triplet_spec = merged.get("triplet")
    if triplet_spec is not None and not isinstance(triplet_spec, dict):
        raise _fail("triplet must be an object")
    for key in ("sigma", "b"):
        if triplet_spec is not None and key in triplet_spec:
            _finite_array(f"triplet.{key}", triplet_spec[key])

    io = overrides or {}
    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        triplet_spec=triplet_spec,
        sweep=sweep,
        output=output,
        seed=seed,
        tol=float(tol),
        input_csv=io.get("input_csv"),
        out_csv=io.get("out_csv"),
    )


def _phi_by_name(name: str) -> PhiFunction:
    return PhiFunction.xlogx() if name == "xlogx" else PhiFunction.quadratic()


def _default_triplet(cfg: ExperimentConfig) -> LevyTriplet:
    tr = cfg.triplet()
    if tr is not None:
        return tr
    alpha = cfg.sweep["alpha"][0]
    d = cfg.grid.d
    return LevyTriplet(
        sigma=np.zeros((d, d)), b=np.zeros(d), nu=stable_density(alpha, d), d=d
    )


def _battery(cfg: ExperimentConfig, steady=None):
    fields = generate_test_fields(cfg.grid, cfg.seed, cfg.sweep["family"], steady)
    return list(enumerate(fields))


# ---------------------------------------------------------------------------
# experiment bodies: each returns (header, rows, summary)


def _run_heat(cfg: ExperimentConfig):
    if cfg.input_csv is not None:
        fields = [(0, SpectralField.from_csv(cfg.grid, cfg.input_csv))]
    else:
        fields = _battery(cfg)
    tasks = [
        (alpha, p, q, t, idx, f)
        for alpha in cfg.sweep["alpha"]
        for p in cfg.sweep["p"]
        for q in cfg.sweep["q"]
        for t in cfg.sweep["t"]
        for idx, f in fields
    ]

    def work(task):
        alpha, p, q, t, idx, f = task
        rep = verify_hypercontractivity(f, alpha=alpha, p=p, q=q, t=t)
        return [alpha, p, q, t, idx, rep.lhs, rep.rhs, rep.ratio,
                int(not rep.violated)]

    rows = [work(task) for task in tasks]
    fails = sum(1 for r in rows if not r[-1])
    summary = {
        "checked": len(rows),
        "failures": fails,
        "worst_ratio": max(r[7] for r in rows) if rows else 0.0,
    }
    return (["alpha", "p", "q", "t", "field", "lhs", "rhs", "ratio", "pass"],
            rows, summary)


def _run_euclidean_lsi(cfg: ExperimentConfig):
    tasks = [
        (alpha, idx, f)
        for alpha in cfg.sweep["alpha"]
        for idx, f in _battery(cfg)
    ]

    def work(task):
        alpha, idx, f = task
        lhs, rhs = lsi_gap(f, alpha)
        ok = lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
        return [alpha, idx, lhs, rhs, rhs - lhs, int(ok)]

    rows = [work(task) for task in tasks]
    fails = sum(1 for r in rows if not r[-1])
    summary = {
        "checked": len(rows),
        "failures": fails,
        "smallest_gap": min(r[4] for r in rows) if rows else 0.0,
    }
    return (["alpha", "field", "lhs", "rhs", "gap", "pass"], rows, summary)


_KATO_PHIS = {
    "r2": (lambda v: v * v, lambda v: 2.0 * v),
    "r3/2": (
        lambda v: np.abs(v) ** 1.5,
        lambda v: 1.5 * np.sign(v) * np.sqrt(np.abs(v)),
    ),
}


def _run_kato(cfg: ExperimentConfig):
    fields = _battery(cfg)
    tasks = [
        (alpha, name, idx, f)
        for alpha in cfg.sweep["alpha"]
        for name in sorted(_KATO_PHIS)
        for idx, f in fields
    ]

    def work(task):
        alpha, name, idx, f = task
        p, dp = _KATO_PHIS[name]
        rep = kato_check(f, p, dp, alpha=alpha)
        return [alpha, name, idx, rep.max_violation, rep.scale, int(rep.passed)]

    rows = [work(task) for task in tasks]
    fails = sum(1 for r in rows if not r[-1])
    summary = {
        "checked": len(rows),
        "failures": fails,
        "worst_violation": max(r[3] for r in rows) if rows else 0.0,
    }
    return (["alpha", "phi", "field", "max_violation", "scale", "pass"],
            rows, summary)


def _run_fp(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    u0 = _battery(cfg, steady.density if cfg.sweep["family"] ==
                  "perturbed-steady" else None)[0][1]
    cell = cfg.grid.dx**cfg.grid.d
    rows = []
    for t in sorted(cfg.sweep["times"]):
        u = fp_evolve(u0, tr, t, cfg.tol)
        dist = float(np.sum(np.abs(u.values - steady.density.values)) * cell)
        rows.append([t, u.mass(), dist])
    summary = {"final_distance": rows[-1][2] if rows else 0.0,
               "mass_drift": max(abs(r[1] - u0.mass()) for r in rows)}
    return (["t", "mass", "l1_distance_to_steady"], rows, summary)


def _run_steady(cfg: ExperimentConfig, out_dir: Path):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    steady.density.to_csv(out_dir / "steady_density.csv")
    dom = check_domination(tr.nu, tol=cfg.tol) if tr.nu is not None else None
    tail = check_log_tail(tr.nu, cfg.tol)
    report = {
        "con1": tail.value,
        "con1_diverged": tail.diverged,
        "con2_C": (dom.C_est if dom is not None else 0.0),
        "con2_unbounded": (dom.unbounded if dom is not None else False),
        "bA": [float(b) for b in np.atleast_1d(steady.drift_correction)],
        "normalization_defect": steady.mass_defect,
    }
    rows = [[k, json.dumps(v)] for k, v in sorted(report.items())]
    return (["key", "value"], rows, report)


def _run_check_conditions(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    if tr.nu is None:
        raise _fail("check-conditions needs a triplet with a jump density")
    rep = check_domination(tr.nu, tol=cfg.tol)
    rows = [[z, ratio] for z, ratio in rep.table]
    summary = {"C_est": rep.C_est, "unbounded": rep.unbounded}
    return (["z", "ratio"], rows, summary)


def _run_decay(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    if cfg.input_csv is not None:
        u0 = SpectralField.from_csv(cfg.grid, cfg.input_csv)
    else:
        u0 = _battery_steady_field(cfg, steady)
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


def _battery_steady_field(cfg: ExperimentConfig, steady) -> SpectralField:
    fields = generate_test_fields(
        cfg.grid, cfg.seed, "perturbed-steady", steady.density
    )
    return fields[0]


def _run_check_lsi(cfg: ExperimentConfig):
    tr = _default_triplet(cfg)
    steady = build_steady_state(tr, cfg.grid, cfg.tol)
    if tr.nu is not None and tr.nu.kind == "stable":
        alpha = tr.nu.alpha
        nu_mu = LevyDensity(
            kind="analytic",
            d=tr.d,
            func=lambda z, _n=tr.nu, _a=alpha: _n(z) / _a,
            is_even=True,
        )
    else:
        nu_mu = None
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
    fails = sum(1 for r in rows if not r[-1])
    summary = {
        "checked": len(rows),
        "failures": fails,
        "worst_ratio": max(r[4] for r in rows) if rows else 0.0,
    }
    return (["phi", "field", "entropy", "rhs", "ratio", "pass"], rows, summary)


def _run_all(cfg: ExperimentConfig):
    """Composite desk-scale suite: every experiment on capped grids."""
    cap = 512 if cfg.grid.d == 1 else 128
    grid = cfg.grid if cfg.grid.M <= cap else Grid(cfg.grid.d, cfg.grid.L, cap)
    triplet_spec = cfg.triplet_spec
    if triplet_spec is None:
        # pure-diffusion default: its steady state and flow are resolved
        # exactly at desk-scale grids, so the suite's verdicts are honest
        triplet_spec = {"d": grid.d, "sigma": 1.0, "b": [0.0] * grid.d}
    sub = ExperimentConfig(
        experiment="all",
        grid=grid,
        triplet_spec=triplet_spec,
        sweep=cfg.sweep,
        output=cfg.output,
        seed=cfg.seed,
        tol=cfg.tol,
    )
    jump_sub = ExperimentConfig(
        experiment="all",
        grid=grid,
        triplet_spec={
            "d": grid.d,
            "sigma": 0.0,
            "b": [0.0] * grid.d,
            "nu": {"kind": "stable", "alpha": 1.0},
        },
        sweep=cfg.sweep,
        output=cfg.output,
        seed=cfg.seed,
        tol=cfg.tol,
    )
    rows = []
    summary = {}
    for name, runner, config in (
        ("heat", _run_heat, sub),
        ("euclidean-lsi", _run_euclidean_lsi, sub),
        ("kato", _run_kato, sub),
        ("fp", _run_fp, sub),
        ("check-conditions", _run_check_conditions, jump_sub),
        ("decay", _run_decay, sub),
        ("check-lsi", _run_check_lsi, sub),
    ):
        header, sub_rows, sub_summary = runner(config)
        for r in sub_rows:
            rows.append([name] + [f"{h}={_cell(v)}" for h, v in zip(header, r)])
        summary[name] = sub_summary
    return (["experiment", *(f"kv{i}" for i in range(9))], rows, summary)


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
        if cfg.experiment == "heat":
            header, rows, summary = _run_heat(cfg)
        elif cfg.experiment == "euclidean-lsi":
            header, rows, summary = _run_euclidean_lsi(cfg)
        elif cfg.experiment == "kato":
            header, rows, summary = _run_kato(cfg)
        elif cfg.experiment == "fp":
            header, rows, summary = _run_fp(cfg)
        elif cfg.experiment == "steady":
            header, rows, summary = _run_steady(cfg, out_dir)
        elif cfg.experiment == "check-conditions":
            header, rows, summary = _run_check_conditions(cfg)
        elif cfg.experiment == "decay":
            header, rows, summary = _run_decay(cfg)
        elif cfg.experiment == "check-lsi":
            header, rows, summary = _run_check_lsi(cfg)
        else:
            header, rows, summary = _run_all(cfg)
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


def _apply_subcommand_flags(args, raw: dict) -> dict:
    sweep = dict(raw.get("sweep", {}))
    if getattr(args, "alpha", None) is not None:
        sweep["alpha"] = [args.alpha]
    if getattr(args, "t", None) is not None:
        sweep["t"] = [args.t]
    if getattr(args, "p", None) is not None:
        sweep["p"] = [args.p]
    if getattr(args, "q", None) is not None:
        sweep["q"] = [args.q]
    if getattr(args, "t_list", None) is not None:
        sweep["times"] = [float(s) for s in args.t_list.split(",") if s]
    if getattr(args, "times", None) is not None:
        sweep["times"] = [float(s) for s in args.times.split(",") if s]
    if getattr(args, "phi", None) is not None:
        sweep["phi"] = [args.phi]
    if getattr(args, "C", None) is not None:
        sweep["C"] = args.C
    if sweep:
        raw = dict(raw)
        raw["sweep"] = sweep
    triplet_path = getattr(args, "triplet_config", None)
    if triplet_path is not None:
        with open(triplet_path) as fh:
            raw["triplet"] = json.load(fh)
    return raw


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
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
