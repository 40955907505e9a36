"""Experiment runner: config parsing, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import levylab
from levylab import (
    Grid,
    apply_multiplier,
    build_steady_state,
    cli,
    entropy,
    fp_evolve,
    gaussian_field,
    generate_test_fields,
    lp_norm,
    lsi_constant,
    verify_hypercontractivity,
)
from levylab.cli import load_config, main
from levylab.errors import ConfigError, QuadratureFailure
from levylab.fields import FAMILIES, _iter_fields

from conftest import (count_integrals, count_transforms, full_freqs, half_operator_norm,
                      log_tail_table, one_sided_table)


def write_config(path, **overrides):
    cfg = {
        "experiment": "heat",
        "grid": {"d": 1, "L": 20.0, "M": 128},
        "sweep": {"alpha": [1.0], "p": [2.0], "q": [4.0], "t": [0.5]},
        "seed": 3,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


# every numeric config field with the path that sets it
NUMERIC_FIELDS = ["grid.L", "alpha", "p", "t", "times", "C", "tol"]


def config_with(field, value):
    cfg = {"experiment": "decay", "grid": {"d": 1, "L": 20.0, "M": 128}}
    if field == "grid.L":
        cfg["grid"]["L"] = value
    elif field == "tol":
        cfg["tol"] = value
    else:
        # p >= 2: the valid companion entry must not itself be refused
        cfg["sweep"] = {field: value if field == "C" else
                        [2.0 if field == "p" else 1.0, value]}
    return cfg


class TestLoadConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"experiment": "heat", "bogus": 1})

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"experiment": "heat", "sweep": {"gamma": [1.0]}})

    @pytest.mark.parametrize(
        "grid", [{"d": 3, "L": 20.0, "M": 128}, {"d": 1, "L": 20.0, "M": -128},
                 {"d": 1, "L": 0.0, "M": 128}, {"d": 1.0, "L": 20.0, "M": 128},
                 {"d": True, "L": 20.0, "M": 128}]
    )
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ConfigError):
            load_config({"experiment": "heat", "grid": grid})

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"experiment": "heat", "sweep": {"alpha": [2.5]}})

    def test_infinite_exponent_accepted(self):
        cfg = load_config({"experiment": "heat", "sweep": {"q": ["inf"]}})
        assert cfg.sweep["q"][0] == float("inf")
        cfg = load_config({"experiment": "heat", "sweep": {"q": [math.inf]}})
        assert cfg.sweep["q"][0] == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_non_finite_number_rejected(self, field, bad):
        with pytest.raises(ConfigError):
            load_config(config_with(field, bad))

    def test_nan_exponent_q_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"experiment": "heat", "sweep": {"q": [math.nan]}})


class TestExitCodes:
    def test_malformed_config_exits_2_without_output(self, tmp_path):
        path = write_config(tmp_path / "c.json", grid={"d": 1, "L": 20.0, "M": -8})
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"experiment": "heat", "sweep": {"t": [NaN], "p": [NaN]}}',
        '{"experiment": "decay", "sweep": {"C": NaN, "times": [NaN, Infinity]}}',
        '{"experiment": "fp", "grid": {"d": 1, "L": 20, "M": 128}, "triplet": '
        '{"d": 1, "sigma": NaN, "b": 0.0}, "sweep": {"times": [0.5]}}',
        '{"experiment": "fp", "grid": {"d": 1, "L": 20, "M": 128}, "triplet": '
        '{"d": 1, "sigma": 0.5, "b": Infinity}, "sweep": {"times": [0.5]}}',
    ], ids=["heat", "decay", "fp-sigma-nan", "fp-b-inf"])
    def test_non_finite_config_exits_2_without_output(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"experiment": "heat", "seed": true}',
        '{"experiment": "heat", "grid": {"d": 1, "L": true, "M": 128}}',
        '{"experiment": "heat", "sweep": {"alpha": [true]}}',
        '{"experiment": "decay", "sweep": {"C": true}}',
    ], ids=["seed", "grid-L", "alpha", "C"])
    def test_boolean_number_exits_2_without_output(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_undominated_table_exits_1(self, tmp_path):
        # the table is zero below its first knot, where N_inf is not: the
        # ratio column holds inf, so the run may not exit 0
        trip = tmp_path / "trip.json"
        trip.write_text(json.dumps({"d": 1, "nu": {
            "kind": "tabulated",
            "table_path": str(log_tail_table(tmp_path / "nu.csv"))}}))
        path = write_config(tmp_path / "c.json", experiment="check-conditions")
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out), "check-conditions",
                   "--triplet-config", str(trip)])
        assert rc == 1
        assert "inf" in (out / "results.csv").read_text()
        assert strict_json((out / "summary.json").read_text())["results"]["unbounded"]

    def test_left_only_table_exits_1(self, tmp_path):
        # jumps to the left only: N_inf / N grows at small |z| on z < 0,
        # which the check samples as well as z > 0
        z = -np.linspace(0.01, 30.0, 400)[::-1]
        table = tmp_path / "nu.csv"
        np.savetxt(table, np.column_stack([z, np.exp(-np.abs(z)) / np.abs(z)]),
                   delimiter=",", fmt="%.17g")
        path = write_config(tmp_path / "c.json", experiment="check-conditions",
                            triplet={"d": 1, "sigma": 0.0, "b": [0.0], "nu": {
                                "kind": "tabulated", "table_path": str(table)}})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        results = strict_json((out / "summary.json").read_text())["results"]
        assert results["unbounded"]
        assert results["C_est"] == pytest.approx(6.22, abs=5e-3)

    @pytest.mark.parametrize("rows", [
        "0.5,1.0\n1.0,-0.2\n2.0,0.1\n",
        "0.5,1.0\n1.0,nan\n2.0,0.1\n",
        "0.5,1.0\n1.0,0.5\ninf,0.1\n",
    ], ids=["negative-n", "nan-n", "inf-z"])
    def test_malformed_table_exits_2_without_output(self, tmp_path, rows):
        table = tmp_path / "nu.csv"
        table.write_text(rows)
        path = write_config(tmp_path / "c.json", experiment="steady", triplet={
            "d": 1, "nu": {"kind": "tabulated", "table_path": str(table)}})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["heat", "euclidean-lsi", "kato", "all"])
    def test_perturbed_steady_without_steady_state_exits_2_without_output(
            self, tmp_path, experiment):
        path = write_config(tmp_path / "c.json", experiment=experiment,
                            sweep={"family": "perturbed-steady"})
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid_d, triplet", [
        (1, {"d": 3, "sigma": 1.0}),
        (2, {"d": 3, "sigma": 1.0}),
        (1, {"d": 2, "sigma": 1.0, "b": [0, 0]}),
        (2, {"sigma": 1.0}),
        (1, {"d": 1, "nu": {"kind": "gauss"}}),
        (1, {"d": 1, "nu": {"kind": "stable", "alpha": 2.5}}),
        (1, {"d": 1, "sigma": 1.0, "bogus": 1}),
        (1, {"d": 1, "nu": {"kind": "stable", "alpha": 1.0, "whatever": 1}}),
        (1, {"d": 1.5, "sigma": 1.0}),
        (1, {"d": "1", "sigma": 1.0}),
        (1, {"d": True, "sigma": 1.0}),
    ], ids=["d3-on-d1", "d3-on-d2", "d2-on-d1", "no-d-on-d2", "unknown-kind",
            "alpha-2.5", "unknown-key", "unknown-nu-key", "d-1.5", "d-string",
            "d-true"])
    def test_invalid_triplet_exits_2_without_output(self, tmp_path, capsys,
                                                     grid_d, triplet):
        trip = tmp_path / "trip.json"
        trip.write_text(json.dumps(triplet))
        path = write_config(tmp_path / "c.json",
                            grid={"d": grid_d, "L": 10.0, "M": 32})
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out), "fp",
                   "--triplet-config", str(trip)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("d, triplet, named", [
        (2, {"d": 2, "sigma": 1.0, "b": 0.0}, "triplet.b must have shape (2,) at d = 2"),
        (2, {"d": 2, "sigma": [1.0, 2.0]}, "triplet.sigma must have shape (2, 2) at d = 2"),
        (1, {"d": 1, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
         "triplet.sigma must have shape (1, 1) at d = 1"),
    ], ids=["scalar-b-d2", "vector-sigma-d2", "matrix-sigma-d1"])
    def test_triplet_of_the_wrong_shape_names_the_key(self, tmp_path, capsys, d,
                                                      triplet, named):
        path = write_config(tmp_path / "c.json", experiment="fp", triplet=triplet,
                            grid={"d": d, "L": 10.0, "M": 32})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["fp", "steady", "decay", "check-lsi",
                                            "check-conditions"])
    def test_default_stable_alpha_2_exits_2_without_output(self, tmp_path, capsys,
                                                           experiment):
        # the default triplet is the stable density of alpha[0]; alpha = 2
        # is a Gaussian, which the stable family does not take
        path = write_config(tmp_path / "c.json", experiment=experiment,
                            sweep={"alpha": [2.0, 1.0]})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "alpha[0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key", [
        ("fp", "alpha"), ("heat", "alpha"), ("heat", "p"), ("heat", "q"),
        ("heat", "t"), ("decay", "phi"), ("decay", "times")])
    def test_empty_sweep_list_exits_2_without_output(self, tmp_path, capsys,
                                                      experiment, key):
        # fp died in an IndexError on alpha[0]; heat ran zero checks, exit 0
        path = write_config(tmp_path / "c.json", experiment=experiment,
                            sweep={key: []})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert f"sweep.{key} must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, argv, named", [
        ({"experiment": "heat", "sweep": {"p": [1.5]}}, [], "sweep.p"),
        ({"experiment": "heat", "sweep": {"p": [4], "q": [2]}}, [], "q >= p"),
        ({"experiment": "heat", "sweep": {"p": [4], "q": ["inf"]}}, [], "q >= p"),
        ({"experiment": "heat", "sweep": {"t": [0]}}, [], "sweep.t"),
        ({"experiment": "all", "sweep": {"t": [0]}}, [], "sweep.t"),
        ({"experiment": "decay", "sweep": {"phi": 3}}, [], "sweep.phi"),
        ({"experiment": "steady", "triplet": {"nu": {"kind": "stable", "alpha": True}}},
         [], "triplet.nu.alpha"),
        ({"experiment": "steady", "triplet": {"nu": {"kind": "stable", "alpha": "1.5"}}},
         [], "triplet.nu.alpha"),
        ({"experiment": "steady", "triplet": {"nu": {"kind": "tabulated",
                                                     "table_path": 3}}},
         [], "triplet.nu.table_path"),
        ({"experiment": "steady", "triplet": {"nu": {"kind": "stable"}}},
         [], "triplet.nu.alpha"),
        ({"experiment": "decay", "sweep": {"phi": ["xlogx", "xlogx"]}}, [], "sweep.phi"),
        ([1], ["heat"], "config must be an object"),
        ({"experiment": "heat", "sweep": [1]}, ["heat"], "sweep must be an object"),
    ], ids=["p-1.5", "q-below-p", "q-inf-p-4", "heat-t-0", "all-t-0", "phi-3",
            "nu-alpha-true", "nu-alpha-string", "table-path-3", "nu-alpha-missing",
            "phi-twice", "config-list", "sweep-list"])
    def test_config_hole_exits_2_without_output(self, tmp_path, capsys, config, argv,
                                                named):
        # each once got past load_config: to exit 3 or 1 after making the
        # output directory, a traceback, a file descriptor opened as the
        # table, or each decay violation counted twice
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), *argv]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_empty_t_list_flag_exits_2_without_output(self, tmp_path):
        path = write_config(tmp_path / "c.json", experiment="fp")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "fp",
                     "--t-list", ""]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["check-lsi", "all"])
    def test_check_lsi_runs_on_a_table(self, tmp_path, monkeypatch, experiment):
        # mu's jump density N_inf is the table's tail integral, exact per knot
        # segment, so a table needs no refusal
        table = log_tail_table(tmp_path / "nu.csv")
        raw = dict(experiment=experiment, grid={"d": 1, "L": 20.0, "M": 256},
                   triplet={"d": 1, "sigma": 0.0, "b": 0.0, "nu": {
                       "kind": "tabulated", "table_path": str(table)}})
        assert load_config(raw).triplet.nu.kind == "tabulated"
        if experiment == "all":
            # the other six runners take about 30 s on a table; what all adds
            # here is that its check-lsi part gets the table's triplet
            for name in ("heat", "euclidean-lsi", "kato", "fp",
                         "check-conditions", "decay"):
                monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: ([], [], {}, 0, {}))
        out = tmp_path / "out"
        start = time.perf_counter()
        code = main(["--config", str(write_config(tmp_path / "c.json", **raw)),
                     "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert code in (0, 1)
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if experiment == "all":
            assert all(row[0] == "check-lsi" for row in rows)
            rows = [row[1:] for row in rows]
        cells = [c for row in rows for c in row]
        assert len(cells) == 8 * 6
        assert all(math.isfinite(v) for c in cells for v in _numbers(c))

    @pytest.mark.parametrize("experiment", ["check-lsi", "all"])
    def test_check_lsi_without_sigma_or_nu_exits_2_without_output(
            self, tmp_path, capsys, experiment):
        # the invariant law is a point mass: every entropy and rhs is 0, so
        # a run would report 8 checks and 0 failures having checked nothing
        path = write_config(tmp_path / "c.json", experiment=experiment,
                            grid={"d": 1, "L": 20.0, "M": 256},
                            triplet={"d": 1, "sigma": 0.0, "b": 0.0})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "diffusion sigma or a jump density nu" in capsys.readouterr().err
        assert not out.exists()

    def test_check_conditions_without_jumps_exits_2_without_output(self, tmp_path):
        path = write_config(tmp_path / "c.json", experiment="check-conditions",
                            triplet={"d": 1, "sigma": 1.0, "b": 0.0})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["decay", "--times", "0.5,abc"],
        ["fp", "--t-list", "0.5,abc"],
        ["fp", "--triplet-config", "missing.json"],
        ["fp", "--triplet-config", "malformed.json"],
        ["decay", "--phi", "bogus"],
        ["--seed", "abc", "decay"],
        ["decay", "--C", "abc"],
        ["heat", "--q", "four"],
    ], ids=["times", "t-list", "missing-triplet", "malformed-triplet", "phi", "seed",
            "C", "q"])
    def test_bad_flag_value_exits_2_without_output(self, tmp_path, capsys,
                                                   monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "malformed.json").write_text('{"d": 1,')
        path = write_config(tmp_path / "c.json")
        rc = main(["--config", str(path), "--out", "out", *flags])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, key", [
        (["heat", "--q", "-inf"], "sweep.q"),
        (["--seed", "-Infinity", "heat"], "seed"),
    ], ids=["q", "seed"])
    def test_flag_text_starting_with_a_dash_reaches_its_row(self, tmp_path, capsys,
                                                            flags, key):
        # argparse alone takes "-inf" for an option and exits with a usage error
        out = tmp_path / "out"
        assert main(["--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["heat", "--input-csv"],
                                       ["decay", "--u0-csv"]],
                             ids=["heat", "decay"])
    @pytest.mark.parametrize("text", [None, "x0,value\n0.0,1.0\n"],
                             ids=["missing", "two-lines"])
    def test_unreadable_input_csv_exits_2_without_output(self, tmp_path, capsys,
                                                         flags, text):
        csv_path = tmp_path / "u0.csv"
        if text is not None:
            csv_path.write_text(text)
        out = tmp_path / "out"
        rc = main(["--config", str(write_config(tmp_path / "c.json")),
                   "--out", str(out), *flags, str(csv_path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("written, grid", [
        (Grid(1, 10.0, 128), {"d": 1, "L": 20.0, "M": 128}),
        (Grid(1, 20.0, 64), {"d": 2, "L": 20.0, "M": 8}),
    ], ids=["other-box", "other-dimension"])
    def test_input_csv_from_another_grid_exits_2_without_output(
            self, tmp_path, capsys, written, grid):
        u0 = tmp_path / "u0.csv"
        gaussian_field(written).to_csv(u0)
        out = tmp_path / "out"
        rc = main(["--config", str(write_config(tmp_path / "c.json", grid=grid)),
                   "--out", str(out), "heat", "--input-csv", str(u0)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_heat_input_csv_is_the_battery(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        u0 = tmp_path / "u0.csv"
        gaussian_field(Grid(1, 20.0, 128)).to_csv(u0)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "heat",
                     "--input-csv", str(u0)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert [r.split(",")[4] for r in rows[1:]] == ["0"]

    def test_check_conditions_d2_exits_0(self, tmp_path):
        # the alpha = 1 stable density: N_inf / N = 1 / alpha exactly
        path = write_config(tmp_path / "c.json", experiment="check-conditions",
                            grid={"d": 2, "L": 10.0, "M": 64})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"] == {"C_est": 1.0, "unbounded": False}

    def test_heat_sweep_passes(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert rows[0] == "alpha,p,q,t,field,lhs,rhs,ratio,pass"
        assert len(rows) == 10  # nine battery fields
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == 0
        assert (out / "run.log").exists()

    def test_undersized_decay_constant_exits_1(self, tmp_path):
        # a bound rate of 10 is far above the true decay rate
        path = write_config(
            tmp_path / "c.json",
            experiment="decay",
            grid={"d": 1, "L": 20.0, "M": 256},
            triplet={"d": 1, "sigma": 1.0, "b": 0.0},
            sweep={"phi": ["quadratic"], "times": [0.25, 0.5, 1.0], "C": 0.1},
        )
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["quadratic"]["violations"]

    def _decay_from_csv(self, tmp_path, edit=None):
        """decay from the steady density of a pure-diffusion triplet."""
        path = write_config(
            tmp_path / "c.json",
            grid={"d": 1, "L": 20.0, "M": 128},
            triplet={"d": 1, "sigma": 1.0, "b": 0.0},
            sweep={"times": [0.25, 0.5]},
        )
        steady = tmp_path / "steady"
        assert main(["--config", str(path), "--out", str(steady), "steady"]) == 0
        u0 = steady / "steady_density.csv"
        if edit is not None:
            lines = u0.read_text().splitlines()
            lines = edit(lines)
            u0 = tmp_path / "u0.csv"
            u0.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["--config", str(path), "--out", str(out), "decay",
                   "--u0-csv", str(u0)])
        return rc, strict_json((out / "summary.json").read_text())

    def test_decay_from_steady_data_writes_null_rate(self, tmp_path):
        # every entropy is at round-off: no rate can be fitted
        rc, summary = self._decay_from_csv(tmp_path)
        assert rc == 0
        assert summary["results"]["xlogx"]["fitted_rate"] is None
        assert summary["results"]["violation_count"] == 0

    def test_decay_with_nan_cell_exits_1(self, tmp_path):
        def poison(lines):
            x, _ = lines[60].rsplit(",", 1)
            lines[60] = f"{x},nan"
            return lines

        rc, summary = self._decay_from_csv(tmp_path, poison)
        assert rc == 1
        assert summary["results"]["violation_count"] == 2

    def test_heat_bound_of_0_exits_3_without_summary(self, tmp_path):
        # at t = 1e308 the bound is 0: its ratio is inf, not a ZeroDivisionError;
        # on this grid |xi| < 1, so t |xi|^alpha itself stays finite
        path = write_config(tmp_path / "c.json", grid={"d": 1, "L": 20.0, "M": 8},
                            sweep={"t": [1e308]})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("q", ["3", "inf"])
    def test_heat_bound_past_the_largest_float_exits_3(self, tmp_path, capsys, q):
        # at alpha = 2e-4 the smoothing bound is e^4929 for q = 3: no rhs cell
        # can hold it, and an infinite one would read as ratio 0, a pass
        out = tmp_path / "out"
        rc = main(["--out", str(out), "heat", "--alpha", "0.0002", "--p", "2",
                   "--q", q, "--t", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: the smoothing bound e^")
        assert not out.exists()

    def test_heat_bound_in_logs_is_finite(self, tmp_path):
        # at alpha = 1.5e-3 a power of the closed form passes the largest
        # float but the bound, 2.35e188, does not: it is taken in logs
        out = tmp_path / "out"
        assert main(["--out", str(out), "heat", "--alpha", "0.0015", "--p", "2",
                     "--q", "3", "--t", "1"]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            rhs, ratio = float(row["rhs"]), float(row["ratio"])
            assert 1e180 < rhs < math.inf and ratio == float(row["lhs"]) / rhs

    def test_steady_without_jumps_d2(self, tmp_path):
        # the zero law of a d=2 triplet: b_A of its dimension, Con1 and Con2 0
        path = write_config(tmp_path / "c.json", experiment="steady",
                            grid={"d": 2, "L": 10.0, "M": 32},
                            triplet={"d": 2, "sigma": 1.0, "b": [0.0, 0.0],
                                     "nu": None})
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        summary = strict_json((out / "summary.json").read_text())["results"]
        assert summary["bA"] == [0.0, 0.0]
        assert summary["con1"] == 0.0 and summary["con2_C"] == 0.0
        assert summary["con2_unbounded"] is False and summary["con1_diverged"] is False

    def test_non_finite_summary_exits_3_without_summary(self, tmp_path, monkeypatch):
        def runner(cfg):
            return ["x"], [[1.0]], {"worst_ratio": math.inf}, 0, {}

        monkeypatch.setitem(cli._RUNNERS, "heat", runner)
        out = tmp_path / "out"
        rc = main(["--config", str(write_config(tmp_path / "c.json")),
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_quadrature_failure_exits_3_without_output(self, tmp_path, monkeypatch,
                                                        capsys):
        def runner(cfg):
            raise QuadratureFailure("tolerance 1e-10 not reached")

        monkeypatch.setitem(cli._RUNNERS, "heat", runner)
        out = tmp_path / "out"
        rc = main(["--config", str(write_config(tmp_path / "c.json")),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: tolerance 1e-10 not reached\n")
        assert not out.exists()


def _numbers(cell):
    """The numbers in a results.csv cell: a number, a ``key=number`` pair or
    a JSON list of numbers; none for text or a boolean."""
    text = cell.split("=", 1)[-1]
    try:
        value = json.loads(text)
    except ValueError:
        try:
            return [float(text)]
        except ValueError:
            return []
    values = value if isinstance(value, list) else [value]
    return [v for v in values if type(v) in (int, float)]


_FINITE = {"allow_nan": False, "allow_infinity": False}


def _within(lo=None, hi=None, **edges):
    """Finite floats in [lo, hi], an end left out by exclude_min/exclude_max."""
    return st.floats(lo, hi, **_FINITE, **edges)


def _some(values, most=2):
    return st.lists(values, min_size=1, max_size=most)


@st.composite
def _configs(draw):
    """A config whose numeric rows are each drawn from the whole range that
    ``cli.TABLE`` accepts, edges included.  grid.M alone is drawn from its
    small end, {8, 16}: a larger grid lengthens a run but moves no number
    toward a range's edge.  The triplet has d = grid.d, a scalar sigma and a
    stable nu, if any; the rules between keys refuse some draws (exit 2)."""
    d = draw(st.sampled_from([1, 2]))
    p = draw(_some(_within(2.0)))
    nu = draw(st.none() | st.builds(lambda a: {"kind": "stable", "alpha": a},
                                    _within(0.0, 2.0, exclude_min=True, exclude_max=True)))
    triplet = draw(st.none() | st.fixed_dictionaries({
        "d": st.just(d), "sigma": _within(0.0),
        "b": st.lists(_within(), min_size=d, max_size=d), "nu": st.just(nu)}))
    return {
        "experiment": draw(st.sampled_from(cli.EXPERIMENTS)),
        "grid": {"d": d, "L": draw(_within(0.0, exclude_min=True)),
                 "M": draw(st.sampled_from([8, 16]))},
        "triplet": triplet,
        "sweep": {
            "alpha": draw(_some(_within(0.0, 2.0, exclude_min=True))),
            "p": p,
            "q": draw(_some(st.just("inf") | _within(max(p)))),
            "t": draw(_some(_within(0.0, exclude_min=True))),
            "C": draw(_within(0.0, exclude_min=True)),
            "times": draw(_some(_within(0.0), 3)),
            "family": draw(st.sampled_from(FAMILIES)),
            "phi": draw(st.lists(st.sampled_from(sorted(cli.PHIS)), min_size=1,
                                 max_size=2, unique=True)),
        },
        "seed": draw(st.integers(min_value=0)),
        "tol": draw(_within(0.0, 1.0, exclude_min=True, exclude_max=True)),
    }


def _edge(experiment, grid=None, **rows):
    """A config at an edge of the accepted ranges: d = 1, L = 5, M = 16 unless
    ``grid`` says otherwise."""
    return {"experiment": experiment, "grid": {"d": 1, "L": 5.0, "M": 16, **(grid or {})},
            **rows}


# small grids put mass at the Nyquist edge of the fp and decay flows on purpose,
# and an edge value may over- or underflow a float on its way to an exit code,
# which a warning does not change; a non-finite cell at exit 0 fails below
@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_configs())
# each of the first four ended in a traceback: C / alpha^2 and 2 alpha t
# underflowing to a float division by zero, np.polyfit on times near 0
# (LinAlgError), and dx**d past the largest float; the fifth, a dx past the
# largest float, exited 0 with a NaN entropy that read as a pass
@example(raw=_edge("steady", triplet={"d": 1, "nu": {"kind": "stable", "alpha": 1e-300}}))
@example(raw=_edge("heat", sweep={"alpha": [1e-300], "t": [1e-300], "p": [2.0],
                                  "q": ["inf"]}))
@example(raw=_edge("decay", sweep={"times": [1e-300]}))
@example(raw=_edge("heat", grid={"d": 2, "L": 1e300}))
@example(raw=_edge("decay", grid={"L": 1.7e308}, sweep={"times": [0.0]}))
def test_exit_0_writes_only_finite_cells(tmp_path, capsys, raw):
    # one fixture directory serves every example
    path = Path(tempfile.mkdtemp(dir=tmp_path))
    config = path / "c.json"
    config.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["--config", str(config), "--out", str(path / "out")])
    assert rc in (0, 1, 2, 3)
    if rc == 3:
        assert capsys.readouterr().err.startswith("numerical failure:")
    if rc == 0:
        with open(path / "out" / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        # heat's exponent q echoes the config, where inf is accepted
        cells = [c for row in rows for h, c in zip(header, row)
                 if h != "q" and not c.startswith("q=")]
        assert all(math.isfinite(v) for c in cells for v in _numbers(c))


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _heat_row(pair, idx, f):
    alpha, p, q, t = pair
    [[rep]] = verify_hypercontractivity([f], alpha=[alpha], p=[p], q=[q], t=[t])
    return [alpha, p, q, t, idx, rep.lhs, rep.rhs, rep.ratio, int(not rep.violated)]


# the Euclidean LSI and Kato checks as they stood before the sweep was
# hoisted: one field, one alpha and one phi per call, the multiplier
# |xi|^alpha rebuilt from the frequency mesh each time and cut to the rfftn
# half spectrum
def _symbol(grid, alpha):
    return (np.sqrt(sum(a**2 for a in full_freqs(grid))) ** alpha)[..., : grid.M // 2 + 1]


def _lsi_gap_per_alpha(f, alpha):
    n = f.grid.d
    nrm = lp_norm(f, 2)
    if abs(nrm - 1.0) > 1e-8:
        f = f.with_values(f.values / nrm)
    energy = half_operator_norm(f, alpha)
    v2 = f.values**2
    logs = np.where(v2 > 1e-300, np.log(np.where(v2 > 1e-300, v2, 1.0)), 0.0)
    lhs = float(np.sum(v2 * logs) * f.grid.dx**n)
    return lhs, (n / alpha) * math.log(lsi_constant(n, alpha) * energy)


def _kato_per_pair(u, phi, dphi, alpha):
    lhs = apply_multiplier(u.with_values(phi(u.values)), _symbol(u.grid, alpha)).values
    rhs = dphi(u.values) * apply_multiplier(u, _symbol(u.grid, alpha)).values
    viol = float(np.max(lhs - rhs))
    scale = 1.0 + float(np.max(np.abs(rhs)))
    return viol, scale, viol <= 1e-8 * scale


def _lsi_row(alpha, idx, f):
    lhs, rhs = _lsi_gap_per_alpha(f, alpha)
    ok = lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
    return [alpha, idx, lhs, rhs, rhs - lhs, int(ok)]


def _kato_row(pair, idx, f):
    alpha, name = pair
    p, dp = cli._KATO_PHIS[name]
    viol, scale, passed = _kato_per_pair(f, p, dp, alpha)
    return [alpha, name, idx, viol, scale, int(passed)]


# per experiment: the parameter tuples outside the battery loop, and one row
_PAIRS = {
    "heat": (lambda s: product(s["alpha"], s["p"], s["q"], s["t"]), _heat_row),
    "euclidean-lsi": (lambda s: s["alpha"], _lsi_row),
    "kato": (lambda s: product(s["alpha"], sorted(cli._KATO_PHIS)), _kato_row),
}


def _rows_per_pair(cfg):
    """Rows with the field battery rebuilt for every outer parameter tuple."""
    pairs, row = _PAIRS[cfg.experiment]
    rows = []
    for pair in pairs(cfg.sweep):
        battery = generate_test_fields(cfg.grid, cfg.seed, cfg.sweep["family"])
        rows.extend(row(pair, idx, f) for idx, f in enumerate(battery))
    return rows


class TestKato:
    @pytest.mark.parametrize("experiment", sorted(_PAIRS))
    @pytest.mark.parametrize("d, M", [(1, 64), (2, 16)])
    def test_battery_built_once(self, experiment, d, M, monkeypatch):
        cfg = load_config({"experiment": experiment,
                           "grid": {"d": d, "L": 10.0, "M": M},
                           "sweep": {"family": "bumps"}, "seed": 5})
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _iter_fields(*args, **kwargs)

        monkeypatch.setattr(cli, "_iter_fields", counting)
        _, rows, *_ = cli._RUNNERS[experiment](cfg)
        assert len(calls) == 1
        assert rows == _rows_per_pair(cfg)

    @pytest.mark.parametrize("d, M", [(1, 64), (2, 16)])
    def test_heat_checks_the_battery_in_one_call(self, d, M, monkeypatch):
        cfg = load_config({"experiment": "heat", "grid": {"d": d, "L": 10.0, "M": M},
                           "sweep": {"family": "bumps", "p": [2.0, 3.0],
                                     "q": [4.0, 6.0]}, "seed": 5})
        calls = []

        def counting(fields, *args):
            calls.append(list(fields))
            return verify_hypercontractivity(calls[-1], *args)

        monkeypatch.setattr(cli, "verify_hypercontractivity", counting)
        _, rows, *_ = cli._RUNNERS["heat"](cfg)
        battery = generate_test_fields(cfg.grid, cfg.seed, "bumps")
        [fields] = calls
        assert [f.values.tobytes() for f in fields] == [
            f.values.tobytes() for f in battery]
        assert rows == _rows_per_pair(cfg)

    # per battery of F fields, A exponents and P heat parameter tuples: the
    # battery's band limit costs F forward and F inverse transforms of
    # spectral's pair; after that each field and each phi(u) is transformed
    # once, and every multiplier application is one inverse; the full complex
    # transforms are never called
    @pytest.mark.parametrize("experiment, forward, inverse", [
        ("heat", lambda F, A, P: 2 * F, lambda F, A, P: F * (1 + P)),
        ("kato", lambda F, A, P: 4 * F, lambda F, A, P: F * (1 + 3 * A)),
        ("euclidean-lsi", lambda F, A, P: 2 * F, lambda F, A, P: F),
    ], ids=["heat", "kato", "euclidean-lsi"])
    def test_transform_counts(self, experiment, forward, inverse, monkeypatch):
        cfg = load_config({"experiment": experiment,
                           "grid": {"d": 2, "L": 10.0, "M": 16},
                           "sweep": {"family": "bumps"}, "seed": 5})
        s = cfg.sweep
        F = len(generate_test_fields(cfg.grid, cfg.seed, "bumps"))
        A = len(s["alpha"])
        P = len(list(product(s["alpha"], s["p"], s["q"], s["t"])))
        counts = count_transforms(monkeypatch)
        cli._RUNNERS[experiment](cfg)
        assert counts == {"_forward": forward(F, A, P), "_inverse": inverse(F, A, P),
                          "forward": 0, "inverse": 0}


class _Tracked:
    """A battery generator that keeps a weak reference to each field's values
    and, each time the next field is asked for, counts the earlier ones
    still alive."""

    def __init__(self, fields):
        self.fields = fields
        self.drawn = []
        self.alive = []

    def __iter__(self):
        return self

    def __next__(self):
        self.alive.append(sum(ref() is not None for ref in self.drawn))
        f = next(self.fields)
        self.drawn.append(weakref.ref(f.values))
        return f


class TestStreamedBattery:
    """heat, euclidean-lsi and kato hold one battery field's values at a time:
    each field is freed before the next is made, and the rows are those of
    the battery checked as a list."""

    @pytest.mark.parametrize("experiment", sorted(_PAIRS))
    @pytest.mark.parametrize("family", ["gaussians", "bumps"])
    def test_holds_one_field_at_a_time(self, experiment, family, monkeypatch):
        cfg = load_config({"experiment": experiment,
                           "grid": {"d": 2, "L": 10.0, "M": 32},
                           "sweep": {"family": family}, "seed": 5})
        batteries = []

        def tracked(*args, **kwargs):
            batteries.append(_Tracked(_iter_fields(*args, **kwargs)))
            return batteries[-1]

        monkeypatch.setattr(cli, "_iter_fields", tracked)
        _, rows, *_ = cli._RUNNERS[experiment](cfg)
        [battery] = batteries
        size = len(generate_test_fields(cfg.grid, cfg.seed, family))
        assert len(battery.drawn) == size
        # asked once more than there are fields, for the StopIteration
        assert battery.alive == [0] * (size + 1)
        assert rows == _rows_per_pair(cfg)

    def test_hypercontractivity_keeps_no_field(self):
        # of a generator's fields it keeps norms and spectra only
        grid = Grid(2, 10.0, 32)
        battery = _Tracked(_iter_fields(grid, 1, "bumps"))
        reports = verify_hypercontractivity(battery, [1.0], [2.0, 3.0], [4.0, 6.0],
                                            [0.5])
        assert battery.alive == [0] * 7
        assert all(ref() is None for ref in battery.drawn)
        listed = verify_hypercontractivity(generate_test_fields(grid, 1, "bumps"),
                                           [1.0], [2.0, 3.0], [4.0, 6.0], [0.5])
        assert reports == listed


def _old_kato_r32(v):
    """The r3/2 pair before pow was kept off the zeros."""
    return np.abs(v) ** 1.5, 1.5 * np.sign(v) * np.sqrt(np.abs(v))


class TestKatoPhis:
    @pytest.mark.parametrize("d, M", [(1, 512), (2, 64)])
    def test_r32_is_the_old_pair_bitwise_on_a_battery(self, d, M):
        phi, dphi = cli._KATO_PHIS["r3/2"]
        for f in generate_test_fields(Grid(d, 20.0, M), 1, "bumps"):
            old = _old_kato_r32(f.values)
            assert np.any(f.values == 0.0)
            assert phi(f.values).tobytes() == old[0].tobytes()
            assert dphi(f.values).tobytes() == old[1].tobytes()

    def test_r32_is_the_old_pair_bitwise_at_the_edges(self):
        phi, dphi = cli._KATO_PHIS["r3/2"]
        tiny = np.finfo(float).tiny
        v = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300, tiny / 4,
                      -tiny / 4, 1e200, -1e200, np.inf, -np.inf])
        old = _old_kato_r32(v)
        assert phi(v).tobytes() == old[0].tobytes()
        assert dphi(v).tobytes() == old[1].tobytes()
        # a NaN stays a NaN, whatever its sign bit
        nan = np.array([np.nan, -np.nan, 1.0])
        for new, want in zip((phi(nan), dphi(nan)), _old_kato_r32(nan)):
            assert np.array_equal(new, want, equal_nan=True)


class _Handed(Exception):
    """Carries the initial field a flow runner passed on."""


class TestFlowRunners:
    @pytest.mark.parametrize("experiment", ["fp", "decay"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d, L, M", [(1, 20.0, 128), (2, 10.0, 32)])
    def test_u0_is_the_first_battery_field(self, experiment, family, d, L, M,
                                           monkeypatch):
        # fp and decay take the first field without building the battery
        cfg = load_config({"experiment": experiment, "grid": {"d": d, "L": L, "M": M},
                           "sweep": {"family": family}, "seed": 3})
        batteries = []

        def counting(*args, **kwargs):
            batteries.append(_Tracked(_iter_fields(*args, **kwargs)))
            return batteries[-1]

        def handed(u0, *args, **kwargs):
            raise _Handed(u0)

        monkeypatch.setattr(cli, "_iter_fields", counting)
        monkeypatch.setattr(cli, "fp_evolve" if experiment == "fp" else "decay_track",
                            handed)
        with pytest.raises(_Handed) as caught:
            cli._RUNNERS[experiment](cfg)
        assert [len(b.drawn) for b in batteries] == [1]
        steady = build_steady_state(cfg.triplet, cfg.grid, cfg.tol)
        want = generate_test_fields(
            cfg.grid, cfg.seed, family if experiment == "fp" else "perturbed-steady",
            steady.density)[0]
        assert caught.value.args[0].values.tobytes() == want.values.tobytes()

    def test_decay_evolves_once_per_time(self, monkeypatch):
        # the flow does not depend on Phi: two Phi and four times make four flows
        cfg = load_config({"experiment": "decay", "grid": {"d": 1, "L": 20.0, "M": 256},
                           "sweep": {"phi": ["quadratic", "xlogx"],
                                     "times": [0.25, 0.5, 1.0, 2.0]}})
        times = []

        def counting(u0, triplet, t, *args, **kwargs):
            times.append(t)
            return fp_evolve(u0, triplet, t, *args, **kwargs)

        monkeypatch.setattr(entropy, "fp_evolve", counting)
        _, rows, *_ = cli._RUNNERS["decay"](cfg)
        assert sorted(times) == [0.25, 0.5, 1.0, 2.0]
        assert len(rows) == 2 * 5


def _fresh(code, tmp_path):
    """The words that ``code`` prints, run in a fresh interpreter on this
    checkout: pytest's IntegrationWarning filter has already imported
    scipy.integrate into this one."""
    env = {**os.environ, "PYTHONPATH": str(Path(levylab.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True, cwd=tmp_path)
    return res.stdout.split()


LOADED = "print(*(m in sys.modules for m in ('scipy.integrate', 'scipy.special')))\n"


def test_runs_that_integrate_nothing_load_no_scipy(tmp_path):
    # the heat lane, every flow on a stable law (its radial quantities,
    # N_inf's included, are closed forms and c(d, alpha) takes Gamma from
    # math), every flow without jumps and fp and decay on a d=1 table (a fixed
    # rule of cosines) load neither scipy.special nor scipy.integrate, and
    # neither does the import of the package
    heat = write_config(tmp_path / "heat.json", grid={"d": 2, "L": 10.0, "M": 16})
    runs = [["--config", str(heat), "--out", str(tmp_path / name), name]
            for name in ("heat", "euclidean-lsi", "kato")]
    table = {"d": 1, "sigma": 0.3, "b": 0.0, "nu": {
        "kind": "tabulated", "table_path": str(one_sided_table(tmp_path / "nu.csv"))}}
    no_jumps = {"d": 1, "sigma": 0.5, "b": 0.0, "nu": None}
    laws = [("table", {"d": 1, "L": 10.0, "M": 64}, table, ("fp", "decay")),
            ("no-jumps", {"d": 1, "L": 10.0, "M": 64}, no_jumps,
             ("fp", "decay", "steady", "check-lsi", "all"))]
    for d, alpha, M in [(1, 1.0, 64), (2, 1.5, 32)]:
        stable = {"d": d, "sigma": 0.3, "b": [0.0] * d,
                  "nu": {"kind": "stable", "alpha": alpha}}
        laws.append((f"stable{d}", {"d": d, "L": 10.0, "M": M}, stable,
                      ("fp", "decay", "steady", "check-conditions", "check-lsi", "all")))
    for law, grid, triplet, names in laws:
        path = write_config(tmp_path / f"{law}.json", grid=grid, triplet=triplet)
        runs += [["--config", str(path), "--out", str(tmp_path / f"{law}-{name}"), name]
                 for name in names]
    code = (
        "import sys, levylab\n"
        "loaded = [m in sys.modules for m in ('scipy.integrate', 'scipy.special')]\n"
        "import levylab.cli\n"
        f"codes = [levylab.cli.main(argv) for argv in {runs!r}]\n"
        "print(*codes, *loaded, *(m in sys.modules for m in "
        "('scipy.integrate', 'scipy.special')))\n"
    )
    out = _fresh(code, tmp_path)
    codes, loaded = out[:-4], out[-4:]
    assert len(codes) == len(runs)
    # kato's verdict fails on this coarse grid (exit 1); none may exit 2 or 3
    assert codes[:3] == ["0", "0", "1"]
    assert set(codes) <= {"0", "1"}, list(zip(codes, (argv[-1] for argv in runs)))
    assert loaded == ["False"] * 4


def test_runs_on_an_analytic_law_load_no_scipy_integrate(tmp_path):
    # every integral of an analytic law is the G10/K21 rule on arrays.  A
    # steady build and a flow on the opaque d=1 Cauchy density read Si and Ci
    # from scipy.special for the anchor, and nothing from scipy.integrate;
    # check-lsi on the one-sided table, whose N_inf is an analytic density,
    # loads neither
    library = (
        "import sys, numpy as np, levylab\n"
        "nu = levylab.LevyDensity(kind='analytic', d=1, is_even=True,\n"
        "                         func=levylab.stable_density(1.0, 1))\n"
        "tr = levylab.LevyTriplet(sigma=np.zeros((1, 1)), b=np.zeros(1), nu=nu, d=1)\n"
        "steady = levylab.build_steady_state(tr, levylab.Grid(1, 8.0, 16))\n"
        "levylab.fp_evolve(steady.density, tr, 0.5)\n" + LOADED)
    assert _fresh(library, tmp_path) == ["False", "True"]
    table = {"d": 1, "sigma": 0.3, "b": 0.0, "nu": {
        "kind": "tabulated", "table_path": str(one_sided_table(tmp_path / "nu.csv"))}}
    path = write_config(tmp_path / "c.json", experiment="check-lsi", triplet=table,
                        grid={"d": 1, "L": 10.0, "M": 64})
    cli_run = (f"import sys, levylab.cli\n"
               f"print(levylab.cli.main(['--config', {str(path)!r}, '--out', 'out']))\n"
               + LOADED)
    assert _fresh(cli_run, tmp_path) == ["0", "False", "False"]


@pytest.mark.parametrize("table, codes", [(log_tail_table, [0, 0, 0]),
                                          (one_sided_table, [0, 0, 1])])
def test_flows_on_a_table_make_no_quadpack_call(tmp_path, monkeypatch, table, codes):
    # a table's radial integrals are its fixed rule; its N_inf, which
    # check-lsi reads, is an analytic density and goes to the adaptive rule
    # (a stable law's N_inf is a stable density, in closed form)
    calls = count_integrals(monkeypatch)
    triplet = {"d": 1, "sigma": 0.3, "b": 0.0, "nu": {
        "kind": "tabulated", "table_path": str(table(tmp_path / "nu.csv"))}}
    got = []
    for name in ("fp", "steady", "decay"):
        path = write_config(tmp_path / "c.json", experiment=name, triplet=triplet,
                            grid={"d": 1, "L": 10.0, "M": 128})
        got.append(main(["--config", str(path), "--out", str(tmp_path / name)]))
    # decay on the one-sided table counts one entropy violation, as it did
    # when QUADPACK integrated the table
    assert got == codes
    assert calls == []


# the coarse grid leaves the gaussians battery unresolved at its Nyquist edge
@pytest.mark.filterwarnings("ignore::levylab.errors.InterpolationDegradation")
@pytest.mark.parametrize("experiment", ["fp", "steady", "decay", "check-lsi", "all"])
def test_one_steady_state_per_run(tmp_path, monkeypatch, experiment):
    # the runners of one config share its steady state: all builds it once,
    # for fp, decay and check-lsi together
    builds = []
    monkeypatch.setattr(cli, "build_steady_state", lambda *args: builds.append(
        args) or build_steady_state(*args))
    path = write_config(tmp_path / "c.json", experiment=experiment,
                        grid={"d": 1, "L": 20.0, "M": 128})
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert len(builds) == 1


def test_one_parser_for_every_main_call(tmp_path):
    # the parser is built at the first main call of a process and shared: a
    # flag of one call's experiment does not reach the next call's
    cli._build_parser.cache_clear()
    path = write_config(tmp_path / "c.json")
    trip = tmp_path / "trip.json"
    trip.write_text(json.dumps({"d": 1, "sigma": 1.0, "b": 0.0}))
    assert main(["--config", str(path), "--out", str(tmp_path / "heat"), "heat",
                 "--alpha", "1.5"]) == 0
    assert main(["--config", str(path), "--out", str(tmp_path / "steady"), "steady",
                 "--triplet-config", str(trip)]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with open(tmp_path / "heat" / "results.csv", newline="") as fh:
        assert {row["alpha"] for row in csv.DictReader(fh)} == {"1.5"}
    summary = json.loads((tmp_path / "steady" / "summary.json").read_text())
    assert summary["experiment"] == "steady"
    assert (tmp_path / "steady" / "steady_density.csv").exists()


class TestOutputs:
    def test_reproducible_bytes(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_steady_report(self, tmp_path):
        trip = tmp_path / "trip.json"
        trip.write_text(json.dumps(
            {"d": 1, "sigma": 0.0, "b": 0.0, "nu": {"kind": "stable", "alpha": 1.0}}
        ))
        out = tmp_path / "out"
        rc = main([
            "--out", str(out), "steady", "--triplet-config", str(trip),
        ])
        assert rc == 0
        assert (out / "steady_density.csv").exists()
        rows = dict(
            line.split(",", 1)
            for line in (out / "results.csv").read_text().splitlines()[1:]
        )
        assert json.loads(rows["bA"]) == [0.0]
        assert abs(json.loads(rows["normalization_defect"])) < 1e-6

    def test_steady_on_a_table_with_finite_log_tail(self, tmp_path):
        table = log_tail_table(tmp_path / "nu.csv")
        trip = tmp_path / "trip.json"
        trip.write_text(json.dumps({"d": 1, "sigma": 0.3, "b": 0.0, "nu": {
            "kind": "tabulated", "table_path": str(table)}}))
        out = tmp_path / "out"
        assert main(["--out", str(out), "steady", "--triplet-config", str(trip)]) == 0
        rows = dict(
            line.split(",", 1)
            for line in (out / "results.csv").read_text().splitlines()[1:]
        )
        assert json.loads(rows["con1"]) == pytest.approx(0.1387228687516, abs=1e-12)

    def test_heat_subcommand_flags(self, tmp_path):
        out = tmp_path / "out"
        csv_copy = tmp_path / "copy.csv"
        rc = main([
            "--out", str(out), "heat", "--alpha", "1.5", "--t", "1.0",
            "--p", "2", "--q", "inf", "--out-csv", str(csv_copy),
        ])
        assert rc == 0
        assert csv_copy.read_bytes() == (out / "results.csv").read_bytes()

    def test_heat_q_flag_is_the_q_key(self, tmp_path):
        # the flag's text "4" once reached sweep.q as a string, which no
        # finite q is
        sweep = {"alpha": [1.0], "p": [2.0], "t": [0.5]}
        by_config = tmp_path / "config"
        by_flag = tmp_path / "flag"
        assert main(["--config", str(write_config(tmp_path / "q.json",
                                                  sweep={**sweep, "q": [4]})),
                     "--out", str(by_config)]) == 0
        assert main(["--config", str(write_config(tmp_path / "c.json", sweep=sweep)),
                     "--out", str(by_flag), "heat", "--q", "4"]) == 0
        assert ((by_flag / "results.csv").read_bytes()
                == (by_config / "results.csv").read_bytes())

    def test_lf_line_endings(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        raw = (out / "results.csv").read_bytes()
        assert b"\r" not in raw
