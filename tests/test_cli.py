"""Experiment runner: config parsing, outputs, exit codes, determinism."""

import json
import math
import os

import pytest

from levylab import cli, generate_test_fields, kato_check
from levylab.cli import load_config, main
from levylab.errors import ConfigError


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
        cfg["sweep"] = {field: value if field == "C" else [1.0, value]}
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
                 {"d": 1, "L": 0.0, "M": 128}]
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

    def test_non_finite_summary_exits_3_without_summary(self, tmp_path, monkeypatch):
        def runner(cfg):
            return ["x"], [[1.0]], {"worst_ratio": math.inf}

        monkeypatch.setattr(cli, "_run_heat", runner)
        out = tmp_path / "out"
        rc = main(["--config", str(write_config(tmp_path / "c.json")),
                   "--out", str(out)])
        assert rc == 3
        assert not (out / "summary.json").exists()


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _kato_rows_per_pair(cfg):
    """Kato rows with the field battery rebuilt for every (alpha, phi) pair."""
    rows = []
    for alpha in cfg.sweep["alpha"]:
        for name in sorted(cli._KATO_PHIS):
            battery = generate_test_fields(cfg.grid, cfg.seed, cfg.sweep["family"])
            for idx, f in enumerate(battery):
                p, dp = cli._KATO_PHIS[name]
                rep = kato_check(f, p, dp, alpha=alpha)
                rows.append([alpha, name, idx, rep.max_violation, rep.scale,
                             int(rep.passed)])
    return rows


class TestKato:
    @pytest.mark.parametrize("d, M", [(1, 64), (2, 16)])
    def test_battery_built_once(self, d, M, monkeypatch):
        cfg = load_config({"experiment": "kato", "grid": {"d": d, "L": 10.0, "M": M},
                           "sweep": {"family": "bumps"}, "seed": 5})
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_test_fields(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_test_fields", counting)
        _, rows, _ = cli._run_kato(cfg)
        assert len(calls) == 1
        assert rows == _kato_rows_per_pair(cfg)


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

    def test_heat_subcommand_flags(self, tmp_path):
        out = tmp_path / "out"
        csv_copy = tmp_path / "copy.csv"
        rc = main([
            "--out", str(out), "heat", "--alpha", "1.5", "--t", "1.0",
            "--p", "2", "--q", "inf", "--out-csv", str(csv_copy),
        ])
        assert rc == 0
        assert csv_copy.read_bytes() == (out / "results.csv").read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        raw = (out / "results.csv").read_bytes()
        assert b"\r" not in raw
