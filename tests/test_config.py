"""The config table: README and ``--help`` agreement, and property tests
drawn from the table itself.

A config is drawn row by row: each value from the candidates that the row's
kind and range accept, or, to break that row, from those they refuse; a row
with flags may instead be broken by a flag's text.  The rules between keys
are checked here by an independent oracle on the raw config.  Kept valid by
construction: what the range of ``sigma`` and ``b`` states only in words
and ``_triplet`` and the triplet check (see ``test_cli``), their
shape against ``triplet.d`` and a positive semi-definite ``sigma``; an
existing table file; and the key a ``nu`` kind needs.
"""

import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from levylab import cli
from levylab.cli import EXPERIMENTS, REQUIRED, RULES, TABLE, load_config, main

from conftest import log_tail_table

ROWS = {key.path: key for key in TABLE}
README = Path(__file__).parents[1] / "README.md"

# every kind's accepted and refused values are among these, together with
# the names a row's range lists
POOL = [0, 1, 2, 3, 7, 8, 12, 64, 512, -1, -8, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5,
        4.0, 1e-10, 0.999, 20.0, math.nan, math.inf, -math.inf, True, False,
        None, "", "inf", "Infinity", "1.5", "out", [1.0], {}]


def _number(x):
    return type(x) in (int, float) and math.isfinite(x)


def _as_used(kind, x):
    """x as the loaded config holds it, or None when it is not of the kind."""
    if kind in ("number", "number list"):
        return float(x) if _number(x) else None
    if kind == "exponent list":
        return math.inf if x in (math.inf, "inf", "Infinity") else (
            float(x) if _number(x) else None)
    if kind == "integer":
        return x if type(x) is int else None
    return x if type(x) is str else None


def _names(key):
    return key.range[len("one of "):].split(", ") if key.range.startswith("one of ") else []


def _entries(key, accepted):
    """The candidates of one value, or list entry, that the row accepts or refuses."""
    out = []
    for x in POOL + _names(key):
        used = _as_used(key.kind, x)
        if (used is not None and key.holds(used)) == accepted:
            out.append(x)
    return out


def _accepted(key, d, table):
    """A strategy of the values the row accepts."""
    if key.path == "triplet.nu.table_path":
        return st.just(str(table))
    if key.path == "triplet.sigma":
        return st.sampled_from([0, 0.5, 1.0, np.eye(d).tolist()])
    if key.path == "triplet.b":
        return st.sampled_from([[0.0] * d, [0.5] * d] + ([0.0] if d == 1 else []))
    entry = st.sampled_from(_entries(key, True))
    if key.kind.endswith("list"):
        return st.lists(entry, min_size=1, max_size=3,
                        unique=key.kind.startswith("distinct"))
    return entry


# a numeric kind's flag text is read as a number
_FROM_TEXT = {"integer": int, "number": float, "number list": float,
              "exponent list": float}


def _text_accepted(key, text):
    """Whether the row accepts a flag's text (one entry of it, for a list)."""
    try:
        used = _as_used(key.kind, _FROM_TEXT.get(key.kind, str)(text))
    except ValueError:
        return False
    return used is not None and key.holds(used)


def _refused_text(key):
    """A strategy of the flag texts that the row refuses: a list's entries
    are comma-separated, and an empty entry is dropped."""
    texts = sorted({x if type(x) is str else json.dumps(x) for x in POOL + _names(key)})
    bad = [t for t in texts if not _text_accepted(key, t)]
    if not key.kind.endswith("list"):
        return st.sampled_from(bad)
    good = [t for t in texts if _text_accepted(key, t)]
    bad = [t for t in bad if t]
    cases = [st.just(""), st.sampled_from(bad),
             st.tuples(st.sampled_from(good), st.sampled_from(bad)).map(",".join)]
    if key.kind.startswith("distinct"):
        cases.append(st.sampled_from(good).map(lambda t: f"{t},{t}"))
    return st.one_of(cases)


def _refused(key):
    """A strategy of the values the row refuses."""
    if key.kind == "object":
        return st.sampled_from([[], 3, "x"] + ([] if key.default is None else [None]))
    if key.kind == "numeric matrix":
        return st.sampled_from([math.nan, True, "1.5", [1.0, math.inf], None])
    bad = _entries(key, False)
    if key.path == "triplet.nu.table_path":
        bad = [x for x in bad if type(x) is not str or not x]
    if not key.kind.endswith("list"):
        return st.sampled_from(bad + [[1.0]])
    good = _entries(key, True)
    cases = [st.just([]), st.sampled_from(good),
             st.tuples(st.sampled_from(good), st.sampled_from(bad)).map(list)]
    if key.kind.startswith("distinct"):
        cases.append(st.sampled_from(good).map(lambda x: [x, x]))
    return st.one_of(cases)


@st.composite
def configs(draw, table, need=()):
    """A config whose every key the table accepts; the sections of ``need``
    are present."""
    def section(path):
        out = {}
        for key in TABLE:
            parent, _, name = key.path.rpartition(".")
            if parent != path:
                continue
            present = key.default is REQUIRED or any(
                n == key.path or n.startswith(key.path + ".") for n in need)
            if not (present or draw(st.booleans())):
                continue
            if key.kind == "object":
                out[name] = section(key.path)
            else:
                # sigma and b take the shape of the triplet.d drawn before them
                out[name] = draw(_accepted(key, out.get("d", 1), table))
        return out

    cfg = section("")
    nu = cfg.get("triplet", {}).get("nu")
    if nu is not None:
        # a nu kind needs the key that describes it
        path = {"stable": "triplet.nu.alpha", "tabulated": "triplet.nu.table_path"}[
            nu["kind"]]
        nu.setdefault(path.rpartition(".")[2], draw(_accepted(ROWS[path], 1, table)))
    return cfg


def _value(cfg, path):
    """The raw value at ``path``, or the row's default."""
    node = cfg
    for name in path.split("."):
        if not isinstance(node, dict) or name not in node:
            return ROWS[path].default
        node = node[name]
    return node


def _exponent(x):
    return math.inf if x in (math.inf, "inf", "Infinity") else x


# the rules, checked on the raw config, independently of the program's own
ORACLE = {
    "triplet.d must equal grid.d": lambda c, t: t is not None
    and t.get("d", 1) != _value(c, "grid.d"),
    "without a triplet, the stable density of alpha[0] needs alpha[0] < 2":
        lambda c, t: t is None and _value(c, "sweep.alpha")[0] == 2,
    "family perturbed-steady needs a steady state, which only fp and decay build":
        lambda c, t: _value(c, "sweep.family") == "perturbed-steady",
    "check-conditions needs a triplet with a jump density nu":
        lambda c, t: t is not None and t.get("nu") is None,
    "check-lsi needs a diffusion sigma or a jump density nu":
        lambda c, t: t is not None and t.get("nu") is None
        and not np.any(np.asarray(t.get("sigma", 0.0), dtype=float)),
    "heat needs q >= p for every p and q, and p = 2 where q = inf":
        lambda c, t: any(_exponent(q) < p or (_exponent(q) == math.inf and p != 2)
                         for p in _value(c, "sweep.p") for q in _value(c, "sweep.q")),
}


def broken_rules(cfg):
    return [rule for rule, experiments, _ in RULES
            if cfg["experiment"] in experiments
            and ORACLE[rule](cfg, cfg.get("triplet"))]


def test_every_rule_has_an_oracle():
    assert [rule for rule, _, _ in RULES] == list(ORACLE)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    return log_tail_table(tmp_path_factory.mktemp("table") / "nu.csv")


def _refused_by_main(tmp_path, monkeypatch, capsys, cfg, argv=()):
    """main's exit code and message for cfg and the flags ``argv``, checking
    that it writes nothing."""
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    path = run.parent / f"{run.name}.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(run)
    capsys.readouterr()
    code = main(["--config", str(path), *argv])
    assert os.listdir(run) == []
    return code, capsys.readouterr().err


def _settings(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[
                        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@_settings(80)
@given(data=st.data())
def test_a_config_the_table_accepts_loads(table, data):
    cfg = data.draw(configs(table))
    assume(not broken_rules(cfg))
    loaded = load_config(cfg)
    assert loaded.experiment == cfg["experiment"]
    assert loaded.seed == _value(cfg, "seed")
    assert loaded.grid.M == _value(cfg, "grid.M")
    if "triplet" not in cfg:
        # only the heat-semigroup experiments read no triplet, nor get a default
        assert (loaded.triplet is None) == (cfg["experiment"] in (
            "heat", "euclidean-lsi", "kato"))


@pytest.mark.parametrize("path", list(ROWS))
@_settings(12)
@given(data=st.data())
def test_breaking_one_row_exits_2_naming_it(tmp_path, monkeypatch, capsys, table,
                                            path, data):
    cfg = data.draw(configs(table, need=[path]))
    key = ROWS[path]
    # a row with flags may be broken by a flag's text instead, over the config
    flag = data.draw(st.sampled_from(key.flags)) if key.flags and data.draw(
        st.booleans()) else None
    if flag is not None and flag[0] is not None:
        cfg["experiment"] = flag[0]
    assume(not broken_rules(cfg))
    parent, _, name = path.rpartition(".")
    node = _value(cfg, parent) if parent else cfg
    argv = []
    if flag is not None:
        subcommand, option = flag
        if key.kind == "object":
            # an object's flag names a JSON file
            text = tmp_path / f"{name}.json"
            text.write_text(json.dumps(data.draw(_refused(key))))
        else:
            text = data.draw(_refused_text(key))
        argv = [subcommand] * (subcommand is not None) + [f"{option}={text}"]
    elif key.default is REQUIRED and data.draw(st.booleans()):
        node.pop(name)
    else:
        node[name] = data.draw(_refused(key))
    code, err = _refused_by_main(tmp_path, monkeypatch, capsys, cfg, argv)
    assert code == 2
    assert path in err


RULE_NAMES = [rule for rule, _, _ in RULES]


def _break(rule, cfg, draw):
    """cfg edited so that it breaks ``rule``."""
    experiments = next(e for r, e, _ in RULES if r == rule)
    cfg["experiment"] = draw(st.sampled_from(experiments))
    sweep = cfg.setdefault("sweep", {})
    grid_d = _value(cfg, "grid.d")
    index = RULE_NAMES.index(rule)
    if index == 0:
        d = 3 - grid_d
        cfg["triplet"] = {**cfg.get("triplet", {}), "d": d, "sigma": 1.0, "b": [0.0] * d}
    elif index == 1:
        cfg.pop("triplet", None)
        sweep["alpha"] = [2.0] + draw(st.lists(st.sampled_from([0.5, 1.5]), max_size=1))
    elif index == 2:
        sweep["family"] = "perturbed-steady"
    elif index in (3, 4):
        cfg["triplet"] = {"d": grid_d, "sigma": 0.0}
    else:
        sweep["p"], sweep["q"] = draw(st.sampled_from([([4.0], [2.0]), ([4.0], ["inf"]),
                                                       ([2.0, 8.0], [4.0])]))
    return cfg


@pytest.mark.parametrize("rule", RULE_NAMES)
@_settings(25)
@given(data=st.data())
def test_breaking_one_rule_exits_2_naming_it(tmp_path, monkeypatch, capsys, table,
                                             rule, data):
    cfg = _break(rule, data.draw(configs(table)), data.draw)
    assume(broken_rules(cfg) == [rule])
    code, err = _refused_by_main(tmp_path, monkeypatch, capsys, cfg)
    assert code == 2
    assert rule in err


def _cell(value):
    if value is None:
        return "none"
    return value if value == REQUIRED else f"`{json.dumps(value)}`"


def test_readme_states_every_key():
    # one README row per key: kind, range, default and the experiments reading it
    text = README.read_text()
    for key in TABLE:
        readers = ("every experiment" if key.readers == EXPERIMENTS
                   else ", ".join(key.readers))
        row = (f"| `{key.path}` | {key.kind} | {key.range} | {_cell(key.default)} "
               f"| {readers} |")
        assert row in text, row


# the file flags, which set no key, of the main parser (None) and each subcommand
FILE_FLAGS = {None: {"--config"}, "heat": {"--input-csv", "--out-csv"},
              "fp": {"--out-csv"}, "decay": {"--u0-csv"}}


def _row_flags(subcommand):
    """The flags of ``subcommand`` (None: the main parser), each with its row."""
    return {option: key for key in TABLE for name, option in key.flags
            if name == subcommand}


@pytest.mark.parametrize("subcommand", [None, *EXPERIMENTS])
def test_help_lists_the_rows_flags(capsys, subcommand):
    with pytest.raises(SystemExit) as info:
        main([subcommand, "--help"] if subcommand else ["--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    options = _row_flags(subcommand)
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", text)) - {"--help"}
    assert listed == set(options) | FILE_FLAGS.get(subcommand, set())
    for option, key in options.items():
        line = f"{key.path}: {key.kind}, {key.range}"
        assert re.search(rf"{re.escape(option)} [A-Z]+ {re.escape(line)}", text), line


def test_readme_lists_every_flag():
    text = README.read_text()
    usage = re.search(r"^levylab (.*) SUBCOMMAND", text, re.M).group(1)
    assert set(re.findall(r"\[(--[\w-]+)", usage)) == set(_row_flags(None)) | {"--config"}
    section = text[text.index("Subcommands:"):text.index("Configuration is a strict")]
    listed = {}
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        name = re.match(r"`([\w-]+)`", bullet).group(1)
        listed[name] = set(re.findall(r"`(--[\w-]+)`", bullet))
    assert listed == {name: set(_row_flags(name)) | FILE_FLAGS.get(name, set())
                      for name in EXPERIMENTS}


def test_phi_flag_takes_the_phi_names(tmp_path, capsys):
    path = tmp_path / "c.json"
    # the Ornstein-Uhlenbeck flow, whose decay bound holds with C = 1
    path.write_text(json.dumps({"experiment": "decay", "grid": {"L": 10.0, "M": 64},
                                "triplet": {"sigma": 1.0}, "sweep": {"times": [0.5]}}))
    for name in cli.PHIS:
        out = tmp_path / name
        assert main(["--config", str(path), "--out", str(out), "decay",
                     "--phi", name]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {name}
    out = tmp_path / "bogus"
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(out), "decay",
                 "--phi", "bogus"]) == 2
    assert "sweep.phi" in capsys.readouterr().err
    assert not out.exists()
