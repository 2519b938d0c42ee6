"""Tests for configuration parsing, reporting, and the command line."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from cdstoch.config import (
    EXPERIMENT_CHOICES,
    MAX_GRID,
    MAX_N,
    MAX_REPLICAS,
    MAX_THREADS,
    RUN_OPTIONS,
    ConfigError,
    RunConfig,
    build_driving,
    load_config,
    parse_config_fields,
)
from cdstoch.cli import SUBCOMMANDS, _build_config, build_parser, main
from cdstoch import cli, experiments
from cdstoch.experiments import run_experiments
from cdstoch.linops import ComplexCovariance, CovarianceOperator
from cdstoch.report import (
    SCHEMA_VERSION,
    config_echo,
    jsonable,
    make_report,
    metric_rows,
    render_json,
    strip_timing,
    write_outputs,
)

GOOD_TEXT = """
# comment lines and blanks are skipped
seed = 11
replicas = 300
level = 2
n = 2
grid = 16
window = 0 0.5
experiments = paths
u0.block1.a = 1.0 0.3 0 0
u0.block1.b = 1.2
u0.block2.a = 1.0 0 0.2 0
u0.block2.b = 0.8
u1 = none
tol.exact = 1e-11
"""


def parse_config_text(text: str) -> RunConfig:
    """The validated RunConfig of flat key=value text."""
    return RunConfig(**parse_config_fields(text))


def tiny_cfg(**kw):
    base = dict(seed=5, replicas=200, grids=(16,), threads=1)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------- config values

def test_defaults_validate():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.grids == (32,)
    assert cfg.window == (0.0, 1.0)
    assert cfg.format == "json"


def test_rejects_bad_scalar_fields():
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(replicas=0)
    with pytest.raises(ConfigError):
        RunConfig(level=6)
    with pytest.raises(ConfigError):
        RunConfig(n=0)
    with pytest.raises(ConfigError):
        RunConfig(format="yaml")
    with pytest.raises(ConfigError):
        RunConfig(threads=0)


def test_grid_rules():
    with pytest.raises(ConfigError):
        RunConfig(grids=(12,))
    with pytest.raises(ConfigError):
        RunConfig(grids=(4,))
    with pytest.raises(ConfigError, match="doubling"):
        RunConfig(grids=(16, 48))
    cfg = RunConfig(grids=(16, 32, 64))
    assert cfg.grids == (16, 32, 64)


@pytest.mark.parametrize("size", [0, -8])
def test_a_grid_size_below_8_is_refused_as_no_positive_multiple(
        size, tmp_path, capsys):
    """0 and -8 are multiples of 8: the refusal names what they lack."""
    with pytest.raises(ConfigError, match="positive multiples of 8"):
        RunConfig(grids=(size,))
    rc = main(["paths", "--grid", str(size), "--out", str(tmp_path)])
    assert rc == 2
    assert "sizes must be positive multiples of 8" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_window_must_be_increasing():
    with pytest.raises(ConfigError):
        RunConfig(window=(1.0, 1.0))
    with pytest.raises(ConfigError):
        RunConfig(window=(0.0, float("inf")))


def test_experiment_names_checked():
    with pytest.raises(ConfigError, match="warp"):
        RunConfig(experiments=("warp",))
    cfg = RunConfig(experiments=("sde", "paths"))
    assert cfg.experiments == ("sde", "paths")


def test_drift_length_checked():
    with pytest.raises(ConfigError):
        RunConfig(level=1, n=1, drift=(1.0, 2.0))
    cfg = RunConfig(level=1, n=1, drift=(1.0, 0.0, 0.0, 0.0))
    assert cfg.drift == (1.0, 0.0, 0.0, 0.0)


def test_tolerance_keys_checked():
    with pytest.raises(ConfigError):
        RunConfig(tolerances=(("fuzzy", 1e-6),))
    with pytest.raises(ConfigError):
        RunConfig(tolerances=(("exact", -1e-6),))
    cfg = RunConfig(tolerances=(("exact", 1e-11),))
    assert dict(cfg.tolerances)["exact"] == 1e-11


# ------------------------------------------------------------- config text

def test_parse_good_text():
    cfg = parse_config_text(GOOD_TEXT)
    assert cfg.seed == 11
    assert cfg.level == 2
    assert cfg.n == 2
    assert cfg.grids == (16,)
    assert cfg.window == (0.0, 0.5)
    assert cfg.experiments == ("paths",)
    assert cfg.u1_blocks == ()
    assert len(cfg.u0_blocks) == 2
    u, p = build_driving(cfg)
    assert isinstance(u, CovarianceOperator)
    assert p is None


def test_parse_unknown_key_named():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config_text("wibble = 3\n")


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_line_without_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nnonsense\n")


def test_parse_bad_number_names_key():
    with pytest.raises(ConfigError, match="replicas"):
        parse_config_text("replicas = many\n")


def test_parse_asymmetric_block_named():
    text = "u0.block1.a = 1 0 0 0\nu0.block1.b = 1.0 0.4 0.1 0.9\n"
    with pytest.raises(ConfigError, match=r"^config key 'u0\.block1\.b': "
                                          r"matrix is not symmetric$"):
        parse_config_text(text)


def test_parse_non_spd_block_named():
    text = "u0.block1.a = 1 0 0 0\nu0.block1.b = -2.0\n"
    with pytest.raises(ConfigError, match=r"u0\.block1\.b"):
        parse_config_text(text)


def test_run_config_refuses_a_non_spd_block_when_built():
    """A driving law that cannot be built is refused by RunConfig itself,
    so no battery of run_experiments runs on it."""
    block = ((1.0, 0.0, 0.0, 0.0), (-2.0,))
    with pytest.raises(ConfigError, match=r"u0\.block1\.b"):
        RunConfig(u0_blocks=(block,))
    with pytest.raises(ConfigError, match=r"u0\.block1\.b"):
        dataclasses.replace(RunConfig(), u0_blocks=(block,))


# every law value and tolerance key, set to finite values (level 1, n 1)
FINITE_LAW = {
    "drift": "0.5 0 0 0",
    "u0.block1.a": "1 0.2",
    "u0.block1.b": "1.2",
    "u1.block1.a": "0.8 0",
    "u1.block1.b": "0.9",
    "tol.exact": "1e-12",
    "tol.sqrt": "1e-10",
}
FINITE_LAW_PREFIX = "level = 1\nn = 1\ngrid = 16\nexperiments = paths\n"


def _law_fields(key: str, value: float) -> dict:
    """RunConfig fields whose law sets key's first number to value."""
    fields = dict(level=1, n=1, grids=(16,), experiments=("paths",))
    if key == "drift":
        fields["drift"] = (value, 0.0, 0.0, 0.0)
    elif key.startswith("tol."):
        fields["tolerances"] = ((key[4:], value),)
    else:
        prefix, _, part = key.split(".")
        fields[f"{prefix}_blocks"] = (((value, 0.2), (1.2,)) if part == "a"
                                      else ((1.0, 0.2), (value,)),)
    return fields


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", list(FINITE_LAW))
def test_non_finite_law_values_and_tolerances_are_refused(key, value):
    """A NaN or an infinity in a covariance block, the drift or a
    tolerance is refused, naming its key, before any battery runs: a NaN
    law wrote NaN tokens into report.json, and an infinite tolerance
    switched its gate off."""
    laws = dict(FINITE_LAW)
    laws[key] = " ".join([value] + laws[key].split()[1:])
    text = FINITE_LAW_PREFIX + "".join(f"{k} = {v}\n"
                                       for k, v in laws.items())
    message = rf"^config key '{key}': need finite numbers$"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)
    with pytest.raises(ConfigError, match=message):
        RunConfig(**_law_fields(key, float(value)))


def test_a_component_count_past_the_cap_is_refused():
    """n = 2^64 made the identity covariance raise ValueError out of
    RunConfig; an n past MAX_N is a config error."""
    assert RunConfig(n=MAX_N, level=0, experiments=("paths",)).n == MAX_N
    for n in (MAX_N + 1, 2 ** 64):
        with pytest.raises(ConfigError, match="^config key 'n': need at most"):
            parse_config_text(f"n = {n}\n")


@pytest.mark.parametrize("key,fields", [
    ("replicas", {"replicas": 2500.5}),
    ("grid", {"grids": (16.5,)}),
    ("seed", {"seed": 1.5}),
    ("threads", {"threads": True}),
    ("n", {"n": 1.0}),
    ("level", {"level": 2.0}),
    ("window", {"window": (0, 1, 5)}),
    ("tol.exact", {"tolerances": (("exact", 1e-9), ("exact", 1e-6))}),
], ids=["replicas", "grid", "seed", "threads", "n", "level", "window",
        "tolerance"])
def test_malformed_library_input_is_refused_naming_its_key(key, fields):
    """A library caller's malformed value is refused when the config is
    built: a float replica count failed inside a battery, a float grid
    size or seed was cast down, True ran one thread, a float n raised
    TypeError from the driving law, a third window value was dropped and
    a tolerance named twice kept its last value."""
    with pytest.raises(ConfigError, match=rf"^config key '{key}': "):
        RunConfig(**fields)


SEQUENCE, REAL = "need a sequence of values", "need a real number"


@pytest.mark.parametrize("key,reason,fields", [
    ("grid", SEQUENCE, {"grids": 16}),
    ("window", SEQUENCE, {"window": 5}),
    ("window", REAL, {"window": ("0", "1")}),
    ("window", REAL, {"window": (False, True)}),
    ("experiments", SEQUENCE, {"experiments": "paths"}),
    ("drift", SEQUENCE, {"drift": 0.5}),
    ("drift", REAL, {"level": 1, "drift": ("abc", 0.0, 0.0, 0.0)}),
    ("tol", SEQUENCE, {"tolerances": 1e-9}),
    ("tol", SEQUENCE, {"tolerances": ("exact",)}),
    ("tol", "need \\(name, value\\) pairs", {"tolerances": (("exact",),)}),
    ("tol.exact", REAL, {"tolerances": (("exact", "abc"),)}),
    ("out", "need a directory path", {"out": 5}),
], ids=["grid-scalar", "window-scalar", "window-strings", "window-bools",
        "experiments-string", "drift-scalar", "drift-string",
        "tolerances-scalar", "tolerance-name-only", "tolerance-short-pair",
        "tolerance-string", "out-number"])
def test_a_malformed_sequence_or_string_field_is_refused_naming_its_key(
        key, reason, fields):
    """A scalar where a sequence belongs raised TypeError, a string of
    names was split into letters ('unknown experiment 'p''), numeric
    strings were cast (window ("0", "1") ran as (0.0, 1.0)), "abc" raised
    ValueError from float(), a tolerance that is not a (name, value)
    pair raised ValueError on unpacking, and out=5 was accepted; each is
    now one ConfigError naming its key."""
    with pytest.raises(ConfigError, match=rf"^config key '{key}': {reason}$"):
        RunConfig(**fields)


def test_real_fields_accept_ints_and_numpy_reals(tmp_path):
    """The real-number rule refuses strings and bools, not the numbers a
    library caller passes."""
    cfg = RunConfig(window=(np.float32(0.0), 2), level=1,
                    drift=np.array([0.5, 0.0, 0.0, 0.0]),
                    tolerances=(("exact", np.float64(1e-11)),),
                    experiments=["paths"], grids=[np.int64(16)],
                    out=tmp_path)
    assert cfg.window == (0.0, 2.0) and cfg.drift == (0.5, 0.0, 0.0, 0.0)
    assert cfg.tolerances == (("exact", 1e-11),)
    assert cfg.experiments == ("paths",) and cfg.grids == (16,)
    assert all(type(v) is float for v in cfg.window + cfg.drift)


def test_numpy_integers_are_accepted_as_plain_ints():
    cfg = RunConfig(seed=np.int64(3), replicas=np.int32(100),
                    grids=(np.uint16(16),), level=np.int8(1), n=np.int64(1),
                    threads=np.int64(2))
    values = (cfg.seed, cfg.replicas, *cfg.grids, cfg.level, cfg.n,
              cfg.threads)
    assert values == (3, 100, 16, 1, 1, 2)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("key,field,cap", [
    ("replicas", "replicas", MAX_REPLICAS),
    ("grid", "grids", MAX_GRID),
    ("threads", "threads", MAX_THREADS),
])
def test_a_size_past_its_cap_is_refused(key, field, cap):
    """replicas, grid sizes and threads build a config at their cap and
    are refused one past it, from a file and from a field.  Nothing runs
    at the cap: a config is only built."""
    def value(v):
        return (v,) if field == "grids" else v

    assert getattr(RunConfig(**{field: value(cap)}), field) == value(cap)
    past = cap + 8 if field == "grids" else cap + 1
    message = f"^config key '{key}': need at most {cap}$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{field: value(past)})
    with pytest.raises(ConfigError, match=message):
        parse_config_text(f"{key} = {past}\n")


def test_parse_block_needs_both_parts():
    with pytest.raises(ConfigError, match=r"u0\.block1"):
        parse_config_text("u0.block1.a = 1 0 0 0\n")


def test_parse_blocks_must_be_contiguous():
    text = "u0.block1.a = 1 0 0 0\nu0.block1.b = 1\n" \
           "u0.block3.a = 1 0 0 0\nu0.block3.b = 1\n"
    with pytest.raises(ConfigError, match="without gaps"):
        parse_config_text(text)


def test_parse_blocks_must_cover_n():
    text = "n = 2\nu0.block1.a = 1 0 0 0\nu0.block1.b = 1\n"
    with pytest.raises(ConfigError, match="n = 2"):
        parse_config_text(text)


def test_parse_u1_none_conflicts_with_blocks():
    text = "u1 = none\nu1.block1.a = 1 0 0 0\nu1.block1.b = 1\n"
    with pytest.raises(ConfigError, match="u1"):
        parse_config_text(text)


def test_parse_u1_mirrors_u0_by_default():
    cfg = parse_config_text("u0.block1.a = 1 0 0 0\nu0.block1.b = 2.0\n")
    u, _ = build_driving(cfg)
    assert isinstance(u, ComplexCovariance)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_not_utf8(tmp_path, capsys):
    """A file that does not decode is a config error (exit 2), not a
    failed check (exit 1)."""
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="config file .*bad.cfg.*utf-8"):
        load_config(bad)
    assert main(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: config file")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_TEXT, encoding="utf-8")
    assert load_config(path) == parse_config_text(GOOD_TEXT)


# ------------------------------------------------------------------ threads

def test_effective_threads_flag_wins():
    assert RunConfig(threads=3).threads == 3


def test_effective_threads_default():
    assert RunConfig().threads >= 1


def test_effective_threads_default_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                        raising=False)
    assert RunConfig().threads == 3
    # without an affinity call the host count is the fallback
    monkeypatch.delattr(os, "sched_getaffinity")
    assert RunConfig().threads == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert RunConfig().threads == 1
    # a host with more CPUs than the cap runs at the cap
    monkeypatch.setattr(os, "cpu_count", lambda: MAX_THREADS + 1)
    assert RunConfig().threads == MAX_THREADS


def test_effective_threads_reads_no_environment_variable(monkeypatch):
    """The worker count is the flag or config key, else the CPU count; an
    environment variable of the old name changes nothing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                        raising=False)
    monkeypatch.setenv("CD_STOCHASTIC_THREADS", "5")
    assert RunConfig().threads == 3
    monkeypatch.setenv("CD_STOCHASTIC_THREADS", "lots")
    assert RunConfig().threads == 3


# ------------------------------------------------------------------ reports

def test_jsonable_converts_numpy_scalars():
    doc = jsonable({"a": np.float64(1.5), "b": np.bool_(True),
                    "c": np.int32(4), "d": np.arange(3)})
    assert doc == {"a": 1.5, "b": True, "c": 4, "d": [0, 1, 2]}
    assert json.loads(json.dumps(doc)) == doc


def test_report_schema_and_rendering():
    cfg = tiny_cfg(experiments=("algebra",))
    doc = make_report(cfg, run_experiments(cfg))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["seed"] == cfg.seed
    assert doc["config"]["replicas"] == 200
    assert "threads" not in doc["config"]
    entry = doc["experiments"][0]
    assert entry["name"] == "algebra"
    assert entry["passed"] is True
    assert entry["wall_time_s"] >= 0.0
    for check in entry["checks"]:
        assert check["anchor"]
        assert isinstance(check["passed"], bool)
    text = render_json(doc)
    assert json.loads(text) == doc
    assert "wall_time_s" not in render_json(strip_timing(doc))


def test_metric_rows_flatten_lists():
    entry = {"name": "x", "checks": [
        {"name": "c", "anchor": "a", "passed": True,
         "gaps": [1.0, 2.0], "table": [{"dt": 0.5, "error": 0.1}]},
    ]}
    rows = list(metric_rows(entry))
    metrics = {r[2] for r in rows}
    assert ("c", "a", "passed", True) in rows
    assert "gaps[0]" in metrics
    assert "table[0].dt" in metrics


def test_write_outputs_csv(tmp_path):
    cfg = tiny_cfg(experiments=("algebra", "linops"), format="csv")
    doc = make_report(cfg, run_experiments(cfg))
    files = write_outputs(doc, tmp_path, "csv")
    names = {f.name for f in files}
    assert "report.json" in names
    assert "algebra.csv" in names and "linops.csv" in names
    header = (tmp_path / "algebra.csv").read_text().splitlines()[0]
    assert header == "experiment,check,anchor,metric,value"


# ------------------------------------------------------- derived settings

EVERY_KEY_TEXT = """
seed = 13
replicas = 400
level = 1
n = 2
grid = 16 32 64
window = 0.25 1.5
experiments = paths isometry
u0.block1.a = 1.0 0.3
u0.block1.b = 1.2
u0.block2.a = 1.0 0.2
u0.block2.b = 0.8
u1.block1.a = 0.9 0.1
u1.block1.b = 2.0 0.3 0.3 1.0
drift = 0.5 0 0 0.1 0 0 0 0.2
threads = 2
out = reports
format = csv
tol.exact = 1e-11
tol.sqrt = 1e-9
"""

# flag tokens and the value each puts on its field
COMMON_FLAGS = (
    ("seed", ["--seed", "9"], 9),
    ("replicas", ["--replicas", "123"], 123),
    ("grids", ["--grid", "32", "--grid", "64"], (32, 64)),
    ("threads", ["--threads", "3"], 3),
    ("out", ["--out", "elsewhere"], "elsewhere"),
    ("format", ["--format", "json"], "json"),
)


def test_config_echo_holds_every_field_but_the_run_options():
    cfg = parse_config_text(EVERY_KEY_TEXT)
    fields = dataclasses.fields(RunConfig)
    names = [f.name for f in fields]
    # the text sets every field away from its declared default
    assert all(getattr(cfg, f.name) != f.default for f in fields)
    echo = config_echo(cfg)
    assert set(echo) == set(names) - set(RUN_OPTIONS)
    for name in echo:
        value = getattr(cfg, name)
        if name == "tolerances":
            value = dict(value)
        assert echo[name] == jsonable(value), name
    assert echo["tolerances"] == {"exact": 1e-11, "sqrt": 1e-9}
    assert config_echo(RunConfig())["experiments"] == list(EXPERIMENT_CHOICES)


@pytest.mark.parametrize("command", ["paths", "run"])
def test_every_common_flag_lands_on_its_field(command):
    fields = parse_config_fields(EVERY_KEY_TEXT)
    base = RunConfig(**fields)
    prefix = ["run", "--config", "run.cfg"] if command == "run" else [command]
    argv = prefix + [tok for _, toks, _ in COMMON_FLAGS for tok in toks]
    cfg = _build_config(fields, build_parser().parse_args(argv))
    expected = {name: value for name, _, value in COMMON_FLAGS}
    if command != "run":
        expected["experiments"] = ("paths",)
    assert cfg == dataclasses.replace(base, **expected)


def test_run_keeps_the_file_value_of_a_flag_left_out():
    fields = parse_config_fields(EVERY_KEY_TEXT)
    base = RunConfig(**fields)
    prefix = ["run", "--config", "run.cfg"]
    assert _build_config(fields, build_parser().parse_args(prefix)) == base
    for name, toks, value in COMMON_FLAGS:
        cfg = _build_config(fields, build_parser().parse_args(prefix + toks))
        assert cfg == dataclasses.replace(base, **{name: value}), name


def test_run_gates_the_file_values_under_the_flags(tmp_path, capsys):
    """Only the merged config is gated: a flag mends a file value the sde
    battery refuses, and a flag the battery refuses fails a file it
    accepts, with exit 2 before any battery runs."""
    cfg_file = tmp_path / "sde.cfg"
    cfg_file.write_text("experiments = sde\ngrid = 8\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'grid'"):
        load_config(cfg_file)
    common = ["--replicas", "200", "--threads", "1"]
    rc = main(["run", "--config", str(cfg_file), "--grid", "16", *common,
               "--out", str(tmp_path / "mended")])
    assert rc in (0, 1)  # a verdict, not a usage error
    doc = json.loads((tmp_path / "mended" / "report.json").read_text())
    assert doc["config"]["grids"] == [16]
    cfg_file.write_text("experiments = sde\ngrid = 16\n", encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--grid", "8", *common,
               "--out", str(tmp_path / "refused")])
    assert rc == 2
    assert "config key 'grid'" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("command", ["sde", "run"])
def test_a_command_builds_one_config(command, tmp_path, monkeypatch):
    """A subcommand builds its RunConfig from its flags, and run from the
    file's values plus its flags: once, so the driving law is gated
    once."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("experiments = sde\nreplicas = 200\n",
                        encoding="utf-8")
    prefix = ["run", "--config", str(cfg_file)] if command == "run" \
        else [command, "--replicas", "200"]
    built = []
    post_init = RunConfig.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    class Built(Exception):
        pass

    def stop(cfg):
        raise Built(cfg)

    monkeypatch.setattr(RunConfig, "__post_init__", counted)
    monkeypatch.setattr(cli, "run_experiments", stop)
    with pytest.raises(Built) as caught:
        main(prefix + ["--grid", "16", "--out", str(tmp_path)])
    cfg, = caught.value.args
    assert len(built) == 1
    assert (cfg.experiments, cfg.replicas, cfg.grids) == (("sde",), 200,
                                                         (16,))


def test_subcommands_name_known_experiments():
    for name, (chosen, help_text) in SUBCOMMANDS.items():
        assert set(chosen) <= set(EXPERIMENT_CHOICES), name
        assert help_text
        assert build_parser().parse_args([name]).command == name
    assert SUBCOMMANDS["all"][0] == ()


# ---------------------------------------------------------------- run paths

def test_run_experiments_selection_and_order():
    cfg = tiny_cfg(experiments=("sde", "algebra"))
    names = [e["name"] for e in run_experiments(cfg)]
    assert names == ["algebra", "sde"]
    assert set(EXPERIMENT_CHOICES) == {
        "algebra", "linops", "paths", "isometry", "martingale",
        "chebyshev", "sde"}


def test_experiment_registry_matches_choices():
    # a tuple of (name, function) pairs, in the order of the config choices
    assert isinstance(experiments.EXPERIMENTS, tuple)
    assert tuple(n for n, _ in experiments.EXPERIMENTS) == EXPERIMENT_CHOICES


def test_cli_paths_run_writes_report(tmp_path, capsys):
    rc = main(["paths", "--seed", "4", "--replicas", "200", "--grid", "16",
               "--threads", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "paths: PASS" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    assert [e["name"] for e in doc["experiments"]] == ["paths"]


def test_cli_algebra_covers_operator_layer(tmp_path):
    rc = main(["algebra", "--replicas", "150", "--grid", "16",
               "--threads", "1", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [e["name"] for e in doc["experiments"]] == ["algebra", "linops"]


def test_cli_failure_exit_code(tmp_path, capsys):
    """An exact-identity tolerance below rounding makes real checks fail."""
    cfg_file = tmp_path / "strict.cfg"
    cfg_file.write_text("experiments = algebra\ntol.exact = 1e-300\n",
                        encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--replicas", "200",
               "--threads", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "algebra: FAIL" in out
    assert "norm_multiplicativity" in out


def test_sde_ladder_needs_two_halvings(tmp_path, capsys):
    """A one-point slope fit is meaningless, so such ladders are refused."""
    with pytest.raises(ConfigError, match="'grid'"):
        RunConfig(grids=(128, 256))
    with pytest.raises(ConfigError, match="'grid'"):
        RunConfig(grids=(8,), experiments=("sde",))
    assert RunConfig(grids=(8,), experiments=("paths",)).grids == (8,)
    assert RunConfig(grids=(16,), experiments=("sde",)).grids == (16,)
    rc = main(["sde", "--grid", "128", "--grid", "256", "--threads", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "'grid'" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("u0.block1.a = 1 0 0 0\nu0.block1.b = 1 2 3 4\n")
    rc = main(["run", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "u0.block1.b" in err


def test_cli_refuses_a_nan_law_before_any_battery(tmp_path, capsys):
    """A NaN covariance coefficient exits 2 and writes no report, where it
    used to exit 1 with NaN tokens in report.json."""
    cfg_file = tmp_path / "nan.cfg"
    cfg_file.write_text("experiments = paths\nreplicas = 200\ngrid = 16\n"
                        "u0.block1.a = nan 0 0 0\nu0.block1.b = 1\n",
                        encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--threads", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config key 'u0.block1.a': need finite numbers" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unusable_out_exits_before_any_battery(tmp_path, capsys,
                                                  monkeypatch):
    """An --out below a regular file is refused with exit 2 before a
    battery runs, not after every battery with a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    ran = []
    monkeypatch.setattr(cli, "run_experiments",
                        lambda cfg: ran.append(cfg) or [])
    rc = main(["algebra", "--threads", "1", "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert rc == 2 and ran == [] and captured.out == ""
    assert captured.err.startswith("error: output directory: ")
    assert "Not a directory" in captured.err


def test_cli_unwritable_report_exits_2(tmp_path, capsys, monkeypatch):
    """A report.json that cannot be written (here a directory of that
    name) is reported with exit 2, not a traceback and exit 1."""
    (tmp_path / "report.json").mkdir()
    ran = []
    monkeypatch.setattr(cli, "run_experiments",
                        lambda cfg: ran.append(cfg) or [])
    rc = main(["algebra", "--threads", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and len(ran) == 1 and captured.out == ""
    assert captured.err.startswith("error: writing the report: ")
    assert "Is a directory" in captured.err


def test_cli_divergence_guard_fires_on_a_short_window(tmp_path):
    """The blow-up control's rate scales with 1 / span, so it crosses the
    divergence limit on a window of length 1e-8 too; the run writes its
    report instead of stopping on a missing abort count."""
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("seed = 1\nreplicas = 500\ngrid = 16\n"
                        "window = 0 1e-8\nexperiments = sde\n",
                        encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--threads", "1",
               "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "report.json").read_text())
    checks = {c["name"]: c for c in doc["experiments"][0]["checks"]}
    assert rc == 0
    assert checks["divergence_guard"]["passed"]
    assert checks["divergence_guard"]["aborted_replicas"] == 8


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--format", "xml"])
    assert exc.value.code == 2


def test_cli_run_uses_config_experiments(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(GOOD_TEXT, encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--replicas", "200",
               "--threads", "1", "--out", str(tmp_path / "out"),
               "--format", "csv"])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [e["name"] for e in doc["experiments"]] == ["paths"]
    assert doc["config"]["replicas"] == 200
    assert (tmp_path / "out" / "paths.csv").exists()


def test_cli_refuses_a_repeated_experiment(tmp_path, capsys, monkeypatch):
    """A battery named twice would run once but echo both names, so the
    same work would write other report bytes: it is refused with exit 2
    before any battery runs."""
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("replicas = 200\nexperiments = martingale martingale\n",
                        encoding="utf-8")
    ran = []
    monkeypatch.setattr(cli, "run_experiments",
                        lambda cfg: ran.append(cfg) or [])
    rc = main(["run", "--config", str(cfg_file), "--threads", "1",
               "--out", str(tmp_path)])
    assert rc == 2 and ran == []
    assert "config key 'experiments'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    with pytest.raises(ConfigError, match="'experiments'"):
        RunConfig(experiments=("paths", "sde", "paths"))


def test_reports_identical_across_thread_counts():
    """Worker count must not leak into report bytes."""
    texts = []
    for threads in (1, 3):
        cfg = tiny_cfg(seed=21, experiments=("paths", "isometry"),
                       threads=threads)
        doc = make_report(cfg, run_experiments(cfg))
        texts.append(render_json(strip_timing(doc)))
    assert texts[0] == texts[1]


# sha256 of the stripped report of `cdstoch sde --seed 5 --replicas 2100
# --grid 16`, recorded before SdeProblem dropped its grid and noise law
SDE_REPORT_SHA256 = \
    "c4a4d5abd0c412b12a04f80d6178bc62f1e1c5460f24ae1069719a50e48c409a"
SDE_ARGV = ["sde", "--seed", "5", "--replicas", "2100", "--grid", "16"]

# (argv, sha256 of the stripped report); the sde pin runs at 1 and 3
# workers under those ids, the others were recorded before the step
# integral ran on its integrand's own grid and the algebra product had
# one implementation
REPORT_PINS = [
    pytest.param(SDE_ARGV + ["--threads", "1"], SDE_REPORT_SHA256, id="1"),
    pytest.param(SDE_ARGV + ["--threads", "3"], SDE_REPORT_SHA256, id="3"),
    pytest.param(
        ["algebra", "--seed", "16", "--threads", "2"],
        "23e4bf203d7cc7d8cc1a724227a1ee065b6522848fe7fc83bfd03e43b61b6c9d",
        id="algebra"),
    pytest.param(
        ["chebyshev", "--seed", "4", "--grid", "8", "--replicas", "2500",
         "--threads", "2"],
        "a96c41dd679742ac19f9b72b88693a5a5b64141dcd35c05c0486c00f5c5781e5",
        id="chebyshev"),
    pytest.param(
        ["isometry", "--seed", "2", "--grid", "16", "--replicas", "2100",
         "--threads", "2"],
        "b399a4ba1fa6c6c0d89124eae9af5add7634afb318d6371d98faab0c9854114c",
        id="isometry"),
    pytest.param(
        ["martingale", "--seed", "3", "--grid", "16", "--replicas", "2100",
         "--threads", "2"],
        "d8eb2a4547e0e45a0acd14d9eb96a9896cf31f1d0d5857e6e890ff4384f6c386",
        id="martingale"),
    pytest.param(
        ["paths", "--seed", "2", "--grid", "16", "--replicas", "2100",
         "--threads", "2"],
        "142cf3b4211fff76e0dd72601e220bca7bc015eb924c7b1f01561aabadc80082",
        id="paths"),
]


def _stripped_sha256(out) -> str:
    doc = json.loads((out / "report.json").read_text())
    return hashlib.sha256(render_json(strip_timing(doc)).encode()).hexdigest()


@pytest.mark.parametrize(("argv", "sha256"), REPORT_PINS)
def test_sde_report_bytes_are_pinned(tmp_path, argv, sha256):
    """A slipped bit anywhere in a pinned battery fails here in seconds."""
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 0
    assert _stripped_sha256(tmp_path) == sha256


SDE_WINDOW_TEXT = ("seed = 1\nreplicas = 500\ngrid = 16\nwindow = {}\n"
                   "experiments = sde\n")


def test_sde_refuses_a_window_its_forward_scheme_cannot_step(tmp_path,
                                                            capsys):
    """Forward Euler on the battery drift, left multiplication by
    -1 + 0.4 i_1, is stable for steps up to 2 / 1.16.  At grid 16 the
    uniqueness ladder's coarsest level has 2 steps, so window 0 1000
    (step 500) is refused with exit 2 before any battery runs, where
    it used to report NaN verdicts."""
    cfg_file = tmp_path / "long.cfg"
    cfg_file.write_text(SDE_WINDOW_TEXT.format("0 1000"), encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--threads", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "config key 'window'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert RunConfig(grids=(16,), window=(0.0, 3.4),
                     experiments=("sde",)).window == (0.0, 3.4)
    with pytest.raises(ConfigError, match="'window'"):
        RunConfig(grids=(16,), window=(0.0, 3.5), experiments=("sde",))
    # at grid 64 the strong-order ladder's coarsest level (4 steps) binds,
    # not the uniqueness ladder's (8 steps)
    with pytest.raises(ConfigError, match="'window'"):
        RunConfig(grids=(64,), window=(0.0, 7.0), experiments=("sde",))
    assert RunConfig(grids=(16,), window=(0.0, 1000.0),
                     experiments=("paths",)).window == (0.0, 1000.0)


@pytest.mark.parametrize(("window", "code", "sha256"), [
    ("0 2", 1,
     "9d52e31431304f6e791753df975868cc0609b2fce431a23215e3d0673c56bef7"),
    ("-5 -4", 0,
     "90ae6fdae91292baf9471ac899a4a095609ac262cd79a91e77aa5fb7ad1ac6eb"),
])
def test_sde_windows_within_the_step_bound_keep_their_bytes(tmp_path, window,
                                                            code, sha256):
    """Stable windows run as before the refusal; at window 0 2 the
    strong-order slope of 500 replicas misses its window (exit 1)."""
    cfg_file = tmp_path / "window.cfg"
    cfg_file.write_text(SDE_WINDOW_TEXT.format(window), encoding="utf-8")
    rc = main(["run", "--config", str(cfg_file), "--threads", "2",
               "--out", str(tmp_path)])
    assert rc == code
    assert _stripped_sha256(tmp_path) == sha256


def test_reports_differ_across_seeds():
    docs = []
    for seed in (1, 2):
        cfg = tiny_cfg(seed=seed, experiments=("paths",))
        docs.append(render_json(strip_timing(
            make_report(cfg, run_experiments(cfg)))))
    assert docs[0] != docs[1]
