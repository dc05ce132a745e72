import json
import os
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from nisio import (ConfigurationError, FamilyBounds, cli, control, envelope, montecarlo,
                   nisio_value, operators, property_suite, quadrature_tolerance)
from nisio.cli import main, run
from nisio.config import (CONFIG_SCHEMA, build_family, build_grid, build_u0,
                          config_hash, parse_field, validate_config)
from nisio.envelope import MAX_MEMBER_APPLIES
from nisio.probes import probe_function

ROOT = pathlib.Path(__file__).resolve().parent.parent


BASE_CFG = {
    "grid": {"kind": "uniform", "domain": [-8, 8], "dx": 0.02,
             "kappa": {"kind": "constant"}, "boundary": "reflect"},
    "family": {"kind": "heat", "sigmas": [0.5, 1.0]},
    "u0": {"name": "quadratic"},
    "solve": {"t": 1.0, "tol": 1e-7, "max_level": 6},
    "dpp": {"s": 0.5, "t": 0.5, "level": 5, "threshold": 5e-3},
    "control": {"t": 1.0, "m": 16, "trials": 5},
    "mc": {"t": 1.0, "m": 16, "n_paths": 20000, "seed": 3, "x0": 0.0},
    "report_window": [-2, 2],
}


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_schema_rejects_unknown_keys():
    cfg = dict(BASE_CFG)
    cfg["surprise"] = 1
    with pytest.raises(ConfigurationError):
        validate_config(cfg)
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["grid"]["typo"] = True
    with pytest.raises(ConfigurationError):
        validate_config(cfg)
    cfg = dict(BASE_CFG, threads=2)
    with pytest.raises(ConfigurationError):
        validate_config(cfg)
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["solve"]["snapshots"] = 4
    with pytest.raises(ConfigurationError):
        validate_config(cfg)


def test_schema_is_valid_2020_12():
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


# (section, kind) -> the keys its builder reads besides the kind/name tag
READ_KEYS = {
    ("grid", "uniform"): {"domain", "dx", "kappa", "boundary"},
    ("grid", "periodic"): {"domain", "dx", "kappa"},
    ("grid", "log"): {"x_max", "n", "x_min_mag", "kappa", "boundary"},
    ("grid", "labels"): {"n", "kappa"},
    ("kappa", "constant"): set(),
    ("kappa", "inverse_power"): {"p"},
    ("family", "heat"): {"sigmas", "alpha", "beta"},
    ("family", "gbm"): {"members", "alpha", "beta"},
    ("family", "ou"): {"members", "alpha", "beta"},
    ("family", "koopman"): {"fields", "lipschitz_hint", "alpha", "beta"},
    ("family", "stable"): {"alphas", "alpha", "beta"},
    ("family", "chain"): {"rate_matrices", "alpha", "beta"},
    ("family", "scaled"): {"base", "scales", "alpha", "beta"},
    ("base", "heat"): {"sigmas"},
    ("base", "gbm"): {"members"},
    ("base", "ou"): {"members"},
    ("base", "koopman"): {"fields", "lipschitz_hint"},
    ("base", "stable"): {"alphas"},
    ("base", "chain"): {"rate_matrices"},
    ("u0", "const"): {"value"},
    ("u0", "linear"): set(),
    ("u0", "quadratic"): set(),
    ("u0", "neg-quadratic"): set(),
    ("u0", "sin"): {"frequency"},
    ("u0", "cos"): {"frequency"},
    ("u0", "bump"): {"center", "width"},
    ("u0", "call-payoff"): {"strike"},
    ("u0", "csv"): {"path"},
}


def _accepted(schema):
    """kind -> keys one if/then branch accepts besides the tag."""
    tag = schema["required"][0]
    return {branch["if"]["properties"][tag]["const"]:
            set(branch["then"]["properties"]) - {tag} for branch in schema["allOf"]}


def test_schema_accepts_only_keys_builders_read():
    props = CONFIG_SCHEMA["properties"]
    family = props["family"]
    scaled = next(b["then"] for b in family["allOf"]
                  if b["if"]["properties"]["kind"]["const"] == "scaled")
    sections = {"grid": props["grid"], "kappa": props["grid"]["allOf"][0]["then"]
                ["properties"]["kappa"], "family": family,
                "base": scaled["properties"]["base"], "u0": props["u0"]}
    accepted = {(name, kind): keys for name, schema in sections.items()
                for kind, keys in _accepted(schema).items()}
    assert accepted == READ_KEYS
    assert sum(len(keys) for keys in accepted.values()) == 52


SMALL_CFG = {
    "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.1},
    "family": {"kind": "heat", "sigmas": [0.5, 1.0]},
    "u0": {"name": "quadratic"},
    "solve": {"t": 0.5, "max_level": 2},
}
LOG_GRID = {"kind": "log", "x_max": 8, "n": 50}
LABEL_GRID = {"kind": "labels", "n": 2}
HEAT = SMALL_CFG["family"]

# id -> (sections replaced in SMALL_CFG, text stderr must contain); a csv
# path is resolved in the test's tmp dir, where "bad.csv" holds "foo,bar"
REJECTED = {
    # keys no builder reads for that kind
    "heat-alphas": ({"family": dict(HEAT, alphas=[0.5])}, "'alphas'"),
    "uniform-n": ({"grid": dict(SMALL_CFG["grid"], n=3)}, "'n'"),
    "sin-strike": ({"u0": {"name": "sin", "strike": 1.0}}, "'strike'"),
    "count-without-range": ({"family": dict(HEAT, count=3)}, "'count' was unexpected"),
    "periodic-boundary": ({"grid": {"kind": "periodic", "domain": [-3, 3], "dx": 0.1,
                                    "boundary": "reflect"}}, "'boundary'"),
    "base-alpha": ({"family": {"kind": "scaled", "scales": [1.0], "base": {
        "kind": "heat", "sigmas": [1.0], "alpha": 0.0}}}, "'alpha'"),
    "constant-kappa-p": ({"grid": dict(SMALL_CFG["grid"],
                                       kappa={"kind": "constant", "p": 2})}, "'p'"),
    "log-domain": ({"grid": dict(LOG_GRID, domain=[-8, 8])}, "'domain'"),
    # malformed configs
    "scaled-without-base": ({"family": {"kind": "scaled", "scales": [1.0]}}, "'base'"),
    "scaled-base-scaled": ({"family": {"kind": "scaled", "scales": [1.0], "base": {
        "kind": "scaled", "scales": [1.0]}}}, "base.kind"),
    "gbm-without-members": ({"grid": LOG_GRID, "family": {"kind": "gbm"}}, "'members'"),
    "ou-member-without-B": ({"family": {"kind": "ou", "members": [
        {"m": 0.0, "C": 1.0}]}}, "'B'"),
    "stable-without-alphas": ({"family": {"kind": "stable"}}, "'alphas'"),
    "csv-without-path": ({"u0": {"name": "csv"}}, "'path'"),
    "csv-missing-file": ({"u0": {"name": "csv", "path": "missing.csv"}}, "u0 path"),
    "gbm-member-single": ({"grid": LOG_GRID, "family": {"kind": "gbm", "members": [
        [0.1]]}}, "members[0]"),
    "heat-sigmas-and-range": ({"family": dict(HEAT, range=[0.5, 1.0])},
                              "'range' was unexpected"),
    "heat-neither": ({"family": {"kind": "heat"}}, "'sigmas'"),
    "grid-kind-unknown": ({"grid": {"kind": "hex"}}, "grid.kind"),
    "log-x_max-negative": ({"grid": dict(LOG_GRID, x_max=-8)}, "grid.x_max"),
    "log-n-1": ({"grid": dict(LOG_GRID, n=1)}, "$.grid.n: 1 is less than the minimum of 2"),
    "log-x_min_mag-over-x_max": ({"grid": dict(LOG_GRID, x_min_mag=10)},
                                 "grid.x_min_mag 10 is not below grid.x_max 8"),
    "log-x_min_mag-at-x_max": ({"grid": dict(LOG_GRID, x_min_mag=8)},
                               "grid.x_min_mag 8 is not below grid.x_max 8"),
    "log-x_min_mag-zero": ({"grid": dict(LOG_GRID, x_min_mag=0)},
                           "$.grid.x_min_mag: 0 is less than or equal to the minimum of 0"),
    "uniform-dx-zero": ({"grid": dict(SMALL_CFG["grid"], dx=0)},
                        "$.grid.dx: 0 is less than or equal to the minimum of 0"),
    "uniform-dx-negative": ({"grid": dict(SMALL_CFG["grid"], dx=-0.01)},
                            "$.grid.dx: -0.01 is less than or equal to the minimum of 0"),
    "periodic-dx-zero": ({"grid": {"kind": "periodic", "domain": [-3, 3], "dx": 0}},
                         "$.grid.dx: 0 is less than or equal to the minimum of 0"),
    # a Koopman member interpolates its flowed values and reads no boundary
    "koopman-boundary": ({"grid": dict(SMALL_CFG["grid"], boundary="reflect"),
                          "family": {"kind": "koopman", "fields": ["-x"]}},
                         "grid.boundary 'reflect'"),
    "scaled-koopman-boundary": ({"grid": dict(SMALL_CFG["grid"], boundary="renormalize"),
                                 "family": {"kind": "scaled", "scales": [1.0], "base": {
                                     "kind": "koopman", "fields": ["-x"]}}},
                                "grid.boundary 'renormalize'"),
    # an entry a member's own check rejects: the message names the entry,
    # and grid.kind when the member cannot live on that grid
    "heat-sigma-negative": ({"family": dict(HEAT, sigmas=[-1])}, "family.sigmas[0]: sigma"),
    "heat-range-negative": ({"family": dict(HEAT, range=[-1, 1])}, "'range' was unexpected"),
    "heat-on-log-grid": ({"grid": LOG_GRID},
                         "family.sigmas[0] on grid.kind 'log': heat member needs"),
    "gbm-on-uniform-grid": ({"family": {"kind": "gbm", "members": [[0.1, 0.2]]}},
                            "family.members[0] on grid.kind 'uniform'"),
    "stable-alpha-1.5": ({"grid": {"kind": "periodic", "domain": [-3, 3], "dx": 0.1},
                          "family": {"kind": "stable", "alphas": [0.5, 1.5]}},
                         "family.alphas[1]: alpha"),
    "chain-negative-rate": ({"grid": LABEL_GRID, "family": {
        "kind": "chain", "rate_matrices": [[[1, -1], [1, -1]]]}}, "family.rate_matrices[0]: "),
    "scales-negative": ({"family": {"kind": "scaled", "scales": [1.0, -1.0], "base": {
        "kind": "heat", "sigmas": [1.0]}}},
                        "family.scales[1]: scale"),
    "scaled-base-two-members": ({"family": {"kind": "scaled", "scales": [1.0], "base": HEAT}},
                                "$.family.base.sigmas: [0.5, 1.0] is too long"),
    "scaled-base-sigma-negative": ({"family": {"kind": "scaled", "scales": [1.0], "base": {
        "kind": "heat", "sigmas": [-1.0]}}}, "family.base.sigmas[0]: sigma"),
    "scaled-base-on-log-grid": ({"grid": LOG_GRID, "family": {
        "kind": "scaled", "scales": [1.0], "base": {"kind": "heat", "sigmas": [1.0]}}},
        "family.base.sigmas[0] on grid.kind 'log'"),
    "koopman-over-hint": ({"family": {"kind": "koopman", "fields": ["-3*x"],
                                      "lipschitz_hint": 1}}, "family.fields[0]: field exceeds"),
    "ou-C-negative": ({"family": {"kind": "ou", "members": [{"B": -0.5, "m": 0.0, "C": -1}]}},
                      "family.members[0]: C must be"),
    "ou-2d-on-uniform-grid": ({"family": {"kind": "ou", "members": [
        {"B": [[-1, 0], [0, -1]], "m": [0, 0], "C": [[1, 0], [0, 1]]}]}},
        "$.family.members[0].m: [0, 0] is not of type 'number'"),
    "ou-3d": ({"family": {"kind": "ou", "members": [
        {"B": -0.5, "m": 0.0, "C": 1.0},
        {"B": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], "m": [0, 0, 0],
         "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}},
        "$.family.members[1].m: [0, 0, 0] is not of type 'number'"),
    "ou-inconsistent": ({"family": {"kind": "ou", "members": [
        {"B": [[-1, 0], [0, -1]], "m": 0.0, "C": [[1, 0], [0, 1]]}]}},
        "$.family.members[0].C: [[1, 0], [0, 1]] is not of type 'number'"),
    "ou-C-asymmetric": ({"family": {"kind": "ou", "members": [
        {"B": [[-1, 0], [0, -1]], "m": [0, 0], "C": [[1, 0.5], [0, 1]]}]}},
        "$.family.members[0].m: [0, 0] is not of type 'number'"),
    "ou-1d-on-log-grid": ({"grid": LOG_GRID, "family": {"kind": "ou", "members": [
        {"B": -0.5, "m": 0.0, "C": 1.0}]}},
        "family.members[0] on grid.kind 'log': 1D OU member needs a uniform grid"),
    "koopman-on-periodic-grid": ({"grid": {"kind": "periodic", "domain": [-3, 3], "dx": 0.1},
                                  "family": {"kind": "koopman", "fields": ["-x"]}},
                                 "family.fields[0] on grid.kind 'periodic': Koopman member"),
    "chain-on-uniform-grid": ({"family": {"kind": "chain", "rate_matrices": [[[-1, 1], [1, -1]]]}},
                              "family.rate_matrices[0] on grid.kind 'uniform': chain member"),
    "chain-shape": ({"grid": LABEL_GRID, "family": {"kind": "chain", "rate_matrices": [
        [[-1, 1, 0], [1, -1, 0], [0, 0, 0]]]}},
        "family.rate_matrices[0]: rate matrix shape mismatch"),
    # a field is arithmetic over x and the allowed functions, checked before
    # eval, and finite on the grid
    "field-syntax": ({"family": {"kind": "koopman", "fields": ["sin(x"]}},
                     "family.fields[0]: bad field expression 'sin(x'"),
    "field-attribute": ({"family": {"kind": "koopman", "fields": ["-x", "().__class__"]}},
                        "family.fields[1]: field expression '().__class__': Attribute not"),
    "field-call": ({"family": {"kind": "koopman", "fields": ["__import__('os').system('true')"]}},
                   "family.fields[0]: field expression \"__import__('os').system('true')\": "
                   "call not allowed"),
    "field-name": ({"family": {"kind": "koopman", "fields": ["y"]}},
                   "family.fields[0]: field expression 'y': unknown name y"),
    "field-nan": ({"family": {"kind": "koopman", "fields": ["sqrt(x)"]}},
                  "family.fields[0]: field is not finite on the grid: nan at x = -4"),
    "field-inf": ({"family": {"kind": "koopman", "fields": ["1e999*x"]}},
                  "family.fields[0]: field is not finite on the grid: -inf at x = -4"),
    # malformed data
    "chain-ragged": ({"grid": LABEL_GRID, "family": {
        "kind": "chain", "rate_matrices": [[[-1, 1], [1]]]}}, "rate_matrices"),
    "chain-string": ({"grid": LABEL_GRID, "family": {
        "kind": "chain", "rate_matrices": "a"}}, "rate_matrices"),
    "ou-B-string": ({"family": {"kind": "ou", "members": [
        {"B": "x", "m": 0.0, "C": 1.0}]}}, "members[0].B"),
    "ou-B-ragged": ({"family": {"kind": "ou", "members": [
        {"B": [[1.0, 0.0], [1.0]], "m": 0.0, "C": 1.0}]}},
        "$.family.members[0].B: [[1.0, 0.0], [1.0]] is not of type 'number'"),
    "csv-not-numeric": ({"u0": {"name": "csv", "path": "bad.csv"}}, "u0 path"),
    # work budget, checked before any matrix is built
    "max-level-over-budget": ({"solve": {"t": 0.5, "max_level": 40}}, "max_level 40"),
    # eps_q's kernel at 0.1 is past the Gaussian-weight budget and is built
    # before the solve's kernel at 1, whose moments overflow: exit 2, as
    # under properties
    "ou-kernel-over-budget": ({"grid": {"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
                               "family": {"kind": "ou", "members": [
                                   {"B": 800.0, "m": 0.0, "C": 1.0}]},
                               "u0": {"name": "sin"}, "solve": {"t": 1.0, "max_level": 3}},
                              "ou(B=800,m=0,C=1) at duration 0.1: kernel of std "),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_cli_rejects_config_with_exit_2(tmp_path, capsys, case):
    sections, names = REJECTED[case]
    cfg = dict(SMALL_CFG, **json.loads(json.dumps(sections)))
    if "path" in cfg["u0"]:
        (tmp_path / "bad.csv").write_text("x,u\nfoo,bar\n")
        cfg["u0"]["path"] = str(tmp_path / cfg["u0"]["path"])
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 2
    assert not out.exists() or not any(out.iterdir())
    assert names in capsys.readouterr().err


# id -> (subcommand, sections replaced in SMALL_CFG, JSON path of the number):
# json reads NaN, Infinity and 1e999 and the schema's number admits them, so
# each is rejected by name before any build
NAN = float("nan")
NOT_FINITE = {
    "grid-dx": ("solve", {"grid": dict(SMALL_CFG["grid"], dx=NAN)}, "$.grid.dx"),
    "solve-tol": ("solve", {"solve": dict(SMALL_CFG["solve"], tol=NAN)}, "$.solve.tol"),
    "solve-t-inf": ("solve", {"solve": dict(SMALL_CFG["solve"], t=float("inf"))},
                    "$.solve.t"),
    "dpp-threshold": ("dpp", {"dpp": {"s": 0.1, "t": 0.1, "threshold": NAN}},
                      "$.dpp.threshold"),
    "heat-sigma": ("solve", {"family": dict(HEAT, sigmas=[NAN, 1.0])}, "$.family.sigmas[0]"),
    "scale": ("solve", {"family": {"kind": "scaled", "scales": [1.0, NAN], "base": {
        "kind": "heat", "sigmas": [1.0]}}}, "$.family.scales[1]"),
    "gbm-mu": ("solve", {"grid": LOG_GRID, "family": {"kind": "gbm", "members": [
        [0.1, 0.2], [NAN, 0.2]]}}, "$.family.members[1][0]"),
    "lipschitz-hint": ("solve", {"family": {"kind": "koopman", "fields": ["-x"],
                                            "lipschitz_hint": NAN}},
                       "$.family.lipschitz_hint"),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE))
def test_cli_rejects_a_number_that_is_not_finite_with_exit_2(tmp_path, capsys, case):
    sub, sections, path = NOT_FINITE[case]
    cfg = dict(SMALL_CFG, **sections)
    out = tmp_path / "out"
    assert run(sub, write_cfg(tmp_path, cfg), str(out)) == 2
    assert not out.exists() or not any(out.iterdir())
    assert f"config rejected at {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("-Infinity", "-inf"),
                                         ("1e999", "inf")])
def test_cli_names_each_spelling_of_a_number_that_is_not_finite(tmp_path, capsys,
                                                                 text, shown):
    path = tmp_path / "cfg.json"
    # dpp.threshold has no sign rule, so each spelling reaches the finite pass;
    # solve.t's minimum of 0 rejects -inf first
    cfg = json.dumps(dict(SMALL_CFG, dpp={"s": 0.1, "t": 0.1, "threshold": 0.25}))
    path.write_text(cfg.replace('"threshold": 0.25', f'"threshold": {text}'))
    assert run("dpp", str(path), str(tmp_path / "out")) == 2
    assert f"config rejected at $.dpp.threshold: {shown} is not finite" in capsys.readouterr().err
    path.write_text(cfg.replace('"t": 0.5', f'"t": {text}'))
    assert run("solve", str(path), str(tmp_path / "out")) == 2
    message = "-inf is less than the minimum of 0" if shown == "-inf" else f"{shown} is not finite"
    assert f"config rejected at $.solve.t: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("sub, article", [("solve", "a"), ("dpp", "a"),
                                          ("control", "a"), ("mc", "an")])
def test_cli_subcommand_needs_its_section(tmp_path, capsys, sub, article):
    cfg = {k: v for k, v in BASE_CFG.items() if k != sub}
    assert run(sub, write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert f"{sub} subcommand needs {article} {sub} section" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["control", "mc"])
def test_cli_stage_count_over_budget_exits_2(tmp_path, capsys, monkeypatch, sub):
    # m * K member applies past the budget: rejected before any greedy stage
    # and before control's refinement
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(control, "envelope_step_argmax", no_work)
    monkeypatch.setattr(control, "nisio_value", no_work)
    cfg = json.loads((ROOT / "bench/configs/tiny/readme.json").read_text(encoding="utf-8"))
    cfg["control"] = {"t": 1.0, "m": 2 ** 40, "trials": 0}
    cfg["mc"]["m"] = 2 ** 40
    out = tmp_path / "out"
    assert run(sub, write_cfg(tmp_path, cfg), str(out)) == 2
    assert not any(out.iterdir())
    err = capsys.readouterr().err
    assert f"{2 ** 40} stages with 2 members" in err
    assert f"above the budget of {MAX_MEMBER_APPLIES}" in err


def test_cli_mc_path_count_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # 2^25 paths over 4 stages pass the 2^26 path-stage budget: rejected
    # before the greedy policy and before any path is allocated
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(control, "envelope_step_argmax", no_work)
    cfg = json.loads((ROOT / "bench/configs/tiny/readme.json").read_text(encoding="utf-8"))
    cfg["mc"]["n_paths"] = 2 ** 25
    out = tmp_path / "out"
    path = write_cfg(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert run("mc", path, str(out)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not any(out.iterdir())
    assert (f"{2 ** 25} paths over 4 stages need {2 ** 27} path-stages, above the "
            f"budget of {montecarlo.MAX_PATH_STAGES}") in capsys.readouterr().err


def test_cli_mc_on_a_one_point_periodic_grid_exits_2(tmp_path, capsys, monkeypatch):
    # u is read between two nodes at the paths' ends: a one-point period is
    # rejected, naming the key, before the greedy policy or any path
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid check")

    monkeypatch.setattr(control, "envelope_step_argmax", no_work)
    monkeypatch.setattr(montecarlo, "sample_terminal_states", no_work)
    cfg = {"grid": {"kind": "periodic", "domain": [-1, 1], "dx": 2},
           "family": {"kind": "heat", "sigmas": [0.5, 1.0]},
           "mc": {"t": 0.5, "m": 2, "n_paths": 100, "x0": 0.0}}
    out = tmp_path / "out"
    assert run("mc", write_cfg(tmp_path, cfg), str(out)) == 2
    assert not any(out.iterdir())
    err = capsys.readouterr().err
    assert "config error" in err and "grid.dx 2" in err


def test_cli_properties_without_a_positive_horizon_exits_2(tmp_path, capsys):
    # the partition pairs and refinements run to max(t_list); at 0 they
    # used to raise ValueError from the pair sampler
    cfg = {"grid": {"kind": "labels", "n": 3},
           "family": {"kind": "chain", "rate_matrices": [[[-1, 1, 0], [0, 0, 0], [0, 0, 0]]]},
           "properties": {"probes": ["const"], "t_list": [0.0, 0.0]}}
    assert run("properties", write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert "t_list needs a positive horizon" in capsys.readouterr().err


# eps_q's durations, as composition_defect forms them from t_ref = 0.1
EPS_Q_DURATIONS = {0.1, 0.5 * 0.1, 0.25 * 0.1, 0.75 * 0.1}


def _spy_builds(monkeypatch):
    """Record ``(member name, duration)`` for every kernel build and
    ``"eps_q"`` when the CLI's eps_q measurement returns; return the events
    and the families the CLI builds.  Builds are keyed by name because eps_q
    builds on scratch copies of the members."""
    events, families = [], []
    matrix = operators.TransitionOperator.matrix

    def spy_matrix(self, t):
        if t not in self._cache:
            events.append((self.name, t))
        return matrix(self, t)

    def spy_tolerance(family):
        eps = quadrature_tolerance(family)
        events.append("eps_q")
        return eps

    def spy_family(cfg, grid):
        families.append(build_family(cfg, grid))
        return families[-1]

    monkeypatch.setattr(operators.TransitionOperator, "matrix", spy_matrix)
    monkeypatch.setattr(cli, "quadrature_tolerance", spy_tolerance)
    monkeypatch.setattr(cli, "build_family", spy_family)
    return events, families


# small heat runs whose work builds kernels at some of eps_q's durations
SHARED_DURATION_CFG = {
    "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.05, "boundary": "reflect"},
    "family": {"kind": "heat", "sigmas": [0.5, 1.0]},
    "u0": {"name": "quadratic"},
    "solve": {"t": 0.2, "max_level": 2},
    "dpp": {"s": 0.1, "t": 0.1, "level": 2},
    "control": {"t": 0.2, "m": 2, "level": 2, "trials": 3},
    "mc": {"t": 0.2, "m": 2, "n_paths": 200, "seed": 3, "x0": 0.0},
}


@pytest.mark.parametrize("sub", ["solve", "dpp", "control", "mc"])
def test_cli_measures_eps_q_on_empty_stores_before_the_work(tmp_path, monkeypatch, sub):
    events, families = _spy_builds(monkeypatch)
    assert run(sub, write_cfg(tmp_path, SHARED_DURATION_CFG), str(tmp_path / "out")) == 0
    mark = events.index("eps_q")
    before, work = events[:mark], events[mark + 1:]
    members = families[0].members
    names = [m.name for m in members]
    # eps_q first: every member's four kernels, and nothing the work builds
    assert sorted((names.index(m), t) for m, t in before) == sorted(
        (i, t) for i in range(len(members)) for t in EPS_Q_DURATIONS)
    for i, member in enumerate(members):
        used = {t for m, t in work if m == member.name}
        assert 0.1 in used                # built once for eps_q, once for the work
        assert set(member._cache) & EPS_Q_DURATIONS <= used


# configs each rejected before any kernel is built: over budget, a horizon or
# tolerance of the wrong sign or too small to split, a window that selects
# no point, a field that is not finite on the grid, an OU coefficient that is
# not a number
NO_WORK = {
    "solve-level": ("solve", {"solve": {"t": 1.0, "max_level": 40}}, "max_level 40"),
    "dpp-level": ("dpp", {"dpp": {"s": 0.5, "t": 0.5, "level": 40}}, "max_level 40"),
    "control-level": ("control", {"control": {"t": 1.0, "m": 4, "level": 40}},
                      "max_level 40"),
    "control-stages": ("control", {"control": {"t": 1.0, "m": 2 ** 40}},
                       f"{2 ** 40} stages"),
    "mc-stages": ("mc", {"mc": dict(BASE_CFG["mc"], m=2 ** 40)}, f"{2 ** 40} stages"),
    "mc-paths": ("mc", {"mc": dict(BASE_CFG["mc"], m=4, n_paths=2 ** 25)},
                 f"{2 ** 25} paths"),
    "mc-one-point": ("mc", {"grid": {"kind": "periodic", "domain": [-1, 1], "dx": 2}},
                     "grid.dx 2"),
    "mc-one-node-uniform": ("mc", {"grid": {"kind": "uniform", "domain": [0, 0], "dx": 0.1}},
                            "mc on a uniform grid needs at least two points: "
                            "grid.domain [0, 0] holds one node at grid.dx 0.1"),
    "solve-ou-2d": ("solve", {"family": {"kind": "ou", "members": [
        {"B": [[-1, 0], [0, -1]], "m": [0, 0], "C": [[1, 0], [0, 1]]}]}},
                    "$.family.members[0].m: [0, 0] is not of type 'number'"),
    "ou-1x1-form": ("solve", {"family": {"kind": "ou", "members": [
        {"B": [[-0.5]], "m": 0.2, "C": 1.0}]}},
                    "$.family.members[0].B: [[-0.5]] is not of type 'number'"),
    "solve-subnormal": ("solve", {"solve": {"t": 5e-324}},
                        "solve.t 5e-324 is too small to split into 4096 steps"),
    "dpp-subnormal": ("dpp", {"dpp": {"s": 0.5, "t": 5e-324}},
                      "dpp.t 5e-324 is too small to split into 64 steps"),
    "control-subnormal": ("control", {"control": {"t": 5e-324, "m": 100}},
                          "control.t 5e-324 is too small to split into 100 steps"),
    "mc-subnormal": ("mc", {"mc": dict(BASE_CFG["mc"], t=5e-324)},
                     "mc.t 5e-324 is too small to split into 16 steps"),
    "properties-subnormal": ("properties", {"properties": {"t_list": [0.5, 5e-324]}},
                             "properties.t_list 5e-324 is too small to split into 16 steps"),
    "solve-negative": ("solve", {"solve": {"t": -1.0}},
                       "$.solve.t: -1.0 is less than the minimum of 0"),
    "properties-negative": ("properties", {"properties": {"t_list": [0.5, -0.25]}},
                            "$.properties.t_list[1]: -0.25 is less than the minimum of 0"),
    "control-zero": ("control", {"control": {"t": 0.0, "m": 2}},
                     "$.control.t: 0.0 is less than or equal to the minimum of 0"),
    "mc-zero": ("mc", {"mc": dict(BASE_CFG["mc"], t=0.0)},
                "$.mc.t: 0.0 is less than or equal to the minimum of 0"),
    "solve-tol-zero": ("solve", {"solve": {"t": 0.2, "tol": 0}},
                       "$.solve.tol: 0 is less than or equal to the minimum of 0"),
    "solve-empty-window": ("solve", {"report_window": [9, 10]},
                           "report_window [9, 10] selects no grid point"),
    "dpp-empty-window": ("dpp", {"report_window": [2, -2]},
                         "report_window [2, -2] selects no grid point"),
    "solve-field-nan": ("solve", {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.05},
                                  "family": {"kind": "koopman", "fields": ["-x", "sqrt(x)"]}},
                        "family.fields[1]: field is not finite on the grid"),
}


@pytest.mark.parametrize("case", sorted(NO_WORK))
def test_cli_rejects_before_any_kernel_build(tmp_path, capsys, monkeypatch, case):
    sub, sections, message = NO_WORK[case]
    events, _ = _spy_builds(monkeypatch)
    cfg = {**SHARED_DURATION_CFG, **sections}
    out = tmp_path / "out"
    assert run(sub, write_cfg(tmp_path, cfg), str(out)) == 2
    # a schema rejection comes before --out is made
    assert events == [] and (not out.exists() or not any(out.iterdir()))
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("budget, code", [(1021, 2), (1022, 0)])
def test_cli_mc_checks_its_refinement_budget_before_any_work(tmp_path, capsys, monkeypatch,
                                                             budget, code):
    # mc.json's level-8 envelope of 2 members takes up to (2^9 - 1) * 2 = 1022
    # member applies; one fewer in the budget rejects the run before eps_q,
    # any kernel build, the greedy policy or any path (control binds its own
    # copy of the budget, so the greedy stage check is not the one that fires)
    events, _ = _spy_builds(monkeypatch)
    monkeypatch.setattr(envelope, "MAX_MEMBER_APPLIES", budget)
    out = tmp_path / "out"
    assert run("mc", write_cfg(tmp_path, SHARED_DURATION_CFG), str(out)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert events == [] and not any(out.iterdir())
        assert err.startswith("config error: ") and "max_level 8 with 2 members" in err
    else:
        assert "eps_q" in events and err == ""


@pytest.mark.parametrize("sub", ["solve", "properties", "dpp", "control", "mc", "report"])
def test_cli_out_under_a_regular_file_exits_2(tmp_path, capsys, sub):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert run(sub, write_cfg(tmp_path, SHARED_DURATION_CFG), str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err


SHIPPED =sorted(ROOT.glob("bench/configs/**/*.json"))


def _readme_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


@pytest.mark.parametrize("source", ["README.md"] + [str(p.relative_to(ROOT))
                                                    for p in SHIPPED])
def test_shipped_configs_validate_and_build(source):
    cfg = _readme_config() if source == "README.md" else \
        json.loads((ROOT / source).read_text(encoding="utf-8"))
    validate_config(cfg)
    grid = build_grid(cfg)
    assert len(build_family(cfg, grid)) == 2
    assert build_u0(cfg, grid).grid is grid


def test_config_hash_is_stable():
    a = config_hash(BASE_CFG)
    b = config_hash(json.loads(json.dumps(BASE_CFG)))
    assert a == b and len(a) == 64


def test_parse_field():
    f = parse_field("-x + 0.5*sin(x)")
    x = np.array([0.0, 1.0])
    assert np.allclose(f(x), -x + 0.5 * np.sin(x))
    with pytest.raises(ConfigurationError):
        parse_field("__import__('os')")
    with pytest.raises(ConfigurationError):
        parse_field("y + 1")


def test_builders_cover_family_kinds():
    specs = [
        {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.1},
         "family": {"kind": "heat", "sigmas": [0.5, 0.75, 1.0]}},
        {"grid": {"kind": "log", "x_max": 8, "n": 200, "x_min_mag": 0.01,
                  "kappa": {"kind": "inverse_power", "p": 2}},
         "family": {"kind": "gbm", "members": [[0.05, 0.2], [0.1, 0.3]]}},
        {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.1},
         "family": {"kind": "ou", "members": [{"B": -0.5, "m": 0.1, "C": 1.0}]}},
        {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.1},
         "family": {"kind": "koopman", "fields": ["-x", "-0.5*x"],
                    "lipschitz_hint": 1.0}},
        {"grid": {"kind": "periodic", "domain": [-3.141592653589793, 3.141592653589793],
                  "dx": 0.02454369260617026},
         "family": {"kind": "stable", "alphas": [0.5, 0.9]}},
        {"grid": {"kind": "labels", "n": 2},
         "family": {"kind": "chain",
                    "rate_matrices": [[[-1.0, 1.0], [1.0, -1.0]]]}},
        {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.1},
         "family": {"kind": "scaled", "base": {"kind": "heat", "sigmas": [1.0]},
                    "scales": [0.0, 1.0, 2.0]}},
    ]
    for cfg in specs:
        validate_config(cfg)
        grid = build_grid(cfg)
        fam = build_family(cfg, grid)
        assert len(fam) >= 1
        u = build_u0(cfg, grid)
        assert u.grid is grid


@pytest.mark.parametrize("base", [
    {"kind": "koopman", "fields": ["0.5*x"], "lipschitz_hint": 0.5},
    {"kind": "gbm", "members": [[0.05, 0.2]]},
])
def test_scaled_family_bounds_are_the_base_times_the_largest_scale(base):
    grid = {"kind": "log", "x_max": 8, "n": 100, "kappa": {"kind": "inverse_power"}} \
        if base["kind"] == "gbm" else {"kind": "uniform", "domain": [-4, 4], "dx": 0.1}
    cfg = {"grid": grid, "family": {"kind": "scaled", "base": base, "scales": [0.5, 3.0]}}
    g = build_grid(validate_config(cfg))
    want = build_family({"grid": grid, "family": base}, g).bounds
    assert want.beta > 0.0
    assert build_family(cfg, g).bounds == FamilyBounds(3.0 * want.alpha, 3.0 * want.beta)


GBM_PAIR = {"kind": "gbm", "members": [[0.05, 0.2], [0.1, 0.3]]}


def _gbm_bounds(grid):
    cfg = validate_config({"grid": grid, "family": GBM_PAIR})
    return build_family(cfg, build_grid(cfg)).bounds


@pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 3])
def test_gbm_default_alpha_is_the_kappa_exponent_times_beta(p):
    # kappa = (1 + |x|)^-p: alpha is p * beta exactly, p read from the
    # config rather than recovered from kappa's values at the grid's end
    for x_max in (2, 8, 9.37, 100):
        for n in (7, 100):
            bounds = _gbm_bounds({"kind": "log", "x_max": x_max, "n": n,
                                  "kappa": {"kind": "inverse_power", "p": p}})
            assert bounds.alpha == p * bounds.beta, (x_max, n)


def test_gbm_default_alpha_reads_kappa_s_default_and_constant_kinds():
    bounds = _gbm_bounds(dict(LOG_GRID, kappa={"kind": "inverse_power"}))
    assert bounds.alpha == 2.0 * bounds.beta > 0.0
    for grid in (LOG_GRID, dict(LOG_GRID, kappa={"kind": "constant"})):
        assert _gbm_bounds(grid).alpha == 0.0


def test_scaled_koopman_family_propagates_lipschitz_like_its_members():
    # S_2(t) = S(2t) grows Lipschitz seminorms like the field 1.0*x does, so
    # the scaled family must pass where the plain koopman family passes
    grid_cfg = {"kind": "uniform", "domain": [-4, 4], "dx": 0.02}
    families = {
        "scaled": {"kind": "scaled", "scales": [1, 2], "base": {
            "kind": "koopman", "fields": ["0.5*x"], "lipschitz_hint": 0.5}},
        "koopman": {"kind": "koopman", "fields": ["0.5*x", "1.0*x"],
                    "lipschitz_hint": 1.0},
    }
    slack = {}
    for name, family in families.items():
        cfg = validate_config({"grid": grid_cfg, "family": family})
        grid = build_grid(cfg)
        fam = build_family(cfg, grid)
        assert fam.bounds == FamilyBounds(0.0, 1.0)
        rep = property_suite(fam, [probe_function(p, grid) for p in ("sin", "cos")],
                             [0.25, 1.0])
        check = {c["name"]: c for c in rep["checks"]}["lipschitz_propagation"]
        assert check["passed"], (name, check)
        slack[name] = check["worst_slack"]
    assert slack["scaled"] == pytest.approx(slack["koopman"], abs=1e-9)


def test_cli_full_cycle(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    for sub in ("solve", "properties", "dpp", "control", "mc", "report"):
        rc = run(sub, cfg_path, out)
        assert rc == 0, sub
    files = sorted(os.listdir(out))
    assert files == ["control_gap.json", "control_policy.json", "dpp.json",
                     "mc.json", "properties.json", "report.json", "solve.csv",
                     "solve_levels.json"]
    header, first = pathlib.Path(out, "solve.csv").read_text().splitlines()[:2]
    assert header == "x,u0,u_T"
    assert len(first.split(",")) == 3
    report = json.loads(pathlib.Path(out, "report.json").read_text())
    assert report["passed"] is True
    assert report["config_sha256"] == config_hash(BASE_CFG)


def test_cli_outputs_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run("solve", cfg_path, out) == 0
        assert run("mc", cfg_path, out) == 0
        blobs.append((pathlib.Path(out, "solve.csv").read_bytes(),
                      pathlib.Path(out, "mc.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_cli_solve_singleton_fourier_oracle(tmp_path):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["family"] = {"kind": "heat", "sigmas": [1.0]}
    cfg["u0"] = {"name": "cos"}
    cfg_path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("solve", cfg_path, out) == 0
    data = np.loadtxt(os.path.join(out, "solve.csv"), delimiter=",", skiprows=1)
    x, u0, uT = data.T
    window = np.abs(x) <= 2.0
    assert np.max(np.abs(uT - np.exp(-0.5) * np.cos(x))[window]) < 1e-6


def test_cli_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": {"kind": "uniform"}}')
    out = str(tmp_path / "out")
    assert run("solve", str(path), out) == 2
    assert not os.path.exists(os.path.join(out, "solve.csv"))
    path.write_text('{"grid": {"kind": "uniform", "domain": [-1, 1], "dx": 0.1}, '
                    '"family": {"kind": "heat", "sigmas": [1.0]}, "bogus": 1}')
    assert run("solve", str(path), out) == 2
    path.write_text("not json at all")
    assert run("solve", str(path), out) == 2


# small configs whose runs reach every member kind that builds a kernel
# differently: lattice matrices, flow matrices (their exit counts are
# recorded at build time) and Fourier multipliers
STORE_RUNS = {
    "heat": ({**BASE_CFG,
              "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.05,
                       "boundary": "reflect"},
              "solve": {"t": 1.0, "tol": 1e-7, "max_level": 4},
              "dpp": {"s": 0.5, "t": 0.5, "level": 3, "threshold": 2e-2},
              "control": {"t": 1.0, "m": 8, "trials": 3},
              "mc": {"t": 1.0, "m": 8, "n_paths": 2000, "seed": 3, "x0": 0.0}},
             ("solve", "properties", "dpp", "control", "mc")),
    "koopman": ({"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
                 "family": {"kind": "koopman", "fields": ["1.0 + 0*x"],
                            "lipschitz_hint": 0.1},
                 "u0": {"name": "sin"}, "solve": {"t": 1.0, "max_level": 3}},
                ("solve",)),
    "stable": ({"grid": {"kind": "periodic", "domain": [-np.pi, np.pi],
                         "dx": 2.0 * np.pi / 256.0},
                "family": {"kind": "stable", "alphas": [0.5, 0.9]},
                "u0": {"name": "cos"}},
               ("properties",)),
}


@pytest.mark.parametrize("name", sorted(STORE_RUNS))
def test_cli_outputs_do_not_depend_on_the_kernel_budget(tmp_path, monkeypatch, name):
    # at one byte every lookup of a new duration evicts all the others, so
    # kernels are rebuilt over and over; the output files keep every byte
    cfg, subcommands = STORE_RUNS[name]
    cfg_path = write_cfg(tmp_path, cfg)
    sized = []
    real_nbytes = operators._nbytes
    monkeypatch.setattr(operators, "_nbytes", lambda k: sized.append(1) or real_nbytes(k))
    blobs, counts = [], []
    for budget in (operators.KERNEL_CACHE_BYTES, 1):
        monkeypatch.setattr(operators, "KERNEL_CACHE_BYTES", budget)
        out = tmp_path / f"budget{budget}"
        for sub in subcommands:
            assert run(sub, cfg_path, str(out)) == 0, sub
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        counts.append(len(sized))
    assert blobs[0] == blobs[1]
    assert counts[1] - counts[0] > counts[0]   # the one-byte store evicted
    if name == "koopman":
        assert json.loads(blobs[0]["solve_levels.json"])["flow_exits"]["0:koopman"] > 0


def test_cli_seed_flag_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out_a, out_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    assert run("mc", cfg_path, out_a, seed=101) == 0
    assert run("mc", cfg_path, out_b, seed=202) == 0
    a = json.loads(pathlib.Path(out_a, "mc.json").read_text())
    b = json.loads(pathlib.Path(out_b, "mc.json").read_text())
    assert a["mc"]["estimate"] != b["mc"]["estimate"]


def test_cli_mc_passes_the_greedy_value_on(tmp_path, monkeypatch):
    # the greedy backward pass already holds its policy's grid value: mc
    # writes the same record with every nisio binding of policy_value raising
    tiny = str(ROOT / "bench/configs/tiny/readme.json")
    assert run("mc", tiny, str(tmp_path / "ref")) == 0
    original = control.policy_value

    def replay(*args, **kwargs):
        raise AssertionError("mc replayed the greedy policy")

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "nisio" or name.startswith("nisio.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replay)
    assert run("mc", tiny, str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "mc.json").read_bytes() == \
        (tmp_path / "ref" / "mc.json").read_bytes()


def test_cli_mc_refines_over_the_policy_horizon_after_sampling(tmp_path, monkeypatch):
    # mc_compare only compares; the CLI refines the envelope mc.json reports
    # to level 8 over the greedy policy's horizon (m steps of t/m, which can
    # miss t by an ulp), once the paths are sampled and freed
    tiny = ROOT / "bench/configs/tiny/readme.json"
    calls = []
    for module, name in ((montecarlo, "mc_value"), (cli, "nisio_value")):
        def spy(*args, fn=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    assert run("mc", str(tiny), str(tmp_path / "out")) == 0
    assert calls == ["mc_value", "nisio_value"]
    rec = json.loads((tmp_path / "out" / "mc.json").read_text())
    cfg = validate_config(json.loads(tiny.read_text()))
    grid = build_grid(cfg)
    family, u0, mc = build_family(cfg, grid), build_u0(cfg, grid), cfg["mc"]
    greedy = control.greedy_policy(family, mc["t"], u0, mc["m"])
    env = nisio_value(family, greedy.policy.horizon, u0, 8, 1e-8)
    assert rec["nisio"] == float(env.value.at(mc["x0"]))


def test_cli_main_entrypoint(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg_path, "--out", out]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg_path, "--out", out, "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("sub", ["solve", "dpp", "report"])
def test_cli_seed_flag_only_where_a_run_draws(tmp_path, monkeypatch, sub):
    # solve, dpp and report draw nothing: --seed is an unknown flag there,
    # as --threads is; properties, control and mc pass it on
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([sub, "--config", cfg_path, "--out", out, "--seed", "1"])
    assert exc.value.code == 2 and not os.path.exists(out)
    seen = []
    monkeypatch.setattr(cli, "run", lambda *args: seen.append(args) or 0)
    for drawing in ("properties", "control", "mc"):
        assert main([drawing, "--config", cfg_path, "--out", out, "--seed", "5"]) == 0
    assert main([sub, "--config", cfg_path, "--out", out]) == 0
    assert seen == [(name, cfg_path, out, seed) for name, seed in
                    (("properties", 5), ("control", 5), ("mc", 5), (sub, None))]


def test_csv_u0_roundtrip(tmp_path):
    cfg = json.loads(json.dumps(BASE_CFG))
    del cfg["dpp"], cfg["control"], cfg["mc"]
    cfg["solve"]["max_level"] = 2
    # tabulated initial data via CSV
    grid_cfg = {"grid": cfg["grid"], "family": cfg["family"]}
    from nisio.config import build_grid as bg
    grid = bg(grid_cfg)
    table = tmp_path / "u0.csv"
    lines = ["x,u"] + [f"{float(x)!r},{float(np.tanh(x))!r}" for x in grid.points]
    table.write_text("\n".join(lines))
    cfg["u0"] = {"name": "csv", "path": str(table)}
    cfg_path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("solve", cfg_path, out) == 0
    data = np.loadtxt(os.path.join(out, "solve.csv"), delimiter=",", skiprows=1)
    assert np.allclose(data[:, 1], np.tanh(grid.points))


def test_cli_numerical_degeneracy_exits_3(tmp_path):
    cfg = {
        "grid": {"kind": "uniform", "domain": [-8, 8], "dx": 0.01},
        "family": {"kind": "ou",
                   "members": [{"B": 0.0, "m": 1e6, "C": 1.0}]},
        "u0": {"name": "sin"},
        "solve": {"t": 1.0, "max_level": 2},
    }
    cfg_path = write_cfg(tmp_path, cfg)
    assert run("solve", cfg_path, str(tmp_path / "out")) == 3


def test_cli_overflowing_ou_moments_exit_3(tmp_path, capsys):
    # exp(3e4 t) overflows at every duration the run builds, eps_q's included:
    # the member's moments are not finite
    cfg = {
        "grid": {"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
        "family": {"kind": "ou", "members": [{"B": 3e4, "m": 0.0, "C": 1.0}]},
        "u0": {"name": "sin"},
        "solve": {"t": 1.0, "max_level": 3},
    }
    assert run("solve", write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 3
    assert "numerical degeneracy" in capsys.readouterr().err


def test_cli_unbuildable_kernel_exits_2(tmp_path, capsys):
    # at duration 0.1 the moments are finite but the std is 1.4e33 cells:
    # the kernel is rejected before any allocation, naming member and duration
    cfg = {
        "grid": {"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
        "family": {"kind": "ou", "members": [{"B": 800.0, "m": 0.0, "C": 1.0}]},
        "u0": {"name": "sin"},
        "properties": {"probes": ["sin"], "t_list": [0.25, 1.0],
                       "partition_pairs": 2, "seed": 1},
    }
    assert run("properties", write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ou(B=800,m=0,C=1) at duration 0.1: kernel of std ")
    assert f"above the budget of {operators.MAX_KERNEL_WEIGHTS}" in err
    assert "Traceback" not in err


def test_cli_gbm_zero_volatility_member(tmp_path):
    # a sigma = 0 member drifts off the top of the default renormalize log
    # grid; its kernel keeps the mass on the end node
    cfg = {
        "grid": {"kind": "log", "x_max": 8, "n": 800},
        "family": {"kind": "gbm", "members": [[0.02, 0.0], [0.05, 0.2]]},
        "u0": {"name": "cos"},
        "solve": {"t": 1.0, "max_level": 2},
    }
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
    x, u0, uT = np.loadtxt(out / "solve.csv", delimiter=",", skiprows=1).T
    assert np.all(np.isfinite(uT))
    [i0] = np.flatnonzero(x == 0.0)
    assert uT[i0] == u0[i0] == 1.0


def test_cli_reports_carry_eps_q_and_flow_exits(tmp_path):
    cfg = {
        "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
        "family": {"kind": "koopman", "fields": ["1.0 + 0*x"],
                   "lipschitz_hint": 0.1},
        "u0": {"name": "sin"},
        "solve": {"t": 1.0, "max_level": 3},
        "dpp": {"s": 0.25, "t": 0.25, "level": 3},
    }
    cfg_path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert run("solve", cfg_path, out) == 0
    assert run("dpp", cfg_path, out) == 0
    levels = json.loads(pathlib.Path(out, "solve_levels.json").read_text())
    assert "eps_q" in levels and levels["flow_exits"]["0:koopman"] > 0
    dpp = json.loads(pathlib.Path(out, "dpp.json").read_text())
    assert "eps_q" in dpp


def flow_exits(tmp_path, fields, **solve):
    """``flow_exits`` of a ``solve`` run on Koopman fields over [-4, 4]."""
    cfg = {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
           "family": {"kind": "koopman", "fields": fields},
           "u0": {"name": "sin"},
           "solve": {"t": 1.0, **solve}}
    out = tmp_path / "out"
    assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
    return json.loads((out / "solve_levels.json").read_text())["flow_exits"]


def test_cli_flow_exits_report_every_koopman_member(tmp_path):
    # both members are named "koopman"; each keeps its own total.  A tiny
    # tol refines every run to max_level, so each member is built at the
    # same durations alone as in the pair
    def exits(fields):
        return flow_exits(tmp_path, fields, tol=1e-300, max_level=3)

    pair = exits(["1.0 + 0*x", "-x"])
    assert pair == {"0:koopman": exits(["1.0 + 0*x"])["0:koopman"],
                    "1:koopman": exits(["-x"])["0:koopman"]}
    assert pair["0:koopman"] > 0


def test_cli_flow_exits_do_not_depend_on_the_refinement(tmp_path):
    # the count is the flow's at solve.t: alone, the translation member
    # converges at level 1 under the default tol, next to -x it refines to
    # level 3, and the 50 points above x = 3 leave [-4, 4] either way
    alone = flow_exits(tmp_path, ["1.0 + 0*x"], max_level=3)
    pair = flow_exits(tmp_path, ["1.0 + 0*x", "-x"], max_level=3)
    assert alone == {"0:koopman": 50}
    assert pair == {"0:koopman": 50, "1:koopman": 0}


@pytest.mark.parametrize("sub, seed", [("mc", -5), ("control", -3), ("properties", -1),
                                       ("mc", 2 ** 128)])
def test_cli_rejects_a_seed_flag_outside_the_philox_key_range(tmp_path, capsys, monkeypatch,
                                                            sub, seed):
    # exit 2 naming --seed, before the config is read or any work starts
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["properties"] = {"t_list": [0.25], "partition_pairs": 1}
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "validate_config", lambda c: pytest.fail("config read"))
    assert main([sub, "--config", cfg_path, "--out", str(out), "--seed", str(seed)]) == 2
    assert f"--seed {seed} is outside [0, 2**128 - 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, seed", [("mc", -1), ("properties", -2),
                                           ("mc", 2 ** 128), ("properties", 2 ** 128)])
def test_cli_rejects_a_config_seed_outside_the_philox_key_range(tmp_path, capsys, section, seed):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["properties"] = {"t_list": [0.25], "partition_pairs": 1}
    cfg[section]["seed"] = seed
    assert run(section, write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert f"config rejected at $.{section}.seed" in capsys.readouterr().err
    cfg[section]["seed"] = 2 ** 128 - 1
    assert validate_config(cfg) is cfg
