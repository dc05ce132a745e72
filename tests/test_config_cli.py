import json
import os
import pathlib
import re

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from nisio import ConfigurationError, operators
from nisio.cli import main, run
from nisio.config import (CONFIG_SCHEMA, build_family, build_grid, build_u0,
                          config_hash, parse_field, validate_config)

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


def test_schema_is_valid_2020_12(monkeypatch):
    Draft202012Validator.check_schema(CONFIG_SCHEMA)

    # validation runs the validator built at import, never the metaschema check
    def refuse(*args, **kwargs):
        raise AssertionError("metaschema checked per call")

    monkeypatch.setattr(Draft202012Validator, "check_schema", refuse)
    validate_config(BASE_CFG)


# (section, kind) -> the keys its builder reads besides the kind/name tag
READ_KEYS = {
    ("grid", "uniform"): {"domain", "dx", "kappa", "boundary"},
    ("grid", "periodic"): {"domain", "dx", "kappa"},
    ("grid", "log"): {"x_max", "n", "x_min_mag", "kappa", "boundary"},
    ("grid", "labels"): {"n", "kappa"},
    ("kappa", "constant"): set(),
    ("kappa", "inverse_power"): {"p"},
    ("family", "heat"): {"sigmas", "range", "count", "alpha", "beta"},
    ("family", "gbm"): {"members", "alpha", "beta"},
    ("family", "ou"): {"members", "alpha", "beta"},
    ("family", "koopman"): {"fields", "lipschitz_hint", "alpha", "beta"},
    ("family", "stable"): {"alphas", "alpha", "beta"},
    ("family", "chain"): {"rate_matrices", "alpha", "beta"},
    ("family", "scaled"): {"base", "scales", "alpha", "beta"},
    ("base", "heat"): {"sigmas", "range", "count"},
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
    assert sum(len(keys) for keys in accepted.values()) == 56


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
    "count-without-range": ({"family": dict(HEAT, count=3)}, "'count'"),
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
    "heat-sigmas-and-range": ({"family": dict(HEAT, range=[0.5, 1.0])}, "'sigmas'"),
    "heat-neither": ({"family": {"kind": "heat"}}, "'sigmas'"),
    "grid-kind-unknown": ({"grid": {"kind": "hex"}}, "grid.kind"),
    "log-x_max-negative": ({"grid": dict(LOG_GRID, x_max=-8)}, "grid.x_max"),
    # malformed data
    "chain-ragged": ({"grid": LABEL_GRID, "family": {
        "kind": "chain", "rate_matrices": [[[-1, 1], [1]]]}}, "rate_matrices"),
    "chain-string": ({"grid": LABEL_GRID, "family": {
        "kind": "chain", "rate_matrices": "a"}}, "rate_matrices"),
    "ou-B-string": ({"family": {"kind": "ou", "members": [
        {"B": "x", "m": 0.0, "C": 1.0}]}}, "members[0].B"),
    "ou-B-ragged": ({"family": {"kind": "ou", "members": [
        {"B": [[1.0, 0.0], [1.0]], "m": 0.0, "C": 1.0}]}}, "ou member B"),
    "csv-not-numeric": ({"u0": {"name": "csv", "path": "bad.csv"}}, "u0 path"),
    # work budget, checked before any matrix is built
    "max-level-over-budget": ({"solve": {"t": 0.5, "max_level": 40}}, "max_level 40"),
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


@pytest.mark.parametrize("sub, article", [("solve", "a"), ("dpp", "a"),
                                          ("control", "a"), ("mc", "an")])
def test_cli_subcommand_needs_its_section(tmp_path, capsys, sub, article):
    cfg = {k: v for k, v in BASE_CFG.items() if k != sub}
    assert run(sub, write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 2
    assert f"{sub} subcommand needs {article} {sub} section" in capsys.readouterr().err


SHIPPED = sorted(ROOT.glob("bench/configs/**/*.json"))


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
         "family": {"kind": "heat", "range": [0.5, 1.0], "count": 3}},
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


def test_cli_main_entrypoint(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg_path, "--out", out]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg_path, "--out", out, "--threads", "2"])
    assert exc.value.code == 2


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
    # exp(800) overflows: the member's moments are not finite
    cfg = {
        "grid": {"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
        "family": {"kind": "ou", "members": [{"B": 800.0, "m": 0.0, "C": 1.0}]},
        "u0": {"name": "sin"},
        "solve": {"t": 1.0, "max_level": 3},
    }
    assert run("solve", write_cfg(tmp_path, cfg), str(tmp_path / "out")) == 3
    assert "numerical degeneracy" in capsys.readouterr().err


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
        "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02,
                 "boundary": "reflect"},
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


def test_cli_flow_exits_report_every_koopman_member(tmp_path):
    # both members are named "koopman"; each keeps its own total.  A tiny
    # tol refines every run to max_level, so each member is built at the
    # same durations alone as in the pair (alone, the translation member
    # converges at level 1 under the default tol and builds fewer kernels)
    def exits(fields):
        cfg = {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
               "family": {"kind": "koopman", "fields": fields},
               "u0": {"name": "sin"},
               "solve": {"t": 1.0, "tol": 1e-300, "max_level": 3}}
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, cfg), str(out)) == 0
        return json.loads((out / "solve_levels.json").read_text())["flow_exits"]

    pair = exits(["1.0 + 0*x", "-x"])
    assert pair == {"0:koopman": exits(["1.0 + 0*x"])["0:koopman"],
                    "1:koopman": exits(["-x"])["0:koopman"]}
    assert pair["0:koopman"] > 0
