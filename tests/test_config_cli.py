import json
import os

import numpy as np
import pytest

from nisio import ConfigurationError
from nisio.cli import main, run
from nisio.config import (build_family, build_grid, build_u0, config_hash,
                          parse_field, validate_config)


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
        {"grid": {"kind": "log", "domain": [0, 8], "n": 200, "x_min_mag": 0.01,
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
    header, first = open(os.path.join(out, "solve.csv")).read().splitlines()[:2]
    assert header == "x,u0,u_T"
    assert len(first.split(",")) == 3
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["passed"] is True
    assert report["config_sha256"] == config_hash(BASE_CFG)


def test_cli_outputs_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run("solve", cfg_path, out) == 0
        assert run("mc", cfg_path, out) == 0
        blobs.append((open(os.path.join(out, "solve.csv"), "rb").read(),
                      open(os.path.join(out, "mc.json"), "rb").read()))
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


def test_cli_seed_flag_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE_CFG)
    out_a, out_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    assert run("mc", cfg_path, out_a, seed=101) == 0
    assert run("mc", cfg_path, out_b, seed=202) == 0
    a = json.load(open(os.path.join(out_a, "mc.json")))
    b = json.load(open(os.path.join(out_b, "mc.json")))
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
    levels = json.load(open(os.path.join(out, "solve_levels.json")))
    assert "eps_q" in levels and levels["flow_exits"]["koopman"] > 0
    dpp = json.load(open(os.path.join(out, "dpp.json")))
    assert "eps_q" in dpp
