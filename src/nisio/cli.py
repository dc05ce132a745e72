"""Batch front-end.

Subcommands: solve | properties | dpp | control | mc | report, each taking
--config <path> --out <dir> [--seed N].  Value tables are CSV with full
round-trip floats; reports are JSON with stable key order carrying the config
hash.  Exit codes: 0 all enabled assertions pass, 1 assertion failure,
2 malformed config (a schema violation such as a key its kind does not read
or a missing required key, a ragged matrix, an unreadable u0 CSV, a
refinement level over the work budget) or an unknown flag, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import (build_family, build_grid, build_u0, build_window,
                     config_hash, validate_config)
from .control import duality_gap, greedy_policy, policy_value, random_policy
from .diagnostics import property_suite
from .envelope import nisio_value, dpp_check, quadrature_tolerance
from .errors import ConfigurationError, InvalidInputError, NumericalDegeneracyError
from .grids import weighted_norm
from .montecarlo import SamplerSpec, mc_compare
from .probes import probe_function

EXIT_OK, EXIT_ASSERT, EXIT_SCHEMA, EXIT_DEGENERATE = 0, 1, 2, 3


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class _Run:
    def __init__(self, cfg, out_dir, seed):
        self.cfg = cfg
        self.out = out_dir
        self.hash = config_hash(cfg)
        self.grid = build_grid(cfg)
        self.family = build_family(cfg, self.grid)
        self.window = build_window(cfg, self.grid)
        self.seed = seed
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out, name)

    def base_record(self):
        return {"config_sha256": self.hash, "version": __version__}


def _cmd_solve(run):
    cfg = run.cfg
    solve = cfg["solve"]
    u0 = build_u0(cfg, run.grid)
    res = nisio_value(run.family, solve["t"], u0,
                      max_level=solve.get("max_level", 12),
                      tol=solve.get("tol", 1e-6))
    x = run.grid.points if run.grid.points.ndim == 1 else run.grid.points[:, 0]
    _write_csv(run.path("solve.csv"), ["x", "u0", "u_T"],
               [x, u0.values, res.value.values])
    record = run.base_record()
    record.update({
        "t": solve["t"],
        "levels": len(res.levels),
        "level_diffs": [float(d) for d in res.diffs],
        "converged": res.converged,
        "eps_q": quadrature_tolerance(run.family),
        "final_weighted_norm": weighted_norm(res.value, window=run.window),
    })
    # keyed "position:name": several Koopman members share the name "koopman"
    exits = {f"{i}:{m.name}": sum(m.exit_counts.values())
             for i, m in enumerate(run.family) if getattr(m, "exit_counts", None)}
    if exits:
        record["flow_exits"] = exits
    _write_json(run.path("solve_levels.json"), record)
    return EXIT_OK


def _cmd_properties(run):
    section = run.cfg.get("properties", {})
    probe_names = section.get("probes", ["quadratic", "neg-quadratic", "sin"])
    probes = [probe_function(name, run.grid) for name in probe_names]
    report = property_suite(
        run.family, probes, section.get("t_list", [0.25, 1.0]),
        seed=section.get("seed", run.seed or 0),
        partition_pairs=section.get("partition_pairs", 5))
    record = run.base_record()
    record.update(report)
    _write_json(run.path("properties.json"), record)
    return EXIT_OK if report["passed"] else EXIT_ASSERT


def _cmd_dpp(run):
    cfg = run.cfg
    section = cfg["dpp"]
    u0 = build_u0(cfg, run.grid)
    level = section.get("level", 6)
    out = dpp_check(run.family, section["s"], section["t"], u0,
                    max_level=level, tol=1e-12, window=run.window)
    record = run.base_record()
    record.update({"s": section["s"], "t": section["t"], "level": level,
                   "defect": out["defect"],
                   "eps_q": quadrature_tolerance(run.family)})
    status = EXIT_OK
    if "threshold" in section:
        record["threshold"] = section["threshold"]
        record["passed"] = bool(out["defect"] <= section["threshold"])
        if not record["passed"]:
            status = EXIT_ASSERT
    _write_json(run.path("dpp.json"), record)
    return status


def _cmd_control(run):
    cfg = run.cfg
    section = cfg["control"]
    u0 = build_u0(cfg, run.grid)
    t, m = section["t"], section["m"]
    out = duality_gap(run.family, t, u0, m,
                      max_level=section.get("level", 6), tol=1e-12,
                      window=run.window)
    _write_json(run.path("control_policy.json"),
                dict(run.base_record(), **out["greedy"].policy.to_dict()))
    eps = quadrature_tolerance(run.family)
    rng = np.random.default_rng(run.seed or 0)
    trials = section.get("trials", 20)
    worst = np.inf
    for _ in range(trials):
        pol = random_policy(run.family, t, rng)
        excess = policy_value(run.family, pol, u0).values - out["nisio"].value.values
        worst = min(worst, -float(np.max(excess)))
    passed = bool(worst >= -(eps + 1e-9))
    record = run.base_record()
    record.update({"t": t, "m": m, "gap": out["gap"], "eps_q": eps,
                   "random_policy_trials": trials,
                   "weak_duality_worst_slack": None if trials == 0 else float(worst),
                   "passed": passed})
    _write_json(run.path("control_gap.json"), record)
    return EXIT_OK if passed else EXIT_ASSERT


def _cmd_mc(run):
    cfg = run.cfg
    section = cfg["mc"]
    u0 = build_u0(cfg, run.grid)
    t = section["t"]
    m = section.get("m", 16)
    seed = run.seed if run.seed is not None else section.get("seed", 0)
    greedy = greedy_policy(run.family, t, u0, m)
    spec = SamplerSpec(run.family, greedy.policy, section["n_paths"], seed)
    out = mc_compare(spec, section["x0"], u0)
    record = run.base_record()
    record.update({"t": t, "m": m, "seed": seed, "x0": section["x0"],
                   "eps_q": quadrature_tolerance(run.family)})
    record.update(out)
    passed = not out["flag"]
    record["passed"] = passed
    _write_json(run.path("mc.json"), record)
    return EXIT_OK if passed else EXIT_ASSERT


def _cmd_report(run):
    pieces = {}
    ok = True
    for name in ("solve_levels", "properties", "dpp", "control_gap", "mc"):
        path = run.path(name + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                pieces[name] = json.load(fh)
            if pieces[name].get("passed") is False:
                ok = False
    record = run.base_record()
    record.update({"artifacts": pieces, "passed": ok})
    _write_json(run.path("report.json"), record)
    return EXIT_OK if ok else EXIT_ASSERT


_COMMANDS = {"solve": _cmd_solve, "properties": _cmd_properties, "dpp": _cmd_dpp,
             "control": _cmd_control, "mc": _cmd_mc, "report": _cmd_report}
# subcommand -> the section it cannot run without, with its article
_NEEDED_SECTIONS = {"solve": "a solve", "dpp": "a dpp", "control": "a control",
                    "mc": "an mc"}


def run(subcommand, config_path, out_dir, seed=None):
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        validate_config(cfg)
        if subcommand in _NEEDED_SECTIONS and cfg.get(subcommand) is None:
            raise ConfigurationError(
                f"{subcommand} subcommand needs {_NEEDED_SECTIONS[subcommand]} section")
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        ctx = _Run(cfg, out_dir, seed)
        return _COMMANDS[subcommand](ctx)
    except (ConfigurationError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nisio",
        description="Worst-case envelopes of transition-operator families")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
