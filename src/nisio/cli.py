"""Batch front-end.

Subcommands: solve | properties | dpp | control | mc | report, each taking
--config <path> --out <dir>, and [--seed N] where a run draws (properties,
control, mc).  Value tables are CSV with full round-trip floats; reports are
JSON with stable key order carrying the config hash.  Every subcommand runs in
one order: read the config, its section, the grid, the family and u0 once;
state the run's envelope steps per duration, each from one source that first
checks their member applies against the budget (``dyadic_steps`` for a
refinement, ``suite_schedule`` for the property suite, ``greedy_steps`` for a
greedy policy, ``random_steps`` for ``control``'s random policies, replayed
from the run's seed), and check the horizons; measure eps_q while the kernel
stores are empty (its kernels at 0.1, 0.05, 0.025 and 0.075 are built on
scratch twins of the members and never enter the stores, so a run whose work
uses one of those durations builds it twice) and hand the family the steps
as its lookup plan (``SemigroupFamily.plan``), both through ``_Run.start``,
so that each kernel leaves the stores after its last planned lookup; then
work.  Exit codes: 0 all enabled assertions pass,
1 assertion failure, 2 malformed config (a schema violation such as a key
its kind does not read, a missing required key, a negative horizon, a zero
``control.t`` or ``mc.t``, a ``solve.tol`` that is not positive, a log or
labels grid with ``n`` below 2 or a ``scaled`` base of more than one member;
a number that is not finite, an integer past the largest float or of more
digits than Python reads (4300 by default), a ragged matrix, a grid of fewer
than two points, an entry its member rejects, such as a Koopman field that is
not finite on the grid or a heat or GBM sigma whose square overflows, an
unreadable u0 CSV, a ``report_window`` that selects no grid point, a
refinement level, stage count, random-policy trial count, property suite
(``probes``, ``t_list``, ``partition_pairs``), Monte Carlo path count or
kernel (Gaussian or chain uniformization weights) over the work
budget, a scaled member's duration that overflows, a horizon too small to
split or a ``dpp.s + dpp.t`` past the largest float, a seed outside Philox's
key range [0, 2^128 - 1] in the config or in
--seed), an unusable --out directory or an unknown flag, 3 numerical
degeneracy.  Each subcommand
returns its record's name and fields; ``run`` writes ``<name>.json`` and exits 1 exactly
when the record says ``"passed": false``.
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
from .control import (duality_gap, greedy_policy, greedy_steps, policy_value, random_policy,
                      random_steps)
from .diagnostics import property_suite, suite_schedule
from .envelope import CHECK_LEVEL, dpp_check, dyadic_steps, nisio_value, quadrature_tolerance
from .errors import ConfigurationError, InvalidInputError, NumericalDegeneracyError
from .grids import weighted_norm
from .montecarlo import SEED_MAX, SamplerSpec, check_path_stages, mc_compare
from .operators import KoopmanOperator
from .probes import probe_function

EXIT_OK, EXIT_ASSERT, EXIT_SCHEMA, EXIT_DEGENERATE = 0, 1, 2, 3


def _write_csv(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _check_horizons(key, horizons, steps):
    """Reject, naming ``key``, a horizon too small to split into ``steps``
    equal steps of a normal float (the times they space would repeat); the
    schema has checked its sign, and ``validate_config`` that it is finite."""
    for t in horizons:
        if 0.0 < t < steps * np.finfo(float).tiny:
            raise ConfigurationError(f"{key} {t!r} is too small to split into {steps} steps")


class _Run:
    def __init__(self, subcommand, cfg, out_dir, seed):
        if subcommand in _NEEDED_SECTIONS and subcommand not in cfg:
            raise ConfigurationError(
                f"{subcommand} subcommand needs {_NEEDED_SECTIONS[subcommand]} section")
        self.cfg = cfg
        self.section = cfg.get(subcommand, {})
        self.out = out_dir
        self.hash = config_hash(cfg)
        self.grid = build_grid(cfg)
        self.family = build_family(cfg, self.grid)
        self.window = build_window(cfg, self.grid)
        self.u0 = build_u0(cfg, self.grid) if subcommand in _NEEDED_SECTIONS else None
        self.seed = seed
        os.makedirs(out_dir, exist_ok=True)

    def start(self, steps):
        """Measure eps_q while the kernel stores are still empty, then hand
        the family the envelope steps the work takes per duration, its lookup
        plan (``SemigroupFamily.plan``); return eps_q."""
        eps = quadrature_tolerance(self.family)
        self.family.plan(steps)
        return eps

    def path(self, name):
        return os.path.join(self.out, name)

    def write(self, name, fields):
        """Write ``<name>.json``: ``fields`` plus the config hash and version."""
        record = dict(fields, config_sha256=self.hash, version=__version__)
        with open(self.path(name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _cmd_solve(run):
    solve = run.section
    level = solve.get("max_level", 12)
    steps = dyadic_steps(run.family, solve["t"], level)
    _check_horizons("solve.t", [solve["t"]], 2 ** level)
    eps = run.start(steps)
    res = nisio_value(run.family, solve["t"], run.u0, max_level=level,
                      tol=solve.get("tol", 1e-6))
    _write_csv(run.path("solve.csv"), ["x", "u0", "u_T"],
               [run.grid.points, run.u0.values, res.value.values])
    record = {
        "t": solve["t"],
        "levels": len(res.levels),
        "level_diffs": [float(d) for d in res.diffs],
        "converged": res.converged,
        "eps_q": eps,
        "final_weighted_norm": weighted_norm(res.value, window=run.window),
    }
    # per Koopman member, the grid points its flow carries off the grid by
    # solve.t; keyed "position:name", as every such member is named "koopman"
    pts = run.grid.points
    exits = {}
    for i, m in enumerate(run.family):
        if isinstance(m, KoopmanOperator):
            y = m.flow(solve["t"], pts)
            exits[f"{i}:{m.name}"] = int(np.sum((y < pts[0]) | (y > pts[-1])))
    if exits:
        record["flow_exits"] = exits
    return "solve_levels", record


def _cmd_properties(run):
    section = run.section
    t_list = section.get("t_list", [0.25, 1.0])
    # the partition pairs and the refinements on the check lattice
    _check_horizons("properties.t_list", t_list, 2 ** CHECK_LEVEL)
    probe_names = section.get("probes", ["quadratic", "neg-quadratic", "sin"])
    probes = [probe_function(name, run.grid) for name in probe_names]
    seed = section.get("seed", run.seed or 0)
    pairs = section.get("partition_pairs", 5)
    _, steps = suite_schedule(run.family, len(probes), t_list, seed, pairs)
    run.start(steps)        # the suite reads the eps_q figure kept here
    return "properties", property_suite(run.family, probes, t_list, seed=seed,
                                        partition_pairs=pairs)


def _cmd_dpp(run):
    section = run.section
    s, t, level = section["s"], section["t"], section.get("level", 6)
    steps = dyadic_steps(run.family, t, level) + dyadic_steps(run.family, s, level)
    for key in ("s", "t"):
        _check_horizons(f"dpp.{key}", [section[key]], 2 ** level)
    if s + t > sys.float_info.max:
        raise ConfigurationError(f"dpp.s {s!r} plus dpp.t {t!r} is past the largest float")
    eps = run.start(dyadic_steps(run.family, s + t, level) + steps)
    out = dpp_check(run.family, s, t, run.u0, max_level=level, tol=1e-12,
                    window=run.window)
    record = {"s": s, "t": t, "level": level,
              "defect": out["defect"], "eps_q": eps}
    if "threshold" in section:
        record["threshold"] = section["threshold"]
        record["passed"] = bool(out["defect"] <= section["threshold"])
    return "dpp", record


def _cmd_control(run):
    section = run.section
    t, m, level = section["t"], section["m"], section.get("level", 6)
    trials = section.get("trials", 20)
    steps = greedy_steps(run.family, t, m)[0] + dyadic_steps(run.family, t, level)
    # greedy stages of t/m, dyadic refinements, random policies on the check lattice
    _check_horizons("control.t", [t], max(m, 2 ** level, 2 ** CHECK_LEVEL))
    seed = run.seed or 0
    eps = run.start(steps + random_steps(run.family, t, trials, seed))
    out = duality_gap(run.family, t, run.u0, m, max_level=level, tol=1e-12,
                      window=run.window)
    run.write("control_policy", out["greedy"].policy.to_dict())
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        pol = random_policy(run.family, t, rng)
        excess = policy_value(run.family, pol, run.u0).values - out["nisio"].value.values
        worst = min(worst, -float(np.max(excess)))
    return "control_gap", {
        "t": t, "m": m, "gap": out["gap"], "eps_q": eps,
        "random_policy_trials": trials,
        "weak_duality_worst_slack": None if trials == 0 else float(worst),
        "passed": bool(worst >= -(eps + 1e-9))}


def _cmd_mc(run):
    section = run.section
    t, m = section["t"], section.get("m", 16)
    level = 8       # the envelope mc.json reports beside the policy's value
    # the greedy stages, then the envelope over the policy's horizon
    steps, horizon = greedy_steps(run.family, t, m)
    check_path_stages(section["n_paths"], m)
    steps += dyadic_steps(run.family, horizon, level)
    _check_horizons("mc.t", [t], m)
    eps = run.start(steps)
    seed = run.seed if run.seed is not None else section.get("seed", 0)
    greedy = greedy_policy(run.family, t, run.u0, m)
    spec = SamplerSpec(run.family, greedy.policy, section["n_paths"], seed)
    out = mc_compare(spec, section["x0"], run.u0, greedy.value)
    # once the paths are freed, so that they and the kernels never share the peak
    envelope = nisio_value(run.family, horizon, run.u0, max_level=level, tol=1e-8)
    return "mc", dict(out, nisio=float(envelope.value.at(section["x0"])), t=t, m=m,
                      seed=seed, x0=section["x0"], eps_q=eps, passed=not out["flag"])


def _cmd_report(run):
    pieces = {}
    for name in ("solve_levels", "properties", "dpp", "control_gap", "mc"):
        path = run.path(name + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                pieces[name] = json.load(fh)
    return "report", {"artifacts": pieces, "passed": all(
        piece.get("passed") is not False for piece in pieces.values())}


_COMMANDS = {"solve": _cmd_solve, "properties": _cmd_properties, "dpp": _cmd_dpp,
             "control": _cmd_control, "mc": _cmd_mc, "report": _cmd_report}
# subcommand -> the section it cannot run without, with its article
_NEEDED_SECTIONS = {"solve": "a solve", "dpp": "a dpp", "control": "a control",
                    "mc": "an mc"}


def run(subcommand, config_path, out_dir, seed=None):
    try:
        if seed is not None and not 0 <= seed <= SEED_MAX:
            raise ConfigurationError(f"--seed {seed} is outside [0, 2**128 - 1]")
        with open(config_path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                # not JSON, not UTF-8, or an integer literal past Python's
                # limit on the digits it converts
                raise ConfigurationError(str(exc)) from exc
        cfg = validate_config(raw)
        ctx = _Run(subcommand, cfg, out_dir, seed)
        name, fields = _COMMANDS[subcommand](ctx)
        ctx.write(name, fields)
    except (OSError, ConfigurationError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_ASSERT if fields.get("passed") is False else EXIT_OK


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
        if name in ("properties", "control", "mc"):
            p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, getattr(args, "seed", None))


if __name__ == "__main__":
    sys.exit(main())
