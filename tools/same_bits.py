"""Check that the CLI outputs of the working tree match those of a git
revision, byte for byte.

    python3 tools/same_bits.py [REF]        # REF defaults to HEAD

Exports REF's ``src/`` with ``git archive`` into a temporary directory and
runs the same outputs through ``nisio.cli.run`` for both trees, one fresh
interpreter per run with ``PYTHONDONTWRITEBYTECODE=1``: ``solve``, ``dpp``,
``control`` and ``mc`` on ``bench/configs/readme.json`` at seeds 1 and 7,
``properties`` on ``bench/configs/ou.json``, and ``solve``, ``properties``,
``dpp`` and ``control`` on one small config per member kind those two leave
out and on one heat pair whose members share stencil kernels under
``renormalize`` (``KINDS``: GBM, chain, stable, Koopman, scaled heat and
heat-stencil), ``mc`` at seeds 1 and 7 on the GBM and scaled-heat configs of
``KINDS`` (lognormal and dilated-duration steps through the normals stream),
and each of the 29 configs of ``REJECTS`` (malformed, a grid of one point, a
number that overflows, or over a work budget, alone or beside a second
violation) under its own subcommand, whose ``config error:`` line on stderr is
compared too, so each budget's rejection, and which check fires first, is
compared.  Each run also reports the builds and lookups summed over the
members of the family the CLI built (``none`` when it built none), so a change
that moves no bit but rebuilds a kernel shows, and each member's largest held
kernel byte count (``_held`` after a lookup), so a change of kernel storage
that moves the byte accounting shows too (an int64 index array where there was
an int32 one, say): 66 runs, 66 exit codes, 66 work counts, 29 rejection lines
and 53 output files in all.  The configs of ``KINDS`` and ``REJECTS`` are
written into the temporary directory, and both trees read the same configs.
Prints each file's sha256 and each run's counts on both sides and exits 1 on
any difference, in a file, an exit code, a rejection line or a count.
Everything it writes goes into the temporary directory; it needs no network.
Dense kernels' bits depend on the BLAS thread count, so compare on one host
only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README, OU = "bench/configs/readme.json", "bench/configs/ou.json"
_SMALL = {"solve": {"t": 0.5, "max_level": 4},
          "properties": {"t_list": [0.25, 0.5], "partition_pairs": 2},
          "dpp": {"s": 0.25, "t": 0.25, "level": 3},
          "control": {"t": 0.5, "m": 4, "level": 3, "trials": 3}}
# one small config per member kind the two bench configs leave out, and a heat
# pair in a regime they leave out
KINDS = {
    "gbm": dict(_SMALL, grid={"kind": "log", "x_max": 4, "n": 60, "boundary": "reflect",
                              "kappa": {"kind": "inverse_power", "p": 2}},
                family={"kind": "gbm", "members": [[0.05, 0.2], [0.1, 0.3]]},
                u0={"name": "call-payoff", "strike": 1.0},
                mc={"t": 0.5, "m": 16, "n_paths": 20000, "x0": 1.0}),
    "chain": dict(_SMALL, grid={"kind": "labels", "n": 3},
                  family={"kind": "chain", "rate_matrices": [
                      [[-1, 1, 0], [0.5, -1, 0.5], [0, 1, -1]],
                      [[-0.5, 0.25, 0.25], [0, 0, 0], [0.25, 0.25, -0.5]]]},
                  u0={"name": "quadratic"}),
    "stable": dict(_SMALL, grid={"kind": "periodic", "domain": [-3, 3], "dx": 0.05},
                   family={"kind": "stable", "alphas": [0.5, 0.9]}, u0={"name": "sin"}),
    "koopman": dict(_SMALL, grid={"kind": "uniform", "domain": [-3, 3], "dx": 0.05},
                    family={"kind": "koopman", "fields": ["-x", "0.5*sin(x)"]},
                    u0={"name": "bump", "center": 0.5, "width": 1.0}),
    "scaled": dict(_SMALL, grid={"kind": "uniform", "domain": [-4, 4], "dx": 0.05,
                                 "boundary": "reflect"},
                   family={"kind": "scaled", "base": {"kind": "heat", "sigmas": [1.0]},
                           "scales": [0.25, 1.0]},
                   u0={"name": "quadratic"},
                   mc={"t": 0.5, "m": 16, "n_paths": 20000, "x0": 0.0}),
    # heat members that share kernels in the stencil regime (variance at or
    # below dx^2) under renormalize, which the README config never reaches:
    # sigma 0.1 at t/2^(L+2) is sigma 0.05 at t/2^L
    "heat-stencil": dict(_SMALL, grid={"kind": "uniform", "domain": [-2, 2], "dx": 0.05,
                                       "boundary": "renormalize"},
                         family={"kind": "heat", "sigmas": [0.05, 0.1]},
                         u0={"name": "quadratic"}),
}
_HEAT = {"grid": {"kind": "uniform", "domain": [-2, 2], "dx": 0.1},
         "family": {"kind": "heat", "sigmas": [0.5, 1.0]}, "u0": {"name": "quadratic"},
         "solve": {"t": 0.5, "max_level": 2}}
_MC = {"t": 0.5, "m": 4, "n_paths": 1000, "x0": 0.0}
# an OU member whose B is not a number: B, m and C take numbers only
_OU = {"kind": "ou", "members": [{"B": [[1, "a"]], "m": 0.0, "C": 1.0}]}
# one malformed config per kind of schema error, a NaN, one config per rule
# that rejects a single key or entry before any work, one grid of one point
# per way to make it, a sigma whose square overflows, and one config per work
# budget
REJECTS = {
    "unexpected-key": ("solve", dict(_HEAT, family=dict(_HEAT["family"], count=3))),
    "missing-key": ("solve", dict(_HEAT, grid={"kind": "uniform", "domain": [-2, 2]})),
    "wrong-type": ("solve", dict(_HEAT, solve={"t": "0.5"})),
    "unknown-tag": ("solve", dict(_HEAT, grid={"kind": "hex"})),
    "seed-range": ("solve", dict(_HEAT, properties={"seed": 2 ** 128})),
    "ou-coefficient-not-a-number": ("solve", dict(_HEAT, family=_OU)),
    "nan": ("solve", dict(_HEAT, solve={"t": 0.5, "tol": float("nan")})),
    "log-n-1": ("solve", dict(_HEAT, grid={"kind": "log", "x_max": 4, "n": 1})),
    "scaled-base-two": ("solve", dict(_HEAT, family={"kind": "scaled", "base": _HEAT["family"],
                                                     "scales": [1.0]})),
    "solve-t-negative": ("solve", dict(_HEAT, solve={"t": -0.5})),
    "solve-tol-zero": ("solve", dict(_HEAT, solve={"t": 0.5, "tol": 0})),
    "empty-window": ("solve", dict(_HEAT, report_window=[9, 10])),
    "field-not-finite": ("solve", dict(_HEAT, family={"kind": "koopman",
                                                      "fields": ["sqrt(x)"]})),
    "uniform-one-point": ("solve", dict(_HEAT, grid={"kind": "uniform", "domain": [0, 0],
                                                     "dx": 0.1})),
    "periodic-one-point": ("solve", dict(_HEAT, grid={"kind": "periodic", "domain": [-1, 1],
                                                      "dx": 2})),
    "labels-n-1": ("solve", dict(_HEAT, grid={"kind": "labels", "n": 1},
                                 family={"kind": "chain", "rate_matrices": [[[0.0]]]})),
    "heat-sigma-overflow": ("solve", dict(_HEAT, family={"kind": "heat", "sigmas": [1e200]})),
    # work budgets: 2^41 member applies, eps_q's kernel at 0.1 past the
    # Gaussian-weight budget, and a chain's at 0.1 past it in uniformization
    # weights
    "max-level-over-budget": ("solve", dict(_HEAT, solve={"t": 0.5, "max_level": 40})),
    "ou-kernel-over-budget": ("solve", dict(
        _HEAT, grid={"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
        family={"kind": "ou", "members": [{"B": 800.0, "m": 0.0, "C": 1.0}]},
        u0={"name": "sin"}, solve={"t": 1.0, "max_level": 3})),
    "chain-kernel-over-budget": ("solve", dict(
        _HEAT, grid={"kind": "labels", "n": 2},
        family={"kind": "chain", "rate_matrices": [[[-1e300, 1e300], [0.0, 0.0]]]})),
    # every other subcommand's member-apply and path-stage budgets, and which
    # check fires first when a config breaks two
    "control-m-over-budget": ("control", dict(_HEAT, control={"t": 0.5, "m": 2 ** 40})),
    "control-trials-over-budget": ("control", dict(_HEAT, control={"t": 0.5, "m": 4,
                                                                   "trials": 2 ** 40})),
    "control-level-over-budget": ("control", dict(_HEAT, control={"t": 0.5, "m": 4,
                                                                  "level": 40})),
    "mc-m-over-budget": ("mc", dict(_HEAT, mc=dict(_MC, m=2 ** 40))),
    "mc-paths-over-budget": ("mc", dict(_HEAT, mc=dict(_MC, n_paths=2 ** 25))),
    "dpp-level-over-budget": ("dpp", dict(_HEAT, dpp={"s": 0.25, "t": 0.25, "level": 40})),
    "control-m-and-level": ("control", dict(_HEAT, control={"t": 0.5, "m": 2 ** 40,
                                                            "level": 40})),
    "control-trials-and-subnormal-t": ("control", dict(_HEAT, control={
        "t": 5e-324, "m": 4, "trials": 2 ** 40})),
    "mc-paths-and-subnormal-t": ("mc", dict(_HEAT, mc=dict(_MC, n_paths=2 ** 25, t=5e-324))),
}
RUNS = [(sub, README, seed) for seed in (1, 7) for sub in ("solve", "dpp", "control", "mc")]
RUNS.append(("properties", OU, None))
RUNS += [(sub, kind, None) for kind in KINDS
         for sub in ("solve", "properties", "dpp", "control")]
# lognormal and dilated-duration steps read the normals stream too
RUNS += [("mc", kind, seed) for seed in (1, 7) for kind in ("gbm", "scaled")]
RUNS += [(sub, name, None) for name, (sub, _) in REJECTS.items()]
# one run through nisio.cli.run; prints the summed builds and lookups of the
# members of the family the CLI built, when it built one, and each member's
# largest held byte count
CALL = """
import sys
from nisio import cli, operators
families, held = [], {}
build_family = cli.build_family
matrix = operators.TransitionOperator.matrix

def spy(cfg, grid):
    families.append(build_family(cfg, grid))
    return families[-1]

def lookup(member, t):
    kernel = matrix(member, t)
    held[id(member)] = max(held.get(id(member), 0), member._held)
    return kernel

cli.build_family = spy
operators.TransitionOperator.matrix = lookup
code = cli.run(sys.argv[1], sys.argv[2], sys.argv[3],
               None if sys.argv[4] == "-" else int(sys.argv[4]))
for family in families:
    print("builds", sum(m.builds for m in family), "lookups", sum(m.lookups for m in family),
          "held", [held.get(id(m), 0) for m in family])
sys.exit(code)
"""


def export_src(ref, dest):
    """Extract ``ref``'s ``src/`` into ``dest``; return the tree's ``src``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def write_configs(dest):
    """Write each config of KINDS and REJECTS to ``dest``; return {name: path}."""
    paths = {}
    rejects = {name: cfg for name, (_, cfg) in REJECTS.items()}
    for name, cfg in {**KINDS, **rejects}.items():
        paths[name] = dest / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    return paths


def outputs(src, out, configs):
    """Run every entry of RUNS on the package under ``src``, a config of
    KINDS or REJECTS read from ``configs``; return {label: sha256, exit code,
    rejection line or the members' summed builds and lookups}."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    found = {}
    for sub, config, seed in RUNS:
        tag = f"{config} {sub}" if config in configs else sub
        if seed is not None:
            tag += f" seed {seed}"
        run_dir = out / tag.replace(" ", "-")
        proc = subprocess.run(
            [sys.executable, "-c", CALL, sub, str(configs.get(config, ROOT / config)),
             str(run_dir), "-" if seed is None else str(seed)],
            env=env, cwd=out, capture_output=True, text=True)
        found[f"{tag}: exit code"] = str(proc.returncode)
        found[f"{tag}: work"] = proc.stdout.strip() or "none"
        if config in REJECTS:
            found[f"{tag}: rejection"] = next(
                (line for line in proc.stderr.splitlines() if line.startswith("config error:")),
                "none")
        for path in sorted(run_dir.iterdir()) if run_dir.is_dir() else ():
            found[f"{tag}: {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main(argv):
    ref = argv[1] if len(argv) > 1 else "HEAD"
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        tmp = Path(tmp)
        for side in ("ref", "work"):
            (tmp / side).mkdir()
        configs = write_configs(tmp)
        theirs = outputs(export_src(ref, tmp / "ref"), tmp / "ref", configs)
        ours = outputs(ROOT / "src", tmp / "work", configs)
    differ = 0
    for label in sorted(set(theirs) | set(ours)):
        a, b = theirs.get(label, "missing"), ours.get(label, "missing")
        same = a == b
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {label}\n      {ref}: {a}\n      work: {b}")
    files = sum(not label.endswith(("exit code", "rejection", "work")) for label in ours)
    print(f"{files} files, {differ} differences against {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
