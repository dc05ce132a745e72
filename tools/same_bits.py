"""Check that the CLI outputs of the working tree match those of a git
revision, byte for byte.

    python3 tools/same_bits.py [REF]        # REF defaults to HEAD

Exports REF's ``src/`` with ``git archive`` into a temporary directory and
runs the same outputs through ``nisio.cli.run`` for both trees, one fresh
interpreter per run with ``PYTHONDONTWRITEBYTECODE=1``: ``solve``, ``dpp``,
``control`` and ``mc`` on ``bench/configs/readme.json`` at seeds 1 and 7,
``properties`` on ``bench/configs/ou.json``, and ``solve`` and ``properties``
on one small config per member kind those two leave out and on one heat pair
whose members share stencil kernels under ``renormalize`` (``KINDS``: GBM,
chain, stable, Koopman, scaled heat and heat-stencil), ``mc`` at seeds 1
and 7 on the GBM and scaled-heat configs of ``KINDS`` (lognormal and
dilated-duration steps through the normals stream), and ``solve`` on each of
the 15 configs of ``REJECTS`` (malformed, or over a work budget), whose
``config error:`` line on stderr is compared too: 40 runs, 40 exit codes, 15
rejection lines and 35 output files in all.  The configs of ``KINDS`` and
``REJECTS`` are written into the temporary directory, and both trees read
the same configs.  Prints each file's sha256 on both sides and exits 1 on
any difference, in a file, an exit code or a rejection line.
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
          "properties": {"t_list": [0.25, 0.5], "partition_pairs": 2}}
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
# an OU member whose B is not a number: B, m and C take numbers only
_OU = {"kind": "ou", "members": [{"B": [[1, "a"]], "m": 0.0, "C": 1.0}]}
# one malformed config per kind of schema error, a NaN, one config per rule
# that rejects a single key or entry before any work, and one per work budget
REJECTS = {
    "unexpected-key": dict(_HEAT, family=dict(_HEAT["family"], count=3)),
    "missing-key": dict(_HEAT, grid={"kind": "uniform", "domain": [-2, 2]}),
    "wrong-type": dict(_HEAT, solve={"t": "0.5"}),
    "unknown-tag": dict(_HEAT, grid={"kind": "hex"}),
    "seed-range": dict(_HEAT, properties={"seed": 2 ** 128}),
    "ou-coefficient-not-a-number": dict(_HEAT, family=_OU),
    "nan": dict(_HEAT, solve={"t": 0.5, "tol": float("nan")}),
    "log-n-1": dict(_HEAT, grid={"kind": "log", "x_max": 4, "n": 1}),
    "scaled-base-two": dict(_HEAT, family={"kind": "scaled", "base": _HEAT["family"],
                                           "scales": [1.0]}),
    "solve-t-negative": dict(_HEAT, solve={"t": -0.5}),
    "solve-tol-zero": dict(_HEAT, solve={"t": 0.5, "tol": 0}),
    "empty-window": dict(_HEAT, report_window=[9, 10]),
    "field-not-finite": dict(_HEAT, family={"kind": "koopman", "fields": ["sqrt(x)"]}),
    # work budgets: 2^41 member applies, and eps_q's kernel at 0.1 past the
    # Gaussian-weight budget
    "max-level-over-budget": dict(_HEAT, solve={"t": 0.5, "max_level": 40}),
    "ou-kernel-over-budget": dict(
        _HEAT, grid={"kind": "uniform", "domain": [-1, 1], "dx": 0.1},
        family={"kind": "ou", "members": [{"B": 800.0, "m": 0.0, "C": 1.0}]},
        u0={"name": "sin"}, solve={"t": 1.0, "max_level": 3}),
}
RUNS = [(sub, README, seed) for seed in (1, 7) for sub in ("solve", "dpp", "control", "mc")]
RUNS.append(("properties", OU, None))
RUNS += [(sub, kind, None) for kind in KINDS for sub in ("solve", "properties")]
# lognormal and dilated-duration steps read the normals stream too
RUNS += [("mc", kind, seed) for seed in (1, 7) for kind in ("gbm", "scaled")]
RUNS += [("solve", name, None) for name in REJECTS]
CALL = ("import sys; from nisio.cli import run; "
        "sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3], "
        "None if sys.argv[4] == '-' else int(sys.argv[4])))")


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
    for name, cfg in {**KINDS, **REJECTS}.items():
        paths[name] = dest / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    return paths


def outputs(src, out, configs):
    """Run every entry of RUNS on the package under ``src``, a config of
    KINDS or REJECTS read from ``configs``; return {label: sha256, exit code
    or rejection line}."""
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
    files = sum(not label.endswith(("exit code", "rejection")) for label in ours)
    print(f"{files} files, {differ} differences against {ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
