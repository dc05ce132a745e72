"""Benchmark of nisio: three CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload heat-refine --seed 1 --seconds 15 --trace 0

Workloads (see bench/README.md): heat-refine (``solve`` on the README
config), policy-mc (``mc`` on the README config, Philox key = seed) and
ou-properties (``properties`` on an OU pair, partition seed = seed).

The set-up is timed in ``SETUP_CHILDREN`` fresh interpreters plus the workload
process itself; the workload process then runs operations for about
``--seconds`` and checks every output.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; the full record, with the
samples and the environment, goes to ``bench/_out/``.  Exit code 0 when a
result is printed, 1 when a child process failed, 2 when this directory holds
no nisio sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

CONFIGS = {"heat-refine": "readme.json", "policy-mc": "readme.json",
           "ou-properties": "ou.json"}
SETUP_CHILDREN = 2      # with the workload process: three set-up samples
TIME_LIMIT = 170.0      # seconds for the whole run, children included

END_TO_END = {"setup_s": "s", "run_s": "s", "warm_s": "s", "peak_rss_mb": "MiB"}
# Median time of worker.Reference on the 2-core machine the bounds were set
# on.  End-to-end times are scaled to this reference speed: wall time x
# REF_NOMINAL_S / (reference time measured around the sample).
REF_NOMINAL_S = 0.044
PER_LAYER_UNITS = {"count": ("_count", "_points", "flagged_paths", "checks_passed"),
                   "B": ("_bytes",), "MiB": ("_mb",), "ratio": ("_ratio",)}


def layer_unit(name):
    for unit, suffixes in PER_LAYER_UNITS.items():
        if name.endswith(suffixes):
            return unit
    return "s"


def _child(cmd, env, deadline):
    """Run one child interpreter to completion; None when it failed.

    On a timeout ``subprocess.run`` kills the child and waits for it."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-4000:]}",
              file=sys.stderr)
        return None
    return proc


def main(argv=None):
    parser = argparse.ArgumentParser(description="nisio benchmark")
    parser.add_argument("--workload", choices=sorted(CONFIGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: coarse grid and few paths, for bench/selftest.py")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and waits for its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "nisio", "__init__.py")):
        print(f"no nisio sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    configs = os.path.join(HERE, "configs", "tiny" if args.size == "tiny" else "")
    config = os.path.join(configs, CONFIGS[args.workload])
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(OUT, tag + ".worker.json")
    env = {k: v for k, v in os.environ.items() if k != "NISIO_THREADS"}
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
            args.workload, "--config", config, "--seed", str(args.seed),
            "--result", result_path]

    setups = []
    for _ in range(SETUP_CHILDREN):
        if _child(base + ["--setup-only"], env, deadline) is None:
            return 1
        with open(result_path, encoding="utf-8") as fh:
            setups.append(json.load(fh)["setup"])
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--work-dir", os.path.join(OUT, f"work-{tag}-{os.getpid()}"),
                  "--spans", os.path.join(OUT, tag + ".spans.json")]
    if _child(cmd, env, deadline) is None:
        return 1
    with open(result_path, encoding="utf-8") as fh:
        worker = json.load(fh)
    os.remove(result_path)
    setups.append(worker["setup"])

    ops = worker["ops"]
    failed = sum(not op["ok"] for op in ops)
    cold = [op for op in ops if op["kind"] == "cold"]
    if args.trace:
        traced = [op["s"] for op in ops if op["kind"] == "traced"]
        wall = {"run_s": [op["s"] for op in cold], "traced_run_s": traced}
        scaled = {}
        metrics = {f"config.{k}": statistics.median([s[k] for s in setups])
                   for k in ("import_s", "validate_s", "build_s")}
        metrics.update(worker["layers"])
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(wall["run_s"]))
        units = {name: layer_unit(name) for name in metrics}
    else:
        # policy-mc times its warm call inside each cold operation
        warm = ([op for op in ops if op["kind"] == "warm"]
                or [dict(op, s=s) for op in cold for s in op["inner_s"]])
        wall = {"setup_s": [s["setup_s"] for s in setups],
                "run_s": [op["s"] for op in cold], "warm_s": [op["s"] for op in warm]}
        scaled = {name: [x["s"] * REF_NOMINAL_S / x["ref_s"] for x in kind]
                  for name, kind in (("run_s", cold), ("warm_s", warm))}
        scaled["setup_s"] = [s["setup_s"] * REF_NOMINAL_S / s["ref_s"] for s in setups]
        metrics = {k: statistics.median(scaled[k]) for k in ("setup_s", "run_s", "warm_s")}
        metrics["peak_rss_mb"] = worker["peak_rss_mib"]
        units = END_TO_END
    report = dict(worker["report"], fail_ratio=failed / len(ops))
    if "path_stages" in report and not args.trace:
        report["mc_path_stages_per_s"] = report["path_stages"] / metrics["warm_s"]

    env_info = worker["env"]
    print(f"nisio benchmark: {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.size} size; nproc {env_info['nproc']}, python {env_info['python']}, "
          f"numpy {env_info['numpy']}, scipy {env_info['scipy']}")
    for name, value in metrics.items():
        line = f"  {name:32s} {value:14.6g} {units[name]:6s}"
        if name in scaled:
            line += (f" median of {len(scaled[name])} at reference speed;"
                     f" wall-clock median {statistics.median(wall[name]):.6g}")
        print(line)
    for name in ("fail_ratio", "value_err", "mc_path_stages_per_s", "converged",
                 "z_score", "flag", "flagged_paths", "checks"):
        if name in report:
            print(f"  {name:32s} {report[name]!s:>14s}")
    for op in ops:
        if not op["ok"]:
            print(f"  FAILED {op['kind']} operation: {'; '.join(op['problems'])}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size, "env": env_info,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "ref_nominal_s": REF_NOMINAL_S, "scaled_samples": scaled,
              "wall_samples": wall, "setups": setups, "report": report, "ops": ops}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
