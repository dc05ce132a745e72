"""Workload process of the benchmark: one fresh interpreter per call.

``bench/run.py`` starts it; it is not meant to be run by hand.  It times
``import nisio``, config validation and the build of grid, family and u0 (the
set-up), and with ``--setup-only`` stops there.  Otherwise it runs the
workload's operations one at a time in this process, a closed loop with one
client and no thread pool, checks every output, and writes a JSON result to
``--result``.

Untraced (``--trace 0``): a cold operation is one ``nisio.cli.run`` call on
fresh objects; a warm operation repeats the workload's library call on
objects this process built once before the loop.  Traced (``--trace 1``):
after a first cold operation, pairs of one untraced and one traced cold
operation (span tracing from ``tracing.py``) for ``--seconds``.
"""

import time

T_START = time.perf_counter()

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

VALUE_TOL = 1e-8    # heat-refine: max |u_T - (x^2 + t)| on report_window
Z_MAX = 6.0         # policy-mc: a correct program exceeds |z| = 6 with p ~ 2e-9


def setup(config_path):
    """Import nisio from this checkout, validate the config, build the objects."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nisio.cli
    t1 = time.perf_counter()
    if os.path.dirname(os.path.abspath(nisio.__file__)) != os.path.join(SRC, "nisio"):
        raise SystemExit(f"nisio imported from {nisio.__file__}, not from {SRC}")
    from nisio import config
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    config.validate_config(cfg)
    t2 = time.perf_counter()
    grid = config.build_grid(cfg)
    family = config.build_family(cfg, grid)
    u0 = config.build_u0(cfg, grid)
    t3 = time.perf_counter()
    times = {"import_s": t1 - t0, "validate_s": t2 - t1, "build_s": t3 - t2,
             "setup_s": t3 - T_START}
    return cfg, grid, family, u0, times


def _file_hashes(out_dir):
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


class Reference:
    """Fixed numpy/scipy kernel timed next to every operation.

    This host's speed changes by up to 40 % for minutes at a time, and the
    kernel slows down with it: the ratio of an operation's time to the
    kernel's time around it varies several times less than the raw time.
    ``run.py`` scales end-to-end times by that ratio.  The kernel mixes what
    the workloads spend time on: sparse matrix-vector products on a large
    random matrix and on a narrow band followed by a pointwise max, Gaussian
    weights, Philox normals and ``searchsorted``, small ``expm`` calls and
    interpreter work.  Build it only after ``setup()``, which times the
    numpy import.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        n = 1601
        self.matrix = sp.random(n, n, density=0.15, random_state=rng, format="csr")
        offsets = np.arange(-62, 63)
        self.band_matrix = sp.diags([np.full(n - abs(k), 1.0 / offsets.size)
                                     for k in offsets], offsets, format="csr")
        self.vector = rng.standard_normal(n)
        self.nodes = np.linspace(-8.0, 8.0, n)
        self.band = rng.standard_normal((n, 200))
        self.one = np.array([[-0.5]])
        self()

    def __call__(self):
        import numpy as np
        import scipy.linalg
        t = time.perf_counter()
        for _ in range(15):
            self.matrix @ self.vector
        for _ in range(25):
            np.max(np.stack([self.band_matrix @ self.vector,
                             self.band_matrix @ self.vector]), axis=0)
        np.exp(-0.5 * self.band ** 2)
        states = np.random.Generator(np.random.Philox(key=0)).standard_normal(200_000)
        np.searchsorted(self.nodes, states)
        for k in range(20):
            scipy.linalg.expm(k * 0.01 * self.one)
        total = 0
        for i in range(20_000):
            total += i * i
        return time.perf_counter() - t


class Workload:
    """One CLI subcommand on one config; subclasses check its outputs.

    A subclass with a warm operation defines ``warm_up()``, which builds this
    process's own objects and returns the call to repeat on them, and
    ``check_warm(result)``.
    """

    subcommand = None
    warm_up = None

    def __init__(self, cfg, grid, family, u0, seed):
        self.cfg, self.grid, self.family, self.u0, self.seed = cfg, grid, family, u0, seed
        self.report = {}
        self.inner_s = []   # filled by workloads that time their warm call in place
        self._hashes = None

    def check_cold(self, out_dir, rc):
        """Problems found in one cold operation's outputs (empty when correct)."""
        hashes = _file_hashes(out_dir)
        if self._hashes is None:
            self._hashes = hashes
        elif hashes != self._hashes:
            return ["output files differ from the first operation's"]
        return []


class HeatRefine(Workload):
    subcommand = "solve"

    def check_cold(self, out_dir, rc):
        problems = super().check_cold(out_dir, rc)
        if rc != 0:
            problems.append(f"solve exited {rc}")
        with open(os.path.join(out_dir, "solve.csv"), encoding="utf-8") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        t = self.cfg["solve"]["t"]
        lo, hi = self.cfg["report_window"]
        err = max(abs(u - (x * x + t)) for x, _, u in rows if lo <= x <= hi)
        levels = _read_json(out_dir, "solve_levels.json")
        self.report.update(value_err=err, converged=levels["converged"],
                           levels=levels["levels"])
        if not err <= VALUE_TOL:
            problems.append(f"value_err {err:.3g} > {VALUE_TOL:g}")
        self.u_t = [u for _, _, u in rows]
        return problems

    def warm_up(self):
        from nisio import envelope
        s = self.cfg["solve"]

        def call():
            return envelope.nisio_value(self.family, s["t"], self.u0,
                                        max_level=s["max_level"], tol=s["tol"])
        call()
        return call

    def check_warm(self, result):
        if result.value.values.tolist() != self.u_t:
            return ["warm nisio_value differs from u_T in solve.csv"]
        return []


class PolicyMC(Workload):
    """The warm call is ``mc_value`` inside each cold operation: it samples
    on the SamplerSpec the CLI has just built and builds nothing itself, so
    it is timed in place rather than run a second time."""

    subcommand = "mc"

    def __init__(self, *args):
        super().__init__(*args)
        self._first = None
        from nisio import montecarlo
        mc_value = montecarlo.mc_value

        def timed_mc_value(*a, **kw):
            t = time.perf_counter()
            out = mc_value(*a, **kw)
            self.inner_s.append(time.perf_counter() - t)
            return out
        montecarlo.mc_value = timed_mc_value

    def check_cold(self, out_dir, rc):
        problems = super().check_cold(out_dir, rc)
        rec = _read_json(out_dir, "mc.json")
        mc = rec["mc"]
        self.report.update(z_score=rec["z_score"], flag=rec["flag"],
                           estimate=mc["estimate"], std_error=mc["std_error"],
                           flagged_paths=mc["flagged_paths"],
                           path_stages=mc["n_paths"] * rec["m"])
        if rc != (1 if rec["flag"] else 0):
            problems.append(f"mc exited {rc} with flag={rec['flag']}")
        if not abs(rec["z_score"]) <= Z_MAX:
            problems.append(f"|z| = {abs(rec['z_score']):.3g} > {Z_MAX:g}")
        if rec["seed"] != self.seed or mc["n_paths"] != self.cfg["mc"]["n_paths"]:
            problems.append("mc.json seed or n_paths differ from the inputs")
        pair = (mc["estimate"], mc["std_error"])
        if self._first is None:
            self._first = pair
        elif pair != self._first:
            problems.append("estimate or std_error differ across repeats of one seed")
        return problems


class OUProperties(Workload):
    subcommand = "properties"

    def check_cold(self, out_dir, rc):
        problems = super().check_cold(out_dir, rc)
        rec = _read_json(out_dir, "properties.json")
        failed = [c["name"] for c in rec["checks"] if not c["passed"]]
        self.report.update(checks=len(rec["checks"]), checks_failed=failed)
        if rc != 0 or not rec["passed"] or failed:
            problems.append(f"properties exited {rc}, failed checks {failed}")
        self.expected = {k: rec[k] for k in ("eps_q", "checks", "passed")}
        return problems

    def warm_up(self):
        from nisio import diagnostics
        from nisio.probes import probe_function
        p = self.cfg["properties"]
        probes = [probe_function(name, self.grid) for name in p["probes"]]

        def call():
            return diagnostics.property_suite(self.family, probes, p["t_list"],
                                              seed=p["seed"],
                                              partition_pairs=p["partition_pairs"])
        call()
        return call

    def check_warm(self, result):
        if json.loads(json.dumps(result)) != self.expected:
            return ["warm property_suite differs from properties.json"]
        return []


WORKLOADS = {"heat-refine": HeatRefine, "policy-mc": PolicyMC,
             "ou-properties": OUProperties}


def timed_loop(seconds, step):
    """Call ``step`` at least once, then until the next call would end after
    ``seconds``; the next call's length is predicted as the median so far."""
    start = time.perf_counter()
    lengths = []
    while not lengths or (time.perf_counter() - start
                          + statistics.median(lengths) <= seconds):
        t = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - t)


class Runner:
    """Runs and records operations; only the library call is timed."""

    def __init__(self, workload, config_path, work_dir):
        self.wl = workload
        self.config_path = config_path
        self.work_dir = work_dir
        self.reference = None
        self.setup_ref_s = None
        self.ops = []
        self._refs = []

    def _reference_time(self):
        return self.reference() if self.reference else None

    def start_reference(self):
        """Build the reference kernel after the first operation, so that its
        arrays cannot move that operation's peak RSS.  Its median time over
        three calls scales this process's set-up time."""
        self.reference = Reference()
        self.setup_ref_s = statistics.median(self.reference() for _ in range(3))

    def _record(self, kind, seconds, problems, check, inner_s=()):
        if not problems:
            try:
                problems = check()
            except Exception as exc:  # a missing or malformed output fails the op
                problems = [f"check: {type(exc).__name__}: {exc}"]
        self.ops.append({"kind": kind, "s": seconds, "inner_s": list(inner_s),
                         "ok": not problems, "problems": problems})

    def cold(self, kind="cold"):
        import nisio.cli
        out_dir = os.path.join(self.work_dir, str(len(self.ops)))
        rc, problems = None, []
        self._refs.append(self._reference_time())
        n_inner = len(self.wl.inner_s)
        t = time.perf_counter()
        try:
            rc = nisio.cli.run(self.wl.subcommand, self.config_path, out_dir,
                               seed=self.wl.seed)
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t
        self._record(kind, seconds, problems, lambda: self.wl.check_cold(out_dir, rc),
                     self.wl.inner_s[n_inner:])
        shutil.rmtree(out_dir, ignore_errors=True)

    def warm(self, call):
        result, problems = None, []
        self._refs.append(self._reference_time())
        t = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t
        self._record("warm", seconds, problems, lambda: self.wl.check_warm(result))

    def finish(self):
        """Give each operation the median of the reference times taken
        before the three operations on either side of it, itself included,
        and after the last of them.  One 44 ms kernel time is noisy; the
        host's speed changes over minutes, not seconds."""
        self._refs.append(self._reference_time())
        for i, op in enumerate(self.ops):
            window = self._refs[max(0, i - 3):i + 5]
            op["ref_s"] = statistics.median(r for r in window if r is not None)


def run_untraced(runner, seconds):
    """Cold operations, each preceded by warm ones for as long as the last
    cold one took, so that both get about half of the time."""
    wl = runner.wl
    runner.cold()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.start_reference()
    call = wl.warm_up() if wl.warm_up else None
    last_cold = [runner.ops[-1]["s"]]

    def step():
        spent = 0.0
        while call and spent < last_cold[0]:
            runner.warm(call)
            spent += runner.ops[-1]["s"]
        runner.cold()
        last_cold[0] = runner.ops[-1]["s"]
    timed_loop(seconds, step)
    return {"peak_rss_mib": peak_rss_mib}


def run_traced(runner, seconds, spans_path):
    """Alternate untraced and traced cold operations after a first one.

    The first operation of a fresh process pays first-touch page faults, so
    it is checked but left out of both sides of the overhead comparison."""
    from tracing import FIELDS, Tracer, op_metrics
    tracer = Tracer()
    tracer.install()
    runner.cold("first")
    runner.start_reference()
    traced_ops = []

    def pair():
        runner.cold()
        tracer.op = len(runner.ops)
        traced_ops.append(tracer.op)
        try:
            runner.cold("traced")
        finally:
            tracer.op = None
    timed_loop(seconds, pair)
    per_op = [op_metrics(tracer.spans, op) for op in traced_ops]
    layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": FIELDS, "spans": tracer.spans}, fh)
    return {"layers": layers, "spans": len(tracer.spans)}


def environment():
    import numpy
    import scipy
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in blas_vars},
            "NISIO_THREADS": os.environ.get("NISIO_THREADS"),
            "loadavg": os.getloadavg()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cfg, grid, family, u0, setup_times = setup(args.config)
    result = {"setup": setup_times}
    if args.setup_only:
        reference = Reference()
        setup_times["ref_s"] = statistics.median(reference() for _ in range(3))
    else:
        wl = WORKLOADS[args.workload](cfg, grid, family, u0, args.seed)
        runner = Runner(wl, args.config, args.work_dir)
        os.makedirs(args.work_dir, exist_ok=True)
        try:
            if args.trace:
                result.update(run_traced(runner, args.seconds, args.spans))
            else:
                result.update(run_untraced(runner, args.seconds))
        finally:
            shutil.rmtree(args.work_dir, ignore_errors=True)
        runner.finish()
        setup_times["ref_s"] = runner.setup_ref_s
        result.update(ops=runner.ops, report=wl.report, env=environment())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
