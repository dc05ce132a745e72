"""The benchmark's hooks into nisio still find what they read.

``bench/tracing.py`` reaches functions by name (``montecarlo.mc_value``,
``envelope.quadrature_tolerance``, ...) and reads ``member._cache`` and
``Partition.times``; the policy-mc workload times ``mc_value`` by replacing
``nisio.montecarlo.mc_value``.  Renaming or deleting any of these breaks the
benchmark, or leaves a metric unmeasured, without failing a run.  Each test
runs in a fresh interpreter, with ``src`` and ``bench`` on the path.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a traced solve reports builds, applies, steps and the level-0 time; an mc
# run calls montecarlo.mc_value by its module-global name, once, and reports
# its sampling time and the level-0 time of the refinement the CLI runs
TRACED_RUNS = """
import tempfile
from tracing import Tracer, op_metrics
from nisio import cli, montecarlo

tiny = "bench/configs/tiny/readme.json"
tracer = Tracer()
tracer.install()
with tempfile.TemporaryDirectory() as out:
    tracer.op = 0
    assert cli.run("solve", tiny, out) == 0
    tracer.op = None
    metrics = op_metrics(tracer.spans, 0)
    for key in ("operators.build_count", "operators.apply_count",
                "envelope.step_count", "envelope.level_s.L0"):
        assert metrics[key] > 0, (key, metrics[key])
    calls = []
    mc_value = montecarlo.mc_value

    def counted(*args, **kwargs):
        calls.append(1)
        return mc_value(*args, **kwargs)

    montecarlo.mc_value = counted
    tracer.op = 1
    assert cli.run("mc", tiny, out) == 0
    tracer.op = None
    assert len(calls) == 1, calls
    metrics = op_metrics(tracer.spans, 1)
    for key in ("envelope.level_s.L0", "montecarlo.sample_s"):
        assert metrics[key] > 0, (key, metrics[key])
"""


# a traced properties run counts every member apply a spy counts, reports
# the suite's time, and every metric it reports is finite; the spy wraps each
# operator class's own apply_values (no member delegates its applies)
TRACED_PROPERTIES = """
import math
import tempfile
from tracing import Tracer, op_metrics
from nisio import cli, operators

tracer = Tracer()
tracer.install()
calls = []
for cls in vars(operators).values():
    if isinstance(cls, type) and "apply_values" in vars(cls):
        def spy(self, t, values, _apply=vars(cls)["apply_values"]):
            calls.append(1)
            return _apply(self, t, values)
        cls.apply_values = spy
with tempfile.TemporaryDirectory() as out:
    tracer.op = 0
    assert cli.run("properties", "bench/configs/tiny/ou.json", out) == 0
    tracer.op = None
metrics = op_metrics(tracer.spans, 0)
assert calls and metrics["operators.apply_count"] == len(calls), (
    metrics["operators.apply_count"], len(calls))
assert metrics["diagnostics.property_suite_s"] > 0, metrics
assert all(math.isfinite(v) for v in metrics.values()), metrics
"""


# a traced solve on a scaled family counts every member apply a spy counts:
# a scaled member applies through its own apply_values, not its base's
TRACED_SCALED = """
import json
import os
import tempfile
from tracing import Tracer, op_metrics
from nisio import cli, operators

tracer = Tracer()
tracer.install()
calls = []
for cls in vars(operators).values():
    if isinstance(cls, type) and "apply_values" in vars(cls):
        def spy(self, t, values, _apply=vars(cls)["apply_values"]):
            calls.append(1)
            return _apply(self, t, values)
        cls.apply_values = spy
cfg = {"grid": {"kind": "uniform", "domain": [-2, 2], "dx": 0.1, "boundary": "reflect"},
       "family": {"kind": "scaled", "base": {"kind": "heat", "sigmas": [1.0]},
                  "scales": [0.25, 1.0]},
       "u0": {"name": "quadratic"}, "solve": {"t": 0.5, "max_level": 3}}
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "scaled.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    tracer.op = 0
    assert cli.run("solve", path, os.path.join(out, "run")) == 0
    tracer.op = None
metrics = op_metrics(tracer.spans, 0)
assert calls and metrics["operators.apply_count"] == len(calls), (
    metrics["operators.apply_count"], len(calls))
"""


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_tracer_installs_on_the_current_package():
    _run("from tracing import Tracer; Tracer().install()")


def test_traced_runs_read_the_hooks_the_benchmark_needs():
    _run(TRACED_RUNS)


def test_traced_properties_counts_the_applies_a_spy_counts():
    _run(TRACED_PROPERTIES)


def test_traced_scaled_solve_counts_the_applies_a_spy_counts():
    _run(TRACED_SCALED)
