"""The benchmark's tracer still finds every nisio function it wraps.

``bench/tracing.py`` reaches functions by name (``montecarlo.mc_value``,
``envelope.quadrature_tolerance``, ...), so renaming or deleting one breaks
the traced benchmark.  ``Tracer().install()`` runs in a fresh interpreter,
with ``src`` and ``bench`` on the path, and must exit cleanly.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_current_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
