"""The CLI loads only the scipy submodules a run uses, and no jsonschema.

``scipy.stats`` and ``scipy.linalg`` are never needed, and ``scipy.special``
only for chain members; each costs import time and resident memory in every
CLI process.  Nor is ``scipy.sparse``: kernels are applied by its compiled
loops, loaded on their own, since importing the package runs scipy's
array-API shim (``scipy._lib._array_api``), which loads numpy's ``f2py``,
``testing`` and ``ma``.  A config is checked by nisio's own
schema walker, so ``jsonschema`` is loaded only by the tests, as its oracle.
Each case runs in a fresh interpreter, so modules this test process has
loaded do not count.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "bench" / "configs"
UNUSED = ("scipy.stats", "scipy.linalg", "scipy.special", "scipy.sparse",
          "scipy._lib._array_api", "jsonschema")

# case -> the CLI arguments run after the import (none: import only)
CASES = {
    "import": None,
    "solve": ["solve", "--config", str(CONFIGS / "readme.json")],
    "properties": ["properties", "--config", str(CONFIGS / "ou.json")],
    # the greedy policy and the path sampler (1000 paths, m = 4)
    "mc": ["mc", "--config", str(CONFIGS / "tiny" / "readme.json")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_unused_scipy_unloaded(tmp_path, case):
    script = "import sys\nimport nisio.cli\n"
    if CASES[case]:
        argv = CASES[case] + ["--out", str(tmp_path / "out")]
        script += f"assert nisio.cli.main({argv!r}) == 0\n"
    script += f"print(sorted(m for m in {UNUSED!r} if m in sys.modules))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
