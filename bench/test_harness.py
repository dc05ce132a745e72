"""Self-test of the benchmark harness at a tiny size.

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json``, untraced and
traced, with the configs in ``bench/configs/tiny`` (coarse grid, few paths),
and checks only that every metric ``BENCHMARK.json`` names is emitted with its
unit.  It is not part of the tier-1 suite (pytest collects ``tests/`` only);
run it with

    python3 -m pytest -q bench/test_harness.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
