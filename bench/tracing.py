"""Span tracing of nisio's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span ``[name, start, end, parent, op, info]`` in memory.  A
module-level function is replaced under every name any ``nisio`` module binds
it to (``cli`` imports ``nisio_value``, ``control`` imports
``envelope_step_argmax``, ...); a method is replaced on every class that
defines its own version (subclasses override ``apply_values``).  Spans are
written once, by the caller, when the run ends.

``op_metrics`` turns the spans of one operation into per-layer metrics:
counts, inclusive times and self times (a span's duration minus the time its
direct child spans cover).  A ``matrix`` or ``apply_values`` span that only
delegates to another member (``ScaledOperator``) is not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np
import scipy.sparse as sp

from nisio import (cli, control, diagnostics, envelope, grids, montecarlo,
                   operators)

FIELDS = ("name", "start", "end", "parent", "op", "info")
MAX_LEVEL = 8          # envelope.level_s.L0 ... L8
MIB = 2.0 ** 20


def _matrix_bytes(mat):
    """Bytes a matrix holds, computed from its arrays."""
    if sp.issparse(mat):
        return sum(getattr(mat, a).nbytes for a in ("data", "indices", "indptr")
                   if hasattr(mat, a))
    return int(np.asarray(mat).nbytes)


def _apply_bytes(mat, n):
    """Computed traffic of one matrix-vector product: CSR nnz*12 + n*16
    (values and int32 column indices, vector read and written); dense n*n*8 +
    n*16.  Spectral members hold no matrix and count 0."""
    if sp.issparse(mat):
        return mat.nnz * 12 + n * 16
    if isinstance(mat, np.ndarray) and mat.ndim == 2:
        return mat.size * 8 + n * 16
    return 0


# info hooks: before(args) runs before the call, after(args, result, pre)
# after it; the value of ``after`` is stored in the span

def _matrix_before(args):
    self, t = args[0], args[1]
    return t not in self._cache


def _matrix_after(args, result, built):
    kind = type(args[0]).__name__.replace("Operator", "").lower()
    return (bool(built), kind, _matrix_bytes(result) if built else 0)


def _apply_after(args, result, pre):
    self, t = args[0], args[1]
    mat = self._cache.get(t)
    return 0 if mat is None else _apply_bytes(mat, self.grid.size)


_HOOKS = {
    "operators.matrix": (_matrix_before, _matrix_after),
    "operators.apply_values": (None, _apply_after),
    "envelope.partition_apply": (None, lambda a, r, p: len(a[1].times) - 1),
    "grids.nearest_index": (None, lambda a, r, p: int(np.size(a[1]))),
    "montecarlo.sample_terminal_states": (None, lambda a, r, p: int(r[1])),
    "diagnostics.property_suite": (
        None, lambda a, r, p: sum(c["passed"] for c in r["checks"])),
}

_FUNCTIONS = {
    envelope: ("envelope_step", "envelope_step_argmax", "partition_apply",
               "nisio_value", "quadrature_tolerance"),
    control: ("greedy_policy", "policy_value"),
    montecarlo: ("sample_terminal_states", "mc_value"),
    diagnostics: ("property_suite",),
    cli: ("run",),
}

_METHODS = (
    (operators, "matrix", "operators.matrix"),
    (operators, "apply_values", "operators.apply_values"),
    (grids, "nearest_index", "grids.nearest_index"),
    (grids, "interp_weights", "grids.interp"),
    (grids, "at", "grids.interp"),
)


class Tracer:
    """In-memory span recorder.  ``op`` tags spans with the current
    operation; while it is None the wrappers record nothing."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            pre = before(args) if before else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                span[5] = after(args, result, pre)
            return result

        return traced

    def install(self):
        """Patch every traced name in every loaded nisio module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "nisio" or n.startswith("nisio."))]
        for module, names in _FUNCTIONS.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for module, method, name in _METHODS:
            for cls in vars(module).values():
                if (isinstance(cls, type) and cls.__module__ == module.__name__
                        and method in vars(cls)):
                    setattr(cls, method, self.wrap(name, vars(cls)[method]))


def _self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def op_metrics(spans, op):
    """Per-layer metrics of operation ``op`` (see bench/README.md)."""
    self_s = _self_times(spans)
    delegating = {s[3] for s in spans if s[3] >= 0 and spans[s[3]][0] == s[0]}
    out = {k: 0.0 for k in PER_LAYER_TRACED}
    matrix_calls = hits = 0
    for i, (name, start, end, parent, span_op, info) in enumerate(spans):
        if span_op != op:
            continue
        dur = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "operators.matrix" and i not in delegating:
            matrix_calls += 1
            built, kind, nbytes = info
            if built:
                out["operators.build_count"] += 1
                out["operators.build_s"] += dur
                if f"operators.build_s.{kind}" in out:
                    out[f"operators.build_s.{kind}"] += dur
                out["operators.cache_mb"] += nbytes / MIB
            else:
                hits += 1
        elif name == "operators.apply_values":
            out["operators.apply_s"] += self_s[i]
            out["operators.apply_bytes"] += info
            if i not in delegating:
                out["operators.apply_count"] += 1
        elif name in ("envelope.envelope_step", "envelope.envelope_step_argmax"):
            out["envelope.step_count"] += 1
            out["envelope.step_self_s"] += self_s[i]
        elif name == "envelope.partition_apply":
            level = math.log2(info) if info > 0 else -1.0
            if (parent_name == "envelope.nisio_value" and level.is_integer()
                    and level <= MAX_LEVEL):
                out[f"envelope.level_s.L{int(level)}"] += dur
        elif name == "envelope.quadrature_tolerance":
            out["envelope.eps_q_s"] += dur
        elif name == "control.greedy_policy":
            out["control.greedy_s"] += dur
        elif name == "control.policy_value":
            out["control.policy_value_s"] += dur
        elif name == "grids.nearest_index":
            out["grids.nearest_index_s"] += dur
            out["grids.nearest_index_points"] += info
        elif name == "grids.interp":
            out["grids.interp_s"] += self_s[i]
        elif name == "montecarlo.sample_terminal_states":
            out["montecarlo.sample_s"] += dur
            out["montecarlo.sample_self_s"] += self_s[i]
            out["montecarlo.flagged_paths"] += info
        elif name == "montecarlo.mc_value":
            out["montecarlo.mc_value_s"] += dur
        elif name == "diagnostics.property_suite":
            out["diagnostics.property_suite_s"] += dur
            out["diagnostics.checks_passed"] += info
        elif name == "cli.run":
            out["cli.self_s"] += self_s[i]
    out["operators.matrix_hit_ratio"] = hits / matrix_calls if matrix_calls else 0.0
    return out


# metrics op_metrics computes; run.py adds config.* (from the set-up
# samples) and trace.overhead_s
PER_LAYER_TRACED = (
    "operators.build_count", "operators.build_s", "operators.build_s.heat",
    "operators.build_s.ou", "operators.matrix_hit_ratio", "operators.cache_mb",
    "operators.apply_count", "operators.apply_s", "operators.apply_bytes",
    "envelope.step_count", "envelope.step_self_s",
    *(f"envelope.level_s.L{k}" for k in range(MAX_LEVEL + 1)),
    "envelope.eps_q_s", "control.greedy_s", "control.policy_value_s",
    "grids.nearest_index_s", "grids.nearest_index_points", "grids.interp_s",
    "montecarlo.sample_s", "montecarlo.sample_self_s", "montecarlo.flagged_paths",
    "montecarlo.mc_value_s", "diagnostics.property_suite_s",
    "diagnostics.checks_passed", "cli.self_s",
)
