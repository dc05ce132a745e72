"""Space-time discrete controls and the dual (value-function) representation.

A policy is a finite list of stages; each stage holds a duration and a
per-grid-point member selection.  Its value composes the selected member
transitions right to left.  The greedy policy extracts per-point argmax
selectors from the backward envelope recursion; with a finite family the
argmax is exact, so the greedy value reproduces the uniform-partition
envelope bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .envelope import CHECK_LEVEL, check_applies, envelope_step_argmax, nisio_value
from .errors import ConfigurationError
from .grids import weighted_norm

# stages of a random policy, at most
MAX_RANDOM_STAGES = 6


def _horizon(durations):
    """The time a policy of stages of ``durations`` covers, summed in order."""
    return float(sum(durations))


@dataclass(frozen=True)
class ControlPolicy:
    """Stages of (duration, selector) with selectors indexed per grid point."""

    stages: tuple

    def __post_init__(self):
        stages = tuple((float(h), np.asarray(sel, dtype=np.int64))
                       for h, sel in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ConfigurationError("policy needs at least one stage")
        for h, sel in stages:
            if not 0.0 < h < np.inf:
                raise ConfigurationError(f"stage durations must be positive and finite, got {h}")
            if sel.ndim != 1:
                raise ConfigurationError("selectors must be 1D per-point arrays")

    @property
    def horizon(self):
        return _horizon(h for h, _ in self.stages)

    @property
    def n_stages(self):
        return len(self.stages)

    def to_dict(self):
        return {"stages": [{"h": h, "selector": sel.tolist()} for h, sel in self.stages]}

    @classmethod
    def from_dict(cls, data):
        return cls(tuple((s["h"], np.asarray(s["selector"], dtype=np.int64))
                         for s in data["stages"]))


def _check_policy(family, policy):
    n = family.grid.size
    for h, sel in policy.stages:
        if sel.shape != (n,):
            raise ConfigurationError(f"selector length {sel.shape} != grid size {n}")
        if sel.min() < 0 or sel.max() >= len(family):
            raise ConfigurationError("selector index out of range for this family")


def policy_value(family, policy, u):
    """Value of a policy: stage operators composed right to left.

    At stage k every point x receives (S_{selector_k(x)}(h_k) v)(x).
    """
    _check_policy(family, policy)
    v = u
    cols = np.arange(family.grid.size)
    for h, sel in reversed(policy.stages):
        stacked = family.apply_all(h, v)
        v = v.with_values(stacked[sel, cols])
    return v


@dataclass
class GreedyResult:
    policy: ControlPolicy
    value: object  # GridFunction


def greedy_steps(family, t, m):
    """The greedy policy's steps per duration, m of t / m, and its horizon,
    the sum of its stages (m steps of t / m can miss t by an ulp): bit for
    bit the ``horizon`` of ``greedy_policy(family, t, u, m).policy``.  It
    first refuses m < 1, t <= 0 and m * K member applies over the budget."""
    if m < 1:
        raise ConfigurationError("need at least one stage")
    if t <= 0.0:
        raise ConfigurationError("horizon must be positive")
    check_applies(family, f"{m} stages", m, "need")
    h = t / m
    return Counter({h: m}), _horizon(repeat(h, m))


def greedy_policy(family, t, u, m):
    """Backward argmax extraction over m equal stages, checked by ``greedy_steps``.

    The per-point argmax (lowest index on ties) realizes an exact optimizer
    stage by stage, so the backward pass's value is both the returned
    policy's value and the uniform m-partition envelope, bit for bit.
    """
    greedy_steps(family, t, m)
    h = t / m
    v = u
    selectors = []
    for _ in range(m):
        v, idx = envelope_step_argmax(family, h, v)
        selectors.append(idx)
    policy = ControlPolicy(tuple((h, sel) for sel in reversed(selectors)))
    return GreedyResult(policy, v)


def duality_gap(family, t, u, m, max_level=12, tol=1e-6, window=None):
    """Weighted-norm gap between the refined envelope and the greedy value.

    The greedy policy runs first, so a stage count over its budget is
    rejected before the refinement."""
    greedy = greedy_policy(family, t, u, m)
    res = nisio_value(family, t, u, max_level=max_level, tol=tol)
    diff = res.value.with_values(res.value.values - greedy.value.values)
    return {"gap": weighted_norm(diff, window=window),
            "nisio": res, "greedy": greedy}


def random_policy(family, t, rng):
    """Admissible policy with 1 to ``MAX_RANDOM_STAGES`` random stage
    durations on the t / 2^CHECK_LEVEL lattice (``envelope.CHECK_LEVEL``,
    where ``property_suite``'s checks carry 2^CHECK_LEVEL eps_q) and
    independent random per-point selectors."""
    quantum = 2 ** CHECK_LEVEL
    m = int(rng.integers(1, MAX_RANDOM_STAGES + 1))
    cuts = np.sort(rng.choice(np.arange(1, quantum), size=m - 1, replace=False)) \
        if m > 1 else np.array([], dtype=int)
    edges = np.concatenate([[0], cuts, [quantum]])
    durations = np.diff(edges) * (t / quantum)
    stages = tuple(
        (float(h), rng.integers(0, len(family), size=family.grid.size))
        for h in durations)
    return ControlPolicy(stages)


def random_steps(family, t, trials, seed):
    """Steps per duration of the ``trials`` random policies ``random_policy``
    draws in turn from a generator seeded with ``seed``, one per stage:
    the draw replayed before any work, keeping the durations only, once
    ``MAX_RANDOM_STAGES`` steps per policy fit the member-apply budget."""
    check_applies(family, f"{trials} random policies", MAX_RANDOM_STAGES * trials)
    rng = np.random.default_rng(seed)
    steps = Counter()
    for _ in range(trials):
        steps.update(h for h, _ in random_policy(family, t, rng).stages)
    return steps
