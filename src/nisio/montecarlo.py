"""Monte Carlo realization of the envelope value under a fixed policy.

Paths follow the policy stage by stage: the member driving each path over a
stage is looked up at the nearest grid point of the current state, and the
member's own ``path_step`` samples the stage transition exactly (Gaussian
increments for heat and 1D OU members, lognormal ones for GBM members, the
deterministic flow for Koopman members, a uniformization jump chain for
conservative chains; a scaled member samples its base over the dilated
duration).  The single-policy expectation is a lower bound for the envelope
value; under the greedy policy it reproduces it.

A stage first looks up only the smallest and largest state.  The nearest
index is non-decreasing in the state, so every path sits at a node between
those two; when the stage's selector names one member on that whole span,
that member steps the whole batch at once, with no per-path lookup.  Only a
selector that changes inside the span sends the stage through the per-path
lookup and one masked step per member.  Both routes give every path the same
member and draw the same numbers in the same order.  On a periodic grid the
paths wrap around the period after each stage; elsewhere a safety box (by
default the grid's end points) truncates them and counts the paths it caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControlPolicy, _check_policy, policy_value
from .envelope import nisio_value
from .errors import ConfigurationError, InvalidInputError


@dataclass(frozen=True)
class SamplerSpec:
    """Family + policy + path budget.

    The policy must fit the family (selector length and member indices), and
    every member a selector uses must admit an exact-increment sampler
    (spectral jump members do not).  The stage step of each such (member,
    stage duration) pair is built here, once.  Without a ``safety_box``, a
    1D grid that is not periodic takes its end points as the box."""

    family: object
    policy: ControlPolicy
    n_paths: int
    seed: int
    safety_box: tuple | None = None
    _steps: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigurationError("need at least one path")
        _check_policy(self.family, self.policy)
        steps = {}
        for h, sel in self.policy.stages:
            for k in np.unique(sel).tolist():
                if (k, h) not in steps:
                    steps[k, h] = self.family.members[k].path_step(h)
        object.__setattr__(self, "_steps", steps)
        grid = self.family.grid
        if (self.safety_box is None and grid.points.ndim == 1
                and grid.kind != "periodic"):
            pts = grid.points
            object.__setattr__(self, "safety_box",
                               (float(pts[0]), float(pts[-1])))

    def rng(self):
        return np.random.Generator(np.random.Philox(key=self.seed))


def sample_terminal_states(spec, x0, rng=None):
    """Terminal states of n_paths controlled paths started at x0.

    Returns (states, n_flagged): on a periodic grid a path that leaves the
    period starting at ``points[0]`` is shifted back by whole periods; paths
    leaving the safety box are truncated at its edge and counted.
    """
    grid = spec.family.grid
    if rng is None:
        rng = spec.rng()
    states = np.full(spec.n_paths, float(x0))
    flagged = 0
    for h, sel in spec.policy.stages:
        # nearest_index is monotone: every path's node lies in [j_lo, j_hi]
        j_lo, j_hi = grid.nearest_index([states.min(), states.max()])
        span = sel[j_lo:j_hi + 1]
        if span.min() == span.max():
            states = spec._steps[int(span[0]), h](states, rng)
        else:
            member_idx = sel[grid.nearest_index(states)]
            for k in range(len(spec.family)):
                mask = member_idx == k
                if np.any(mask):
                    states[mask] = spec._steps[k, h](states[mask], rng)
        if grid.kind == "periodic":
            start, period = grid.points[0], grid.period
            out = (states < start) | (states >= start + period)
            if np.any(out):
                states[out] = start + np.mod(states[out] - start, period)
        if spec.safety_box is not None:
            lo, hi = spec.safety_box
            out = (states < lo) | (states > hi)
            flagged += int(np.sum(out))
            np.clip(states, lo, hi, out=states)
    return states, flagged


def sample_controlled_path(spec, x0, rng=None):
    """Terminal state of a single controlled path (convenience wrapper)."""
    one = SamplerSpec(spec.family, spec.policy, 1, spec.seed, spec.safety_box)
    states, _ = sample_terminal_states(one, x0, rng=rng)
    return float(states[0])


def mc_value(spec, x0, u):
    """Sample mean and standard error of u(X_T) under the policy.

    Reproducible: the counter-based generator is keyed by the seed alone, so
    identical (spec, x0) give bit-identical estimates.
    """
    if spec.n_paths < 100:
        raise InvalidInputError("need at least 100 paths for an error estimate")
    states, flagged = sample_terminal_states(spec, x0)
    vals = u.at(states)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(spec.n_paths))
    return {"estimate": est, "std_error": se, "n_paths": spec.n_paths,
            "flagged_paths": flagged}


def mc_compare(spec, x0, u, max_level=8, tol=1e-8):
    """Monte Carlo vs grid policy value vs refined envelope at one state."""
    mc = mc_value(spec, x0, u)
    grid_fn = policy_value(spec.family, spec.policy, u)
    envelope = nisio_value(spec.family, spec.policy.horizon, u,
                           max_level=max_level, tol=tol)
    grid_val = float(grid_fn.at(x0))
    nisio_val = float(envelope.value.at(x0))
    diff = grid_val - mc["estimate"]
    if mc["std_error"] > 0.0:
        z = diff / mc["std_error"]
    else:
        z = 0.0 if abs(diff) <= 1e-12 else math.inf
    return {"mc": mc, "grid": grid_val, "nisio": nisio_val,
            "z_score": float(z), "flag": bool(abs(z) > 3.0)}
