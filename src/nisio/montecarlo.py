"""Monte Carlo realization of the envelope value under a fixed policy.

Paths follow the policy stage by stage: the member driving each path over a
stage is looked up at the nearest grid point of the current state, and the
stage transition is sampled exactly (Gaussian increments for diffusive
members, lognormal for multiplicative ones, a uniformization jump chain for
finite-state members, the deterministic flow for transport members).  The
single-policy expectation is a lower bound for the envelope value; under the
greedy policy it reproduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControlPolicy, policy_value
from .envelope import nisio_value
from .errors import ConfigurationError, InvalidInputError
from .operators import (ChainOperator, GBMOperator, HeatOperator,
                        KoopmanOperator, OUOperator, ScaledOperator)


def _sampling_kind(member):
    base = member
    scale = 1.0
    while isinstance(base, ScaledOperator):
        scale *= base.scale
        base = base.base
    if isinstance(base, HeatOperator):
        return "heat", base, scale
    if isinstance(base, GBMOperator):
        return "gbm", base, scale
    if isinstance(base, OUOperator):
        if base.d != 1:
            raise ConfigurationError("path sampler supports 1D linear-drift members only")
        return "ou", base, scale
    if isinstance(base, KoopmanOperator):
        return "flow", base, scale
    if isinstance(base, ChainOperator):
        if not base.conservative:
            raise ConfigurationError(
                "stochastic representation needs a conservative rate matrix")
        return "chain", base, scale
    raise ConfigurationError(f"no exact-increment sampler for {member.name}")


@dataclass(frozen=True)
class SamplerSpec:
    """Family + policy + path budget; every policy member must admit an
    exact-increment sampler (spectral jump members are excluded)."""

    family: object
    policy: ControlPolicy
    n_paths: int
    seed: int
    safety_box: tuple | None = None
    _kinds: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigurationError("need at least one path")
        kinds = tuple(_sampling_kind(m) for m in self.family)
        object.__setattr__(self, "_kinds", kinds)
        if self.safety_box is None and self.family.grid.points.ndim == 1:
            pts = self.family.grid.points
            object.__setattr__(self, "safety_box",
                               (float(pts[0]), float(pts[-1])))

    def rng(self):
        return np.random.Generator(np.random.Philox(key=self.seed))


def _stage_step(kind, base, h):
    """Stage transition ``step(states, rng)`` of one member over the scaled
    duration h, with everything that depends on h alone computed here once."""
    if h == 0.0:
        return lambda states, rng: states
    if kind == "heat":
        vol = base.sigma * math.sqrt(h)
        return lambda states, rng: states + vol * rng.standard_normal(states.size)
    if kind == "gbm":
        drift = (base.mu - 0.5 * base.sigma ** 2) * h
        vol = base.sigma * math.sqrt(h)
        return lambda states, rng: states * np.exp(
            drift + vol * rng.standard_normal(states.size))
    if kind == "ou":
        M, drift, cov = base.moments(h)
        m_lin, shift = M[0, 0], drift[0]
        std = math.sqrt(max(cov[0, 0], 0.0))
        if std == 0.0:
            return lambda states, rng: m_lin * states + shift
        return lambda states, rng: (m_lin * states + shift
                                    + std * rng.standard_normal(states.size))
    if kind == "flow":
        return lambda states, rng: base.flow(h, states)
    if kind == "chain":
        cum = np.cumsum(base.jump_matrix, axis=1)
        cum[:, -1] = 1.0
        return lambda states, rng: _jump_chain(base, cum, h, states, rng)
    raise ConfigurationError(f"unknown sampler kind {kind}")


def _jump_chain(base, cum, h, states, rng):
    idx = np.clip(np.rint(states).astype(int), 0, base.grid.size - 1)
    n_jumps = rng.poisson(base.rate * h, size=states.size)
    for j in range(int(n_jumps.max()) if n_jumps.size else 0):
        active = n_jumps > j
        if not np.any(active):
            break
        draws = rng.random(int(active.sum()))
        rows = cum[idx[active]]
        idx[active] = (rows < draws[:, None]).sum(axis=1)
    return idx.astype(float)


def sample_terminal_states(spec, x0, rng=None):
    """Terminal states of n_paths controlled paths started at x0.

    Returns (states, n_flagged): paths leaving the safety box are truncated
    at its edge and counted.
    """
    grid = spec.family.grid
    if rng is None:
        rng = spec.rng()
    states = np.full(spec.n_paths, float(x0))
    flagged = 0
    steps = {}      # (member, stage duration) -> stage transition
    for h, sel in spec.policy.stages:
        nearest = grid.nearest_index(states)
        member_idx = sel[nearest]
        for k, (kind, base, scale) in enumerate(spec._kinds):
            mask = member_idx == k
            if np.any(mask):
                step = steps.get((k, h))
                if step is None:
                    step = steps[k, h] = _stage_step(kind, base, scale * h)
                states[mask] = step(states[mask], rng)
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
    if spec.family.grid.kind == "labels":
        vals = u.values[np.clip(np.rint(states).astype(int), 0, u.grid.size - 1)]
    else:
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
    if spec.family.grid.kind == "labels":
        i = int(round(x0))
        grid_val = float(grid_fn.values[i])
        nisio_val = float(envelope.value.values[i])
    else:
        grid_val = float(grid_fn.at(x0))
        nisio_val = float(envelope.value.at(x0))
    diff = grid_val - mc["estimate"]
    if mc["std_error"] > 0.0:
        z = diff / mc["std_error"]
    else:
        z = 0.0 if abs(diff) <= 1e-12 else math.inf
    return {"mc": mc, "grid": grid_val, "nisio": nisio_val,
            "z_score": float(z), "flag": bool(abs(z) > 3.0)}
