"""Upper envelope of a family of transition operators.

The one-step envelope takes the pointwise maximum of the members applied for
a duration ``h``; composing it over a time partition and refining dyadically
yields the least upper bound of the family (the worst-case value under
adapted switching between members).  The refinement is monotone, so the
dyadic iterates increase pointwise up to the members' own quadrature defect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .grids import GridFunction, weighted_norm

# member applies a schedule's envelope steps may cost, steps times K members;
# 2^24 admits a refinement through level 12, 2^13 - 1 steps, of 2048 members
MAX_MEMBER_APPLIES = 2 ** 24
# the checks' lattice is t / 2^CHECK_LEVEL: property_suite's refinements and
# partition pairs, random_policy's stage cuts
CHECK_LEVEL = 4


@dataclass(frozen=True)
class Partition:
    """Finite time partition: 0 = t_0 < t_1 < ... < t_m.

    A uniform partition gives every gap exactly t/m, so all its steps share
    one duration (one cached member matrix, the greedy policy's stage
    length); its ``times`` are ``linspace``, whose differences can be an ulp
    off t/m.
    """

    times: np.ndarray
    _step: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size == 0:
            raise ConfigurationError("partition must be a nonempty 1D sequence")
        if t[0] != 0.0:
            raise ConfigurationError("partition must start at 0")
        if not np.all(np.diff(t) > 0.0):
            raise ConfigurationError("partition times must be strictly increasing")
        self.times.setflags(write=False)

    @classmethod
    def uniform(cls, t, m):
        if m < 1:
            raise ConfigurationError("need at least one step")
        pi = cls(np.linspace(0.0, t, m + 1))
        object.__setattr__(pi, "_step", t / m)
        return pi

    @classmethod
    def dyadic(cls, t, level):
        return cls.uniform(t, 2 ** level)

    @property
    def endpoint(self):
        return float(self.times[-1])

    @property
    def mesh(self):
        return float(np.max(self.gaps, initial=0.0))

    @property
    def gaps(self):
        if self._step is not None:
            return np.full(self.times.size - 1, self._step)
        return np.diff(self.times)

    def refines(self, other):
        """True if this partition contains every time of ``other``."""
        return np.all(np.isin(other.times, self.times))


def envelope_step(family, h, u):
    """One-step envelope: pointwise max over members of S_member(h) u."""
    if h == 0.0:
        family.check(h, u)
        return u
    return u.with_values(np.max(family.apply_all(h, u), axis=0))


def envelope_step_argmax(family, h, u):
    """One-step envelope together with the per-point maximizing member index.

    Ties resolve to the lowest index (np.argmax keeps the first maximum).
    """
    stacked = family.apply_all(h, u)
    idx = np.argmax(stacked, axis=0)
    return u.with_values(stacked[idx, np.arange(stacked.shape[1])]), idx


def partition_apply(family, pi, u):
    """Compose the one-step envelope over the gaps of a partition.

    Right-to-left composition after the family's check; {0} returns u.
    """
    family.check(pi.endpoint, u)
    v = u
    for h in pi.gaps[::-1]:
        v = envelope_step(family, h, v)
    return v


@dataclass
class NisioResult:
    """Dyadic refinement of the envelope value.

    ``levels[n]`` holds the iterate on the 2^n-step uniform partition;
    ``diffs[n]`` the weighted norm of ``levels[n+1] - levels[n]``.
    """

    value: GridFunction
    levels: list
    diffs: list
    converged: bool

    @property
    def final_level(self):
        return len(self.levels) - 1


def check_applies(family, work, steps, need="need up to"):
    """Reject ``work``, ``steps`` envelope steps over the family's K members,
    whose steps * K member applies pass ``MAX_MEMBER_APPLIES``, before any
    step; every schedule checks its own steps here before it states them."""
    applies = steps * len(family)
    if applies > MAX_MEMBER_APPLIES:
        raise InvalidInputError(
            f"{work} with {len(family)} members {need} {applies} member applies, "
            f"above the budget of {MAX_MEMBER_APPLIES}")


def check_levels(family, max_level):
    """Reject a refinement below level 1 or past ``MAX_MEMBER_APPLIES``."""
    if max_level < 1:
        raise InvalidInputError("max_level must be >= 1")
    check_applies(family, f"max_level {max_level}", 2 ** (max_level + 1) - 1, "needs up to")


def refine_levels(levels, tol):
    """The dyadic refinement's stop rule over ``levels``, an iterable of the
    iterates from level 0 up, read lazily: stop at the first level whose
    weighted-norm difference from the one before is ``<= tol``."""
    levels = iter(levels)
    kept, diffs = [next(levels)], []
    for v in levels:
        diffs.append(weighted_norm(v.with_values(v.values - kept[-1].values)))
        kept.append(v)
        if diffs[-1] <= tol:
            return NisioResult(v, kept, diffs, True)
    return NisioResult(kept[-1], kept, diffs, False)


def dyadic_partitions(t, max_level):
    """The dyadic partitions of [0, t] at levels 0..``max_level``: the levels
    of ``nisio_value``, and of ``property_suite``'s refinements."""
    return (Partition.dyadic(t, level) for level in range(max_level + 1))


def dyadic_steps(family, t, max_level):
    """Envelope steps per duration of ``nisio_value``'s refinement of t
    through ``max_level``, after ``check_levels``: 2^l steps of t / 2^l at
    level l, the gaps of ``Partition.dyadic``.  An upper bound, since the
    stop rule may end the refinement early; none at t = 0."""
    check_levels(family, max_level)
    steps = Counter()
    if t != 0.0:
        for level in range(max_level + 1):
            steps[t / 2 ** level] += 2 ** level
    return steps


def nisio_value(family, t, u, max_level=12, tol=1e-6):
    """Envelope value S(t)u by dyadic partition refinement.

    Refines until the successive weighted-norm difference drops below
    ``tol`` or ``max_level`` is reached; non-convergence is reported through
    the flag, not raised.  A ``max_level`` whose worst case exceeds
    ``MAX_MEMBER_APPLIES`` member applies is rejected before any work.
    """
    if not tol > 0.0:
        raise InvalidInputError("tol must be positive")
    check_levels(family, max_level)
    family.check(t, u)
    if t == 0.0:
        return NisioResult(u, [u], [], True)
    return refine_levels((partition_apply(family, pi, u)
                          for pi in dyadic_partitions(t, max_level)), tol)


def dpp_check(family, s, t, u, max_level=12, tol=1e-6, window=None):
    """Dynamic-programming defect: || S(s+t)u - S(s) S(t) u || in the weighted norm.

    Reported, not asserted.  ``window`` restricts the norm to a mask of grid
    points (useful to keep boundary-layer artifacts out of the comparison).
    ``s``, ``t`` and ``u`` pass the family's check before a zero defect.
    """
    family.check(s, u)
    family.check(t, u)
    if s == 0.0 or t == 0.0:
        return {"defect": 0.0}
    joint = nisio_value(family, s + t, u, max_level, tol)
    inner = nisio_value(family, t, u, max_level, tol)
    outer = nisio_value(family, s, inner.value, max_level, tol)
    diff = joint.value.with_values(joint.value.values - outer.value.values)
    return {"defect": weighted_norm(diff, window=window)}


def domination_slack(family, value, stack):
    """min over members k and points of kappa * (value - stack[k]), where
    ``stack`` is the member stack ``family.apply_all(t, u)``."""
    kappa = family.grid.kappa
    return min(np.inf, *(float(np.min((value.values - row) * kappa)) for row in stack))


def upper_bound_check(family, t, u, max_level=12, tol=1e-6):
    """Least-upper-bound slack: min over members and points of S(t)u - S_member(t)u.

    The gap is weighted by kappa so the slack is commensurate with the
    composition tolerance eps_q (which is measured in the weighted norm).
    """
    res = nisio_value(family, t, u, max_level, tol)
    slack = domination_slack(family, res.value, family.apply_all(t, u))
    return {"min_slack": slack, "result": res}


def quadrature_tolerance(family):
    """Measured composition defect of the discretized members.

    Maximum over members of ``member.composition_defect()``: over probe
    functions {1, x, sin x} and two splittings of t_ref = 0.1, the largest
    || S(h1) S(h2) u - S(h1+h2) u ||  in the weighted norm.  Floored at 1e-12
    to absorb plain floating-point noise.  This is the only inexactness the
    envelope inherits, so every inequality check reads its slack tolerance
    from here.  Each member measures its defect once, one member at a time,
    and keeps only the float: the kernels at 0.1, 0.05, 0.025 and 0.075 are
    built on a scratch twin of the member and never enter its store, so a
    later call builds and applies nothing.
    """
    return max(1e-12, *(member.composition_defect() for member in family))
