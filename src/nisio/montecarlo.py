"""Monte Carlo realization of the envelope value under a fixed policy.

Paths follow the policy stage by stage: the member driving each path over a
stage is looked up at the nearest grid point of the current state, and the
member's own ``path_step`` samples the stage transition exactly (Gaussian
increments for heat and 1D OU members, lognormal ones for GBM members, the
deterministic flow for Koopman members, a uniformization jump chain for
conservative chains; a scaled member samples its base over the dilated
duration).  The single-policy expectation is a lower bound for the envelope
value; under the greedy policy it reproduces it.  ``mc_compare`` compares the
sample mean with the policy's grid value, as a greedy backward pass returns it.

A stage first looks up only the smallest and largest state.  The nearest
index is non-decreasing in the state, so every path sits at a node between
those two; when the stage's selector names one member on that whole span,
that member steps the whole batch at once, with no per-path lookup.  Only a
selector that changes inside the span sends the stage through the per-path
lookup and one masked step per member.  Both routes give every path the same
member and draw the same numbers in the same order.  The paths live on the
grid: a periodic grid, a circle, keeps the start and every stage's states in
the node-centred period ``[p0 - dx/2, p0 - dx/2 + period)``, where the
nearest node is the nearest one on the circle; a label grid starts every path
at the label ``nearest_index`` picks for ``x0``, and chain members keep it on
labels; any other grid clips a path that leaves ``[points[0], points[-1]]`` to
that end and counts it.

Each stage makes one bounds pass over the batch after its step: the smallest
and largest state.  That pair serves twice, as the next stage's two-state
lookup and as the test whether any path left the grid (or the period).  Only
when a bound lies outside, or is NaN, does the stage run the elementwise
clip and count (or the periodic wrap) and take the pair again; a stage whose
paths all stay inside touches each path only in its step, its min and its
max.  States inside keep their bits either way, so the stream, the states
and the flagged count are those of a clip after every stage.

The normals are drawn ahead by a one-thread pool that starts on the run's
first draw.  While the stage loop runs its arithmetic, the pool fills a small
ring of buffers from the spec's own Philox generator, and the member steps
read them in order through a stream object with the generator's
``standard_normal(size)``.  Numpy's Philox normals do not depend on how a run
of draws is split into calls, so the stream is the generator's, draw for
draw.  A run whose steps draw nothing (Koopman flows, OU members with zero
variance) starts no thread and allocates no ring.  A run on a label grid keeps
the plain generator: only chain members (or scaled ones) live there, and a
chain step draws Poisson and uniform numbers.  No thread outlives the run.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .control import ControlPolicy, _check_policy
from .errors import InvalidInputError

# path-stages, n_paths x stages, one sampler may draw; above every shipped
# config, demo and test (the README's mc needs 1e6 x 64 = 6.4e7).  The
# largest admitted n_paths, 2^26 over one stage, takes 512 MiB per float64
# path array.  Traced at 2^20 paths, mc_value peaks at 18.5 B per path on
# whole-batch stages, of which 2.5 are the normals ring's fixed 2.5 MiB:
# about 1 GiB at 2^26.  The one-thread pool that fills the ring starts on the
# run's first draw; a run whose steps draw nothing starts no thread and
# allocates no ring.  A per-path stage looks its paths up in blocks and
# peaks at 27.7 B per path (25.2 without the ring); only the second stage on
# can take that route, so at most 2^25 paths: about 0.8 GiB
MAX_PATH_STAGES = 2 ** 26
# the largest seed: Philox keys are 128-bit
SEED_MAX = 2 ** 128 - 1
# paths mc_value evaluates u at, and a per-path stage looks up, per block, so
# their temporaries stay a few MiB whatever n_paths is
_EVAL_BLOCK = 2 ** 16
# normals per buffer of the normals pool's ring, and buffers in the ring; with
# three the pool could not get a stage's arithmetic ahead
_NORMALS_CHUNK = 2 ** 16
_NORMALS_RING = 5


def check_path_stages(n_paths, n_stages):
    """Reject a run of more than ``MAX_PATH_STAGES`` path-stages before any
    path is allocated."""
    if n_paths * n_stages > MAX_PATH_STAGES:
        raise InvalidInputError(
            f"{n_paths} paths over {n_stages} stages need {n_paths * n_stages} "
            f"path-stages, above the budget of {MAX_PATH_STAGES}")


@dataclass(frozen=True)
class SamplerSpec:
    """Family + policy + path budget.

    The policy must fit the family (selector length and member indices), and
    every member a selector uses must admit an exact-increment sampler
    (spectral jump members do not).  The stage step of each such (member,
    stage duration) pair is built here, once.  An error estimate needs at
    least 100 paths, n_paths x stages may not pass ``MAX_PATH_STAGES``, and
    the seed is a Philox key, in [0, ``SEED_MAX``]; all is checked before
    any path is drawn.
    The sampler has no box of its own: the grid's end points, or on a
    periodic grid its node-centred period."""

    family: object
    policy: ControlPolicy
    n_paths: int
    seed: int
    _steps: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_paths < 100:
            raise InvalidInputError("need at least 100 paths for an error estimate")
        check_path_stages(self.n_paths, self.policy.n_stages)
        if not 0 <= self.seed <= SEED_MAX:
            raise InvalidInputError(f"seed {self.seed} is outside [0, 2**128 - 1]")
        _check_policy(self.family, self.policy)
        steps = {}
        for h, sel in self.policy.stages:
            for k in np.unique(sel).tolist():
                if (k, h) not in steps:
                    steps[k, h] = self.family.members[k].path_step(h)
        object.__setattr__(self, "_steps", steps)

    def rng(self):
        return np.random.Generator(np.random.Philox(key=self.seed))


class _NormalStream:
    """``standard_normal(size)`` of ``rng``, drawn ahead by a one-thread pool.

    The first draw starts the pool and submits one fill per buffer of a
    ring, allocated by the calling thread (buffers made on the pool's thread
    stay in its malloc arena and raise the peak RSS); each fill is
    ``rng.standard_normal(out=...)`` of the next chunk, and the fills stop
    at ``total`` normals.  ``standard_normal`` copies the chunks out in
    order, and each chunk read goes back as the next fill.  Philox normals split
    into any chunks are those of one call, so the caller gets ``rng``'s
    draws bit for bit.  A failed fill raises in the caller at its chunk.  A
    stream never drawn from starts no thread and allocates no ring;
    ``close`` (or leaving its ``with``) cancels the fills not yet begun and
    joins the thread."""

    def __init__(self, rng, total):
        self._rng = rng
        self._left = total          # normals not yet submitted
        self._pool = None
        self._fills = deque()       # (buffer, future), in the order submitted
        self._chunk = np.empty(0)
        self._pos = 0

    def _fill(self, buf):
        buf = buf[:self._left]      # the last fill may be short
        if buf.size:
            self._left -= buf.size
            self._fills.append((buf, self._pool.submit(self._rng.standard_normal, out=buf)))

    def standard_normal(self, size):
        out = np.empty(size)
        done = 0
        while done < size:
            if self._pos == self._chunk.size:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(1, thread_name_prefix="nisio-normals")
                    for _ in range(_NORMALS_RING):
                        self._fill(np.empty(min(_NORMALS_CHUNK, self._left)))
                if not self._fills:
                    raise RuntimeError("normal stream exhausted")
                buf, fill = self._fills[0]
                fill.result()       # re-raises a failed fill, on every draw from here
                self._fills.popleft()
                self._fill(self._chunk)     # the chunk just read goes back
                self._chunk, self._pos = buf, 0
            k = min(size - done, self._chunk.size - self._pos)
            out[done:done + k] = self._chunk[self._pos:self._pos + k]
            done += k
            self._pos += k
        return out

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _wrap_into_period(grid, states):
    """Shift states by whole periods into the node-centred period, in place;
    states already inside keep their bits."""
    lo = grid.points[0] - 0.5 * grid.spacing
    out = (states < lo) | (states >= lo + grid.period)
    if np.any(out):
        states[out] = lo + np.mod(states[out] - lo, grid.period)


def _clip_to_ends(grid, states):
    """Clip states beyond ``[points[0], points[-1]]`` to that end, in place;
    returns how many were clipped."""
    lo, hi = grid.points[0], grid.points[-1]
    out = (states < lo) | (states > hi)
    np.clip(states, lo, hi, out=states)
    return int(np.sum(out))


def _member_indices(grid, sel, states):
    """``sel[grid.nearest_index(states)]``, looked up over blocks of
    ``_EVAL_BLOCK`` states into one array."""
    out = np.empty(states.size, dtype=sel.dtype)
    for i in range(0, states.size, _EVAL_BLOCK):
        out[i:i + _EVAL_BLOCK] = sel[grid.nearest_index(states[i:i + _EVAL_BLOCK])]
    return out


def sample_terminal_states(spec, x0):
    """Terminal states of n_paths controlled paths started at x0.

    Returns (states, n_flagged): on a periodic grid the paths stay in the
    node-centred period; elsewhere paths leaving ``[points[0], points[-1]]``
    are clipped to that end and counted.
    """
    grid = spec.family.grid
    periodic = grid.kind == "periodic"
    if grid.kind == "labels":
        # chain members step from labels: start at the nearest label, so
        # that no stage looks a label up again
        x0 = grid.points[grid.nearest_index(float(x0))]
    states = np.full(spec.n_paths, float(x0))
    if periodic:
        lo = grid.points[0] - 0.5 * grid.spacing
        # the period is half-open: its largest state is one ulp below its end
        hi = np.nextafter(lo + grid.period, -np.inf)
        _wrap_into_period(grid, states)
    else:
        lo, hi = grid.points[0], grid.points[-1]
    bounds = [states.min(), states.max()]
    flagged = 0
    rng = spec.rng()
    # a label grid holds only chain members, which draw more than normals
    with (nullcontext(rng) if grid.kind == "labels"
          else _NormalStream(rng, spec.n_paths * spec.policy.n_stages)) as rng:
        for h, sel in spec.policy.stages:
            # nearest_index is monotone: every path's node lies in [j_lo, j_hi]
            j_lo, j_hi = grid.nearest_index(bounds)
            span = sel[j_lo:j_hi + 1]
            if span.min() == span.max():
                states = spec._steps[int(span[0]), h](states, rng)
            else:
                member_idx = _member_indices(grid, sel, states)
                for k in range(len(spec.family)):
                    mask = member_idx == k
                    if np.any(mask):
                        states[mask] = spec._steps[k, h](states[mask], rng)
            bounds = [states.min(), states.max()]
            # written so that a NaN bound also takes the elementwise pass and
            # reaches the next stage's lookup, which rejects it
            if not (lo <= bounds[0] and bounds[1] <= hi):
                if periodic:
                    _wrap_into_period(grid, states)
                else:
                    flagged += _clip_to_ends(grid, states)
                bounds = [states.min(), states.max()]
    return states, flagged


def mc_value(spec, x0, u):
    """Sample mean and standard error of u(X_T) under the policy.

    Reproducible: the counter-based generator is keyed by the seed alone, so
    identical (spec, x0) give bit-identical estimates.  ``u`` passes the
    family's check at the policy's horizon before any path is drawn.
    """
    spec.family.check(spec.policy.horizon, u)
    states, flagged = sample_terminal_states(spec, x0)
    vals = np.empty(states.size)
    for i in range(0, states.size, _EVAL_BLOCK):
        vals[i:i + _EVAL_BLOCK] = u.at(states[i:i + _EVAL_BLOCK])
    est = float(np.mean(vals))
    se = _sample_std(vals) / math.sqrt(spec.n_paths)
    return {"estimate": est, "std_error": se, "n_paths": spec.n_paths,
            "flagged_paths": flagged}


def _sample_std(vals):
    """``np.std(vals, ddof=1)`` by numpy's own ufunc sequence, computed in
    ``vals``' memory (which it overwrites), so that no temporary of its size
    is made."""
    mean = np.mean(vals)
    np.subtract(vals, mean, out=vals)
    np.multiply(vals, vals, out=vals)
    return math.sqrt(np.add.reduce(vals) / (vals.size - 1))


def mc_compare(spec, x0, u, value):
    """Monte Carlo vs the policy's grid value of u, ``value`` (a greedy
    policy's ``GreedyResult.value``), at one state.  ``value`` passes the
    family's check at the policy's horizon before ``mc_value`` runs."""
    spec.family.check(spec.policy.horizon, value)
    mc = mc_value(spec, x0, u)
    grid_val = float(value.at(x0))
    diff = grid_val - mc["estimate"]
    if mc["std_error"] > 0.0:
        z = diff / mc["std_error"]
    else:
        z = 0.0 if abs(diff) <= 1e-12 else math.inf
    return {"mc": mc, "grid": grid_val,
            "z_score": float(z), "flag": bool(abs(z) > 3.0)}
