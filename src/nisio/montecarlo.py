"""Monte Carlo realization of the envelope value under a fixed policy.

Paths follow the policy stage by stage: the member driving each path over a
stage is looked up at the nearest grid point of the current state, and the
member's own ``path_step`` samples the stage transition exactly (Gaussian
increments for heat and OU members, lognormal ones for GBM members, the
deterministic flow for Koopman members, a uniformization jump chain for
chains; a scaled member samples its base over the dilated
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

The normals are drawn ahead by a two-thread pool that starts on the run's
first draw.  While the stage loop runs its arithmetic, the two threads fill
consecutive segments of the spec's one Philox stream at once, into a small
ring of buffers, and the member steps read them in order through a stream object with the generator's
``standard_normal(size)``.  Philox is counter-based, so the generator of a
segment is a fresh one advanced to the segment's first raw word.  Numpy's
ziggurat reads one raw word per normal, or a few, so a segment's first words
may lie inside a normal of the one before; each segment records where its
first normals start, and where the normals past its end start, and the reader
passes from one segment to the next at a start both recorded, once the
normals both drew from there agree bit for bit.  When they share no start, or
disagree, the next segment is drawn again from the end of the one before.
Either way the stream is the generator's, draw for draw.  A run whose steps
draw nothing (Koopman flows, OU members with zero variance) starts no thread
and allocates no ring.  A run on a label grid keeps the plain generator: only
chain members (or scaled ones) live there, and a chain step draws Poisson and
uniform numbers.  No thread outlives the run.
"""

from __future__ import annotations

import math
import threading
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
# whole-batch stages, while it evaluates u: about 1 GiB at 2^26.  Its sampler
# peaks at 18.1, of which 2.0 are the normals ring's fixed 2.0 MiB: four
# buffers of a segment's 66,980 normals at most, plus 24 drawn past its end.
# The two-thread pool that fills the ring starts on the run's first draw; a
# run whose steps draw nothing starts no thread and allocates no ring.  A
# per-path stage looks its paths up in blocks and peaks at 27.3 B per path
# (25.2 without the ring); only the second stage on can take that route, so
# at most 2^25 paths: about 0.8 GiB
MAX_PATH_STAGES = 2 ** 26
# the largest seed: Philox keys are 128-bit
SEED_MAX = 2 ** 128 - 1
# paths mc_value evaluates u at, and a per-path stage looks up, per block, so
# their temporaries stay a few MiB whatever n_paths is
_EVAL_BLOCK = 2 ** 16
# the normals stream's segments: about _NORMALS_CHUNK normals each, over a
# whole number of 4-word Philox blocks, _WORDS_PER_NORMAL raw words per normal
# being numpy's ziggurat's mean (1.0219 over 1e7 normals), so 66,980 words;
# two threads fill them into a ring of four buffers of 67,004 normals, 2.0
# MiB: one read, one waiting for its splice, two filling
_NORMALS_CHUNK = 2 ** 16
_WORDS_PER_NORMAL = 1.022
_NORMALS_THREADS = 2
_NORMALS_RING = 4
# normals whose starts a fresh segment records, raw words past its end whose
# normals' starts it records, and normals it draws past those for the check
# at the splice (24 normals past its end in all).  Over 20 README-sized
# streams, some 19,500 splices, windows of 8 always shared a start and
# windows of 4 missed once; a splice that finds none, or whose normals
# differ, draws the next segment again from the end of the one before
_HEAD = 8
_TAIL = 8
_OVERLAP = 16


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


def _position(state):
    """Raw Philox words read before the next one, from a Philox ``state``:
    a fresh generator, or one just advanced, holds no buffered block."""
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def _draw(gen, buf, n, k):
    """Draw ``k`` normals into ``buf[n:n + k]``; return the raw word each
    starts at and the word after them.  When the draw read one word per
    normal those starts follow at once; otherwise ``gen`` goes back and
    draws the ``k`` again one at a time."""
    bits = gen.bit_generator
    state = bits.state
    pos = _position(state)
    gen.standard_normal(out=buf[n:n + k])
    after = _position(bits.state)
    if after == pos + k:
        return list(range(pos, after)), after
    bits.state = state
    starts = []
    for i in range(n, n + k):
        starts.append(pos)
        gen.standard_normal(out=buf[i:i + 1])
        pos = _position(bits.state)
    return starts, pos


@dataclass
class _Segment:
    """``buf[:n]``, the normals ``gen`` drew for a segment ending at raw word
    ``end``.  ``head`` and ``tail`` map a raw word to the index of the normal
    that starts there: the first normals of a fresh segment, and those from
    ``end`` on; the normals before ``j0`` start before ``end``."""

    buf: np.ndarray
    n: int
    gen: object
    end: int
    head: dict
    tail: dict
    j0: int


class _NormalStream:
    """``rng().standard_normal(size)`` draw for draw, drawn ahead by two
    threads that fill consecutive segments of the one Philox stream.

    Segment s parses the raw words from ``s * W`` on with a fresh ``rng()``
    advanced ``s * W / 4`` blocks, and draws on past its end, ``(s + 1) * W``,
    by ``_TAIL`` words and ``_OVERLAP`` normals.  Numpy's ziggurat reads one
    raw word per normal, or a few, and a normal is a function of the words
    from its start on; so two parses that start a normal at one word agree
    from there on.  The segments record where their first ``_HEAD`` normals
    start, and where those from their end on start; the reader passes from
    segment s to segment s + 1 at the first start both recorded, once the
    normals both drew from it agree bit for bit.  Segment 0 starts at word 0,
    a true start, so every such splice is one too.  When no start is shared,
    or the normals differ, segment s + 1 is drawn again by going on with
    segment s's generator, in the calling thread.

    The first draw starts the pool and submits one segment per buffer of a
    ring, allocated by the calling thread (buffers made on the pool's
    threads stay in their malloc arenas and raise the peak RSS); each
    segment read goes back as the next one.  A failed fill raises in the
    caller at its segment.  A stream never drawn from starts no thread and
    allocates no ring; ``close`` (or leaving its ``with``) cancels the fills
    not yet begun and joins the threads."""

    def __init__(self, rng, total):
        self._rng = rng
        self._words = 4 * math.ceil(_WORDS_PER_NORMAL * _NORMALS_CHUNK / 4)
        self._left = total          # normals not yet read
        # the reader enters a segment at most _HEAD normals in, and never
        # needs more than ``total`` past that
        self._size = min(self._words + _TAIL + _OVERLAP, total + _HEAD)
        self._pool = None
        self._fills = deque()       # futures of _Segment, in stream order
        self._end = 0               # end of the last segment submitted
        self._chunks = self._spliced()
        self._chunk = np.empty(0)
        self._pos = 0

    def _fill(self, buf, end, gen=None, pos=0):
        """The segment ending at raw word ``end``, drawn into ``buf``: by a
        fresh generator from ``end - W`` on, or going on with ``gen`` from
        word ``pos``.  It stops early once ``buf`` is full."""
        head, n, size = {}, 0, buf.size
        if gen is None:
            gen = self._rng()
            pos = end - self._words
            gen.bit_generator.advance(pos // 4)
            if pos:
                starts, pos = _draw(gen, buf, 0, min(_HEAD, size))
                n = len(starts)
                head = {p: i for i, p in enumerate(starts)}
                head[pos] = n
        j0 = None
        # bulk draws that stop short of ``end``, four standard deviations of
        # the words they read below it, until at most _TAIL words are left
        while n < size and end - pos > _TAIL:
            r = end - pos
            k = min(size - n, max(1, int((r - 0.8 * math.sqrt(r)) / _WORDS_PER_NORMAL)))
            gen.standard_normal(out=buf[n:n + k])
            after = _position(gen.bit_generator.state)
            if after > end and j0 is None:
                j0 = n + 1          # only the draw's first normal surely starts before
            n, pos = n + k, after
        starts, pos = _draw(gen, buf, n, min(size - n, max(1, end + _TAIL - pos)))
        if j0 is None:
            j0 = n + sum(p < end for p in starts)
        tail = {p: n + i for i, p in enumerate(starts) if p >= end}
        n += len(starts)
        k = min(size - n, _OVERLAP)
        gen.standard_normal(out=buf[n:n + k])
        return _Segment(buf, n + k, gen, end, head, tail, j0)

    def _submit(self, buf):
        self._end += self._words
        self._fills.append(self._pool.submit(self._fill, buf, self._end))

    def _splice(self, seg, i, nxt):
        """``(j, k, nxt)``: the stream reads ``seg.buf[i:j]``, then
        ``nxt.buf[k:]`` of the returned ``nxt``."""
        for p, j in seg.tail.items():
            k = nxt.head.get(p)
            if k is not None and j >= i:
                m = min(seg.n - j, nxt.n - k)
                if seg.buf[j:j + m].tobytes() == nxt.buf[k:k + m].tobytes():
                    return j, k, nxt
                break
        pos = _position(seg.gen.bit_generator.state)
        return seg.n, 0, self._fill(nxt.buf, nxt.end, seg.gen, pos)

    def _spliced(self):
        """The stream's normals, as views of the segments' buffers in order."""
        self._pool = ThreadPoolExecutor(
            _NORMALS_THREADS, thread_name_prefix="nisio-normals",
            # each thread waits for the other before its first fill, so a
            # run that draws starts both, however short its fills
            initializer=threading.Barrier(_NORMALS_THREADS).wait)
        for buf in [np.empty(self._size) for _ in range(_NORMALS_RING)]:
            self._submit(buf)
        seg, i = self._fills.popleft().result(), 0
        while True:
            yield seg.buf[i:seg.j0]
            i = max(i, seg.j0)
            j, k, nxt = self._splice(seg, i, self._fills.popleft().result())
            yield seg.buf[i:j]
            self._submit(seg.buf)   # read: the generator resumes only for more
            seg, i = nxt, k

    def standard_normal(self, size):
        if size > self._left:
            raise RuntimeError("normal stream exhausted")
        self._left -= size
        out = np.empty(size)
        done = 0
        while done < size:
            if self._pos == self._chunk.size:
                self._chunk, self._pos = next(self._chunks), 0
            k = min(size - done, self._chunk.size - self._pos)
            out[done:done + k] = self._chunk[self._pos:self._pos + k]
            done += k
            self._pos += k
        return out

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
        # the generator's frame holds the stream: drop the ring now, not at
        # the next garbage collection
        self._chunks.close()
        self._fills.clear()
        self._chunk = np.empty(0)

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
    # a label grid holds only chain members, which draw more than normals
    with (nullcontext(spec.rng()) if grid.kind == "labels"
          else _NormalStream(spec.rng, spec.n_paths * spec.policy.n_stages)) as rng:
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
