"""Discretized state spaces, sampled functions, and the norms used throughout.

A :class:`WeightedGrid` is a finite 1D state space of at least two points
together with a strictly positive bounded weight ``kappa``.  Three flavours
are supported:

* ``uniform``   -- grid with constant spacing (optionally periodic),
* ``log``       -- sign-glued grid, uniform in ``log|x|``, with 0 as an
                   isolated fixed point (for multiplicative dynamics),
* ``labels``    -- finite label set carrying the discrete metric (chains).

Functions live on grids as :class:`GridFunction` (one value per point).
The two functionals every module relies on are :func:`weighted_norm`
(sup of ``kappa * |u|``) and :func:`lip_seminorm` (discrete Lipschitz
constant w.r.t. the grid metric).

Point lookup (:meth:`WeightedGrid.nearest_index`,
:meth:`WeightedGrid.interp_weights`) is O(1) per state on ``uniform``,
``periodic`` and ``labels`` grids: an arithmetic floor of
``(x - points[0]) / spacing``, corrected by at most one step against the
stored points, which gives exactly the bracket a binary search would.
``log`` grids use binary search.  ``nearest_index`` breaks ties to the left
neighbour (an exact midpoint maps to the lower index, unlike
round-half-to-even), is non-decreasing in the state, maps states beyond the
grid to the end nodes and rejects NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InvalidInputError

# the boundary rules each kind admits, its default first: a periodic grid
# wraps, labels have no ends
BOUNDARIES = {"uniform": ("renormalize", "reflect"), "log": ("renormalize", "reflect"),
              "periodic": ("wrap",), "labels": ("renormalize",)}
# largest deviation of a uniform grid's points from points[0] + spacing * k,
# as a fraction of spacing
_UNIFORM_RTOL = 1e-6


def _as_weight(kappa, points):
    if kappa is None:
        return np.ones(len(points))
    if callable(kappa):
        return kappa(points)
    return kappa


@dataclass(frozen=True)
class WeightedGrid:
    """Finite state space with per-point weights and a metric.

    ``points`` has shape ``(N,)`` with N >= 2.  ``spacing`` is the mesh width
    (log-spacing for ``log`` grids, 1 for labels).  ``boundary`` is a rule
    ``BOUNDARIES`` admits for the kind; None takes the kind's default.
    """

    points: np.ndarray
    kappa: np.ndarray
    kind: str = "uniform"
    boundary: str | None = None
    spacing: float = 1.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        kap = np.asarray(self.kappa, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "kappa", kap)
        if self.kind not in BOUNDARIES:
            raise ConfigurationError(f"unknown grid kind {self.kind!r}")
        allowed = BOUNDARIES[self.kind]
        if self.boundary is None:
            object.__setattr__(self, "boundary", allowed[0])
        if self.boundary not in allowed:
            raise ConfigurationError(f"a {self.kind} grid takes boundary "
                                     f"{' or '.join(allowed)}, not {self.boundary!r}")
        if pts.ndim != 1:
            raise ConfigurationError(f"grid points must be 1D, got shape {pts.shape}")
        if len(pts) < 2:
            # one point has no room to move: every lookup, kernel, seminorm
            # and probe relies on two
            raise ConfigurationError(
                f"a {self.kind} grid needs at least two points, got {len(pts)}")
        if kap.shape != (len(pts),):
            raise ConfigurationError(f"kappa has shape {kap.shape}, expected ({len(pts)},)")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("grid points must be finite")
        if not (np.all(kap > 0.0) and np.all(np.isfinite(kap))):
            raise ConfigurationError("kappa must be strictly positive and bounded")
        if self.kind in ("uniform", "periodic", "log") and not np.all(np.diff(pts) > 0.0):
            raise ConfigurationError("grid points must be strictly increasing")
        if self.kind in ("uniform", "periodic"):
            # the O(1) lookup relies on points[k] == points[0] + k * spacing
            ideal = pts[0] + self.spacing * np.arange(len(pts))
            if np.max(np.abs(pts - ideal)) > _UNIFORM_RTOL * self.spacing:
                raise ConfigurationError(
                    "uniform grid points must be points[0] + spacing * k")
        if self.kind == "labels" and not (
                self.spacing == 1.0 and np.array_equal(pts, np.arange(len(pts)))):
            # so does it on labels, and chain members read a label as its index
            raise ConfigurationError("label grid points must be 0, 1, ..., n-1")
        self.points.setflags(write=False)
        self.kappa.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, lo, hi, dx, kappa=None, boundary=None, periodic=False):
        """Uniform 1D grid over [lo, hi] with spacing dx.

        Periodic grids cover [lo, hi) so that hi is identified with lo, and wrap.
        """
        if not dx > 0.0:
            raise ConfigurationError("dx must be positive")
        n = int(round((hi - lo) / dx))
        if abs(lo + n * dx - hi) > 1e-9 * max(1.0, abs(hi)):
            raise ConfigurationError("dx must divide the domain length")
        pts = lo + dx * np.arange(n if periodic else n + 1)
        kind = "periodic" if periodic else "uniform"
        return cls(pts, _as_weight(kappa, pts), kind=kind, boundary=boundary, spacing=dx)

    @classmethod
    def loggrid(cls, x_max, x_min_mag, n_per_side, kappa=None, boundary=None):
        """Sign-glued grid, uniform in log|x|, covering ±[x_min_mag, x_max] and 0."""
        if not (0.0 < x_min_mag < x_max):
            raise ConfigurationError("need 0 < x_min_mag < x_max")
        if n_per_side < 2:
            raise ConfigurationError("log grid needs at least 2 points per side")
        s = np.linspace(np.log(x_min_mag), np.log(x_max), n_per_side)
        pos = np.exp(s)
        pts = np.concatenate([-pos[::-1], [0.0], pos])
        ds = s[1] - s[0]
        return cls(pts, _as_weight(kappa, pts), kind="log", boundary=boundary, spacing=ds)

    @classmethod
    def labels(cls, n, kappa=None):
        """Finite label set {0, ..., n-1} with the discrete metric."""
        pts = np.arange(n, dtype=float)
        return cls(pts, _as_weight(kappa, pts), kind="labels", spacing=1.0)

    # -- queries -----------------------------------------------------------

    @property
    def size(self):
        return len(self.points)

    @property
    def period(self):
        if self.kind != "periodic":
            raise ConfigurationError("period only defined for periodic grids")
        return self.spacing * self.size

    def window_mask(self, lo=None, hi=None):
        """Boolean mask of points inside [lo, hi]."""
        m = np.ones(self.size, dtype=bool)
        if lo is not None:
            m &= self.points >= lo
        if hi is not None:
            m &= self.points <= hi
        return m

    def _bracket(self, x):
        """Left bracket index j in [0, N-2] with points[j] <= x < points[j+1],
        i.e. ``searchsorted(points, x, side="right") - 1`` clipped.

        O(1) per state on every kind but log: the arithmetic floor is off by
        at most one step, which one comparison per side corrects.  The
        arithmetic runs in place to spare temporaries on large batches."""
        pts = self.points
        last = pts.size - 2
        if self.kind == "log":
            return np.clip(np.searchsorted(pts, x, side="right") - 1, 0, last)
        with np.errstate(over="ignore"):
            q = np.subtract(x, pts[0], out=np.empty_like(x))
            q /= self.spacing
        # clip the float before the cast so that +-inf cannot overflow
        j = np.clip(q, 0, last, out=q).astype(np.intp)
        j -= x < pts.take(j)
        j += x >= pts[1:].take(j)            # pts[1:].take(j) == pts[j + 1]
        return np.clip(j, 0, last, out=j)

    def nearest_index(self, x):
        """Index of the nearest grid point; ties resolve to the left neighbour.

        States beyond the grid map to the end nodes; NaN raises
        :class:`InvalidInputError`.  The index is non-decreasing in ``x`` on
        every 1D kind, so the nodes a batch of states can reach lie between
        the lookups of its smallest and largest state (the Monte Carlo
        sampler relies on this).  For that reason a periodic grid does not
        wrap here.  Its clamp is still the nearest node on the circle for
        states inside the node-centred period ``[points[0] - dx/2,
        points[0] - dx/2 + period)``, where the sampler keeps its paths."""
        x = _reject_nan(x)
        j = self._bracket(x)
        left = self.points.take(j)
        right = self.points[1:].take(j)
        # strict inequality: midpoint goes to the left point
        j += (x - left) > (right - x)
        return j

    def interp_weights(self, x):
        """Monotone linear interpolation with constant extrapolation.

        Returns (j, theta): value at x is (1-theta) u[j] + theta u[j+1 mod N].
        Periodic grids wrap finite x into the period instead; j = N-1 is the
        cell from the last node to node 0.
        """
        x = _reject_nan(x)
        pts = self.points
        if self.kind == "periodic":
            if not np.isfinite(x).all():
                raise InvalidInputError("states on a periodic grid must be finite")
            x = pts[0] + np.mod(x - pts[0], self.period)
            j = self._bracket(x) + (x >= pts[-1])    # j = N-1 closes on node 0
            pts = np.append(pts, pts[0] + self.period)
        else:
            x = np.clip(x, pts[0], pts[-1])
            j = self._bracket(x)
        theta = np.clip((x - pts[j]) / (pts[j + 1] - pts[j]), 0.0, 1.0)
        return j, theta


def _reject_nan(x):
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise InvalidInputError("states must not be NaN")
    return x


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on a grid."""

    values: np.ndarray
    grid: WeightedGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.size,):
            raise InvalidInputError(
                f"values shape {v.shape} does not match grid size {self.grid.size}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("grid function values must be finite")
        self.values.setflags(write=False)

    def with_values(self, values):
        return replace(self, values=values)

    def at(self, x):
        """Value at x: monotone linear interpolation, or the nearest label's."""
        if self.grid.kind == "labels":
            return self.values[self.grid.nearest_index(x)]
        j, theta = self.grid.interp_weights(x)
        return (1.0 - theta) * self.values[j] + theta * self.values.take(j + 1, mode="wrap")


def weighted_norm(u, window=None):
    """Weighted sup norm: max over points of kappa(x) |u(x)|.

    ``window`` restricts the max to a boolean mask of grid points.
    """
    vals = np.abs(u.values) * u.grid.kappa
    if window is not None:
        vals = vals[np.asarray(window, dtype=bool)]
        if vals.size == 0:
            raise InvalidInputError("empty window")
    return float(np.max(vals))


def lip_seminorm(u):
    """Discrete Lipschitz constant of u w.r.t. the grid metric.

    Adjacent differences over their gaps (wrap pair included on periodic
    grids), and ``(max - min)`` under the discrete metric on label sets.
    """
    g = u.grid
    v = u.values
    if g.kind == "labels":
        return float(np.max(v) - np.min(v))
    gaps = np.diff(g.points)
    best = np.max(np.abs(np.diff(v)) / gaps)
    if g.kind == "periodic":
        best = max(best, abs(v[0] - v[-1]) / g.spacing)
    return float(best)
