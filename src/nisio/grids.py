"""Discretized state spaces, sampled functions, and the norms used throughout.

A :class:`WeightedGrid` is a finite state space together with a strictly
positive bounded weight ``kappa``.  Four flavours are supported:

* ``uniform``   -- 1D grid with constant spacing (optionally periodic),
* ``log``       -- sign-glued grid, uniform in ``log|x|``, with 0 as an
                   isolated fixed point (for multiplicative dynamics),
* ``labels``    -- finite label set carrying the discrete metric (chains),
* ``tensor``    -- small 2D tensor grid (flattened, row-major).

Functions live on grids as :class:`GridFunction` (one value per point).
The two functionals every module relies on are :func:`weighted_norm`
(sup of ``kappa * |u|``) and :func:`lip_seminorm` (discrete Lipschitz
constant w.r.t. the grid metric).

Point lookup (:meth:`WeightedGrid.nearest_index`,
:meth:`WeightedGrid.interp_weights`) is O(1) per state on ``uniform`` and
``periodic`` grids: an arithmetic floor of ``(x - points[0]) / spacing``,
corrected by at most one step against the stored points, which gives
exactly the bracket a binary search would.  ``log`` grids use binary
search.  ``nearest_index`` breaks ties to the left neighbour (an exact
midpoint maps to the lower index, unlike round-half-to-even), is
non-decreasing in the state, maps states beyond the grid to the end nodes
and rejects NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, InvalidInputError, UndefinedSeminormError

BOUNDARY_POLICIES = ("renormalize", "reflect")
# largest deviation of a uniform grid's points from points[0] + spacing * k,
# as a fraction of spacing
_UNIFORM_RTOL = 1e-6


def _as_weight(kappa, points):
    if kappa is None:
        return np.ones(len(points))
    if callable(kappa):
        out = np.asarray(kappa(points), dtype=float)
        if out.ndim > 1:
            out = out.reshape(len(points))
        return out
    out = np.asarray(kappa, dtype=float)
    if out.shape != (len(points),):
        raise ConfigurationError(f"kappa has shape {out.shape}, expected ({len(points)},)")
    return out


@dataclass(frozen=True)
class WeightedGrid:
    """Finite state space with per-point weights and a metric.

    ``points`` is ``(N,)`` for 1D kinds and ``(N, 2)`` for tensor grids.
    ``spacing`` is the mesh width (log-spacing for ``log`` grids, per-axis
    tuple for tensor grids, 1 for labels).
    """

    points: np.ndarray
    kappa: np.ndarray
    kind: str = "uniform"
    boundary: str = "renormalize"
    spacing: float | tuple = 1.0
    shape: tuple = field(default=())

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        kap = np.asarray(self.kappa, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "kappa", kap)
        if self.boundary not in BOUNDARY_POLICIES:
            raise ConfigurationError(f"unknown boundary policy {self.boundary!r}")
        if len(pts) == 0:
            raise ConfigurationError("empty grid")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("grid points must be finite")
        if not (np.all(kap > 0.0) and np.all(np.isfinite(kap))):
            raise ConfigurationError("kappa must be strictly positive and bounded")
        if self.kind in ("uniform", "periodic", "log") and pts.ndim == 1:
            if len(pts) > 1 and not np.all(np.diff(pts) > 0.0):
                raise ConfigurationError("grid points must be strictly increasing")
        if self.kind in ("uniform", "periodic") and pts.ndim == 1:
            # the O(1) lookup relies on points[k] == points[0] + k * spacing
            ideal = pts[0] + self.spacing * np.arange(len(pts))
            if np.max(np.abs(pts - ideal)) > _UNIFORM_RTOL * self.spacing:
                raise ConfigurationError(
                    "uniform grid points must be points[0] + spacing * k")
        self.points.setflags(write=False)
        self.kappa.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, lo, hi, dx, kappa=None, boundary="renormalize", periodic=False):
        """Uniform 1D grid over [lo, hi] with spacing dx.

        Periodic grids cover [lo, hi) so that hi is identified with lo.
        """
        if dx <= 0.0:
            raise ConfigurationError("dx must be positive")
        n = int(round((hi - lo) / dx))
        if abs(lo + n * dx - hi) > 1e-9 * max(1.0, abs(hi)):
            raise ConfigurationError("dx must divide the domain length")
        pts = lo + dx * np.arange(n if periodic else n + 1)
        kind = "periodic" if periodic else "uniform"
        return cls(pts, _as_weight(kappa, pts), kind=kind, boundary=boundary, spacing=dx)

    @classmethod
    def loggrid(cls, x_max, x_min_mag, n_per_side, kappa=None, boundary="renormalize"):
        """Sign-glued grid, uniform in log|x|, covering ±[x_min_mag, x_max] and 0."""
        if not (0.0 < x_min_mag < x_max):
            raise ConfigurationError("need 0 < x_min_mag < x_max")
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

    @classmethod
    def tensor(cls, lo, hi, n, kappa=None, boundary="renormalize"):
        """2D tensor grid over [lo0,hi0] x [lo1,hi1], n points per axis, row-major."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        n = np.broadcast_to(np.asarray(n, dtype=int), (2,))
        axes = [np.linspace(lo[k], hi[k], n[k]) for k in range(2)]
        dx = tuple((hi[k] - lo[k]) / (n[k] - 1) for k in range(2))
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        if kappa is None:
            kap = np.ones(len(pts))
        elif callable(kappa):
            kap = np.asarray(kappa(pts[:, 0], pts[:, 1]), dtype=float)
        else:
            kap = np.asarray(kappa, dtype=float)
        return cls(pts, kap, kind="tensor", boundary=boundary, spacing=dx,
                   shape=(int(n[0]), int(n[1])))

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
        """Boolean mask of points inside [lo, hi] (per-coordinate for tensor grids)."""
        if self.points.ndim == 1:
            m = np.ones(self.size, dtype=bool)
            if lo is not None:
                m &= self.points >= lo
            if hi is not None:
                m &= self.points <= hi
            return m
        m = np.ones(self.size, dtype=bool)
        if lo is not None:
            m &= np.all(self.points >= np.asarray(lo), axis=1)
        if hi is not None:
            m &= np.all(self.points <= np.asarray(hi), axis=1)
        return m

    def _bracket(self, x):
        """Left bracket index j in [0, N-2] with points[j] <= x < points[j+1],
        i.e. ``searchsorted(points, x, side="right") - 1`` clipped.

        O(1) per state on uniform and periodic grids: the arithmetic floor is
        off by at most one step, which one comparison per side corrects.
        The arithmetic runs in place to spare temporaries on large batches."""
        pts = self.points
        last = pts.size - 2
        if self.kind not in ("uniform", "periodic"):
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
        wrap here: states past the last node map to it, not to node 0."""
        x = _reject_nan(x)
        if self.kind == "labels":
            # clip the float before the cast so that +-inf cannot overflow
            return np.clip(np.ceil(x - 0.5), 0, self.size - 1).astype(np.intp)
        if self.points.ndim != 1:
            raise ConfigurationError("nearest_index implemented for 1D grids only")
        if self.size == 1:
            return np.zeros(x.shape, dtype=np.intp)
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
        if self.points.ndim != 1:
            raise ConfigurationError("interp_weights implemented for 1D grids only")
        if self.size < 2:
            raise ConfigurationError("interp_weights needs at least two points")
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

    Adjacent differences over spacing for 1D grids (wrap pair included on
    periodic grids), max over both axes for tensor grids, and
    ``(max - min)`` under the discrete metric on label sets.
    """
    g = u.grid
    v = u.values
    if g.size < 2:
        raise UndefinedSeminormError("Lipschitz seminorm needs at least two points")
    if g.kind == "labels":
        return float(np.max(v) - np.min(v))
    if g.kind == "tensor":
        arr = v.reshape(g.shape)
        dx0, dx1 = g.spacing
        c0 = np.max(np.abs(np.diff(arr, axis=0))) / dx0 if g.shape[0] > 1 else 0.0
        c1 = np.max(np.abs(np.diff(arr, axis=1))) / dx1 if g.shape[1] > 1 else 0.0
        return float(max(c0, c1))
    gaps = np.diff(g.points)
    best = np.max(np.abs(np.diff(v)) / gaps)
    if g.kind == "periodic":
        best = max(best, abs(v[0] - v[-1]) / g.spacing)
    return float(best)
