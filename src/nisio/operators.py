"""Transition operators: the members a semigroup envelope is built from.

Every operator realizes one linear Markov semigroup ``S(t)`` on a grid as a
row-stochastic quadrature matrix (or an FFT multiplier), so that

* ``apply(0, u) == u`` exactly,
* ``apply(t, 1) == 1`` up to rounding: rows are renormalized to sum to one,
  which holds to a few ulps, not bit for bit,
* ``u <= v`` implies ``apply(t, u) <= apply(t, v)`` exactly in floating
  point, because every weight is nonnegative,
* ``apply`` is linear in ``u``.

Each member keeps one kernel per duration (a matrix, or a spectral member's
multiplier) in one store, ``matrix(t)``.  Past ``KERNEL_CACHE_BYTES`` per
member it drops the least recently used durations.  An eviction costs only a
rebuild, to the same bits, never a number.  The store makes composition over a
time partition cheap.  Heat, GBM and 1D OU members build every kernel through
one selector, ``lattice_kernel``: a variance above one cell squared gets
Gaussian weights on the lattice nodes, one at or below it the interpolation
stencil, which keeps the weights nonnegative and the mean exact where Gaussian
quadrature would alias.  Kernel mass past the ends of the lattice is folded
back (``reflect``), wrapped (``wrap``), or dropped with the row renormalized
(``renormalize``).  Every lattice kernel is stored dense when
``8 n^2 <= 12 nnz + 4 (n + 1)`` (no more bytes than CSR), else as canonical
CSR.  A Gaussian kernel whose mean offsets are all zero (every heat member
above one cell, an OU member with B=0 and m=0, a GBM member with
mu = sigma^2/2) is the same band in every row, so it is built by gathers from
that one band; every other kernel goes from its per-row weights straight into
CSR.  ``generator(u)`` evaluates the corresponding infinitesimal generator
with second-order stencils; rows whose stencil leaves the grid are flagged
invalid.  ``path_step(h)`` returns the member's exact-increment sampler over
duration h, for members whose transition law can be drawn exactly.

Importing this module loads ``scipy.sparse`` and ``scipy.special`` only.
``scipy.linalg`` is imported inside the 2D OU code (``OUOperator.moments``
and ``_matrix_2d``), so a run without 2D OU members never loads it; the chain
member's Poisson weights come from ``scipy.special`` rather than
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.special

from .errors import ConfigurationError, InvalidInputError, NumericalDegeneracyError
from .grids import WeightedGrid

# kernel support radius in standard deviations; tail mass beyond is ~1e-23
KERNEL_RADIUS = 10.0
# kernel bytes per member; above every benchmark working set (225 MiB at most),
# because LRU below the working set of a cyclic dyadic sweep loses every hit
KERNEL_CACHE_BYTES = 512 * 2 ** 20


# ---------------------------------------------------------------------------
# lattice kernel builders (shared by heat / GBM / OU)
# ---------------------------------------------------------------------------

def _reflect_indices(j, n):
    """Mirror indices about the end nodes of 0..n-1 (period 2(n-1))."""
    if n == 1:
        return np.zeros_like(j)
    m = 2 * (n - 1)
    j = np.mod(j, m)
    return np.where(j >= n, m - j, j)


def _dense_is_cheaper(n, nnz):
    """The one storage rule: an n x n ndarray takes no more bytes than CSR."""
    return 8 * n * n <= 12 * nnz + 4 * (n + 1)


def _assemble_rows(n, cols_raw, weights, mode):
    """Row-stochastic kernel from per-row weights, straight into CSR or dense.

    cols_raw has shape (n, bandwidth); out-of-range columns are folded back
    (``reflect``), wrapped (``wrap``), or dropped (``renormalize``).  Rows are
    divided by their own sums; folded duplicates and zeros leave the CSR.
    ``weights`` is consumed: it is zeroed and divided in place, so callers
    pass an array they built for this call alone.
    """
    if mode == "reflect":
        cols = _reflect_indices(cols_raw, n)
    elif mode == "wrap":
        cols = np.mod(cols_raw, n)
    elif mode == "renormalize":
        np.copyto(weights, 0.0, where=(cols_raw < 0) | (cols_raw >= n))
        cols = np.clip(cols_raw, 0, n - 1)
    else:
        raise ConfigurationError(f"unknown boundary mode {mode!r}")
    sums = weights.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalDegeneracyError("kernel row lost all mass")
    np.divide(weights, sums[:, None], out=weights)
    mat = sp.csr_matrix((weights.ravel(), cols.ravel(),
                         np.arange(n + 1) * cols.shape[1]), shape=(n, n))
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat.toarray() if _dense_is_cheaper(n, mat.nnz) else mat


def _toeplitz(e, n):
    """Read-only n x n view with entry [i, j] = e[n - 1 + j - i]."""
    return np.lib.stride_tricks.sliding_window_view(e, n)[::-1]


def _band_matrix(n, w, mode):
    """Row-stochastic kernel that puts weight w[k + b] of row i on node i + b.

    ``w`` is a band of length 2k+1.  Every row is the same band shifted along
    the diagonal, so each entry is a gather from it.  For ``reflect`` and
    ``wrap`` the band is folded onto the period P (2(n-1) or n) of the
    boundary map and divided by its sum, W, and
    ``A[i, j] = W[(j-i) mod P] + W[(-j-i) mod P]``, the mirror term for
    ``reflect`` only and not in the end columns (they are their own mirror
    images).  For ``renormalize`` the off-lattice nodes are dropped:
    ``A[i, j] = w[k + j - i] / S_i``, with the row sums S_i read off a
    cumulative sum of w.  Stored by ``_dense_is_cheaper``.
    """
    if n == 1:
        return np.eye(1)
    k = w.size // 2
    rows = np.arange(n)
    lo = np.maximum(rows - k, 0)
    counts = np.minimum(rows + k, n - 1) - lo + 1    # a contiguous run of columns
    if mode == "renormalize":
        csum = np.concatenate(([0.0], np.cumsum(w)))
        first = lo - rows + k                            # band index of column lo
        scale = 1.0 / (csum[first + counts] - csum[first])
    elif mode in ("reflect", "wrap"):
        period = 2 * (n - 1) if mode == "reflect" else n
        total = w.sum()
        folded = np.bincount(np.arange(-k, k + 1) % period, weights=w, minlength=period)
        folded /= total
        wn = w / total
        if w.size >= period:
            counts = np.full(n, n)      # the band covers every column of every row
        elif mode == "wrap":
            counts = np.full(n, w.size)
    else:
        raise ConfigurationError(f"unknown boundary mode {mode!r}")
    nnz = int(counts.sum())

    if _dense_is_cheaper(n, nnz):
        lags = np.arange(-(n - 1), n)
        if mode == "renormalize":
            reach = min(k, n - 1)
            e = np.zeros(2 * n - 1)
            e[n - 1 - reach:n + reach] = w[k - reach:k + reach + 1]
            return _toeplitz(e, n) * scale[:, None]
        mat = np.array(_toeplitz(folded[lags % period], n))
        if mode == "reflect":
            mirror = np.lib.stride_tricks.sliding_window_view(
                folded[-np.arange(2 * n - 1) % period], n)
            mat[:, 1:-1] += mirror[:, 1:-1]
        return mat

    if mode == "wrap":
        # row i holds columns (i + b) mod n in increasing order: the band
        # rotated to start at the offset that lands on the lowest column
        start = np.where(rows < k, k - rows, np.where(rows >= n - k, n - rows + k, 0))
        pos = (np.arange(w.size) + start[:, None]) % w.size
        data = wn[pos].ravel()
        indices = ((pos + (rows - k)[:, None]) % n).ravel()
        return sp.csr_matrix((data, indices, np.arange(n + 1) * w.size), shape=(n, n))

    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.arange(nnz) - np.repeat(indptr[:-1] - lo, counts)
    band_pos = indices - np.repeat(rows - k, counts)
    if mode == "renormalize":
        data = w[band_pos] * np.repeat(scale, counts)
    else:
        # the band does not wrap (2k+1 < P), so W[(j-i) mod P] is w[k+j-i]
        # normalized, and the mirror term reaches only entries with
        # 1 <= i + j <= k (weight W[-(i+j)]) and their images
        # (n-1-i, n-1-j), which sit at the mirrored position of data
        data = wn[band_pos]
        diag, col = np.tril_indices(k)      # i + j = diag + 1, j = col + 1
        pos = indptr[diag - col] + col + 1
        fold = wn[k - 1 - diag]
        data[pos] += fold
        data[nnz - 1 - pos] += fold
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def gaussian_lattice_matrix(n, dx, means_offset, std, mode):
    """Row-stochastic Gaussian kernel on a uniform lattice.

    Row i targets mean ``i*dx + means_offset[i]`` (offsets need not be lattice
    aligned).  Requires ``std > 0``; ``lattice_kernel`` takes the stencil
    instead when the standard deviation is at or below one cell.  The offsets
    pick the path: all zero make a translation-invariant kernel built from one
    band, any other go row by row through ``_assemble_rows``, straight into
    CSR or dense.
    """
    offsets = np.broadcast_to(np.asarray(means_offset, dtype=float), (n,))
    k_half = int(math.ceil(KERNEL_RADIUS * std / dx)) + 1
    band = np.arange(-k_half, k_half + 1, dtype=np.int32)
    if not np.any(offsets):
        return _band_matrix(n, np.exp(-0.5 * (band * dx / std) ** 2), mode)
    # targets far outside the lattice keep their in-domain tail (clamped
    # center); the float is clipped before the cast so it cannot overflow
    rows = np.arange(n)
    center = np.clip(np.rint(offsets / dx) + rows, 0, n - 1).astype(np.int32)
    cols_raw = center[:, None] + band
    # exp(-((col*dx - mean) / std)^2 / 2) in place, in one n x bandwidth array
    weights = cols_raw * dx
    weights -= (rows * dx + offsets)[:, None]
    weights /= std
    np.square(weights, out=weights)
    weights *= -0.5
    np.exp(weights, out=weights)
    return _assemble_rows(n, cols_raw, weights, mode)


def interp_stencil_matrix(n, dx, means_index, var, mode):
    """Sub-cell kernel for arbitrary (non-lattice) target means.

    The mean is placed by monotone linear interpolation between the nodes j
    and j+1 that bracket it (weights 1-theta and theta); the variance is added
    by a centered 3-point stencil [a, 1-2a, a] around each of them, with
    ``2a dx^2 = max(var - theta (1 - theta) dx^2, 0)`` so that the spread of
    the interpolation itself is not counted twice.  Each row therefore has
    nonnegative weights, the exact mean and variance
    ``max(var, theta (1 - theta) dx^2)``.  Requires ``var <= dx^2`` (then
    ``a <= 1/2``), which ``lattice_kernel`` guarantees.  ``means_index`` is
    the target position in index units; one outside [0, n-1] is clamped to
    the end node, and columns past the ends are handled per ``mode``.
    """
    mi = np.clip(np.asarray(means_index, dtype=float), 0.0, n - 1.0)
    j = np.minimum(np.floor(mi).astype(int), n - 2)
    theta = mi - j
    spread = theta * (1.0 - theta) * dx * dx
    a = np.maximum(var - spread, 0.0) / (2.0 * dx * dx)
    cols_raw = j[:, None] + np.array([-1, 0, 1, 2])[None, :]
    weights = np.column_stack([
        (1.0 - theta) * a,
        (1.0 - theta) * (1.0 - 2.0 * a) + theta * a,
        (1.0 - theta) * a + theta * (1.0 - 2.0 * a),
        theta * a,
    ])
    return _assemble_rows(n, cols_raw, weights, mode)


def lattice_kernel(n, dx, means_offset, var, mode):
    """The one kernel of a Gaussian transition on a uniform lattice.

    Row i targets mean ``i*dx + means_offset[i]`` (an array, or one scalar
    for every row) and variance ``var``.  Above one cell squared the Gaussian
    weights resolve the lattice; at or below it Gaussian quadrature aliases,
    and the interpolation stencil matches both moments with nonnegative
    weights instead.  Zero variance and zero offsets give the identity.
    """
    if var > dx * dx:
        return gaussian_lattice_matrix(n, dx, means_offset, math.sqrt(var), mode)
    return interp_stencil_matrix(n, dx, np.arange(n) + means_offset / dx, var, mode)


def _boundary_mode(grid):
    if grid.kind == "periodic":
        return "wrap"
    return grid.boundary


# ---------------------------------------------------------------------------
# generator stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorResult:
    """Generator applied to a grid function; ``valid`` masks usable rows."""

    values: np.ndarray
    valid: np.ndarray
    grid: WeightedGrid

    def norm(self, window=None):
        mask = self.valid.copy()
        if window is not None:
            mask &= np.asarray(window, dtype=bool)
        if not np.any(mask):
            raise InvalidInputError("no valid rows in window")
        return float(np.max(np.abs(self.values[mask]) * self.grid.kappa[mask]))


def _central_d1(v, dx):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    return out

def _central_d2(v, dx):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
    return out

def _interior_mask(n):
    m = np.zeros(n, dtype=bool)
    m[1:-1] = True
    return m


# ---------------------------------------------------------------------------
# operator base
# ---------------------------------------------------------------------------

def _stay(states, rng):
    return states


def _check_duration(t):
    if not np.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"duration must be finite and >= 0, got {t}")


def _nbytes(kernel):
    """Bytes a kernel holds: an ndarray's buffer or a CSR matrix's arrays."""
    if sp.issparse(kernel):
        return kernel.data.nbytes + kernel.indices.nbytes + kernel.indptr.nbytes
    return kernel.nbytes


class TransitionOperator:
    """One member semigroup: a pure map (duration, function) -> function."""

    lipschitz_exact = False
    name = "operator"

    def __init__(self, grid):
        self.grid = grid
        self._cache = {}
        self._held = 0

    def _check(self, t, u):
        _check_duration(t)
        if u.grid is not self.grid and not (
            u.grid.kind == self.grid.kind and np.array_equal(u.grid.points, self.grid.points)
        ):
            raise InvalidInputError("function lives on a different grid")

    def apply(self, t, u):
        """Evaluate S(t)u.  t == 0 returns u unchanged."""
        self._check(t, u)
        if t == 0.0:
            return u
        return u.with_values(self.apply_values(t, u.values))

    def apply_values(self, t, values):
        if t == 0.0:
            return values
        return self.matrix(t) @ values

    def matrix(self, t):
        """The kernel of S(t): a row-stochastic matrix, or a spectral member's
        Fourier multiplier.  Built on the first lookup of t and kept, most
        recent last, under ``KERNEL_CACHE_BYTES``; never evicts its result."""
        kernel = self._cache.pop(t, None)
        if kernel is None:
            _check_duration(t)
            kernel = self._build_matrix(t)
            self._held += _nbytes(kernel)
            while self._held > KERNEL_CACHE_BYTES and self._cache:
                self._held -= _nbytes(self._cache.pop(next(iter(self._cache))))
        self._cache[t] = kernel
        return kernel

    def _build_matrix(self, t):
        raise NotImplementedError

    def generator(self, u):
        raise NotImplementedError

    def path_step(self, h):
        """Exact sampler ``step(states, rng) -> states`` of one transition over
        duration h, with everything that depends on h alone computed here
        once.  A zero duration stays put without drawing."""
        raise ConfigurationError(f"no exact-increment sampler for {self.name}")


class HeatOperator(TransitionOperator):
    """Brownian member with volatility sigma: Gaussian kernel of variance sigma^2 t."""

    def __init__(self, grid, sigma):
        if grid.kind not in ("uniform", "periodic"):
            raise ConfigurationError("heat member needs a uniform grid")
        if sigma < 0.0:
            raise ConfigurationError("sigma must be >= 0")
        super().__init__(grid)
        self.sigma = float(sigma)
        self.name = f"heat(sigma={sigma:g})"
        self.lipschitz_exact = grid.kind == "periodic" or grid.boundary == "reflect"

    def _build_matrix(self, t):
        return lattice_kernel(self.grid.size, self.grid.spacing, 0.0,
                              self.sigma ** 2 * t, _boundary_mode(self.grid))

    def generator(self, u):
        dx = self.grid.spacing
        vals = 0.5 * self.sigma ** 2 * _central_d2(u.values, dx)
        valid = _interior_mask(self.grid.size)
        if self.grid.kind == "periodic":
            v = u.values
            vals[0] = 0.5 * self.sigma ** 2 * (v[1] - 2 * v[0] + v[-1]) / dx ** 2
            vals[-1] = 0.5 * self.sigma ** 2 * (v[0] - 2 * v[-1] + v[-2]) / dx ** 2
            valid[:] = True
        return GeneratorResult(vals, valid, self.grid)

    def path_step(self, h):
        if h == 0.0:
            return _stay
        vol = self.sigma * math.sqrt(h)
        return lambda states, rng: states + vol * rng.standard_normal(states.size)


class GBMOperator(TransitionOperator):
    """Geometric Brownian member on the sign-glued log grid.

    In log coordinates the transition is a Gaussian with mean shift
    ``(mu - sigma^2/2) t`` and variance ``sigma^2 t``; the kernel lands on
    lattice nodes, so no interpolation enters.  ``x = 0`` is an exact fixed
    point and the negative branch mirrors the positive one.
    """

    def __init__(self, grid, mu, sigma):
        if grid.kind != "log":
            raise ConfigurationError("GBM member needs a log grid")
        if sigma < 0.0:
            raise ConfigurationError("sigma must be >= 0")
        super().__init__(grid)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.name = f"gbm(mu={mu:g},sigma={sigma:g})"
        self._n_side = (grid.size - 1) // 2

    def _build_matrix(self, t):
        block = lattice_kernel(self._n_side, self.grid.spacing,
                               (self.mu - 0.5 * self.sigma ** 2) * t,
                               self.sigma ** 2 * t, self.grid.boundary)
        return sp.block_diag([block[::-1, ::-1], sp.identity(1), block], format="csr")

    def generator(self, u):
        n, ds = self._n_side, self.grid.spacing
        drift = self.mu - 0.5 * self.sigma ** 2
        vals = np.zeros(self.grid.size)
        valid = np.zeros(self.grid.size, dtype=bool)
        # negative branch is stored in descending log|x|, so d/ds flips sign there
        for block, sgn in ((slice(0, n), -1.0), (slice(n + 1, 2 * n + 1), 1.0)):
            v = u.values[block]
            vals[block] = sgn * drift * _central_d1(v, ds) \
                + 0.5 * self.sigma ** 2 * _central_d2(v, ds)
            valid[block] = _interior_mask(n)
        vals[n] = 0.0   # x = 0 is a fixed point
        valid[n] = True
        return GeneratorResult(vals, valid, self.grid)

    def path_step(self, h):
        if h == 0.0:
            return _stay
        drift = (self.mu - 0.5 * self.sigma ** 2) * h
        vol = self.sigma * math.sqrt(h)
        return lambda states, rng: states * np.exp(
            drift + vol * rng.standard_normal(states.size))


class OUOperator(TransitionOperator):
    """Linear-drift Gaussian member: mean exp(tB)x + int_0^t exp(sB)m ds,
    covariance int_0^t exp(sB) C exp(sB)^T ds, both exact (see ``moments``)."""

    def __init__(self, grid, B, m, C):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        m = np.atleast_1d(np.asarray(m, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        d = B.shape[0]
        if d not in (1, 2):
            raise ConfigurationError("OU member supports d in {1, 2}")
        if B.shape != (d, d) or m.shape != (d,) or C.shape != (d, d):
            raise ConfigurationError("inconsistent OU dimensions")
        if not np.allclose(C, C.T, atol=1e-12):
            raise ConfigurationError("C must be symmetric")
        if np.min(np.linalg.eigvalsh(C)) < -1e-12:
            raise ConfigurationError("C must be positive semidefinite")
        if d == 1 and grid.kind != "uniform":
            raise ConfigurationError("1D OU member needs a uniform grid")
        if d == 2 and grid.kind != "tensor":
            raise ConfigurationError("2D OU member needs a tensor grid")
        super().__init__(grid)
        self.B, self.m, self.C, self.d = B, m, C, d
        self.name = f"ou(d={d})"

    def moments(self, t):
        """(exp(tB), drift integral, covariance integral) at duration t.

        1D: exp(bt), m t exprel(bt), c t exprel(2bt).  2D, by block matrix
        exponentials (Van Loan, IEEE TAC 23(3), 1978): expm(t [[B, m], [0, 0]])
        holds exp(tB) and the drift integral, and expm(t [[-B, C], [0, B^T]])
        = [[., F12], [0, F22]] the covariance integral F22^T F12.  Only this
        2D branch imports ``scipy.linalg`` (``expm``), so runs without 2D
        members never load it.  1D stays off expm, whose LAPACK getrs leaves
        an OpenBLAS worker busy-waiting for about 0.1 s after each call,
        slowing the kernel builds after it.  Moments that overflow (say
        exp(bt) for bt = 800) raise ``NumericalDegeneracyError``.
        """
        d = self.d
        if d == 1:
            bt = t * self.B
            # exp(bt) may overflow and 0 * inf give NaN; the check below catches both
            with np.errstate(over="ignore", invalid="ignore"):
                M = np.exp(bt)
                drift = self.m * t * scipy.special.exprel(bt[0])
                cov = self.C * t * scipy.special.exprel(2.0 * bt)
        else:
            from scipy.linalg import expm
            E = expm(t * np.block([[self.B, self.m[:, None]], [np.zeros((1, d + 1))]]))
            F = expm(t * np.block([[-self.B, self.C], [np.zeros((d, d)), self.B.T]]))
            M, drift, cov = E[:d, :d], E[:d, d], F[d:, d:].T @ F[:d, d:]
        if not all(np.isfinite(a).all() for a in (M, drift, cov)):
            raise NumericalDegeneracyError("OU moments not finite")
        cov = 0.5 * (cov + cov.T)
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * max(1.0, np.max(np.abs(cov))):
            raise NumericalDegeneracyError("integrated covariance not PSD")
        return M, drift, cov

    def _build_matrix(self, t):
        M, drift, cov = self.moments(t)
        if self.d == 1:
            return self._matrix_1d(M[0, 0], drift[0], max(cov[0, 0], 0.0))
        return self._matrix_2d(M, drift, cov)

    def _matrix_1d(self, m_lin, drift, var):
        g = self.grid
        # lattice_kernel wants offsets from each row's own node
        return lattice_kernel(g.size, g.spacing, m_lin * g.points + drift - g.points,
                              var, _boundary_mode(g))

    def _matrix_2d(self, M, drift, cov):
        from scipy.linalg import eigvalsh, inv
        g = self.grid
        pts = g.points
        means = pts @ M.T + drift
        eigs = eigvalsh(cov)
        dxmax = max(g.spacing)
        if eigs[1] < (0.05 * dxmax) ** 2:
            return self._interp_2d(means)
        if eigs[0] < (0.8 * dxmax) ** 2:
            raise NumericalDegeneracyError(
                "2D covariance too anisotropic for the tensor-grid kernel")
        prec = inv(cov)
        diff = pts[None, :, :] - means[:, None, :]
        q = np.einsum("rjk,kl,rjl->rj", diff, prec, diff)
        w = np.exp(-0.5 * q)
        w /= w.sum(axis=1, keepdims=True)
        return w

    def _interp_2d(self, means):
        g = self.grid
        n1 = g.shape[1]
        brackets = []
        for axis, ax in enumerate((g.points[::n1, 0], g.points[:n1, 1])):
            xc = np.clip(means[:, axis], ax[0], ax[-1])
            j = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
            th = np.clip((xc - ax[j]) / (ax[j + 1] - ax[j]), 0.0, 1.0)
            brackets.append((j, th))
        (j0, t0), (j1, t1) = brackets
        # the four corners of each row's cell, in row-major order
        cols = (j0[:, None] + [0, 0, 1, 1]) * n1 + j1[:, None] + [0, 1, 0, 1]
        weights = np.column_stack([(1.0 - t0) * (1.0 - t1), (1.0 - t0) * t1,
                                   t0 * (1.0 - t1), t0 * t1])
        return _assemble_rows(g.size, cols, weights, "renormalize")

    def generator(self, u):
        g = self.grid
        if self.d == 1:
            dx = g.spacing
            drift_field = self.B[0, 0] * g.points + self.m[0]
            vals = drift_field * _central_d1(u.values, dx) \
                + 0.5 * self.C[0, 0] * _central_d2(u.values, dx)
            return GeneratorResult(vals, _interior_mask(g.size), g)
        n0, n1 = g.shape
        dx0, dx1 = g.spacing
        arr = u.values.reshape(n0, n1)
        d0 = np.zeros_like(arr); d1 = np.zeros_like(arr)
        d00 = np.zeros_like(arr); d11 = np.zeros_like(arr); d01 = np.zeros_like(arr)
        d0[1:-1, :] = (arr[2:, :] - arr[:-2, :]) / (2 * dx0)
        d1[:, 1:-1] = (arr[:, 2:] - arr[:, :-2]) / (2 * dx1)
        d00[1:-1, :] = (arr[2:, :] - 2 * arr[1:-1, :] + arr[:-2, :]) / dx0 ** 2
        d11[:, 1:-1] = (arr[:, 2:] - 2 * arr[:, 1:-1] + arr[:, :-2]) / dx1 ** 2
        d01[1:-1, 1:-1] = (arr[2:, 2:] - arr[2:, :-2] - arr[:-2, 2:] + arr[:-2, :-2]) \
            / (4 * dx0 * dx1)
        drift_field = g.points @ self.B.T + self.m
        vals = drift_field[:, 0] * d0.ravel() + drift_field[:, 1] * d1.ravel() \
            + 0.5 * (self.C[0, 0] * d00 + self.C[1, 1] * d11 + 2 * self.C[0, 1] * d01).ravel()
        valid = np.zeros((n0, n1), dtype=bool)
        valid[1:-1, 1:-1] = True
        return GeneratorResult(vals, valid.ravel(), g)

    def path_step(self, h):
        if self.d != 1:
            raise ConfigurationError("path sampler supports 1D linear-drift members only")
        if h == 0.0:
            return _stay
        M, drift, cov = self.moments(h)
        m_lin, shift = M[0, 0], drift[0]
        std = math.sqrt(max(cov[0, 0], 0.0))
        if std == 0.0:
            return lambda states, rng: m_lin * states + shift
        return lambda states, rng: (m_lin * states + shift
                                    + std * rng.standard_normal(states.size))


class KoopmanOperator(TransitionOperator):
    """Deterministic member: u composed with the ODE flow of x' = F(x).

    The flow is integrated per grid point with classical RK4 (step at most
    0.01); the flowed value is read off by monotone linear interpolation.
    States leaving the grid are clamped (constant extrapolation) and counted
    in ``exit_counts``.
    """

    lipschitz_exact = True

    def __init__(self, grid, F, lipschitz_hint=1.0):
        if grid.kind != "uniform":
            raise ConfigurationError("Koopman member needs a uniform grid")
        super().__init__(grid)
        self.F = F
        self.lipschitz_hint = float(lipschitz_hint)
        fx = np.asarray(F(grid.points), dtype=float)
        slopes = np.abs(np.diff(fx)) / grid.spacing
        if slopes.size and float(np.max(slopes)) > self.lipschitz_hint + 1e-9:
            raise ConfigurationError(
                f"field exceeds its Lipschitz hint: {np.max(slopes):.3g} > "
                f"{self.lipschitz_hint:.3g}")
        self.exit_counts = {}
        self.name = "koopman"

    def flow(self, t, x):
        x = np.array(x, dtype=float)
        if t == 0.0:
            return x
        n_steps = max(1, int(math.ceil(t / 0.01)))
        dt = t / n_steps
        for _ in range(n_steps):
            k1 = self.F(x)
            k2 = self.F(x + 0.5 * dt * k1)
            k3 = self.F(x + 0.5 * dt * k2)
            k4 = self.F(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    def _build_matrix(self, t):
        g = self.grid
        y = self.flow(t, g.points)
        self.exit_counts[t] = int(np.sum((y < g.points[0]) | (y > g.points[-1])))
        j, theta = g.interp_weights(y)
        return _assemble_rows(g.size, np.column_stack([j, j + 1]),
                              np.column_stack([1.0 - theta, theta]), "renormalize")

    def generator(self, u):
        vals = _central_d1(u.values, self.grid.spacing) * self.F(self.grid.points)
        return GeneratorResult(vals, _interior_mask(self.grid.size), self.grid)

    def path_step(self, h):
        return lambda states, rng: self.flow(h, states)


class StableOperator(TransitionOperator):
    """Symmetric jump member of order alpha: Fourier multiplier exp(-t |xi|^(2 alpha)).

    Periodic uniform grids only; the zero-frequency multiplier is pinned to 1
    so constants are preserved exactly.
    """

    lipschitz_exact = True

    def __init__(self, grid, alpha):
        if grid.kind != "periodic":
            raise ConfigurationError("stable member needs a uniform periodic grid")
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1)")
        super().__init__(grid)
        self.alpha = float(alpha)
        self.name = f"stable(alpha={alpha:g})"
        self._xi = 2.0 * np.pi * np.fft.rfftfreq(grid.size, grid.spacing)

    def _build_matrix(self, t):
        mult = np.exp(-t * np.abs(self._xi) ** (2.0 * self.alpha))
        mult[0] = 1.0
        return mult

    def apply_values(self, t, values):
        if t == 0.0:
            return values
        return np.fft.irfft(np.fft.rfft(values) * self.matrix(t), n=self.grid.size)

    def generator(self, u):
        mult = -np.abs(self._xi) ** (2.0 * self.alpha)
        vals = np.fft.irfft(np.fft.rfft(u.values) * mult, n=self.grid.size)
        return GeneratorResult(vals, np.ones(self.grid.size, dtype=bool), self.grid)


def _poisson_pmf(k, mu):
    """Poisson(mu) probabilities of the counts k, by the log-space formula
    ``scipy.stats.poisson.pmf`` uses (same bits), without importing scipy.stats."""
    return np.exp(scipy.special.xlogy(k, mu) - scipy.special.gammaln(k + 1) - mu)


class ChainOperator(TransitionOperator):
    """Finite-state member exp(tQ), computed by uniformization.

    Q must have nonnegative off-diagonal and nonpositive diagonal entries.
    Conservative rows (Q 1 = 0) are required unless ``allow_nonconservative``;
    only conservative chains admit the path sampler.
    """

    lipschitz_exact = True

    def __init__(self, grid, Q, allow_nonconservative=False):
        if grid.kind != "labels":
            raise ConfigurationError("chain member needs a label grid")
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (grid.size, grid.size):
            raise ConfigurationError("rate matrix shape mismatch")
        off = Q - np.diag(np.diag(Q))
        if np.min(off) < -1e-12 or np.max(np.diag(Q)) > 1e-12:
            raise ConfigurationError("need Q_ij >= 0 off-diagonal and Q_ii <= 0")
        self.conservative = bool(np.max(np.abs(Q.sum(axis=1))) <= 1e-10)
        if not self.conservative and not allow_nonconservative:
            raise ConfigurationError("non-conservative rate matrix (rows must sum to 0)")
        super().__init__(grid)
        self.Q = Q
        self.rate = float(np.max(-np.diag(Q)))
        self.name = f"chain(n={grid.size})"
        if self.rate > 0.0:
            P = np.eye(grid.size) + Q / self.rate
            self.jump_matrix = np.maximum(P, 0.0)
        else:
            self.jump_matrix = np.eye(grid.size)

    def _build_matrix(self, t):
        n = self.grid.size
        gt = self.rate * t
        if gt == 0.0:
            return np.eye(n)
        k_max = int(gt + 12.0 * math.sqrt(gt) + 30.0)
        pmf = _poisson_pmf(np.arange(k_max + 1), gt)
        acc = pmf[0] * np.eye(n)
        power = np.eye(n)
        for k in range(1, k_max + 1):
            power = power @ self.jump_matrix
            acc += pmf[k] * power
        if self.conservative:
            acc /= acc.sum(axis=1, keepdims=True)
        return acc

    def generator(self, u):
        return GeneratorResult(self.Q @ u.values, np.ones(self.grid.size, dtype=bool),
                               self.grid)

    def path_step(self, h):
        if not self.conservative:
            raise ConfigurationError(
                "stochastic representation needs a conservative rate matrix")
        if h == 0.0:
            return _stay
        cum = np.cumsum(self.jump_matrix, axis=1)
        cum[:, -1] = 1.0
        mean_jumps = self.rate * h

        def step(states, rng):
            idx = self.grid.nearest_index(states)
            n_jumps = rng.poisson(mean_jumps, size=states.size)
            for j in range(int(n_jumps.max(initial=0))):
                active = n_jumps > j
                draws = rng.random(int(active.sum()))
                rows = cum[idx[active]]
                idx[active] = (rows < draws[:, None]).sum(axis=1)
            return idx.astype(float)
        return step


class ScaledOperator(TransitionOperator):
    """Time dilation of a base member: S_lambda(t) = S(lambda t)."""

    def __init__(self, base, scale):
        if scale < 0.0:
            raise ConfigurationError("scale must be >= 0")
        super().__init__(base.grid)
        self.base = base
        self.scale = float(scale)
        self.lipschitz_exact = base.lipschitz_exact
        self.name = f"scaled({base.name},{scale:g})"

    def apply_values(self, t, values):
        return self.base.apply_values(self.scale * t, values)

    def matrix(self, t):
        return self.base.matrix(self.scale * t)

    def generator(self, u):
        res = self.base.generator(u)
        return GeneratorResult(self.scale * res.values, res.valid, res.grid)

    def path_step(self, h):
        return self.base.path_step(self.scale * h)


def generator_apply(member, u):
    """Infinitesimal generator of one member applied to u."""
    member._check(0.0, u)
    return member.generator(u)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyBounds:
    """Growth rates of the weighted norm (alpha) and Lipschitz seminorm (beta)
    per unit time.  Used only inside tolerance formulas, never to clamp."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ConfigurationError("family bounds must be finite")


class SemigroupFamily:
    """Nonempty finite collection of members sharing one grid."""

    def __init__(self, members, bounds=None):
        members = list(members)
        if not members:
            raise ConfigurationError("family needs at least one member")
        grid = members[0].grid
        for m in members[1:]:
            if m.grid is not grid:
                raise ConfigurationError("all members must share one grid")
        self.members = members
        self.grid = grid
        self.bounds = bounds if bounds is not None else FamilyBounds()

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def apply_all(self, t, values):
        """Stack of member applications, shape (n_members, n_points)."""
        _check_duration(t)
        return np.stack([m.apply_values(t, values) for m in self.members])
