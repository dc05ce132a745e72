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
multiplier) in one store, ``matrix(t)``, the one place a kernel is looked
up, built or evicted.  Past ``KERNEL_CACHE_BYTES`` per member it drops the
least recently used durations: a rebuild gives the same bits.  The members
of one family share an index of weak references to their kernels, keyed by
``_kernel_key(t)``: a heat member's variance sigma^2 t, the one argument of
its kernel that varies, a token of the member with t for the other kinds,
and the base's key at the dilated duration for a scaled member.  So
``heat(1)`` at t/4 takes the kernel ``heat(0.5)`` built at t, and both stores
hold the one object; each member's byte count still counts it.  The index
keeps no kernel or member alive, so a kernel dies with the last store that
holds it.  The index also holds a run's plan (``SemigroupFamily.plan``):
every CLI run that composes kernels (``solve``, ``properties``, ``dpp``,
``control`` and ``mc``) hands it the lookups its work will make per key,
and once a key's are spent its kernel leaves every store that holds it, so
no bit moves and no kernel is built again.  Library calls get no plan and
keep their kernels for the next call.
Every apply is ``apply_values``, the kernel times the values
(``_apply_kernel``, an FFT product for a spectral member).  Each member,
scaled or not, counts its ``lookups``, ``builds``, kernels taken from the
index (``shared``) and ``evictions`` in ``matrix``, and its ``applies``
(every call, t = 0 included) in ``apply_values``.  Beside the store each
member keeps its composition defect (``composition_defect``), measured once
on a scratch twin with an empty store, an empty index and counters of its
own, so the measurement's kernels neither enter the family's nor come from it.

Heat, GBM and OU members build every kernel through one selector,
``lattice_kernel``: a variance above one cell squared gets Gaussian weights
on the lattice nodes, one at or below it the interpolation stencil, which
keeps the weights nonnegative and the mean exact where Gaussian quadrature
would alias.  Kernel mass past the ends of the lattice is folded back
(``reflect``), wrapped (``wrap``) or dropped with the row renormalized
(``renormalize``), as the grid's ``boundary`` says.  Every lattice kernel is
stored dense when ``8 n^2 <= 12 nnz + 4 (n + 1)`` (no more bytes than CSR).
A Gaussian kernel
whose mean offsets are all zero (every heat member above one cell, an OU
member with B=0 and m=0, a GBM member with mu = sigma^2/2) is the same band
in every row, so it is built from that one band; when sparse it is stored by
diagonals (DIA, 8 bytes per entry and no column indices) for ``reflect`` and
``renormalize``, and as canonical CSR for ``wrap``, whose wrapped band would
need about 4k+1 diagonals.  Every other kernel is assembled row by row.  Rows
that hold one run of consecutive columns (offset Gaussian rows, the stencil,
Koopman's 2-wide rows) fold their boundary spill in place and go straight
into canonical CSR, or into the dense array, with no sort; ``wrap`` rows and
``reflect`` rows of half-width k > n - 2 go through a sorted CSR, to the
same bits a run would give where both apply.  The DIA offsets ascend, so
scipy's ``dia_matvec`` adds each row's terms in ascending column order from
+0.0, as ``csr_matvec`` does, and the storage changes no bit of an apply.
``generator(u)`` checks u, as ``apply`` does, and evaluates the infinitesimal
generator, ``_generator``, which a family reaches only through its one check
(``SemigroupFamily.generators``).  Heat, GBM, OU and Koopman members take
their second-order central differences from one helper, ``_central``: on a
periodic grid it wraps and every row is valid; elsewhere the rows whose
stencil leaves the grid are flagged invalid.
``path_step(h)`` returns the member's exact-increment sampler over
duration h, for members whose transition law can be drawn exactly.  Every
sampler but the chain's draws nothing but ``rng.standard_normal(size)``; a
chain lives only on a label grid, and only a chain (or a scaled one) does.

Sparse kernels are nisio's own arrays in scipy's layouts: ``CSRKernel``
(``data``, ``indices``, ``indptr``) and ``DIAKernel`` (``data``,
``offsets``), with int32 indices; a dense kernel is an ndarray.  They are
built, converted and applied by scipy's compiled loops (``csr_matvec``,
``dia_matvec``, ``csr_sort_indices``, ...), the extension module
``scipy/sparse/_sparsetools``, which ``_load_sparsetools`` loads on its own.
So every apply runs the C++ loop that ``A @ x`` runs on a ``scipy.sparse``
matrix of the same arrays, to the same bits, and importing this module loads no
scipy subpackage: ``import scipy.sparse`` would run scipy's array-API shim,
which loads numpy's ``f2py``, ``testing`` and ``ma`` and costs every
process about 0.13 s and 15 MiB that no sparse loop needs.  The chain
member's Poisson weights import ``scipy.special`` inside ``_poisson_pmf``
(never ``scipy.stats``), so only runs that build a chain kernel load it; OU
moments take exprel from ``_exprel`` (``math.expm1``), to the bits of
``scipy.special.exprel``.
"""

from __future__ import annotations

import collections
import copy
import importlib.machinery
import importlib.util
import math
import numbers
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, GridKindError, InvalidInputError,
                     NumericalDegeneracyError)
from .grids import weighted_norm
from .probes import probe_function

# kernel support radius in standard deviations; tail mass beyond is ~1e-23
KERNEL_RADIUS = 10.0
# weights one kernel build may hold or sum: a lattice kernel's Gaussian weights
# (the band of a zero-offset kernel, or the n x (2k+1) array of the
# row-by-row path), and a chain's (k_max + 1) n^2, its n x n jump-matrix
# powers over the k_max + 1 uniformization terms (2^24 float64 is 128 MiB);
# every shipped config and demo needs at most 3.3e6
MAX_KERNEL_WEIGHTS = 2 ** 24
# kernel bytes per member, shared kernels counted by each member that holds
# them; above every benchmark working set (192.3 MiB at most: the offset OU
# member of ou.json; the README heat members count at most 40.3 and 77.4, and
# hold 79.4 between them, since 38.3 are the 7 kernels they share and eps_q's
# kernels leave the store before the work builds any), because LRU below the
# working set of a cyclic dyadic sweep loses every hit.  Those are the
# figures of an unplanned run, as a library call's; every CLI run is planned
# (``SemigroupFamily.plan``) and frees each kernel after its last lookup, so
# it holds less
KERNEL_CACHE_BYTES = 512 * 2 ** 20


# ---------------------------------------------------------------------------
# sparse kernels, applied by scipy's compiled loops
# ---------------------------------------------------------------------------

def _load_sparsetools():
    """scipy's compiled sparse loops, the extension ``scipy/sparse/_sparsetools``,
    loaded from scipy's directory as ``nisio._sparsetools`` without running
    ``scipy`` or ``scipy.sparse`` (see the module docstring)."""
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        f"{__package__}._sparsetools", [os.path.join(d, "sparse") for d in scipy_dirs])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


class _SparseKernel:
    """A square sparse kernel; ``kernel @ x`` is its product with a vector of
    n floats, through the format's compiled loop."""

    __slots__ = ("__weakref__",)

    def __matmul__(self, x):
        n = self.shape[0]
        if np.shape(x) != (n,):
            raise ValueError(f"an {n} x {n} kernel applied to values of shape {np.shape(x)}")
        out = np.zeros(n)
        self._matvec(np.asarray(x, dtype=float), out)
        return out


class CSRKernel(_SparseKernel):
    """Compressed sparse rows, scipy's CSR arrays: row i holds
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``.  The
    indices are int32, as scipy picks them for any kernel that fits in
    memory.  ``csr_matvec`` adds each row's terms in stored order from +0.0."""

    __slots__ = ("data", "indices", "indptr")

    def __init__(self, data, indices, indptr):
        self.data = data
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)

    @property
    def shape(self):
        return self.indptr.size - 1, self.indptr.size - 1

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def _matvec(self, x, out):
        n = self.indptr.size - 1
        _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.data, x, out)


class DIAKernel(_SparseKernel):
    """Diagonals, scipy's DIA arrays: ``data[d, j]`` is entry
    (j - offsets[d], j), and entries off the lattice are never read.  The
    int32 offsets ascend, so ``dia_matvec`` adds each row's terms in
    ascending column order from +0.0, as ``csr_matvec`` does on the same
    kernel in canonical CSR."""

    __slots__ = ("data", "offsets")

    def __init__(self, data, offsets):
        self.data = data
        self.offsets = np.asarray(offsets, dtype=np.int32)

    @property
    def shape(self):
        return self.data.shape[1], self.data.shape[1]

    @property
    def nbytes(self):
        return self.data.nbytes + self.offsets.nbytes

    def _matvec(self, x, out):
        n = self.data.shape[1]
        _sparsetools.dia_matvec(n, n, *self.data.shape, self.offsets, self.data, x, out)

    def tocsr(self):
        """The same kernel in canonical CSR, explicit zeros dropped
        (``dia_tocsr``)."""
        n_diags, n = self.data.shape
        size = int(np.maximum(n - np.abs(self.offsets), 0).sum())
        data, indices = np.empty(size), np.empty(size, dtype=np.int32)
        indptr = np.empty(n + 1, dtype=np.int32)
        nnz = _sparsetools.dia_tocsr(n, n, n_diags, n, self.offsets, self.data,
                                     np.argsort(self.offsets).astype(np.int32),
                                     data, indices, indptr)
        return CSRKernel(data[:nnz], indices[:nnz], indptr)


# ---------------------------------------------------------------------------
# lattice kernel builders (shared by heat / GBM / OU)
# ---------------------------------------------------------------------------

def _reflect_indices(j, n):
    """Mirror indices about the end nodes of 0..n-1 (period 2(n-1))."""
    m = 2 * (n - 1)
    j = np.mod(j, m)
    return np.where(j >= n, m - j, j)


def _dense_is_cheaper(n, nnz):
    """The one storage rule: an n x n ndarray when it takes no more bytes than
    CSR of the nnz entries; otherwise DIA for a ``reflect`` or ``renormalize``
    band (``_band_matrix``) and CSR for every other kernel."""
    return 8 * n * n <= 12 * nnz + 4 * (n + 1)


def _sorted_rows(n, cols_raw, weights, mode):
    """Row-stochastic kernel from per-row weights on any columns, through a
    sorted CSR.

    cols_raw has shape (n, bandwidth); out-of-range columns are folded back
    (``reflect``) or wrapped (``wrap``).  Rows are divided by their own sums;
    folded duplicates and zeros leave the CSR.  Only two row sets come here,
    both from ``_assemble_rows``: ``wrap`` rows, and the ``reflect`` rows
    whose spill does not fold inside their own run (for Gaussian rows a
    half-width k > n - 2, where one column can take three or more terms and
    their order is the sort's).  ``weights`` is consumed.
    """
    cols = _reflect_indices(cols_raw, n) if mode == "reflect" else np.mod(cols_raw, n)
    sums = weights.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalDegeneracyError("kernel row lost all mass")
    np.divide(weights, sums[:, None], out=weights)
    csr = CSRKernel(weights.reshape(-1), cols.reshape(-1), np.arange(n + 1) * cols.shape[1])
    arrays = csr.indptr, csr.indices, csr.data
    # scipy's sum_duplicates and eliminate_zeros: rows already in order are
    # not sorted again, so a column's terms are added in the order they come
    if not _sparsetools.csr_has_sorted_indices(n, csr.indptr, csr.indices):
        _sparsetools.csr_sort_indices(n, *arrays)
    _sparsetools.csr_sum_duplicates(n, n, *arrays)
    _sparsetools.csr_eliminate_zeros(n, n, *arrays)
    nnz = csr.nnz
    if _dense_is_cheaper(n, nnz):
        dense = np.zeros((n, n))
        _sparsetools.csr_todense(n, n, *arrays, dense)
        return dense
    return CSRKernel(csr.data[:nnz].copy(), csr.indices[:nnz].copy(), csr.indptr)


def _spill(lo, w, start, count):
    """Flat indices into an (n, w) row array, and the raw columns, of the
    entries in raw columns ``start[i] .. start[i] + count[i] - 1`` of each
    row i, whose first raw column is ``lo[i]``."""
    ends = np.cumsum(count)
    col = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
    return col + np.repeat(np.arange(lo.size) * w - lo, count), col


def _assemble_rows(n, cols_raw, weights, mode):
    """Row-stochastic kernel from rows of consecutive raw columns, straight
    into CSR or dense, with no sort.

    Row i of ``cols_raw`` (shape (n, w)) is the run lo_i, lo_i + 1, ...,
    lo_i + w - 1: the offset Gaussian rows, the interpolation stencil and
    Koopman's 2-wide rows.  ``renormalize`` zeroes the entries off the
    lattice and folds nothing, so it takes runs of any width.  Each row is
    divided by its sum; ``reflect`` then adds each entry spilled past an end
    onto its mirror column, -c or 2(n-1) - c, in place.  While w <= 2n - 2
    and every run starts between (1 - w)/2 and (2n - 1 - w)/2 (Gaussian rows
    centred on the lattice with k <= n - 2, the stencil on n >= 3 nodes),
    each mirror lies inside its own run and no column takes more than two
    terms, whose sum is the same in either order.  So the kernel has the bits
    of ``_sorted_rows``, which keeps every other ``reflect`` row set and
    every ``wrap`` one.  A row's columns are its run clipped to the lattice,
    already ascending: its non-zero entries are the CSR row, or are added
    onto an n x n array of zeros when dense, as ``csr_todense`` does.
    ``weights`` is consumed.
    """
    w = cols_raw.shape[1]
    lo = cols_raw[:, 0]
    if mode != "renormalize" and not (mode == "reflect" and w <= 2 * n - 2 and
                                      2 * lo.min() >= 1 - w and
                                      2 * lo.max() <= 2 * n - 1 - w):
        return _sorted_rows(n, cols_raw, weights, mode)
    weights = np.ascontiguousarray(weights)
    flat = weights.reshape(-1)      # a view, so the edits below reach weights
    over = np.clip(lo + w - n, 0, w)
    below, col_b = _spill(lo, w, lo, np.clip(-lo, 0, w))
    above, col_a = _spill(lo, w, lo + w - over, over)
    if mode == "renormalize":
        flat[below] = 0.0
        flat[above] = 0.0
    sums = weights.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalDegeneracyError("kernel row lost all mass")
    np.divide(weights, sums[:, None], out=weights)
    if mode == "reflect":
        flat[below - 2 * col_b] += flat[below]
        flat[above + 2 * (n - 1 - col_a)] += flat[above]
        flat[below] = 0.0
        flat[above] = 0.0
    keep = weights != 0.0           # on the lattice and non-zero: the CSR entries
    counts = np.count_nonzero(keep, axis=1)
    if _dense_is_cheaper(n, int(counts.sum())):
        first, stop = np.maximum(lo, 0), np.minimum(lo + w, n)
        dense = np.zeros((n, n))
        for i, (a, b, s) in enumerate(zip(first.tolist(), stop.tolist(),
                                          (first - lo).tolist())):
            dense[i, a:b] += weights[i, s:s + b - a]
        return dense
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRKernel(weights[keep], cols_raw[keep], indptr)


def _toeplitz(e, n):
    """Read-only n x n view with entry [i, j] = e[n - 1 + j - i]."""
    return np.lib.stride_tricks.sliding_window_view(e, n)[::-1]


def _band_matrix(n, w, mode):
    """Row-stochastic kernel that puts weight w[k + b] of row i on node i + b.

    ``w`` is a band of length 2k+1.  Every row is the same band shifted along
    the diagonal, so the kernel is built from that band alone.  For
    ``reflect`` and ``wrap`` the band is folded onto the period P (2(n-1) or
    n) of the boundary map and divided by its sum, W, and
    ``A[i, j] = W[(j-i) mod P] + W[(-j-i) mod P]``, the mirror term for
    ``reflect`` only and not in the end columns (they are their own mirror
    images).  For ``renormalize`` the off-lattice nodes are dropped:
    ``A[i, j] = w[k + j - i] / S_i``, with the row sums S_i read off a
    cumulative sum of w.  Dense by ``_dense_is_cheaper``, with nnz the
    entries on the lattice; otherwise ``wrap`` is CSR and the other two modes
    are DIA, one diagonal per band offset -k..k (k < n - 1 there).
    """
    k = w.size // 2
    rows = np.arange(n)
    lo = np.maximum(rows - k, 0)
    counts = np.minimum(rows + k, n - 1) - lo + 1    # a contiguous run of columns
    if mode == "renormalize":
        csum = np.concatenate(([0.0], np.cumsum(w)))
        first = lo - rows + k                            # band index of column lo
        scale = 1.0 / (csum[first + counts] - csum[first])
    else:
        period = 2 * (n - 1) if mode == "reflect" else n
        total = w.sum()
        folded = np.bincount(np.arange(-k, k + 1) % period, weights=w, minlength=period)
        folded /= total
        wn = w / total
        if w.size >= period:
            counts = np.full(n, n)      # the band covers every column of every row
        elif mode == "wrap":
            counts = np.full(n, w.size)
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
        return CSRKernel(data, indices, np.arange(n + 1) * w.size)

    # one diagonal per band offset b = -k..k, ascending, so that dia_matvec
    # sums each row in ascending column order as csr_matvec does;
    # data[k + b, j] is entry (j - b, j), and entries off the lattice are
    # never read
    if mode == "renormalize":
        padded = np.concatenate((np.zeros(k), scale, np.zeros(k)))
        data = w[:, None] * np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
    else:
        # the band does not wrap (2k+1 < P), so W[(j-i) mod P] is w[k+j-i]
        # normalized, and the mirror term reaches only entries with
        # 1 <= i + j <= k (weight W[-(i+j)]) and their images (n-1-i, n-1-j)
        data = np.repeat(wn[:, None], n, axis=1)
        diag, col = np.tril_indices(k)      # i + j = diag + 1, j = col + 1
        b = 2 * col + 1 - diag              # j - i
        fold = wn[k - 1 - diag]
        data[k + b, col + 1] += fold
        data[k - b, n - 2 - col] += fold
    return DIAKernel(data, np.arange(-k, k + 1))


def gaussian_lattice_matrix(n, dx, means_offset, std, mode):
    """Row-stochastic Gaussian kernel on a uniform lattice.

    Row i targets mean ``i*dx + means_offset[i]`` (offsets need not be lattice
    aligned).  Requires ``std > 0``; ``lattice_kernel`` takes the stencil
    instead when the standard deviation is at or below one cell.  The offsets
    pick the path: all zero make a translation-invariant kernel built from one
    band, any other go row by row through ``_assemble_rows``.  Each row is
    the run of 2k+1 columns about its centre, clamped to the lattice, so a
    ``renormalize`` kernel, and a ``reflect`` one with k <= n - 2 (which
    folds its spill in place), goes straight into CSR or dense with no sort;
    ``wrap`` and a wider ``reflect`` kernel keep the sorted assembly.
    """
    offsets = np.broadcast_to(np.asarray(means_offset, dtype=float), (n,))
    shifted = bool(np.any(offsets))
    # sized before anything is allocated: 2k+1 weights per row held, with
    # k = ceil(reach) + 1 (estimated in floats while reach is itself too big)
    reach = KERNEL_RADIUS * std / dx
    per_row = 2 * math.ceil(reach) + 3 if reach <= MAX_KERNEL_WEIGHTS else 2 * reach + 3
    held = per_row * (n if shifted else 1)
    if not held <= MAX_KERNEL_WEIGHTS:
        raise InvalidInputError(f"kernel of std {std:.3g} needs {held:.3g} Gaussian "
                                f"weights, above the budget of {MAX_KERNEL_WEIGHTS}")
    k_half = math.ceil(reach) + 1
    band = np.arange(-k_half, k_half + 1, dtype=np.int32)
    if not shifted:
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


# ---------------------------------------------------------------------------
# generator stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorResult:
    """Generator applied to a grid function; ``valid`` masks usable rows."""

    values: np.ndarray
    valid: np.ndarray


def _central(v, dx, periodic=False):
    """Second-order central first and second differences of ``v`` along its
    first axis, and the rows where they hold.  A periodic grid wraps, so every
    row is valid; on any other grid the end rows hold 0 and are invalid."""
    n = len(v)
    if periodic:
        up, down = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
        return ((up - down) / (2.0 * dx), (up - 2.0 * v + down) / (dx * dx),
                np.ones(n, dtype=bool))
    d1, d2 = np.zeros_like(v), np.zeros_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
    valid = np.zeros(n, dtype=bool)
    valid[1:-1] = True
    return d1, d2, valid


# ---------------------------------------------------------------------------
# operator base
# ---------------------------------------------------------------------------

def _stay(states, rng):
    return states


def _check_duration(t):
    if not np.isfinite(t) or t < 0.0:
        raise InvalidInputError(f"duration must be finite and >= 0, got {t}")


def _check_input(grid, t, u):
    """Reject a negative or non-finite duration, and a function off ``grid``'s
    space: neither the same object nor one of the same kind, points and kappa."""
    _check_duration(t)
    g = u.grid
    if g is not grid and not (g.kind == grid.kind and np.array_equal(g.points, grid.points)
                              and np.array_equal(g.kappa, grid.kappa)):
        raise InvalidInputError("function lives on a different grid")


class _KernelIndex(weakref.WeakValueDictionary):
    """Weak references to the kernels of a family's members by key, and the
    run's plan: the lookups left per key (``SemigroupFamily.plan``).  A
    member built alone, or a scratch twin, has an index of its own and an
    empty plan."""

    def __init__(self, members=()):
        super().__init__()
        self.members = [weakref.ref(m) for m in members]
        self.plan = {}

    def spend(self, key, kernel):
        """Count one lookup of ``key``; after its last planned one, ``kernel``
        leaves the store of every member that holds it.  A key outside the
        plan is not counted."""
        left = self.plan.get(key)
        if left is None:
            return
        if left > 1:
            self.plan[key] = left - 1
            return
        del self.plan[key]
        for ref in self.members:
            member = ref()
            if member is not None:
                member._release(kernel)


class TransitionOperator:
    """One member semigroup: a pure map (duration, function) -> function."""

    lipschitz_exact = False
    name = "operator"

    def __init__(self, grid):
        self.grid = grid
        self._token = object()
        self._empty_store()
        self._defect = None

    def _empty_store(self):
        """An empty kernel store, an index of its own and counters at 0."""
        self._cache, self._held = {}, 0
        self._index = _KernelIndex()
        self.lookups = self.builds = self.shared = self.evictions = self.applies = 0

    def apply(self, t, u):
        """Evaluate S(t)u.  t == 0 returns u unchanged."""
        _check_input(self.grid, t, u)
        if t == 0.0:
            return u
        return u.with_values(self.apply_values(t, u.values))

    def apply_values(self, t, values):
        self.applies += 1
        if t == 0.0:
            return values
        return self._apply_kernel(self.matrix(t), values)

    def _apply_kernel(self, kernel, values):
        return kernel @ values

    def matrix(self, t):
        """The kernel of S(t): a row-stochastic matrix, or a spectral member's
        Fourier multiplier.  Built on the first lookup of t and kept, most
        recent last, under ``KERNEL_CACHE_BYTES``; never evicts its result.
        A kernel another member of the family holds under the same key
        (``_kernel_key``) is taken from the family's index instead of built;
        after the last lookup the family's plan has for the key, the kernel
        leaves every store."""
        self.lookups += 1
        t = float(t)        # so that a product with t overflows to inf, silently
        kernel = self._cache.pop(t, None)
        if kernel is None:
            _check_duration(t)
            try:
                key = self._kernel_key(t)
                kernel = self._index.get(key)
                if kernel is None:
                    kernel = self._build_matrix(t)
                    self.builds += 1
                    self._index[key] = kernel
                else:
                    self.shared += 1
            except InvalidInputError as exc:
                raise InvalidInputError(f"{self.name} at duration {t:g}: {exc}") from None
            self._held += kernel.nbytes
            while self._held > KERNEL_CACHE_BYTES and self._cache:
                self._held -= self._cache.pop(next(iter(self._cache))).nbytes
                self.evictions += 1
        self._cache[t] = kernel
        if self._index.plan:
            self._index.spend(self._kernel_key(t), kernel)
        return kernel

    def _release(self, kernel):
        """Take ``kernel`` out of this member's store, under every duration
        that holds it."""
        for t in [t for t, held in self._cache.items() if held is kernel]:
            del self._cache[t]
            self._held -= kernel.nbytes

    def _kernel_key(self, t):
        """A key that only the same kernel on this grid has: this member's
        token, which does not hold the member, and t."""
        return self._token, t

    def _twin(self):
        """A shallow copy of this member with an empty store, an empty index
        and counters at 0 of its own."""
        twin = copy.copy(self)
        twin._empty_store()
        return twin

    def composition_defect(self):
        """Max over the probes const, linear and sin and the splits (0.05,
        0.05) and (0.025, 0.075) of t_ref = 0.1 of
        || S(h1) S(h2) u - S(h1+h2) u ||  in the weighted norm.  Measured on
        the first call, on a scratch twin, and kept; its kernels are not."""
        if self._defect is None:
            twin = self._twin()
            t_ref = 0.1
            splits = ((0.5 * t_ref, 0.5 * t_ref), (0.25 * t_ref, 0.75 * t_ref))
            worst = 0.0
            for name in ("const", "linear", "sin"):
                u = probe_function(name, self.grid)
                direct = twin.apply(t_ref, u)
                for h1, h2 in splits:
                    two_step = twin.apply(h1, twin.apply(h2, u))
                    worst = max(worst, weighted_norm(
                        direct.with_values(two_step.values - direct.values)))
            self._defect = worst
        return self._defect

    def _build_matrix(self, t):
        raise NotImplementedError

    def generator(self, u):
        """Evaluate the infinitesimal generator at u, after the check of u."""
        _check_input(self.grid, 0.0, u)
        return self._generator(u)

    def _generator(self, u):
        raise NotImplementedError

    def path_step(self, h):
        """Exact sampler ``step(states, rng) -> states`` of one transition over
        duration h, with everything that depends on h alone computed here
        once.  A zero duration stays put without drawing."""
        raise ConfigurationError(f"no exact-increment sampler for {self.name}")


def _check_sigma(sigma):
    """``sigma`` as a float, refused below 0, as NaN, or when its square, the
    variance per unit time, overflows."""
    sigma = float(sigma)
    if not (sigma >= 0.0 and math.isfinite(sigma * sigma)):
        raise ConfigurationError(f"sigma must be >= 0 with a finite square, got {sigma:g}")
    return sigma


class HeatOperator(TransitionOperator):
    """Brownian member with volatility sigma: Gaussian kernel of variance sigma^2 t."""

    def __init__(self, grid, sigma):
        if grid.kind not in ("uniform", "periodic"):
            raise GridKindError("heat member needs a uniform grid")
        sigma = _check_sigma(sigma)
        super().__init__(grid)
        self.sigma = sigma
        self.name = f"heat(sigma={sigma:g})"
        self.lipschitz_exact = grid.boundary in ("wrap", "reflect")

    def _kernel_key(self, t):
        """The variance sigma^2 t: the kernel's one argument that varies."""
        return self.sigma ** 2 * t

    def _build_matrix(self, t):
        return lattice_kernel(self.grid.size, self.grid.spacing, 0.0,
                              self._kernel_key(t), self.grid.boundary)

    def _generator(self, u):
        _, d2, valid = _central(u.values, self.grid.spacing,
                                periodic=self.grid.kind == "periodic")
        return GeneratorResult(0.5 * self.sigma ** 2 * d2, valid)

    def path_step(self, h):
        if h == 0.0:
            return _stay
        vol = self.sigma * math.sqrt(h)
        return lambda states, rng: states + vol * rng.standard_normal(states.size)


def _log_drift(mu, sigma):
    """``mu - sigma^2/2``, the drift of log|x| under GBM.  A difference
    within four ulps of the larger term is rounding, not drift: mu = sigma^2/2
    written in decimals, say (0.02, 0.2), leaves -3.5e-18.  It is taken as
    exactly zero, so the kernel is the zero-offset band."""
    drift = mu - 0.5 * sigma ** 2
    if abs(drift) <= 4.0 * np.spacing(max(abs(mu), 0.5 * sigma ** 2)):
        return 0.0
    return drift


def _mirror_blocks(block):
    """The GBM kernel in CSR: ``block`` on the positive branch, its mirror
    image (rows and columns reversed) on the negative one, 1 at x = 0.  The
    arrays of scipy's ``block_diag([block[::-1, ::-1], identity(1), block],
    format="csr")``: a dense block gives all n^2 entries, zeros included, a
    DIA block its canonical CSR, and every row ascends, since each row of a
    CSR block does and reversing the arrays reverses rows and columns."""
    n = block.shape[0]
    if isinstance(block, DIAKernel):
        block = block.tocsr()
    if isinstance(block, np.ndarray):
        data, indices, indptr = block.reshape(-1), np.tile(np.arange(n), n), np.arange(n + 1) * n
    else:
        data, indices, indptr = block.data, block.indices, block.indptr
    nnz = indptr[-1]
    return CSRKernel(np.concatenate((data[::-1], [1.0], data)),
                     np.concatenate((n - 1 - indices[::-1], [n], indices + n + 1)),
                     np.concatenate((nnz - indptr[::-1], nnz + 1 + indptr)))


class GBMOperator(TransitionOperator):
    """Geometric Brownian member on the sign-glued log grid.

    In log coordinates the transition is a Gaussian with mean shift
    ``(mu - sigma^2/2) t`` (``_log_drift``) and variance ``sigma^2 t``; the
    kernel lands on lattice nodes, so no interpolation enters.  ``x = 0`` is
    an exact fixed point and the negative branch mirrors the positive one.
    """

    def __init__(self, grid, mu, sigma):
        if grid.kind != "log":
            raise GridKindError("GBM member needs a log grid")
        if grid.size < 5:
            # its kernels are two blocks of (N - 1) // 2 nodes, one per sign
            raise ConfigurationError(f"GBM member needs a log grid of at least two nodes "
                                     f"per side of 0, got {grid.size} nodes")
        sigma = _check_sigma(sigma)
        super().__init__(grid)
        self.mu = float(mu)
        self.sigma = sigma
        self.name = f"gbm(mu={mu:g},sigma={sigma:g})"
        self._n_side = (grid.size - 1) // 2
        self._drift = _log_drift(self.mu, self.sigma)

    def _build_matrix(self, t):
        block = lattice_kernel(self._n_side, self.grid.spacing, self._drift * t,
                               self.sigma ** 2 * t, self.grid.boundary)
        return _mirror_blocks(block)

    def _generator(self, u):
        n, ds, drift = self._n_side, self.grid.spacing, self._drift
        vals = np.zeros(self.grid.size)
        valid = np.zeros(self.grid.size, dtype=bool)
        # negative branch is stored in descending log|x|, so d/ds flips sign there
        for block, sgn in ((slice(0, n), -1.0), (slice(n + 1, 2 * n + 1), 1.0)):
            d1, d2, valid[block] = _central(u.values[block], ds)
            vals[block] = sgn * drift * d1 + 0.5 * self.sigma ** 2 * d2
        vals[n] = 0.0   # x = 0 is a fixed point
        valid[n] = True
        return GeneratorResult(vals, valid)

    def path_step(self, h):
        if h == 0.0:
            return _stay
        drift = self._drift * h
        vol = self.sigma * math.sqrt(h)
        return lambda states, rng: states * np.exp(
            drift + vol * rng.standard_normal(states.size))


_EPS = np.finfo(float).eps


def _exprel(x):
    """(e^x - 1) / x by ``math.expm1``, to the bits of ``scipy.special.exprel``
    at every finite x, without importing ``scipy.special``: 1 for |x| below
    machine epsilon, inf where e^x overflows.  numpy's ``expm1`` would differ
    by an ulp on some arguments."""
    if abs(x) < _EPS:
        return 1.0
    try:
        return math.expm1(x) / x
    except OverflowError:
        return math.inf


class OUOperator(TransitionOperator):
    """Linear-drift Gaussian member dX = (B X + m) dt + sqrt(C) dW on a
    uniform grid: mean exp(tB)x + m t exprel(tB), variance C t exprel(2tB),
    both exact (see ``moments``).  B, m and C are numbers, C >= 0."""

    def __init__(self, grid, B, m, C):
        if not all(isinstance(v, numbers.Real) for v in (B, m, C)):
            raise ConfigurationError("OU coefficients B, m and C must be numbers")
        if not C >= 0.0:
            raise ConfigurationError("C must be >= 0")
        if grid.kind != "uniform":
            raise GridKindError("1D OU member needs a uniform grid")
        super().__init__(grid)
        self.B, self.m, self.C = float(B), float(m), float(C)
        self.name = f"ou(B={self.B:g},m={self.m:g},C={self.C:g})"

    def moments(self, t):
        """(exp(tB), drift integral, variance integral) at duration t, three
        numbers: exp(bt), m t exprel(bt), c t exprel(2bt).  The variance is
        >= 0 since C is, so only finiteness is checked: moments that overflow
        (say exp(bt) for bt = 800) raise ``NumericalDegeneracyError``.
        """
        bt = t * self.B
        # exp(bt) may overflow and 0 * inf give NaN; the check below catches both
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.exp(bt)
            drift = self.m * t * _exprel(bt)
            var = self.C * t * _exprel(2.0 * bt)
        if not all(map(math.isfinite, (M, drift, var))):
            raise NumericalDegeneracyError("OU moments not finite")
        return M, drift, var

    def _build_matrix(self, t):
        M, drift, var = self.moments(t)
        g = self.grid
        # lattice_kernel wants offsets from each row's own node
        return lattice_kernel(g.size, g.spacing, M * g.points + drift - g.points, var,
                              g.boundary)

    def _generator(self, u):
        g = self.grid
        d1, d2, valid = _central(u.values, g.spacing)
        drift_field = self.B * g.points + self.m
        return GeneratorResult(drift_field * d1 + 0.5 * self.C * d2, valid)

    def path_step(self, h):
        if h == 0.0:
            return _stay
        M, shift, var = self.moments(h)
        std = math.sqrt(var)
        if std == 0.0:
            return lambda states, rng: M * states + shift
        return lambda states, rng: (M * states + shift
                                    + std * rng.standard_normal(states.size))


class KoopmanOperator(TransitionOperator):
    """Deterministic member: u composed with the ODE flow of x' = F(x).

    The flow is integrated per grid point with classical RK4 (step at most
    0.01); the flowed value is read off by monotone linear interpolation.
    States leaving the grid are clamped (constant extrapolation).
    """

    lipschitz_exact = True

    def __init__(self, grid, F, lipschitz_hint=1.0):
        if grid.kind != "uniform":
            raise GridKindError("Koopman member needs a uniform grid")
        super().__init__(grid)
        self.F = F
        self.lipschitz_hint = float(lipschitz_hint)
        with np.errstate(all="ignore"):  # NaN and overflow are rejected below
            fx = np.asarray(F(grid.points), dtype=float)
            slopes = np.abs(np.diff(fx)) / grid.spacing
        bad = ~np.isfinite(fx)
        if bad.any():
            raise ConfigurationError(f"field is not finite on the grid: {fx[bad][0]} at "
                                     f"x = {grid.points[bad][0]:g}")
        # written so that a NaN hint fails it, as an infinite slope does
        if not float(np.max(slopes)) <= self.lipschitz_hint + 1e-9:
            raise ConfigurationError(
                f"field exceeds its Lipschitz hint: {np.max(slopes):.3g} > "
                f"{self.lipschitz_hint:.3g}")
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
        j, theta = g.interp_weights(self.flow(t, g.points))
        return _assemble_rows(g.size, np.column_stack([j, j + 1]),
                              np.column_stack([1.0 - theta, theta]), "renormalize")

    def _generator(self, u):
        d1, _, valid = _central(u.values, self.grid.spacing)
        return GeneratorResult(d1 * self.F(self.grid.points), valid)

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
            raise GridKindError("stable member needs a uniform periodic grid")
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

    def _apply_kernel(self, mult, values):
        return np.fft.irfft(np.fft.rfft(values) * mult, n=self.grid.size)

    def _generator(self, u):
        vals = self._apply_kernel(-np.abs(self._xi) ** (2.0 * self.alpha), u.values)
        return GeneratorResult(vals, np.ones(self.grid.size, dtype=bool))


def _poisson_pmf(k, mu):
    """Poisson(mu) probabilities of the counts k, by the log-space formula
    ``scipy.stats.poisson.pmf`` uses (same bits), without importing scipy.stats."""
    from scipy.special import gammaln, xlogy
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


class ChainOperator(TransitionOperator):
    """Finite-state member exp(tQ), computed by uniformization.

    Q must have nonnegative off-diagonal and nonpositive diagonal entries
    and conservative rows (Q 1 = 0).  The path sampler steps labels (states
    0.0, 1.0, ..., n-1 as floats) to labels.
    """

    lipschitz_exact = True

    def __init__(self, grid, Q):
        if grid.kind != "labels":
            raise GridKindError("chain member needs a label grid")
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (grid.size, grid.size):
            raise ConfigurationError("rate matrix shape mismatch")
        off = Q - np.diag(np.diag(Q))
        if np.min(off) < -1e-12 or np.max(np.diag(Q)) > 1e-12:
            raise ConfigurationError("need Q_ij >= 0 off-diagonal and Q_ii <= 0")
        if not np.max(np.abs(Q.sum(axis=1))) <= 1e-10:
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
        # sized before anything is allocated, in floats while it is too big
        k_max = gt + 12.0 * math.sqrt(gt) + 30.0
        if k_max <= MAX_KERNEL_WEIGHTS:
            k_max = int(k_max)
        summed = (k_max + 1) * n * n
        if not summed <= MAX_KERNEL_WEIGHTS:
            raise InvalidInputError(f"rate {self.rate:.3g} needs {summed:.3g} uniformization "
                                    f"weights, above the budget of {MAX_KERNEL_WEIGHTS}")
        pmf = _poisson_pmf(np.arange(k_max + 1), gt)
        acc = pmf[0] * np.eye(n)
        power = np.eye(n)
        for k in range(1, k_max + 1):
            power = power @ self.jump_matrix
            acc += pmf[k] * power
        acc /= acc.sum(axis=1, keepdims=True)
        return acc

    def _generator(self, u):
        return GeneratorResult(self.Q @ u.values, np.ones(self.grid.size, dtype=bool))

    def path_step(self, h):
        if h == 0.0:
            return _stay
        cum = np.cumsum(self.jump_matrix, axis=1)
        cum[:, -1] = 1.0
        mean_jumps = self.rate * h

        def step(states, rng):
            idx = states.astype(np.intp)        # the states are labels
            n_jumps = rng.poisson(mean_jumps, size=states.size)
            for j in range(int(n_jumps.max(initial=0))):
                active = n_jumps > j
                draws = rng.random(int(active.sum()))
                rows = cum[idx[active]]
                idx[active] = (rows < draws[:, None]).sum(axis=1)
            return idx.astype(float)
        return step


class ScaledOperator(TransitionOperator):
    """Time dilation of a base member: S_lambda(t) = S(lambda t).

    A member like any other, whose kernel at t is keyed, built and applied
    by the base's hooks at lambda t, and held and counted in its own store.
    At lambda = 0 it returns the values themselves and never reads the
    identity kernel it builds."""

    def __init__(self, base, scale):
        if not scale >= 0.0:
            raise ConfigurationError("scale must be >= 0")
        super().__init__(base.grid)
        self.base = base
        self.scale = float(scale)
        self.lipschitz_exact = base.lipschitz_exact
        self.name = f"scaled({base.name},{scale:g})"

    def _kernel_key(self, t):
        _check_duration(self.scale * t)     # refuse an overflow before a build
        return self.base._kernel_key(self.scale * t)

    def _build_matrix(self, t):
        return self.base._build_matrix(self.scale * t)

    def _apply_kernel(self, kernel, values):
        if self.scale == 0.0:       # to the bit, unlike a stable base's FFT
            return values
        return self.base._apply_kernel(kernel, values)

    def _generator(self, u):
        res = self.base._generator(u)
        return GeneratorResult(self.scale * res.values, res.valid)

    def path_step(self, h):
        return self.base.path_step(self.scale * h)


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
    """Nonempty finite collection of members sharing one grid, and one index
    through which they share kernels of equal keys (see ``matrix``); a member
    of several families shares through the one built last."""

    def __init__(self, members, bounds=None):
        members = list(members)
        if not members:
            raise ConfigurationError("family needs at least one member")
        grid = members[0].grid
        for m in members[1:]:
            if m.grid is not grid:
                raise ConfigurationError("all members must share one grid")
        self._index = _KernelIndex(members)
        for m in members:
            m._index = self._index
        self.members = members
        self.grid = grid
        self.bounds = bounds if bounds is not None else FamilyBounds()

    def plan(self, steps):
        """Drop each kernel from every store after its last planned lookup.
        ``steps`` maps a duration to the envelope steps a run will take there
        (an upper bound will do), each one lookup of every member at that
        duration, so a kernel key's count is summed over the members.  Keys
        outside the plan, and a family never given one, keep their kernels
        under ``KERNEL_CACHE_BYTES``.  A duration whose key a member refuses
        is left out: its lookup raises, naming the member."""
        plan = collections.Counter()
        for m in self.members:
            for h, count in steps.items():
                try:
                    plan[m._kernel_key(float(h))] += count
                except InvalidInputError:
                    pass
        self._index.plan = dict(plan)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def check(self, t, u):
        """``_check_input`` of t and u against the family's grid and weight."""
        _check_input(self.grid, t, u)

    def apply_all(self, t, u):
        """Stack of the members applied to u for duration t, shape (K, n): the
        family's one way to its members, after one ``check`` of t and u."""
        self.check(t, u)
        return np.stack([m.apply_values(t, u.values) for m in self.members])

    def generators(self, u):
        """The members' generators applied to u, one ``GeneratorResult`` each:
        the family's one way to them, after one ``check`` of u."""
        self.check(0.0, u)
        return [m._generator(u) for m in self.members]
