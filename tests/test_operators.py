import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nisio import (ChainOperator, ConfigurationError, FamilyBounds, GBMOperator,
                   GridFunction, HeatOperator, InvalidInputError, KoopmanOperator,
                   NumericalDegeneracyError, OUOperator, ScaledOperator,
                   SemigroupFamily, StableOperator, WeightedGrid, lip_seminorm,
                   quadrature_tolerance, weighted_norm)
from nisio import operators
from nisio.operators import (KERNEL_RADIUS, _assemble_rows, _exprel, _poisson_pmf,
                             _reflect_indices, gaussian_lattice_matrix,
                             lattice_kernel)
from nisio.probes import probe_function

from conftest import Q_BD


def winmax(grid, values, lo, hi):
    return float(np.max(np.abs(values)[grid.window_mask(lo, hi)]))


# ---------------------------------------------------------------------------
# shared member contracts
# ---------------------------------------------------------------------------

def _all_members(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
    return [
        HeatOperator(heat_grid, 0.7),
        GBMOperator(log_grid, 0.1, 0.2),
        OUOperator(ou_grid, -0.5, 0.2, 1.0),
        KoopmanOperator(ou_grid, lambda x: -x, 1.0),
        StableOperator(periodic_grid, 0.5),
        ChainOperator(label_grid, Q_BD),
        ScaledOperator(HeatOperator(heat_grid, 1.0), 0.5),
    ]


def test_identity_at_zero(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
    for op in _all_members(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
        u = probe_function("sin", op.grid)
        assert op.apply(0.0, u) is u


def test_mass_preserved(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
    for op in _all_members(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
        one = probe_function("const", op.grid)
        for t in (0.01, 0.25, 1.0):
            out = op.apply(t, one).values
            assert np.max(np.abs(out - 1.0)) < 1e-12, op.name


def test_monotone_and_linear(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
    rng = np.random.default_rng(1)
    for op in _all_members(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
        n = op.grid.size
        u = rng.standard_normal(n)
        v = u + rng.random(n)
        au = op.apply_values(0.3, u)
        av = op.apply_values(0.3, v)
        slack = float(np.min(av - au))
        tol = 1e-12 if not isinstance(op, StableOperator) else 1e-10
        assert slack >= -tol, op.name
        lin = op.apply_values(0.3, 2.0 * u - 0.5 * v)
        assert np.allclose(lin, 2.0 * au - 0.5 * av, atol=1e-10), op.name


def test_negative_duration_rejected(heat_grid):
    op = HeatOperator(heat_grid, 1.0)
    with pytest.raises(InvalidInputError):
        op.apply(-0.1, probe_function("sin", heat_grid))


@pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
def test_bad_duration_rejected_before_the_store(t, heat_grid, log_grid, ou_grid,
                                                periodic_grid, label_grid):
    for op in _all_members(heat_grid, log_grid, ou_grid, periodic_grid, label_grid):
        values = np.zeros(op.grid.size)
        for call in (op.matrix, lambda t: op.apply_values(t, values)):
            with pytest.raises(InvalidInputError, match="duration must be finite and >= 0"):
                call(t)
        stores = [op._cache, getattr(op, "base", op)._cache]
        assert stores == [{}, {}], op.name


def test_kernel_store_stays_within_its_byte_budget(monkeypatch):
    # 100 distinct durations whose kernels range from a 3-point stencil to a
    # dense matrix above the budget: held bytes never pass the budget but by
    # the kernel just returned, and the running total is the store's sum
    budget = 3 * 2 ** 20
    monkeypatch.setattr(operators, "KERNEL_CACHE_BYTES", budget)
    op = HeatOperator(WeightedGrid.uniform(-4.0, 4.0, 0.01, boundary="reflect"), 1.0)
    sizes, oversized = [], 0
    for t in np.geomspace(1e-6, 1.0, 100).tolist():
        kernel = op.matrix(t)
        held = sum(operators._nbytes(k) for k in op._cache.values())
        assert op._held == held
        assert held <= budget or list(op._cache) == [t]
        assert list(op._cache)[-1] == t and op._cache[t] is kernel
        sizes.append(len(op._cache))
        oversized += held > budget
    assert oversized and max(sizes) > 2
    # a hit moves its duration to the back, so the next eviction spares it
    stencil = operators._nbytes(op.matrix(1e-6))
    monkeypatch.setattr(operators, "KERNEL_CACHE_BYTES", 2 * stencil)
    op = HeatOperator(op.grid, 1.0)
    first = op.matrix(1e-6)
    op.matrix(2e-6)
    assert op.matrix(1e-6) is first
    op.matrix(3e-6)
    assert list(op._cache) == [1e-6, 3e-6] and op._held == 2 * stencil


def test_stable_apply_is_the_fft_formula(periodic_grid):
    # the multiplier comes from the store; the product is the same to the bit
    alpha, n = 0.7, periodic_grid.size
    op = StableOperator(periodic_grid, alpha)
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, periodic_grid.spacing)
    v = np.random.default_rng(3).standard_normal(n)
    for t in (0.3, 1.0, 0.3):
        mult = np.exp(-t * np.abs(xi) ** (2.0 * alpha))
        mult[0] = 1.0
        ref = np.fft.irfft(np.fft.rfft(v) * mult, n=n)
        assert np.array_equal(op.apply_values(t, v), ref)
        assert np.array_equal(ScaledOperator(op, 2.0).apply_values(t / 2.0, v), ref)
    assert sorted(op._cache) == [0.3, 1.0]


def test_composition_defect_small(heat_family):
    assert quadrature_tolerance(heat_family) <= 1e-10


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------

def test_heat_second_moment(heat_grid):
    op = HeatOperator(heat_grid, 1.0)
    u = probe_function("quadratic", heat_grid)
    out = op.apply(0.5, u).values
    assert winmax(heat_grid, out - (heat_grid.points ** 2 + 0.5), -2, 2) < 1e-9


def test_heat_fourier_mode(heat_grid):
    op = HeatOperator(heat_grid, 1.0)
    u = probe_function("cos", heat_grid)
    out = op.apply(1.0, u).values
    oracle = np.exp(-0.5) * np.cos(heat_grid.points)
    assert winmax(heat_grid, out - oracle, -2, 2) < 1e-6


def test_heat_small_variance_stencil(heat_grid):
    # below one cell the moment-matched stencil takes over; x^2 stays exact
    op = HeatOperator(heat_grid, 0.5)
    t = 1e-4 / 0.25 / 2.0   # var = 5e-5 < dx^2 = 1e-4
    u = probe_function("quadratic", heat_grid)
    out = op.apply(t, u).values
    assert winmax(heat_grid, out - (heat_grid.points ** 2 + 0.25 * t), -6, 6) < 1e-12


def test_heat_sigma_zero_is_identity(heat_grid):
    op = HeatOperator(heat_grid, 0.0)
    u = probe_function("sin", heat_grid)
    assert np.array_equal(op.apply(0.7, u).values, u.values)


# ---------------------------------------------------------------------------
# lattice kernels built directly, against the per-row COO assembly
# ---------------------------------------------------------------------------

def _coo_rows(n, cols_raw, weights, mode):
    """COO assembly of banded rows with boundary handling.

    cols_raw has shape (n, bandwidth); out-of-range columns are folded back
    (``reflect``), wrapped (``wrap``), or dropped (``renormalize``).  Rows are
    rescaled to sum to exactly one.
    """
    if mode == "reflect":
        cols = _reflect_indices(cols_raw, n)
    elif mode == "wrap":
        cols = np.mod(cols_raw, n)
    elif mode == "renormalize":
        inside = (cols_raw >= 0) & (cols_raw < n)
        weights = np.where(inside, weights, 0.0)
        cols = np.clip(cols_raw, 0, n - 1)
    else:
        raise ConfigurationError(f"unknown boundary mode {mode!r}")
    rows = np.repeat(np.arange(n), cols_raw.shape[1])
    mat = sp.coo_matrix((weights.ravel(), (rows, cols.ravel())), shape=(n, n)).tocsr()
    sums = np.asarray(mat.sum(axis=1)).ravel()
    if np.any(sums <= 0.0):
        raise NumericalDegeneracyError("kernel row lost all mass")
    return sp.diags(1.0 / sums) @ mat


def _coo_gaussian(n, dx, std, mode):
    """Oracle for the band path: every row holds its own band of Gaussian
    weights, assembled by ``_coo_rows``."""
    k = int(math.ceil(KERNEL_RADIUS * std / dx)) + 1
    cols = np.arange(n)[:, None] + np.arange(-k, k + 1)[None, :]
    dist = cols * dx - (np.arange(n) * dx)[:, None]
    return _coo_rows(n, cols, np.exp(-0.5 * (dist / std) ** 2), mode)


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


def _check_against_oracle(mat, ref, rng):
    n = ref.shape[0]
    assert np.max(np.abs(_dense(mat) - ref.toarray())) <= 1e-13
    u = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    assert np.max(np.abs(mat @ u - ref @ u)) <= 1e-12 * np.max(np.abs(u))
    # storage: dense exactly when it takes no more bytes than CSR would
    csr_bytes = 12 * ref.nnz + 4 * (n + 1)
    assert isinstance(mat, np.ndarray) == (8 * n * n <= csr_bytes)
    if isinstance(mat, sp.dia_matrix):
        # one diagonal per offset, ascending, so each row sums its terms in
        # ascending column order as CSR does: fewer bytes, the same bits
        assert np.all(np.diff(mat.offsets) > 0)
        assert operators._nbytes(mat) < csr_bytes
        assert np.array_equal((mat @ u).view(np.int64), (mat.tocsr() @ u).view(np.int64))
    elif sp.issparse(mat):
        ref = ref.sorted_indices()
        assert mat.has_canonical_format     # sorted, no duplicates
        assert np.array_equal(mat.indptr, ref.indptr)
        assert np.array_equal(mat.indices, ref.indices)


# std/dx from just above one cell to a band that wraps the lattice many
# times; the oracle's n x (2k+1) arrays cap the ratio on the large lattices
BAND_RATIOS = (1.01, 1.7, 3.3, 12.5, 40.0, 99.0, 180.0, 700.0, 2000.0)
ORACLE_ENTRIES = 3.3e6


@pytest.mark.parametrize("mode", ["reflect", "wrap", "renormalize"])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 801, 1601])
def test_band_kernel_matches_coo_assembly(mode, n):
    rng = np.random.default_rng(n)
    dx = 0.01
    formats = set()
    for ratio in BAND_RATIOS:
        if n * (2 * ratio * KERNEL_RADIUS + 5) > ORACLE_ENTRIES:
            continue
        mat = gaussian_lattice_matrix(n, dx, 0.0, ratio * dx, mode)
        _check_against_oracle(mat, _coo_gaussian(n, dx, ratio * dx, mode), rng)
        formats.add(type(mat))
    if n >= 801:
        assert formats == {np.ndarray, sp.csr_matrix if mode == "wrap" else sp.dia_matrix}


def test_band_kernel_serves_zero_offset_members(monkeypatch):
    def refuse(*args):
        raise AssertionError("zero-offset kernel assembled row by row")

    monkeypatch.setattr(operators, "_assemble_rows", refuse)
    rng = np.random.default_rng(3)
    grids = {"reflect": WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect"),
             "renormalize": WeightedGrid.uniform(-8.0, 8.0, 0.01),
             "wrap": WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 256.0,
                                          periodic=True)}
    for mode, g in grids.items():
        for sigma, t in ((1.0, 1.0), (0.5, 1.0 / 64), (1.0, 0.002), (0.05, 1.0)):
            if sigma ** 2 * t <= g.spacing ** 2:
                continue
            mat = HeatOperator(g, sigma).matrix(t)
            std = sigma * math.sqrt(t)
            _check_against_oracle(mat, _coo_gaussian(g.size, g.spacing, std, mode), rng)
    # the OU member with B=0, m=0 has offsets means - points that are all 0.0
    g = grids["reflect"]
    ou = OUOperator(g, 0.0, 0.0, 0.5)
    for t in (0.25, 1.0):
        mat = ou.matrix(t)
        std = math.sqrt(ou.moments(t)[2])
        _check_against_oracle(mat, _coo_gaussian(g.size, g.spacing, std, "reflect"), rng)


def _ou_bench_member(boundary="reflect"):
    """The first member of bench/configs/ou.json, on its grid."""
    return OUOperator(WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary=boundary),
                      -0.5, 0.2, 1.0)


def _gbm_shifted_member():
    """A log-grid member whose kernel at t=1e-3 is below one cell, with a
    drift of 0.6 cells."""
    return GBMOperator(WeightedGrid.loggrid(8.0, 1e-2, 800, boundary="reflect"), 5.0, 0.2)


@pytest.fixture(scope="module")
def monotone_members():
    return {"heat": HeatOperator(WeightedGrid.uniform(-2.0, 2.0, 0.01, boundary="reflect"), 1.0),
            "ou": _ou_bench_member(),
            "gbm": _gbm_shifted_member()}


# (member, duration, stored dense); the heat cases are named by their std
@pytest.mark.parametrize("member, t, dense", [
    pytest.param("heat", 0.03 ** 2, False, id="0.03"),
    pytest.param("heat", 1.0, True, id="1.0"),
    pytest.param("heat", 0.5 * 0.01 ** 2, False, id="heat-sub-cell"),
    pytest.param("gbm", 1e-3, False, id="gbm-sub-cell"),
    pytest.param("ou", 0.25, False, id="ou-0.25"),
    pytest.param("ou", 1.0, True, id="ou-1.0"),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_band_kernel_exactly_monotone(monotone_members, member, t, dense, data):
    # u <= v must give A u <= A v bit for bit, in either storage
    op = monotone_members[member]
    mat = op.matrix(t)
    assert isinstance(mat, np.ndarray) == dense
    assert np.min(_dense(mat)) >= 0.0
    u = data.draw(arrays(np.float64, op.grid.size, elements=st.floats(-1e6, 1e6)))
    lift = data.draw(arrays(np.float64, op.grid.size, elements=st.floats(0.0, 1e3)))
    v = u + lift
    assert np.all(mat @ v - mat @ u >= 0.0)


# id -> (member factory, duration) whose matrix is assembled row by row
ROW_KERNELS = {
    **{f"ou-{b}-{t}": (lambda b=b: _ou_bench_member(b), t)
       for b in ("reflect", "renormalize") for t in (0.25, 1.0)},
    "gbm-shifted-stencil": (_gbm_shifted_member, 1e-3),
    "heat-stencil-wrap": (lambda: HeatOperator(
        WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 256.0, periodic=True), 1.0), 1e-4),
    "ou-interp-stencil": (lambda: OUOperator(
        WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect"), -0.5, 0.2, 1e-6), 0.5),
    "koopman": (lambda: KoopmanOperator(
        WeightedGrid.uniform(-8.0, 8.0, 0.01), lambda x: -x + 0.3 * np.sin(x), 1.3), 0.5),
    # the zero-covariance member of the 2D case this id once held, on its
    # first axis: its rows interpolate the flowed point linearly
    "ou-2d-bilinear": (lambda: OUOperator(
        WeightedGrid.uniform(-1.0, 1.0, 0.5), -0.3, 0.15, 0.0), 0.7),
}


@pytest.mark.parametrize("case", sorted(ROW_KERNELS))
def test_row_kernel_matches_coo_assembly(case, monkeypatch):
    # the same rows go through the direct assembly and the COO oracle
    calls = []
    direct = operators._assemble_rows

    def spy(*args):
        # the assembly consumes its weights: the oracle gets the rows as built
        kept = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        calls.append((kept, direct(*args)))
        return calls[-1][1]

    monkeypatch.setattr(operators, "_assemble_rows", spy)
    member, t = ROW_KERNELS[case]
    member().matrix(t)
    [(args, mat)] = calls
    assert isinstance(mat, (np.ndarray, sp.csr_matrix))
    _check_against_oracle(mat, _coo_rows(*args), np.random.default_rng(7))
    if case.startswith("ou-re"):
        assert isinstance(mat, np.ndarray) == (t == 1.0)


@pytest.mark.parametrize("boundary", ["renormalize", "reflect"])
def test_kernel_row_lost_all_mass(boundary):
    # the mean lands ~1000 past the lattice: every weight underflows to zero
    op = OUOperator(WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary=boundary), 0.0, 1000.0, 0.01)
    with pytest.raises(NumericalDegeneracyError, match="kernel row lost all mass"):
        op.matrix(1.0)


def test_offset_kernel_build_memory():
    # the per-row Gaussian path holds few n x bandwidth temporaries at once
    peaks = {}
    for boundary in ("reflect", "renormalize"):
        op = _ou_bench_member(boundary)
        tracemalloc.start()
        try:
            mat = op.matrix(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(mat, np.ndarray)
        assert peak <= 5 * mat.nbytes, (boundary, peak / mat.nbytes)
        peaks[boundary] = peak
    # dropping the off-lattice weights costs no second weights array
    assert peaks["renormalize"] <= 1.01 * peaks["reflect"], peaks


def test_kernel_weight_budget_is_checked_before_allocating():
    # B = 5 on the README grid: std 47, a 1601 x 93865 weight array (1.2 GB);
    # heat with sigma 1e7: a band of 2e11 weights
    g = WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect")
    for op, name in ((OUOperator(g, 5.0, 0.0, 1.0), "ou(B=5,m=0,C=1)"),
                     (HeatOperator(g, 1e7), "heat(sigma=1e+07)")):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError,
                               match=rf"^{re.escape(name)} at duration 1: .* above the "
                                     rf"budget of {operators.MAX_KERNEL_WEIGHTS}$"):
                op.matrix(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert op._cache == {} and op._held == 0


@pytest.mark.parametrize("shifted", [False, True])
def test_kernel_weight_budget_is_exact(shifted, monkeypatch):
    # std = dx/2: reach 5 cells exactly, k = 6, so 13 weights per row held
    n, held = 17, 13 * (17 if shifted else 1)
    offsets = np.where(np.arange(n) == 3, 0.1, 0.0) if shifted else 0.0
    monkeypatch.setattr(operators, "MAX_KERNEL_WEIGHTS", held)
    gaussian_lattice_matrix(n, 0.25, offsets, 0.125, "reflect")
    monkeypatch.setattr(operators, "MAX_KERNEL_WEIGHTS", held - 1)
    with pytest.raises(InvalidInputError, match=f"needs {held} Gaussian weights"):
        gaussian_lattice_matrix(n, 0.25, offsets, 0.125, "reflect")


# ---------------------------------------------------------------------------
# sub-cell kernels: the interpolation stencil behind lattice_kernel
# ---------------------------------------------------------------------------

def stencil_lattice_matrix(n, dx, means_offset, var, mode):
    """Monotone 3-point kernel matching the first two moments.

    Used when the kernel width is at or below one cell.  The mean offset is
    split into a whole-cell shift plus a remainder; the remainder and the
    variance go into the stencil.  Nonnegativity is enforced by clamping,
    which biases the variance by at most one under-resolved cell.
    """
    offsets = np.broadcast_to(np.asarray(means_offset, dtype=float), (n,)).copy()
    var = np.broadcast_to(np.asarray(var, dtype=float), (n,))
    k0 = np.rint(offsets / dx).astype(int)
    rem = offsets - k0 * dx
    w_plus = (var + rem ** 2 + rem * dx) / (2.0 * dx * dx)
    w_minus = (var + rem ** 2 - rem * dx) / (2.0 * dx * dx)
    # clamp: keep the mean exact, give up variance below the resolvable floor
    neg = w_minus < 0.0
    w_plus = np.where(neg, rem / dx, w_plus)
    w_minus = np.where(neg, 0.0, w_minus)
    neg = w_plus < 0.0
    w_minus = np.where(neg, -rem / dx, w_minus)
    w_plus = np.where(neg, 0.0, w_plus)
    w_mid = 1.0 - w_plus - w_minus
    if np.any(w_mid < -1e-12):
        raise NumericalDegeneracyError("stencil kernel not monotone; step too large")
    w_mid = np.maximum(w_mid, 0.0)
    cols_raw = (np.arange(n) + k0)[:, None] + np.array([-1, 0, 1])[None, :]
    weights = np.column_stack([w_minus, w_mid, w_plus])
    return _assemble_rows(n, cols_raw, weights, mode)


@pytest.mark.parametrize("mode", ["reflect", "wrap", "renormalize"])
def test_heat_sub_cell_matches_three_point_stencil(mode):
    # with zero offsets the interpolation stencil is the old 3-point kernel
    # [a, 1-2a, a]; 1 - 2a and (1 - a) - a may differ in the last bit
    if mode == "wrap":
        g = WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 64.0, periodic=True)
    else:
        g = WeightedGrid.uniform(-2.0, 2.0, 0.1, boundary=mode)
    n, dx = g.size, g.spacing
    rng = np.random.default_rng(11)
    for var in np.concatenate(([0.0, dx * dx], rng.random(298) * dx * dx)):
        mat = HeatOperator(g, 1.0).matrix(var)
        ref = stencil_lattice_matrix(n, dx, 0.0, var, mode)
        assert np.max(np.abs(_dense(mat) - _dense(ref))) <= 2.3e-16, var


def _row_moments(mat, rows):
    """Weights, sums, mean and variance of the given rows, in cells about
    each row's own node."""
    w = _dense(mat)[rows]
    lag = np.arange(w.shape[1])[None, :] - np.asarray(rows)[:, None]
    sums = w.sum(axis=1)
    mean = (w * lag).sum(axis=1) / sums
    var = (w * (lag - mean[:, None]) ** 2).sum(axis=1) / sums
    return w, sums, mean, var


@pytest.mark.parametrize("mode", ["reflect", "wrap", "renormalize"])
@pytest.mark.parametrize("offset", [-2.7, -0.5, 0.0, 0.3, 0.5, 1.5, 3.2])
def test_sub_cell_kernel_moments(mode, offset):
    # interior rows: nonnegative, conservative, exact mean, and the variance
    # the lattice can hold, max(var, theta (1 - theta)) in cells^2
    n, dx = 41, 0.05
    theta = offset - math.floor(offset)
    rows = np.arange(6, n - 6)
    for ratio in (0.0, 0.1, 0.5, 0.99, 1.0):
        mat = lattice_kernel(n, dx, offset * dx, ratio * dx * dx, mode)
        w, sums, mean, var = _row_moments(mat, rows)
        assert np.min(w) >= 0.0
        assert np.max(np.abs(sums - 1.0)) <= 1e-15
        assert np.max(np.abs(mean - offset)) <= 1e-12
        assert np.max(np.abs(var - max(ratio, theta * (1.0 - theta)))) <= 1e-12


def test_gbm_zero_volatility_on_renormalized_log_grid():
    # sigma = 0: every row is a pure shift of 0.01 in log|x|, which leaves
    # the lattice at the top rows; those targets clamp to the end node
    g = WeightedGrid.loggrid(8.0, 1e-2, 800)
    op = GBMOperator(g, 0.02, 0.0)
    mat = op.matrix(0.5)
    assert mat.min() >= 0.0
    assert np.max(np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0)) <= 1e-15
    n = op._n_side
    s = np.log(g.points[n + 1:])
    moved = mat[n + 1:, n + 1:] @ s
    assert np.max(np.abs(moved - np.minimum(s + 0.01, s[-1]))) <= 1e-12


@pytest.mark.parametrize("boundary", ["reflect", "renormalize"])
def test_gbm_near_cell_variance_with_half_cell_drift(boundary):
    # sigma^2 t = 0.99 ds^2 and a log drift of 1.5 ds: no 3-point kernel
    # centered on a node holds both moments with nonnegative weights
    g = WeightedGrid.loggrid(8.0, 1e-2, 200, boundary=boundary)
    ds = g.spacing
    sigma = math.sqrt(0.99) * ds
    op = GBMOperator(g, 1.5 * ds + 0.5 * sigma ** 2, sigma)
    mat = op.matrix(1.0)
    assert mat.min() >= 0.0
    n = op._n_side
    w, sums, mean, var = _row_moments(mat[n + 1:, n + 1:], np.arange(5, n - 5))
    assert np.max(np.abs(sums - 1.0)) <= 1e-15
    assert np.max(np.abs(mean - 1.5)) <= 1e-12
    assert np.max(np.abs(var - 0.99)) <= 1e-12


# ---------------------------------------------------------------------------
# geometric member on the log grid
# ---------------------------------------------------------------------------

def _gbm_window(log_grid, sigma, t):
    # rows whose kernel band stays inside the log lattice
    margin = 10.0 * sigma * np.sqrt(t) + 0.15
    lo = 1e-2 * np.exp(margin)
    hi = 8.0 * np.exp(-margin)
    m = (np.abs(log_grid.points) >= lo) & (np.abs(log_grid.points) <= hi)
    assert m.any()
    return m


def test_gbm_mean(log_grid):
    op = GBMOperator(log_grid, 0.1, 0.2)
    u = probe_function("linear", log_grid)
    out = op.apply(1.0, u).values
    err = np.abs(out - log_grid.points * np.exp(0.1))
    assert np.max(err[_gbm_window(log_grid, 0.2, 1.0)]) < 1e-8


def test_gbm_second_moment(log_grid):
    op = GBMOperator(log_grid, 0.1, 0.2)
    u = probe_function("quadratic", log_grid)
    out = op.apply(1.0, u).values
    err = np.abs(out - log_grid.points ** 2 * np.exp(0.24))
    assert np.max(err[_gbm_window(log_grid, 0.2, 1.0)]) < 1e-7


def test_gbm_zero_is_fixed_point(log_grid):
    op = GBMOperator(log_grid, 0.3, 0.4)
    u = probe_function("sin", log_grid)
    i0 = log_grid.size // 2
    assert op.apply(1.0, u).values[i0] == u.values[i0]


def test_gbm_zero_shift_dense_block(log_grid):
    # mu = sigma^2/2 cancels the log drift: the block is a band, dense at
    # sigma 0.4, t 1 and DIA at sigma 0.2, t 0.01
    u = np.random.default_rng(5).standard_normal(log_grid.size)
    n, ds = (log_grid.size - 1) // 2, log_grid.spacing
    for sigma, t, block_type in ((0.4, 1.0, np.ndarray), (0.2, 0.01, sp.dia_matrix)):
        op = GBMOperator(log_grid, 0.5 * sigma ** 2, sigma)
        std = math.sqrt(sigma ** 2 * t)     # as lattice_kernel takes it
        band = gaussian_lattice_matrix(n, ds, 0.0, std, "reflect")
        assert isinstance(band, block_type)
        mat = op.matrix(t)
        assert isinstance(mat, sp.csr_matrix)
        block = _coo_gaussian(n, ds, std, "reflect")
        ref = sp.block_diag([block[::-1, ::-1], sp.identity(1), block]).toarray()
        assert np.max(np.abs(mat.toarray() - ref)) <= 1e-13
        assert np.max(np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0)) <= 1e-13
        assert mat.min() >= 0.0
        # every entry of the band, in ascending column order: the same bits
        # as the CSR of its dense form
        csr = sp.csr_matrix(_dense(band))
        same = sp.block_diag([csr[::-1, ::-1], sp.identity(1), csr], format="csr")
        assert np.array_equal((mat @ u).view(np.int64), (same @ u).view(np.int64))


@pytest.mark.parametrize("mu, sigma, ulps", [(0.02, 0.2, -1), (0.08, 0.4, -1),
                                              (0.03125, 0.25, 0)])
def test_gbm_decimal_zero_drift_takes_the_band(mu, sigma, ulps, monkeypatch):
    # mu = sigma^2/2 written in decimals leaves a log drift of one ulp of mu
    # (-3.5e-18 for (0.02, 0.2)); it is rounding, so the block is the
    # zero-offset DIA band, not a CSR of shifted rows, and the generator and
    # the sampler see no drift either.  (0.03125, 0.25) cancels exactly.
    raw = mu - 0.5 * sigma ** 2
    assert raw == ulps * np.spacing(mu)
    blocks = []
    build = operators.lattice_kernel
    monkeypatch.setattr(operators, "lattice_kernel",
                        lambda *args: blocks.append(build(*args)) or blocks[-1])
    g = WeightedGrid.loggrid(8.0, 1e-2, 200, boundary="reflect")
    op = GBMOperator(g, mu, sigma)
    mat = op.matrix(0.1)
    [block] = blocks
    assert isinstance(block, sp.dia_matrix)
    n = op._n_side
    band = gaussian_lattice_matrix(n, g.spacing, 0.0, math.sqrt(sigma ** 2 * 0.1), "reflect")
    assert np.array_equal(block.data.view(np.int64), band.data.view(np.int64))
    assert np.array_equal(mat.toarray(), sp.block_diag(
        [band.tocsr()[::-1, ::-1], sp.identity(1), band.tocsr()]).toarray())
    u = probe_function("sin", g)
    d2 = np.zeros(g.size)
    for side in (slice(0, n), slice(n + 1, 2 * n + 1)):
        v = u.values[side]
        d2[side][1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (g.spacing * g.spacing)
    assert np.array_equal(op.generator(u).values, 0.5 * sigma ** 2 * d2)
    states = np.linspace(0.5, 2.0, 7)
    vol = sigma * math.sqrt(0.1)
    z = np.random.default_rng(4).standard_normal(states.size)
    assert np.array_equal(op.path_step(0.1)(states, np.random.default_rng(4)),
                          states * np.exp(0.0 + vol * z))


def test_gbm_small_true_drift_is_kept():
    # a drift of a few hundred ulps is the law's own: rows keep their shift
    mu = 0.02 + 1e-15
    op = GBMOperator(WeightedGrid.loggrid(8.0, 1e-2, 200, boundary="reflect"), mu, 0.2)
    assert op._drift == mu - 0.5 * 0.2 ** 2 != 0.0
    assert isinstance(gaussian_lattice_matrix(100, op.grid.spacing, op._drift * 0.1,
                                              math.sqrt(0.004), "reflect"), sp.csr_matrix)


def test_gbm_weighted_norm_growth(log_grid):
    # growth rate of the weighted norm is at most p*(|mu| + sigma^2/2)
    mu, sigma, p = 0.1, 0.2, 2.0
    op = GBMOperator(log_grid, mu, sigma)
    beta = abs(mu) + 0.5 * sigma ** 2
    u = probe_function("quadratic", log_grid)
    for t in (0.25, 1.0):
        grow = weighted_norm(op.apply(t, u)) / weighted_norm(u)
        assert grow <= np.exp(p * beta * t) + 1e-6


# ---------------------------------------------------------------------------
# linear-drift Gaussian member
# ---------------------------------------------------------------------------

def test_ou_degenerate_identity(ou_grid):
    op = OUOperator(ou_grid, 0.0, 0.0, 0.0)
    u = probe_function("sin", ou_grid)
    assert np.allclose(op.apply(0.5, u).values, u.values, atol=1e-14)


def test_ou_pure_drift(ou_grid):
    op = OUOperator(ou_grid, 0.0, 1.0, 0.0)
    u = probe_function("linear", ou_grid)
    out = op.apply(0.5, u).values
    mask = ou_grid.window_mask(-7, 7)
    assert np.max(np.abs(out - (ou_grid.points + 0.5))[mask]) < 1e-12


def test_ou_brownian_moment(ou_grid):
    op = OUOperator(ou_grid, 0.0, 0.0, 1.0)
    u = probe_function("quadratic", ou_grid)
    out = op.apply(1.0, u).values
    assert winmax(ou_grid, out - (ou_grid.points ** 2 + 1.0), -2, 2) < 1e-6


def test_ou_mean_reversion_moments(ou_grid):
    b, m, c, t = -0.5, 0.2, 1.0, 0.7
    op = OUOperator(ou_grid, b, m, c)
    M, drift, var = op.moments(t)
    assert M == pytest.approx(np.exp(b * t), rel=1e-12)
    assert drift == pytest.approx(m / b * (np.exp(b * t) - 1.0), rel=1e-9)
    assert var == pytest.approx(c / (2 * abs(b)) * (1 - np.exp(2 * b * t)), rel=1e-9)


@pytest.mark.parametrize("b, m, c, t", [(-0.5, 0.2, 1.0, 0.7), (-0.5, 1e-6, 1e-6, 1.0),
                                        (-50.0, 1.0, 1.0, 1.0)],
                         ids=["bench", "tiny-m-C", "stiff"])
def test_ou_moments_match_closed_forms(ou_grid, b, m, c, t):
    M, drift, var = OUOperator(ou_grid, b, m, c).moments(t)
    assert M == pytest.approx(np.exp(b * t), rel=1e-13, abs=0.0)
    assert drift == pytest.approx(m * np.expm1(b * t) / b, rel=1e-13, abs=0.0)
    assert var == pytest.approx(c * np.expm1(2.0 * b * t) / (2.0 * b), rel=1e-13, abs=0.0)


def test_exprel_matches_scipy_special_bit_for_bit():
    # finite arguments: uniform in [-5, 5], tiny ones around the
    # machine-epsilon switch, large ones up to the overflow of exp and past it
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    xs = np.concatenate([
        rng.uniform(-5.0, 5.0, 20_000), rng.uniform(-1e-12, 1e-12, 2_000),
        rng.uniform(-50.0, 709.0, 2_000),
        [0.0, -0.0, 1e-16, -1e-16, eps, -eps, 0.999 * eps, -0.999 * eps, 1e-300,
         -745.0, -800.0, 709.0, 709.78, 710.0, 717.0, 800.0]])
    ours = np.array([_exprel(x) for x in xs.tolist()])
    assert np.array_equal(ours.view(np.int64), scipy.special.exprel(xs).view(np.int64))


def test_ou_2d_moments_match_quadrature():
    # an OU member takes numbers (a 2D member is refused at construction,
    # see test_ou_rejects_a_member_of_dimension_two); its closed-form moments
    # match the quadrature of their defining integrals
    b, m, c = -0.3, 0.15, 1.0
    op = OUOperator(WeightedGrid.uniform(-5.0, 5.0, 0.2), b, m, c)
    for t in (0.25, 0.7, 1.0):
        moments = op.moments(t)
        refs = (np.exp(t * b),
                scipy.integrate.quad(lambda s: np.exp(s * b) * m, 0.0, t, epsrel=1e-14)[0],
                scipy.integrate.quad(lambda s: np.exp(2.0 * s * b) * c, 0.0, t,
                                     epsrel=1e-14)[0])
        for got, ref in zip(moments, refs):
            assert abs(got - ref) <= 1e-13 * abs(ref)


def test_ou_zero_drift_matrix_moments_are_exact():
    # B = 0 gives (1, m t, C t) bit for bit, at any duration
    g = WeightedGrid.uniform(-8.0, 8.0, 0.01)
    rng = np.random.default_rng(0)
    for m, c, t in [(0.0, 0.5, 0.25), (0.3, 0.7, 0.1),
                    *rng.uniform([-2.0, 0.1, 0.01], [2.0, 2.0, 2.0], size=(200, 3))]:
        assert OUOperator(g, 0.0, m, c).moments(t) == (1.0, m * t, c * t)


def test_ou_rejects_non_psd(ou_grid):
    with pytest.raises(ConfigurationError):
        OUOperator(ou_grid, 0.0, 0.0, -1.0)


def test_ou_rejects_a_member_of_dimension_two(ou_grid):
    # a well-formed 2 x 2 member is refused: B, m and C are numbers
    with pytest.raises(ConfigurationError,
                       match=r"^OU coefficients B, m and C must be numbers$"):
        OUOperator(ou_grid, -np.eye(2), np.zeros(2), np.eye(2))


def test_ou_refuses_the_one_by_one_forms(ou_grid):
    with pytest.raises(ConfigurationError,
                       match=r"^OU coefficients B, m and C must be numbers$"):
        OUOperator(ou_grid, [[-0.5]], [0.2], [[1.0]])


def test_ou_2d_drift_and_diffusion():
    # the drift-only and diffusion-only members, on the first axis of the
    # deleted 2D case: they shift x by m t and add c t to x^2 away from the ends
    g = WeightedGrid.uniform(-5.0, 5.0, 0.2)
    drift = OUOperator(g, 0.0, 0.5, 0.0)
    out = drift.apply(1.0, GridFunction(g.points.copy(), g)).values
    assert np.max(np.abs(out - (g.points + 0.5))[g.window_mask(-4, 4)]) < 1e-10

    diff = OUOperator(g, 0.0, 0.0, 1.0)
    out = diff.apply(0.25, GridFunction(g.points ** 2, g)).values
    assert np.max(np.abs(out - (g.points ** 2 + 0.25))[g.window_mask(-2, 2)]) < 1e-6


def test_ou_2d_pure_drift_is_bilinear_interpolation():
    # zero covariance: each row interpolates the flowed point linearly, the
    # 1D form of the deleted 2D member's bilinear rows (its first axis here)
    g = WeightedGrid.uniform(-1.0, 1.0, 0.5)
    op = OUOperator(g, -0.3, 0.15, 0.0)
    t = 0.7
    M, drift, _ = op.moments(t)
    oracle = np.zeros((g.size, g.size))
    for r, x in enumerate(g.points):
        y = min(max(M * x + drift, g.points[0]), g.points[-1])
        j = min(int(np.searchsorted(g.points, y, side="right")) - 1, g.size - 2)
        theta = (y - g.points[j]) / (g.points[j + 1] - g.points[j])
        oracle[r, j] += 1.0 - theta
        oracle[r, j + 1] += theta
    mat = _dense(op.matrix(t))
    assert np.allclose(mat, oracle, rtol=0.0, atol=1e-15)
    assert np.allclose(mat.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("budget", [11 ** 4 - 1, 11 ** 4])
def test_ou_2d_dense_kernel_checks_the_weights_budget_first(monkeypatch, budget):
    # a 121-node member (the size of the deleted 11 x 11 case) whose shifted
    # kernel holds 121^2 Gaussian weights: std 0.585 reaches 58.5 cells, so
    # 2 * 59 + 3 = 121 per row; past the budget the build is rejected before
    # any 121 x 121 array exists
    op = OUOperator(WeightedGrid.uniform(-6.0, 6.0, 0.1), 0.0, 0.2, 1.3689)
    monkeypatch.setattr(operators, "MAX_KERNEL_WEIGHTS", budget)
    if budget >= op.grid.size ** 2:
        assert op.matrix(0.25).shape == (121, 121)
        return
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError) as exc:
            op.matrix(0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("ou(B=0,m=0.2,C=1.3689) at duration 0.25: kernel of std "
                              "0.585 needs 1.46e+04 Gaussian weights, above the budget "
                              "of 14640")
    assert peak < 8 * 121 ** 2


def test_ou_2d_anisotropic_degenerate_rejected(ou_grid):
    # the degenerate anisotropic 2D member, whose kernel failed at every fine
    # step, is refused: B, m and C are numbers
    with pytest.raises(ConfigurationError,
                       match=r"^OU coefficients B, m and C must be numbers$"):
        OUOperator(ou_grid, np.zeros((2, 2)), [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# deterministic flow member
# ---------------------------------------------------------------------------

def test_koopman_zero_field(ou_grid):
    op = KoopmanOperator(ou_grid, lambda x: np.zeros_like(x))
    u = probe_function("sin", ou_grid)
    assert np.allclose(op.apply(1.0, u).values, u.values, atol=1e-14)


def test_koopman_linear_flow(ou_grid):
    op = KoopmanOperator(ou_grid, lambda x: -x, 1.0)
    u = probe_function("linear", ou_grid)
    out = op.apply(1.0, u).values
    assert np.max(np.abs(out - ou_grid.points * np.exp(-1.0))) < 1e-8


def test_koopman_translation(ou_grid):
    op = KoopmanOperator(ou_grid, lambda x: np.ones_like(x))
    u = probe_function("linear", ou_grid)
    out = op.apply(0.5, u).values
    mask = ou_grid.window_mask(-7, 7)
    assert np.max(np.abs(out - (ou_grid.points + 0.5))[mask]) < 1e-10


def test_koopman_exit_flagging():
    # the unit translation carries the points above 1 - t off [-1, 1]
    g = WeightedGrid.uniform(-1.0, 1.0, 0.01)
    op = KoopmanOperator(g, lambda x: np.ones_like(x))
    y = op.flow(0.5, g.points)
    exits = (y < g.points[0]) | (y > g.points[-1])
    assert np.all(exits[g.points > 0.5]) and not np.any(exits[g.points < 0.5])


def test_koopman_lipschitz_flow(ou_grid):
    beta = 1.3   # max |-1 + 0.3 cos x|
    op = KoopmanOperator(ou_grid, lambda x: -x + 0.3 * np.sin(x), beta)
    u = probe_function("sin", ou_grid)
    for t in (0.25, 1.0):
        assert lip_seminorm(op.apply(t, u)) <= np.exp(beta * t) * lip_seminorm(u) + 1e-9


# ---------------------------------------------------------------------------
# spectral jump member
# ---------------------------------------------------------------------------

def test_stable_single_mode(periodic_grid):
    op = StableOperator(periodic_grid, 0.5)
    u = GridFunction(np.cos(2.0 * periodic_grid.points), periodic_grid)
    out = op.apply(1.0, u).values
    oracle = np.exp(-2.0) * np.cos(2.0 * periodic_grid.points)
    assert np.max(np.abs(out - oracle)) < 1e-6


def test_stable_zero_time_identity(periodic_grid):
    op = StableOperator(periodic_grid, 0.9)
    u = probe_function("sin", periodic_grid)
    assert op.apply(0.0, u) is u


def test_stable_requires_periodic(ou_grid):
    with pytest.raises(ConfigurationError):
        StableOperator(ou_grid, 0.5)


def test_stable_alpha_range(periodic_grid):
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            StableOperator(periodic_grid, bad)


# ---------------------------------------------------------------------------
# finite-state member
# ---------------------------------------------------------------------------

def test_chain_zero_rate():
    g = WeightedGrid.labels(3)
    op = ChainOperator(g, np.zeros((3, 3)))
    u = GridFunction(np.array([1.0, 2.0, 3.0]), g)
    assert np.array_equal(op.apply(1.0, u).values, u.values)


def test_chain_two_state_closed_form():
    g = WeightedGrid.labels(2)
    op = ChainOperator(g, np.array([[-1.0, 1.0], [1.0, -1.0]]))
    u = GridFunction(np.array([1.0, 0.0]), g)
    for t in (0.1, 0.7, 2.5):
        out = op.apply(t, u).values
        oracle = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.allclose(out, oracle, atol=1e-12)


def _chain_matrix_scipy_stats(op, t):
    """Oracle: the uniformization build as it was with scipy.stats.poisson."""
    n = op.grid.size
    gt = op.rate * t
    if gt == 0.0:
        return np.eye(n)
    k_max = int(gt + 12.0 * math.sqrt(gt) + 30.0)
    pmf = scipy.stats.poisson.pmf(np.arange(k_max + 1), gt)
    acc = pmf[0] * np.eye(n)
    power = np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ op.jump_matrix
        acc += pmf[k] * power
    acc /= acc.sum(axis=1, keepdims=True)
    return acc


@pytest.mark.parametrize("mu", [1e-3, 0.1, 0.7, 1.0, 3.3, 10.0, 77.7, 1234.5])
def test_poisson_pmf_matches_scipy_stats(mu):
    k = np.arange(int(mu + 12.0 * math.sqrt(mu) + 30.0) + 1)
    assert np.array_equal(_poisson_pmf(k, mu), scipy.stats.poisson.pmf(k, mu))


@pytest.mark.parametrize("gt", [1e-3, 0.05, 1.0, 7.5, 60.0, 1000.0])
def test_chain_matrix_matches_scipy_stats_build(chain_family, gt):
    for op in chain_family:
        t = gt / op.rate
        assert np.array_equal(op.matrix(t), _chain_matrix_scipy_stats(op, t))


def test_chain_rejects_bad_rates():
    g = WeightedGrid.labels(2)
    with pytest.raises(ConfigurationError):
        ChainOperator(g, np.array([[1.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigurationError):
        ChainOperator(g, np.array([[-1.0, 0.5], [0.0, 0.0]]))  # not conservative


# ---------------------------------------------------------------------------
# time dilation
# ---------------------------------------------------------------------------

def test_scaled_member(heat_grid):
    base = HeatOperator(heat_grid, 1.0)
    u = probe_function("quadratic", heat_grid)
    assert ScaledOperator(base, 0.0).apply(5.0, u) is not None
    assert np.array_equal(ScaledOperator(base, 0.0).apply_values(5.0, u.values), u.values)
    assert np.array_equal(ScaledOperator(base, 1.0).apply(0.3, u).values,
                          base.apply(0.3, u).values)
    out = ScaledOperator(base, 4.0).apply(0.25, u).values
    assert winmax(heat_grid, out - (heat_grid.points ** 2 + 1.0), -2, 2) < 1e-6


@pytest.mark.parametrize("make, message", [
    (lambda g, lg, x: HeatOperator(g, x), "sigma must be >= 0"),
    (lambda g, lg, x: GBMOperator(lg, 0.1, x), "sigma must be >= 0"),
    (lambda g, lg, x: ScaledOperator(HeatOperator(g, 1.0), x), "scale must be >= 0"),
], ids=["heat", "gbm", "scaled"])
def test_members_reject_a_negative_or_nan_rate(heat_grid, log_grid, make, message):
    for bad in (-1.0, np.nan):
        with pytest.raises(ConfigurationError, match=message):
            make(heat_grid, log_grid, bad)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_heat(heat_grid):
    res = HeatOperator(heat_grid, 1.0).generator(probe_function("quadratic", heat_grid))
    assert np.max(np.abs(res.values[res.valid] - 1.0)) < 1e-9


def test_generator_koopman(ou_grid):
    res = KoopmanOperator(ou_grid, lambda x: -x).generator(probe_function("linear", ou_grid))
    assert np.max(np.abs(res.values[res.valid] + ou_grid.points[res.valid])) < 1e-10


def test_generator_chain(label_grid):
    u = GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid)
    res = ChainOperator(label_grid, Q_BD).generator(u)
    assert np.array_equal(res.values, Q_BD @ u.values)
    assert res.valid.all()


def test_generator_gbm_matches_form(log_grid):
    mu, sigma = 0.1, 0.2
    res = GBMOperator(log_grid, mu, sigma).generator(probe_function("quadratic", log_grid))
    x = log_grid.points
    oracle = 2.0 * mu * x ** 2 + sigma ** 2 * x ** 2
    err = np.abs(res.values - oracle)[res.valid] * log_grid.kappa[res.valid]
    assert np.max(err) < 1e-4


def test_generator_stable_single_mode(periodic_grid):
    op = StableOperator(periodic_grid, 0.5)
    u = GridFunction(np.cos(2.0 * periodic_grid.points), periodic_grid)
    res = op.generator(u)
    assert np.allclose(res.values, -2.0 * u.values, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, 81, elements=st.floats(-5, 5)))
def test_heat_monotone_random(vals):
    g = WeightedGrid.uniform(-4.0, 4.0, 0.1, boundary="reflect")
    op = HeatOperator(g, 1.0)
    lo = op.apply_values(0.3, vals)
    hi = op.apply_values(0.3, vals + 1.0)
    assert np.all(hi - lo >= 1.0 - 1e-12)


def test_koopman_lipschitz_hint_validated(ou_grid):
    with pytest.raises(ConfigurationError):
        KoopmanOperator(ou_grid, lambda x: -3.0 * x, lipschitz_hint=1.0)


@pytest.mark.parametrize("make, message", [
    (lambda g: SemigroupFamily([]), "family needs at least one member"),
    (lambda g: SemigroupFamily([HeatOperator(g, 1.0),
                                HeatOperator(WeightedGrid.uniform(-2.0, 2.0, 0.1), 1.0)]),
     "all members must share one grid"),
    (lambda g: FamilyBounds(np.nan, 0.0), "family bounds must be finite"),
    (lambda g: FamilyBounds(0.0, np.inf), "family bounds must be finite"),
], ids=["no-members", "two-grid-objects", "alpha-nan", "beta-inf"])
def test_family_rejects_a_malformed_family(make, message):
    with pytest.raises(ConfigurationError, match=message):
        make(WeightedGrid.uniform(-2.0, 2.0, 0.1))


# members read the boundary rule their grid states
@pytest.mark.parametrize("grid, exact", [
    (WeightedGrid.uniform(-2.0, 2.0, 0.1), False),
    (WeightedGrid.uniform(-2.0, 2.0, 0.1, boundary="reflect"), True),
    (WeightedGrid.uniform(-2.0, 2.0, 0.1, periodic=True), True),
])
def test_heat_member_reads_its_grid_boundary(grid, exact):
    op = HeatOperator(grid, 1.0)
    assert op.lipschitz_exact is exact
    ref = lattice_kernel(grid.size, grid.spacing, 0.0, 0.5, grid.boundary)
    kernel = op.matrix(0.5)
    dense = kernel.toarray() if sp.issparse(kernel) else kernel
    assert np.array_equal(dense, ref.toarray() if sp.issparse(ref) else ref)
