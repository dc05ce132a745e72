import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nisio import (ChainOperator, ConfigurationError, GBMOperator, GridFunction,
                   HeatOperator, InvalidInputError, KoopmanOperator,
                   NumericalDegeneracyError, OUOperator, ScaledOperator,
                   StableOperator, WeightedGrid,
                   generator_apply, lip_seminorm, quadrature_tolerance,
                   weighted_norm)
from nisio import operators
from nisio.operators import (KERNEL_RADIUS, _assemble_rows, _poisson_pmf,
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
    dense_cheaper = 8 * n * n <= 12 * ref.nnz + 4 * (n + 1)
    assert isinstance(mat, np.ndarray) == dense_cheaper
    if sp.issparse(mat):
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
        assert formats == {np.ndarray, sp.csr_matrix}


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
        std = math.sqrt(ou.moments(t)[2][0, 0])
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
    "ou-2d-bilinear": (lambda: OUOperator(
        WeightedGrid.tensor([-1.0, -2.0], [1.0, 2.0], [5, 9]),
        [[-0.3, 0.2], [0.1, -0.6]], [0.15, -0.4], np.zeros((2, 2))), 0.7),
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
    # mu = sigma^2/2 cancels the log drift: the block is a band, dense here
    sigma, t = 0.4, 1.0
    op = GBMOperator(log_grid, 0.5 * sigma ** 2, sigma)
    n, ds = (log_grid.size - 1) // 2, log_grid.spacing
    std = sigma * math.sqrt(t)
    assert isinstance(gaussian_lattice_matrix(n, ds, 0.0, std, "reflect"), np.ndarray)
    mat = op.matrix(t)
    assert sp.issparse(mat)
    block = _coo_gaussian(n, ds, std, "reflect")
    ref = sp.block_diag([block[::-1, ::-1], sp.identity(1), block]).toarray()
    assert np.max(np.abs(mat.toarray() - ref)) <= 1e-13
    assert np.max(np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0)) <= 1e-13
    assert mat.min() >= 0.0


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
    M, drift, cov = op.moments(t)
    assert M[0, 0] == pytest.approx(np.exp(b * t), rel=1e-12)
    assert drift[0] == pytest.approx(m / b * (np.exp(b * t) - 1.0), rel=1e-9)
    assert cov[0, 0] == pytest.approx(c / (2 * abs(b)) * (1 - np.exp(2 * b * t)), rel=1e-9)


@pytest.mark.parametrize("b, m, c, t", [(-0.5, 0.2, 1.0, 0.7), (-0.5, 1e-6, 1e-6, 1.0),
                                        (-50.0, 1.0, 1.0, 1.0)],
                         ids=["bench", "tiny-m-C", "stiff"])
def test_ou_moments_match_closed_forms(ou_grid, b, m, c, t):
    M, drift, cov = OUOperator(ou_grid, b, m, c).moments(t)
    assert M[0, 0] == pytest.approx(np.exp(b * t), rel=1e-13, abs=0.0)
    assert drift[0] == pytest.approx(m * np.expm1(b * t) / b, rel=1e-13, abs=0.0)
    assert cov[0, 0] == pytest.approx(c * np.expm1(2.0 * b * t) / (2.0 * b), rel=1e-13, abs=0.0)


def test_ou_2d_moments_match_quadrature():
    g = WeightedGrid.tensor([-5.0, -5.0], [5.0, 5.0], 51)
    B = np.array([[-0.3, 0.2], [0.1, -0.6]])     # not normal: B B^T != B^T B
    m, C = np.array([0.15, -0.4]), np.array([[1.0, 0.3], [0.3, 0.5]])
    for t in (0.25, 0.7, 1.0):
        M, drift, cov = OUOperator(g, B, m, C).moments(t)

        def flow(s):
            return scipy.linalg.expm(s * B)

        refs = (flow(t),
                scipy.integrate.quad_vec(lambda s: flow(s) @ m, 0.0, t, epsrel=1e-14)[0],
                scipy.integrate.quad_vec(lambda s: flow(s) @ C @ flow(s).T, 0.0, t,
                                         epsrel=1e-14)[0])
        for got, ref in zip((M, drift, cov), refs):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_ou_zero_drift_matrix_moments_are_exact():
    # B = 0 gives (I, m t, C t) bit for bit: at any duration in 1D, and in
    # 2D at the dyadic durations the bench configs build (k t / 16 and its
    # halvings), where the Pade arithmetic on t m and t C is exact; within a
    # few ulps at any duration in 2D
    g = WeightedGrid.uniform(-8.0, 8.0, 0.01)
    rng = np.random.default_rng(0)
    for m, c, t in [(0.0, 0.5, 0.25), (0.3, 0.7, 0.1),
                    *rng.uniform([-2.0, 0.1, 0.01], [2.0, 2.0, 2.0], size=(200, 3))]:
        M, drift, cov = OUOperator(g, 0.0, m, c).moments(t)
        assert (M[0, 0], drift[0], cov[0, 0]) == (1.0, m * t, c * t)
    op = OUOperator(WeightedGrid.tensor([-5.0, -5.0], [5.0, 5.0], 51),
                    np.zeros((2, 2)), [0.5, -0.25], np.diag([1.0, 0.5]))
    for t in {h * k / 16 / 2 ** j for h in (0.25, 1.0) for k in range(1, 17)
              for j in range(9)}:
        M, drift, cov = op.moments(t)
        assert np.array_equal(M, np.eye(2))
        assert np.array_equal(drift, op.m * t)
        assert np.array_equal(cov, op.C * t)
    for t in rng.uniform(0.01, 2.0, size=50):
        M, drift, cov = op.moments(t)
        assert np.array_equal(M, np.eye(2))
        assert np.max(np.abs(drift - op.m * t)) <= 1e-15 * np.max(np.abs(op.m * t))
        assert np.max(np.abs(cov - op.C * t)) <= 1e-15 * np.max(np.abs(op.C * t))


def test_ou_rejects_non_psd(ou_grid):
    with pytest.raises(ConfigurationError):
        OUOperator(ou_grid, 0.0, 0.0, -1.0)


def test_ou_2d_drift_and_diffusion():
    g = WeightedGrid.tensor([-5.0, -5.0], [5.0, 5.0], 51)
    drift = OUOperator(g, np.zeros((2, 2)), [0.5, -0.25], np.zeros((2, 2)))
    u = GridFunction(g.points[:, 0] + g.points[:, 1], g)
    out = drift.apply(1.0, u).values
    inner = g.window_mask([-4, -4], [4, 4])
    assert np.max(np.abs(out - (u.values + 0.25))[inner]) < 1e-10

    diff = OUOperator(g, np.zeros((2, 2)), [0.0, 0.0], np.diag([1.0, 0.5]))
    uq = GridFunction(g.points[:, 0] ** 2 + g.points[:, 1] ** 2, g)
    out = diff.apply(0.25, uq).values
    mid = g.window_mask([-2, -2], [2, 2])
    assert np.max(np.abs(out - (uq.values + 1.5 * 0.25))[mid]) < 1e-6


def test_ou_2d_pure_drift_is_bilinear_interpolation():
    # zero covariance: each row interpolates the flowed point bilinearly on
    # the tensor grid, clamped to its box
    g = WeightedGrid.tensor([-1.0, -2.0], [1.0, 2.0], [5, 9])
    B = np.array([[-0.3, 0.2], [0.1, -0.6]])
    op = OUOperator(g, B, [0.15, -0.4], np.zeros((2, 2)))
    t = 0.7
    M, drift, _ = op.moments(t)
    ax0, ax1 = np.linspace(-1.0, 1.0, 5), np.linspace(-2.0, 2.0, 9)
    oracle = np.zeros((g.size, g.size))
    for r, x in enumerate(g.points):
        y = M @ x + drift
        w = []
        for ax, yk in zip((ax0, ax1), y):
            yk = min(max(yk, ax[0]), ax[-1])
            j = min(int(np.searchsorted(ax, yk, side="right")) - 1, len(ax) - 2)
            w.append((j, (yk - ax[j]) / (ax[j + 1] - ax[j])))
        (j0, t0), (j1, t1) = w
        for dj0, w0 in ((0, 1.0 - t0), (1, t0)):
            for dj1, w1 in ((0, 1.0 - t1), (1, t1)):
                oracle[r, (j0 + dj0) * 9 + j1 + dj1] += w0 * w1
    mat = op.matrix(t)
    assert np.allclose(mat.toarray(), oracle, rtol=0.0, atol=1e-15)
    assert np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0, rtol=0.0, atol=1e-15)


def test_ou_2d_anisotropic_degenerate_rejected():
    g = WeightedGrid.tensor([-5.0, -5.0], [5.0, 5.0], 51)
    op = OUOperator(g, np.zeros((2, 2)), [0.0, 0.0], np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NumericalDegeneracyError):
        op.matrix(0.25)


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
    g = WeightedGrid.uniform(-1.0, 1.0, 0.01)
    op = KoopmanOperator(g, lambda x: np.ones_like(x))
    op.apply(0.5, probe_function("linear", g))
    assert op.exit_counts[0.5] > 0


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
    if op.conservative:
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
    op = ChainOperator(g, np.array([[-1.0, 0.5], [0.0, 0.0]]),
                       allow_nonconservative=True)
    assert not op.conservative


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


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_heat(heat_grid):
    res = generator_apply(HeatOperator(heat_grid, 1.0), probe_function("quadratic", heat_grid))
    assert np.max(np.abs(res.values[res.valid] - 1.0)) < 1e-9


def test_generator_koopman(ou_grid):
    res = generator_apply(KoopmanOperator(ou_grid, lambda x: -x),
                          probe_function("linear", ou_grid))
    assert np.max(np.abs(res.values[res.valid] + ou_grid.points[res.valid])) < 1e-10


def test_generator_chain(label_grid):
    u = GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid)
    res = generator_apply(ChainOperator(label_grid, Q_BD), u)
    assert np.array_equal(res.values, Q_BD @ u.values)
    assert res.valid.all()


def test_generator_gbm_matches_form(log_grid):
    mu, sigma = 0.1, 0.2
    res = generator_apply(GBMOperator(log_grid, mu, sigma),
                          probe_function("quadratic", log_grid))
    x = log_grid.points
    oracle = 2.0 * mu * x ** 2 + sigma ** 2 * x ** 2
    err = np.abs(res.values - oracle)[res.valid] * log_grid.kappa[res.valid]
    assert np.max(err) < 1e-4


def test_generator_stable_single_mode(periodic_grid):
    op = StableOperator(periodic_grid, 0.5)
    u = GridFunction(np.cos(2.0 * periodic_grid.points), periodic_grid)
    res = generator_apply(op, u)
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
