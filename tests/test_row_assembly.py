"""Run assembly of lattice kernel rows against the sorted assembly it replaced.

``_oracle_rows`` is the sort-based row assembly kept verbatim (with the two
helpers it calls): every out-of-range column folded, wrapped or clipped by
index arithmetic, the rows put into CSR, then ``sum_duplicates``,
``eliminate_zeros`` and, when dense is cheaper, ``toarray``.  The run
assembly must give the same kernel to the bit: the same storage (nisio's
``CSRKernel`` for the oracle's ``csr_matrix``), nnz, ``indptr``, ``indices``
and entries, and the same applies.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import as_scipy
from nisio import (ConfigurationError, GBMOperator, KoopmanOperator,
                   NumericalDegeneracyError, OUOperator, WeightedGrid, operators)


def _oracle_reflect_indices(j, n):
    """Mirror indices about the end nodes of 0..n-1 (period 2(n-1))."""
    if n == 1:
        return np.zeros_like(j)
    m = 2 * (n - 1)
    j = np.mod(j, m)
    return np.where(j >= n, m - j, j)


def _oracle_dense_is_cheaper(n, nnz):
    return 8 * n * n <= 12 * nnz + 4 * (n + 1)


def _oracle_rows(n, cols_raw, weights, mode):
    """Row-stochastic kernel from per-row weights, straight into CSR or dense.

    cols_raw has shape (n, bandwidth); out-of-range columns are folded back
    (``reflect``), wrapped (``wrap``), or dropped (``renormalize``).  Rows are
    divided by their own sums; folded duplicates and zeros leave the CSR.
    ``weights`` is consumed: it is zeroed and divided in place, so callers
    pass an array they built for this call alone.
    """
    if mode == "reflect":
        cols = _oracle_reflect_indices(cols_raw, n)
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
    return mat.toarray() if _oracle_dense_is_cheaper(n, mat.nnz) else mat


def assert_same_kernel(new, ref, seed=0):
    # a GBM oracle mirrors its scipy block into nisio's CSR: compared as scipy's
    ref = as_scipy(ref)
    assert type(as_scipy(new)) is type(ref) and not sp.issparse(new)
    if sp.issparse(ref):
        assert new.nnz == ref.nnz
        for name in ("indptr", "indices"):
            a, b = getattr(new, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(new.data.view(np.int64), ref.data.view(np.int64))
    else:
        assert new.shape == ref.shape and new.flags.c_contiguous
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))
    rng = np.random.default_rng(seed)
    n = ref.shape[0]
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    for v in (rng.standard_normal(n), signed_zeros):
        assert np.array_equal((new @ v).view(np.int64), (ref @ v).view(np.int64))


@pytest.fixture
def sort_calls(monkeypatch):
    """Counts the row sets that take the sorted assembly."""
    calls = []
    sorted_rows = operators._sorted_rows

    def spy(*args):
        calls.append(args[3])
        return sorted_rows(*args)

    monkeypatch.setattr(operators, "_sorted_rows", spy)
    return calls


def _gaussian_rows(n, k, std, seed):
    """Gaussian rows of half-width k built as ``gaussian_lattice_matrix``
    builds them, in cells: most means within a few cells of their node, an
    eighth of the rows past each end by up to k/2 cells, so that their
    centres clamp to the end node.  A narrow std underflows the far tails to
    zero weights."""
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    offsets = rng.normal(0.0, 2.0, n)
    edge = max(n // 8, 1)
    offsets[:edge] = -rows[:edge] - rng.uniform(0.0, k / 2, edge)
    offsets[-edge:] = (n - 1 - rows[-edge:]) + rng.uniform(0.0, k / 2, edge)
    center = np.clip(np.rint(offsets) + rows, 0, n - 1).astype(np.int32)
    cols_raw = center[:, None] + np.arange(-k, k + 1, dtype=np.int32)
    weights = np.exp(-0.5 * ((cols_raw - (rows + offsets)[:, None]) / std) ** 2)
    return cols_raw, weights


@pytest.mark.parametrize("mode", ["reflect", "renormalize"])
@pytest.mark.parametrize("n", [3, 17, 801, 1601])
@pytest.mark.parametrize("dk", [-3, -2, -1, 5])
def test_gaussian_rows_match_sorted_assembly(n, dk, mode, sort_calls):
    # k = n - 3 and n - 2 take the run fold; k = n - 1 and n + 5 keep the
    # sort for reflect, where one column can take three terms.  A narrow
    # std leaves underflowed zeros (eliminate_zeros matters) and a sparse
    # kernel; a wide one a dense kernel on the larger lattices.  The largest
    # lattice takes one of the two, by turns, to keep the oracle's sorts short.
    k = n + dk
    if k < 0:
        pytest.skip("no half-width")
    zeros = 0
    stds = [max(k / 40.0, 0.6), max(k / 4.0, 0.6)]
    for std in stds[dk % 2:dk % 2 + 1] if n > 1000 else stds:
        cols_raw, weights = _gaussian_rows(n, k, std, seed=n + k)
        zeros += int(np.count_nonzero(weights == 0.0))
        new = operators._assemble_rows(n, cols_raw, weights.copy(), mode)
        assert_same_kernel(new, _oracle_rows(n, cols_raw, weights.copy(), mode), seed=k)
    assert sort_calls == (["reflect"] * len(stds if n < 1000 else [1])
                          if mode == "reflect" and dk >= -1 else [])
    if n == 801:
        assert zeros > 0


@pytest.mark.parametrize("mode", ["reflect", "renormalize", "wrap"])
def test_stencil_rows_match_sorted_assembly(mode, sort_calls, monkeypatch):
    # means clamped at both ends, theta = 0 (zero weights) and a = 1/2 (a
    # zero inside the row), on every lattice from 2 to 9 nodes
    rng = np.random.default_rng(5)
    dx = 0.1
    for n in range(2, 10):
        means = np.concatenate(([-1.0, n + 0.5, 1.0], rng.uniform(-2.0, n + 1.0, n)))[:n]
        for var in (0.0, dx * dx, 0.5 * dx * dx, 0.3 * dx * dx):
            new, ref = _build_both(
                lambda: operators.interp_stencil_matrix(n, dx, means, var, mode), monkeypatch)
            assert_same_kernel(new, ref, seed=n)
    # wrap keeps the sort; n = 2 is too short for the 4-wide reflect fold
    assert set(sort_calls) <= {"wrap", "reflect"}
    assert ("wrap" in sort_calls) == (mode == "wrap")
    assert sort_calls.count("reflect") == (4 if mode == "reflect" else 0)


# the 17 durations ``properties`` on bench/configs/ou.json builds for each member
OU_BENCH_DURATIONS = [1 / 64, 0.025, 1 / 32, 0.05, 1 / 16, 3 * 0.025, 0.1, 1 / 8,
                      3 / 16, 1 / 4, 5 / 16, 3 / 8, 7 / 16, 1 / 2, 9 / 16, 11 / 16, 1.0]


def _build_both(build, monkeypatch):
    """A kernel built by ``build()``, and again with the oracle assembly."""
    new = build()
    with monkeypatch.context() as m:
        m.setattr(operators, "_assemble_rows", _oracle_rows)
        ref = build()
    return new, ref


MEMBER_ROWS = {
    "ou-interp-stencil-reflect": (lambda: OUOperator(
        WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect"), -0.5, 0.2, 1e-6), 0.5),
    "ou-interp-stencil-renormalize": (lambda: OUOperator(
        WeightedGrid.uniform(-8.0, 8.0, 0.01), -0.5, 0.2, 1e-6), 0.5),
    "gbm-shifted-stencil": (lambda: GBMOperator(
        WeightedGrid.loggrid(8.0, 1e-2, 800, boundary="reflect"), 5.0, 0.2), 1e-3),
    "koopman": (lambda: KoopmanOperator(
        WeightedGrid.uniform(-8.0, 8.0, 0.01), lambda x: -x + 0.3 * np.sin(x), 1.3), 0.5),
    "koopman-outflow": (lambda: KoopmanOperator(
        WeightedGrid.uniform(-2.0, 2.0, 0.05), lambda x: 2.0 + 0.0 * x, 1.0), 0.7),
}


@pytest.mark.parametrize("case", sorted(MEMBER_ROWS))
def test_member_rows_match_sorted_assembly(case, monkeypatch, sort_calls):
    make_member, t = MEMBER_ROWS[case]
    new, ref = _build_both(lambda: make_member()._build_matrix(t), monkeypatch)
    assert sort_calls == []
    assert_same_kernel(new, ref)


@pytest.mark.parametrize("boundary, durations", [
    pytest.param("reflect", OU_BENCH_DURATIONS, id="reflect"),
    pytest.param("renormalize", [1 / 4, 1 / 2, 1.0], id="renormalize"),
])
def test_ou_bench_offset_kernels_match_sorted_assembly(boundary, durations, monkeypatch,
                                                       sort_calls):
    # the offset member of bench/configs/ou.json (B = -0.5) at every duration
    # its properties run builds (13 sparse kernels, then 4 dense ones), and
    # at t = 1/4, 1/2 and 1 with renormalize
    def member():
        return OUOperator(WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary=boundary),
                          -0.5, 0.2, 1.0)

    kinds = []
    for t in durations:
        new, ref = _build_both(lambda: member()._build_matrix(t), monkeypatch)
        assert_same_kernel(new, ref, seed=int(1000 * t))
        kinds.append(type(new))
    assert sort_calls == []
    assert kinds == [operators.CSRKernel if t < 0.5 else np.ndarray for t in durations]


def test_ou_bench_offset_kernels_take_no_sort_or_detour(monkeypatch):
    # the offset member of bench/configs/ou.json, sparse at t = 0.25 and
    # dense at t = 1, is built with no duplicate sum, no index sort and no
    # CSR-to-dense conversion: none of the compiled loops that do them runs
    def refuse(*args, **kwargs):
        raise AssertionError("sorted assembly reached")

    for name in ("csr_has_sorted_indices", "csr_sort_indices", "csr_sum_duplicates",
                 "csr_eliminate_zeros", "csr_todense"):
        monkeypatch.setattr(operators._sparsetools, name, refuse)
    op = OUOperator(WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect"), -0.5, 0.2, 1.0)
    assert isinstance(op.matrix(0.25), operators.CSRKernel)
    assert isinstance(op.matrix(1.0), np.ndarray)


@pytest.mark.parametrize("n, shift", [(17, -7), (17, 7), (1, -10), (1, 10)])
def test_row_wholly_off_the_lattice_loses_all_mass(n, shift):
    # a renormalized run entirely past one end keeps no mass; its spill
    # count stops at the row's own width, so it never reaches past the array
    cols_raw = np.arange(n)[:, None] + np.arange(-3, 4)
    cols_raw[0 if shift < 0 else -1] += shift
    with pytest.raises(NumericalDegeneracyError, match="kernel row lost all mass"):
        operators._assemble_rows(n, cols_raw, np.ones(cols_raw.shape), "renormalize")
