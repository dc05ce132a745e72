"""nisio's sparse kernels against the ``scipy.sparse`` constructions they replace.

Kernels are nisio's own arrays (``CSRKernel``, ``DIAKernel``, or a dense
ndarray), built and applied through scipy's compiled ``_sparsetools`` loops
without importing ``scipy.sparse``.  The oracle builds each kernel again with
``scipy.sparse`` objects where the builders make one: a ``csr_matrix`` or
``dia_matrix`` of the same arguments, ``sum_duplicates``, ``eliminate_zeros``
and ``toarray`` in ``_sorted_rows``, and ``block_diag`` of the reversed block,
``identity(1)`` and the block for GBM.  Every builder path must give the
arrays, dtypes and byte counts of that construction, and every apply the bits
of ``scipy.sparse``'s ``@``.  A scipy release that changes the private
``_sparsetools`` signatures or loops fails here first.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (GBMOperator, HeatOperator, KoopmanOperator, OUOperator, WeightedGrid,
                   operators)


def _oracle_sorted_rows(n, cols_raw, weights, mode):
    """``_sorted_rows`` as it was, on scipy.sparse."""
    cols = (operators._reflect_indices(cols_raw, n) if mode == "reflect"
            else np.mod(cols_raw, n))
    sums = weights.sum(axis=1)
    np.divide(weights, sums[:, None], out=weights)
    mat = sp.csr_matrix((weights.ravel(), cols.ravel(),
                         np.arange(n + 1) * cols.shape[1]), shape=(n, n))
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat.toarray() if operators._dense_is_cheaper(n, mat.nnz) else mat


def _oracle_mirror_blocks(block):
    """The GBM kernel as it was: scipy's block_diag."""
    if sp.issparse(block):
        block = block.tocsr()
    return sp.block_diag([block[::-1, ::-1], sp.identity(1), block], format="csr")


def _oracle_build(build, monkeypatch):
    """``build()`` with a scipy.sparse matrix wherever a builder makes a kernel."""
    with monkeypatch.context() as m:
        m.setattr(operators, "CSRKernel", lambda data, indices, indptr: sp.csr_matrix(
            (data, indices, indptr), shape=(len(indptr) - 1, len(indptr) - 1)))
        m.setattr(operators, "DIAKernel", lambda data, offsets: sp.dia_matrix(
            (data, offsets), shape=(data.shape[1], data.shape[1])))
        m.setattr(operators, "_sorted_rows", _oracle_sorted_rows)
        m.setattr(operators, "_mirror_blocks", _oracle_mirror_blocks)
        return build()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _scipy_nbytes(ref):
    """Bytes a member once counted for a scipy kernel: its arrays' buffers."""
    parts = {sp.csr_matrix: ("data", "indices", "indptr"),
             sp.dia_matrix: ("data", "offsets")}.get(type(ref))
    return sum(getattr(ref, name).nbytes for name in parts) if parts else ref.nbytes


def assert_same_as_scipy(new, ref, seed=0):
    """Same storage, arrays, dtypes and bytes as the scipy kernel, and the
    bits of its applies."""
    kinds = {operators.CSRKernel: sp.csr_matrix, operators.DIAKernel: sp.dia_matrix,
             np.ndarray: np.ndarray}
    assert kinds[type(new)] is type(ref)
    assert new.shape == ref.shape
    if isinstance(ref, sp.csr_matrix):
        parts = ("data", "indices", "indptr")
    elif isinstance(ref, sp.dia_matrix):
        parts = ("data", "offsets")
    else:
        parts = ()
        assert new.dtype == ref.dtype and np.array_equal(_bits(new), _bits(ref))
    for name in parts:
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(_bits(a) if a.dtype == np.float64 else a,
                              _bits(b) if b.dtype == np.float64 else b), name
    assert new.nbytes == _scipy_nbytes(ref)
    rng = np.random.default_rng(seed)
    n = ref.shape[0]
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    for v in (rng.standard_normal(n), signed_zeros, rng.standard_normal(2 * n)[::2]):
        assert np.array_equal(_bits(new @ v), _bits(ref @ v))


def _same_build(build, monkeypatch, kind, seed=0):
    new = build()
    assert isinstance(new, kind)
    assert_same_as_scipy(new, _oracle_build(build, monkeypatch), seed)
    return new


DX = 0.05
REFLECT = WeightedGrid.uniform(-4.0, 4.0, DX, boundary="reflect")
RENORMALIZE = WeightedGrid.uniform(-4.0, 4.0, DX, boundary="renormalize")
WRAP = WeightedGrid.uniform(-4.0, 4.0, DX, periodic=True)
LOG = {b: WeightedGrid.loggrid(8.0, 1e-2, 200, boundary=b) for b in ("reflect", "renormalize")}
OU_BENCH = {b: (lambda b=b: OUOperator(WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary=b),
                                       -0.5, 0.2, 1.0)) for b in ("reflect", "renormalize")}
CSR, DIA, DENSE = operators.CSRKernel, operators.DIAKernel, np.ndarray

# id -> (kernel build, the storage it gives)
ASSEMBLE_ROWS = {
    "ou-offset-reflect-csr": (lambda: OU_BENCH["reflect"]()._build_matrix(0.25), CSR),
    "ou-offset-reflect-dense": (lambda: OU_BENCH["reflect"]()._build_matrix(1.0), DENSE),
    "ou-offset-renormalize-csr": (lambda: OU_BENCH["renormalize"]()._build_matrix(0.25), CSR),
    "ou-offset-renormalize-dense": (lambda: OU_BENCH["renormalize"]()._build_matrix(1.0),
                                    DENSE),
    "ou-stencil-reflect": (lambda: OUOperator(REFLECT, -0.5, 0.2, 1e-6)._build_matrix(0.5),
                           CSR),
    "koopman": (lambda: KoopmanOperator(RENORMALIZE, lambda x: -x + 0.3 * np.sin(x),
                                        1.3)._build_matrix(0.5), CSR),
}
SORTED_ROWS = {
    # 4-wide stencil rows whose wrapped ends come out of order: sorted, no sum
    "heat-stencil-wrap": (lambda: HeatOperator(WRAP, 1.0)._build_matrix(0.5 * DX * DX), CSR),
    # offset Gaussian rows wider than the lattice: wrapped columns take
    # several terms each, summed in the sort's order
    "gaussian-offset-wrap": (lambda: operators.gaussian_lattice_matrix(
        17, DX, np.linspace(-0.3, 0.4, 17), 0.4, "wrap"), DENSE),
    "gaussian-offset-wrap-csr": (lambda: operators.gaussian_lattice_matrix(
        401, DX, np.linspace(-0.3, 0.4, 401), 0.06, "wrap"), CSR),
    # reflect rows of half-width k > n - 2: one column takes three or more terms
    "gaussian-offset-wide-reflect": (lambda: operators.gaussian_lattice_matrix(
        17, DX, np.linspace(-0.3, 0.4, 17), 0.4, "reflect"), DENSE),
    "stencil-wrap-direct": (lambda: operators.interp_stencil_matrix(
        9, DX, np.array([-1.0, 9.5, 1.0, 3.3, 0.2, 7.9, 8.0, 4.5, 2.0]), 0.3 * DX * DX,
        "wrap"), CSR),
}
BAND = {
    "heat-reflect-dia": (lambda: HeatOperator(REFLECT, 1.0)._build_matrix(0.04), DIA),
    "heat-renormalize-dia": (lambda: HeatOperator(RENORMALIZE, 1.0)._build_matrix(0.04), DIA),
    # DIA to canonical CSR, explicit zeros dropped: scipy's tocsr
    "heat-reflect-dia-tocsr": (lambda: HeatOperator(REFLECT, 1.0)._build_matrix(0.04).tocsr(),
                               CSR),
    "heat-wrap-csr": (lambda: HeatOperator(WRAP, 1.0)._build_matrix(0.04), CSR),
    "heat-reflect-dense": (lambda: HeatOperator(REFLECT, 1.0)._build_matrix(4.0), DENSE),
    "heat-wrap-dense": (lambda: HeatOperator(WRAP, 1.0)._build_matrix(4.0), DENSE),
    "ou-zero-offset-dia": (lambda: OUOperator(REFLECT, 0.0, 0.0, 0.5)._build_matrix(0.1), DIA),
}
GBM = {
    # mu = sigma^2 / 2: the zero-drift band, a dense block and a DIA block
    **{f"gbm-dense-block-{b}": (lambda b=b: GBMOperator(LOG[b], 0.08, 0.4)._build_matrix(1.0),
                                CSR) for b in LOG},
    **{f"gbm-dia-block-{b}": (lambda b=b: GBMOperator(LOG[b], 0.02, 0.2)._build_matrix(0.1),
                              CSR) for b in LOG},
    # drift: a CSR block of shifted Gaussian rows, and a shifted stencil
    "gbm-csr-block": (lambda: GBMOperator(LOG["reflect"], 0.1, 0.2)._build_matrix(0.1), CSR),
    "gbm-stencil-block": (lambda: GBMOperator(LOG["reflect"], 5.0, 0.2)._build_matrix(1e-3),
                          CSR),
}
CASES = {**ASSEMBLE_ROWS, **SORTED_ROWS, **BAND, **GBM}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_its_scipy_construction(case, monkeypatch):
    build, kind = CASES[case]
    _same_build(build, monkeypatch, kind, seed=len(case))


def test_sorted_rows_paths_are_reached(monkeypatch):
    # the SORTED_ROWS cases go through _sorted_rows; the others do not
    calls = []
    sorted_rows = operators._sorted_rows
    monkeypatch.setattr(operators, "_sorted_rows",
                        lambda *args: calls.append(args[3]) or sorted_rows(*args))
    for case, (build, _) in sorted(CASES.items()):
        before = len(calls)
        build()
        assert (len(calls) > before) == (case in SORTED_ROWS), case
    assert set(calls) == {"wrap", "reflect"}


def test_gbm_blocks_take_each_storage(monkeypatch):
    # the GBM cases cover a dense, a DIA and a CSR block
    blocks = []
    build = operators.lattice_kernel
    monkeypatch.setattr(operators, "lattice_kernel",
                        lambda *args: blocks.append(build(*args)) or blocks[-1])
    for case in sorted(GBM):
        GBM[case][0]()
    assert {type(b) for b in blocks} == {DENSE, DIA, CSR}


@pytest.mark.parametrize("kernel", [
    operators.CSRKernel(np.ones(3), [0, 1, 2], [0, 1, 2, 3]),
    operators.DIAKernel(np.ones((1, 3)), [0]),
], ids=["csr", "dia"])
def test_kernel_refuses_values_of_another_shape(kernel):
    # the compiled loops read n values whatever they are given
    assert np.array_equal(kernel @ np.arange(3.0), np.arange(3.0))
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1)), 1.0):
        with pytest.raises(ValueError, match="3 x 3 kernel applied to values of shape"):
            kernel @ bad

