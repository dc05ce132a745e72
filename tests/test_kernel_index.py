"""Members of one family build a shared kernel once and hold it once.

A heat member's kernel has one argument that varies, the variance sigma^2 t,
so ``heat(sigma_b)`` at t_b and ``heat(sigma_a)`` at t_a with equal variances
are the same operator.  The family's index (weak references keyed by
``_kernel_key``) serves the second lookup with the first member's object.
These tests hold it to the bits of a member built alone, check that the
index keeps no kernel alive, and that eviction and rebuilds keep the bits.
"""
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from nisio import (HeatOperator, ScaledOperator, SemigroupFamily, WeightedGrid, cli,
                   operators)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "bench/configs/readme.json"

DX = 0.05
GRIDS = {
    "reflect": lambda: WeightedGrid.uniform(-4.0, 4.0, DX, boundary="reflect"),
    "renormalize": lambda: WeightedGrid.uniform(-4.0, 4.0, DX, boundary="renormalize"),
    "wrap": lambda: WeightedGrid.uniform(-4.0, 4.0, DX, periodic=True),
}
# variances of the band regime (a dense and a sparse kernel on 161 nodes) and
# of the stencil regime, at and below one cell squared
VARIANCES = {"band-dense": 4.0, "band-sparse": 0.04, "stencil-at": DX * DX,
             "stencil-below": 0.25 * DX * DX}


def _arrays(kernel):
    """A kernel's kind and copies of the arrays that make it."""
    if isinstance(kernel, sp.dia_matrix):
        parts = (kernel.data, kernel.offsets)
    elif sp.issparse(kernel):
        parts = (kernel.data, kernel.indices, kernel.indptr)
    else:
        parts = (kernel,)
    return type(kernel).__name__, kernel.shape, [np.array(a) for a in parts]


def _same(a, b):
    (kind_a, shape_a, arrays_a), (kind_b, shape_b, arrays_b) = a, b
    return (kind_a == kind_b and shape_a == shape_b and len(arrays_a) == len(arrays_b)
            and all(x.dtype == y.dtype and np.array_equal(x, y)
                    for x, y in zip(arrays_a, arrays_b)))


@pytest.mark.parametrize("regime", sorted(VARIANCES))
@pytest.mark.parametrize("boundary", sorted(GRIDS))
@pytest.mark.parametrize("j", [-2, -1, 0, 1, 2])
def test_shared_kernel_is_the_solo_build(boundary, regime, j):
    # sigma_b = 2^j sigma_a at t_b = t_a / 4^j: the same variance, exactly
    grid = GRIDS[boundary]()
    sigma_a, var = 0.5, VARIANCES[regime]
    sigma_b, t_a = 2.0 ** j * sigma_a, var / sigma_a ** 2
    t_b = t_a / 4.0 ** j
    assert sigma_a ** 2 * t_a == sigma_b ** 2 * t_b == var
    a, b = HeatOperator(grid, sigma_a), HeatOperator(grid, sigma_b)
    SemigroupFamily([a, b])
    kernel = a.matrix(t_a)
    assert b.matrix(t_b) is kernel
    assert (a.builds, a.shared, b.builds, b.shared) == (1, 0, 0, 1)
    solo = HeatOperator(grid, sigma_b)
    assert _same(_arrays(kernel), _arrays(solo.matrix(t_b)))
    assert _same(_arrays(kernel), _arrays(HeatOperator(grid, sigma_a).matrix(t_a)))
    # a kernel of another variance is built, not shared
    assert b.matrix(2.0 * t_b) is not kernel and b.builds == 1


def test_index_keeps_no_kernel_alive():
    grid = GRIDS["reflect"]()
    family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
    kernel = family.members[0].matrix(0.4)
    assert family.members[1].matrix(0.1) is kernel
    dead = weakref.ref(kernel)
    enabled = gc.isenabled()
    gc.disable()            # refcount alone must free it
    try:
        del kernel, family
        assert dead() is None
    finally:
        if enabled:
            gc.enable()


def test_eviction_leaves_the_other_members_copy_served(monkeypatch):
    grid = GRIDS["reflect"]()
    a, b = HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)
    SemigroupFamily([a, b])
    kernel = a.matrix(0.4)
    ref = _arrays(kernel)
    assert b.matrix(0.1) is kernel
    # each store now holds one kernel of this size at most
    monkeypatch.setattr(operators, "KERNEL_CACHE_BYTES", operators._nbytes(kernel))
    a.matrix(0.3)
    assert 0.4 not in a._cache and a.evictions == 1
    assert a.matrix(0.4) is kernel and a.shared == 1 and a.builds == 2
    # both evict it: the index lets it die, and the rebuild has its bits
    dead = weakref.ref(kernel)
    del kernel
    a.matrix(0.3)                       # a rebuild: 0.3 died when a evicted it
    b.matrix(0.2)
    assert 0.4 not in a._cache and 0.1 not in b._cache and dead() is None
    assert (a.builds, a.evictions, b.builds, b.evictions) == (3, 3, 1, 1)
    assert _same(_arrays(a.matrix(0.4)), ref)
    assert (a.builds, a.shared, a.evictions) == (4, 1, 4)


def test_eps_q_twin_neither_reads_nor_fills_the_index():
    grid = GRIDS["reflect"]()
    a, b = HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)
    SemigroupFamily([a, b])
    kernel = a.matrix(0.4)              # the variance of b's twin at 0.1
    b.composition_defect()
    assert len(a._index) == 1 and a._index[0.1] is kernel
    assert (b.lookups, b.builds, b.shared) == (0, 0, 0)


def test_scaled_member_counts_on_its_base():
    grid = GRIDS["reflect"]()
    base = HeatOperator(grid, 1.0)
    scaled = ScaledOperator(base, 2.0)
    values = np.zeros(grid.size)
    scaled.apply_values(0.1, values)
    scaled.apply_values(0.1, values)
    scaled.apply_values(0.0, values)
    assert (base.lookups, base.builds, base.shared, base.applies) == (2, 1, 0, 3)
    assert (scaled.lookups, scaled.builds, scaled.shared, scaled.applies) == (0, 0, 0, 0)


@pytest.mark.parametrize("sub", ["solve", "mc"])
def test_readme_run_builds_each_heat_kernel_once(tmp_path, monkeypatch, sub):
    # the README pair's 18 distinct work kernels: 11 built, the 7 where
    # sigma = 1 at 2^-L meets sigma = 0.5 at 2^-(L-2) shared; eps_q's 8 are
    # built on twins outside the index
    families, twins = [], []
    build_family, twin = cli.build_family, operators.TransitionOperator._twin

    def spy_family(cfg, grid):
        families.append(build_family(cfg, grid))
        return families[-1]

    def spy_twin(self):
        twins.append(twin(self))
        return twins[-1]

    monkeypatch.setattr(cli, "build_family", spy_family)
    monkeypatch.setattr(operators.TransitionOperator, "_twin", spy_twin)
    cfg = json.loads(README.read_text(encoding="utf-8"))
    if sub == "mc":
        cfg["mc"]["n_paths"] = 1000
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.run(sub, str(path), str(tmp_path / "out")) == 0
    members = families[0].members
    assert sum(m.builds for m in members) == 11
    assert sum(m.shared for m in members) == 7
    assert sum(m.evictions for m in members) == 0
    assert len(twins) == 2 and [t.builds for t in twins] == [4, 4]
    assert not any(t.shared for t in twins)
