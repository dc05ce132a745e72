"""Members of one family build a shared kernel once and hold it once.

A heat member's kernel has one argument that varies, the variance sigma^2 t,
so ``heat(sigma_b)`` at t_b and ``heat(sigma_a)`` at t_a with equal variances
are the same operator.  The family's index (weak references keyed by
``_kernel_key``) serves the second lookup with the first member's object.
These tests hold it to the bits of a member built alone, check that the
index keeps no kernel alive, and that eviction and rebuilds keep the bits.
A scaled member keys, builds and applies through its base's hooks at the
dilated duration but holds and counts its kernels itself: it is held to the
bits of its base built alone, over every base kind, and a scaled family's
members count the whole family's work while the base counts none.
"""
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import Q_BD, same_bits_kinds
from nisio import (ChainOperator, GBMOperator, HeatOperator, KoopmanOperator, OUOperator,
                   ScaledOperator, SemigroupFamily, StableOperator, WeightedGrid, cli,
                   operators)
from nisio.grids import weighted_norm
from nisio.probes import probe_function

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
    if isinstance(kernel, operators.DIAKernel):
        parts = (kernel.data, kernel.offsets)
    elif isinstance(kernel, operators.CSRKernel):
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
    monkeypatch.setattr(operators, "KERNEL_CACHE_BYTES", kernel.nbytes)
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


def test_scaled_member_counts_its_own_work():
    grid = GRIDS["reflect"]()
    base = HeatOperator(grid, 1.0)
    scaled = ScaledOperator(base, 2.0)
    values = np.zeros(grid.size)
    scaled.apply_values(0.1, values)
    scaled.apply_values(0.1, values)
    scaled.apply_values(0.0, values)
    assert (scaled.lookups, scaled.builds, scaled.shared, scaled.applies) == (2, 1, 0, 3)
    assert (base.lookups, base.builds, base.shared, base.applies) == (0, 0, 0, 0)
    assert list(scaled._cache) == [0.1] and base._cache == {}


def _spy_families(monkeypatch):
    """The families the CLI builds, in order."""
    families = []
    build_family = cli.build_family

    def spy_family(cfg, grid):
        families.append(build_family(cfg, grid))
        return families[-1]

    monkeypatch.setattr(cli, "build_family", spy_family)
    return families


@pytest.mark.parametrize("sub", ["solve", "mc"])
def test_readme_run_builds_each_heat_kernel_once(tmp_path, monkeypatch, sub):
    # the README pair's 18 distinct work kernels: 11 built, the 7 where
    # sigma = 1 at 2^-L meets sigma = 0.5 at 2^-(L-2) shared; eps_q's 8 are
    # built on twins outside the index
    families, twins = _spy_families(monkeypatch), []
    twin = operators.TransitionOperator._twin

    def spy_twin(self):
        twins.append(twin(self))
        return twins[-1]

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


# -- scaled members ------------------------------------------------------------

# a grid and a member on it, per base kind
BASES = {
    "heat": (GRIDS["reflect"], lambda g: HeatOperator(g, 0.7)),
    "gbm": (lambda: WeightedGrid.loggrid(4.0, 1e-2, 60, boundary="reflect"),
            lambda g: GBMOperator(g, 0.1, 0.3)),
    "ou": (GRIDS["reflect"], lambda g: OUOperator(g, -0.5, 0.2, 1.0)),
    "koopman": (lambda: WeightedGrid.uniform(-4.0, 4.0, DX),
                lambda g: KoopmanOperator(g, lambda x: -x, 1.0)),
    "stable": (lambda: WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 128, periodic=True),
               lambda g: StableOperator(g, 0.5)),
    "chain": (lambda: WeightedGrid.labels(4), lambda g: ChainOperator(g, Q_BD)),
}
# the scales, innermost first, and the duration the grid path dilates t to:
# scaled(scaled(base, a), b) at t is the base at a * (b * t)
DILATIONS = {
    "0": ((0.0,), lambda t: 0.0 * t),
    "0.5": ((0.5,), lambda t: 0.5 * t),
    "1": ((1.0,), lambda t: 1.0 * t),
    "nested": ((0.49, 2.558), lambda t: 0.49 * (2.558 * t)),
}


def _scaled(base, scales):
    for scale in scales:
        base = ScaledOperator(base, scale)
    return base


def _bits(values):
    return np.asarray(values).view(np.int64)


def _defect_at(solo, dilate):
    """``composition_defect``'s loop on a member built alone, at the dilated
    durations."""
    t_ref, worst = 0.1, 0.0
    for name in ("const", "linear", "sin"):
        u = probe_function(name, solo.grid)
        direct = solo.apply(dilate(t_ref), u)
        for h1, h2 in ((0.5 * t_ref, 0.5 * t_ref), (0.25 * t_ref, 0.75 * t_ref)):
            two_step = solo.apply(dilate(h1), solo.apply(dilate(h2), u))
            worst = max(worst, weighted_norm(
                direct.with_values(two_step.values - direct.values)))
    return worst


@pytest.mark.parametrize("kind", sorted(BASES))
def test_scaled_member_is_its_base_at_the_dilated_duration(kind):
    make_grid, make = BASES[kind]
    grid = make_grid()
    base = make(grid)
    members = {name: _scaled(base, scales) for name, (scales, _) in DILATIONS.items()}
    SemigroupFamily(members.values())
    values = np.random.default_rng(5).standard_normal(grid.size)
    for name, member in members.items():
        dilate, solo = DILATIONS[name][1], make(grid)
        for t in (0.3, 0.7):
            assert _same(_arrays(member.matrix(t)), _arrays(solo.matrix(dilate(t))))
            out = member.apply_values(t, values)
            assert np.array_equal(_bits(out), _bits(solo.apply_values(dilate(t), values)))
            if name == "0":     # the identity to the bit, a stable base's too
                assert np.array_equal(_bits(out), _bits(values))
        assert member.composition_defect() == _defect_at(solo, dilate)
        assert member.applies == 2 and member.lookups == 4
    assert base._cache == {} and (base.lookups, base.builds, base.applies) == (0, 0, 0)


@pytest.mark.parametrize("kind", sorted(BASES))
def test_scaled_members_of_one_base_share_a_dilated_duration(kind):
    make_grid, make = BASES[kind]
    base = make(make_grid())
    a, b = ScaledOperator(base, 0.5), ScaledOperator(base, 1.0)
    SemigroupFamily([a, b])
    kernel = a.matrix(0.6)              # 0.5 * 0.6 == 0.3 exactly
    assert b.matrix(0.3) is kernel
    assert (a.builds, a.shared, b.builds, b.shared) == (1, 0, 0, 1)
    assert base._cache == {} and base.builds == 0


def test_heat_and_scaled_heat_of_one_variance_hold_one_kernel():
    grid = GRIDS["reflect"]()
    a, b = HeatOperator(grid, 0.5), ScaledOperator(HeatOperator(grid, 1.0), 0.25)
    SemigroupFamily([a, b])
    kernel = a.matrix(0.4)
    assert b.matrix(0.4) is kernel
    assert (a.builds, a.shared, b.builds, b.shared) == (1, 0, 0, 1)
    assert b.base._cache == {} and b.base.builds == 0


def test_scaled_config_members_count_the_family_work(tmp_path, monkeypatch):
    # heat(1) at scales 0.25 and 1, solve.t 0.5 to level 4: 31 steps each,
    # 10 dilated durations of which 7 are distinct, the 3 where 0.25 t/2^L
    # meets t/2^(L-2) taken from the index
    families = _spy_families(monkeypatch)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(same_bits_kinds()["scaled"]), encoding="utf-8")
    assert cli.run("solve", str(path), str(tmp_path / "out")) == 0
    members = families[0].members
    base = members[0].base
    assert all(m.base is base for m in members)
    assert sum(m.builds for m in members) == 7
    assert sum(m.shared for m in members) == 3
    assert sum(m.lookups for m in members) == 62
    assert sum(m.applies for m in members) == 62
    assert (base.lookups, base.builds, base.shared, base.applies) == (0, 0, 0, 0)


def test_an_overflowed_dilated_duration_exits_2(tmp_path, capsys):
    # eps_q's dilated durations (1e307 at most) build; solve.t = 2 dilates to
    # inf, which is refused before a build: the OU base would otherwise find
    # its moments not finite, a numerical degeneracy (exit 3)
    cfg = {"grid": {"kind": "uniform", "domain": [-2, 2], "dx": 0.1},
           "family": {"kind": "scaled", "scales": [1e308], "base": {
               "kind": "ou", "members": [{"B": -0.5, "m": 0.2, "C": 1.0}]}},
           "u0": {"name": "quadratic"}, "solve": {"t": 2.0, "max_level": 2}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.run("solve", str(path), str(tmp_path / "out")) == 2
    assert "duration must be finite and >= 0, got inf" in capsys.readouterr().err
