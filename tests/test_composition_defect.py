"""``quadrature_tolerance`` from each member's kept composition defect.

The loop every member used to run inside ``quadrature_tolerance`` is kept
below as the oracle: the tolerance must equal it bit for bit on every member
kind.  The measurement must leave each store holding the durations it held
before, and a second call must build and apply nothing.
"""
import numpy as np
import pytest

from nisio import (ChainOperator, GBMOperator, HeatOperator, KoopmanOperator,
                   OUOperator, ScaledOperator, SemigroupFamily, StableOperator,
                   WeightedGrid, operators, quadrature_tolerance)
from nisio.grids import weighted_norm
from nisio.probes import probe_function

Q_BD = np.array([[-1.0, 1.0, 0.0, 0.0], [0.5, -1.0, 0.5, 0.0],
                 [0.0, 0.5, -1.0, 0.5], [0.0, 0.0, 1.0, -1.0]])
Q_MIX = np.array([[-0.5, 0.25, 0.25, 0.0], [0.25, -0.5, 0.0, 0.25],
                  [0.25, 0.0, -0.5, 0.25], [0.0, 0.25, 0.25, -0.5]])


def oracle_tolerance(family):
    """The quadrature_tolerance loop before members kept their defect."""
    t_ref = 0.1
    worst = 0.0
    splits = [(0.5 * t_ref, 0.5 * t_ref), (0.25 * t_ref, 0.75 * t_ref)]
    for name in ("const", "linear", "sin"):
        u = probe_function(name, family.grid)
        for member in family:
            direct = member.apply(t_ref, u)
            for h1, h2 in splits:
                two_step = member.apply(h1, member.apply(h2, u))
                defect = weighted_norm(direct.with_values(two_step.values - direct.values))
                worst = max(worst, defect)
    return max(worst, 1e-12)


def _uniform(boundary="reflect"):
    return WeightedGrid.uniform(-4.0, 4.0, 0.02, boundary=boundary)


def _periodic():
    return WeightedGrid.uniform(-np.pi, np.pi, 2.0 * np.pi / 128.0, periodic=True)


# kind -> (grid, member builder)
FAMILIES = {
    "heat": (_uniform, lambda g: [HeatOperator(g, s) for s in (0.5, 1.0)]),
    "heat-periodic": (_periodic, lambda g: [HeatOperator(g, s) for s in (0.3, 1.0)]),
    "ou-offset": (_uniform, lambda g: [OUOperator(g, -0.5, 0.2, 1.0),
                                       OUOperator(g, -1.0, 0.0, 0.5)]),
    "ou-offset-renormalize": (lambda: _uniform("renormalize"),
                              lambda g: [OUOperator(g, -0.5, 0.2, 1.0)]),
    "ou-zero-offset": (_uniform, lambda g: [OUOperator(g, 0.0, 0.0, s) for s in (0.5, 1.0)]),
    "gbm": (lambda: WeightedGrid.loggrid(8.0, 1e-2, 120,
                                         kappa=lambda x: (1.0 + np.abs(x)) ** -2.0,
                                         boundary="reflect"),
            lambda g: [GBMOperator(g, mu, sigma) for mu, sigma in ((0.05, 0.2), (0.02, 0.2))]),
    "koopman": (_uniform, lambda g: [KoopmanOperator(g, lambda x, c=c: c * x, 1.0)
                                     for c in (0.5, -1.0)]),
    "chain": (lambda: WeightedGrid.labels(4),
              lambda g: [ChainOperator(g, Q) for Q in (Q_BD, Q_MIX)]),
    "stable": (_periodic, lambda g: [StableOperator(g, a) for a in (0.4, 0.8)]),
    "scaled": (_uniform, lambda g: [ScaledOperator(HeatOperator(g, 1.0), s)
                                    for s in (0.5, 2.0, 0.0)]),
}


def _family(kind):
    grid, members = FAMILIES[kind]
    return SemigroupFamily(members(grid()))


def _stores(family):
    """Every operator holding kernels for the family: each member, scaled
    ones too, holds its own."""
    return list(family)


def _assert_store_consistent(op):
    assert op._held == sum(k.nbytes for k in op._cache.values())


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_tolerance_matches_the_member_loop_bit_for_bit(kind):
    expected = oracle_tolerance(_family(kind))
    assert quadrature_tolerance(_family(kind)) == expected


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_measurement_leaves_every_store_as_it_found_it(kind):
    family = _family(kind)
    before = {id(op): set(op._cache) for op in _stores(family)}
    quadrature_tolerance(family)
    for op in _stores(family):
        assert set(op._cache) == before[id(op)]
        _assert_store_consistent(op)


@pytest.mark.parametrize("kind", ["heat", "ou-offset", "stable", "scaled"])
def test_measurement_keeps_durations_held_before(kind):
    # a store already holding 0.1 and another duration keeps both, with the
    # same kernel objects; only the measurement's own durations leave
    family = _family(kind)
    held = {}
    for member in family:
        for t in (0.1, 0.3):
            member.matrix(t)
    for op in _stores(family):
        held[id(op)] = dict(op._cache)
    assert quadrature_tolerance(family) == oracle_tolerance(_family(kind))
    for op in _stores(family):
        assert set(op._cache) == set(held[id(op)])
        assert all(op._cache[t] is k for t, k in held[id(op)].items())
        _assert_store_consistent(op)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_second_call_builds_and_applies_nothing(kind, monkeypatch):
    family = _family(kind)
    first = quadrature_tolerance(family)
    calls = []
    for op in {id(o): o for m in family for o in (m, getattr(m, "base", m))}.values():
        for name in ("_build_matrix", "apply_values"):
            def counting(*args, _fn=getattr(op, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(op, name, counting)
    assert quadrature_tolerance(family) == first
    assert calls == []
    # the counters do count: a fresh apply reaches them
    family.members[0].apply_values(0.1, np.ones(family.grid.size))
    assert "apply_values" in calls


def test_defect_is_measured_once_per_member(monkeypatch):
    family = _family("heat")
    measured = []
    original = operators.TransitionOperator.composition_defect

    def spy(self):
        measured.append(self._defect is None)
        return original(self)

    monkeypatch.setattr(operators.TransitionOperator, "composition_defect", spy)
    for _ in range(3):
        quadrature_tolerance(family)
    assert measured == [True, True] + [False, False] * 2


def test_measurement_failure_still_drops_its_kernels(monkeypatch):
    family = _family("heat")
    member = family.members[0]
    real = operators.TransitionOperator.apply_values
    count = []

    def failing(self, t, values):
        count.append(t)
        if len(count) == 3:
            raise RuntimeError("stop")
        return real(self, t, values)

    # on the class: the measurement applies through a copy of the member,
    # which would carry an instance patch bound to the member's own store
    monkeypatch.setattr(operators.TransitionOperator, "apply_values", failing)
    with pytest.raises(RuntimeError):
        member.composition_defect()
    assert member._cache == {} and member._held == 0
    assert member._defect is None
