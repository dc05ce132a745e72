"""Every entry that takes a function checks it against the family's space
before any work or shortcut: ``SemigroupFamily.check`` (the one statement,
``operators._check_input``) accepts a function on the family's grid object
or on one of the same kind, points and weight kappa.  A function on another
grid of the same size, or on an equal grid with another kappa, is rejected,
at zero durations too.  The members' generators have the same door:
``member.generator`` checks u against the member's grid, and
``SemigroupFamily.generators`` checks it once for the whole stack."""

import inspect

import numpy as np
import pytest

import nisio
from nisio import (ChainOperator, ControlPolicy, GBMOperator, HeatOperator,
                   InvalidInputError, KoopmanOperator, OUOperator, Partition,
                   SamplerSpec, ScaledOperator, SemigroupFamily, StableOperator,
                   WeightedGrid, cutoff_decay_probe, cutoff_family, diagnostics,
                   dpp_check, duality_gap, envelope_step, envelope_step_argmax,
                   greedy_policy, mc_compare, mc_value, nisio_value, partition_apply,
                   policy_value, property_suite, strong_continuity_probe,
                   upper_bound_check, viscosity_residual, weighted_norm)
from nisio.probes import probe_function


def _grid(lo=-2.0, hi=2.0, kappa=None):
    return WeightedGrid.uniform(lo, hi, 0.1, kappa=kappa, boundary="reflect")


GRID = _grid()
FAMILY = SemigroupFamily([HeatOperator(GRID, 0.5), HeatOperator(GRID, 1.0)])
ONE_STAGE = ControlPolicy(((0.1, np.zeros(GRID.size, dtype=np.int64)),))
SPEC = SamplerSpec(FAMILY, ONE_STAGE, 100, seed=1)
U = probe_function("sin", GRID)

# every public entry that takes a function, at a positive duration where it
# takes one; mc_compare's u is the family's own, so its value is the one tried
CALLS = {
    "nisio_value": lambda u: nisio_value(FAMILY, 0.2, u, max_level=2),
    "partition_apply": lambda u: partition_apply(FAMILY, Partition.uniform(0.2, 2), u),
    "envelope_step": lambda u: envelope_step(FAMILY, 0.1, u),
    "envelope_step_argmax": lambda u: envelope_step_argmax(FAMILY, 0.1, u),
    "greedy_policy": lambda u: greedy_policy(FAMILY, 0.2, u, 2),
    "policy_value": lambda u: policy_value(FAMILY, ONE_STAGE, u),
    "property_suite": lambda u: property_suite(FAMILY, [u], [0.2], partition_pairs=1),
    "dpp_check": lambda u: dpp_check(FAMILY, 0.1, 0.1, u, max_level=2),
    "duality_gap": lambda u: duality_gap(FAMILY, 0.2, u, 2, max_level=2),
    "upper_bound_check": lambda u: upper_bound_check(FAMILY, 0.2, u, max_level=2),
    "mc_value": lambda u: mc_value(SPEC, 0.0, u),
    "mc_compare": lambda u: mc_compare(SPEC, 0.0, U, u),
    "strong_continuity_probe": lambda u: strong_continuity_probe(FAMILY, u, [0.1, 0.05]),
    "viscosity_residual": lambda u: viscosity_residual(FAMILY, [u, u, u], 0.1),
    "viscosity_residual ends": lambda u: viscosity_residual(FAMILY, [u, U, u], 0.1),
}
# the two doors to the generators: a member's own, and the family's stack
DOORS = {
    "member.generator": lambda u: FAMILY.members[0].generator(u),
    "family.generators": lambda u: FAMILY.generators(u),
}
# the zero-duration shortcuts, each reached after the check
ZERO_CALLS = {
    "envelope_step at h = 0": lambda u: envelope_step(FAMILY, 0.0, u),
    "partition_apply on {0}": lambda u: partition_apply(FAMILY, Partition(np.array([0.0])), u),
    "nisio_value at t = 0": lambda u: nisio_value(FAMILY, 0.0, u),
    "dpp_check at s = 0": lambda u: dpp_check(FAMILY, 0.0, 0.1, u),
    "dpp_check at t = 0": lambda u: dpp_check(FAMILY, 0.1, 0.0, u),
}
# public callables that take a function (a parameter in FUNCTION_PARAMS) and
# are not in CALLS, each with the reason it needs no check of the family's space
FUNCTION_PARAMS = {"u", "value", "probes", "snapshots"}
EXEMPT = {
    "GreedyResult": "a result record: holds the value a greedy pass returned",
    "NisioResult": "a result record: holds the value a refinement returned",
    "lip_seminorm": "a seminorm of u on u's own grid; no family is involved",
    "weighted_norm": "a norm of u on u's own grid; no family is involved",
}


def _heavy_grid():
    # the family's points under the weight 1e-3 instead of 1
    return _grid(kappa=lambda x: np.full_like(x, 1e-3))


def _call(name):
    return CALLS.get(name) or ZERO_CALLS.get(name) or DOORS[name]


ALL = sorted(CALLS) + sorted(ZERO_CALLS) + sorted(DOORS)


@pytest.mark.parametrize("name", ALL)
def test_calls_reject_a_function_on_another_grid_of_the_same_size(name):
    other = _grid(-1.0, 3.0)
    assert other.size == GRID.size and other.kind == GRID.kind
    with pytest.raises(InvalidInputError, match="different grid"):
        _call(name)(probe_function("sin", other))


@pytest.mark.parametrize("name", ALL)
def test_calls_reject_a_function_under_another_weight(name):
    # the same kind and points, the weight 1e-3: on it x^2 stops nisio_value
    # converged at level 2, where the family's weight runs it to level 6
    heavy = _heavy_grid()
    assert heavy.kind == GRID.kind and np.array_equal(heavy.points, GRID.points)
    assert not np.array_equal(heavy.kappa, GRID.kappa)
    with pytest.raises(InvalidInputError, match="different grid"):
        _call(name)(probe_function("quadratic", heavy))


@pytest.mark.parametrize("name", ALL)
def test_calls_accept_a_function_on_an_equal_grid(name):
    equal = _grid()
    assert equal is not GRID
    _call(name)(probe_function("sin", equal))


def test_every_public_entry_that_takes_a_function_is_checked_or_exempt():
    takes = set()
    for name in nisio.__all__:
        try:
            params = inspect.signature(getattr(nisio, name)).parameters
        except (TypeError, ValueError):
            continue
        if FUNCTION_PARAMS & set(params):
            takes.add(name)
    assert {name.split()[0] for name in CALLS} <= takes
    assert set(EXEMPT) <= takes and not set(EXEMPT) & set(CALLS)
    assert takes - set(CALLS) - set(EXEMPT) == set(), \
        "add each to CALLS, or to EXEMPT with the reason it needs no check"


def test_apply_all_checks_the_duration_and_takes_the_function():
    u = probe_function("sin", GRID)
    stack = FAMILY.apply_all(0.1, u)
    assert stack.shape == (len(FAMILY), GRID.size)
    for k, member in enumerate(FAMILY):
        assert np.array_equal(stack[k], member.apply(0.1, u).values)
    for t in (-0.1, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="duration"):
            FAMILY.apply_all(t, u)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_dpp_check_rejects_a_bad_duration_beside_a_zero_one(bad):
    u = probe_function("sin", GRID)
    for s, t in ((0.0, bad), (bad, 0.0)):
        with pytest.raises(InvalidInputError, match="duration"):
            dpp_check(FAMILY, s, t, u)


def test_zero_durations_return_u_itself():
    u = probe_function("sin", GRID)
    assert envelope_step(FAMILY, 0.0, u) is u
    assert partition_apply(FAMILY, Partition(np.array([0.0])), u) is u
    assert nisio_value(FAMILY, 0.0, u).value is u


def test_zero_durations_check_once_and_apply_no_member(monkeypatch):
    # a zero duration reaches the check and returns before apply_all: no
    # member apply is counted for it
    family = SemigroupFamily(FAMILY.members)
    checks = []
    monkeypatch.setattr(family, "check", lambda t, u: checks.append(t))
    monkeypatch.setattr(family, "apply_all", lambda t, u: pytest.fail("member applied"))
    u = probe_function("sin", GRID)
    assert envelope_step(family, 0.0, u) is u
    assert partition_apply(family, Partition(np.array([0.0])), u) is u
    assert nisio_value(family, 0.0, u).value is u
    assert dpp_check(family, 0.0, 0.1, u) == {"defect": 0.0}
    assert checks == [0.0, 0.0, 0.0, 0.0, 0.1]


def _per_member_rates(family, u, h_list, window=None):
    # strong_continuity_probe's rates as its per-member loop computed them
    # before the probe went through apply_all, kept verbatim as the oracle
    h_arr = np.asarray(sorted(h_list, reverse=True), dtype=float)
    rates = []
    for h in h_arr:
        worst = 0.0
        for member in family:
            diff = member.apply(h, u).values - u.values
            worst = max(worst, weighted_norm(u.with_values(diff), window=window))
        rates.append(worst)
    rates = np.asarray(rates)
    return rates


@pytest.mark.parametrize("window", [None, np.abs(GRID.points) <= 1.0])
@pytest.mark.parametrize("probe", ["sin", "quadratic", "const"])
def test_strong_continuity_probe_matches_the_per_member_loop(probe, window):
    u = probe_function(probe, GRID)
    h_list = [0.2, 0.05, 0.1, 0.025]
    out = strong_continuity_probe(FAMILY, u, h_list, window=window)
    assert out["rates"] == _per_member_rates(FAMILY, u, h_list, window).tolist()


def test_strong_continuity_probe_checks_once_per_duration(monkeypatch):
    family = SemigroupFamily([HeatOperator(GRID, 0.5), HeatOperator(GRID, 1.0)])
    checks = []
    check = family.check
    monkeypatch.setattr(family, "check", lambda t, u: checks.append(t) or check(t, u))
    for member in family:
        monkeypatch.setattr(member, "apply", lambda t, u: pytest.fail("member.apply"))
    strong_continuity_probe(family, U, [0.1, 0.05, 0.025])
    assert checks == [0.1, 0.05, 0.025]


def test_family_generators_check_once_and_stack_the_members(monkeypatch):
    family = SemigroupFamily([HeatOperator(GRID, 0.5), HeatOperator(GRID, 1.0)])
    checks = []
    check = family.check
    monkeypatch.setattr(family, "check", lambda t, u: checks.append(t) or check(t, u))
    for member in family:
        monkeypatch.setattr(member, "generator", lambda u: pytest.fail("member.generator"))
    gens = family.generators(U)
    assert checks == [0.0]
    for res, member in zip(gens, family.members):
        want = type(member).generator(member, U)
        assert np.array_equal(res.values, want.values) and np.array_equal(res.valid, want.valid)


def _gbm():
    g = WeightedGrid.loggrid(4.0, 0.05, 40, boundary="reflect")
    return (SemigroupFamily([GBMOperator(g, 0.05, 0.2), GBMOperator(g, 0.1, 0.3)]),
            probe_function("quadratic", g))


def _stable():
    g = WeightedGrid.uniform(-np.pi, np.pi, np.pi / 32, periodic=True)
    return (SemigroupFamily([StableOperator(g, 0.5), StableOperator(g, 0.9)]),
            probe_function("sin", g))


def _chain():
    g = WeightedGrid.labels(3)
    return (SemigroupFamily([
        ChainOperator(g, [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]]),
        ChainOperator(g, [[-0.5, 0.25, 0.25], [0.0, 0.0, 0.0], [0.25, 0.25, -0.5]])]),
        probe_function("quadratic", g))


# one small family per member kind, each with a probe that is smooth on its grid
GEN_FAMILIES = {
    "heat": lambda: (FAMILY, U),
    "ou": lambda: (SemigroupFamily([OUOperator(GRID, -0.5, 0.1, 1.0),
                                    OUOperator(GRID, 0.0, -0.2, 0.5)]), U),
    "scaled": lambda: (SemigroupFamily([ScaledOperator(FAMILY.members[1], s)
                                        for s in (0.5, 2.0)]), U),
    "koopman": lambda: (SemigroupFamily([KoopmanOperator(GRID, lambda x: -x),
                                         KoopmanOperator(GRID, np.sin)]), U),
    "gbm": _gbm,
    "stable": _stable,
    "chain": _chain,
}


def _snapshots(family, u, dt, count=4):
    snaps = [u]
    for _ in range(count - 1):
        snaps.append(envelope_step(family, dt, snaps[-1]))
    return snaps


def _per_member_residual(family, snapshots, dt, window=None):
    # viscosity_residual's body before the family's generator stack, kept
    # verbatim as the oracle (generator_apply(member, s) was member.generator(s))
    if len(snapshots) < 3:
        raise InvalidInputError("need at least three snapshots")
    if dt <= 0.0:
        raise InvalidInputError("dt must be positive")
    grid = snapshots[0].grid
    n = grid.size
    k_interior = range(1, len(snapshots) - 1)
    field = np.full((len(snapshots) - 2, n), np.nan)
    worst = 0.0
    mask_window = np.ones(n, dtype=bool) if window is None else np.asarray(window, bool)
    for row, k in enumerate(k_interior):
        du_dt = (snapshots[k + 1].values - snapshots[k - 1].values) / (2.0 * dt)
        ham = np.full(n, -np.inf)
        valid = np.ones(n, dtype=bool)
        for member in family:
            res = member.generator(snapshots[k])
            ham = np.maximum(ham, res.values)
            valid &= res.valid
        resid = du_dt - ham
        field[row, valid] = resid[valid]
        sel = valid & mask_window
        if np.any(sel):
            worst = max(worst, float(np.max(np.abs(resid[sel]))))
    return {"residual_field": field, "max_interior_residual": worst}


@pytest.mark.parametrize("kind", sorted(GEN_FAMILIES))
def test_viscosity_residual_matches_the_per_member_loop(kind):
    family, u = GEN_FAMILIES[kind]()
    snaps = _snapshots(family, u, 0.05)
    window = np.arange(family.grid.size) % 3 != 0
    for win in (None, window):
        got = viscosity_residual(family, snaps, 0.05, window=win)
        want = _per_member_residual(family, snaps, 0.05, window=win)
        assert got["max_interior_residual"] == want["max_interior_residual"]
        assert np.array_equal(got["residual_field"].view(np.int64),
                              want["residual_field"].view(np.int64))


def _norm(res, grid, window=None):
    # GeneratorResult.norm before weighted_norm replaced it, kept verbatim
    mask = res.valid.copy()
    if window is not None:
        mask &= np.asarray(window, dtype=bool)
    if not np.any(mask):
        raise InvalidInputError("no valid rows in window")
    return float(np.max(np.abs(res.values[mask]) * grid.kappa[mask]))


def _per_member_L(family, delta, x_list):
    # cutoff_decay_probe's generator bound as its per-member loop computed it,
    # kept verbatim as the oracle, with the cut-offs built as the probe builds them
    grid = family.grid
    cutoffs = [cutoff_family(grid, grid.points[int(grid.nearest_index(np.asarray([x0]))[0])],
                             delta) for x0 in x_list]
    L = 0.0
    for phi in cutoffs:
        for member in family:
            L = max(L, _norm(member.generator(phi), member.grid))
    return L


@pytest.mark.parametrize("kind", sorted(GEN_FAMILIES))
def test_cutoff_decay_probe_matches_the_per_member_loop(kind):
    family, _ = GEN_FAMILIES[kind]()
    pts = family.grid.points
    x_list = [pts[1], float(np.median(pts)), pts[-2]]
    delta = 1.0 if family.grid.kind == "labels" else 4.0 * float(np.max(np.diff(pts)))
    h_list = [0.1, 0.05]
    out = cutoff_decay_probe(family, delta, x_list, h_list, level=1)
    L = _per_member_L(family, delta, x_list)
    assert out["generator_bound_L"] == L
    assert out["slope_bound"] == [float(L * np.exp(family.bounds.alpha * 0.1) * h)
                                  for h in h_list]


def test_cutoff_decay_probe_without_centers_has_a_zero_bound():
    out = cutoff_decay_probe(FAMILY, 1.0, [], [0.1, 0.05])
    assert out["generator_bound_L"] == 0.0 and out["slope_bound"] == [0.0, 0.0]
    assert out["values"] == [0.0, 0.0]


@pytest.mark.parametrize("heavy", [False, True])
def test_viscosity_residual_checks_its_end_snapshots(heavy):
    # the two ends enter only the time difference: they are checked all the same
    f = probe_function("sin", _heavy_grid() if heavy else _grid(-1.0, 3.0))
    for snaps in ([f, U, U], [U, U, f], [U, U, U, f]):
        with pytest.raises(InvalidInputError, match="different grid"):
            viscosity_residual(FAMILY, snaps, 0.1)


@pytest.mark.parametrize("probes, t_list", [
    ([U, probe_function("sin", _grid(-1.0, 3.0))], [0.2]),
    ([U, probe_function("quadratic", _heavy_grid())], [0.2]),
    ([U], [0.2, np.nan]),
    ([U], [0.2, -0.1]),
])
def test_property_suite_checks_before_it_measures(monkeypatch, probes, t_list):
    monkeypatch.setattr(diagnostics, "quadrature_tolerance",
                        lambda family: pytest.fail("eps_q measured before the check"))
    with pytest.raises(InvalidInputError, match="different grid|duration"):
        property_suite(FAMILY, probes, t_list)


def test_property_suite_rejects_an_empty_t_list(monkeypatch):
    monkeypatch.setattr(diagnostics, "quadrature_tolerance",
                        lambda family: pytest.fail("eps_q measured before the check"))
    with pytest.raises(InvalidInputError, match="at least one t"):
        property_suite(FAMILY, [U], [])
