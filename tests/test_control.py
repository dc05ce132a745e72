import numpy as np
import pytest

from nisio import (ConfigurationError, ControlPolicy, HeatOperator,
                   SemigroupFamily, duality_gap, greedy_policy, nisio_value,
                   partition_apply, Partition, policy_value, random_policy,
                   quadrature_tolerance)
from nisio.probes import probe_function


def test_policy_validation(coarse_grid):
    with pytest.raises(ConfigurationError):
        ControlPolicy(())
    with pytest.raises(ConfigurationError):
        ControlPolicy(((0.0, np.zeros(coarse_grid.size, dtype=int)),))
    pol = ControlPolicy(((0.5, np.zeros(coarse_grid.size, dtype=int)),
                         (0.25, np.ones(coarse_grid.size, dtype=int))))
    assert pol.horizon == pytest.approx(0.75)
    assert pol.n_stages == 2


def test_policy_selector_bounds_checked(coarse_family, coarse_grid):
    pol = ControlPolicy(((0.5, np.full(coarse_grid.size, 5)),))
    with pytest.raises(ConfigurationError):
        policy_value(coarse_family, pol, probe_function("sin", coarse_grid))


def test_single_stage_constant_selector(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    pol = ControlPolicy(((0.4, np.ones(coarse_grid.size, dtype=int)),))
    out = policy_value(coarse_family, pol, u)
    direct = coarse_family.members[1].apply(0.4, u)
    assert np.array_equal(out.values, direct.values)


def test_constant_high_volatility_policy_moment(coarse_family, coarse_grid):
    u = probe_function("quadratic", coarse_grid)
    m = 4
    pol = ControlPolicy(tuple((0.25, np.ones(coarse_grid.size, dtype=int))
                              for _ in range(m)))
    out = policy_value(coarse_family, pol, u)
    win = coarse_grid.window_mask(-2, 2)
    assert np.max(np.abs(out.values - (coarse_grid.points ** 2 + 1.0))[win]) < 1e-6


def test_greedy_matches_partition_apply_exactly(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    m = 16
    res = greedy_policy(coarse_family, 1.0, u, m)
    ref = partition_apply(coarse_family, Partition.uniform(1.0, m), u)
    assert np.array_equal(res.value.values, ref.values)
    assert np.array_equal(policy_value(coarse_family, res.policy, u).values, ref.values)


def test_greedy_matches_partition_apply_at_non_dyadic_horizon(coarse_family,
                                                              coarse_grid):
    # at t = 0.3 the linspace differences wander by an ulp around t/m; the
    # uniform partition steps by exactly t/m, like the greedy stages
    u = probe_function("quadratic", coarse_grid)
    res = greedy_policy(coarse_family, 0.3, u, 8)
    ref = partition_apply(coarse_family, Partition.uniform(0.3, 8), u)
    assert np.array_equal(res.value.values, ref.values)
    assert np.array_equal(policy_value(coarse_family, res.policy, u).values, ref.values)


def test_greedy_convex_concave_selects_extremes(coarse_family, coarse_grid):
    win = coarse_grid.window_mask(-2, 2)
    res = greedy_policy(coarse_family, 1.0, probe_function("quadratic", coarse_grid), 4)
    for _, sel in res.policy.stages:
        assert np.all(sel[win] == 1)
    assert np.max(np.abs(res.value.values - (coarse_grid.points ** 2 + 1.0))[win]) < 1e-6
    res = greedy_policy(coarse_family, 1.0, probe_function("neg-quadratic", coarse_grid), 4)
    for _, sel in res.policy.stages:
        assert np.all(sel[win] == 0)
    assert np.max(np.abs(res.value.values - (-coarse_grid.points ** 2 - 0.25))[win]) < 1e-6


def test_greedy_singleton(coarse_grid):
    member = HeatOperator(coarse_grid, 0.9)
    fam = SemigroupFamily([member])
    u = probe_function("sin", coarse_grid)
    res = greedy_policy(fam, 0.5, u, 8)
    assert np.allclose(res.value.values, member.apply(0.5, u).values, atol=1e-11)


def test_greedy_determinism(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    a = greedy_policy(coarse_family, 1.0, u, 8)
    b = greedy_policy(coarse_family, 1.0, u, 8)
    for (_, s1), (_, s2) in zip(a.policy.stages, b.policy.stages):
        assert np.array_equal(s1, s2)


def test_weak_duality_random_policies(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    res = nisio_value(coarse_family, 1.0, u, max_level=8, tol=1e-10)
    eps = quadrature_tolerance(coarse_family)
    rng = np.random.default_rng(11)
    for _ in range(25):
        pol = random_policy(coarse_family, 1.0, rng)
        assert pol.horizon == pytest.approx(1.0)
        excess = policy_value(coarse_family, pol, u).values - res.value.values
        assert float(np.max(excess)) <= eps + 1e-9


def test_duality_gap_quadratic(coarse_family, coarse_grid):
    out = duality_gap(coarse_family, 1.0, probe_function("quadratic", coarse_grid),
                      m=4, max_level=6, tol=1e-9,
                      window=coarse_grid.window_mask(-2, 2))
    assert out["gap"] <= 1e-6


def test_duality_gap_matched_partitions(coarse_family, coarse_grid):
    # m = 2^level stages and the level's dyadic partition are the same computation
    u = probe_function("sin", coarse_grid)
    level = 5
    res = nisio_value(coarse_family, 1.0, u, max_level=level, tol=1e-15)
    greedy = greedy_policy(coarse_family, 1.0, u, 2 ** level)
    assert np.array_equal(res.levels[level].values, greedy.value.values)
    assert np.array_equal(policy_value(coarse_family, greedy.policy, u).values,
                          greedy.value.values)


def test_one_step_policy_is_weaker(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    out = duality_gap(coarse_family, 1.0, u, m=1, max_level=6, tol=1e-9)
    assert out["gap"] >= 0.0


def test_policy_serialization_roundtrip(coarse_family, coarse_grid):
    res = greedy_policy(coarse_family, 0.5, probe_function("sin", coarse_grid), 3)
    data = res.policy.to_dict()
    back = ControlPolicy.from_dict(data)
    assert back.horizon == pytest.approx(res.policy.horizon)
    u = probe_function("sin", coarse_grid)
    assert np.array_equal(policy_value(coarse_family, back, u).values,
                          res.value.values)
