import numpy as np
import pytest

from nisio import (ConfigurationError, GridFunction, HeatOperator,
                   InvalidInputError, Partition, SemigroupFamily, WeightedGrid,
                   dpp_check, envelope_step, envelope_step_argmax, nisio_value,
                   partition_apply, quadrature_tolerance, upper_bound_check,
                   weighted_norm)
from nisio.envelope import MAX_MEMBER_APPLIES
from nisio.probes import probe_function


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        Partition(np.array([]))
    with pytest.raises(ConfigurationError):
        Partition(np.array([0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        Partition(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ConfigurationError, match="need at least one step"):
        Partition.uniform(1.0, 0)
    p = Partition(np.array([0.0, 0.25, 1.0]))
    assert p.mesh == 0.75
    assert p.endpoint == 1.0
    assert Partition(np.array([0.0])).mesh == 0.0
    assert Partition.dyadic(1.0, 3).refines(Partition.uniform(1.0, 4))
    assert not Partition.uniform(1.0, 3).refines(Partition.uniform(1.0, 2))


def test_envelope_step_trivials(coarse_family, coarse_grid):
    one = probe_function("const", coarse_grid)
    out = envelope_step(coarse_family, 0.1, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-13
    u = probe_function("sin", coarse_grid)
    assert envelope_step(coarse_family, 0.0, u) is u


def test_envelope_step_selects_largest_variance(coarse_family, coarse_grid):
    win = coarse_grid.window_mask(-2, 2)
    uq = probe_function("quadratic", coarse_grid)
    out = envelope_step(coarse_family, 0.1, uq)
    assert np.max(np.abs(out.values - (coarse_grid.points ** 2 + 0.1))[win]) < 1e-9
    un = probe_function("neg-quadratic", coarse_grid)
    out = envelope_step(coarse_family, 0.1, un)
    assert np.max(np.abs(out.values - (-coarse_grid.points ** 2 - 0.025))[win]) < 1e-9


def test_envelope_singleton_equals_member(coarse_grid):
    member = HeatOperator(coarse_grid, 0.8)
    fam = SemigroupFamily([member])
    u = probe_function("sin", coarse_grid)
    assert np.array_equal(envelope_step(fam, 0.2, u).values,
                          member.apply(0.2, u).values)


def test_argmax_tie_breaks_to_lowest_index(coarse_grid):
    fam = SemigroupFamily([HeatOperator(coarse_grid, 1.0), HeatOperator(coarse_grid, 1.0)])
    u = probe_function("quadratic", coarse_grid)
    _, idx = envelope_step_argmax(fam, 0.1, u)
    assert np.all(idx == 0)


def test_partition_apply_trivials(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    assert partition_apply(coarse_family, Partition(np.array([0.0])), u) is u
    h = 0.3
    two = partition_apply(coarse_family, Partition(np.array([0.0, h])), u)
    assert np.array_equal(two.values, envelope_step(coarse_family, h, u).values)


def test_partition_apply_quadratic_recursion(coarse_family, coarse_grid):
    u = probe_function("quadratic", coarse_grid)
    pi = Partition(np.array([0.0, 0.5, 1.0]))
    out = partition_apply(coarse_family, pi, u)
    win = coarse_grid.window_mask(-2, 2)
    assert np.max(np.abs(out.values - (coarse_grid.points ** 2 + 1.0))[win]) < 1e-6


def test_nisio_convex_concave(coarse_family, coarse_grid):
    win = coarse_grid.window_mask(-2, 2)
    res = nisio_value(coarse_family, 1.0, probe_function("quadratic", coarse_grid),
                      max_level=6, tol=1e-9)
    assert np.max(np.abs(res.value.values - (coarse_grid.points ** 2 + 1.0))[win]) < 1e-3
    res = nisio_value(coarse_family, 1.0, probe_function("neg-quadratic", coarse_grid),
                      max_level=6, tol=1e-9)
    assert np.max(np.abs(res.value.values - (-coarse_grid.points ** 2 - 0.25))[win]) < 1e-3


def test_nisio_singleton_every_level(coarse_grid):
    member = HeatOperator(coarse_grid, 1.0)
    fam = SemigroupFamily([member])
    u = probe_function("sin", coarse_grid)
    res = nisio_value(fam, 0.5, u, max_level=4, tol=1e-12)
    direct = member.apply(0.5, u).values
    for lvl in res.levels:
        assert np.max(np.abs(lvl.values - direct)) < 1e-10


def test_nisio_zero_horizon(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    res = nisio_value(coarse_family, 0.0, u)
    assert res.converged and res.value is u


def test_nisio_brute_force_oracle():
    # oracle: uniform 1024-step composition on a doubled-resolution grid
    g_fine = WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect")
    fam_fine = SemigroupFamily([HeatOperator(g_fine, 0.5), HeatOperator(g_fine, 1.0)])
    u_fine = probe_function("sin", g_fine)
    oracle = partition_apply(fam_fine, Partition.uniform(0.25, 1024), u_fine)

    g = WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")
    fam = SemigroupFamily([HeatOperator(g, 0.5), HeatOperator(g, 1.0)])
    res = nisio_value(fam, 0.25, probe_function("sin", g), max_level=8, tol=1e-8)
    coarse_on_fine = np.interp(g.points, g_fine.points, oracle.values)
    assert np.max(np.abs(res.value.values - coarse_on_fine)) < 1e-3


def test_uniform_partition_steps_are_exact():
    pi = Partition.uniform(0.3, 8)
    assert np.array_equal(pi.times, np.linspace(0.0, 0.3, 9))
    assert pi.gaps.tolist() == [0.3 / 8] * 8
    assert pi.mesh == 0.3 / 8
    # one duration per level: level n builds one matrix per member, not
    # one per distinct linspace difference
    grid = WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")
    family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
    nisio_value(family, 0.3, probe_function("sin", grid), max_level=8, tol=1e-300)
    for member in family:
        assert sorted(member._cache) == [0.3 / 2 ** n for n in range(8, -1, -1)]


def test_nisio_levels_nondecreasing(coarse_family, coarse_grid):
    res = nisio_value(coarse_family, 1.0, probe_function("sin", coarse_grid),
                      max_level=5, tol=1e-12)
    for a, b in zip(res.levels, res.levels[1:]):
        assert float(np.min(b.values - a.values)) >= -1e-11


def test_nisio_non_convergence_flag(coarse_family, coarse_grid):
    res = nisio_value(coarse_family, 1.0, probe_function("sin", coarse_grid),
                      max_level=2, tol=1e-15)
    assert not res.converged
    assert len(res.levels) == 3


def test_nisio_argument_validation(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    with pytest.raises(InvalidInputError):
        nisio_value(coarse_family, -1.0, u)
    with pytest.raises(InvalidInputError):
        nisio_value(coarse_family, 1.0, u, tol=0.0)
    with pytest.raises(InvalidInputError, match="tol must be positive"):
        nisio_value(coarse_family, 1.0, u, tol=np.nan)
    with pytest.raises(InvalidInputError):
        nisio_value(coarse_family, 1.0, u, max_level=0)


def test_nisio_work_budget_checked_before_building(coarse_grid):
    family = SemigroupFamily([HeatOperator(coarse_grid, 0.5), HeatOperator(coarse_grid, 1.0)])
    u = probe_function("sin", coarse_grid)
    with pytest.raises(InvalidInputError, match="max_level 40"):
        nisio_value(family, 1.0, u, max_level=40)
    assert all(member._cache == {} for member in family)
    # level 12 with 2048 members is the largest K the budget admits there
    assert (2 ** 13 - 1) * 2048 <= MAX_MEMBER_APPLIES < (2 ** 13 - 1) * 2049


def test_dpp_zero_time_exact(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    assert dpp_check(coarse_family, 0.0, 0.7, u)["defect"] == 0.0
    assert dpp_check(coarse_family, 0.7, 0.0, u)["defect"] == 0.0


def test_dpp_quadratic_small_defect(coarse_family, coarse_grid):
    win = coarse_grid.window_mask(-2, 2)
    out = dpp_check(coarse_family, 0.5, 0.5, probe_function("quadratic", coarse_grid),
                    max_level=5, tol=1e-12, window=win)
    assert out["defect"] <= 1e-6


def test_upper_bound_singleton_zero_slack(coarse_grid):
    fam = SemigroupFamily([HeatOperator(coarse_grid, 0.8)])
    out = upper_bound_check(fam, 0.5, probe_function("sin", coarse_grid),
                            max_level=3, tol=1e-10)
    assert abs(out["min_slack"]) < 1e-10


def test_upper_bound_quadratic_slack(coarse_family, coarse_grid):
    # envelope value x^2 + t; the sigma = 0.5 member reaches x^2 + t/4
    out = upper_bound_check(coarse_family, 1.0, probe_function("quadratic", coarse_grid),
                            max_level=4, tol=1e-10)
    assert out["min_slack"] >= -1e-9
    member = coarse_family.members[0]
    u = probe_function("quadratic", coarse_grid)
    gap = out["result"].value.values - member.apply(1.0, u).values
    win = coarse_grid.window_mask(-2, 2)
    assert np.max(np.abs(gap[win] - 0.75)) < 1e-3


def test_sublinearity_and_homogeneity(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    v = probe_function("bump", coarse_grid)
    s = u.with_values(u.values + v.values)
    left = envelope_step(coarse_family, 0.3, s).values
    right = envelope_step(coarse_family, 0.3, u).values \
        + envelope_step(coarse_family, 0.3, v).values
    assert np.min(right - left) >= -1e-12
    for c in (0.0, 2.5):
        cu = u.with_values(c * u.values)
        assert np.allclose(envelope_step(coarse_family, 0.3, cu).values,
                           c * envelope_step(coarse_family, 0.3, u).values, atol=1e-12)


def test_contraction_in_weighted_norm(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    v = probe_function("bump", coarse_grid)
    before = weighted_norm(u.with_values(u.values - v.values))
    eu = envelope_step(coarse_family, 0.5, u).values
    ev = envelope_step(coarse_family, 0.5, v).values
    after = weighted_norm(u.with_values(eu - ev))
    assert after <= before + 1e-12   # alpha = 0 for stochastic rows


@pytest.mark.parametrize("step", [envelope_step, envelope_step_argmax])
@pytest.mark.parametrize("h", [-0.1, np.nan, np.inf])
def test_step_rejects_bad_duration(coarse_family, coarse_grid, step, h):
    u = probe_function("sin", coarse_grid)
    with pytest.raises(InvalidInputError, match="duration must be finite"):
        step(coarse_family, h, u)


def test_quadrature_tolerance_floor(coarse_family):
    assert quadrature_tolerance(coarse_family) >= 1e-12


def test_chain_generic_pair_refines_first_order(label_grid, chain_family):
    # noncommuting members: dyadic iterates approach the fine-partition value
    # at first order, halving the gap per level
    u = GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid)
    fine = partition_apply(chain_family, Partition.uniform(1.0, 4096), u)
    gaps = []
    for level in (6, 7, 8):
        v = partition_apply(chain_family, Partition.dyadic(1.0, level), u)
        gaps.append(np.max(np.abs(v.values - fine.values)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)
