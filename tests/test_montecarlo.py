from collections import Counter

import numpy as np
import pytest

from nisio import (ChainOperator, ConfigurationError, ControlPolicy,
                   GBMOperator, GridFunction, HeatOperator, InvalidInputError,
                   KoopmanOperator, OUOperator, SamplerSpec, ScaledOperator,
                   SemigroupFamily, StableOperator, WeightedGrid, greedy_policy,
                   mc_compare, mc_value, sample_controlled_path,
                   sample_terminal_states)
from nisio.probes import probe_function


def constant_policy(grid, member_idx, m, t):
    return ControlPolicy(tuple((t / m, np.full(grid.size, member_idx))
                               for _ in range(m)))


def test_reproducibility(coarse_family, coarse_grid):
    pol = constant_policy(coarse_grid, 1, 4, 1.0)
    u = probe_function("quadratic", coarse_grid)
    a = mc_value(SamplerSpec(coarse_family, pol, 5000, seed=42), 0.0, u)
    b = mc_value(SamplerSpec(coarse_family, pol, 5000, seed=42), 0.0, u)
    assert a == b
    c = mc_value(SamplerSpec(coarse_family, pol, 5000, seed=43), 0.0, u)
    assert c["estimate"] != a["estimate"]


def test_constant_probe_zero_variance(coarse_family, coarse_grid):
    pol = constant_policy(coarse_grid, 0, 2, 0.5)
    u = probe_function("const", coarse_grid)
    out = mc_value(SamplerSpec(coarse_family, pol, 500, seed=1), 0.0, u)
    assert out["estimate"] == 1.0
    assert out["std_error"] == 0.0


def test_minimum_paths_enforced(coarse_family, coarse_grid):
    pol = constant_policy(coarse_grid, 0, 1, 0.5)
    with pytest.raises(InvalidInputError):
        mc_value(SamplerSpec(coarse_family, pol, 99, seed=1), 0.0,
                 probe_function("const", coarse_grid))


def test_heat_terminal_moment(coarse_family, coarse_grid):
    # sigma = 1 throughout: X_1 ~ N(0, 1), E X^2 = 1
    pol = constant_policy(coarse_grid, 1, 1, 1.0)
    spec = SamplerSpec(coarse_family, pol, 200_000, seed=7)
    out = mc_value(spec, 0.0, probe_function("quadratic", coarse_grid))
    assert abs(out["estimate"] - 1.0) <= 3.0 * out["std_error"]


def test_koopman_paths_deterministic(ou_grid):
    fam = SemigroupFamily([KoopmanOperator(ou_grid, lambda x: -x, 1.0)])
    pol = constant_policy(ou_grid, 0, 2, 1.0)
    spec = SamplerSpec(fam, pol, 500, seed=3)
    out = mc_value(spec, 1.0, probe_function("linear", ou_grid))
    assert out["std_error"] <= 1e-14   # identical paths; one ulp of the mean
    assert out["estimate"] == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert sample_controlled_path(spec, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_gbm_lognormal_mean(log_grid):
    fam = SemigroupFamily([GBMOperator(log_grid, 0.1, 0.2)])
    pol = constant_policy(log_grid, 0, 1, 1.0)
    spec = SamplerSpec(fam, pol, 400_000, seed=9)
    out = mc_value(spec, 1.0, probe_function("linear", log_grid))
    assert abs(out["estimate"] - np.exp(0.1)) <= 3.0 * out["std_error"]
    assert out["std_error"] <= 1e-3


def test_chain_two_state_matches_closed_form():
    g = WeightedGrid.labels(2)
    fam = SemigroupFamily([ChainOperator(g, np.array([[-1.0, 1.0], [1.0, -1.0]]))])
    pol = constant_policy(g, 0, 1, 1.0)
    spec = SamplerSpec(fam, pol, 200_000, seed=21)
    u = GridFunction(np.array([1.0, 0.0]), g)
    out = mc_value(spec, 0.0, u)
    oracle = (1.0 + np.exp(-2.0)) / 2.0
    assert abs(out["estimate"] - oracle) <= 3.0 * out["std_error"]


def test_chain_zero_rate_stays_put():
    g = WeightedGrid.labels(3)
    fam = SemigroupFamily([ChainOperator(g, np.zeros((3, 3)))])
    pol = constant_policy(g, 0, 3, 1.0)
    states, flagged = sample_terminal_states(SamplerSpec(fam, pol, 200, seed=2), 1.0)
    assert np.all(states == 1.0)
    assert flagged == 0


def test_stable_member_rejected(periodic_grid):
    fam = SemigroupFamily([StableOperator(periodic_grid, 0.5)])
    pol = constant_policy(periodic_grid, 0, 1, 1.0)
    with pytest.raises(ConfigurationError):
        SamplerSpec(fam, pol, 1000, seed=0)


def test_safety_box_flags_and_truncates(coarse_grid):
    fam = SemigroupFamily([HeatOperator(coarse_grid, 1.0)])
    pol = constant_policy(coarse_grid, 0, 1, 1.0)
    spec = SamplerSpec(fam, pol, 2000, seed=5, safety_box=(-0.5, 0.5))
    states, flagged = sample_terminal_states(spec, 0.0)
    assert flagged > 0
    assert np.all((states >= -0.5) & (states <= 0.5))


def test_mc_compare_greedy_convex(coarse_family, coarse_grid):
    u = probe_function("quadratic", coarse_grid)
    greedy = greedy_policy(coarse_family, 1.0, u, 16)
    spec = SamplerSpec(coarse_family, greedy.policy, 100_000, seed=12)
    out = mc_compare(spec, 0.0, u, max_level=5, tol=1e-9)
    assert not out["flag"]
    assert out["nisio"] == pytest.approx(1.0, abs=1e-3)
    assert out["grid"] == pytest.approx(1.0, abs=1e-3)


def test_weak_duality_through_sampling(coarse_family, coarse_grid):
    # any policy's sampled value stays below the envelope within noise
    u = probe_function("quadratic", coarse_grid)
    rng = np.random.default_rng(3)
    from nisio import nisio_value, random_policy
    env = nisio_value(coarse_family, 1.0, u, max_level=6, tol=1e-9)
    for _ in range(3):
        pol = random_policy(coarse_family, 1.0, rng)
        spec = SamplerSpec(coarse_family, pol, 50_000, seed=int(rng.integers(1 << 30)))
        out = mc_value(spec, 0.0, u)
        assert out["estimate"] - 3.0 * out["std_error"] <= env.value.at(0.0) + 1e-6


def test_mc_value_golden(coarse_family, coarse_grid):
    # pinned bit for bit: the member alternates from one grid point to the
    # next, so any change in the nearest-point lookup moves the estimate
    sel = np.arange(coarse_grid.size) % 2
    pol = ControlPolicy(tuple((1.0 / 16, sel) for _ in range(16)))
    out = mc_value(SamplerSpec(coarse_family, pol, 20_000, seed=2024), 0.0,
                   probe_function("quadratic", coarse_grid))
    assert out["estimate"] == 0.5969142484669573
    assert out["std_error"] == 0.006125157222167451


def test_ou_moments_once_per_member_and_duration(ou_grid, monkeypatch):
    calls = Counter()
    moments = OUOperator.moments

    def counting(self, t):
        calls[id(self), t] += 1
        return moments(self, t)

    monkeypatch.setattr(OUOperator, "moments", counting)
    members = [OUOperator(ou_grid, -0.5, 0.2, 1.0), OUOperator(ou_grid, 0.0, 0.0, 0.5)]
    fam = SemigroupFamily(members)
    u = probe_function("quadratic", ou_grid)
    mc_value(SamplerSpec(fam, constant_policy(ou_grid, 0, 8, 1.0), 500, seed=1), 0.0, u)
    assert calls == Counter({(id(members[0]), 0.125): 1})

    calls.clear()
    sel = (ou_grid.points > 0.0).astype(int)
    pol = ControlPolicy(tuple((0.125, sel) for _ in range(4))
                        + tuple((0.25, sel) for _ in range(2)))
    out = mc_value(SamplerSpec(fam, pol, 2000, seed=11), 0.0, u)
    assert calls == Counter({(id(m), h): 1 for m in members for h in (0.125, 0.25)})
    # hoisting changes no draw: the per-stage estimate, pinned bit for bit
    # (recorded with the exact matrix-exponential moments)
    assert out["estimate"] == 0.551595153043608
    assert out["std_error"] == 0.01778622657470645


def test_chain_and_gbm_stage_steps_golden(chain_family, label_grid, log_grid):
    pol = ControlPolicy(tuple((0.25, np.array([0, 1, 0, 1])) for _ in range(4)))
    out = mc_value(SamplerSpec(chain_family, pol, 5000, seed=5), 1.0,
                   GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid))
    assert (out["estimate"], out["std_error"]) == (2.2106, 0.04257149274337088)
    fam = SemigroupFamily([GBMOperator(log_grid, 0.1, 0.2),
                           ScaledOperator(GBMOperator(log_grid, 0.0, 0.4), 0.5)])
    pol = ControlPolicy(tuple((0.25, np.arange(log_grid.size) % 2) for _ in range(4)))
    out = mc_value(SamplerSpec(fam, pol, 5000, seed=3), 1.0,
                   probe_function("linear", log_grid))
    assert (out["estimate"], out["std_error"]) == (1.0358999212873587, 0.0037956585878406563)


def test_spec_rejects_policy_that_does_not_fit_the_family(coarse_family, coarse_grid):
    # a selector naming member 5 of a 2-member family used to sample nothing
    sel = np.zeros(coarse_grid.size, dtype=int)
    sel[coarse_grid.size // 2] = 5
    with pytest.raises(ConfigurationError, match="out of range"):
        SamplerSpec(coarse_family, ControlPolicy(((1.0, sel),)), 1000, seed=0)
    short = np.zeros(coarse_grid.size - 1, dtype=int)
    with pytest.raises(ConfigurationError, match="selector length"):
        SamplerSpec(coarse_family, ControlPolicy(((1.0, short),)), 1000, seed=0)


def test_only_selected_members_need_a_sampler(periodic_grid):
    fam = SemigroupFamily([HeatOperator(periodic_grid, 1.0),
                           StableOperator(periodic_grid, 0.5)])
    spec = SamplerSpec(fam, constant_policy(periodic_grid, 0, 2, 1.0), 100, seed=0)
    states, _ = sample_terminal_states(spec, 0.0)
    assert np.all(np.isfinite(states))
    sel = np.zeros(periodic_grid.size, dtype=int)
    sel[-1] = 1
    with pytest.raises(ConfigurationError, match="no exact-increment sampler"):
        SamplerSpec(fam, ControlPolicy(((1.0, sel),)), 100, seed=0)


def test_path_step_rejections_keep_their_text(label_grid):
    g2 = WeightedGrid.tensor([-1.0, -1.0], [1.0, 1.0], 5)
    ou2 = OUOperator(g2, np.zeros((2, 2)), np.zeros(2), np.eye(2))
    with pytest.raises(ConfigurationError,
                       match="path sampler supports 1D linear-drift members only"):
        ou2.path_step(0.5)
    leaky = ChainOperator(label_grid, -np.eye(4), allow_nonconservative=True)
    with pytest.raises(ConfigurationError,
                       match="stochastic representation needs a conservative rate matrix"):
        ScaledOperator(leaky, 2.0).path_step(0.5)


def test_zero_duration_stays_put_without_drawing(coarse_grid, log_grid, ou_grid,
                                                 chain_family):
    members = [HeatOperator(coarse_grid, 1.0), GBMOperator(log_grid, 0.1, 0.2),
               OUOperator(ou_grid, -0.5, 0.2, 1.0),
               KoopmanOperator(ou_grid, lambda x: -x, 1.0), chain_family.members[0]]
    states = np.array([0.0, 1.0, 2.0])
    first_draw = np.random.Generator(np.random.Philox(key=1)).random()
    for member in members:
        rng = np.random.Generator(np.random.Philox(key=1))
        out = ScaledOperator(member, 0.0).path_step(0.5)(states.copy(), rng)
        assert np.array_equal(out, states), member.name
        assert rng.random() == first_draw, member.name


def test_nested_scaling_uses_the_grid_duration(coarse_grid):
    # the grid path dilates outside in, S_b(S_a)(h) = S(a * (b * h)), which is
    # one ulp off (a * b) * h here; sampling must use the same duration
    a, b, h = 0.49, 2.558, 0.7661
    assert a * (b * h) != (a * b) * h
    base = HeatOperator(coarse_grid, 1.0)
    nested = ScaledOperator(ScaledOperator(base, a), b)
    nested.matrix(h)
    assert list(base._cache) == [a * (b * h)]
    states = np.linspace(-1.0, 1.0, 50)
    draws = [step(states, np.random.Generator(np.random.Philox(key=4)))
             for step in (nested.path_step(h), base.path_step(a * (b * h)))]
    assert np.array_equal(draws[0], draws[1])


def test_mc_compare_reads_the_sampled_label(chain_family, label_grid):
    # x0 = -1 starts every path at label 0; the grid and envelope values must
    # be read there too, not at values[-1]
    u = GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid)
    greedy = greedy_policy(chain_family, 1.0, u, 4)
    spec = SamplerSpec(chain_family, greedy.policy, 20_000, seed=3)
    low, zero = mc_compare(spec, -1.0, u), mc_compare(spec, 0.0, u)
    assert low == zero
    assert low["grid"] == float(greedy.value.values[0])
    assert not low["flag"]


# -- the whole-batch stage step vs the per-path sampler ----------------------

def per_path_terminal_states(spec, x0, rng=None):
    """The per-path sampler every stage used to run, kept as the oracle."""
    grid = spec.family.grid
    if rng is None:
        rng = spec.rng()
    states = np.full(spec.n_paths, float(x0))
    flagged = 0
    for h, sel in spec.policy.stages:
        member_idx = sel[grid.nearest_index(states)]
        for k in range(len(spec.family)):
            mask = member_idx == k
            if np.any(mask):
                states[mask] = spec._steps[k, h](states[mask], rng)
        if spec.safety_box is not None:
            lo, hi = spec.safety_box
            out = (states < lo) | (states > hi)
            flagged += int(np.sum(out))
            np.clip(states, lo, hi, out=states)
    return states, flagged


@pytest.fixture(scope="module")
def readme_greedy(heat_family, heat_grid):
    """The README config's mc policy: greedy, 64 stages to t = 1."""
    u = probe_function("quadratic", heat_grid)
    return greedy_policy(heat_family, 1.0, u, 64).policy


@pytest.fixture
def lookup_sizes(monkeypatch):
    """Sizes of the state batches passed to nearest_index, in call order."""
    sizes = []
    lookup = WeightedGrid.nearest_index

    def counting(self, x):
        sizes.append(int(np.size(x)))
        return lookup(self, x)

    monkeypatch.setattr(WeightedGrid, "nearest_index", counting)
    return sizes


def assert_matches_per_path(spec, x0, sizes=None):
    """Bit-identical paths from both samplers; with ``sizes`` (the
    ``lookup_sizes`` fixture), the number of stages that looked up every
    path."""
    states, flagged = sample_terminal_states(spec, x0)
    full_lookups = None if sizes is None else sizes.count(spec.n_paths)
    ref_states, ref_flagged = per_path_terminal_states(spec, x0)
    assert np.array_equal(states, ref_states)
    assert flagged == ref_flagged
    return full_lookups


def test_sampler_matches_per_path_readme_greedy(heat_family, readme_greedy):
    spec = SamplerSpec(heat_family, readme_greedy, 20_000, seed=1)
    assert_matches_per_path(spec, 0.0)


def test_sampler_matches_per_path_selector_switching_at_zero(
        heat_family, heat_grid, lookup_sizes):
    sel = (heat_grid.points > 0.0).astype(int)
    pol = ControlPolicy(tuple((1.0 / 16, sel) for _ in range(16)))
    # all paths start at one node; every later stage looks up every path
    spec = SamplerSpec(heat_family, pol, 20_000, seed=2)
    assert assert_matches_per_path(spec, 0.0, lookup_sizes) == 15


def test_sampler_matches_per_path_selector_switching_late(heat_family, heat_grid,
                                                          lookup_sizes):
    early = np.ones(heat_grid.size, dtype=int)
    late = (heat_grid.points > 0.5).astype(int)
    pol = ControlPolicy(tuple((1.0 / 16, early) for _ in range(8))
                        + tuple((1.0 / 16, late) for _ in range(8)))
    spec = SamplerSpec(heat_family, pol, 20_000, seed=3)
    assert assert_matches_per_path(spec, 0.0, lookup_sizes) == 8


def test_sampler_matches_per_path_chain(chain_family, label_grid):
    for sel in ([0, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 0]):
        pol = ControlPolicy(tuple((0.25, np.array(sel)) for _ in range(4)))
        assert_matches_per_path(SamplerSpec(chain_family, pol, 5000, seed=5), 1.0)


def test_sampler_matches_per_path_gbm(log_grid, lookup_sizes):
    fam = SemigroupFamily([GBMOperator(log_grid, 0.1, 0.2),
                           ScaledOperator(GBMOperator(log_grid, 0.0, 0.4), 0.5)])
    # constant while the paths stay below x = 2, switching inside them later
    sel = (log_grid.points > 2.0).astype(int)
    pol = ControlPolicy(tuple((0.25, sel) for _ in range(8)))
    full = assert_matches_per_path(SamplerSpec(fam, pol, 5000, seed=3), 1.0,
                                   lookup_sizes)
    assert 0 < full < 8


class _Fan(HeatOperator):
    """Stub member that spreads the batch evenly over [-1, 1], drawing nothing."""

    def path_step(self, h):
        return lambda states, rng: np.linspace(-1.0, 1.0, states.size)


@pytest.mark.parametrize("end", [-1.0, 1.0])
def test_sampler_matches_per_path_switch_at_span_end(coarse_grid, end):
    # after the fan, only the paths next to one end of the span sit at the
    # node where the selector names a third member
    fam = SemigroupFamily([_Fan(coarse_grid, 1.0), HeatOperator(coarse_grid, 1.0),
                           HeatOperator(coarse_grid, 0.5)])
    sel = np.ones(coarse_grid.size, dtype=int)
    sel[coarse_grid.nearest_index(end)] = 2
    pol = ControlPolicy(((0.5, np.zeros(coarse_grid.size, dtype=int)), (0.5, sel)))
    assert_matches_per_path(SamplerSpec(fam, pol, 1001, seed=6), 0.0)


class _NaNBeyondZero(HeatOperator):
    """Stub member whose stage step turns every positive state into NaN."""

    def path_step(self, h):
        def step(states, rng):
            moved = states + rng.standard_normal(states.size)
            return np.where(states > 0.0, np.nan, moved)
        return step


def test_sampler_rejects_nan_states_like_per_path(coarse_grid):
    fam = SemigroupFamily([_NaNBeyondZero(coarse_grid, 1.0)])
    spec = SamplerSpec(fam, constant_policy(coarse_grid, 0, 3, 1.0), 1000, seed=4)
    for sampler in (sample_terminal_states, per_path_terminal_states):
        with pytest.raises(InvalidInputError, match="states must not be NaN"):
            sampler(spec, 0.0)


def test_sampler_looks_up_two_states_per_stage(heat_family, readme_greedy,
                                               lookup_sizes):
    # a change that loses the whole-batch step fails here, not only in the
    # benchmark
    sample_terminal_states(SamplerSpec(heat_family, readme_greedy, 10_000, seed=1), 0.0)
    assert sum(lookup_sizes) == 2 * 64


def test_periodic_paths_wrap(periodic_grid):
    # the heat kernel wraps on a periodic grid, so the paths must too:
    # E cos(x0 + W_1) = exp(-1/2) cos(x0)
    fam = SemigroupFamily([HeatOperator(periodic_grid, 1.0)])
    spec = SamplerSpec(fam, constant_policy(periodic_grid, 0, 16, 1.0), 100_000, seed=8)
    out = mc_value(spec, 2.5, probe_function("cos", periodic_grid))
    assert out["flagged_paths"] == 0
    assert abs(out["estimate"] - np.exp(-0.5) * np.cos(2.5)) <= 4.0 * out["std_error"]
