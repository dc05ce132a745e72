import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nisio import (ChainOperator, ConfigurationError, ControlPolicy,
                   GBMOperator, GridFunction, HeatOperator, InvalidInputError,
                   KoopmanOperator, OUOperator, SamplerSpec, ScaledOperator,
                   SemigroupFamily, StableOperator, WeightedGrid, greedy_policy,
                   mc_compare, mc_value, sample_terminal_states)
from nisio import montecarlo
from nisio.probes import probe_function


def constant_policy(grid, member_idx, m, t):
    return ControlPolicy(tuple((t / m, np.full(grid.size, member_idx))
                               for _ in range(m)))


def test_path_stage_budget_is_exact(coarse_family, coarse_grid, monkeypatch):
    # 101 paths over 3 stages draw 303 path-stages: a budget of 303 admits
    # them, one of 302 rejects them before any path is allocated
    pol = constant_policy(coarse_grid, 1, 3, 1.0)
    monkeypatch.setattr(montecarlo, "MAX_PATH_STAGES", 303)
    states, _ = sample_terminal_states(SamplerSpec(coarse_family, pol, 101, seed=1), 0.0)
    assert states.size == 101
    monkeypatch.setattr(montecarlo, "MAX_PATH_STAGES", 302)
    with pytest.raises(InvalidInputError, match="101 paths over 3 stages need 303 "
                                                "path-stages, above the budget of 302"):
        SamplerSpec(coarse_family, pol, 101, seed=1)


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
    states, _ = sample_terminal_states(spec, 1.0)
    assert states[0] == pytest.approx(np.exp(-1.0), abs=1e-8)


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


def test_paths_leaving_the_grid_are_flagged_and_clipped_to_its_ends():
    grid = WeightedGrid.uniform(-0.5, 0.5, 0.02, boundary="reflect")
    fam = SemigroupFamily([HeatOperator(grid, 1.0)])
    pol = constant_policy(grid, 0, 1, 1.0)
    spec = SamplerSpec(fam, pol, 2000, seed=5)
    states, flagged = sample_terminal_states(spec, 0.0)
    assert flagged > 0
    assert np.all((states >= -0.5) & (states <= 0.5))


def test_mc_compare_greedy_convex(coarse_family, coarse_grid):
    u = probe_function("quadratic", coarse_grid)
    greedy = greedy_policy(coarse_family, 1.0, u, 16)
    spec = SamplerSpec(coarse_family, greedy.policy, 100_000, seed=12)
    out = mc_compare(spec, 0.0, u, greedy.value)
    assert not out["flag"]
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


def test_zero_variance_ou_samples_the_affine_map(ou_grid):
    # C = 0: a step of h moves x to exp(B h) x + (m / B)(exp(B h) - 1) and
    # draws nothing
    B, m, h = -0.5, 0.2, 0.3
    states = np.linspace(-2.0, 2.0, 9)
    rng = np.random.Generator(np.random.Philox(key=2))
    first_draw = np.random.Generator(np.random.Philox(key=2)).random()
    out = OUOperator(ou_grid, B, m, 0.0).path_step(h)(states.copy(), rng)
    decay = np.exp(B * h)
    assert np.allclose(out, decay * states + m / B * (decay - 1.0), rtol=1e-13, atol=1e-15)
    assert rng.random() == first_draw


def test_nested_scaling_uses_the_grid_duration(coarse_grid):
    # the grid path dilates outside in, S_b(S_a)(h) = S(a * (b * h)), which is
    # one ulp off (a * b) * h here; sampling must use the same duration
    a, b, h = 0.49, 2.558, 0.7661
    assert a * (b * h) != (a * b) * h
    base = HeatOperator(coarse_grid, 1.0)
    nested = ScaledOperator(ScaledOperator(base, a), b)
    # a heat(1) key is the variance 1 * duration: the duration itself
    assert nested._kernel_key(h) == a * (b * h)
    kernel = nested.matrix(h)       # dense: its band, 983 wide, spans the 801 nodes
    solo = HeatOperator(coarse_grid, 1.0).matrix(a * (b * h))
    assert type(kernel) is type(solo) is np.ndarray and np.array_equal(kernel, solo)
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
    low = mc_compare(spec, -1.0, u, greedy.value)
    zero = mc_compare(spec, 0.0, u, greedy.value)
    assert low == zero
    assert low["grid"] == float(greedy.value.values[0])
    assert not low["flag"]


# -- the whole-batch stage step vs the per-path sampler ----------------------

def per_path_terminal_states(spec, x0):
    """The per-path sampler every stage used to run, kept as the oracle."""
    grid = spec.family.grid
    rng = spec.rng()

    def wrap(states):
        # into the node-centred period; states inside keep their bits
        lo = grid.points[0] - 0.5 * grid.spacing
        out = (states < lo) | (states >= lo + grid.period)
        return np.where(out, lo + np.mod(states - lo, grid.period), states)

    periodic = grid.kind == "periodic"
    states = np.full(spec.n_paths, float(x0))
    if periodic:
        states = wrap(states)
    flagged = 0
    for h, sel in spec.policy.stages:
        member_idx = sel[grid.nearest_index(states)]
        for k in range(len(spec.family)):
            mask = member_idx == k
            if np.any(mask):
                states[mask] = spec._steps[k, h](states[mask], rng)
        if periodic:
            states = wrap(states)
        else:
            lo, hi = grid.points[0], grid.points[-1]
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


def _lookup_chain_step(member, h):
    """The chain stage step that looked every state up, kept as the oracle."""
    cum = np.cumsum(member.jump_matrix, axis=1)
    cum[:, -1] = 1.0

    def step(states, rng):
        idx = member.grid.nearest_index(states)
        n_jumps = rng.poisson(member.rate * h, size=states.size)
        for j in range(int(n_jumps.max(initial=0))):
            active = n_jumps > j
            draws = rng.random(int(active.sum()))
            idx[active] = (cum[idx[active]] < draws[:, None]).sum(axis=1)
        return idx.astype(float)
    return step


def test_chain_stages_read_labels(chain_family, label_grid, lookup_sizes):
    # the start is snapped to its label by one lookup of one state; no stage
    # looks a path up
    pol = ControlPolicy(tuple((0.25, np.zeros(4, dtype=int)) for _ in range(4)))
    spec = SamplerSpec(chain_family, pol, 5000, seed=5)
    ref_spec = SamplerSpec(chain_family, pol, 5000, seed=5)
    ref_spec._steps.update({key: _lookup_chain_step(chain_family.members[key[0]], key[1])
                            for key in ref_spec._steps})
    u = GridFunction(np.array([0.0, 1.0, 4.0, 9.0]), label_grid)
    for x0, label in ((1.0, 1.0), (1.7, 2.0), (-0.6, 0.0), (3.5, 3.0)):
        lookup_sizes.clear()
        states, flagged = sample_terminal_states(spec, x0)
        assert lookup_sizes == [1, 2, 2, 2, 2]
        ref_states, ref_flagged = per_path_terminal_states(ref_spec, x0)
        assert np.array_equal(states, ref_states) and flagged == ref_flagged == 0
        assert mc_value(spec, x0, u) == mc_value(spec, label, u)


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


def test_sampler_matches_per_path_across_the_periodic_seam(periodic_grid,
                                                          lookup_sizes):
    # the paths start next to the seam at pi and spread over it; the
    # selector changes between neighbouring nodes everywhere, so every stage
    # but the first, whose paths all share one node, looks up every path
    fam = SemigroupFamily([HeatOperator(periodic_grid, 0.5),
                           HeatOperator(periodic_grid, 1.0)])
    sel = np.arange(periodic_grid.size) % 2
    pol = ControlPolicy(tuple((0.125, sel) for _ in range(8)))
    spec = SamplerSpec(fam, pol, 5000, seed=13)
    assert assert_matches_per_path(spec, np.pi - 0.001, lookup_sizes) == 7
    states, _ = sample_terminal_states(spec, np.pi - 0.001)
    assert np.any(states < 0.0) and np.any(states > 0.0)


@pytest.mark.parametrize("x0, node", [(np.pi - 0.001, 0), (3.2, 2)],
                         ids=["seam", "beyond-pi"])
def test_periodic_paths_take_the_member_of_the_nearest_node_on_the_circle(
        periodic_grid, x0, node):
    # pi - 0.001 lies in the last half-cell before the seam, nearer to node 0
    # (-pi) than to node 255; 3.2 - 2 pi lies nearest to node 2.  The member
    # chosen there moves every path, every other node's member keeps it still
    fam = SemigroupFamily([HeatOperator(periodic_grid, 0.0),
                           HeatOperator(periodic_grid, 1.0)])
    sel = np.zeros(periodic_grid.size, dtype=int)
    sel[node] = 1
    states, _ = sample_terminal_states(
        SamplerSpec(fam, ControlPolicy(((0.01, sel),)), 1000, seed=17), x0)
    moving, _ = sample_terminal_states(
        SamplerSpec(fam, constant_policy(periodic_grid, 1, 1, 0.01), 1000, seed=17), x0)
    assert np.array_equal(states, moving)


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


# -- one bounds pass per stage: the elementwise clip only where paths left ----

@pytest.fixture
def elementwise_passes(monkeypatch):
    """Names of the elementwise passes (end clip, periodic wrap) the sampler
    ran, in call order."""
    calls = []
    for name in ("_clip_to_ends", "_wrap_into_period"):
        def counting(grid, states, name=name, elementwise=getattr(montecarlo, name)):
            calls.append(name)
            return elementwise(grid, states)
        monkeypatch.setattr(montecarlo, name, counting)
    return calls


def test_sampler_clips_only_the_stages_whose_paths_left_heat(elementwise_passes):
    # sigma 1 over 0.25 spreads the paths past both ends of [-0.5, 0.5];
    # sigma 0 keeps them; the third selector diffuses only x > 0, through the
    # per-path route, and carries some paths past the right end
    grid = WeightedGrid.uniform(-0.5, 0.5, 0.02, boundary="reflect")
    fam = SemigroupFamily([HeatOperator(grid, 1.0), HeatOperator(grid, 0.0)])
    wide, still = np.zeros(grid.size, dtype=int), np.ones(grid.size, dtype=int)
    right = np.where(grid.points > 0.0, 0, 1)
    pol = ControlPolicy(tuple((0.25, sel) for sel in (wide, still, still, right, still)))
    spec = SamplerSpec(fam, pol, 2000, seed=5)
    states, flagged = sample_terminal_states(spec, 0.0)
    assert flagged > 0
    assert elementwise_passes == ["_clip_to_ends"] * 2
    assert_matches_per_path(spec, 0.0)


def test_sampler_clips_only_the_stages_whose_paths_left_ou(elementwise_passes):
    # unit noise over 0.25 leaves [-1, 1]; B = -20 pulls every path back
    # within 0.1 of the origin
    grid = WeightedGrid.uniform(-1.0, 1.0, 0.01, boundary="reflect")
    fam = SemigroupFamily([OUOperator(grid, 0.0, 0.0, 4.0),
                           OUOperator(grid, -20.0, 0.0, 0.01)])
    noise, pull = np.zeros(grid.size, dtype=int), np.ones(grid.size, dtype=int)
    pol = ControlPolicy(tuple((0.25, sel) for sel in (noise, pull, noise, pull)))
    spec = SamplerSpec(fam, pol, 2000, seed=9)
    states, flagged = sample_terminal_states(spec, 0.0)
    assert flagged > 0 and np.max(np.abs(states)) < 0.1
    assert elementwise_passes == ["_clip_to_ends"] * 2
    assert_matches_per_path(spec, 0.0)


def test_sampler_wraps_only_once_the_paths_reach_the_seam(periodic_grid,
                                                          elementwise_passes):
    # sigma 0.05 keeps the paths near 0 for four stages; sigma 3 then carries
    # some across the seam at +-pi in each of the last four
    fam = SemigroupFamily([HeatOperator(periodic_grid, 0.05),
                           HeatOperator(periodic_grid, 3.0)])
    pol = ControlPolicy(tuple((0.125, np.full(periodic_grid.size, k))
                              for k in (0, 0, 0, 0, 1, 1, 1, 1)))
    spec = SamplerSpec(fam, pol, 5000, seed=13)
    states, flagged = sample_terminal_states(spec, 0.0)
    # the start's wrap, then one per stage that crossed the seam
    assert elementwise_passes == ["_wrap_into_period"] * 5
    assert flagged == 0 and np.any(np.abs(states) > 3.0)
    assert_matches_per_path(spec, 0.0)


def test_sampler_skips_the_clip_when_no_path_leaves(heat_family, readme_greedy,
                                                    elementwise_passes):
    # no path of the README greedy run leaves [-8, 8]: the stages read their
    # bounds and run no elementwise compare or clip
    states, flagged = sample_terminal_states(
        SamplerSpec(heat_family, readme_greedy, 10_000, seed=1), 0.0)
    assert flagged == 0
    assert elementwise_passes == []


@pytest.mark.parametrize("route", ["whole-batch", "per-path"])
def test_mc_value_memory_per_path(coarse_family, coarse_grid, route):
    # u is evaluated in blocks into one array and the standard deviation is
    # taken in place; traced at 2^20 paths over two stages, the whole-batch
    # route peaks at 18.5 B per path (states, values and one block of u's
    # evaluation; the sampler before it peaks at 18.1, with the normals
    # ring's fixed 2.0 MiB), the per-path route at 27.3 (the ring, its blocked
    # lookup's member indices, a mask, and the masked states and their step);
    # the bounds leave 1.5 and 1.7 B per path over those peaks
    sel = (np.ones(coarse_grid.size, dtype=int) if route == "whole-batch"
           else (coarse_grid.points > 0.0).astype(int))
    n = 2 ** 20
    spec = SamplerSpec(coarse_family, ControlPolicy(((0.5, sel), (0.5, sel))), n, seed=1)
    u = probe_function("quadratic", coarse_grid)
    tracemalloc.start()
    try:
        mc_value(spec, 0.0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= {"whole-batch": 20, "per-path": 29}[route] * n, peak / n


def test_member_indices_match_the_whole_batch_lookup(coarse_grid, monkeypatch):
    # a block size that divides nothing, states on and off the grid, ties
    monkeypatch.setattr(montecarlo, "_EVAL_BLOCK", 7)
    rng = np.random.default_rng(4)
    states = np.concatenate([rng.uniform(-10.0, 10.0, 1000),
                             coarse_grid.points[::37] + 0.01, [-np.inf, np.inf]])
    sel = rng.integers(0, 3, coarse_grid.size)
    got = montecarlo._member_indices(coarse_grid, sel, states)
    expected = sel[coarse_grid.nearest_index(states)]
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_blocked_lookup_matches_per_path(heat_family, heat_grid, monkeypatch):
    # per-path stages over several lookup blocks give the oracle's states
    monkeypatch.setattr(montecarlo, "_EVAL_BLOCK", 4096)
    sel = (heat_grid.points > 0.0).astype(int)
    pol = ControlPolicy(tuple((1.0 / 8, sel) for _ in range(8)))
    assert_matches_per_path(SamplerSpec(heat_family, pol, 20_000, seed=6), 0.0)


def test_per_path_stage_memory_per_path(coarse_family, coarse_grid):
    # the per-path lookup fills one member-index array block by block, so a
    # per-path stage peaks at 27.3 B per path traced at 2^20 paths (25.2
    # without the normals ring), not at the 49 of a lookup over the whole batch
    sel = (coarse_grid.points > 0.0).astype(int)
    n = 2 ** 20
    spec = SamplerSpec(coarse_family, ControlPolicy(((0.5, sel), (0.5, sel))), n, seed=1)
    tracemalloc.start()
    try:
        sample_terminal_states(spec, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n, peak / n


# -- the normals drawn ahead by a two-thread pool ------------------------------

def test_philox_normals_do_not_depend_on_how_the_draws_are_split():
    # the stream relies on this: a run of standard_normal calls, fresh or
    # into buffers, draws the normals of one call of the total size
    sizes = [1, 2 ** 16 - 1, 2, 2 ** 16 + 1, 7, 100_000, 3]
    for key in (0, 1, 12345):
        whole = np.random.Generator(np.random.Philox(key=key)).standard_normal(sum(sizes))
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert np.array_equal(np.concatenate([fresh.standard_normal(k) for k in sizes]),
                              whole)
        into = np.random.Generator(np.random.Philox(key=key))
        buf = np.empty(max(sizes))
        parts = []
        for k in sizes:
            into.standard_normal(out=buf[:k])
            parts.append(buf[:k].copy())
        assert np.array_equal(np.concatenate(parts), whole)


def _philox(key):
    """A fresh-generator factory, as ``SamplerSpec.rng``."""
    return lambda: np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("chunk", [7, 1000, 2 ** 16])
def test_normal_stream_matches_the_generator(monkeypatch, chunk):
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", chunk)
    sizes = [1, 6, 7, 8, 999, 1000, 1001, 0, 5000, 3]
    whole = _philox(9)().standard_normal(sum(sizes))
    stream = montecarlo._NormalStream(_philox(9), sum(sizes))
    try:
        parts = [stream.standard_normal(k) for k in sizes]
        with pytest.raises(RuntimeError, match="exhausted"):
            stream.standard_normal(1)
    finally:
        stream.close()
    assert np.array_equal(np.concatenate(parts), whole)


def _read(key, sizes):
    """The normals of draws of ``sizes`` from a stream of their sum."""
    with montecarlo._NormalStream(_philox(key), sum(sizes)) as stream:
        return np.concatenate([stream.standard_normal(k) for k in sizes])


@pytest.fixture
def refills(monkeypatch):
    """The segments the stream drew again from the one before, in order."""
    drawn = []
    fill = montecarlo._NormalStream._fill

    def recording(self, buf, end, gen=None, pos=0):
        if gen is not None:
            drawn.append(end)
        return fill(self, buf, end, gen, pos)

    monkeypatch.setattr(montecarlo._NormalStream, "_fill", recording)
    return drawn


def test_spliced_stream_matches_the_generator_over_many_seeds(monkeypatch, refills):
    # segments of 64 to 1000 normals, about 1000 of them per seed, read in
    # draws of odd sizes, 0 among them; every splice must land on a true start
    rng = np.random.default_rng(30)
    for key in range(50):
        chunk = int(rng.integers(64, 1001))
        monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", chunk)
        sizes = rng.integers(0, 3 * chunk, 670).tolist()
        sizes[::67] = [0] * len(sizes[::67])
        assert np.array_equal(_read(key, sizes), _philox(key)().standard_normal(sum(sizes))), \
            (key, chunk)
    assert len(refills) < 10


@pytest.mark.parametrize("total", [0, 1, 63, 64, 65, 640, 6400, 64 * 1001])
def test_spliced_stream_at_segment_edges(monkeypatch, total):
    # below one segment, one, an exact multiple of the segment's normals, and
    # one above, read whole and in odd draws
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", 64)
    whole = _philox(3)().standard_normal(total)
    assert np.array_equal(_read(3, [total]), whole)
    odd = [7] * (total // 7) + [total % 7, 0]
    assert np.array_equal(_read(3, odd), whole)


@pytest.mark.parametrize("head, tail", [(0, 0), (1, 1)])
def test_shrunk_windows_take_the_fallback(monkeypatch, refills, head, tail):
    # windows of one start or none miss wherever a segment's end falls inside
    # a normal of the one before: the next segment is drawn again from that
    # one's generator, and the stream keeps its bits
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", 100)
    monkeypatch.setattr(montecarlo, "_HEAD", head)
    monkeypatch.setattr(montecarlo, "_TAIL", tail)
    for key in range(5):
        sizes = [1, 999, 0, 12345, 101, 50_000]
        assert np.array_equal(_read(key, sizes), _philox(key)().standard_normal(sum(sizes)))
    assert refills


def test_a_splice_whose_normals_differ_falls_back(monkeypatch, refills):
    # every fresh segment after the first comes back with each normal off by
    # one: a start is shared, but the overlap differs, so every splice draws
    # its next segment again and no altered normal reaches the reader
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", 100)
    fill, splice = montecarlo._NormalStream._fill, montecarlo._NormalStream._splice
    altered, splices = [], []

    def altering(self, buf, end, gen=None, pos=0):
        seg = fill(self, buf, end, gen, pos)
        if seg.head:
            seg.buf[:seg.n] += 1.0
            altered.append(end)
        return seg

    def counting(self, seg, i, nxt):
        splices.append(nxt.end)
        return splice(self, seg, i, nxt)

    monkeypatch.setattr(montecarlo._NormalStream, "_fill", altering)
    monkeypatch.setattr(montecarlo._NormalStream, "_splice", counting)
    sizes = [5, 1000, 0, 3333, 20_000]
    assert np.array_equal(_read(4, sizes), _philox(4)().standard_normal(sum(sizes)))
    assert len(splices) > 200 and refills == splices and set(splices) <= set(altered)


def _stream_case(name, coarse_grid, log_grid, ou_grid, periodic_grid):
    """(members, selector switching inside the paths' span, x0) of a case."""
    if name == "heat":
        members = [HeatOperator(coarse_grid, 0.5), HeatOperator(coarse_grid, 1.0)]
        return members, (coarse_grid.points > 0.0).astype(int), 0.0
    if name == "gbm":
        members = [GBMOperator(log_grid, 0.1, 0.2), GBMOperator(log_grid, 0.0, 0.4)]
        return members, (log_grid.points > 1.0).astype(int), 1.0
    if name in ("ou", "ou-std-0"):
        c = 1.0 if name == "ou" else 0.0
        members = [OUOperator(ou_grid, -0.5, 0.2, c), OUOperator(ou_grid, 0.0, 0.0, 0.5)]
        return members, (ou_grid.points > 0.1).astype(int), 0.0
    if name == "koopman":
        grid = WeightedGrid.uniform(-4.0, 4.0, 0.02, boundary="reflect")
        members = [KoopmanOperator(grid, lambda x: -0.5 * x, 1.0), HeatOperator(grid, 1.0)]
        return members, (grid.points > 0.0).astype(int), 0.3
    if name == "scaled":
        members = [ScaledOperator(HeatOperator(coarse_grid, 1.0), 0.5),
                   ScaledOperator(ScaledOperator(HeatOperator(coarse_grid, 0.5), 3.0), 0.7)]
        return members, (coarse_grid.points > 0.0).astype(int), 0.0
    assert name == "periodic"
    members = [HeatOperator(periodic_grid, 0.5), HeatOperator(periodic_grid, 1.0)]
    return members, np.arange(periodic_grid.size) % 2, np.pi - 0.001


def _normals_threads():
    """The sampler's normals threads alive now."""
    return [t for t in threading.enumerate() if t.name.startswith("nisio-normals")]


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started while the test runs, in order."""
    names = []
    start = threading.Thread.start

    def recording(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names


@pytest.fixture
def streams(monkeypatch):
    """The normal streams the sampler closed, in order."""
    closed = []
    close = montecarlo._NormalStream.close

    def counting(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(montecarlo._NormalStream, "close", counting)
    return closed


@pytest.mark.parametrize("chunk", [7, 1000])
@pytest.mark.parametrize("route", ["whole-batch", "per-path"])
@pytest.mark.parametrize("name", ["heat", "gbm", "ou", "ou-std-0", "koopman",
                                  "scaled", "periodic"])
def test_streamed_sampler_matches_per_path(name, route, chunk, coarse_grid, log_grid,
                                           ou_grid, periodic_grid, monkeypatch, streams):
    # the oracle draws from the plain generator; the sampler reads the same
    # normals through the stream, in chunks that split the stages' draws.
    # Whole-batch: each member in turn steps every path for two stages;
    # per-path: the selector switches inside the paths' span
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", chunk)
    members, switching, x0 = _stream_case(name, coarse_grid, log_grid, ou_grid,
                                          periodic_grid)
    fam = SemigroupFamily(members)
    stages = [switching if route == "per-path" else np.full(fam.grid.size, i // 2 % 2)
              for i in range(8)]
    spec = SamplerSpec(fam, ControlPolicy(tuple((0.125, sel) for sel in stages)),
                       3001, seed=11)
    assert_matches_per_path(spec, x0)
    assert len(streams) == 1


def _recording_steps(spec):
    """Wrap the spec's stage steps so that each records the type of the
    generator it is handed; returns that list."""
    seen = []
    for key, step in list(spec._steps.items()):
        def recording(states, rng, step=step):
            seen.append(type(rng))
            return step(states, rng)
        spec._steps[key] = recording
    return seen


def test_chain_specs_keep_the_plain_generator(chain_family, label_grid):
    scaled = SemigroupFamily([ScaledOperator(m, 2.0) for m in chain_family.members])
    for fam in (chain_family, scaled):
        pol = ControlPolicy(tuple((0.25, np.array([0, 1, 1, 0])) for _ in range(4)))
        spec = SamplerSpec(fam, pol, 1000, seed=5)
        seen = _recording_steps(spec)
        sample_terminal_states(spec, 1.0)
        assert seen and set(seen) == {np.random.Generator}


def test_normal_only_specs_read_the_stream(heat_family, readme_greedy):
    spec = SamplerSpec(heat_family, readme_greedy, 1000, seed=1)
    seen = _recording_steps(spec)
    sample_terminal_states(spec, 0.0)
    assert len(seen) == 64 and set(seen) == {montecarlo._NormalStream}


class _FailingPhilox:
    """Philox generator whose draws raise in the normals stream's ``k``-th
    segment: the generator advanced by ``k - 1`` segments' words."""

    words = montecarlo._NormalStream(None, 0)._words

    def __init__(self, seed, k):
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.segment = 1
        self.k = k

    @property
    def bit_generator(self):
        return self

    def advance(self, blocks):
        self.rng.bit_generator.advance(blocks)
        self.segment += 4 * blocks // self.words

    @property
    def state(self):
        return self.rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.rng.bit_generator.state = value

    def standard_normal(self, *args, **kwargs):
        if self.segment == self.k:
            raise FloatingPointError(f"chunk {self.k} failed")
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("k", [1, 2, 40])
def test_producer_error_reaches_the_caller(heat_family, readme_greedy, monkeypatch,
                                           streams, k):
    # 20,000 paths over 64 stages read 20 segments of about 2^16 normals: the
    # error raises in the stage that reaches the failed segment; the 40th is
    # never drawn, so the run completes with the generator's own states
    monkeypatch.setattr(SamplerSpec, "rng", lambda self: _FailingPhilox(self.seed, k))
    spec = SamplerSpec(heat_family, readme_greedy, 20_000, seed=1)
    if k <= 20:
        with pytest.raises(FloatingPointError, match=f"chunk {k} failed"):
            sample_terminal_states(spec, 0.0)
    else:
        states, _ = sample_terminal_states(spec, 0.0)
        monkeypatch.undo()
        assert np.array_equal(states, per_path_terminal_states(spec, 0.0)[0])
    assert len(streams) == 1 and not _normals_threads()


def test_no_thread_outlives_a_run_that_raises_mid_stage(coarse_grid, streams):
    # the NaN stub draws normals, so its run reads the stream; the run
    # raises in the lookup after the step that made the NaNs
    fam = SemigroupFamily([_NaNBeyondZero(coarse_grid, 1.0)])
    spec = SamplerSpec(fam, constant_policy(coarse_grid, 0, 3, 1.0), 1000, seed=4)
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match="states must not be NaN"):
        sample_terminal_states(spec, 0.0)
    assert threading.active_count() == before
    assert len(streams) == 1 and not _normals_threads()


def test_concurrent_streamed_samplers_keep_their_draws(heat_family, heat_grid,
                                                       monkeypatch):
    # four samplers on four threads, each with its own two normals threads,
    # on two cores, with a thread switch forced every microsecond and chunks of 7:
    # a chunk handed over before it is filled, or refilled before it is read,
    # changes some path
    monkeypatch.setattr(montecarlo, "_NORMALS_CHUNK", 7)
    sel = (heat_grid.points > 0.0).astype(int)
    specs = [SamplerSpec(heat_family, ControlPolicy(tuple((0.25, sel) for _ in range(4))),
                         500, seed=seed) for seed in range(4)]
    results = [None] * len(specs)

    def sample(i):
        results[i] = sample_terminal_states(specs[i], 0.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sample, args=(i,)) for i in range(len(specs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for spec, (states, flagged) in zip(specs, results):
        ref_states, ref_flagged = per_path_terminal_states(spec, 0.0)
        assert np.array_equal(states, ref_states) and flagged == ref_flagged


def test_an_unread_stream_starts_no_thread(started_threads):
    # the pool starts on the first draw of a normal; a draw of none is not one
    stream = montecarlo._NormalStream(_philox(1), 10 ** 6)
    assert stream.standard_normal(0).size == 0
    stream.close()
    assert started_threads == []


@pytest.mark.parametrize("name, pools", [("koopman", 0), ("ou-std-0", 0), ("chain", 0),
                                         ("heat", 1)])
def test_only_a_run_that_draws_starts_the_normals_thread(name, pools, ou_grid,
                                                          chain_family, started_threads):
    # Koopman flows and OU members with C = 0 draw nothing: their run takes
    # the stream but never reads it, so no thread starts and no ring is made;
    # a chain run, on a label grid, draws from the plain generator; a heat
    # run starts one pool, with all of its threads
    members = {"koopman": [KoopmanOperator(ou_grid, lambda x: -0.5 * x, 1.0),
                           KoopmanOperator(ou_grid, lambda x: 0.0 * x + 0.5, 1.0)],
               "ou-std-0": [OUOperator(ou_grid, -0.5, 0.2, 0.0),
                            OUOperator(ou_grid, 0.0, 0.5, 0.0)],
               "chain": chain_family.members,
               "heat": [HeatOperator(ou_grid, 1.0)]}[name]
    sel = np.arange(members[0].grid.size) % len(members)
    spec = SamplerSpec(SemigroupFamily(members),
                       ControlPolicy(tuple((0.25, sel) for _ in range(4))), 1000, seed=3)
    assert_matches_per_path(spec, 0.3)
    assert (sum(n.startswith("nisio-normals") for n in started_threads)
            == pools * montecarlo._NORMALS_THREADS == 2 * pools)


@pytest.mark.parametrize("n", [2, 100, 101, 1000, 2 ** 16 + 3, 10 ** 6])
def test_sample_std_is_numpys_to_the_bit(n):
    # the in-place sequence gives np.std(ddof=1) to the bit
    for seed in (1, 7, 12345):
        vals = np.random.default_rng(seed).lognormal(0.0, 2.0, n)
        expected = float(np.std(vals, ddof=1))
        assert montecarlo._sample_std(vals) == expected


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_sampler_spec_rejects_a_seed_outside_the_philox_key_range(coarse_family,
                                                                   coarse_grid, seed):
    pol = constant_policy(coarse_grid, 1, 2, 1.0)
    with pytest.raises(InvalidInputError, match=r"seed .* outside \[0, 2\*\*128 - 1\]"):
        SamplerSpec(coarse_family, pol, 100, seed=seed)


def test_sampler_spec_takes_the_philox_key_range_ends(coarse_family, coarse_grid):
    pol = constant_policy(coarse_grid, 1, 2, 1.0)
    u = probe_function("quadratic", coarse_grid)
    for seed in (0, montecarlo.SEED_MAX):
        assert mc_value(SamplerSpec(coarse_family, pol, 100, seed=seed), 0.0, u)["n_paths"] == 100
    assert montecarlo.SEED_MAX == 2 ** 128 - 1
