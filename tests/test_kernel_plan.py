"""A planned run frees each kernel after its last planned lookup.

Every subcommand that composes kernels hands the family the envelope steps
its work will take per duration (``dyadic_steps``, ``suite_schedule``,
``greedy_steps``, ``random_steps``) before the work starts, and a kernel
leaves every store that holds it once the lookups planned for its key are
spent.  These tests hold a planned run to the bits and the counters of an
unplanned one, check after every lookup that no store keeps a spent kernel
and that no lookup falls outside the plan, and check that library calls,
which get no plan, keep their kernels for the next call.
"""
import collections
import functools
import gc
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import same_bits_kinds
from nisio import (HeatOperator, InvalidInputError, Partition, SemigroupFamily, WeightedGrid,
                   cli, envelope, greedy_policy, nisio_value, operators, property_suite)
from nisio.control import greedy_steps
from nisio.diagnostics import suite_schedule
from nisio.envelope import dyadic_steps
from nisio.probes import probe_function

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("builds", "shared", "lookups", "applies")
README = "bench/configs/readme.json"
# (subcommand, config, seed): the benchmark's three runs; dpp, and control
# and mc at two seeds, on the README config (dpp draws nothing); solve and
# properties on every small config of tools/same_bits.py, and mc on the two
# that have an mc section
CASES = {"readme-solve": ("solve", README, None),
         "ou-properties": ("properties", "bench/configs/ou.json", None),
         "readme-dpp": ("dpp", README, None)}
CASES.update({f"readme-{sub}-seed{seed}": (sub, README, seed)
              for sub in ("control", "mc") for seed in (1, 7)})
CASES.update({f"{kind}-{sub}": (sub, kind, None) for kind in same_bits_kinds()
              for sub in ("solve", "properties")})
CASES.update({f"{kind}-mc": ("mc", kind, None) for kind in ("gbm", "scaled")})


def _config_path(config, tmp):
    if config in same_bits_kinds():
        path = Path(tmp) / f"{config}.json"
        path.write_text(json.dumps(same_bits_kinds()[config]), encoding="utf-8")
        return path
    return ROOT / config


@functools.cache
def _run(case, planned):
    """Run ``case`` through ``cli.run`` with or without the family's plan;
    return the exit code, the output bytes, each member's counters, the
    lookups after which a store held a spent kernel or whose key was not
    planned, and the planned lookups left at the end."""
    sub, config, seed = CASES[case]
    families, plans, bad = [], [], []
    build_family, plan, matrix = (cli.build_family, SemigroupFamily.plan,
                                  operators.TransitionOperator.matrix)

    def spy_family(cfg, grid):
        families.append(build_family(cfg, grid))
        return families[-1]

    def spy_plan(self, steps):
        if planned:
            plan(self, steps)
            plans.append(dict(self._index.plan))

    def spy_matrix(self, t):
        kernel = matrix(self, t)
        if plans and self._index is families[0]._index:
            if self._kernel_key(float(t)) not in plans[0]:
                bad.append(("unplanned", self.name, t))
            for member in families[0]:
                for held in member._cache:
                    key = member._kernel_key(held)
                    if key in plans[0] and key not in self._index.plan:
                        bad.append(("spent", member.name, held, "after", self.name, t))
        return kernel

    with tempfile.TemporaryDirectory() as tmp:
        cli.build_family, SemigroupFamily.plan = spy_family, spy_plan
        operators.TransitionOperator.matrix = spy_matrix
        try:
            code = cli.run(sub, str(_config_path(config, tmp)), str(Path(tmp) / "out"), seed)
        finally:
            cli.build_family, SemigroupFamily.plan = build_family, plan
            operators.TransitionOperator.matrix = matrix
        out = {p.name: p.read_bytes() for p in sorted((Path(tmp) / "out").iterdir())}
    counters = [tuple(getattr(m, c) for c in COUNTERS) for m in families[0]]
    left = sum(families[0]._index.plan.values())
    return code, out, counters, bad, left


@pytest.mark.parametrize("case", sorted(CASES))
def test_planned_run_has_the_bits_and_counters_of_an_unplanned_one(case):
    code, out, counters, _, _ = _run(case, True)
    assert out and (code, out, counters) == _run(case, False)[:3]


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_store_holds_a_spent_kernel_after_any_lookup(case):
    _, _, counters, bad, left = _run(case, True)
    assert sum(c[2] for c in counters) > 0 and bad == []
    assert left == 0            # no run here stops early: every planned lookup ran


@pytest.mark.parametrize("case, builds, lookups", [("readme-solve", 11 + 7, 1022),
                                                    ("ou-properties", 26, 514)])
def test_benchmark_runs_keep_their_work(case, builds, lookups):
    # the members' share of 19 builds and 1052 lookups (README solve) and of
    # 34 and 544 (ou.json properties); eps_q's twins build and look up the rest
    counters = _run(case, True)[2]
    assert sum(c[0] + c[1] for c in counters) == builds
    assert sum(c[2] for c in counters) == lookups


@pytest.mark.parametrize("case, counters", [
    ("readme-mc-seed1", [(8, 1, 575), (3, 6, 575)]),
    ("readme-dpp", [(8, 0, 381), (2, 6, 381)]),
    ("readme-control-seed1", [(13, 1, 252), (9, 5, 252)])])
def test_readme_runs_keep_each_members_work(case, counters):
    # (builds, shared, lookups) of heat(0.5), then of heat(1)
    assert [c[:3] for c in _run(case, True)[2]] == counters


def test_control_schedule_replays_the_stages_the_work_loop_draws(tmp_path, monkeypatch):
    drawn, schedules = [], []
    draw, replay = cli.random_policy, cli.random_steps

    def spy_policy(family, t, rng):
        policy = draw(family, t, rng)
        drawn.extend(h for h, _ in policy.stages)
        return policy

    def spy_steps(family, t, trials, seed):
        schedules.append(replay(family, t, trials, seed))
        return schedules[-1]

    monkeypatch.setattr(cli, "random_policy", spy_policy)
    monkeypatch.setattr(cli, "random_steps", spy_steps)
    cfg = json.loads((ROOT / README).read_text(encoding="utf-8"))
    cfg["grid"]["dx"] = 0.05
    cfg["control"] = {"t": 0.3, "m": 3, "level": 3, "trials": 7}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.run("control", str(path), str(tmp_path / "out"), 5) == 0
    assert len(schedules) == 1 and len(drawn) > 7
    assert schedules[0] == collections.Counter(drawn)


@pytest.mark.parametrize("t, m", [(1.0, 64), (0.3, 7), (0.1, 3), (1.0, 49)])
def test_greedy_steps_are_the_greedy_policys_stages_and_horizon(t, m):
    grid = WeightedGrid.uniform(-2.0, 2.0, 0.1)
    family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
    policy = greedy_policy(family, t, probe_function("sin", grid), m).policy
    steps, horizon = greedy_steps(family, t, m)
    assert steps == collections.Counter(h for h, _ in policy.stages)
    assert horizon == policy.horizon        # bit for bit, ulp slips included


def _heat_pair():
    grid = WeightedGrid.uniform(-4.0, 4.0, 0.05, boundary="reflect")
    a, b = HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)
    return SemigroupFamily([a, b]), a, b


def test_a_shared_kernel_lives_until_the_last_planned_lookup_of_its_key():
    family, a, b = _heat_pair()
    # a at 0.4 and b at 0.1 both look up the variance 0.1
    family.plan({0.4: 1, 0.1: 1})
    assert family._index.plan == {0.1: 2, 0.4: 1, 0.025: 1}
    kernel = a.matrix(0.4)
    assert a._cache == {0.4: kernel} and a._held == kernel.nbytes
    assert b.matrix(0.1) is kernel and b.shared == 1
    # spent: it left both stores, and the index keeps it no longer alive
    assert a._cache == {} == b._cache and a._held == 0 == b._held
    dead = weakref.ref(kernel)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del kernel
        assert dead() is None
    finally:
        if enabled:
            gc.enable()
    assert family._index.plan == {0.4: 1, 0.025: 1}


def test_keys_outside_the_plan_keep_their_kernels():
    family, a, b = _heat_pair()
    family.plan({0.4: 1})
    kept = a.matrix(0.3)                # the variance 0.075 is not planned
    assert a.matrix(0.4) is not None and 0.4 not in a._cache
    assert a._cache == {0.3: kept} and family._index.plan == {0.4: 1}


def test_eps_q_twin_neither_reads_nor_spends_the_plan():
    family, a, b = _heat_pair()
    family.plan({0.1: 1})
    plan = dict(family._index.plan)
    for member in family:
        member.composition_defect()     # its twin looks up 0.1 and 0.025
    assert family._index.plan == plan and a.lookups == 0 == b.lookups


def test_a_duration_a_member_refuses_is_left_out_of_the_plan():
    grid = WeightedGrid.uniform(-2.0, 2.0, 0.1)
    base = HeatOperator(grid, 1.0)
    family = SemigroupFamily([operators.ScaledOperator(base, 1e308), HeatOperator(grid, 1.0)])
    family.plan({2.0: 1})
    assert family._index.plan == {2.0: 1}


def test_dyadic_steps_are_the_refinement_levels():
    family = _heat_pair()[0]
    assert dyadic_steps(family, 1.0, 3) == {1.0: 1, 0.5: 2, 0.25: 4, 0.125: 8}
    assert dyadic_steps(family, 0.0, 3) == {}
    assert dyadic_steps(family, 0.3, 2) == {0.3: 1, 0.3 / 2: 2, 0.3 / 4: 4}


@pytest.mark.parametrize("t", [1.0, 0.3, 1 / 3, 1e-300])
def test_dyadic_steps_are_the_gaps_of_the_dyadic_partitions(t):
    family = _heat_pair()[0]
    gaps = collections.Counter()
    for level in range(13):
        gaps.update(Partition.dyadic(t, level).gaps.tolist())
    assert dyadic_steps(family, t, 12) == gaps


def test_dyadic_steps_of_a_subnormal_horizon_are_zero_durations():
    # Partition.dyadic refuses 5e-324 split past level 0; the closed form
    # states the steps, and the CLI's horizon check names the key
    steps = dyadic_steps(_heat_pair()[0], 5e-324, 3)
    assert steps == {5e-324: 1, 0.0: 2 + 4 + 8}


def test_suite_schedule_counts_the_steps_by_hand():
    # one probe at t = 1 and no partition pairs: the stacks, the constant, the
    # lifted and three scaled steps at 1; the refinement's table adds 2^l
    # steps of 2^-l at levels 1..4 (level 0 is the stacks' entry)
    family = _heat_pair()[0]
    pairs, steps = suite_schedule(family, 1, [1.0], partition_pairs=0)
    assert pairs == [] and steps == {1.0: 6, 0.5: 2, 0.25: 4, 0.125: 8, 0.0625: 16}
    # a zero t takes no step, a repeated t its direct steps again; two probes
    # add the second probe's one-step entry and refinement, and one sum
    _, steps = suite_schedule(family, 2, [0.0, 1.0, 1.0], partition_pairs=0)
    assert steps == {1.0: 2 * (2 + 8 + 1) + 1, 0.5: 4, 0.25: 8, 0.125: 16, 0.0625: 32}
    with pytest.raises(InvalidInputError, match="positive horizon"):
        suite_schedule(family, 1, [0.0, 0.0])


@pytest.mark.parametrize("n, t_list, pairs", [(3, [0.25, 1.0], 5), (2, [0.0, 1.0, 1.0], 0),
                                              (1, [0.5], 20), (4, [1.0], 1)])
def test_suite_schedule_budget_bounds_the_steps_it_states(monkeypatch, n, t_list, pairs):
    # the bound checked before the draw is at least the steps stated after
    # it: a budget one apply short of those steps refuses the schedule
    family = _heat_pair()[0]
    _, steps = suite_schedule(family, n, t_list, partition_pairs=pairs)
    monkeypatch.setattr(envelope, "MAX_MEMBER_APPLIES", len(family) * sum(steps.values()) - 1)
    with pytest.raises(InvalidInputError, match=f"{n} probes, {len(t_list)} t_list entries"):
        suite_schedule(family, n, t_list, partition_pairs=pairs)


def test_property_suite_over_the_budget_applies_nothing():
    family = _heat_pair()[0]
    u = probe_function("sin", family.grid)
    with pytest.raises(InvalidInputError, match=f"{2 ** 40} partition_pairs with 2 members"):
        property_suite(family, [u], [0.5], partition_pairs=2 ** 40)
    assert [(m.lookups, m.applies) for m in family] == [(0, 0), (0, 0)]


def test_library_calls_keep_every_kernel_for_the_next_call():
    grid = WeightedGrid.uniform(-4.0, 4.0, 0.05, boundary="reflect")
    family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
    u = probe_function("quadratic", grid)
    probes = [u, probe_function("sin", grid)]
    first = nisio_value(family, 0.5, u, max_level=4, tol=1e-300).value.values
    report = property_suite(family, probes, [0.25, 0.5], partition_pairs=2)
    builds = [m.builds for m in family]
    assert sum(builds) > 0 and family._index.plan == {}
    again = nisio_value(family, 0.5, u, max_level=4, tol=1e-300).value.values
    assert property_suite(family, probes, [0.25, 0.5], partition_pairs=2) == report
    assert np.array_equal(first, again)
    assert [m.builds for m in family] == builds      # the second calls build 0
