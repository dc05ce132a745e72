"""Every call that reaches a family's members goes through
``SemigroupFamily.apply_all``, which checks the function's grid once: a
function on another grid of the same size is rejected, one on an equal grid
built separately is accepted."""

import numpy as np
import pytest

from nisio import (ControlPolicy, HeatOperator, InvalidInputError, Partition,
                   SemigroupFamily, WeightedGrid, dpp_check, duality_gap,
                   envelope_step, envelope_step_argmax, greedy_policy, nisio_value,
                   partition_apply, policy_value, property_suite, upper_bound_check)
from nisio.probes import probe_function


def _grid(lo=-2.0, hi=2.0):
    return WeightedGrid.uniform(lo, hi, 0.1, boundary="reflect")


GRID = _grid()
FAMILY = SemigroupFamily([HeatOperator(GRID, 0.5), HeatOperator(GRID, 1.0)])
ONE_STAGE = ControlPolicy(((0.1, np.zeros(GRID.size, dtype=np.int64)),))

# the ten calls that compose members, each at a positive duration
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
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_reject_a_function_on_another_grid_of_the_same_size(name):
    other = _grid(-1.0, 3.0)
    assert other.size == GRID.size and other.kind == GRID.kind
    with pytest.raises(InvalidInputError, match="different grid"):
        CALLS[name](probe_function("sin", other))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_accept_a_function_on_an_equal_grid(name):
    equal = _grid()
    assert equal is not GRID
    CALLS[name](probe_function("sin", equal))


def test_apply_all_checks_the_duration_and_takes_the_function():
    u = probe_function("sin", GRID)
    stack = FAMILY.apply_all(0.1, u)
    assert stack.shape == (len(FAMILY), GRID.size)
    for k, member in enumerate(FAMILY):
        assert np.array_equal(stack[k], member.apply(0.1, u).values)
    for t in (-0.1, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="duration"):
            FAMILY.apply_all(t, u)


def test_zero_durations_return_u_itself():
    u = probe_function("sin", GRID)
    assert envelope_step(FAMILY, 0.0, u) is u
    assert partition_apply(FAMILY, Partition(np.array([0.0])), u) is u
    assert nisio_value(FAMILY, 0.0, u).value is u
