"""The probe table: one entry per named probe, its parameters with their
defaults, and its values.  A parameter a probe does not read is rejected."""

import numpy as np
import pytest

from nisio import ConfigurationError, WeightedGrid
from nisio.config import CONFIG_SCHEMA
from nisio.probes import PROBE_NAMES, PROBES, bump, probe_function

# "tensor" is the first axis of the 5 x 7 tensor grid over [-1, 1] x [-2, 2]
# these cases once took: its probes read that coordinate, and every grid is 1D now
GRIDS = {"uniform": WeightedGrid.uniform(-3.0, 3.0, 0.05),
         "tensor": WeightedGrid.uniform(-1.0, 1.0, 0.5)}


def _oracle(name, x, params):
    """Each probe's formula, written out on its own."""
    get = lambda key, default: float(params.get(key, default))  # noqa: E731
    return {
        "const": lambda: np.full(x.size, get("value", 1.0)),
        "linear": lambda: x.copy(),
        "quadratic": lambda: x ** 2,
        "neg-quadratic": lambda: -(x ** 2),
        "sin": lambda: np.sin(get("frequency", 1.0) * x),
        "cos": lambda: np.cos(get("frequency", 1.0) * x),
        "bump": lambda: bump(x, get("center", 0.0), get("width", 1.0)),
        "call-payoff": lambda: np.maximum(x - get("strike", 1.0), 0.0),
    }[name]()


# non-default values of every parameter a probe reads
PARAMS = {"value": 3, "frequency": 2.5, "center": 0.5, "width": 0.75, "strike": -0.25}


@pytest.mark.parametrize("kind", sorted(GRIDS))
@pytest.mark.parametrize("name", PROBE_NAMES)
def test_probe_values_match_their_formula_bit_for_bit(name, kind):
    grid = GRIDS[kind]
    x = grid.points
    assert np.array_equal(probe_function(name, grid).values, _oracle(name, x, {}))
    params = {k: PARAMS[k] for k in PROBES[name][0]}
    assert np.array_equal(probe_function(name, grid, **params).values,
                          _oracle(name, x, params))


@pytest.mark.parametrize("name, params, unread", [
    ("sin", {"freq": 3.0}, "freq"),
    ("quadratic", {"strike": 2}, "strike"),
    ("bump", {"center": 0.0, "height": 2.0}, "height"),
    ("const", {"value": 2.0, "strike": 1.0, "frequency": 1.0}, "frequency, strike"),
])
def test_probe_rejects_a_parameter_it_does_not_read(name, params, unread):
    with pytest.raises(ConfigurationError, match=f"probe '{name}' does not read {unread}$"):
        probe_function(name, GRIDS["uniform"], **params)


def test_unknown_probe_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown probe 'tan'"):
        probe_function("tan", GRIDS["uniform"])


def test_table_drives_the_names_and_the_u0_schema():
    assert PROBE_NAMES == tuple(PROBES)
    u0 = CONFIG_SCHEMA["properties"]["u0"]
    assert u0["properties"]["name"]["enum"] == [*PROBE_NAMES, "csv"]
    for branch in u0["allOf"]:
        name = branch["if"]["properties"]["name"]["const"]
        if name != "csv":
            assert set(branch["then"]["properties"]) - {"name"} == set(PROBES[name][0])
