"""Named initial-condition library shared by the CLI, tests and demos."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grids import GridFunction


def smootherstep(z):
    """C^2 monotone ramp: 0 below 0, 1 above 1."""
    z = np.clip(z, 0.0, 1.0)
    return z ** 3 * (z * (6.0 * z - 15.0) + 10.0)


def bump(x, center=0.0, width=1.0):
    """C^2 bump supported on |x - center| <= width, equal to 1 at the center."""
    r = np.abs(np.asarray(x, dtype=float) - center) / width
    return 1.0 - smootherstep(2.0 * r - 1.0)


# each probe's parameters with their defaults, and its values on the grid
# points x from them; the config's u0 schema is read off this table too
PROBES = {
    "const": ({"value": 1.0}, lambda x, value: np.full(x.size, value)),
    "linear": ({}, lambda x: x.copy()),
    "quadratic": ({}, lambda x: x ** 2),
    "neg-quadratic": ({}, lambda x: -(x ** 2)),
    "sin": ({"frequency": 1.0}, lambda x, frequency: np.sin(frequency * x)),
    "cos": ({"frequency": 1.0}, lambda x, frequency: np.cos(frequency * x)),
    "bump": ({"center": 0.0, "width": 1.0}, bump),
    "call-payoff": ({"strike": 1.0}, lambda x, strike: np.maximum(x - strike, 0.0)),
}
PROBE_NAMES = tuple(PROBES)


def probe_function(name, grid, **params):
    """Named probe of ``PROBES`` on a grid; a parameter it does not read is rejected."""
    if name not in PROBES:
        raise ConfigurationError(f"unknown probe {name!r}; choose from {PROBE_NAMES}")
    defaults, values = PROBES[name]
    unread = sorted(set(params) - set(defaults))
    if unread:
        raise ConfigurationError(f"probe {name!r} does not read {', '.join(unread)}")
    return GridFunction(values(grid.points, **{k: float(params.get(k, v))
                                               for k, v in defaults.items()}), grid)
