"""Every member generator keeps the bits of its hand-written stencils.

Heat, GBM, OU and Koopman members take their central differences
from one helper.  The oracle below keeps the per-member formulas each of them
evaluated before that helper existed, verbatim and in the same evaluation
order, and every generator value must equal it bit for bit (compared on the
int64 view, so that -0.0 against +0.0 or a NaN would show too).  The one
exception is the two seam rows of a periodic heat member, which now use the
interior formula with wrapped neighbours.
"""
import numpy as np
import pytest

from nisio import (GBMOperator, GridFunction, HeatOperator, KoopmanOperator,
                   OUOperator, ScaledOperator, WeightedGrid)
from nisio.probes import bump

PROBES = {"quadratic": lambda x: x ** 2, "sin": np.sin, "bump": bump}


# -- the stencils as written out per member, kept as the reference ----------

def _central_d1(v, dx):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    return out


def _central_d2(v, dx):
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
    return out


def _interior_mask(n):
    m = np.zeros(n, dtype=bool)
    m[1:-1] = True
    return m


def _heat_oracle(op, v):
    dx = op.grid.spacing
    return 0.5 * op.sigma ** 2 * _central_d2(v, dx), _interior_mask(op.grid.size)


def _periodic_heat_seam_oracle(op, v):
    dx = op.grid.spacing
    vals = 0.5 * op.sigma ** 2 * _central_d2(v, dx)
    vals[0] = 0.5 * op.sigma ** 2 * (v[1] - 2 * v[0] + v[-1]) / dx ** 2
    vals[-1] = 0.5 * op.sigma ** 2 * (v[0] - 2 * v[-1] + v[-2]) / dx ** 2
    return vals


def _gbm_oracle(op, values):
    n, ds = op._n_side, op.grid.spacing
    drift = op.mu - 0.5 * op.sigma ** 2
    vals = np.zeros(op.grid.size)
    valid = np.zeros(op.grid.size, dtype=bool)
    for block, sgn in ((slice(0, n), -1.0), (slice(n + 1, 2 * n + 1), 1.0)):
        v = values[block]
        vals[block] = sgn * drift * _central_d1(v, ds) \
            + 0.5 * op.sigma ** 2 * _central_d2(v, ds)
        valid[block] = _interior_mask(n)
    vals[n] = 0.0
    valid[n] = True
    return vals, valid


def _ou_oracle(op, values):
    g = op.grid
    dx = g.spacing
    drift_field = op.B * g.points + op.m
    vals = drift_field * _central_d1(values, dx) \
        + 0.5 * op.C * _central_d2(values, dx)
    return vals, _interior_mask(g.size)


def _koopman_oracle(op, values):
    vals = _central_d1(values, op.grid.spacing) * op.F(op.grid.points)
    return vals, _interior_mask(op.grid.size)


# -- members under test -----------------------------------------------------

def _uniform(boundary):
    return WeightedGrid.uniform(-4.0, 4.0, 0.05, boundary=boundary)


MEMBERS = {
    "heat-reflect": (lambda: HeatOperator(_uniform("reflect"), 0.7), _heat_oracle),
    "heat-renormalize": (lambda: HeatOperator(_uniform("renormalize"), 1.3),
                         _heat_oracle),
    "gbm": (lambda: GBMOperator(WeightedGrid.loggrid(8.0, 1e-2, 200), 0.1, 0.3),
            _gbm_oracle),
    "ou-1d": (lambda: OUOperator(_uniform("reflect"), -0.5, 0.2, 1.0), _ou_oracle),
    # the first axis of the 2D member this case once held
    "ou-2d": (lambda: OUOperator(WeightedGrid.uniform(-2.0, 2.0, 0.2), -0.5, 0.1, 1.0),
              _ou_oracle),
    "koopman": (lambda: KoopmanOperator(_uniform("renormalize"),
                                        lambda x: -x + 0.5 * np.sin(x), 1.5),
                _koopman_oracle),
}


def _probe_values(name, grid):
    return PROBES[name](grid.points)


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("member", sorted(MEMBERS))
def test_generator_keeps_the_bits_of_its_stencil(member, probe):
    make, oracle = MEMBERS[member]
    op = make()
    values = _probe_values(probe, op.grid)
    res = op.generator(GridFunction(values, op.grid))
    want, want_valid = oracle(op, values)
    assert np.array_equal(res.valid, want_valid)
    assert np.array_equal(res.values.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("member", ["heat-reflect", "ou-1d", "koopman"])
def test_scaled_generator_is_the_scale_times_the_base(member, probe):
    base = MEMBERS[member][0]()
    u = GridFunction(_probe_values(probe, base.grid), base.grid)
    want = base.generator(u)
    for scale in (0.0, 0.3, 2.5):
        res = ScaledOperator(base, scale).generator(u)
        assert np.array_equal(res.valid, want.valid)
        assert np.array_equal(res.values.view(np.int64),
                              (scale * want.values).view(np.int64))


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_periodic_heat_generator_wraps(periodic_grid, probe):
    assert periodic_grid.size == 256
    op = HeatOperator(periodic_grid, 0.8)
    v = _probe_values(probe, periodic_grid)
    dx = periodic_grid.spacing
    res = op.generator(GridFunction(v, periodic_grid))
    up, down = np.roll(v, -1), np.roll(v, 1)
    want = 0.5 * op.sigma ** 2 * ((up - 2.0 * v + down) / (dx * dx))
    assert res.valid.all()
    assert np.array_equal(res.values.view(np.int64), want.view(np.int64))
    # the seam rows used to be written out with their own operation order;
    # they agree with it to rounding
    seam = _periodic_heat_seam_oracle(op, v)
    assert np.array_equal(res.values[1:-1].view(np.int64), seam[1:-1].view(np.int64))
    assert np.allclose(res.values[[0, -1]], seam[[0, -1]], rtol=1e-14, atol=1e-14)
