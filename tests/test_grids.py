import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisio import (ConfigurationError, GridFunction, InvalidInputError,
                   UndefinedSeminormError, WeightedGrid, lip_seminorm,
                   weighted_norm)
from nisio.probes import probe_function


def test_uniform_grid_points():
    g = WeightedGrid.uniform(-1.0, 1.0, 0.5)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.spacing == 0.5
    assert np.all(g.kappa == 1.0)


def test_periodic_grid_excludes_endpoint():
    g = WeightedGrid.uniform(0.0, 1.0, 0.25, periodic=True)
    assert len(g.points) == 4
    assert g.period == pytest.approx(1.0)


def test_grid_rejects_bad_spacing():
    with pytest.raises(ConfigurationError):
        WeightedGrid.uniform(0.0, 1.0, 0.3)
    with pytest.raises(ConfigurationError):
        WeightedGrid.uniform(0.0, 1.0, -0.1)


def test_kappa_must_be_positive():
    with pytest.raises(ConfigurationError):
        WeightedGrid.uniform(0.0, 1.0, 0.5, kappa=lambda x: x)  # zero at 0


def test_loggrid_symmetry_and_zero():
    g = WeightedGrid.loggrid(8.0, 0.01, 50)
    assert g.size == 101
    assert g.points[50] == 0.0
    assert np.allclose(g.points[:50], -g.points[:50:-1])


def test_weighted_norm_values():
    g = WeightedGrid.uniform(-2.0, 2.0, 0.01, kappa=lambda x: (1 + np.abs(x)) ** -2.0)
    u = GridFunction(g.points ** 2, g)
    # max of x^2/(1+|x|)^2 on [-2,2] sits at the ends: 4/9
    assert weighted_norm(u) == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_weighted_norm_trivials():
    g = WeightedGrid.uniform(0.0, 1.0, 0.5)
    assert weighted_norm(GridFunction(np.zeros(3), g)) == 0.0
    assert weighted_norm(GridFunction(np.ones(3), g)) == 1.0


def test_nonfinite_values_rejected():
    g = WeightedGrid.uniform(0.0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        GridFunction(np.array([0.0, np.nan, 1.0]), g)
    with pytest.raises(InvalidInputError):
        GridFunction(np.array([0.0, np.inf, 1.0]), g)


def test_lip_seminorm_basics():
    g = WeightedGrid.uniform(-3.0, 3.0, 0.01)
    assert lip_seminorm(GridFunction(np.full(g.size, 4.2), g)) == 0.0
    assert lip_seminorm(GridFunction(g.points.copy(), g)) == pytest.approx(1.0)
    # max |cos| at grid midpoints is 1 up to O(dx^2)
    u = GridFunction(np.sin(g.points), g)
    assert lip_seminorm(u) == pytest.approx(1.0, abs=1e-4)


def test_lip_seminorm_single_point_rejected():
    g = WeightedGrid.labels(1)
    with pytest.raises(UndefinedSeminormError):
        lip_seminorm(GridFunction(np.array([1.0]), g))


def test_lip_seminorm_labels_uses_discrete_metric():
    g = WeightedGrid.labels(4)
    u = GridFunction(np.array([0.0, 5.0, 1.0, 2.0]), g)
    assert lip_seminorm(u) == 5.0


def test_window_mask():
    g = WeightedGrid.uniform(-4.0, 4.0, 1.0)
    assert g.window_mask(-2, 2).sum() == 5


def test_nearest_index_ties_left():
    g = WeightedGrid.uniform(0.0, 1.0, 0.25)
    # exact midpoint 0.125 between nodes 0 and 1 goes left
    assert g.nearest_index(np.array([0.125]))[0] == 0
    assert g.nearest_index(np.array([0.13]))[0] == 1
    assert g.nearest_index(np.array([-5.0, 5.0])).tolist() == [0, 4]


def test_labels_lookup_ties_left_like_a_uniform_grid():
    x = np.array([0.5, 1.5, 2.5, 3.5, 0.49, 2.51])
    for g in (WeightedGrid.labels(5), WeightedGrid.uniform(0.0, 4.0, 1.0)):
        assert g.nearest_index(x).tolist() == [0, 1, 2, 3, 0, 3], g.kind


def test_labels_function_reads_the_nearest_label():
    # labels carry the discrete metric: a value between two labels is no
    # value the function takes
    u = GridFunction(np.arange(5.0) ** 2, WeightedGrid.labels(5))
    x = np.array([1.5, 2.4, 2.6, -3.0, 9.0])
    assert u.at(x).tolist() == [1.0, 4.0, 9.0, 0.0, 16.0]


def test_interp_constant_extrapolation():
    g = WeightedGrid.uniform(0.0, 1.0, 0.5)
    u = GridFunction(np.array([1.0, 2.0, 3.0]), g)
    assert u.at(np.array([-1.0, 2.0])).tolist() == [1.0, 3.0]
    assert u.at(np.array([0.25]))[0] == pytest.approx(1.5)


def test_periodic_interp_wraps_across_the_seam(periodic_grid):
    # the cell past the last node closes on node 0: linear interpolation of
    # cos is within dx^2 / 8 there too, not the last node's value
    u = probe_function("cos", periodic_grid)
    x = np.array([np.pi - 0.001, -np.pi - 0.001, np.pi + 0.5])
    bound = periodic_grid.spacing ** 2 / 8.0
    assert np.max(np.abs(u.at(x) - np.cos(x))) <= bound
    j, _ = periodic_grid.interp_weights(x)
    assert j.tolist() == [255, 255, 20]
    assert u.at(np.pi)[()] == u.values[0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
def test_weighted_norm_is_a_norm(vals):
    g = WeightedGrid.uniform(0.0, 1.0, 1.0 / (len(vals) - 1),
                             kappa=lambda x: 1.0 / (1.0 + x))
    u = GridFunction(np.asarray(vals), g)
    v = GridFunction(np.asarray(vals[::-1]), g)
    assert weighted_norm(u) >= 0.0
    both = u.with_values(u.values + v.values)
    assert weighted_norm(both) <= weighted_norm(u) + weighted_norm(v) + 1e-12
    assert weighted_norm(u.with_values(2.0 * u.values)) == pytest.approx(
        2.0 * weighted_norm(u), rel=1e-12)


# -- point lookup: O(1) path on uniform grids vs the binary-search oracle ----

def oracle_nearest_index(points, x):
    """Binary-search nearest index (ties to the left), the reference path."""
    j = np.searchsorted(points, x, side="left")
    j = np.clip(j, 1, len(points) - 1)
    left = points[j - 1]
    right = points[j]
    return np.where((x - left) > (right - x), j, j - 1)


def oracle_interp_weights(points, x, period=None):
    """Binary-search interpolation bracket and weight, the reference path.

    With a period, x wraps into it and the last cell closes on node 0."""
    if period is not None:
        x = points[0] + np.mod(x - points[0], period)
        points = np.append(points, points[0] + period)
    xc = np.clip(x, points[0], points[-1])
    j = np.searchsorted(points, xc, side="right") - 1
    j = np.clip(j, 0, len(points) - 2)
    gap = points[j + 1] - points[j]
    theta = np.clip((xc - points[j]) / gap, 0.0, 1.0)
    return j, theta


def lookup_states(g, extra=()):
    """Nodes, exact midpoints, their float neighbours and far-away states."""
    pts = g.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    near = np.concatenate([pts, mids])
    big = np.finfo(float).max
    far = [-np.inf, np.inf, -big, big, -1e300, 1e300,
           pts[0] - 3.0 * g.spacing, pts[-1] + 3.0 * g.spacing]
    return np.concatenate([near, np.nextafter(near, -np.inf),
                           np.nextafter(near, np.inf), far, np.asarray(extra, float)])


def assert_lookup_matches_oracle(g, x):
    assert np.array_equal(g.nearest_index(x), oracle_nearest_index(g.points, x))
    period = None
    if g.kind == "periodic":
        period = g.period
        # a state at infinity has no place on the circle
        inf = np.isinf(x)
        for xi in np.asarray(x)[inf]:
            with pytest.raises(InvalidInputError):
                g.interp_weights(np.array([0.0, xi]))
        x = np.asarray(x)[~inf]
    j, theta = g.interp_weights(x)
    j_ref, theta_ref = oracle_interp_weights(g.points, x, period)
    assert np.array_equal(j, j_ref)
    assert np.array_equal(theta, theta_ref)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-100.0, 100.0),
       dx=st.sampled_from([0.1, 1.0 / 3.0, 0.01, 0.25, 0.7, 2.0 * np.pi / 256.0]),
       n=st.integers(2, 300),
       periodic=st.booleans(),
       extra=st.lists(st.floats(-200.0, 200.0), max_size=50))
def test_lookup_matches_binary_search(lo, dx, n, periodic, extra):
    g = WeightedGrid.uniform(lo, lo + n * dx, dx, periodic=periodic)
    assert_lookup_matches_oracle(g, lookup_states(g, extra))


@pytest.mark.parametrize("g", [WeightedGrid.uniform(-8.0, 8.0, 0.01, boundary="reflect"),
                               WeightedGrid.loggrid(8.0, 1e-2, 800)],
                         ids=["readme", "log"])
def test_lookup_matches_binary_search_fixed_grids(g):
    rng = np.random.default_rng(0)
    assert_lookup_matches_oracle(g, lookup_states(g, 3.0 * rng.standard_normal(10_000)))
    for x in (0.3, np.float64(-7.995), np.array(1e300)):     # scalar states
        assert_lookup_matches_oracle(g, x)


def test_nearest_index_single_point_grid():
    for g in (WeightedGrid.uniform(0.0, 0.0, 0.5),
              WeightedGrid.uniform(0.0, 0.5, 0.5, periodic=True)):
        assert g.size == 1
        assert g.nearest_index(np.array([0.0, 1.0, -1.0])).tolist() == [0, 0, 0]
        with pytest.raises(ConfigurationError):
            g.interp_weights(np.array([0.0]))


def test_lookup_rejects_nan():
    grids = (WeightedGrid.uniform(-1.0, 1.0, 0.5), WeightedGrid.loggrid(8.0, 0.01, 10),
             WeightedGrid.labels(4))
    for g in grids:
        with pytest.raises(InvalidInputError):
            g.nearest_index(np.array([0.0, np.nan]))
    for g in grids[:2]:
        with pytest.raises(InvalidInputError):
            g.interp_weights(np.array([np.nan]))
    g = grids[0]
    assert g.nearest_index(np.array([-np.inf, np.inf])).tolist() == [0, 4]


def test_uniform_grid_rejects_irregular_points():
    pts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        WeightedGrid(pts, np.ones(5))            # default spacing 1.0
    assert WeightedGrid(pts, np.ones(5), spacing=0.25).size == 5
    bent = pts.copy()
    bent[2] += 1e-3
    for kind in ("uniform", "periodic"):
        with pytest.raises(ConfigurationError):
            WeightedGrid(bent, np.ones(5), kind=kind, spacing=0.25)
    assert WeightedGrid(bent, np.ones(5), kind="log", spacing=0.25).size == 5


def _grid_of_kind(kind, lo, dx, n, x_max, x_min_mag):
    if kind == "log":
        return WeightedGrid.loggrid(x_max, x_min_mag, n)
    if kind == "labels":
        return WeightedGrid.labels(n)
    return WeightedGrid.uniform(lo, lo + n * dx, dx, periodic=kind == "periodic")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["uniform", "periodic", "log", "labels"]),
       lo=st.floats(-100.0, 100.0),
       dx=st.sampled_from([0.1, 1.0 / 3.0, 0.01, 0.7, 2.0 * np.pi / 256.0]),
       n=st.integers(2, 200),
       x_max=st.floats(1.0, 100.0), x_min_mag=st.floats(1e-3, 0.5),
       extra=st.lists(st.floats(allow_nan=False), max_size=50))
def test_nearest_index_is_monotone(kind, lo, dx, n, x_max, x_min_mag, extra):
    # the Monte Carlo sampler reads a batch's nodes off its two extreme states
    g = _grid_of_kind(kind, lo, dx, n, x_max, x_min_mag)
    x = np.sort(lookup_states(g, extra))
    assert np.all(np.diff(g.nearest_index(x)) >= 0)


def test_labels_lookup_clamps_far_states_to_the_end_labels():
    g = WeightedGrid.labels(4)
    x = np.array([-np.inf, -1e300, -0.6, 2.0, 3.4, 1e300, np.inf])
    assert g.nearest_index(x).tolist() == [0, 0, 0, 2, 3, 3, 3]
