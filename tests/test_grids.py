import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisio import (ConfigurationError, GridFunction, InvalidInputError,
                   WeightedGrid, lip_seminorm, weighted_norm)
from nisio.config import build_grid
from nisio.grids import BOUNDARIES
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
    with pytest.raises(ConfigurationError, match="dx must be positive"):
        WeightedGrid.uniform(0.0, 1.0, np.nan)


def test_kappa_must_be_positive():
    with pytest.raises(ConfigurationError):
        WeightedGrid.uniform(0.0, 1.0, 0.5, kappa=lambda x: x)  # zero at 0


# a kappa of the wrong shape from every source, on every grid kind
WRONG_KAPPA = {
    "uniform-array": lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5, kappa=np.ones(3)),
    "uniform-callable": lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5,
                                                     kappa=lambda x: np.ones(2)),
    "log-scalar-callable": lambda: WeightedGrid.loggrid(8.0, 0.01, 3, kappa=lambda x: 1.0),
    "labels-matrix": lambda: WeightedGrid.labels(4, kappa=np.ones((2, 2))),
    # a weight in the (n0, n1) form of a 2D tensor grid, given on a 1D grid;
    # a callable's used to be reshaped, and leaked numpy's reshape ValueError
    "tensor-array": lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5, kappa=np.ones((5, 5))),
    "tensor-callable": lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5,
                                                    kappa=lambda x: np.ones((5, 5))),
    "direct": lambda: WeightedGrid(np.linspace(0.0, 1.0, 5), np.ones(4), spacing=0.25),
}


@pytest.mark.parametrize("case", sorted(WRONG_KAPPA))
def test_kappa_needs_one_weight_per_point(case):
    # a grid with fewer weights than points used to build, and its
    # weighted_norm raised numpy's broadcast ValueError
    with pytest.raises(ConfigurationError, match=r"kappa has shape \(.*\), expected \(\d+,\)"):
        WRONG_KAPPA[case]()


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


def test_lip_seminorm_tensor_takes_the_steeper_axis():
    # a 2D tensor grid is no grid: its points are refused.  The seminorm it
    # took was the steeper of its axes', and each axis is a grid of its own:
    # x in {0, 0.5, 1}, y in {0, 0.5, ..., 2}, where every difference is exact
    x, y = WeightedGrid.uniform(0.0, 1.0, 0.5), WeightedGrid.uniform(0.0, 2.0, 0.5)
    xx, yy = np.meshgrid(x.points, y.points, indexing="ij")
    with pytest.raises(ConfigurationError, match=r"grid points must be 1D, got shape \(15, 2\)"):
        WeightedGrid(np.column_stack([xx.ravel(), yy.ravel()]), np.ones(15))
    assert lip_seminorm(GridFunction(3.0 * x.points, x)) == 3.0
    assert lip_seminorm(GridFunction(8.0 * x.points, x)) == 8.0
    # along y the steepest pair is at the top edge: (4 - 2.25) / 0.5
    assert lip_seminorm(GridFunction(y.points ** 2, y)) == 3.5


def test_every_grid_kind_refuses_fewer_than_two_points():
    # one rule where a grid is made: no lookup, kernel, seminorm or probe
    # ever sees a grid of one point, and a grid of two serves every lookup
    # and the seminorm on each kind
    one_point = {
        "uniform": lambda: WeightedGrid.uniform(0.0, 0.0, 0.5),
        "periodic": lambda: WeightedGrid.uniform(0.0, 0.5, 0.5, periodic=True),
        "log": lambda: WeightedGrid(np.array([0.0]), np.ones(1), kind="log"),
        "labels": lambda: WeightedGrid.labels(1),
    }
    for kind, make in one_point.items():
        with pytest.raises(ConfigurationError,
                           match=f"^a {kind} grid needs at least two points, got 1$"):
            make()
    # a two-point grid of each kind, and the Lipschitz constant of (1, 2) on it
    smallest = [(WeightedGrid.uniform(0.0, 0.5, 0.5), 2.0),
                (WeightedGrid.uniform(0.0, 1.0, 0.5, periodic=True), 2.0),
                (WeightedGrid(np.array([-1.0, 1.0]), np.ones(2), kind="log", spacing=2.0), 0.5),
                (WeightedGrid.labels(2), 1.0)]
    for g, lip in smallest:
        u = GridFunction(np.array([1.0, 2.0]), g)
        assert g.nearest_index(np.array([-1.0, 0.0, 0.7, 5.0])).tolist() == [0, 0, 1, 1]
        assert lip_seminorm(u) == lip
        lo, hi = g.points
        x, values = ((lo, hi), [1.0, 2.0]) if g.kind == "labels" else (
            (lo, 0.5 * (lo + hi), hi), [1.0, 1.5, 2.0])
        assert u.at(np.array(x)).tolist() == values


def test_lip_seminorm_single_point_rejected():
    # a seminorm needs a pair of points: a one-point grid is refused where it
    # is made, so no function on it ever reaches lip_seminorm
    with pytest.raises(ConfigurationError,
                       match="^a labels grid needs at least two points, got 1$"):
        WeightedGrid.labels(1)
    assert lip_seminorm(GridFunction(np.array([1.0, 4.0]), WeightedGrid.labels(2))) == 3.0


def test_nearest_index_single_point_grid():
    # the two one-point grids nearest_index and interp_weights once served
    # are refused where they are made; a two-point grid serves both lookups
    for kind, make in (("uniform", lambda: WeightedGrid.uniform(0.0, 0.0, 0.5)),
                       ("periodic", lambda: WeightedGrid.uniform(0.0, 0.5, 0.5,
                                                                 periodic=True))):
        with pytest.raises(ConfigurationError,
                           match=f"^a {kind} grid needs at least two points, got 1$"):
            make()
    g = WeightedGrid.uniform(0.0, 0.5, 0.5)
    assert g.size == 2
    assert g.nearest_index(np.array([0.0, 1.0, -1.0])).tolist() == [0, 1, 0]
    j, theta = g.interp_weights(np.array([0.25, 5.0]))
    assert j.tolist() == [0, 0] and theta.tolist() == [0.5, 1.0]


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


def test_loggrid_needs_two_points_per_side():
    # one point per side has no log spacing; it used to raise IndexError
    with pytest.raises(ConfigurationError, match="at least 2 points per side"):
        WeightedGrid.loggrid(8.0, 0.01, 1)
    assert WeightedGrid.loggrid(8.0, 0.01, 2).size == 5


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


@pytest.mark.parametrize("n", [2, 5])
def test_labels_lookup_matches_the_ceil_rule(n):
    # labels take the uniform grids' bracket; the rule they used to state on
    # their own, clip(ceil(x - 0.5)), stays the oracle: ties, their
    # neighbouring floats, +-inf, -0.0 and far states
    g = WeightedGrid.labels(n)
    ties = np.arange(-2, n + 2) - 0.5
    x = np.concatenate([
        ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf),
        np.arange(-2.0, n + 2),
        [-np.inf, np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.49999999999999994],
        np.random.default_rng(n).uniform(-2.0, n + 2.0, 1000)])
    expected = np.clip(np.ceil(x - 0.5), 0, n - 1).astype(np.intp)
    assert np.array_equal(g.nearest_index(x), expected)
    with pytest.raises(InvalidInputError):
        g.nearest_index(np.array([0.0, np.nan]))


@pytest.mark.parametrize("points, spacing", [([0.0, 1.0, 3.0], 1.0),
                                             ([1.0, 2.0, 3.0], 1.0),
                                             ([0.0, 2.0, 4.0], 2.0),
                                             ([0.0, 1.0, 2.0], 0.5)])
def test_labels_grid_needs_the_labels_zero_to_n_minus_one(points, spacing):
    # the O(1) lookup and the chain members, which read a state as its
    # label's index, rely on points 0, 1, ..., n-1
    assert WeightedGrid(np.arange(3.0), np.ones(3), kind="labels").size == 3
    with pytest.raises(ConfigurationError, match=r"label grid points must be 0, 1, \.\.\., n-1"):
        WeightedGrid(np.array(points), np.ones(3), kind="labels", spacing=spacing)


# the boundary rule a grid states is the one its members read
def test_periodic_grid_wraps_and_refuses_other_boundaries():
    assert WeightedGrid.uniform(-1.0, 1.0, 0.5, periodic=True).boundary == "wrap"
    assert WeightedGrid.uniform(-1.0, 1.0, 0.5, periodic=True, boundary="wrap").boundary \
        == "wrap"
    for boundary in ("reflect", "renormalize"):
        with pytest.raises(ConfigurationError, match="periodic grid takes boundary wrap"):
            WeightedGrid.uniform(-1.0, 1.0, 0.5, periodic=True, boundary=boundary)


def test_boundary_none_takes_the_kind_default():
    assert WeightedGrid.uniform(-1.0, 1.0, 0.5).boundary == "renormalize"
    assert WeightedGrid.uniform(-1.0, 1.0, 0.5, boundary=None).boundary == "renormalize"
    assert WeightedGrid.loggrid(8.0, 0.01, 5, boundary=None).boundary == "renormalize"
    assert WeightedGrid.labels(3).boundary == "renormalize"
    assert WeightedGrid.uniform(-1.0, 1.0, 0.5, boundary="reflect").boundary == "reflect"
    assert WeightedGrid.loggrid(8.0, 0.01, 5, boundary="reflect").boundary == "reflect"


@pytest.mark.parametrize("make", [
    lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5, boundary="wrap"),
    lambda: WeightedGrid.uniform(-1.0, 1.0, 0.5, boundary="absorb"),
    lambda: WeightedGrid.loggrid(8.0, 0.01, 5, boundary="wrap"),
    lambda: WeightedGrid(np.arange(3.0), np.ones(3), kind="labels", boundary="reflect"),
])
def test_grid_rejects_a_boundary_its_kind_does_not_admit(make):
    with pytest.raises(ConfigurationError, match="grid takes boundary"):
        make()


def test_grid_rejects_an_unknown_kind():
    with pytest.raises(ConfigurationError, match="unknown grid kind 'hex'"):
        WeightedGrid(np.arange(3.0), np.ones(3), kind="hex")


_LINE = WeightedGrid.uniform(0.0, 1.0, 0.5)
# every rejection of a malformed grid, or of a query a grid does not answer:
# id -> (call, error, message)
GRID_REJECTIONS = {
    "no-points": (lambda: WeightedGrid(np.array([]), np.ones(0)),
                  ConfigurationError, "a uniform grid needs at least two points, got 0"),
    "nan-point": (lambda: WeightedGrid(np.array([0.0, np.nan]), np.ones(2)),
                  ConfigurationError, "grid points must be finite"),
    "inf-point": (lambda: WeightedGrid(np.array([0.0, np.inf]), np.ones(2), kind="log"),
                  ConfigurationError, "grid points must be finite"),
    "repeated-points": (lambda: WeightedGrid(np.array([0.0, 1.0, 1.0]), np.ones(3),
                                             kind="log"),
                        ConfigurationError, "grid points must be strictly increasing"),
    "decreasing-points": (lambda: WeightedGrid(np.array([1.0, 0.0]), np.ones(2)),
                          ConfigurationError, "grid points must be strictly increasing"),
    "log-x_min_mag-at-x_max": (lambda: WeightedGrid.loggrid(8.0, 8.0, 5),
                               ConfigurationError, "need 0 < x_min_mag < x_max"),
    "log-x_min_mag-over-x_max": (lambda: WeightedGrid.loggrid(8.0, 10.0, 5),
                                 ConfigurationError, "need 0 < x_min_mag < x_max"),
    "period-of-a-uniform-grid": (lambda: _LINE.period, ConfigurationError,
                                 "period only defined for periodic grids"),
    "points-of-two-coordinates": (lambda: WeightedGrid(np.zeros((3, 2)), np.ones(3)),
                                  ConfigurationError,
                                  r"grid points must be 1D, got shape \(3, 2\)"),
    # lookups run elementwise over a batch of any shape, a tensor of states
    # of two axes included, and refuse it whole for one bad state
    "tensor-nearest_index": (lambda: _LINE.nearest_index(np.array([[0.1, 0.2], [np.nan, 0.3]])),
                             InvalidInputError, "states must not be NaN"),
    "tensor-interp_weights": (lambda: WeightedGrid.uniform(0.0, 1.0, 0.5, periodic=True)
                              .interp_weights(np.array([[0.1, np.inf], [0.2, 0.3]])),
                              InvalidInputError, "states on a periodic grid must be finite"),
    "function-of-the-wrong-length": (lambda: GridFunction(np.zeros(2), _LINE),
                                     InvalidInputError,
                                     r"values shape \(2,\) does not match grid size 3"),
    "all-false-window": (lambda: weighted_norm(GridFunction(np.ones(3), _LINE),
                                               window=np.zeros(3, dtype=bool)),
                         InvalidInputError, "empty window"),
}


@pytest.mark.parametrize("case", sorted(GRID_REJECTIONS))
def test_grids_reject_malformed_grids_and_queries(case):
    call, error, message = GRID_REJECTIONS[case]
    with pytest.raises(error, match=message):
        call()


def test_tensor_grid_renormalizes_and_takes_no_boundary():
    # the 2D tensor grid, which renormalized and took no other boundary, is
    # no kind now; every kind left but the periodic one renormalizes by default
    assert not hasattr(WeightedGrid, "tensor") and "tensor" not in BOUNDARIES
    with pytest.raises(ConfigurationError, match="unknown grid kind 'tensor'"):
        WeightedGrid(np.arange(3.0), np.ones(3), kind="tensor")
    assert {kind: allowed[0] for kind, allowed in BOUNDARIES.items()} == {
        "uniform": "renormalize", "log": "renormalize", "periodic": "wrap",
        "labels": "renormalize"}
    with pytest.raises(ConfigurationError, match="a labels grid takes boundary renormalize, "
                                                 "not 'reflect'"):
        WeightedGrid(np.arange(3.0), np.ones(3), kind="labels", boundary="reflect")


@pytest.mark.parametrize("section, boundary", [
    ({"kind": "periodic", "domain": [-1, 1], "dx": 0.5}, "wrap"),
    ({"kind": "uniform", "domain": [-1, 1], "dx": 0.5}, "renormalize"),
    ({"kind": "uniform", "domain": [-1, 1], "dx": 0.5, "boundary": "reflect"}, "reflect"),
    ({"kind": "log", "x_max": 8, "n": 5}, "renormalize"),
    ({"kind": "log", "x_max": 8, "n": 5, "boundary": "reflect"}, "reflect"),
    ({"kind": "labels", "n": 3}, "renormalize"),
])
def test_config_grid_states_the_boundary_its_members_read(section, boundary):
    assert build_grid({"grid": section}).boundary == boundary
