import numpy as np
import pytest

from conftest import same_bits_kinds
from nisio import (ChainOperator, GridFunction, HeatOperator, InvalidInputError,
                   KoopmanOperator, OUOperator, ResolutionError, ScaledOperator, SemigroupFamily,
                   WeightedGrid, cutoff_decay_probe, cutoff_family,
                   envelope_step, property_suite, strong_continuity_probe,
                   viscosity_residual, FamilyBounds)
from nisio import diagnostics
from nisio.config import build_family, build_grid, validate_config
from nisio.probes import probe_function


def test_strong_continuity_constant_probe(coarse_family, coarse_grid):
    out = strong_continuity_probe(coarse_family, probe_function("const", coarse_grid),
                                  [0.1, 0.05, 0.025])
    assert max(out["rates"]) < 1e-12


def test_strong_continuity_heat_quadratic(coarse_family, coarse_grid):
    # displacement of x^2 is exactly sigma_h^2 h away from the boundary layer
    win = coarse_grid.window_mask(-2, 2)
    out = strong_continuity_probe(coarse_family, probe_function("quadratic", coarse_grid),
                                  [0.1, 0.05, 0.025, 0.0125], window=win)
    assert out["slope"] == pytest.approx(1.0, rel=1e-6)
    assert out["relative_residual"] < 1e-8


def test_strong_continuity_koopman_lipschitz_bound():
    # C_u (e^{alpha h} - 1) bound with theta = 1 for Lipschitz data; the
    # displacement grows with |x|, so the weight must decay at order one
    alpha = 1.0
    g = WeightedGrid.uniform(-8.0, 8.0, 0.01, kappa=lambda x: 1.0 / (1.0 + np.abs(x)))
    fam = SemigroupFamily([KoopmanOperator(g, lambda x: -x, alpha)],
                          FamilyBounds(0.0, alpha))
    u = probe_function("sin", g)
    h_list = [0.1, 0.05, 0.025]
    out = strong_continuity_probe(fam, u, h_list)
    for h, r in zip(out["h"], out["rates"]):
        assert r <= 1.0 * (np.exp(alpha * h) - 1.0) + 1e-9


def test_cutoff_shape(coarse_grid):
    phi = cutoff_family(coarse_grid, 0.0, 1.0)
    i0 = coarse_grid.size // 2
    assert phi.values[i0] == 0.0
    far = np.abs(coarse_grid.points) >= 1.0
    assert np.all(phi.values[far] == 1.0)
    assert np.all((phi.values >= 0.0) & (phi.values <= 1.0))


def test_cutoff_decay_probe_heat(coarse_family):
    out = cutoff_decay_probe(coarse_family, 1.0, [-4.0, 0.0, 4.0],
                             [0.04, 0.02, 0.01], level=3)
    vals = out["values"]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))  # decreasing in h
    for v, bound in zip(vals, out["slope_bound"]):
        assert v <= bound
    assert vals[-1] < 1e-4


def test_cutoff_decay_zero_rate_chain(label_grid):
    fam = SemigroupFamily([ChainOperator(label_grid, np.zeros((4, 4)))])
    out = cutoff_decay_probe(fam, 1.0, [1.0, 2.0], [0.5, 0.1])
    assert max(out["values"]) == 0.0


def test_cutoff_decay_probe_on_a_tensor_grid():
    # the 2D tensor grid this probe once ran on is deleted; the same checks
    # run on its first axis.  A cut-off is 0 within delta/2 of its centre and
    # 1 beyond delta, and a centre is the grid point nearest to it, here 0.4
    # for 0.43
    g = WeightedGrid.uniform(-2.0, 2.0, 0.2)
    fam = SemigroupFamily([OUOperator(g, -1.0, 0.0, 8.0)])
    phi = cutoff_family(g, 0.4, 1.0)
    dist = np.abs(g.points - 0.4)
    assert np.all(phi.values[dist <= 0.5] == 0.0) and np.all(phi.values[dist >= 1.0] == 1.0)
    out = cutoff_decay_probe(fam, 1.0, [0.43], [0.04, 0.02], level=2)
    assert out == cutoff_decay_probe(fam, 1.0, [0.4], [0.04, 0.02], level=2)
    assert 0.0 < out["values"][1] < out["values"][0] < 1.0
    assert all(v <= bound for v, bound in zip(out["values"], out["slope_bound"]))


def test_cutoff_resolution_guard(coarse_family):
    with pytest.raises(ResolutionError):
        cutoff_decay_probe(coarse_family, 0.01, [0.0], [0.1])


@pytest.mark.parametrize("delta", [0.0, -1.0, np.inf, np.nan])
def test_cutoff_decay_probe_rejects_a_delta_before_any_work(coarse_family, chain_family,
                                                           monkeypatch, delta):
    def refuse(*args):
        raise AssertionError("cut-off built")

    monkeypatch.setattr(diagnostics, "cutoff_family", refuse)
    for family, x0 in ((coarse_family, 0.0), (chain_family, 1.0)):
        with pytest.raises(InvalidInputError, match="delta must be positive and finite"):
            cutoff_decay_probe(family, delta, [x0], [0.1])


def test_viscosity_residual_rejects_a_window_without_a_valid_row():
    grid = WeightedGrid.uniform(-2.0, 2.0, 0.1)
    family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
    u = probe_function("sin", grid)
    snaps = [u, u.with_values(5.0 * u.values), u]
    assert viscosity_residual(family, snaps, 0.1)["max_interior_residual"] > 2.0
    ends = np.zeros(grid.size, dtype=bool)
    ends[[0, -1]] = True
    for window in (np.zeros(grid.size, dtype=bool), ends):
        with pytest.raises(InvalidInputError, match="empty window"):
            viscosity_residual(family, snaps, 0.1, window=window)
    ends[1] = True
    assert viscosity_residual(family, snaps, 0.1, window=ends)["max_interior_residual"] > 0.0


def test_viscosity_residual_analytic_solution(heat_family, heat_grid):
    # u(t) = x^2 + sigma_h^2 t solves the worst-case evolution exactly
    dt = 0.1
    snaps = [GridFunction(heat_grid.points ** 2 + 1.0 * k * dt, heat_grid)
             for k in range(5)]
    out = viscosity_residual(heat_family, snaps, dt)
    assert out["max_interior_residual"] < 1e-6


def test_viscosity_residual_scaled_family(heat_grid):
    # scales 0.25 and 2 of a sigma = 1 heat member: the worst-case evolution
    # of x^2 is u(t) = x^2 + 2 t, read through the scaled generators
    base = HeatOperator(heat_grid, 1.0)
    family = SemigroupFamily([ScaledOperator(base, s) for s in (0.25, 2.0)],
                             FamilyBounds(0.0, 0.0))
    dt = 0.1
    snaps = [GridFunction(heat_grid.points ** 2 + 2.0 * k * dt, heat_grid)
             for k in range(5)]
    out = viscosity_residual(family, snaps, dt)
    assert out["max_interior_residual"] < 1e-6
    # with the scales ignored the residual is off by the generator gap
    snaps = [GridFunction(heat_grid.points ** 2 + 1.0 * k * dt, heat_grid)
             for k in range(5)]
    assert viscosity_residual(family, snaps, dt)["max_interior_residual"] > 0.9


def test_viscosity_residual_constant_solution(chain_family, label_grid):
    dt = 0.2
    snaps = [probe_function("const", label_grid, value=3.0) for _ in range(4)]
    out = viscosity_residual(chain_family, snaps, dt)
    assert out["max_interior_residual"] < 1e-12


def test_viscosity_residual_singleton_consistency(coarse_grid):
    member = HeatOperator(coarse_grid, 1.0)
    fam = SemigroupFamily([member])
    dt = 0.05
    u = probe_function("cos", coarse_grid)
    snaps = [u]
    for _ in range(8):
        snaps.append(member.apply(dt, snaps[-1]))
    win = coarse_grid.window_mask(-2, 2)
    out = viscosity_residual(fam, snaps, dt, window=win)
    # central differences: O(dt^2 + dx^2)
    assert out["max_interior_residual"] < 5e-3


def test_viscosity_requires_three_snapshots(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    with pytest.raises(InvalidInputError):
        viscosity_residual(coarse_family, [u, u], 0.1)


def test_diagnostics_reject_a_nan_step_and_an_empty_h_list(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    for dt in (0.0, np.nan):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            viscosity_residual(coarse_family, [u, u, u], dt)
    for h_list in ([], [0.1, np.nan], [0.1, 0.0]):
        with pytest.raises(InvalidInputError, match="h values must be positive"):
            strong_continuity_probe(coarse_family, u, h_list)
    with pytest.raises(InvalidInputError, match="at least one h"):
        cutoff_decay_probe(coarse_family, 1.0, [0.0], [])
    with pytest.raises(InvalidInputError, match="duration"):
        cutoff_decay_probe(coarse_family, 1.0, [0.0], [0.1, np.nan])


def test_viscosity_field_masks_boundary(coarse_family, coarse_grid):
    u = probe_function("sin", coarse_grid)
    out = viscosity_residual(coarse_family, [u, u, u], 0.1)
    assert np.isnan(out["residual_field"][0, 0])
    assert np.isnan(out["residual_field"][0, -1])


def test_property_suite_heat(coarse_family, coarse_grid):
    probes = [probe_function(n, coarse_grid)
              for n in ("quadratic", "neg-quadratic", "sin")]
    rep = property_suite(coarse_family, probes, [0.25, 1.0], partition_pairs=3)
    assert rep["passed"], [c for c in rep["checks"] if not c["passed"]]
    names = {c["name"] for c in rep["checks"]}
    assert {"constants_preserved", "monotone", "subadditive",
            "positively_homogeneous", "kappa_contraction",
            "partition_refinement", "dyadic_levels_nondecreasing",
            "envelope_dominates_members"} <= names
    assert rep["eps_q"] <= 1e-10


def test_property_suite_needs_probes(coarse_family):
    with pytest.raises(InvalidInputError):
        property_suite(coarse_family, [], [0.5])


def test_property_suite_adversarial_monotone_pair(coarse_family, coarse_grid):
    # explicit u <= v with a localized lift: slack must be >= 0 exactly
    u = probe_function("sin", coarse_grid)
    v = u.with_values(u.values + probe_function("bump", coarse_grid).values)
    gap = envelope_step(coarse_family, 0.3, v).values \
        - envelope_step(coarse_family, 0.3, u).values
    assert float(np.min(gap)) >= 0.0


def test_property_suite_golden(coarse_family, coarse_grid):
    # pinned bit for bit: reading each probe's one-step envelope once per t
    # must leave every slack unchanged (recorded with the heat kernels built
    # from one periodised band)
    probes = [probe_function(n, coarse_grid)
              for n in ("quadratic", "neg-quadratic", "sin")]
    rep = property_suite(coarse_family, probes, [0.25, 1.0], partition_pairs=3)
    expected = [
        ("constants_preserved", -1.5543122344752192e-15, 6.4e-10),
        ("monotone", 0.0, 1e-12),
        ("subadditive", -9.947598300641403e-14, 6.4e-10),
        ("positively_homogeneous", -0.0, 6.4e-10),
        ("kappa_contraction", 3.1901535483612875, 1e-12),
        ("lipschitz_propagation", 0.03079149365470768, 1.0500000000000011e-09),
        ("partition_refinement", -2.4868995751603507e-14, 1.6e-11),
        ("dyadic_levels_nondecreasing", -3.019806626980426e-14, 1.6e-11),
        ("envelope_dominates_members", -2.842170943040401e-14, 1e-12),
    ]
    assert rep == {"eps_q": 1e-12, "passed": True,
                   "checks": [{"name": n, "worst_slack": s, "tolerance": t,
                               "passed": True} for n, s, t in expected]}


@pytest.mark.xfail(
    strict=True,
    reason="the level-4 envelope (16 composed steps) sits below each Koopman "
    "member's one-step S_k(t)u by that member's own composition defect: "
    "worst slack -0.00850 against eps_q 0.00494.  Each step re-interpolates "
    "linearly, so the defect grows with the number of steps, while eps_q "
    "measures one split at t_ref = 0.1.  See ROADMAP item 3.")
def test_koopman_family_envelope_dominates_members():
    cfg = validate_config({
        "grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
        "family": {"kind": "koopman", "fields": ["0.5*x", "1.0*x"], "lipschitz_hint": 1.0}})
    grid = build_grid(cfg)
    rep = property_suite(build_family(cfg, grid),
                         [probe_function(p, grid) for p in ("sin", "cos")], [0.25, 1.0])
    check = {c["name"]: c for c in rep["checks"]}["envelope_dominates_members"]
    assert check["passed"], check


@pytest.mark.parametrize("boundary", [
    pytest.param("renormalize", marks=pytest.mark.xfail(
        strict=True,
        reason="three checks fail on the heat-stencil config (heat sigma 0.05 and "
        "0.1, uniform [-2, 2], dx 0.05, renormalize): partition_refinement at slack "
        "-0.0403 and dyadic_levels_nondecreasing at -0.0440 against 0.0321, and "
        "envelope_dominates_members at -0.0044 against 0.0020.  The composition "
        "defect sits at the domain's ends, where S(0.25)S(0.25)u - S(0.5)u reads "
        "-0.0304 for sigma 0.1, far above eps_q, which t_ref = 0.1 measures.")),
    pytest.param("reflect", marks=pytest.mark.xfail(
        strict=True,
        reason="one check fails on the heat-stencil config under reflect: "
        "envelope_dominates_members at slack -0.00847 against 0.00200, with every "
        "other check passing.  reflect does not compose exactly at the ends either: "
        "S(0.25)S(0.25)u - S(0.5)u reads -0.0276 at x = -1.95 for sigma 0.1.")),
])
def test_heat_stencil_family_passes_its_properties(boundary):
    kind = same_bits_kinds()["heat-stencil"]
    cfg = validate_config(dict(kind, grid=dict(kind["grid"], boundary=boundary)))
    grid = build_grid(cfg)
    section = cfg["properties"]
    rep = property_suite(build_family(cfg, grid),
                         [probe_function(p, grid) for p in ("quadratic", "neg-quadratic", "sin")],
                         section["t_list"], partition_pairs=section["partition_pairs"])
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert not failed, failed
