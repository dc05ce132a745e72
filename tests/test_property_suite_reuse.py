"""``property_suite`` against the reference path it replaced, and its apply count.

The suite composes each probe over each partition tail once, from one table
per call.  ``reference_suite`` is the suite as it was before that table: it
composes every partition afresh through ``partition_apply``, ``nisio_value``
and ``upper_bound_check``.  The two reports must agree bit for bit (``==``,
and the same JSON text, which tells -0.0 from 0.0), a failing report
included.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from config_strategies import FAMILIES, grid_and_family, properties
from nisio import (GridFunction, HeatOperator, FamilyBounds, SemigroupFamily,
                   envelope_step, nisio_value, partition_apply, property_suite,
                   upper_bound_check)
from nisio.config import build_family, build_grid, validate_config
from nisio.diagnostics import _nested_partition_pair
from nisio.envelope import CHECK_LEVEL, quadrature_tolerance
from nisio.grids import lip_seminorm, weighted_norm
from nisio.probes import bump, probe_function

ROOT = Path(__file__).resolve().parent.parent


def reference_suite(family, probes, t_list, seed=0, partition_pairs=5):
    """The suite before the composition table, verbatim."""
    eps = quadrature_tolerance(family)
    rng = np.random.default_rng(seed)
    grid = family.grid
    checks = []

    def record(name, worst_slack, tol):
        checks.append({"name": name, "worst_slack": float(worst_slack),
                       "tolerance": float(tol), "passed": bool(worst_slack >= -tol)})

    scale = max(1.0, max(float(np.max(np.abs(u.values))) for u in probes))
    fp_tol = 1e-11 * scale
    step = {(i, t): envelope_step(family, t, u).values
            for i, u in enumerate(probes) for t in t_list}

    one = GridFunction(np.ones(grid.size), grid)
    worst = min(-float(np.max(np.abs(envelope_step(family, t, one).values - 1.0)))
                for t in t_list)
    record("constants_preserved", worst, fp_tol)

    pts = grid.points if grid.points.ndim == 1 else grid.points[:, 0]
    lift = bump(pts, center=float(np.median(pts)),
                width=max(1.0, 0.25 * (pts.max() - pts.min())))
    worst = np.inf
    for i, u in enumerate(probes):
        v = u.with_values(u.values + lift)
        for t in t_list:
            gap = envelope_step(family, t, v).values - step[i, t]
            worst = min(worst, float(np.min(gap)))
    record("monotone", worst, eps)

    worst = np.inf
    for i, u in enumerate(probes):
        for j in range(i, len(probes)):
            s = u.with_values(u.values + probes[j].values)
            for t in t_list:
                gap = step[i, t] + step[j, t] - envelope_step(family, t, s).values
                worst = min(worst, float(np.min(gap)))
    record("subadditive", worst, max(eps, fp_tol))
    worst = np.inf
    for i, u in enumerate(probes):
        for c in (0.0, 0.5, 2.0):
            cu = u.with_values(c * u.values)
            for t in t_list:
                diff = envelope_step(family, t, cu).values - c * step[i, t]
                worst = min(worst, -float(np.max(np.abs(diff))))
    record("positively_homogeneous", worst, fp_tol)

    alpha = family.bounds.alpha
    worst = np.inf
    for i, u in enumerate(probes):
        for j in range(i + 1, len(probes)):
            du = weighted_norm(u.with_values(u.values - probes[j].values))
            for t in t_list:
                d_after = weighted_norm(u.with_values(step[i, t] - step[j, t]))
                worst = min(worst, np.exp(alpha * t) * du - d_after)
    record("kappa_contraction", worst, eps)

    if all(m.lipschitz_exact for m in family) and grid.size > 1:
        beta = family.bounds.beta
        gap_min = float(np.min(np.diff(pts)))
        worst = np.inf
        for i, u in enumerate(probes):
            lu = lip_seminorm(u)
            for t in t_list:
                worst = min(worst, np.exp(beta * t) * lu
                            - lip_seminorm(u.with_values(step[i, t])))
        record("lipschitz_propagation", worst, eps / gap_min + 1e-9)

    worst = np.inf
    t_ref = max(t_list)
    for _ in range(partition_pairs):
        p1, p2 = _nested_partition_pair(t_ref, rng)
        for u in probes:
            gap = partition_apply(family, p2, u).values \
                - partition_apply(family, p1, u).values
            worst = min(worst, float(np.min(gap)))
    record("partition_refinement", worst, 2 ** CHECK_LEVEL * eps)

    bounds = {t: upper_bound_check(family, t, probes[0], max_level=CHECK_LEVEL,
                                   tol=1e-12) for t in t_list}
    runs = [bounds[t_ref]["result"]] + [
        nisio_value(family, t_ref, u, max_level=CHECK_LEVEL, tol=1e-12)
        for u in probes[1:]]
    worst = np.inf
    for res in runs:
        for a, b in zip(res.levels, res.levels[1:]):
            worst = min(worst, float(np.min(b.values - a.values)))
    record("dyadic_levels_nondecreasing", worst, 2 ** CHECK_LEVEL * eps)

    worst = min(bound["min_slack"] for bound in bounds.values())
    record("envelope_dominates_members", worst, eps)

    return {"eps_q": float(eps), "checks": checks,
            "passed": bool(all(c["passed"] for c in checks))}


def assert_same_report(family, probes, t_list, **kwargs):
    rep = property_suite(family, probes, t_list, **kwargs)
    ref = reference_suite(family, probes, t_list, **kwargs)
    assert rep == ref
    assert json.dumps(rep) == json.dumps(ref)
    return rep


def _built(cfg):
    cfg = validate_config(cfg)
    grid = build_grid(cfg)
    return build_family(cfg, grid), grid


def _probes(grid, names):
    return [probe_function(name, grid) for name in names]


OU_PAIR = {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.05,
                    "boundary": "reflect"},
           "family": {"kind": "ou", "members": [{"B": -0.5, "m": 0.2, "C": 1.0},
                                                {"B": 0.0, "m": 0.0, "C": 0.5}]}}
GBM_LOG = {"grid": {"kind": "log", "x_max": 8.0, "n": 40, "boundary": "reflect"},
           "family": {"kind": "gbm", "members": [[-0.05, 0.4], [0.1, 0.2]]}}
# the family of the strict xfail in test_diagnostics: its domination fails
KOOPMAN = {"grid": {"kind": "uniform", "domain": [-4, 4], "dx": 0.02},
           "family": {"kind": "koopman", "fields": ["0.5*x", "1.0*x"],
                      "lipschitz_hint": 1.0}}


@pytest.mark.parametrize("t_list", [[0.25, 1.0], [0.3, 1.0], [0.0, 0.5], [0.5, 0.25, 0.5]],
                         ids=["dyadic", "non-dyadic", "zero", "repeated"])
def test_coarse_heat_matches_reference(coarse_family, coarse_grid, t_list):
    probes = _probes(coarse_grid, ("quadratic", "neg-quadratic", "sin"))
    assert_same_report(coarse_family, probes, t_list, seed=3, partition_pairs=3)


@pytest.mark.parametrize("cfg,names", [
    (OU_PAIR, ("quadratic", "neg-quadratic", "sin")),
    (GBM_LOG, ("call-payoff", "linear")),
], ids=["ou-pair", "gbm-log"])
def test_configured_families_match_reference(cfg, names):
    family, grid = _built(cfg)
    assert_same_report(family, _probes(grid, names), [0.25, 1.0], seed=1,
                       partition_pairs=3)


def test_failing_koopman_report_matches_reference():
    family, grid = _built(KOOPMAN)
    rep = assert_same_report(family, _probes(grid, ("sin", "cos")), [0.25, 1.0])
    check = {c["name"]: c for c in rep["checks"]}["envelope_dominates_members"]
    assert not check["passed"] and not rep["passed"]


def test_label_chain_matches_reference(chain_family, label_grid):
    probes = _probes(label_grid, ("linear", "quadratic", "cos"))
    assert_same_report(chain_family, probes, [0.3, 1.0], seed=5, partition_pairs=4)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=grid_and_family(FAMILIES).flatmap(
    lambda pair: properties(pair[0]).map(
        lambda section: dict(grid=pair[0], family=pair[1], **section))))
def test_drawn_properties_configs_match_reference(cfg):
    try:
        family, grid = _built(cfg)
    except (ValueError, RuntimeError):
        return  # a config the CLI rejects with exit 2
    section = cfg["properties"]
    probes = _probes(grid, section["probes"])
    kwargs = dict(seed=section["seed"], partition_pairs=section["partition_pairs"])
    try:
        ref = reference_suite(family, probes, section["t_list"], **kwargs)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            property_suite(family, probes, section["t_list"], **kwargs)
        return
    rep = property_suite(family, probes, section["t_list"], **kwargs)
    assert json.dumps(rep) == json.dumps(ref)


def _spied(family):
    """Count every member ``apply_values`` call; returns the counter."""
    count = [0]
    for member in family:
        apply_values = member.apply_values

        def spy(t, values, apply_values=apply_values):
            count[0] += 1
            return apply_values(t, values)

        member.apply_values = spy
    return count


def _warm_count(family, probes, t_list, **kwargs):
    """Applies of a warm call, after asserting it leaves every store's
    kernels as the first call left them."""
    count = _spied(family)
    first = property_suite(family, probes, t_list, **kwargs)
    stores = [dict(member._cache) for member in family]
    count[0] = 0
    assert property_suite(family, probes, t_list, **kwargs) == first
    for store, member in zip(stores, family):
        assert store.keys() == member._cache.keys()
        assert all(member._cache[t] is kernel for t, kernel in store.items())
    return count[0]


def test_warm_apply_count_on_the_ou_benchmark_config():
    # the benchmark's ou-properties call: 616 applies when every partition
    # was composed afresh
    cfg = validate_config(json.loads((ROOT / "bench/configs/ou.json").read_text()))
    grid = build_grid(cfg)
    section = cfg["properties"]
    count = _warm_count(build_family(cfg, grid), _probes(grid, section["probes"]),
                        section["t_list"], seed=section["seed"],
                        partition_pairs=section["partition_pairs"])
    assert count == 514


def test_warm_apply_count_on_the_coarse_heat_family(coarse_grid):
    # 466 applies when every partition was composed afresh
    family = SemigroupFamily([HeatOperator(coarse_grid, 0.5), HeatOperator(coarse_grid, 1.0)],
                             FamilyBounds(0.0, 0.0))
    probes = _probes(coarse_grid, ("quadratic", "neg-quadratic", "sin"))
    assert _warm_count(family, probes, [0.25, 1.0], partition_pairs=3) == 382
