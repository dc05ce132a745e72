"""Diagnostics: strong-continuity probes, cutoff decay, HJB residuals, and
the structural property suite every configuration is expected to satisfy."""

from __future__ import annotations

from collections import Counter

import numpy as np

from .envelope import (CHECK_LEVEL, Partition, check_applies, domination_slack,
                       dyadic_partitions, envelope_step, nisio_value, quadrature_tolerance,
                       refine_levels)
from .errors import InvalidInputError, ResolutionError
from .grids import GridFunction, lip_seminorm, weighted_norm
from .probes import bump, smootherstep


def strong_continuity_probe(family, u, h_list, window=None):
    """Rate of the members' small-time displacement.

    r(h) = max over members of ||S(h)u - u|| in the weighted norm; a linear
    model r ~ L h is fitted through the origin on the three smallest h.
    A small relative residual certifies first-order displacement (membership
    in the good class for strong continuity of the envelope).
    """
    h_arr = np.asarray(sorted(h_list, reverse=True), dtype=float)
    if not (h_arr.size and np.all(h_arr > 0.0)):
        raise InvalidInputError("need at least one h, and h values must be positive")
    rates = np.asarray([max(0.0, *(weighted_norm(u.with_values(row - u.values), window=window)
                                   for row in family.apply_all(h, u))) for h in h_arr])
    hs = h_arr[-3:] if len(h_arr) >= 3 else h_arr
    rs = rates[-3:] if len(h_arr) >= 3 else rates
    slope = float(np.sum(rs * hs) / np.sum(hs * hs))
    resid = rs - slope * hs
    rel = float(np.sqrt(np.sum(resid ** 2) / max(np.sum(rs ** 2), 1e-300)))
    return {"h": h_arr.tolist(), "rates": rates.tolist(),
            "slope": slope, "relative_residual": rel}


def cutoff_family(grid, x0, delta):
    """Cut-off test function: 0 at x0 (and within delta/2), 1 beyond distance delta."""
    if grid.kind == "labels":
        dist = np.where(grid.points == x0, 0.0, 1.0) * delta
    else:
        dist = np.abs(grid.points - x0)
    return GridFunction(smootherstep(2.0 * dist / delta - 1.0), grid)


def cutoff_decay_probe(family, delta, x_list, h_list, level=3, tol=1e-9):
    """Mass the envelope moves away from each center within small times.

    Reports, per h, the max over centers of kappa(x) (S(h) phi_x)(x) for the
    cut-off functions phi_x; the quantity must decrease to 0 with h.  When
    generator bounds exist, the linear slope bound L e^{alpha h0} h is
    attached (L = max generator norm over the cut-offs).
    """
    if not len(h_list):
        raise InvalidInputError("need at least one h")
    if not (delta > 0.0 and np.isfinite(delta)):
        raise InvalidInputError("delta must be positive and finite")
    grid = family.grid
    if grid.kind != "labels" and delta < 2.0 * float(np.min(np.diff(grid.points))):
        raise ResolutionError(f"delta={delta} below twice the grid spacing")
    centers_idx = grid.nearest_index(np.asarray(x_list, dtype=float).ravel()).tolist()
    cutoffs = [cutoff_family(grid, grid.points[idx], delta) for idx in centers_idx]
    L = max((weighted_norm(phi.with_values(res.values), window=res.valid)
             for phi in cutoffs for res in family.generators(phi)), default=0.0)
    values = []
    for h in h_list:
        worst = 0.0
        for phi, idx in zip(cutoffs, centers_idx):
            sh = nisio_value(family, h, phi, max_level=level, tol=tol).value
            worst = max(worst, grid.kappa[idx] * sh.values[idx])
        values.append(float(worst))
    h0 = max(h_list)
    alpha = family.bounds.alpha
    bound = [float(L * np.exp(alpha * h0) * h) for h in h_list]
    return {"h": list(map(float, h_list)), "values": values,
            "generator_bound_L": float(L), "slope_bound": bound}


def viscosity_residual(family, snapshots, dt, window=None):
    """Classical residual of the nonlinear evolution on smooth regions.

    residual(t, x) = d/dt u(t, x) - max over members of (A_member u(t))(x),
    with a central time difference at interior snapshots and generator
    stencils in space.  End snapshots and invalid stencil rows are excluded;
    a ``window`` must keep a valid row.  This is a necessary check where the
    envelope is smooth, not a full sub/supersolution verification.
    """
    if len(snapshots) < 3:
        raise InvalidInputError("need at least three snapshots")
    for u in snapshots:
        family.check(0.0, u)
    if not dt > 0.0:
        raise InvalidInputError("dt must be positive")
    n = family.grid.size
    k_interior = range(1, len(snapshots) - 1)
    field = np.full((len(snapshots) - 2, n), np.nan)
    worst = 0.0
    mask_window = np.ones(n, dtype=bool) if window is None else np.asarray(window, bool)
    for row, k in enumerate(k_interior):
        du_dt = (snapshots[k + 1].values - snapshots[k - 1].values) / (2.0 * dt)
        gens = family.generators(snapshots[k])
        ham = np.max([res.values for res in gens], axis=0)
        valid = np.logical_and.reduce([res.valid for res in gens])
        resid = du_dt - ham
        field[row, valid] = resid[valid]
        sel = valid & mask_window
        if np.any(sel):
            worst = max(worst, float(np.max(np.abs(resid[sel]))))
        elif window is not None:
            raise InvalidInputError("empty window")
    return {"residual_field": field, "max_interior_residual": worst}


def _nested_partition_pair(t, rng):
    """Random nested pair pi1 subset pi2 with endpoint t, on the t / 2^CHECK_LEVEL lattice."""
    quantum = 2 ** CHECK_LEVEL
    k2 = rng.integers(2, 7)
    interior = rng.choice(np.arange(1, quantum), size=min(k2, quantum - 1), replace=False)
    times2 = np.concatenate([[0.0], np.sort(interior) * (t / quantum), [t]])
    times2 = np.unique(times2)
    keep = rng.random(len(times2) - 2) < 0.5
    times1 = np.concatenate([[0.0], times2[1:-1][keep], [t]])
    return Partition(np.unique(times1)), Partition(times2)


def _tails(backward):
    """(h, tail) per step of a composition over the gaps ``backward``, read
    right to left; the tail, the gaps so far, keys ``property_suite``'s
    table."""
    tail = ()
    for h in backward:
        tail += (float(h),)
        yield h, tail


def suite_schedule(family, n_probes, t_list, seed=0, partition_pairs=5):
    """``property_suite``'s nested partition pairs, drawn from ``seed`` before
    any work and in the order the suite reads them, and its envelope steps
    per duration over ``n_probes`` probes: one per t of ``t_list`` for the
    member stacks of probes[0], the constant and each probe's lifted, scaled
    and summed steps, and one per entry of the composition table.  An upper
    bound, since the refinements' stop rule may end them early.  The suite
    takes its pairs from here, so the steps are those of its own draw.
    Before any pair is drawn, a bound on the steps must fit the member-apply
    budget: per t the direct steps and n one-step entries, at most n
    2^CHECK_LEVEL entries per partition of each pair, and the refinements."""
    if max(t_list) <= 0.0:
        # the partition pairs and the refinements run to the largest t
        raise InvalidInputError("t_list needs a positive horizon")
    n = n_probes
    check_applies(family, f"{n} probes, {len(t_list)} t_list entries and "
                          f"{partition_pairs} partition_pairs",
                  len(t_list) * (2 + 5 * n + n * (n - 1) // 2)
                  + partition_pairs * 2 * n * 2 ** CHECK_LEVEL
                  + (len(t_list) + n - 1) * (2 ** (CHECK_LEVEL + 1) - 1))
    t_ref = max(t_list)
    rng = np.random.default_rng(seed)
    pairs = [_nested_partition_pair(t_ref, rng) for _ in range(partition_pairs)]
    steps = Counter()
    for t in t_list:
        if t != 0.0:
            steps[float(t)] += 2 + 4 * n + n * (n - 1) // 2
    # the stacks fill probes[0]'s one-step entries; zero steps apply nothing
    table = {(0, (float(t),)) for t in t_list}
    compositions = [(i, (t,)) for i in range(n) for t in t_list]
    compositions += [(i, p.gaps[::-1]) for pair in pairs for i in range(n)
                     for p in pair]
    compositions += [(0, pi.gaps[::-1]) for t in t_list if t != 0.0
                     for pi in dyadic_partitions(t, CHECK_LEVEL)]
    compositions += [(i, pi.gaps[::-1]) for i in range(1, n)
                     for pi in dyadic_partitions(t_ref, CHECK_LEVEL)]
    for i, backward in compositions:
        for _, tail in _tails(backward):
            if (i, tail) not in table:
                table.add((i, tail))
                if tail[-1] != 0.0:
                    steps[tail[-1]] += 1
    return pairs, steps


def property_suite(family, probes, t_list, seed=0, partition_pairs=5):
    """Structural invariants of the one-step envelope, with measured slacks.

    Every inequality is tested with tolerance eps_q (the members' measured
    composition defect); identities that only suffer floating point use a
    scale-aware machine tolerance instead.  The partition pairs and dyadic
    refinements live on the t / 2^CHECK_LEVEL lattice (``envelope.CHECK_LEVEL``)
    and carry 2^CHECK_LEVEL eps_q, one per split.  Each probe's composition
    over each partition tail is computed once per call: the one-step
    envelopes, both partitions of every nested pair and the dyadic levels
    read one table keyed by the probe and the tail's gaps, composed right to
    left, so partitions that share trailing intervals share their steps.  The
    report is that of composing every partition afresh, bit for bit.  The
    pairs, and the steps the call takes per duration, are stated before any
    work by ``suite_schedule``, which refuses a call past the budget.
    Returns a JSON-shaped report.
    """
    if not probes:
        raise InvalidInputError("need at least one probe")
    if not len(t_list):
        raise InvalidInputError("need at least one t")
    for u in probes:
        for t in t_list:
            family.check(t, u)
    pairs, _ = suite_schedule(family, len(probes), t_list, seed, partition_pairs)
    eps = quadrature_tolerance(family)
    grid = family.grid
    checks = []

    def record(name, worst_slack, tol):
        checks.append({"name": name, "worst_slack": float(worst_slack),
                       "tolerance": float(tol), "passed": bool(worst_slack >= -tol)})

    # probes[i] under the one-step envelope composed over a partition's tail,
    # keyed (i, the tail's exact gaps from the last one backward); this call's
    # own steps bound it
    composed = {}

    def compose(i, backward):
        v = probes[i]
        for h, tail in _tails(backward):
            if (i, tail) not in composed:
                composed[i, tail] = envelope_step(family, h, v)
            v = composed[i, tail]
        return v

    def refined(i, t):
        """probes[i]'s dyadic iterates at t up to CHECK_LEVEL, under
        nisio_value's stop rule at tol 1e-12."""
        if t == 0.0:
            return [probes[i]]
        return refine_levels((compose(i, pi.gaps[::-1])
                              for pi in dyadic_partitions(t, CHECK_LEVEL)), 1e-12).levels

    scale = max(1.0, max(float(np.max(np.abs(u.values))) for u in probes))
    fp_tol = 1e-11 * scale
    # one-step envelope of every probe at every t, read by all checks below;
    # probes[0]'s member stacks also give the domination check its S_k(t)u
    stacks = {t: family.apply_all(t, probes[0]) for t in t_list}
    for t, stack in stacks.items():
        if t != 0.0:
            composed[0, (float(t),)] = probes[0].with_values(np.max(stack, axis=0))
    step = {(i, t): compose(i, (t,)).values for i in range(len(probes)) for t in t_list}

    # constants preserved
    one = GridFunction(np.ones(grid.size), grid)
    worst = min(-float(np.max(np.abs(envelope_step(family, t, one).values - 1.0)))
                for t in t_list)
    record("constants_preserved", worst, fp_tol)

    # monotonicity: u <= u + nonnegative perturbation
    pts = grid.points
    lift = bump(pts, center=float(np.median(pts)),
                width=max(1.0, 0.25 * (pts.max() - pts.min())))
    worst = np.inf
    for i, u in enumerate(probes):
        v = u.with_values(u.values + lift)
        for t in t_list:
            gap = envelope_step(family, t, v).values - step[i, t]
            worst = min(worst, float(np.min(gap)))
    record("monotone", worst, eps)

    # sublinearity and positive homogeneity; u + u == 2u exactly, so the
    # c = 2 step is also the i = j subadditive term
    scales = (0.0, 0.5, 2.0)
    scaled = {(i, c, t): envelope_step(family, t, u.with_values(c * u.values)).values
              for i, u in enumerate(probes) for c in scales for t in t_list}
    worst = np.inf
    for i, u in enumerate(probes):
        for j in range(i, len(probes)):
            s = u.with_values(u.values + probes[j].values)
            for t in t_list:
                joint = scaled[i, 2.0, t] if j == i else envelope_step(family, t, s).values
                gap = step[i, t] + step[j, t] - joint
                worst = min(worst, float(np.min(gap)))
    record("subadditive", worst, max(eps, fp_tol))
    worst = np.inf
    for i in range(len(probes)):
        for c in scales:
            for t in t_list:
                diff = scaled[i, c, t] - c * step[i, t]
                worst = min(worst, -float(np.max(np.abs(diff))))
    record("positively_homogeneous", worst, fp_tol)

    # weighted-norm contraction at rate alpha
    alpha = family.bounds.alpha
    worst = np.inf
    for i, u in enumerate(probes):
        for j in range(i + 1, len(probes)):
            du = weighted_norm(u.with_values(u.values - probes[j].values))
            for t in t_list:
                d_after = weighted_norm(u.with_values(step[i, t] - step[j, t]))
                worst = min(worst, np.exp(alpha * t) * du - d_after)
    record("kappa_contraction", worst, eps)

    # Lipschitz propagation (only meaningful when members preserve it exactly)
    if all(m.lipschitz_exact for m in family):
        beta = family.bounds.beta
        gap_min = float(np.min(np.diff(pts)))
        worst = np.inf
        for i, u in enumerate(probes):
            lu = lip_seminorm(u)
            for t in t_list:
                worst = min(worst, np.exp(beta * t) * lu
                            - lip_seminorm(u.with_values(step[i, t])))
        record("lipschitz_propagation", worst, eps / gap_min + 1e-9)

    # partition refinement and dyadic monotonicity: the exact inequality
    # telescopes over composition splits, so the tolerance carries one eps_q
    # per split (members with exactly composing kernels keep it at eps_q)
    worst = np.inf
    t_ref = max(t_list)
    for p1, p2 in pairs:
        for i in range(len(probes)):
            gap = compose(i, p2.gaps[::-1]).values - compose(i, p1.gaps[::-1]).values
            worst = min(worst, float(np.min(gap)))
    record("partition_refinement", worst, 2 ** CHECK_LEVEL * eps)

    # one refinement of probes[0] at each t serves both checks below
    tops = {t: refined(0, t) for t in stacks}
    runs = [tops[t_ref]] + [refined(i, t_ref) for i in range(1, len(probes))]
    worst = np.inf
    for levels in runs:
        for a, b in zip(levels, levels[1:]):
            worst = min(worst, float(np.min(b.values - a.values)))
    record("dyadic_levels_nondecreasing", worst, 2 ** CHECK_LEVEL * eps)

    # envelope dominates every member
    worst = min(domination_slack(family, tops[t][-1], stack) for t, stack in stacks.items())
    record("envelope_dominates_members", worst, eps)

    return {"eps_q": float(eps), "checks": checks,
            "passed": bool(all(c["passed"] for c in checks))}
