"""``nisio mc`` on small drawn configs: every run ends in an exit code, twice
alike.

Each example is a schema-valid ``mc`` config: a grid kind the path sampler
accepts (uniform with either boundary, periodic, log, labels) with a family
kind that has a path sampler on it (heat, 1D OU, GBM, Koopman, chain, or a
scaled singleton of one of them), at most 50 grid cells, at most 8 stages
and 100 to 2000 paths.  Running it in process must raise nothing, exit 0, 1,
2 or 3, and write the same bytes on a second run.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nisio import cli
from nisio.probes import PROBE_NAMES

# family kinds with a path sampler on each grid kind
_FAMILIES = {"uniform": ("heat", "ou", "koopman"), "periodic": ("heat",),
             "log": ("gbm",), "labels": ("chain",)}
_FIELDS = ("-x", "0.5*x", "-0.5*x", "1.0 + 0*x", "sin(x)", "-tanh(x)")


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _grid(draw, kind):
    if kind == "labels":
        return {"kind": "labels", "n": draw(st.integers(1, 6))}
    if kind == "log":
        return {"kind": "log", "x_max": draw(_num(1.0, 10.0)),
                "n": draw(st.integers(1, 24)),
                "boundary": draw(st.sampled_from(["reflect", "renormalize"]))}
    half = draw(_num(0.5, 5.0))
    grid = {"kind": kind, "domain": [-half, half],
            "dx": 2.0 * half / draw(st.integers(1, 50))}
    if kind == "uniform":
        grid["boundary"] = draw(st.sampled_from(["reflect", "renormalize"]))
    return grid


@st.composite
def _members(draw, kind, grid, count):
    if kind == "heat":
        return {"sigmas": draw(st.lists(_num(0.0, 2.0), min_size=1, max_size=count))}
    if kind == "ou":
        member = st.fixed_dictionaries({"B": _num(-3.0, 1.0), "m": _num(-1.0, 1.0),
                                        "C": _num(0.0, 2.0)})
        return {"members": draw(st.lists(member, min_size=1, max_size=count))}
    if kind == "gbm":
        pair = st.tuples(_num(-0.3, 0.3), _num(0.0, 0.8)).map(list)
        return {"members": draw(st.lists(pair, min_size=1, max_size=count))}
    if kind == "koopman":
        return {"fields": draw(st.lists(st.sampled_from(_FIELDS), min_size=1,
                                        max_size=count))}
    size = grid["n"]
    matrices = []
    for _ in range(draw(st.integers(1, count))):
        rows = [[draw(_num(0.0, 2.0)) if j != i else 0.0 for j in range(size)]
                for i in range(size)]
        for i, row in enumerate(rows):
            row[i] = -sum(row)
        matrices.append(rows)
    return {"rate_matrices": matrices}


@st.composite
def mc_configs(draw):
    grid_kind = draw(st.sampled_from(["uniform", "periodic", "log", "labels"]))
    grid = draw(_grid(grid_kind))
    kind = draw(st.sampled_from(_FAMILIES[grid_kind]))
    if draw(st.booleans()):
        family = {"kind": "scaled", "base": dict(kind=kind, **draw(_members(kind, grid, 1))),
                  "scales": draw(st.lists(_num(0.0, 3.0), min_size=1, max_size=3))}
    else:
        family = dict(kind=kind, **draw(_members(kind, grid, 3)))
    # x0 within twice the grid's extent, so some runs start off the grid
    reach = grid["domain"][1] if "domain" in grid else grid.get("x_max", grid.get("n"))
    return {
        "grid": grid, "family": family,
        "u0": {"name": draw(st.sampled_from(PROBE_NAMES))},
        "mc": {"t": draw(_num(0.05, 2.0)), "m": draw(st.integers(1, 8)),
               "n_paths": draw(st.integers(100, 2000)),
               "seed": draw(st.integers(0, 2 ** 31 - 1)),
               "x0": draw(_num(-2.0 * reach, 2.0 * reach))},
    }


def _outputs(out_dir):
    if not out_dir.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cfg=mc_configs())
def test_mc_exits_cleanly_and_reproducibly(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("mc")
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    codes = [cli.run("mc", str(path), str(root / name)) for name in ("a", "b")]
    assert codes[0] in (0, 1, 2, 3)
    assert codes[1] == codes[0]
    assert _outputs(root / "a") == _outputs(root / "b")
