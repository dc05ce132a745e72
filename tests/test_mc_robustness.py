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

from config_strategies import grid_and_family, num, outputs
from nisio import cli
from nisio.probes import PROBE_NAMES

# family kinds with a path sampler on each grid kind
_FAMILIES = {"uniform": ("heat", "ou", "koopman"), "periodic": ("heat",),
             "log": ("gbm",), "labels": ("chain",)}


@st.composite
def mc_configs(draw):
    grid, family = draw(grid_and_family(_FAMILIES))
    # x0 within twice the grid's extent, so some runs start off the grid
    reach = grid["domain"][1] if "domain" in grid else grid.get("x_max", grid.get("n"))
    return {
        "grid": grid, "family": family,
        "u0": {"name": draw(st.sampled_from(PROBE_NAMES))},
        "mc": {"t": draw(num(0.05, 2.0)), "m": draw(st.integers(1, 8)),
               "n_paths": draw(st.integers(100, 2000)),
               "seed": draw(st.integers(0, 2 ** 31 - 1)),
               "x0": draw(num(-2.0 * reach, 2.0 * reach))},
    }


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
    assert outputs(root / "a") == outputs(root / "b")
