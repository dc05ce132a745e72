"""``nisio properties`` on small drawn configs: every run ends in an exit
code, twice alike.

Each example is a schema-valid ``properties`` config: a grid kind (uniform
with either boundary, periodic, log, labels) with a family kind its members
accept there (heat, 1D OU and Koopman on uniform grids, heat and stable on
periodic ones, GBM on log grids, chains on labels, or a scaled singleton of
one of them), at most 50 grid cells, one to three probes, one or two
horizons (one of them positive) and one or two partition pairs.  Running it in process must raise
nothing, exit 0, 1, 2 or 3, and write the same bytes on a second run.  An
exit 1 is a check failing on a coarse grid, which is the checks working.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from config_strategies import grid_and_family, num, outputs
from nisio import cli
from nisio.probes import PROBE_NAMES

# family kinds whose members each grid kind accepts
_FAMILIES = {"uniform": ("heat", "ou", "koopman"), "periodic": ("heat", "stable"),
             "log": ("gbm",), "labels": ("chain",)}


@st.composite
def properties_configs(draw):
    grid, family = draw(grid_and_family(_FAMILIES))
    return {
        "grid": grid, "family": family,
        "properties": {
            "probes": draw(st.lists(st.sampled_from(PROBE_NAMES), min_size=1, max_size=3)),
            # one positive horizon, and sometimes t = 0 beside it
            "t_list": [draw(num(0.01, 1.0))] + draw(
                st.lists(st.one_of(st.just(0.0), num(0.01, 1.0)), max_size=1)),
            "seed": draw(st.integers(0, 2 ** 31 - 1)),
            "partition_pairs": draw(st.integers(1, 2))},
    }


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cfg=properties_configs())
def test_properties_exits_cleanly_and_reproducibly(tmp_path_factory, cfg):
    root = tmp_path_factory.mktemp("properties")
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    codes = [cli.run("properties", str(path), str(root / name)) for name in ("a", "b")]
    assert codes[0] in (0, 1, 2, 3)
    assert codes[1] == codes[0]
    assert outputs(root / "a") == outputs(root / "b")
