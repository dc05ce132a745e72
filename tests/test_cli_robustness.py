"""Every CLI subcommand on small drawn configs: each run ends in an exit
code, twice alike.

Each example is a schema-valid config for one subcommand: a grid kind
(uniform with either boundary, or with none under a Koopman family, which
rejects one; periodic, log, labels) with a family kind its members accept
there (heat, 1D OU and Koopman on uniform grids, heat and stable on periodic
ones, GBM on log grids, chains on labels, or a scaled singleton of one of
them), at most 50 grid cells.  ``mc`` keeps to the
family kinds with a path sampler on the grid (no stable members) and draws
at most 8 stages and 100 to 2000 paths.  ``properties`` draws one to three
probes, one or two horizons (one of them positive) and one or two partition
pairs.  ``solve`` and ``dpp`` draw horizons from [0, 2] and ``control``
from (0, 2], each a refinement level 1 to 4, and ``control`` 1 to 8 greedy
stages and 0 to 3 random policies.  Running it in process must raise
nothing, exit 0, 1, 2 or 3, and write the same bytes on a second run.  An
exit 1 is a check failing on a coarse grid, which is the checks working.
"""
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from config_strategies import FAMILIES, grid_and_family, num, outputs, properties
from nisio import cli
from nisio.probes import PROBE_NAMES

# family kinds with a path sampler on each grid kind
_SAMPLED = dict(FAMILIES, periodic=("heat",))


_U0 = st.fixed_dictionaries({"name": st.sampled_from(PROBE_NAMES)})


@st.composite
def _config(draw, families, sections):
    """A grid and family from ``families``, plus the sections that
    ``sections(grid)`` draws."""
    grid, family = draw(grid_and_family(families))
    return dict(grid=grid, family=family, **draw(sections(grid)))


def _solve(grid):
    return st.fixed_dictionaries({"u0": _U0, "solve": st.fixed_dictionaries(
        {"t": num(0.0, 2.0), "max_level": st.integers(1, 4)})})


def _dpp(grid):
    return st.fixed_dictionaries({"u0": _U0, "dpp": st.fixed_dictionaries(
        {"s": num(0.0, 2.0), "t": num(0.0, 2.0), "level": st.integers(1, 4)},
        optional={"threshold": num(0.0, 1.0)})})


def _control(grid):
    return st.fixed_dictionaries({"u0": _U0, "control": st.fixed_dictionaries(
        {"t": num(0.0, 2.0).filter(bool), "m": st.integers(1, 8), "trials": st.integers(0, 3),
         "level": st.integers(1, 4)})})


def _mc(grid):
    # x0 within twice the grid's extent, so some runs start off the grid
    reach = grid["domain"][1] if "domain" in grid else grid.get("x_max", grid.get("n"))
    return st.fixed_dictionaries({"u0": _U0, "mc": st.fixed_dictionaries(
        {"t": num(0.05, 2.0), "m": st.integers(1, 8),
         "n_paths": st.integers(100, 2000), "seed": st.integers(0, 2 ** 31 - 1),
         "x0": num(-2.0 * reach, 2.0 * reach)})})


# subcommand -> (its config strategy, examples per run)
CASES = {
    "solve": (_config(FAMILIES, _solve), 40),
    "dpp": (_config(FAMILIES, _dpp), 40),
    "control": (_config(FAMILIES, _control), 40),
    "mc": (_config(_SAMPLED, _mc), 40),
    "properties": (_config(FAMILIES, properties), 30),
}


@pytest.mark.parametrize("sub", sorted(CASES))
def test_cli_exits_cleanly_and_reproducibly(tmp_path_factory, sub):
    configs, examples = CASES[sub]

    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=configs)
    def check(cfg):
        root = tmp_path_factory.mktemp(sub)
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        codes = [cli.run(sub, str(path), str(root / name)) for name in ("a", "b")]
        assert codes[0] in (0, 1, 2, 3)
        assert codes[1] == codes[0]
        assert outputs(root / "a") == outputs(root / "b")

    check()
