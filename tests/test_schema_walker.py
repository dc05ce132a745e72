"""``validate_config`` walks CONFIG_SCHEMA itself; jsonschema is its oracle.

On every config below the walker and ``Draft202012Validator`` give the same
verdict, and the error the walker reports is the one ``best_match`` picks,
with its JSON path and its message.
"""
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from config_strategies import FAMILIES, grid_and_family, num, properties
from conftest import same_bits_kinds
from nisio import ConfigurationError
from nisio.config import CONFIG_SCHEMA, validate_config
from nisio.probes import PROBE_NAMES
from test_config_cli import REJECTED, SMALL_CFG

ROOT = Path(__file__).resolve().parent.parent
VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)
# the keywords validate_config's walker knows; "if" and "then" appear only in
# the branches of an "allOf"
HANDLED = {"type", "enum", "const", "required", "properties", "additionalProperties",
           "items", "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
           "allOf"}
TYPES = {"object", "array", "string", "number", "integer"}


def _schemas(schema):
    """Every subschema of ``schema``, itself first."""
    yield schema
    for key, rule in schema.items():
        if key == "properties":
            for sub in rule.values():
                yield from _schemas(sub)
        elif key == "items":
            yield from _schemas(rule)
        elif key == "allOf":
            for branch in rule:
                assert set(branch) == {"if", "then"}
                yield from _schemas(branch["if"])
                yield from _schemas(branch["then"])


def test_schema_uses_only_keywords_the_walker_handles():
    seen = set()
    for schema in _schemas(CONFIG_SCHEMA):
        assert isinstance(schema, dict)
        assert set(schema) <= HANDLED, set(schema) - HANDLED
        seen |= set(schema)
        assert schema.get("type", "object") in TYPES
        assert schema.get("additionalProperties", False) is False
        # the walker compares by ==, which is JSON equality for strings
        assert all(isinstance(v, str) for v in schema.get("enum", []))
        assert isinstance(schema.get("const", ""), str)
        # and writes a key into a JSON path as .key, as jsonschema writes a name
        assert all(re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", name)
                   for name in schema.get("properties", {}))
    assert seen == HANDLED


def assert_same_as_jsonschema(cfg):
    best = best_match(VALIDATOR.iter_errors(cfg))
    try:
        validate_config(cfg)
        found = None
    except ConfigurationError as exc:
        found = str(exc)
    assert found == (best and f"config rejected at {best.json_path}: {best.message}"), cfg


def _nodes(doc, path=()):
    """(path, node) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, item in doc.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _nodes(item, path + (i,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


# values put in place of a node: each JSON type, the bounds' edges, an
# integral float, a seed past the Philox key range and bad OU coefficients
SUBSTITUTES = ("hex", -1, 0, 2.5, 3.0, True, None, [], {}, ["x"], [1, "a"], [[1, "a"]],
               2 ** 128)


def edits(doc):
    """(path, node) of every single mutation of ``doc``: each node replaced by
    each of SUBSTITUTES; each key of an object dropped, and two keys no
    schema names added; each array shortened by one item and lengthened by one."""
    for path, node in _nodes(doc):
        for value in SUBSTITUTES:
            yield path, value
        if isinstance(node, dict):
            for key in node:
                yield path, {k: v for k, v in node.items() if k != key}
            yield path, dict(node, surprise=1, extra=2)
        elif isinstance(node, list) and node:
            yield path, node[:-1]
            yield path, node + node[-1:]


BASES = {str(path.relative_to(ROOT)): json.loads(path.read_text())
         for path in sorted((ROOT / "bench" / "configs").glob("**/*.json"))}
BASES.update((f"same_bits {kind}", cfg) for kind, cfg in same_bits_kinds().items())


@pytest.mark.parametrize("name", sorted(BASES))
def test_walker_agrees_on_every_single_mutation(name):
    assert_same_as_jsonschema(BASES[name])
    for path, node in edits(BASES[name]):
        assert_same_as_jsonschema(_replaced(BASES[name], path, node))


@pytest.mark.parametrize("name", sorted(BASES))
def test_walker_agrees_on_double_mutations(name):
    rng = random.Random(name)
    singles = list(edits(BASES[name]))
    for _ in range(100):
        cfg = _replaced(BASES[name], *rng.choice(singles))
        assert_same_as_jsonschema(_replaced(cfg, *rng.choice(list(edits(cfg)))))


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_walker_agrees_on_rejected_configs(case):
    assert_same_as_jsonschema(dict(SMALL_CFG, **REJECTED[case][0]))


# OU coefficients that are not numbers, the 1 x 1 form of a valid one among
# them; best_match reports each at the coefficient itself.  The test keeps the
# name it had while a coefficient took a number, a vector or rows (an anyOf).
ANYOF = [[[1, "a"]], [1, "a"], "x", [[-0.5]]]


@pytest.mark.parametrize("coefficient", ANYOF, ids=["rows", "vector", "str", "one-by-one"])
def test_walker_descends_into_an_anyof_as_best_match_does(coefficient):
    cfg = dict(SMALL_CFG, family={"kind": "ou", "members": [
        {"B": coefficient, "m": 0, "C": 1}]})
    with pytest.raises(ConfigurationError) as exc:
        validate_config(cfg)
    assert str(exc.value) == (f"config rejected at $.family.members[0].B: "
                              f"{coefficient!r} is not of type 'number'")
    assert_same_as_jsonschema(cfg)


@st.composite
def drawn_configs(draw):
    """A config drawn as the CLI robustness tests draw theirs, with a
    ``solve`` section, and sometimes one of its single mutations."""
    grid, family = draw(grid_and_family(FAMILIES))
    cfg = dict(grid=grid, family=family, u0={"name": draw(st.sampled_from(PROBE_NAMES))},
               solve={"t": draw(num(0.0, 2.0)), "max_level": draw(st.integers(1, 4))},
               **draw(properties(grid)))
    if draw(st.booleans()):
        cfg = _replaced(cfg, *draw(st.sampled_from(list(edits(cfg)))))
    return cfg


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_configs())
def test_walker_agrees_on_drawn_configs(cfg):
    assert_same_as_jsonschema(cfg)
