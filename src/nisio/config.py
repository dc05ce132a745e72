"""Run configuration: a JSON schema kept as data, the walker that checks a
config against it (jsonschema is its oracle in tests), and object builders."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator

import numpy as np

from .errors import ConfigurationError, GridKindError
from .grids import BOUNDARIES, GridFunction, WeightedGrid
from .montecarlo import SEED_MAX
from .operators import (ChainOperator, FamilyBounds, GBMOperator, HeatOperator,
                        KoopmanOperator, OUOperator, ScaledOperator,
                        SemigroupFamily, StableOperator)
from .probes import PROBES, probe_function

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_VECTOR = {"type": "array", "items": _NUM}
_ROWS = {"type": "array", "items": _VECTOR}
_PAIR = dict(_VECTOR, minItems=2, maxItems=2)
_SEED = {"type": "integer", "minimum": 0, "maximum": SEED_MAX}


def _list(item):
    return {"type": "array", "items": item, "minItems": 1}


def _singleton(rules):
    """A member kind's ``rules`` with the one list they require held to one entry."""
    (key,), props = rules["required"], rules["properties"]
    return dict(rules, properties=dict(props, **{key: dict(props[key], maxItems=1)}))


def _closed(*required, **properties):
    """Object schema: the keys it requires, and no key outside ``properties``."""
    return {"type": "object", "additionalProperties": False,
            "required": list(required), "properties": properties}


def _tagged(tag, kinds, **shared):
    """Object schema whose ``tag`` picks a kind from ``kinds``; each kind is an
    if/then branch that accepts only its own keys plus ``shared``."""
    return {
        "type": "object", "required": [tag],
        "properties": {tag: {"enum": list(kinds)}},
        "allOf": [{"if": {"properties": {tag: {"const": name}}, "required": [tag]},
                   "then": dict(rules, properties={**rules["properties"], **shared,
                                                   tag: {}})}
                  for name, rules in kinds.items()],
    }


def _boundary(kind):
    """The ``boundary`` key of a grid kind that takes a choice of rules."""
    return {"enum": list(BOUNDARIES[kind])}


_GRID = _tagged("kind", {
    "uniform": _closed("domain", "dx", domain=_PAIR, dx=_POS, boundary=_boundary("uniform")),
    "periodic": _closed("domain", "dx", domain=_PAIR, dx=_POS),
    "log": _closed("x_max", "n", x_max=_POS, n=dict(_POS_INT, minimum=2), x_min_mag=_POS,
                   boundary=_boundary("log")),
    "labels": _closed("n", n=dict(_POS_INT, minimum=2)),
}, kappa=_tagged("kind", {"constant": _closed(), "inverse_power": _closed(p=_NUM)}))
_MEMBER_KINDS = {
    "heat": _closed("sigmas", sigmas=_list(_NUM)),
    "gbm": _closed("members", members=_list(_PAIR)),
    "ou": _closed("members", members=_list(
        _closed("B", "m", "C", B=_NUM, m=_NUM, C=_NUM))),
    "koopman": _closed("fields", fields=_list({"type": "string"}), lipschitz_hint=_NUM),
    "stable": _closed("alphas", alphas=_list(_NUM)),
    "chain": _closed("rate_matrices", rate_matrices=_list(_ROWS)),
}
CONFIG_SCHEMA = _closed(
    "grid", "family",
    grid=_GRID,
    family=_tagged("kind", dict(_MEMBER_KINDS, scaled=_closed(
        "base", "scales", base=_tagged(
            "kind", {name: _singleton(rules) for name, rules in _MEMBER_KINDS.items()}),
        scales=_list(_NUM))),
        alpha=_NUM, beta=_NUM),
    u0=_tagged("name", {
        **{name: _closed(**dict.fromkeys(defaults, _NUM))
           for name, (defaults, _) in PROBES.items()},
        "csv": _closed("path", path={"type": "string"}),
    }),
    solve=_closed("t", t=_NONNEG, tol=_POS, max_level=_POS_INT),
    dpp=_closed("s", "t", s=_NONNEG, t=_NONNEG, level=_POS_INT, threshold=_NUM),
    control=_closed("t", "m", t=_POS, m=_POS_INT,
                    trials={"type": "integer", "minimum": 0}, level=_POS_INT),
    mc=_closed("t", "n_paths", "x0", t=_POS, m=_POS_INT,
               n_paths={"type": "integer", "minimum": 100},
               seed=_SEED, x0=_NUM),
    properties=_closed(probes=_list({"type": "string"}), t_list=_list(_NONNEG),
                       seed=_SEED, partition_pairs=_POS_INT),
    report_window=_PAIR,
)

_FIELD_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
                "abs": np.abs, "sqrt": np.sqrt, "pi": np.pi}
_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                  ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def parse_field(expr):
    """Compile a vector-field expression over the variable x.

    The expression language is arithmetic plus {sin, cos, exp, tanh, abs,
    sqrt, pi}; anything else is rejected.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad field expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigurationError(
                f"field expression {expr!r}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Name) and node.id != "x" and node.id not in _FIELD_FUNCS:
            raise ConfigurationError(f"field expression {expr!r}: unknown name {node.id}")
        if isinstance(node, ast.Call) and (
                not isinstance(node.func, ast.Name) or node.func.id not in _FIELD_FUNCS):
            raise ConfigurationError(f"field expression {expr!r}: call not allowed")
    code = compile(tree, "<field>", "eval")

    def field(x):
        return np.broadcast_to(
            np.asarray(eval(code, {"__builtins__": {}},
                            dict(_FIELD_FUNCS, x=x)), dtype=float), np.shape(x)).copy()

    return field


_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "maximum": (operator.gt, "greater than the maximum"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum")}


def _is(value, kind):
    """Draft 2020-12 ``type``: a bool is not a number, and integer admits 3.0."""
    if kind in ("number", "integer"):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (kind == "number" or value % 1 == 0))
    return isinstance(value, {"object": dict, "array": list, "string": str}[kind])


def _rank(error):
    """jsonschema's relevance: the shallowest path, then the last of siblings."""
    return -len(error[0]), error[0]


def _errors(value, schema, path=()):
    """(path, message) of each error of ``value`` under ``schema`` in its key
    order and jsonschema's wording; ``allOf`` holds ``_tagged``'s if/then
    branches."""
    for key, rule in schema.items():
        if key == "type" and not _is(value, rule):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and value not in rule:
            yield path, f"{value!r} is not one of {rule!r}"
        elif key == "const" and value != rule:
            yield path, f"{rule!r} was expected"
        elif key == "required" and isinstance(value, dict):
            yield from ((path, f"{name!r} is a required property")
                        for name in rule if name not in value)
        elif key == "additionalProperties" and isinstance(value, dict):
            extra = sorted(set(value) - set(schema["properties"]), key=str)
            if extra:
                yield path, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")
        elif key == "properties" and isinstance(value, dict):
            for name, sub in rule.items():
                if name in value:
                    yield from _errors(value[name], sub, path + (name,))
        elif key == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _errors(item, rule, path + (i,))
        elif key == "minItems" and isinstance(value, list) and len(value) < rule:
            yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(value, list) and len(value) > rule:
            yield path, f"{value!r} is too long"
        elif key in _BOUNDS and _is(value, "number") and _BOUNDS[key][0](value, rule):
            yield path, f"{value!r} is {_BOUNDS[key][1]} of {rule!r}"
        elif key == "allOf":
            for branch in rule:
                if not any(_errors(value, branch["if"])):
                    yield from _errors(value, branch["then"], path)


def _numbers_at(node, path="$"):
    """(path, value) of every number in a parsed JSON document, the path in
    the form ``validate_config`` reports a schema error at."""
    if _is(node, "number"):
        yield path, node
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _numbers_at(item, f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _numbers_at(item, f"{path}[{i}]")


def validate_config(cfg):
    """Check ``cfg`` against CONFIG_SCHEMA, which admits only keys the builders
    read and holds each rule on one key, then reject any number not finite:
    ``json`` reads NaN, Infinity and 1e999, and integers past the largest
    float, and the schema's ``number`` admits them all."""
    error = max(_errors(cfg, CONFIG_SCHEMA), key=_rank, default=None)
    if error is not None:
        path, message = error
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise ConfigurationError(f"config rejected at ${where}: {message}")
    for path, value in _numbers_at(cfg):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigurationError(f"config rejected at {path}: an integer of "
                                     f"{len(str(abs(value)))} digits is too large "
                                     f"for a float") from None
        if not finite:
            raise ConfigurationError(f"config rejected at {path}: {value!r} is not finite")
    return cfg


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _kappa_exponent(spec):
    """p of an inverse-power kappa = (1 + |x|)^-p, or None for a constant one."""
    return None if spec is None or spec["kind"] == "constant" else float(spec.get("p", 2.0))


def build_grid(cfg):
    g = cfg["grid"]
    kind = g["kind"]
    p = _kappa_exponent(g.get("kappa"))
    kappa = None if p is None else (lambda x: (1.0 + np.abs(x)) ** (-p))
    if kind == "labels":
        return WeightedGrid.labels(g["n"], kappa=kappa)
    if kind == "log":
        x_min_mag = g.get("x_min_mag", 1e-2)
        if not x_min_mag < g["x_max"]:
            raise ConfigurationError(
                f"grid.x_min_mag {x_min_mag} is not below grid.x_max {g['x_max']}")
        return WeightedGrid.loggrid(g["x_max"], x_min_mag, g["n"],
                                    kappa=kappa, boundary=g.get("boundary"))
    lo, hi = g["domain"]
    return WeightedGrid.uniform(lo, hi, g["dx"], kappa=kappa, boundary=g.get("boundary"),
                                periodic=(kind == "periodic"))


def _floats(value, what):
    """``value`` as a float array; ragged nesting is a config error."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def build_family(cfg, grid):
    f = cfg["family"]
    members, default = _members(cfg, f, "family", grid)
    alpha = float(f.get("alpha", default.alpha))
    beta = float(f.get("beta", default.beta))
    return SemigroupFamily(members, FamilyBounds(alpha, beta))


def _each(key, make, entries, grid):
    """``[make(e) for e in entries]``; a member's own check that rejects entry
    i names ``key`` (formatted with ``i``), and on a grid it cannot live on
    also ``grid.kind``."""
    out = []
    for i, entry in enumerate(entries):
        try:
            out.append(make(entry))
        except ConfigurationError as exc:
            where = key.format(i=i)
            if isinstance(exc, GridKindError):
                where += f" on grid.kind {grid.kind!r}"
            raise ConfigurationError(f"{where}: {exc}") from None
    return out


def _members(cfg, f, key, grid):
    """Members of family section ``f``, found at ``key``, and the default
    bounds of its kind."""
    kind = f["kind"]
    if kind == "heat":
        members = _each(key + ".sigmas[{i}]", lambda s: HeatOperator(grid, s),
                        f["sigmas"], grid)
        default = FamilyBounds(0.0, 0.0)
    elif kind == "gbm":
        members = _each(key + ".members[{i}]", lambda ms: GBMOperator(grid, *ms),
                        f["members"], grid)
        beta = max(abs(mu) + 0.5 * sigma ** 2 for mu, sigma in f["members"])
        # kappa = (1 + |x|)^-p turns GBM's growth beta into the weight's p beta
        p = _kappa_exponent(cfg["grid"].get("kappa")) or 0.0
        default = FamilyBounds(p * beta, beta)
    elif kind == "ou":
        members = _each(key + ".members[{i}]", lambda m: OUOperator(
            grid, m["B"], m["m"], m["C"]), f["members"], grid)
        default = FamilyBounds(0.0, max(_ou_beta(m) for m in members))
    elif kind == "koopman":
        # the flowed values are read off by interpolation: no boundary rule
        boundary = cfg.get("grid", {}).get("boundary")
        if boundary is not None:
            raise ConfigurationError(
                f"a koopman family reads no grid boundary: grid.boundary {boundary!r}")
        hint = float(f.get("lipschitz_hint", 1.0))
        members = _each(key + ".fields[{i}]", lambda e: KoopmanOperator(
            grid, parse_field(e), hint), f["fields"], grid)
        default = FamilyBounds(0.0, hint)
    elif kind == "stable":
        members = _each(key + ".alphas[{i}]", lambda a: StableOperator(grid, a),
                        f["alphas"], grid)
        default = FamilyBounds(0.0, 0.0)
    elif kind == "chain":
        members = _each(key + ".rate_matrices[{i}]",
                        lambda Q: ChainOperator(grid, _floats(Q, "rate matrix")),
                        f["rate_matrices"], grid)
        default = FamilyBounds(0.0, 2.0 * max(m.rate for m in members))
    else:  # scaled
        base, base_bounds = _members(cfg, f["base"], key + ".base", grid)
        members = _each(key + ".scales[{i}]", lambda s: ScaledOperator(base[0], s),
                        f["scales"], grid)
        # S_s(t) = S(s t), so the base's growth rates scale with the largest s
        top = max(f["scales"])
        default = FamilyBounds(top * base_bounds.alpha, top * base_bounds.beta)
    return members, default


def _ou_beta(member):
    return abs(member.B) + abs(member.m) + member.C


def build_u0(cfg, grid):
    u = cfg.get("u0", {"name": "quadratic"})
    if u["name"] == "csv":
        try:
            vals = np.loadtxt(u["path"], delimiter=",", skiprows=1, usecols=1)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"u0 path {u['path']!r}: {exc}") from exc
        return GridFunction(vals, grid)
    params = {k: v for k, v in u.items() if k != "name"}
    return probe_function(u["name"], grid, **params)


def build_window(cfg, grid):
    win = cfg.get("report_window")
    if win is None:
        return None
    mask = grid.window_mask(win[0], win[1])
    if not mask.any():
        raise ConfigurationError(f"report_window {win} selects no grid point")
    return mask
