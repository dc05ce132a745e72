"""Run configuration: JSON schema, validation, and object builders."""

from __future__ import annotations

import ast
import hashlib
import json
import math

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigurationError
from .grids import GridFunction, WeightedGrid
from .operators import (ChainOperator, FamilyBounds, GBMOperator, HeatOperator,
                        KoopmanOperator, OUOperator, ScaledOperator,
                        SemigroupFamily, StableOperator)
from .probes import probe_function

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_VECTOR = {"type": "array", "items": _NUM}
_ROWS = {"type": "array", "items": _VECTOR}
_PAIR = dict(_VECTOR, minItems=2, maxItems=2)


def _list(item):
    return {"type": "array", "items": item, "minItems": 1}


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
                                                   tag: True})}
                  for name, rules in kinds.items()],
    }


_BOUNDARY = {"enum": ["renormalize", "reflect"]}
_GRID = _tagged("kind", {
    "uniform": _closed("domain", "dx", domain=_PAIR, dx=_NUM, boundary=_BOUNDARY),
    "periodic": _closed("domain", "dx", domain=_PAIR, dx=_NUM),
    "log": _closed("x_max", "n", x_max=_POS, n=_POS_INT, x_min_mag=_NUM,
                   boundary=_BOUNDARY),
    "labels": _closed("n", n=_POS_INT),
}, kappa=_tagged("kind", {"constant": _closed(), "inverse_power": _closed(p=_NUM)}))
# an OU coefficient is a scalar (d = 1), a vector or a matrix
_COEFF = {"anyOf": [_NUM, _VECTOR, _ROWS]}
_MEMBER_KINDS = {
    # heat: sigmas, or else range with an optional count
    "heat": {**_closed(sigmas=_list(_NUM), range=_PAIR, count=_POS_INT),
             "if": {"required": ["range"]}, "then": {"not": {"required": ["sigmas"]}},
             "else": {"required": ["sigmas"]}, "dependentRequired": {"count": ["range"]}},
    "gbm": _closed("members", members=_list(_PAIR)),
    "ou": _closed("members", members=_list(
        _closed("B", "m", "C", B=_COEFF, m=_COEFF, C=_COEFF))),
    "koopman": _closed("fields", fields=_list({"type": "string"}), lipschitz_hint=_NUM),
    "stable": _closed("alphas", alphas=_list(_NUM)),
    "chain": _closed("rate_matrices", rate_matrices=_list(_ROWS)),
}
CONFIG_SCHEMA = _closed(
    "grid", "family",
    grid=_GRID,
    family=_tagged("kind", dict(_MEMBER_KINDS, scaled=_closed(
        "base", "scales", base=_tagged("kind", _MEMBER_KINDS), scales=_list(_NUM))),
        alpha=_NUM, beta=_NUM),
    u0=_tagged("name", {
        "const": _closed(value=_NUM), "linear": _closed(), "quadratic": _closed(),
        "neg-quadratic": _closed(), "sin": _closed(frequency=_NUM),
        "cos": _closed(frequency=_NUM), "bump": _closed(center=_NUM, width=_NUM),
        "call-payoff": _closed(strike=_NUM),
        "csv": _closed("path", path={"type": "string"}),
    }),
    solve=_closed("t", t=_NUM, tol=_NUM, max_level=_POS_INT),
    dpp=_closed("s", "t", s=_NUM, t=_NUM, level=_POS_INT, threshold=_NUM),
    control=_closed("t", "m", t=_NUM, m=_POS_INT,
                    trials={"type": "integer", "minimum": 0}, level=_POS_INT),
    mc=_closed("t", "n_paths", "x0", t=_NUM, m=_POS_INT,
               n_paths={"type": "integer", "minimum": 100},
               seed={"type": "integer"}, x0=_NUM),
    properties=_closed(probes=_list({"type": "string"}), t_list=_list(_NUM),
                       seed={"type": "integer"}, partition_pairs=_POS_INT),
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


_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def validate_config(cfg):
    """Check ``cfg`` against CONFIG_SCHEMA, which admits only keys the builders read."""
    error = best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigurationError(f"config rejected at {error.json_path}: {error.message}")
    return cfg


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _kappa_callable(spec):
    if spec is None or spec["kind"] == "constant":
        return None
    p = float(spec.get("p", 2.0))
    return lambda x: (1.0 + np.abs(x)) ** (-p)


def build_grid(cfg):
    g = cfg["grid"]
    kind = g["kind"]
    kappa = _kappa_callable(g.get("kappa"))
    boundary = g.get("boundary", "renormalize")
    if kind == "labels":
        return WeightedGrid.labels(g["n"], kappa=kappa)
    if kind == "log":
        return WeightedGrid.loggrid(g["x_max"], g.get("x_min_mag", 1e-2), g["n"],
                                    kappa=kappa, boundary=boundary)
    lo, hi = g["domain"]
    return WeightedGrid.uniform(lo, hi, g["dx"], kappa=kappa, boundary=boundary,
                                periodic=(kind == "periodic"))


def _heat_sigmas(f):
    if "sigmas" in f:
        return [float(s) for s in f["sigmas"]]
    lo, hi = f["range"]
    return np.linspace(lo, hi, f.get("count", 2)).tolist()


def _floats(value, what):
    """``value`` as a float array; ragged nesting is a config error."""
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def build_family(cfg, grid):
    f = cfg["family"]
    kind = f["kind"]
    if kind == "heat":
        members = [HeatOperator(grid, s) for s in _heat_sigmas(f)]
        default = FamilyBounds(0.0, 0.0)
    elif kind == "gbm":
        members = [GBMOperator(grid, mu, sigma) for mu, sigma in f["members"]]
        beta = max(abs(mu) + 0.5 * sigma ** 2 for mu, sigma in f["members"])
        p = _gbm_weight_exponent(grid)
        default = FamilyBounds(p * beta, beta)
    elif kind == "ou":
        members = [OUOperator(grid, *(_floats(m[k], f"ou member {k}") for k in "BmC"))
                   for m in f["members"]]
        default = FamilyBounds(0.0, max(_ou_beta(m) for m in members))
    elif kind == "koopman":
        hint = float(f.get("lipschitz_hint", 1.0))
        members = [KoopmanOperator(grid, parse_field(e), hint) for e in f["fields"]]
        default = FamilyBounds(0.0, hint)
    elif kind == "stable":
        members = [StableOperator(grid, a) for a in f["alphas"]]
        default = FamilyBounds(0.0, 0.0)
    elif kind == "chain":
        members = [ChainOperator(grid, _floats(Q, "rate_matrices"))
                   for Q in f["rate_matrices"]]
        default = FamilyBounds(0.0, 2.0 * max(m.rate for m in members))
    else:  # scaled
        base_members = build_family({"family": f["base"]}, grid).members
        if len(base_members) != 1:
            raise ConfigurationError("scaled family needs a singleton base")
        members = [ScaledOperator(base_members[0], s) for s in f["scales"]]
        default = FamilyBounds(0.0, 0.0)
    alpha = float(f.get("alpha", default.alpha))
    beta = float(f.get("beta", default.beta))
    return SemigroupFamily(members, FamilyBounds(alpha, beta))


def _gbm_weight_exponent(grid):
    # recover p from kappa = (1+|x|)^-p at the largest point; constant -> 0
    x = float(np.max(np.abs(grid.points)))
    k = float(grid.kappa[np.argmax(np.abs(grid.points))])
    if abs(k - 1.0) < 1e-12 or x == 0.0:
        return 0.0
    return -math.log(k) / math.log1p(x)


def _ou_beta(member):
    return float(np.linalg.norm(member.B, 2) + np.linalg.norm(member.m)
                 + np.trace(member.C))


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
    return grid.window_mask(win[0], win[1])
