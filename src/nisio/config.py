"""Run configuration: JSON schema, validation, and object builders."""

from __future__ import annotations

import ast
import hashlib
import json
import math

import jsonschema
import numpy as np

from .errors import ConfigurationError
from .grids import WeightedGrid
from .operators import (ChainOperator, FamilyBounds, GBMOperator, HeatOperator,
                        KoopmanOperator, OUOperator, ScaledOperator,
                        SemigroupFamily, StableOperator)
from .probes import probe_function

_NUM = {"type": "number"}
_KAPPA = {
    "type": "object", "additionalProperties": False,
    "properties": {"kind": {"enum": ["constant", "inverse_power"]}, "p": _NUM},
    "required": ["kind"],
}
_GRID = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["uniform", "periodic", "log", "labels"]},
        "domain": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "dx": _NUM,
        "n": {"type": "integer", "minimum": 1},
        "x_min_mag": _NUM,
        "kappa": _KAPPA,
        "boundary": {"enum": ["renormalize", "reflect"]},
    },
    "required": ["kind"],
}
_BASE_FAMILY_PROPS = {
    "kind": {"enum": ["heat", "gbm", "ou", "koopman", "stable", "chain", "scaled"]},
    "sigmas": {"type": "array", "items": _NUM, "minItems": 1},
    "range": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    "count": {"type": "integer", "minimum": 1},
    "members": {"type": "array", "minItems": 1},
    "fields": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    "lipschitz_hint": _NUM,
    "alphas": {"type": "array", "items": _NUM, "minItems": 1},
    "rate_matrices": {"type": "array", "minItems": 1},
    "scales": {"type": "array", "items": _NUM, "minItems": 1},
    "alpha": _NUM,
    "beta": _NUM,
}
_FAMILY = {
    "type": "object", "additionalProperties": False,
    "properties": dict(_BASE_FAMILY_PROPS, base={
        "type": "object", "additionalProperties": False,
        "properties": _BASE_FAMILY_PROPS, "required": ["kind"],
    }),
    "required": ["kind"],
}
_U0 = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "name": {"enum": ["const", "linear", "quadratic", "neg-quadratic",
                          "sin", "cos", "bump", "call-payoff", "csv"]},
        "value": _NUM, "frequency": _NUM, "center": _NUM, "width": _NUM,
        "strike": _NUM, "path": {"type": "string"},
    },
    "required": ["name"],
}
CONFIG_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "grid": _GRID,
        "family": _FAMILY,
        "u0": _U0,
        "solve": {
            "type": "object", "additionalProperties": False,
            "properties": {"t": _NUM, "tol": _NUM,
                           "max_level": {"type": "integer", "minimum": 1}},
            "required": ["t"],
        },
        "dpp": {
            "type": "object", "additionalProperties": False,
            "properties": {"s": _NUM, "t": _NUM,
                           "level": {"type": "integer", "minimum": 1},
                           "threshold": _NUM},
            "required": ["s", "t"],
        },
        "control": {
            "type": "object", "additionalProperties": False,
            "properties": {"t": _NUM, "m": {"type": "integer", "minimum": 1},
                           "trials": {"type": "integer", "minimum": 0},
                           "level": {"type": "integer", "minimum": 1}},
            "required": ["t", "m"],
        },
        "mc": {
            "type": "object", "additionalProperties": False,
            "properties": {"t": _NUM, "m": {"type": "integer", "minimum": 1},
                           "n_paths": {"type": "integer", "minimum": 100},
                           "seed": {"type": "integer"}, "x0": _NUM},
            "required": ["t", "n_paths", "x0"],
        },
        "properties": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "probes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "t_list": {"type": "array", "items": _NUM, "minItems": 1},
                "seed": {"type": "integer"},
                "partition_pairs": {"type": "integer", "minimum": 1},
            },
        },
        "report_window": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    },
    "required": ["grid", "family"],
}

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


def validate_config(cfg):
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigurationError(f"config rejected: {exc.message}") from exc
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
    if kind in ("uniform", "periodic"):
        if "domain" not in g or "dx" not in g:
            raise ConfigurationError(f"{kind} grid needs domain and dx")
        lo, hi = g["domain"]
        return WeightedGrid.uniform(lo, hi, g["dx"], kappa=kappa, boundary=boundary,
                                    periodic=(kind == "periodic"))
    if kind == "log":
        if "domain" not in g or "n" not in g:
            raise ConfigurationError("log grid needs domain (x_max via domain[1]) and n")
        return WeightedGrid.loggrid(g["domain"][1], g.get("x_min_mag", 1e-2), g["n"],
                                    kappa=kappa, boundary=boundary)
    if kind == "labels":
        if "n" not in g:
            raise ConfigurationError("label grid needs n")
        return WeightedGrid.labels(g["n"], kappa=kappa)
    raise ConfigurationError(f"unknown grid kind {kind}")


def _heat_sigmas(f):
    if "sigmas" in f:
        return [float(s) for s in f["sigmas"]]
    if "range" in f:
        lo, hi = f["range"]
        return np.linspace(lo, hi, f.get("count", 2)).tolist()
    raise ConfigurationError("heat family needs sigmas or range")


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
        members = [OUOperator(grid, m["B"], m["m"], m["C"]) for m in f["members"]]
        default = FamilyBounds(0.0, max(_ou_beta(m) for m in f["members"]))
    elif kind == "koopman":
        hint = float(f.get("lipschitz_hint", 1.0))
        members = [KoopmanOperator(grid, parse_field(e), hint) for e in f["fields"]]
        default = FamilyBounds(0.0, hint)
    elif kind == "stable":
        members = [StableOperator(grid, a) for a in f["alphas"]]
        default = FamilyBounds(0.0, 0.0)
    elif kind == "chain":
        members = [ChainOperator(grid, np.asarray(Q, dtype=float))
                   for Q in f["rate_matrices"]]
        default = FamilyBounds(0.0, 2.0 * max(m.rate for m in members))
    elif kind == "scaled":
        base_members = build_family({"family": f["base"]}, grid).members
        if len(base_members) != 1:
            raise ConfigurationError("scaled family needs a singleton base")
        members = [ScaledOperator(base_members[0], s) for s in f["scales"]]
        default = FamilyBounds(0.0, 0.0)
    else:
        raise ConfigurationError(f"unknown family kind {kind}")
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


def _ou_beta(m):
    B = np.atleast_2d(np.asarray(m["B"], dtype=float))
    return float(np.linalg.norm(B, 2) + np.linalg.norm(np.atleast_1d(m["m"]))
                 + np.trace(np.atleast_2d(np.asarray(m["C"], dtype=float))))


def build_u0(cfg, grid):
    u = cfg.get("u0", {"name": "quadratic"})
    if u["name"] == "csv":
        vals = np.loadtxt(u["path"], delimiter=",", skiprows=1, usecols=1)
        from .grids import GridFunction
        return GridFunction(np.asarray(vals, dtype=float), grid)
    params = {k: v for k, v in u.items() if k != "name"}
    return probe_function(u["name"], grid, **params)


def build_window(cfg, grid):
    win = cfg.get("report_window")
    if win is None:
        return None
    return grid.window_mask(win[0], win[1])
