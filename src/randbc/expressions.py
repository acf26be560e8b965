"""Tiny expression evaluator for coefficient and boundary fields.

Config values like coeff.a = "1 + 0.5*exp(-50*((x1-0.5)**2 + (x2-0.5)**2))"
are evaluated over lattice coordinates in a closed language: numbers, the
coordinates (x, y, aliases x1, x2), the constants pi and e, arithmetic and
comparison operators, and positional calls of the numpy math functions below.
The syntax tree is checked before evaluation; anything else is a ConfigError.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {
    name: getattr(np, name)
    for name in ("sin", "cos", "tan", "arctan", "arctan2", "sinh", "cosh",
                 "tanh", "exp", "log", "log10", "sqrt", "abs", "hypot",
                 "minimum", "maximum", "where")
}
_FUNCTIONS["pi"] = np.pi
_FUNCTIONS["e"] = np.e


_OPERATORS = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.operator,
              ast.unaryop, ast.cmpop, ast.Load)


def _allowed(node, names) -> bool:
    if isinstance(node, _OPERATORS):
        return True
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in names
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_FUNCTIONS.get(node.func.id)))


def evaluate_field_expression(expr: str, X, Y) -> np.ndarray:
    """Evaluate expr on coordinate arrays; always returns an array of X's shape,
    read-only if expr is a constant."""
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError(f"expected a coordinate expression, got {expr!r}")
    names = dict(_FUNCTIONS)
    names.update({"x": X, "y": Y, "x1": X, "x2": Y})
    try:
        tree = ast.parse(expr, "<config>", "eval")
        for node in ast.walk(tree):
            if not _allowed(node, names):
                raise ConfigError(
                    f"expression {expr!r} may not contain the {type(node).__name__} "
                    f"{ast.unparse(node)!r}")
        # Floating-point faults stay silent: every caller checks that the
        # field it reads is finite, and a guarded where() evaluates both arms.
        with np.errstate(all="ignore"):
            value = eval(compile(tree, "<config>", "eval"),  # noqa: S307 - checked tree
                         {"__builtins__": {}}, names)
            out = np.asarray(value, dtype=float)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if out.ndim == 0:     # a constant: a read-only view of one value
        out = np.broadcast_to(out, np.shape(X))
    if out.shape != np.shape(X):
        raise ConfigError(
            f"expression {expr!r} produced shape {out.shape}, expected {np.shape(X)}")
    return out
