"""Field expressions: a closed language over the lattice coordinates."""

import numpy as np
import pytest

from randbc.errors import ConfigError
from randbc.expressions import evaluate_field_expression
from randbc.grid import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(33)


# Expressions used in the README, the module docstring and the benchmark,
# against the same formula written directly in numpy.
@pytest.mark.parametrize("expr, direct", [
    ("1+0.5*exp(-20*((x-0.4)**2+(y-0.6)**2))",
     lambda X, Y: 1 + 0.5 * np.exp(-20 * ((X - 0.4) ** 2 + (Y - 0.6) ** 2))),
    ("1 + 0.5*exp(-50*((x1-0.5)**2 + (x2-0.5)**2))",
     lambda X, Y: 1 + 0.5 * np.exp(-50 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))),
    ("exp(x)", lambda X, Y: np.exp(X)),
    ("exp(x1)", lambda X, Y: np.exp(X)),
    ("x*x - y*y", lambda X, Y: X * X - Y * Y),
    ("-5", lambda X, Y: np.full(X.shape, -5.0)),
    ("where(x < 0.5, sin(pi*y), -e)",
     lambda X, Y: np.where(X < 0.5, np.sin(np.pi * Y), -np.e)),
])
def test_documented_expressions_evaluate_bit_identically(expr, direct, grid):
    got = evaluate_field_expression(expr, grid.X, grid.Y)
    assert got.tobytes() == np.asarray(direct(grid.X, grid.Y), dtype=float).tobytes()


@pytest.mark.parametrize("expr, node", [
    ("().__class__.__base__.__subclasses__()", "Call"),
    ("'abc'", "Constant"),
    ("True", "Constant"),
    ("exp(x, out=x)", "keyword"),
    ("pi(x)", "Call"),
    ("open", "Name"),
    ("x if x else y", "IfExp"),
    ("[x, y]", "List"),
])
def test_anything_outside_the_language_is_a_config_error_naming_the_node(expr, node,
                                                                         grid):
    with pytest.raises(ConfigError, match=node):
        evaluate_field_expression(expr, grid.X, grid.Y)
