"""Tiny closed-form expression vocabulary for CLI configs.

Supports numbers, named coordinates, + - * / ^ (power, with an exponent
free of names), unary minus and the calls sqrt/sin/cos/exp. Expressions
are validated once, when parsed, and evaluate over floats, numpy arrays
and jets alike, so parsed fields are fully differentiable.
"""

from __future__ import annotations

import ast
import operator

from .errors import ConfigError
from .jets import jcos, jexp, jsin, jsqrt

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: lambda a, b: a ** b,
}

_CALLS = {"sqrt": jsqrt, "sin": jsin, "cos": jcos, "exp": jexp}


def parse_expr(src, variables):
    """Compile an expression string to a callable over the named variables."""
    try:
        tree = ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {src!r}: {exc}") from exc
    names = tuple(variables)

    def check(node):
        if isinstance(node, ast.Expression):
            return check(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ConfigError(f"non-numeric constant in {src!r}")
            return
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"unknown name {node.id!r} in {src!r}")
            return
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            if isinstance(node.op, ast.Pow) and any(
                    isinstance(sub, ast.Name) and sub.id in names
                    for sub in ast.walk(node.right)):
                raise ConfigError(f"power exponent must be a constant in {src!r}")
            check(node.left)
            check(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _CALLS or len(node.args) != 1 or node.keywords:
                raise ConfigError(f"unsupported call in {src!r}")
            check(node.args[0])
            return
        raise ConfigError(f"unsupported syntax in {src!r}")

    check(tree)

    def ev(node, env):
        """Evaluate a tree that `check` accepted."""
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp):
            operand = ev(node.operand, env)
            return -1.0 * operand if isinstance(node.op, ast.USub) else operand
        return _CALLS[node.func.id](ev(node.args[0], env))

    def compiled(*values):
        if len(values) != len(names):
            raise ConfigError(f"expected {len(names)} values for {names}")
        return ev(tree, dict(zip(names, values)))

    return compiled
