"""Tiny closed-form expression vocabulary for fixture and CLI specs.

Supports numbers, named variables, + - * / ^ (power, with an exponent
free of names), unary minus and the calls sqrt/sin/cos/exp/smooth_step
(the C^inf step of ``jets.smooth_step``: 0 for t <= 0, 1 for t >= 1).
Expressions are validated once, when parsed, and evaluate over floats,
numpy arrays and jets alike, so parsed fields are fully differentiable.
"""

from __future__ import annotations

import ast
import operator

from .errors import ConfigError
from .jets import jcos, jexp, jsin, jsqrt, smooth_step

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}

_CALLS = {"sqrt": jsqrt, "sin": jsin, "cos": jcos, "exp": jexp, "smooth_step": smooth_step}


def _parse(src, names):
    """The validated tree of one expression over the variables `names`."""
    try:
        tree = ast.parse(src.replace("^", "**"), mode="eval")
    except (SyntaxError, AttributeError) as exc:
        raise ConfigError(f"bad expression {src!r}: {exc}") from exc

    def check(node):
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

    check(tree.body)
    return tree.body


def parse_exprs(srcs, variables):
    """Compile expression strings to one callable over the named variables
    that returns the list of their values, evaluating a repeated
    subexpression once per call; its ``names`` are the variables used."""
    names = tuple(variables)
    roots = [_parse(src, names) for src in srcs]
    # a compound node met again is kept for the call, not the nodes inside
    # it: holding every temporary made a 200k-point jet pass of
    # rotated_blend's member frame about 25% slower (one thread)
    seen = {}

    def visit(node):
        compound = isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call))
        ids = seen.setdefault(ast.dump(node), []) if compound else []
        ids.append(id(node))
        for child in ast.iter_child_nodes(node) if len(ids) == 1 else ():
            visit(child)

    for root in roots:
        visit(root)
    keys = {i: key for key, ids in seen.items() if len(ids) > 1 for i in ids}

    def ev(node, env):
        """Evaluate an accepted tree; env holds variables and repeated nodes."""
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        key = keys.get(id(node))
        if key in env:
            return env[key]
        if isinstance(node, ast.BinOp):
            val = _BINOPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        elif isinstance(node, ast.UnaryOp):
            operand = ev(node.operand, env)
            val = -1.0 * operand if isinstance(node.op, ast.USub) else operand
        else:
            val = _CALLS[node.func.id](ev(node.args[0], env))
        if key is not None:
            env[key] = val
        return val

    def compiled(*values):
        env = dict(zip(names, values, strict=True))
        return [ev(root, env) for root in roots]

    compiled.names = {n.id for root in roots for n in ast.walk(root) if isinstance(n, ast.Name)}
    return compiled
