"""Tiny closed-form expression vocabulary for fixture and CLI specs.

Supports numbers, named variables, + - * / ^ (power, with an exponent
free of names), unary minus and the calls sqrt/sin/cos/exp/smooth_step
(the C^inf step of ``jets.smooth_step``: 0 for t <= 0, 1 for t >= 1).
Expressions are validated once, when parsed, and evaluate over floats,
numpy arrays and jets alike, so parsed fields are fully differentiable.
One call evaluates each repeated subexpression, and a sin and cos of
one argument (``jets.jsincos``), once.
"""

from __future__ import annotations

import ast
import operator

from .errors import ConfigError
from .jets import jcos, jexp, jsin, jsincos, jsqrt, smooth_step

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}

_CALLS = {"sqrt": jsqrt, "sin": jsin, "cos": jcos, "exp": jexp, "smooth_step": smooth_step}


def _parse(src):
    """The tree of one expression, refused unless it is a string of Python syntax."""
    try:
        return ast.parse(src.replace("^", "**"), mode="eval").body
    except (SyntaxError, AttributeError) as exc:
        raise ConfigError(f"bad expression {src!r}: {exc}") from exc


def parse_exprs(srcs, variables):
    """Compile expression strings to one callable over the named variables
    that returns the list of their values, evaluating a repeated
    subexpression once per call; its ``names`` are the variables used.

    Each node becomes a closure when parsed, so a call runs no dispatch
    on node types.
    """
    names = tuple(variables)
    # structural key of a node: its operation and its operands' keys, each
    # numbered when first met, so a key hashes in constant time; a node
    # outside the vocabulary is refused before its operands are keyed
    numbers, key_of = {}, {}

    def key(node, src):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ConfigError(f"non-numeric constant in {src!r}")
            k = (ast.Constant, node.value)
        elif isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"unknown name {node.id!r} in {src!r}")
            k = (ast.Name, node.id)
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            if isinstance(node.op, ast.Pow) and any(
                    isinstance(sub, ast.Name) and sub.id in names
                    for sub in ast.walk(node.right)):
                raise ConfigError(f"power exponent must be a constant in {src!r}")
            k = (type(node.op), key(node.left, src), key(node.right, src))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            k = (type(node.op), key(node.operand, src))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _CALLS or len(node.args) != 1 or node.keywords:
                raise ConfigError(f"unsupported call in {src!r}")
            k = (node.func.id, key(node.args[0], src))
        else:
            raise ConfigError(f"unsupported syntax in {src!r}")
        key_of[node] = numbers.setdefault(k, len(numbers))
        return key_of[node]

    # a compound node met again is kept for the call, not the nodes inside
    # it: holding every temporary made a 200k-point jet pass of
    # rotated_blend's member frame about 25% slower (one thread)
    seen = {}

    def visit(node):
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)):
            k = key_of[node]
            seen[k] = seen.get(k, 0) + 1
            if seen[k] > 1:
                return
        for child in ast.iter_child_nodes(node):
            visit(child)

    roots = []
    for src in srcs:                    # the first refused expression is named
        roots.append(_parse(src))
        key(roots[-1], src)
        visit(roots[-1])
    # the arguments of both a sin and a cos: one jsincos serves the pair
    both = {k[1] for k in numbers if k[0] == "sin"} & {k[1] for k in numbers if k[0] == "cos"}

    def compile_node(node):
        """The closure env -> value of an accepted tree; env holds the
        variables and, under their keys, the repeated nodes' values."""
        if isinstance(node, ast.Constant):
            value = float(node.value)
            return lambda env: value
        if isinstance(node, ast.Name):
            return operator.itemgetter(node.id)
        if isinstance(node, ast.BinOp):
            op, left, right = (_BINOPS[type(node.op)], compile_node(node.left),
                               compile_node(node.right))
            fn = lambda env: op(left(env), right(env))
        elif isinstance(node, ast.UnaryOp):
            operand = compile_node(node.operand)
            fn = (lambda env: -1.0 * operand(env)) if isinstance(node.op, ast.USub) else operand
        elif node.func.id in ("sin", "cos") and key_of[node.args[0]] in both:
            arg, i = compile_node(node.args[0]), node.func.id == "cos"
            pair = once(("sincos", key_of[node.args[0]]), lambda env: jsincos(arg(env)))
            fn = lambda env: pair(env)[i]
        else:
            call, arg = _CALLS[node.func.id], compile_node(node.args[0])
            fn = lambda env: call(arg(env))
        return fn if seen.get(key_of[node], 0) < 2 else once(key_of[node], fn)

    def once(k, fn):
        """fn, its value kept in env under k for the rest of the call."""
        def kept(env):
            if k not in env:
                env[k] = fn(env)
            return env[k]
        return kept

    fns = [compile_node(root) for root in roots]

    def compiled(*values):
        env = dict(zip(names, values, strict=True))
        return [fn(env) for fn in fns]

    compiled.names = {n.id for root in roots for n in ast.walk(root) if isinstance(n, ast.Name)}
    return compiled
