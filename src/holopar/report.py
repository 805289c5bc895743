"""Deterministic JSON serialization for reports.

Floats are written with 17 significant digits so identical runs produce
byte-identical output; keys keep insertion order and no timestamps are
emitted. Strings and keys are JSON string literals (``json.dumps``, with
non-ASCII characters kept as they are).
"""

from __future__ import annotations

import json

import numpy as np


def _fmt_float(x):
    if x != x:                     # NaN
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def dumps(obj, _level=0):
    pad = "  " * _level                         # two spaces a nesting level
    pad_in = pad + "  "
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), _level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(v, _level + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: "
                 + dumps(v, _level + 1) for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
