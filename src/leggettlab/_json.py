"""Deterministic JSON rendering for reports.

Floats are written with 17 significant digits, which round-trips every
IEEE double exactly; non-finite floats (which JSON cannot carry) render
as null.  Dict insertion order is preserved, so a given document always
renders to the same bytes.  :data:`Rows` of packed columns render with
one format string per row, ``CHUNK`` rows at a time; they must be finite.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

import numpy as np

__all__ = ["render"]

FLOAT = "{:.17g}"  # the 17-digit rule as a field of a row template
CHUNK = 4096  # rows per string of format_rows
Rows = namedtuple("Rows", "keys columns")  # equal-length columns; a None column is null in every row


def format_rows(template: str, columns, sep: str = ""):
    """``template`` formatted with each row of ``columns``, rows joined by ``sep``: one string per ``CHUNK`` rows."""
    for start in range(0, len(columns[0]), CHUNK):
        yield sep.join(map(template.format, *(v[start:start + CHUNK] for v in columns)))


def render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {render(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, Rows):
        columns = [v for v in obj.columns if v is not None]
        if not all(np.isfinite(v).all() for v in columns):
            raise FloatingPointError("a listed value is not finite")
        row = ", ".join(f"{json.dumps(k)}: {'null' if v is None else FLOAT}" for k, v in zip(obj.keys, obj.columns))
        return "[" + ", ".join(format_rows("{{" + row + "}}", columns, ", ")) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")
