"""Deterministic CSV/JSON serialization helpers.

Floats are written with ``repr`` (shortest round-trip form) and JSON keys
are sorted, so identical inputs always produce byte-identical files.
Non-finite floats are encoded as the strings ``"inf"``/``"-inf"``/``"nan"``
to keep the JSON output parseable by strict readers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Rows per tolist() call in write_csv's float-array path.
_CSV_BLOCK = 1024


def _pyfloat(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def jsonify(obj):
    """Recursively convert an object into JSON-encodable primitives."""
    obj = _pyfloat(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    return obj


def dump_json(obj, path):
    text = json.dumps(jsonify(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def format_value(x):
    x = _pyfloat(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, header, rows):
    """Write rows of scalars with a fixed header line.

    A 2-D float array takes a fast path: ``tolist`` yields Python floats,
    whose ``repr`` is exactly what :func:`format_value` writes, so the
    bytes are the same.  It converts blocks of rows, so the Python floats
    of a large array never all exist at once.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        for i in range(0, len(rows), _CSV_BLOCK):
            block = rows[i:i + _CSV_BLOCK].tolist()
            lines.extend(",".join(map(repr, row)) for row in block)
    else:
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
