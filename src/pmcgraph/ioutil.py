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

# Rows per tolist() call in lattice_rows.
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

    A row that is a string is written as it stands: the caller has already
    joined its fields.
    """
    lines = [",".join(header)]
    lines.extend(row if isinstance(row, str)
                 else ",".join(format_value(v) for v in row)
                 for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def lattice_rows(xs, ys, jj, ii, values):
    """Rows ``x,y,value`` of lattice nodes, formatted as :func:`write_csv`
    formats floats, made lazily a block at a time.

    Node ``k`` lies at column ``ii[k]`` and row ``jj[k]`` of a lattice with
    column coordinates ``xs`` and row coordinates ``ys``, so each
    coordinate is formatted once and only the values take a ``repr`` per
    node.
    """
    xs = np.array([repr(x) for x in np.asarray(xs, dtype=float).tolist()],
                  dtype=object)
    ys = np.array([repr(y) for y in np.asarray(ys, dtype=float).tolist()],
                  dtype=object)
    for k in range(0, len(values), _CSV_BLOCK):
        block = slice(k, k + _CSV_BLOCK)
        yield from map(",".join, zip(xs[ii[block]], ys[jj[block]],
                                     map(repr, values[block].tolist())))
