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

    ``rows`` may instead be the body already formatted, one string of
    newline-terminated lines (:func:`lattice_rows`).
    """
    if not isinstance(rows, str):
        rows = "".join(",".join(format_value(v) for v in row) + "\n"
                       for row in rows)
    Path(path).write_text(",".join(header) + "\n" + rows)


def lattice_rows(xs, ys, jj, ii, values):
    """Lines ``x,y,value`` of lattice nodes, formatted as :func:`write_csv`
    formats floats, each ending in a newline, joined into one string.

    Node ``k`` lies at column ``ii[k]`` and row ``jj[k]`` of a lattice with
    column coordinates ``xs`` and row coordinates ``ys``, so each
    coordinate is formatted once and only the values take a ``repr`` per
    node.
    """
    xs = np.array([repr(x) for x in np.asarray(xs, dtype=float).tolist()],
                  dtype=object)
    ys = np.array([repr(y) for y in np.asarray(ys, dtype=float).tolist()],
                  dtype=object)
    lines = map(",".join, zip(xs[ii], ys[jj], map(repr, values.tolist())))
    return "\n".join(lines) + "\n" if len(values) else ""
