"""The frozen oracle for the ``PEARSON`` and ``SLOPE`` sequence UDFs.

These are the bodies of ``repro.exastream.udf._pearson`` and
``_avg_slope`` as they stood before they dropped ``ndarray.mean`` and
``np.linalg.norm`` for the reductions those compute, moved verbatim.
The registered UDFs must return bit-identical results on every input;
do not optimise or "fix" this file — a disagreement is a bug in the UDF
or a deliberate semantic change that needs its own issue.
"""

from __future__ import annotations

import numpy as np


def pearson(tuples: list[tuple], columns: dict[str, int]) -> float:
    """Exact Pearson correlation between columns ``x`` and ``y``."""
    x = np.array([t[columns["x"]] for t in tuples], dtype=float)
    y = np.array([t[columns["y"]] for t in tuples], dtype=float)
    if len(x) < 2:
        return 0.0
    x = x - x.mean()
    y = y - y.mean()
    denominator = float(np.linalg.norm(x) * np.linalg.norm(y))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(x, y) / denominator)


def avg_slope(tuples: list[tuple], columns: dict[str, int]) -> float:
    """Least-squares slope of ``val`` over ``ts`` — trend detection."""
    ts_i, val_i = columns["ts"], columns["val"]
    if len(tuples) < 2:
        return 0.0
    t = np.array([x[ts_i] for x in tuples], dtype=float)
    v = np.array([x[val_i] for x in tuples], dtype=float)
    t = t - t.mean()
    denominator = float(np.dot(t, t))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(t, v - v.mean()) / denominator)
