"""User Defined Functions.

EXASTREAM "natively supports User Defined Functions (UDFs) with arbitrary
user code [and] blends the execution of UDFs together with relational
operators using JIT tracing compilation techniques ... as it reduces
context switches".

We reproduce the two UDF kinds the paper uses:

* **scalar UDFs** applied per tuple (unit conversion, thresholds, ...);
* **sequence UDFs** applied to a time-ordered group of tuples inside one
  window — the mechanism behind STARQL's HAVING macros
  (``MONOTONIC.HAVING``) and the LSH/Pearson correlation tasks.

The fusion the paper gets from tracing happens in the engine's generated
kernels (:func:`repro.exastream.operators.compile_kernel`): a chain of
scalar UDFs inlines there as nested calls in one compiled function.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

import numpy as np

__all__ = [
    "ScalarUDF",
    "SequenceUDF",
    "UDFRegistry",
    "builtin_registry",
]


ScalarFn = Callable[..., Any]
# A sequence UDF receives the group's tuples in time order plus a mapping
# of column name -> tuple index, and returns one value.
SequenceFn = Callable[[list[tuple], dict[str, int]], Any]


@dataclass(frozen=True)
class ScalarUDF:
    """A named per-tuple function."""

    name: str
    fn: ScalarFn
    arity: int

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)


@dataclass(frozen=True)
class SequenceUDF:
    """A named per-group (window sequence) function.

    ``arg_names`` declares the column roles the function reads, in the
    order they appear in SQL(+) calls: ``PEARSON(a.val, b.val)`` binds the
    first argument to role ``x`` and the second to ``y``.
    """

    name: str
    fn: SequenceFn
    arg_names: tuple[str, ...]

    def __call__(self, tuples: list[tuple], columns: dict[str, int]) -> Any:
        return self.fn(tuples, columns)


class UDFRegistry:
    """Registered UDFs of one engine instance."""

    def __init__(self) -> None:
        self._scalar: dict[str, ScalarUDF] = {}
        self._sequence: dict[str, SequenceUDF] = {}

    def register_scalar(self, name: str, fn: ScalarFn, arity: int) -> ScalarUDF:
        udf = ScalarUDF(name.upper(), fn, arity)
        self._scalar[udf.name] = udf
        return udf

    def register_sequence(
        self, name: str, fn: SequenceFn, arg_names: tuple[str, ...]
    ) -> SequenceUDF:
        udf = SequenceUDF(name.upper(), fn, tuple(arg_names))
        self._sequence[udf.name] = udf
        return udf

    def scalar(self, name: str) -> ScalarUDF | None:
        return self._scalar.get(name.upper())

    def sequence(self, name: str) -> SequenceUDF | None:
        return self._sequence.get(name.upper())

    def names(self) -> set[str]:
        return set(self._scalar) | set(self._sequence)


# ---------------------------------------------------------------------------
# Built-in sequence UDFs used by the diagnostic catalog
# ---------------------------------------------------------------------------


def _monotonic_having(tuples: list[tuple], columns: dict[str, int]) -> bool:
    """The Figure 1 macro: a failure state preceded by monotonic increase.

    Expects ``val`` (measured value), ``failure`` (truthy on a failure
    message) and ``ts`` columns.  Returns True iff there is a state ``k``
    with a failure and all value readings strictly before ``k`` are
    non-decreasing.
    """
    ts = columns["ts"]
    val = columns["val"]
    fail = columns["failure"]
    ordered = sorted(tuples, key=lambda t: t[ts])
    failure_times = [t[ts] for t in ordered if t[fail]]
    if not failure_times:
        return False
    k_time = failure_times[0]
    previous = None
    for item in ordered:
        if item[ts] >= k_time:
            break
        if item[val] is None:
            continue
        if previous is not None and item[val] < previous:
            return False
        previous = item[val]
    return True


def _pearson(tuples: list[tuple], columns: dict[str, int]) -> float:
    """Exact Pearson correlation between columns ``x`` and ``y``.

    ``np.add.reduce(x) / n`` is what ``x.mean()`` computes and
    ``np.sqrt(x.dot(x))`` what ``np.linalg.norm(x)`` computes for a 1-D
    float array, bit for bit, without their dispatch."""
    x_i, y_i = columns["x"], columns["y"]
    x = np.array([t[x_i] for t in tuples], dtype=float)
    y = np.array([t[y_i] for t in tuples], dtype=float)
    n = len(x)
    if n < 2:
        return 0.0
    x = x - np.add.reduce(x) / n
    y = y - np.add.reduce(y) / n
    denominator = float(np.sqrt(x.dot(x)) * np.sqrt(y.dot(y)))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(x, y) / denominator)


def _avg_slope(tuples: list[tuple], columns: dict[str, int]) -> float:
    """Least-squares slope of ``val`` over ``ts`` — trend detection."""
    ts_i, val_i = columns["ts"], columns["val"]
    n = len(tuples)
    if n < 2:
        return 0.0
    t = np.array([x[ts_i] for x in tuples], dtype=float)
    v = np.array([x[val_i] for x in tuples], dtype=float)
    t = t - np.add.reduce(t) / n
    denominator = float(np.dot(t, t))
    if denominator == 0.0:
        return 0.0
    return float(np.dot(t, v - np.add.reduce(v) / n) / denominator)


def _range_spread(tuples: list[tuple], columns: dict[str, int]) -> float:
    """max - min of ``val`` within the window sequence."""
    val_i = columns["val"]
    values = [t[val_i] for t in tuples if t[val_i] is not None]
    if not values:
        return 0.0
    return float(max(values) - min(values))


def builtin_registry() -> UDFRegistry:
    """A registry preloaded with the catalog's sequence UDFs."""
    registry = UDFRegistry()
    registry.register_sequence(
        "MONOTONIC_HAVING", _monotonic_having, ("ts", "val", "failure")
    )
    registry.register_sequence("PEARSON", _pearson, ("x", "y"))
    registry.register_sequence("SLOPE", _avg_slope, ("ts", "val"))
    registry.register_sequence("SPREAD", _range_spread, ("val",))
    registry.register_scalar("ABS", abs, 1)
    registry.register_scalar(
        "C2F", lambda celsius: celsius * 9.0 / 5.0 + 32.0, 1
    )
    return registry
