"""Physical operator layer: compiled expressions, relations and joins.

The per-node Stream Engine executes window-at-a-time dataflows over plain
Python tuples.  Scalar expressions from the SQL(+) AST are *compiled* to
closures once per plan (not interpreted per tuple), and scalar UDF chains
are fused (:func:`repro.exastream.udf.fuse`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from ..sql import BinOp, Col, Expr, Func, Lit, Star, UnaryOp
from .udf import UDFRegistry

__all__ = [
    "Relation",
    "compile_expr",
    "JoinedRows",
    "hash_join_rows",
    "hash_join",
    "nested_loop_join",
    "StaticTable",
    "CountAccumulator",
    "SumAccumulator",
    "MinAccumulator",
    "MaxAccumulator",
    "accumulator_factory",
]


@dataclass
class Relation:
    """A batch of tuples with qualified column names (``alias.column``)."""

    columns: list[str]
    rows: list[tuple]

    def __post_init__(self) -> None:
        self.colmap = {name: i for i, name in enumerate(self.columns)}
        # unqualified fallbacks (only when unambiguous)
        seen: dict[str, int | None] = {}
        for i, name in enumerate(self.columns):
            if "." in name:
                bare = name.split(".", 1)[1]
                seen[bare] = i if bare not in seen else None
        for bare, index in seen.items():
            if index is not None and bare not in self.colmap:
                self.colmap[bare] = index

    def index_of(self, column: str) -> int:
        """Resolve a (possibly unqualified) column reference."""
        if column in self.colmap:
            return self.colmap[column]
        raise KeyError(f"unknown column {column!r}; have {self.columns}")

    def __len__(self) -> int:
        return len(self.rows)


RowFn = Callable[[tuple], Any]


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "||": lambda a, b: str(a) + str(b),
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
    "AND": lambda a, b: bool(a) and bool(b),
    "OR": lambda a, b: bool(a) or bool(b),
}


def compile_expr(
    expr: Expr,
    relation: Relation,
    registry: UDFRegistry | None = None,
) -> RowFn:
    """Compile a scalar expression into a ``row -> value`` closure.

    Aggregate functions are *not* handled here (see the engine's
    aggregation stage); scalar UDFs resolve through ``registry``.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Col):
        name = f"{expr.table}.{expr.name}" if expr.table else expr.name
        index = relation.index_of(name)
        return lambda row: row[index]
    if isinstance(expr, UnaryOp):
        inner = compile_expr(expr.operand, relation, registry)
        if expr.op == "NOT":
            return lambda row: not inner(row)
        if expr.op == "-":
            return lambda row: -inner(row)
        raise ValueError(f"unsupported unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        if expr.op == "IS":
            inner = compile_expr(expr.left, relation, registry)
            return lambda row: inner(row) is None
        if expr.op == "IS NOT":
            inner = compile_expr(expr.left, relation, registry)
            return lambda row: inner(row) is not None
        if expr.op == "LIKE":
            left = compile_expr(expr.left, relation, registry)
            pattern = expr.right
            if not isinstance(pattern, Lit) or not isinstance(pattern.value, str):
                raise ValueError("LIKE requires a string literal pattern")
            regex = re.compile(
                re.escape(pattern.value).replace("%", ".*").replace("_", ".")
            )
            return lambda row: (
                left(row) is not None and regex.fullmatch(str(left(row))) is not None
            )
        op = _ARITHMETIC.get(expr.op)
        if op is None:
            raise ValueError(f"unsupported operator {expr.op!r}")
        left = compile_expr(expr.left, relation, registry)
        right = compile_expr(expr.right, relation, registry)
        return lambda row: op(left(row), right(row))
    if isinstance(expr, Func):
        if expr.name == "IN_LIST":
            target = compile_expr(expr.args[0], relation, registry)
            values = []
            for arg in expr.args[1:]:
                if not isinstance(arg, Lit):
                    raise ValueError("IN list must contain literals")
                values.append(arg.value)
            candidates = set(values)
            return lambda row: target(row) in candidates
        if registry is not None:
            udf = registry.scalar(expr.name)
            if udf is not None:
                compiled = [compile_expr(a, relation, registry) for a in expr.args]
                fn = udf.fn
                if len(compiled) == 1:
                    single = compiled[0]
                    return lambda row: fn(single(row))
                return lambda row: fn(*[c(row) for c in compiled])
        raise ValueError(f"unknown scalar function {expr.name!r}")
    if isinstance(expr, Star):
        raise ValueError("* is not a scalar expression")
    raise TypeError(f"cannot compile expression {expr!r}")


class JoinedRows:
    """A stream-stream join that has not been carried out yet.

    ``table`` maps join key -> build-side rows; each of ``probe_rows``
    looks its key (the columns at ``probe_idx``) up in it.  Rows come
    out probe-major — probe rows outer, the build side's matches inner —
    with the left input's columns first whichever side was the build.

    :meth:`materialise` lists every joined row.  :meth:`matching` is the
    iterator form a following static probe reads instead: the same
    loops in the same order, yielding only the rows the static relation
    has a match for, so the full intermediate relation never exists.

    Use once.  ``len()`` is the number of joined rows enumerated so far
    — the join's output cardinality once either method has run.
    """

    def __init__(
        self,
        left_columns: list[str],
        right_columns: list[str],
        table: dict[tuple, list[tuple]],
        probe_rows: list[tuple],
        probe_idx: Sequence[int],
        build_is_left: bool,
    ) -> None:
        self._header = Relation(left_columns + right_columns, [])
        self._left_width = len(left_columns)
        self._table = table
        self._probe_rows = probe_rows
        self._probe_idx = probe_idx
        self._build_is_left = build_is_left
        self._enumerated = 0

    @property
    def columns(self) -> list[str]:
        return self._header.columns

    def __len__(self) -> int:
        return self._enumerated

    def materialise(self) -> Relation:
        """Carry the join out into a :class:`Relation`."""
        lookup = self._table.get
        probe_idx = self._probe_idx
        build_is_left = self._build_is_left
        rows = self._header.rows
        for row in self._probe_rows:
            matches = lookup(tuple(row[i] for i in probe_idx))
            if not matches:
                continue
            if build_is_left:
                for match in matches:
                    rows.append(match + row)
            else:
                for match in matches:
                    rows.append(row + match)
        self._enumerated = len(rows)
        return self._header

    def matching(
        self,
        static: StaticTable,
        probe_keys: Sequence[str],
        static_keys: Sequence[str],
    ) -> Iterator[tuple[tuple, list[tuple]]]:
        """``(joined row, its matches in static)`` for every joined row
        that has one, in :meth:`materialise`'s row order.

        A static key is put together from the two halves of a joined
        row (the left input's key columns, then the right input's — the
        order the static index is asked for), each half's part taken
        once per input row rather than once per pair, and the halves
        are only concatenated for a pair that matched.
        """
        split = self._left_width
        positions = [self._header.index_of(k) for k in probe_keys]
        in_left = [k for k, p in enumerate(positions) if p < split]
        in_right = [k for k, p in enumerate(positions) if p >= split]
        lookup = static.index_for(
            [static_keys[k] for k in in_left + in_right]
        ).get
        left_part = [positions[k] for k in in_left]
        right_part = [positions[k] - split for k in in_right]
        build_is_left = self._build_is_left
        build_part, probe_part = (
            (left_part, right_part) if build_is_left
            else (right_part, left_part)
        )
        keyed = {
            key: [(tuple(row[i] for i in build_part), row) for row in rows]
            for key, rows in self._table.items()
        }
        probe_idx = self._probe_idx
        for row in self._probe_rows:
            matches = keyed.get(tuple(row[i] for i in probe_idx))
            if not matches:
                continue
            self._enumerated += len(matches)
            tail = tuple(row[i] for i in probe_part)
            if build_is_left:
                for head, match in matches:
                    found = lookup(head + tail)
                    if found:
                        yield match + row, found
            else:
                for head, match in matches:
                    found = lookup(tail + head)
                    if found:
                        yield row + match, found


def hash_join_rows(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> JoinedRows:
    """Equi-join two relations, building the hash table on the smaller.

    With no keys every row pair matches: the cross product, left rows
    outer.
    """
    if len(left_keys) != len(right_keys):
        raise ValueError("join key arity mismatch")
    build_is_left = bool(left_keys) and len(left) <= len(right)
    build, probe = (left, right) if build_is_left else (right, left)
    build_keys, probe_keys = (
        (left_keys, right_keys) if build_is_left else (right_keys, left_keys)
    )
    build_idx = [build.index_of(k) for k in build_keys]
    table: dict[tuple, list[tuple]] = {}
    for row in build.rows:
        table.setdefault(tuple(row[i] for i in build_idx), []).append(row)
    return JoinedRows(
        left.columns,
        right.columns,
        table,
        probe.rows,
        [probe.index_of(k) for k in probe_keys],
        build_is_left,
    )


def hash_join(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Relation:
    """:func:`hash_join_rows`, materialised."""
    return hash_join_rows(left, right, left_keys, right_keys).materialise()


def nested_loop_join(
    left: Relation,
    right: Relation,
    predicate: RowFn | None = None,
) -> Relation:
    """Cross product with an optional post-filter (non-equi joins)."""
    combined = hash_join_rows(left, right, (), ()).materialise()
    if predicate is not None:
        combined.rows = [row for row in combined.rows if predicate(row)]
    return combined


class StaticTable:
    """A static relation materialised once, with lazy per-key hash indexes.

    Used as the build side of stream-static joins: "combine streaming
    attributes ... with metadata that remain invariant in time".  A
    table is never mutated once built, so one materialisation serves
    every query that reads it (see :meth:`view`).
    """

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}

    def view(self, alias: str) -> StaticTable:
        """This table under ``alias``-qualified column names.

        A view, not a copy: the row list is the same object.  The hash
        indexes are the view's own, built on its first probe, so what a
        query's first window costs does not depend on which other
        queries happened to probe the relation before it.
        """
        return StaticTable(
            Relation(
                [f"{alias}.{name}" for name in self.relation.columns],
                self.relation.rows,
            )
        )

    def index_for(self, key_columns: Sequence[str]) -> dict[tuple, list[tuple]]:
        key = tuple(self.relation.index_of(c) for c in key_columns)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self.relation.rows:
                index.setdefault(tuple(row[i] for i in key), []).append(row)
            self._indexes[key] = index
        return index

    def join_probe(
        self,
        probe: Relation | JoinedRows,
        probe_keys: Sequence[str],
        static_keys: Sequence[str],
    ) -> Relation:
        """Join ``probe`` (stream side) against this static table.

        A ``probe`` that is a join not yet carried out is read as it is
        enumerated (:meth:`JoinedRows.matching`) and never materialised.
        """
        rows: list[tuple] = []
        if isinstance(probe, JoinedRows):
            for row, matches in probe.matching(self, probe_keys, static_keys):
                for match in matches:
                    rows.append(row + match)
        else:
            index = self.index_for(static_keys)
            probe_idx = [probe.index_of(k) for k in probe_keys]
            for row in probe.rows:
                matches = index.get(tuple(row[i] for i in probe_idx))
                if not matches:
                    continue
                for match in matches:
                    rows.append(row + match)
        return Relation(probe.columns + self.relation.columns, rows)


# ---------------------------------------------------------------------------
# Combinable accumulators (pane-incremental aggregation)
# ---------------------------------------------------------------------------
#
# Partial aggregate state for one (pane, group, aggregate-call).  Each
# accumulator class defines a compact *payload* representation, a
# ``build`` that folds one pane's already ``None``-filtered argument
# values (in stream order) into a payload, and a ``combine`` that folds
# many payloads — ordered oldest pane first — into the final value.
# ``combine`` yields exactly what the engine's full-recompute aggregation
# yields for the same values; the whole incremental subsystem is
# differential-tested on that equivalence.  Payloads are plain Python
# values (int / list / scalar) so the per-window combine stays in C-level
# folds rather than per-object method dispatch.


class CountAccumulator:
    """COUNT partial: an exact integer payload."""

    @staticmethod
    def build(values: list) -> int:
        return len(values)

    @staticmethod
    def combine(payloads: Sequence[int]) -> int:
        return sum(payloads)


class SumAccumulator:
    """SUM partial, bit-exact with respect to full recompute.

    Float addition is not associative, so per-pane *scalar* sums combined
    across panes would drift from ``sum(all values)`` in the last ulp.
    The payload is therefore the pane's value chunk itself, and
    ``combine`` performs a single left-to-right fold over the
    concatenation — the identical additions, in the identical order, as
    the recompute path's ``sum(values)``.  Memory stays bounded by the
    pane ring: the chunks alive at any instant are one window's values,
    the same order of storage as the cached window batch.
    """

    @staticmethod
    def build(values: list) -> list:
        return values

    @staticmethod
    def combine(payloads: Sequence[list]):
        chunks = [c for c in payloads if c]
        if not chunks:
            return None
        if len(chunks) == 1:
            return sum(chunks[0])
        return sum(chain.from_iterable(chunks))


class MinAccumulator:
    """MIN partial: a scalar payload (an exact, order-insensitive fold)."""

    @staticmethod
    def build(values: list):
        return min(values) if values else None

    @staticmethod
    def combine(payloads: Sequence):
        values = [v for v in payloads if v is not None]
        return min(values) if values else None


class MaxAccumulator:
    """MAX partial: a scalar payload."""

    @staticmethod
    def build(values: list):
        return max(values) if values else None

    @staticmethod
    def combine(payloads: Sequence):
        values = [v for v in payloads if v is not None]
        return max(values) if values else None


_ACCUMULATORS = {
    "COUNT": CountAccumulator,
    "SUM": SumAccumulator,
    "MIN": MinAccumulator,
    "MAX": MaxAccumulator,
}


def accumulator_factory(function: str):
    """The accumulator class for a combinable partial aggregate.

    ``AVG`` has no accumulator of its own: the shared partial-aggregation
    rewrite decomposes it into SUM + COUNT partials first.
    """
    try:
        return _ACCUMULATORS[function.upper()]
    except KeyError:
        raise ValueError(f"no combinable accumulator for {function!r}") from None
