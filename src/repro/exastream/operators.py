"""Physical operator layer: generated kernels, relations and joins.

The per-node Stream Engine executes window-at-a-time dataflows over plain
Python tuples.  Every per-row step of a plan — computed columns, a
conjunction of filters, a projection, group keys, an aggregate's argument
values, a scalar expression — is *generated* as Python source once per
(step, input layout) by :func:`compile_kernel` and compiled once per
source text (:func:`kernel_factory`, the one source-keyed cache), never
interpreted per tuple.  Scalar-UDF chains inline as nested calls
(``k0(k1(row[3]))``), the fusion the paper's tracing JIT performs.  A
kernel's ``.source`` is its generated text.  Hash-table keys come from
one arity-specialised :func:`key_getter`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from ..sql import BinOp, Col, Expr, Func, Lit, Star, UnaryOp
from .udf import UDFRegistry

__all__ = [
    "Relation",
    "compile_expr",
    "compile_kernel",
    "kernel_factory",
    "key_getter",
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


# ---------------------------------------------------------------------------
# Kernels: per-row steps generated as Python source
# ---------------------------------------------------------------------------
#
# A kernel is one generated function for one pipeline step over one input
# layout.  Its source is a factory ``_make(k0, k1, ...)`` returning the
# step's function; columns are spelled as integer positions (``row[3]``)
# and every other value from the query — literals, LIKE regexes, IN sets,
# scalar-UDF functions — is a factory argument ``k<n>``.  The text thus
# depends on the expression's shape and the layout only, never on what a
# user wrote, and one compiled factory serves every query of that shape.

#: the function each kernel kind's factory returns (``{0}``: the single
#: expression, ``{tuple}``: all expressions as a tuple, ``{conj}``: all
#: expressions as one conjunction)
_BODIES = {
    # row -> value
    "value": "def run(row):\n        return {0}",
    # rows -> rows with the computed columns appended
    "extend": "def run(rows):\n        return [row + {tuple} for row in rows]",
    # rows -> the rows every predicate holds for
    "filter": "def run(rows):\n        return [row for row in rows if {conj}]",
    # rows -> projected rows
    "project": "def run(rows):\n        return [{tuple} for row in rows]",
    # rows -> {key: rows}, keys and rows in arrival order
    "group": (
        "def run(rows):\n"
        "        groups = {{}}\n"
        "        get = groups.get\n"
        "        for row in rows:\n"
        "            key = {tuple}\n"
        "            members = get(key)\n"
        "            if members is None:\n"
        "                groups[key] = [row]\n"
        "            else:\n"
        "                members.append(row)\n"
        "        return groups"
    ),
    # rows -> the expression's values, None dropped
    "values": (
        "def run(rows):\n"
        "        return [v for row in rows if (v := {0}) is not None]"
    ),
}

#: binary operators spelled as themselves (``=`` as ``==``); the ordering
#: comparisons are None-guarded, AND/OR and ``||`` have their own forms
_INFIX = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%", "=": "==", "!=": "!=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


class _Codegen:
    """Python source text for expressions over ``row``.

    Semantics are SQL(+)'s as the engine has always run them: operands
    evaluate left to right, and both operands of AND, OR and an ordering
    comparison are evaluated whatever the first one gave; AND/OR return
    ``bool``; an ordering comparison with a NULL side is ``False``; ``=``
    and ``!=`` are Python's; ``a || b`` is ``str(a) + str(b)``.
    """

    def __init__(self, relation: Relation, registry: UDFRegistry | None):
        self.relation = relation
        self.registry = registry
        self.constants: list[Any] = []
        self.temps = 0

    def const(self, value: Any) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def expr(self, expr: Expr) -> str:
        """``expr`` as an atom: a name, a subscript, a call or a
        parenthesised expression."""
        if isinstance(expr, Lit):
            return "None" if expr.value is None else self.const(expr.value)
        if isinstance(expr, Col):
            name = f"{expr.table}.{expr.name}" if expr.table else expr.name
            return f"row[{self.relation.index_of(name)}]"
        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                return f"(not {self.expr(expr.operand)})"
            if expr.op == "-":
                return f"(-{self.expr(expr.operand)})"
            raise ValueError(f"unsupported unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            return self.binop(expr)
        if isinstance(expr, Func):
            return self.func(expr)
        if isinstance(expr, Star):
            raise ValueError("* is not a scalar expression")
        raise TypeError(f"cannot compile expression {expr!r}")

    def binop(self, expr: BinOp) -> str:
        op = expr.op
        if op in ("IS", "IS NOT"):
            return f"({self.expr(expr.left)} {op.lower()} None)"
        if op == "LIKE":
            left = self.expr(expr.left)
            pattern = expr.right
            if not isinstance(pattern, Lit) or not isinstance(pattern.value, str):
                raise ValueError("LIKE requires a string literal pattern")
            regex = self.const(re.compile(
                re.escape(pattern.value).replace("%", ".*").replace("_", ".")
            ))
            value = self.temp()
            return (
                f"(({value} := {left}) is not None"
                f" and {regex}.fullmatch(str({value})) is not None)"
            )
        if op not in _INFIX and op not in ("AND", "OR", "||"):
            raise ValueError(f"unsupported operator {op!r}")
        if op in ("<", "<=", ">", ">="):
            return self.ordering(_INFIX[op], expr.left, expr.right)
        if op in ("AND", "OR"):
            # a chain of one connective is one call: every operand is
            # evaluated, left to right, before any is tested
            operands = ", ".join(map(self.expr, self.chain(op, expr)))
            return f"{'all' if op == 'AND' else 'any'}(({operands},))"
        left, right = self.expr(expr.left), self.expr(expr.right)
        if op == "||":
            return f"(str({left}) + str({right}))"
        return f"({left} {_INFIX[op]} {right})"

    def chain(self, op: str, expr: Expr) -> list[Expr]:
        if isinstance(expr, BinOp) and expr.op == op:
            return [*self.chain(op, expr.left), *self.chain(op, expr.right)]
        return [expr]

    def ordering(self, op: str, left: Expr, right: Expr) -> str:
        """``a <op> b``, ``False`` when either side is None."""
        # per operand: its first use, its later uses, whether it is
        # tested for None (a non-NULL literal never is)
        operands = []
        for operand in (left, right):
            if isinstance(operand, Lit) and operand.value is not None:
                name = self.const(operand.value)
                operands.append((name, name, False))
            elif isinstance(operand, (Col, Lit)):
                text = self.expr(operand)
                operands.append((text, text, True))
            else:
                text, name = self.expr(operand), self.temp()
                operands.append((f"({name} := {text})", name, True))
        (l_first, l_later, l_test), (r_first, r_later, r_test) = operands
        if l_test and r_first != r_later:
            # the right side must run even when the left one is None
            return (
                f"(False if ({l_first} is None) | ({r_first} is None)"
                f" else {l_later} {op} {r_later})"
            )
        tests = [f"{first} is not None" for first, _, test in operands if test]
        left_text = l_later if l_test else l_first
        right_text = r_later if r_test else r_first
        return f"({' and '.join([*tests, f'{left_text} {op} {right_text}'])})"

    def func(self, expr: Func) -> str:
        if expr.name == "IN_LIST":
            target = self.expr(expr.args[0])
            values = []
            for arg in expr.args[1:]:
                if not isinstance(arg, Lit):
                    raise ValueError("IN list must contain literals")
                values.append(arg.value)
            return f"({target} in {self.const(set(values))})"
        udf = self.registry.scalar(expr.name) if self.registry else None
        if udf is None:
            raise ValueError(f"unknown scalar function {expr.name!r}")
        fn = self.const(udf.fn)
        return f"{fn}({', '.join(self.expr(a) for a in expr.args)})"


@lru_cache(maxsize=256)
def kernel_factory(source: str) -> Callable[..., Callable]:
    """The compiled ``_make`` of a kernel's source text — memoised on
    the text, so a shape seen before costs no ``compile()``
    (``kernel_factory.cache_info().misses`` counts the compiles)."""
    namespace: dict[str, Any] = {}
    exec(compile(source, "<generated kernel>", "exec"), namespace)
    return namespace["_make"]


def compile_kernel(
    kind: str,
    exprs: Sequence[Expr],
    relation: Relation,
    registry: UDFRegistry | None = None,
) -> Callable:
    """Generate, compile (once per source text) and instantiate the
    ``kind`` kernel (see ``_BODIES``) of ``exprs`` over ``relation``'s
    layout.  The returned function's ``.source`` is the generated text.

    A column ``relation`` does not have raises ``KeyError``; an unknown
    function or operator ``ValueError`` — at generation, not per row.
    """
    gen = _Codegen(relation, registry)
    try:
        texts = [gen.expr(e) for e in exprs]
        body = _BODIES[kind].format(
            *texts,
            tuple=f"({', '.join(texts)},)" if texts else "()",
            conj=" and ".join(texts),
        )
        params = ", ".join(f"k{i}" for i in range(len(gen.constants)))
        source = f"def _make({params}):\n    {body}\n    return run\n"
        factory = kernel_factory(source)
    except (RecursionError, SyntaxError) as exc:
        # CPython caps nesting depth; any other syntax error is a bug
        # in the generator
        if isinstance(exc, SyntaxError) and "too many" not in exc.msg:
            raise
        raise ValueError(f"expression nests too deeply to compile: {exc}") from exc
    kernel = factory(*gen.constants)
    kernel.source = source
    return kernel


def compile_expr(
    expr: Expr,
    relation: Relation,
    registry: UDFRegistry | None = None,
) -> RowFn:
    """Compile a scalar expression into a ``row -> value`` kernel.

    Aggregate functions are *not* handled here (see the engine's
    aggregation stage); scalar UDFs resolve through ``registry``.
    """
    return compile_kernel("value", (expr,), relation, registry)


def key_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[i] for i in positions)``, specialised by arity
    and C-level throughout (one key column is a one-wide slice): the
    join, index and probe key of every hash table on the row path."""
    if len(positions) == 1:
        (only,) = positions
        return itemgetter(slice(only, only + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


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
        probe_rows = self._probe_rows
        found = zip(probe_rows, map(
            self._table.get, map(key_getter(self._probe_idx), probe_rows)
        ))
        if self._build_is_left:
            rows = [m + row for row, matches in found if matches for m in matches]
        else:
            rows = [row + m for row, matches in found if matches for m in matches]
        self._header.rows = rows
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
        build_key = key_getter(build_part)
        keyed = {
            key: [(build_key(row), row) for row in rows]
            for key, rows in self._table.items()
        }
        probe_key, tail_key = key_getter(self._probe_idx), key_getter(probe_part)
        for row in self._probe_rows:
            matches = keyed.get(probe_key(row))
            if not matches:
                continue
            self._enumerated += len(matches)
            tail = tail_key(row)
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
    build_key = key_getter([build.index_of(k) for k in build_keys])
    table: dict[tuple, list[tuple]] = {}
    for row in build.rows:
        table.setdefault(build_key(row), []).append(row)
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
    """A relation that is never mutated once built, with hash indexes
    keyed by column positions and built on the first probe.

    The one index class of the engine.  It is the build side of
    stream-static joins — "combine streaming attributes ... with
    metadata that remain invariant in time" — and the per-(side, pane)
    prefix of the symmetric-hash pane join, which the MQO registry
    shares across queries joining the same stream pair.  An index maps
    key-value tuples to the matching rows in row order; it is keyed by
    resolved positions, which renaming does not change, so every view
    of one table (:meth:`view`, :meth:`renamed`) reads and fills the
    one index dict.  Checkpoints drop the indexes: they rebuild on the
    first probe after a load.
    """

    __slots__ = ("relation", "_indexes")

    def __init__(
        self,
        relation: Relation,
        indexes: dict[tuple[int, ...], dict[tuple, list[tuple]]] | None = None,
    ) -> None:
        self.relation = relation
        self._indexes = {} if indexes is None else indexes

    @property
    def count(self) -> int:
        return len(self.relation.rows)

    def renamed(self, columns: list[str]) -> StaticTable:
        """The same rows and indexes under ``columns``."""
        return StaticTable(Relation(columns, self.relation.rows), self._indexes)

    def view(self, alias: str) -> StaticTable:
        """This table under ``alias``-qualified column names.

        A view, not a copy: the row list and the index dict are the
        table's own, so every binding of one static relation version
        builds each key layout once.
        """
        return self.renamed([f"{alias}.{name}" for name in self.relation.columns])

    def index_for(
        self, key_columns: Sequence[str], relation: Relation | None = None
    ) -> dict[tuple, list[tuple]]:
        """The hash index on ``key_columns``, resolved through
        ``relation`` (a renamed copy of this table's relation) or this
        table's own column names."""
        resolver = self.relation if relation is None else relation
        key = tuple(resolver.index_of(c) for c in key_columns)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            row_key = key_getter(key)
            for row in self.relation.rows:
                index.setdefault(row_key(row), []).append(row)
            self._indexes[key] = index
        return index

    def __getstate__(self) -> dict:
        return {"relation": self.relation}

    def __setstate__(self, state: dict) -> None:
        # also reads the older {"relation", "count"} and {"relation",
        # "_indexes"} states
        self.relation = state["relation"]
        self._indexes = {}

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
            probe_key = key_getter([probe.index_of(k) for k in probe_keys])
            found = zip(probe.rows, map(
                self.index_for(static_keys).get, map(probe_key, probe.rows)
            ))
            rows = [row + m for row, matches in found if matches for m in matches]
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
