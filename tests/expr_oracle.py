"""The frozen oracle for scalar expression evaluation.

This is the closure tree ``repro.exastream.operators.compile_expr`` was
before expressions were generated as Python source: the ``_ARITHMETIC``
table and the recursive closures, moved verbatim (``interpret_expr``
here is the old ``compile_expr``).  The generated kernels must agree with
it on every expression and every row — the same value of the same type,
or the same exception type; do not optimise or "fix" this file — a
disagreement is a bug in the generator, or a semantic change that has
to be made deliberately and on its own.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import Any

from repro.exastream.operators import Relation
from repro.exastream.udf import UDFRegistry
from repro.sql import BinOp, Col, Expr, Func, Lit, Star, UnaryOp

__all__ = ["interpret_expr"]


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


def interpret_expr(
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
        inner = interpret_expr(expr.operand, relation, registry)
        if expr.op == "NOT":
            return lambda row: not inner(row)
        if expr.op == "-":
            return lambda row: -inner(row)
        raise ValueError(f"unsupported unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        if expr.op == "IS":
            inner = interpret_expr(expr.left, relation, registry)
            return lambda row: inner(row) is None
        if expr.op == "IS NOT":
            inner = interpret_expr(expr.left, relation, registry)
            return lambda row: inner(row) is not None
        if expr.op == "LIKE":
            left = interpret_expr(expr.left, relation, registry)
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
        left = interpret_expr(expr.left, relation, registry)
        right = interpret_expr(expr.right, relation, registry)
        return lambda row: op(left(row), right(row))
    if isinstance(expr, Func):
        if expr.name == "IN_LIST":
            target = interpret_expr(expr.args[0], relation, registry)
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
                compiled = [interpret_expr(a, relation, registry) for a in expr.args]
                fn = udf.fn
                if len(compiled) == 1:
                    single = compiled[0]
                    return lambda row: fn(single(row))
                return lambda row: fn(*[c(row) for c in compiled])
        raise ValueError(f"unknown scalar function {expr.name!r}")
    if isinstance(expr, Star):
        raise ValueError("* is not a scalar expression")
    raise TypeError(f"cannot compile expression {expr!r}")
