"""Type inference over plan expressions against the engine's catalogs.

The analyzer rebuilds the column environment a plan executes in — window
aliases typed from the registered stream schemas, static aliases typed
by resolving their SQL against the attached database schemas, computed
columns typed from their defining expressions — and walks every plan
expression to find references that cannot resolve and comparisons or
arithmetic whose operand types cannot both be produced by the mappings.

Inference is deliberately conservative: an expression whose type cannot
be established types as ``None`` and is never flagged.  Resolution
mirrors :class:`repro.exastream.operators.Relation` exactly (qualified
name first, then the unqualified fallback only when unambiguous), so the
analyzer never rejects a reference the runtime would accept.
"""

from __future__ import annotations

from ..exastream.plan import as_equi_join, expr_columns
from ..relational import SQLType
from ..sql import (
    BinOp,
    Col,
    Expr,
    Func,
    Lit,
    SelectQuery,
    Star,
    UnaryOp,
    parse_sql,
    print_expr,
)
from .diagnostics import AnalysisReport, Severity, find_span

__all__ = ["TypeEnv", "build_env", "infer_type", "check_types"]

_NUMERIC = {SQLType.INTEGER, SQLType.REAL, SQLType.TIMESTAMP}
_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/", "%"}
_SQL_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
#: built-in sequence UDFs with a known numeric result
_REAL_UDFS = {"PEARSON", "SLOPE", "SPREAD"}


class TypeEnv:
    """alias -> column -> type, plus the post-aggregation output frame."""

    def __init__(self) -> None:
        self.aliases: dict[str, dict[str, SQLType | None]] = {}
        #: group names and aggregate outputs visible to HAVING
        self.outputs: dict[str, SQLType | None] = {}

    def add_column(
        self, alias: str, column: str, sqltype: SQLType | None
    ) -> None:
        self.aliases.setdefault(alias, {})[column] = sqltype

    def resolve(
        self, table: str | None, name: str, having: bool = False
    ) -> tuple[bool, SQLType | None]:
        """``(found, type)`` for a column reference, runtime-faithfully."""
        if having and table is None and name in self.outputs:
            return True, self.outputs[name]
        if table is not None:
            columns = self.aliases.get(table)
            if columns is None:
                return False, None
            if name in columns:
                return True, columns[name]
            return False, None
        matches = [
            columns[name]
            for columns in self.aliases.values()
            if name in columns
        ]
        if len(matches) == 1:
            return True, matches[0]
        if len(matches) > 1:
            return True, None  # ambiguous: resolvable but untyped here
        return False, None


def infer_type(expr: Expr, env: TypeEnv, having: bool = False) -> SQLType | None:
    """Best-effort static type of ``expr``; ``None`` when unknown."""
    if isinstance(expr, Lit):
        value = expr.value
        if isinstance(value, bool):
            return SQLType.BOOLEAN
        if isinstance(value, int):
            return SQLType.INTEGER
        if isinstance(value, float):
            return SQLType.REAL
        if isinstance(value, str):
            return SQLType.TEXT
        return None
    if isinstance(expr, Col):
        _, sqltype = env.resolve(expr.table, expr.name, having)
        return sqltype
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return SQLType.BOOLEAN
        return infer_type(expr.operand, env, having)
    if isinstance(expr, BinOp):
        if expr.op == "||":
            return SQLType.TEXT
        if expr.op in _COMPARISONS or expr.op in ("AND", "OR", "IS", "IS NOT"):
            return SQLType.BOOLEAN
        if expr.op in _ARITHMETIC:
            left = infer_type(expr.left, env, having)
            right = infer_type(expr.right, env, having)
            if expr.op == "/":
                return SQLType.REAL
            if SQLType.REAL in (left, right):
                return SQLType.REAL
            if left is SQLType.INTEGER and right is SQLType.INTEGER:
                return SQLType.INTEGER
            return None
        return None
    if isinstance(expr, Func):
        return _function_type(expr, env, having)
    return None


def _function_type(
    expr: Func, env: TypeEnv, having: bool
) -> SQLType | None:
    name = expr.name.upper()
    if name == "COUNT":
        return SQLType.INTEGER
    if name == "AVG":
        return SQLType.REAL
    if name in ("SUM", "MIN", "MAX"):
        if len(expr.args) == 1 and not isinstance(expr.args[0], Star):
            return infer_type(expr.args[0], env, having)
        return None
    if name in _REAL_UDFS:
        return SQLType.REAL
    if name.startswith("MACRO_"):
        return SQLType.BOOLEAN  # compiled HAVING macros yield booleans
    return None


# -- environment construction -------------------------------------------------


def build_env(plan, engine) -> TypeEnv:
    """The column/type environment ``plan`` executes in on ``engine``."""
    env = TypeEnv()
    for ref in plan.windows:
        try:
            schema = engine.stream(ref.stream).stream.schema
        except KeyError:
            continue  # unknown stream is reported separately
        for column in schema.columns:
            env.add_column(ref.alias, column.name, column.type)
        for computed in ref.computed:
            env.add_column(
                ref.alias, computed.name, infer_type(computed.expr, env)
            )
    for static in plan.statics:
        for name, sqltype in _static_output_types(static, engine).items():
            env.add_column(static.alias, name, sqltype)
    if plan.aggregate is not None:
        agg = plan.aggregate
        for expr, name in zip(agg.group_by, agg.group_names):
            env.outputs[name] = infer_type(expr, env)
        for call in agg.calls:
            fn = Func(
                call.function,
                (call.argument,) if call.argument is not None else (),
            )
            env.outputs[call.output_name] = _function_type(fn, env, False)
    else:
        for item in plan.projection:
            env.outputs[item.name] = infer_type(item.expr, env)
    return env


def _static_output_types(static, engine) -> dict[str, SQLType | None]:
    """Output column name -> type for one static relation's SQL."""
    try:
        database = engine.database(static.source)
        query = parse_sql(static.sql)
    except Exception:
        return {}
    selects = (
        [query] if isinstance(query, SelectQuery) else list(query.selects)
    )
    if not selects or not isinstance(selects[0], SelectQuery):
        return {}
    select = selects[0]  # UNION branches share output names and shapes

    # table env of the static SQL itself (bare tables of one database)
    tables: dict[str, dict[str, SQLType | None]] = {}

    def visit(item) -> None:
        from ..sql import BaseTable, Join, SubSelect

        if isinstance(item, Join):
            visit(item.left)
            visit(item.right)
        elif isinstance(item, BaseTable):
            table = database.schema.tables.get(item.name)
            if table is not None:
                tables[item.alias or item.name] = {
                    c.name: c.type for c in table.columns
                }
        elif isinstance(item, SubSelect):
            pass  # nested subselects type as unknown

    for item in select.from_:
        visit(item)

    local = TypeEnv()
    for alias, columns in tables.items():
        for name, sqltype in columns.items():
            local.add_column(alias, name, sqltype)

    out: dict[str, SQLType | None] = {}
    for item in select.select:
        if isinstance(item.expr, Star):
            target = item.expr.table
            for alias, columns in tables.items():
                if target is not None and alias != target:
                    continue
                out.update(columns)
            continue
        name = item.alias or (
            item.expr.name if isinstance(item.expr, Col) else print_expr(item.expr)
        )
        out[name] = infer_type(item.expr, local)
    return out


# -- checks -------------------------------------------------------------------


def _iter_binops(expr: Expr):
    if isinstance(expr, BinOp):
        yield expr
        yield from _iter_binops(expr.left)
        yield from _iter_binops(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _iter_binops(expr.operand)
    elif isinstance(expr, Func):
        for arg in expr.args:
            yield from _iter_binops(arg)


def _incompatible(a: SQLType | None, b: SQLType | None) -> bool:
    """Only flag the unambiguous case: text against a number."""
    return (a is SQLType.TEXT and b in _NUMERIC) or (
        b is SQLType.TEXT and a in _NUMERIC
    )


def check_types(plan, engine, report: AnalysisReport) -> TypeEnv:
    """Reference + comparison/arithmetic typing over every plan expression."""
    env = build_env(plan, engine)
    source = plan.source

    for ref in plan.windows:
        try:
            engine.stream(ref.stream)
        except KeyError:
            known = sorted(engine.stream_names)
            report.add(
                "ANA002",
                Severity.ERROR,
                f"unknown stream {ref.stream!r} (registered: {known})",
                span=find_span(source, ref.stream),
                hint="register the stream or fix the FROM STREAM clause",
            )

    contexts: list[tuple[Expr, bool, str]] = []
    for predicate in plan.join_predicates:
        contexts.append((predicate, False, "join predicate"))
    for predicate in plan.filters:
        contexts.append((predicate, False, "filter"))
    if plan.aggregate is not None:
        for expr in plan.aggregate.group_by:
            contexts.append((expr, False, "GROUP BY key"))
        for call in plan.aggregate.calls:
            if call.argument is not None:
                contexts.append(
                    (call.argument, False, f"{call.function} argument")
                )
            for role, qualified in call.argument_columns:
                alias, _, name = qualified.partition(".")
                found, _ = (
                    env.resolve(alias, name)
                    if name
                    else env.resolve(None, alias)
                )
                if not found:
                    report.add(
                        "ANA001",
                        Severity.ERROR,
                        f"unknown column {qualified!r} bound to "
                        f"{call.function} role {role!r}",
                        span=find_span(source, qualified, name or alias),
                        hint=_column_hint(env, alias if name else None),
                    )
        for expr in plan.aggregate.having:
            contexts.append((expr, True, "HAVING predicate"))
    else:
        for item in plan.projection:
            contexts.append((item.expr, False, f"projection {item.name!r}"))

    for expr, having, where in contexts:
        for column in expr_columns(expr):
            found, _ = env.resolve(column.table, column.name, having)
            if not found:
                qualified = (
                    f"{column.table}.{column.name}"
                    if column.table
                    else column.name
                )
                known_alias = column.table is None or column.table in env.aliases
                report.add(
                    "ANA001" if known_alias else "ANA002",
                    Severity.ERROR,
                    f"unknown {'column' if known_alias else 'alias'} "
                    f"{qualified!r} in {where}",
                    span=find_span(source, qualified, column.name),
                    hint=_column_hint(env, column.table),
                )
        for binop in _iter_binops(expr):
            if as_equi_join(binop) is not None:
                continue  # equi-join keys get the dedicated ANA004 check
            left = infer_type(binop.left, env, having)
            right = infer_type(binop.right, env, having)
            if binop.op in _COMPARISONS and _incompatible(left, right):
                report.add(
                    "ANA003",
                    Severity.ERROR,
                    f"type mismatch in {where}: "
                    f"{print_expr(binop)!r} compares {_name(left)} "
                    f"against {_name(right)}",
                    span=find_span(source, print_expr(binop), print_expr(binop.right)),
                    hint="cast one side or compare against a matching literal",
                )
            elif binop.op in _ARITHMETIC and (
                left is SQLType.TEXT or right is SQLType.TEXT
            ):
                report.add(
                    "ANA003",
                    Severity.ERROR,
                    f"type mismatch in {where}: arithmetic "
                    f"{print_expr(binop)!r} over a {SQLType.TEXT} operand",
                    span=find_span(source, print_expr(binop)),
                    hint="use || for concatenation or a numeric column",
                )

    for predicate in plan.join_predicates:
        _check_join_key(plan, predicate, env, report)
    return env


def _check_join_key(plan, predicate, env: TypeEnv, report: AnalysisReport) -> None:
    decomposed = as_equi_join(predicate)
    if decomposed is None:
        return
    alias_a, col_a, alias_b, col_b = decomposed
    found_a, type_a = env.resolve(alias_a, col_a)
    found_b, type_b = env.resolve(alias_b, col_b)
    if not (found_a and found_b):
        return  # unresolved references already reported
    if _incompatible(type_a, type_b):
        stream_aliases = {w.alias for w in plan.windows}
        kind = (
            "stream-stream"
            if alias_a in stream_aliases and alias_b in stream_aliases
            else "stream-static"
        )
        report.add(
            "ANA004",
            Severity.ERROR,
            f"incompatible {kind} join key types: "
            f"{alias_a}.{col_a} is {_name(type_a)} but "
            f"{alias_b}.{col_b} is {_name(type_b)} — the equi-join can "
            "never match",
            span=find_span(
                plan.source, f"{alias_a}.{col_a} = {alias_b}.{col_b}",
                f"{alias_a}.{col_a}",
            ),
            hint="join on columns of the same type (or map through a cast)",
        )


def _name(sqltype: SQLType | None) -> str:
    return str(sqltype) if sqltype is not None else "unknown"


def _column_hint(env: TypeEnv, alias: str | None) -> str:
    if alias is not None and alias in env.aliases:
        return f"columns of {alias!r}: {sorted(env.aliases[alias])}"
    if alias is not None:
        return f"known aliases: {sorted(env.aliases)}"
    available = sorted(
        {c for columns in env.aliases.values() for c in columns}
        | set(env.outputs)
    )
    return f"known columns: {available}"
