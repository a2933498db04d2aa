"""The SQL(+) query planner: a parsed SELECT block -> a continuous plan.

Every :class:`~repro.exastream.plan.ContinuousPlan` is built here:
gateway text arrives through :func:`plan_sql`, and the STARQL2SQL(+)
translator hands :func:`plan_select` the SQL(+) query it emits.

"The system's query planner is responsible for choosing an optimal plan
depending on the query, the available stream/static data sources, and the
execution environment."  Planning decisions made here:

* stream table functions (``timeSlidingWindow``/``wCache``) become
  windowed stream scans that share the engine's window cache;
* bare tables are located in the attached static databases and read once;
* WHERE conjunctions split into equi-join predicates vs residual filters
  (the runtime pushes single-source filters below joins); an equality
  between an expression over one windowed stream and a column of
  another input (``('http://…/sensor/' || w.sid) = st.sensor``) becomes
  a computed column of that window plus an equi-join, so it runs as a
  hash join rather than a filter over a cross product; for plans
  joining two windowed streams the direct stream-stream equi-keys are
  carried to the runtimes (``ContinuousPlan.stream_join_keys`` →
  :class:`~repro.exastream.plan.PaneJoinSpec`) so the symmetric-hash
  pane join and the recompute hash join key their tables identically;
* GROUP BY blocks become aggregation specs, mapping SQL aggregate
  functions and registered sequence UDFs onto the engine's aggregate
  stage (aggregates without GROUP BY form one whole-window group);
* every plan is classified up front as PANE_INCREMENTAL / PANE_JOIN /
  RECOMPUTE and PARTITIONED / PARTIAL / SINGLETON, so runtimes and the
  scheduler see both decisions at registration.  Windowed streams of
  one plan may use *different* range/slide grids — window instances
  pair across streams by window id on each stream's own pulse grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ReproError
from ..sql import (
    BaseTable,
    BinOp,
    Col,
    Expr,
    Func,
    Join,
    Lit,
    Query,
    SelectQuery,
    Star,
    SubSelect,
    TableExpr,
    TableFunction,
    UnaryOp,
    parse_sql,
    print_expr,
    print_query,
)
from ..streams import WindowSpec
from .partial_agg import (
    IncrementalDecision,
    IncrementalMode,
    analyze_incremental,
)
from .plan import (
    AggregateCall,
    AggregateSpec,
    ContinuousPlan,
    OutputColumn,
    StaticRef,
    WindowedStreamRef,
    as_equi_join,
    expr_columns,
)
from .sharding import analyze_partitioning

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import StreamEngine

__all__ = ["plan_sql", "plan_select", "costed_plan", "PlanningError"]

_SQL_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_STREAM_FUNCTIONS = {"timeslidingwindow", "wcache"}


class PlanningError(ReproError, ValueError):
    """Raised when SQL(+) text cannot be planned as a continuous query."""


def plan_sql(
    text: str,
    engine: StreamEngine,
    name: str | None = None,
    start: float | None = None,
) -> ContinuousPlan:
    """Parse and plan SQL(+) text against an engine's catalogs.

    ``start`` is the pulse anchor (STARQL's ``PULSE ... START``), which
    SQL(+) has no spelling for.
    """
    query = parse_sql(text)
    if not isinstance(query, SelectQuery):
        raise PlanningError("continuous queries must be single SELECT blocks")
    plan = plan_select(query, engine, name=name, start=start)
    plan.source = text
    return plan


def plan_select(
    query: SelectQuery,
    engine: StreamEngine,
    name: str | None = None,
    start: float | None = None,
) -> ContinuousPlan:
    """Plan a parsed SELECT block as a :class:`ContinuousPlan`."""
    scans: list[tuple[str, WindowSpec, str]] = []  # stream, grid, alias
    statics: list[StaticRef] = []
    conditions: list[Expr] = list(query.where)

    def visit(table: TableExpr) -> None:
        if isinstance(table, Join):
            visit(table.left)
            visit(table.right)
            if table.condition is not None:
                conditions.append(table.condition)
            return
        if isinstance(table, TableFunction):
            fn_name = table.name.lower()
            if fn_name not in _STREAM_FUNCTIONS:
                raise PlanningError(f"unknown table function {table.name!r}")
            if len(table.args) != 3:
                raise PlanningError(
                    f"{table.name} expects (stream, range, slide)"
                )
            stream_arg, range_arg, slide_arg = table.args
            if not isinstance(stream_arg, BaseTable):
                raise PlanningError("first window argument must be a stream name")
            if not isinstance(range_arg, Lit) or not isinstance(slide_arg, Lit):
                raise PlanningError("window range/slide must be literals")
            scans.append((
                stream_arg.name,
                WindowSpec(float(range_arg.value), float(slide_arg.value)),
                table.alias or stream_arg.name,
            ))
            return
        if isinstance(table, BaseTable):
            source = engine.locate_table(table.name)
            if source is None:
                if table.name in engine.stream_names:
                    raise PlanningError(
                        f"stream {table.name!r} must be wrapped in "
                        "timeSlidingWindow(...)"
                    )
                raise PlanningError(f"unknown table {table.name!r}")
            alias = table.alias or table.name
            statics.append(
                StaticRef(
                    source=source,
                    sql=f"SELECT * FROM {table.name}",
                    alias=alias,
                )
            )
            return
        if isinstance(table, SubSelect):
            source = _static_subselect_source(table.query, engine)
            statics.append(
                StaticRef(
                    source=source,
                    sql=print_query(table.query),
                    alias=table.alias,
                )
            )
            return
        raise PlanningError(f"unsupported FROM item {table!r}")

    for item in query.from_:
        visit(item)
    if not scans:
        raise PlanningError("a continuous query needs at least one stream window")
    aliases = [alias for _, _, alias in scans] + [s.alias for s in statics]
    if len(set(aliases)) != len(aliases):
        raise PlanningError(f"duplicate FROM aliases in {aliases}")

    #: window alias -> lifted key expression -> its computed column
    lifted: dict[str, dict[Expr, str]] = {alias: {} for _, _, alias in scans}
    join_predicates: list[Expr] = []
    filters: list[Expr] = []
    for predicate in conditions:
        predicate = _lift_key(predicate, lifted)
        if as_equi_join(predicate) is not None:
            join_predicates.append(predicate)
        else:
            filters.append(predicate)
    windows = [
        WindowedStreamRef(stream, spec, alias, tuple(
            OutputColumn(expr, column)
            for expr, column in lifted[alias].items()
        ))
        for stream, spec, alias in scans
    ]

    aggregate = _plan_aggregation(query, engine)
    projection: list[OutputColumn] = []
    if aggregate is None:
        for item in query.select:
            if isinstance(item.expr, Star):
                raise PlanningError(
                    "SELECT * is not supported in continuous queries; "
                    "project explicit columns"
                )
            projection.append(
                OutputColumn(item.expr, item.alias or print_expr(item.expr))
            )

    plan = ContinuousPlan(
        name=name or "",
        windows=windows,
        statics=statics,
        join_predicates=join_predicates,
        filters=filters,
        projection=projection,
        aggregate=aggregate,
        start=start,
        distinct=query.distinct,
    )
    # Mark operators partitionable vs merge-requiring at plan time, so
    # the scheduler and the engine see the classification up front;
    # likewise classify PANE-INCREMENTAL vs RECOMPUTE for the runtimes.
    plan.partitioning = analyze_partitioning(plan, engine)
    plan.incremental = analyze_incremental(plan)
    return plan


def costed_plan(plan: ContinuousPlan, engine, scheduler=None):
    """Apply the registration-time costed tier decision (adaptive only).

    When ``engine`` carries an estimator (``adaptive=True``), cost every
    eligible tier of ``plan`` against the statistics catalog, attach the
    resulting :class:`~repro.exastream.estimator.PlanChoice` to
    ``plan.choice``, and — the one *applied* decision — override
    ``plan.incremental`` with a RECOMPUTE demotion when the pane tier's
    estimated cost cannot cover its overhead.  Demote-only: the analyzed
    ceiling is never exceeded, so whichever tier the estimator picks is
    one of the byte-identical tiers the differential harness proves
    equal.  Returns the choice (``None`` on non-adaptive engines).
    """
    estimator = engine.estimator
    if estimator is None:
        return None
    from .estimator import cost_plan

    choice = cost_plan(plan, estimator, scheduler=scheduler, name=plan.name)
    plan.choice = choice
    if choice.chosen is IncrementalMode.RECOMPUTE and (
        choice.ceiling is not IncrementalMode.RECOMPUTE
    ):
        plan.incremental = IncrementalDecision(
            mode=IncrementalMode.RECOMPUTE,
            reason=f"cost-based: {choice.reason}",
        )
    else:
        # Re-costing (e.g. re-registration of a prepared plan) must be
        # able to restore the ceiling a previous costing demoted.
        plan.incremental = analyze_incremental(plan)
    return choice


def _static_subselect_source(query: Query, engine: StreamEngine) -> str:
    """Locate the database a static subselect reads from."""
    tables: list[str] = []

    def collect(q: Query) -> None:
        if isinstance(q, SelectQuery):
            for item in q.from_:
                _collect_tables(item, tables)
        else:
            for select in q.selects:
                collect(select)

    collect(query)
    for table in tables:
        source = engine.locate_table(table)
        if source is not None:
            return source
    raise PlanningError(f"cannot locate static tables {tables!r} in any database")


def _collect_tables(table: TableExpr, out: list[str]) -> None:
    if isinstance(table, BaseTable):
        out.append(table.name)
    elif isinstance(table, Join):
        _collect_tables(table.left, out)
        _collect_tables(table.right, out)
    elif isinstance(table, SubSelect):
        if isinstance(table.query, SelectQuery):
            for item in table.query.from_:
                _collect_tables(item, out)


def _lift_key(predicate: Expr, lifted: dict[str, dict[Expr, str]]) -> Expr:
    """``<expression over one windowed alias> = other.column`` (either
    way round) as the equi-join ``alias.#n = other.column``.

    ``#n`` is a computed column of that window, recorded in ``lifted``
    (one per distinct expression; the name is not a SQL(+) identifier,
    so it cannot shadow a stream column).  Any other predicate comes
    back unchanged.
    """
    if not (isinstance(predicate, BinOp) and predicate.op == "="):
        return predicate
    for expr, column in (
        (predicate.left, predicate.right), (predicate.right, predicate.left)
    ):
        if isinstance(expr, Col) or not isinstance(column, Col):
            continue
        tables = {c.table for c in expr_columns(expr)}
        if len(tables) != 1 or column.table in tables | {None}:
            continue
        (alias,) = tables
        if alias not in lifted:  # not a windowed stream
            continue
        names = lifted[alias]
        key = Col(alias, names.setdefault(expr, f"#{len(names)}"))
        if expr is predicate.left:
            return BinOp("=", key, column)
        return BinOp("=", column, key)
    return predicate


def _contains_aggregate(expr: Expr, engine: StreamEngine) -> bool:
    if isinstance(expr, Func):
        if expr.name.upper() in _SQL_AGGREGATES:
            return True
        if engine.udfs.sequence(expr.name) is not None:
            return True
        return any(_contains_aggregate(a, engine) for a in expr.args)
    if isinstance(expr, BinOp):
        return _contains_aggregate(expr.left, engine) or _contains_aggregate(
            expr.right, engine
        )
    if isinstance(expr, UnaryOp):
        return _contains_aggregate(expr.operand, engine)
    return False


def _plan_aggregation(
    query: SelectQuery, engine: StreamEngine
) -> AggregateSpec | None:
    has_aggregate = any(
        _contains_aggregate(item.expr, engine) for item in query.select
    )
    if not query.group_by and not has_aggregate:
        if query.having:
            raise PlanningError("HAVING requires aggregation")
        return None

    group_exprs = tuple(query.group_by)
    group_printed = [print_expr(e) for e in group_exprs]
    group_names: list[str] = []
    calls: list[AggregateCall] = []
    call_by_text: dict[str, str] = {}

    for item in query.select:
        expr = item.expr
        printed = print_expr(expr)
        if printed in group_printed:
            group_names.append(item.alias or _default_name(expr))
            continue
        if not isinstance(expr, Func):
            raise PlanningError(
                f"non-aggregated select item {printed!r} outside GROUP BY"
            )
        calls.append(_plan_call(expr, item.alias, engine))
        call_by_text[printed] = calls[-1].output_name

    # Pad group names when some group keys are not projected.
    while len(group_names) < len(group_exprs):
        group_names.append(f"g{len(group_names)}")

    having = tuple(
        _rewrite_having(p, call_by_text, engine) for p in query.having
    )
    return AggregateSpec(
        group_by=group_exprs,
        group_names=tuple(group_names),
        calls=tuple(calls),
        having=having,
    )


def _default_name(expr: Expr) -> str:
    if isinstance(expr, Col):
        return expr.name
    return print_expr(expr)


def _plan_call(
    expr: Func, alias: str | None, engine: StreamEngine
) -> AggregateCall:
    fn_name = expr.name.upper()
    output = alias or print_expr(expr)
    if fn_name in _SQL_AGGREGATES:
        if len(expr.args) == 1 and isinstance(expr.args[0], Star):
            return AggregateCall(fn_name, output, argument=None)
        if len(expr.args) != 1:
            raise PlanningError(f"{fn_name} takes exactly one argument")
        return AggregateCall(fn_name, output, argument=expr.args[0])
    udf = engine.udfs.sequence(fn_name)
    if udf is None:
        raise PlanningError(f"unknown aggregate function {expr.name!r}")
    if len(expr.args) != len(udf.arg_names):
        raise PlanningError(
            f"{udf.name} expects {len(udf.arg_names)} column arguments"
        )
    mapping = []
    for role, arg in zip(udf.arg_names, expr.args):
        if not isinstance(arg, Col):
            raise PlanningError(
                f"sequence UDF {udf.name} arguments must be plain columns"
            )
        qualified = f"{arg.table}.{arg.name}" if arg.table else arg.name
        mapping.append((role, qualified))
    return AggregateCall(udf.name, output, argument_columns=tuple(mapping))


def _rewrite_having(
    expr: Expr, call_by_text: dict[str, str], engine: StreamEngine
) -> Expr:
    """Replace aggregate calls in HAVING by their output column names."""
    printed = print_expr(expr)
    if printed in call_by_text:
        return Col(None, call_by_text[printed])
    if isinstance(expr, Func) and _contains_aggregate(expr, engine):
        raise PlanningError(
            f"HAVING aggregate {printed!r} must also appear in SELECT"
        )
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _rewrite_having(expr.left, call_by_text, engine),
            _rewrite_having(expr.right, call_by_text, engine),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite_having(expr.operand, call_by_text, engine))
    return expr
