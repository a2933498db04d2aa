"""Continuous-query plans: the engine's intermediate representation.

A :class:`ContinuousPlan` is what the SQL(+) planner
(:func:`~repro.exastream.planner.plan_select`, the one place plans are
built) produces from a parsed query — the STARQL2SQL(+) translator's
emitted SQL(+) and gateway text alike.  It is a window-driven
SELECT-PROJECT-JOIN-AGGREGATE block:

* one or more *windowed streams* (all share the window/pulse grid),
* zero or more *static relations* (SQL evaluated once per deployment);
  one keyed by a single window is that window's *lookup*
  (:meth:`ContinuousPlan.lookups`),
* equi-join predicates + residual filters,
* either a plain projection or a grouped aggregation whose aggregate
  functions may be sequence UDFs (HAVING macros).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sql import BinOp, Col, Expr, Func, UnaryOp
from ..streams import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .estimator.cost import PlanChoice
    from .mqo.signature import PlanSignature
    from .partial_agg import IncrementalDecision
    from .sharding import ShardingDecision

__all__ = [
    "WindowedStreamRef",
    "StaticRef",
    "AggregateCall",
    "AggregateSpec",
    "OutputColumn",
    "ContinuousPlan",
    "PaneJoinSpec",
    "expr_columns",
    "expr_aliases",
    "as_equi_join",
]


def expr_columns(expr: Expr) -> Iterator[Col]:
    """Every column reference inside an expression."""
    if isinstance(expr, Col):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_columns(expr.left)
        yield from expr_columns(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from expr_columns(expr.operand)
    elif isinstance(expr, Func):
        for arg in expr.args:
            yield from expr_columns(arg)


def expr_aliases(expr: Expr) -> set[str]:
    """All table aliases a predicate references."""
    return {column.table for column in expr_columns(expr) if column.table}


def as_equi_join(expr: Expr) -> tuple[str, str, str, str] | None:
    """Decompose ``a.x = b.y`` into (alias_a, col_a, alias_b, col_b)."""
    if (
        isinstance(expr, BinOp)
        and expr.op == "="
        and isinstance(expr.left, Col)
        and isinstance(expr.right, Col)
        and expr.left.table
        and expr.right.table
        and expr.left.table != expr.right.table
    ):
        return (expr.left.table, expr.left.name, expr.right.table, expr.right.name)
    return None


@dataclass(frozen=True)
class PaneJoinSpec:
    """The equi-key layout of a two-windowed-stream join.

    ``left_keys``/``right_keys`` are the qualified join columns in the
    exact order the runtime's join pipeline collects them, so both the
    recompute hash join and the symmetric-hash pane join key their hash
    tables identically.
    """

    left_alias: str
    right_alias: str
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]


@dataclass(frozen=True)
class WindowedStreamRef:
    """One input stream with its window parameters (``FROM STREAM ...``).

    ``computed`` adds derived columns to every window tuple as it is
    scanned (e.g. the IRI-template string identifying the measured sensor,
    so ontology-level joins become plain equi-joins).
    """

    stream: str
    spec: WindowSpec
    alias: str
    computed: tuple[OutputColumn, ...] = ()

    @property
    def reader_key(self) -> str:
        """Cache identity: same stream + same window grid share batches."""
        return (
            f"{self.stream}[{self.spec.range_seconds}/"
            f"{self.spec.slide_seconds}]"
        )


@dataclass(frozen=True)
class StaticRef:
    """One static relation (``STATIC DATA ...``): SQL over a database."""

    source: str  # database name
    sql: str
    alias: str


@dataclass(frozen=True)
class AggregateCall:
    """One output of an aggregation.

    ``function`` is COUNT/SUM/AVG/MIN/MAX or a registered sequence UDF
    name; ``argument_columns`` maps the UDF's expected column names to
    qualified plan columns (sequence UDFs read several columns at once).
    """

    function: str
    output_name: str
    argument: Expr | None = None
    argument_columns: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AggregateSpec:
    """GROUP BY + aggregate calls + post-aggregation HAVING predicates."""

    group_by: tuple[Expr, ...]
    group_names: tuple[str, ...]
    calls: tuple[AggregateCall, ...]
    having: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class OutputColumn:
    """A plain projection output."""

    expr: Expr
    name: str


@dataclass
class ContinuousPlan:
    """A full continuous query ready for execution."""

    name: str
    windows: list[WindowedStreamRef]
    statics: list[StaticRef] = field(default_factory=list)
    join_predicates: list[Expr] = field(default_factory=list)
    filters: list[Expr] = field(default_factory=list)
    projection: list[OutputColumn] = field(default_factory=list)
    aggregate: AggregateSpec | None = None
    start: float | None = None  # PULSE START anchor
    distinct: bool = False
    #: sharding classification (operators marked partitionable vs
    #: merge-requiring), set by the planner
    partitioning: ShardingDecision | None = field(
        default=None, compare=False, repr=False
    )
    #: incremental-execution classification (PANE-INCREMENTAL vs
    #: RECOMPUTE), set by the planner; an adaptive engine's costing may
    #: demote it at registration
    incremental: IncrementalDecision | None = field(
        default=None, compare=False, repr=False
    )
    #: what :attr:`signature` stores (``None``: not analyzed yet;
    #: ``False``: analyzed and ineligible)
    mqo_signature: PlanSignature | bool | None = field(
        default=None, compare=False, repr=False
    )
    #: the query text this plan was planned/translated from (SQL(+) or
    #: STARQL), kept for diagnostics so analyzer findings can point at a
    #: source span; never consulted by execution.
    source: str | None = field(default=None, compare=False, repr=False)
    #: the costed-plan explain record (``None`` unless an adaptive
    #: engine costed this plan at registration) — see
    #: :class:`repro.exastream.estimator.PlanChoice`.  Advisory plus
    #: the applied tier decision; never read by the executor itself.
    choice: PlanChoice | None = field(default=None, compare=False, repr=False)

    @property
    def signature(self) -> PlanSignature | None:
        """The shared-subplan signature of this plan's pipeline prefix
        (``None``: ineligible), computed on first read by
        :func:`repro.exastream.mqo.plan_signature` and kept — every
        layer that needs it (sharing analysis, bind, scheduler
        placement, the sharing indexes) reads it here."""
        if self.mqo_signature is None:
            # signature.py builds on this module's plan classes
            from .mqo.signature import plan_signature

            self.mqo_signature = plan_signature(self) or False
        return self.mqo_signature or None

    @property
    def spec(self) -> WindowSpec:
        """The first (driving) stream's window spec.

        Streams of one plan may use different range/slide grids; window
        instances pair across streams by window id, each stream closing
        its own ``k``-th window on its own grid.
        """
        return self.windows[0].spec

    def static_partners(self) -> dict[str, list[str]]:
        """Static alias -> the window aliases an ``a.x = b.y`` predicate
        joins it to directly (in ``statics`` / ``windows`` order)."""
        partners: dict[str, set[str]] = {s.alias: set() for s in self.statics}
        windows = [w.alias for w in self.windows]
        for predicate in self.join_predicates:
            decomposed = as_equi_join(predicate)
            if decomposed is None:
                continue
            a, _, b, _ = decomposed
            if a in partners and b in windows:
                partners[a].add(b)
            if b in partners and a in windows:
                partners[b].add(a)
        return {
            static: [w for w in windows if w in found]
            for static, found in partners.items()
        }

    def lookups(self) -> dict[str, str]:
        """Static alias -> the window alias it is a *lookup* of.

        A static relation keyed by exactly one windowed stream describes
        that stream's tuples one at a time (a sensor's assembly, a
        turbine's model): the runtimes probe it as the window loads,
        before any stream-stream join.  A static keyed by two windows
        (or by none) is not a lookup and joins after them.
        """
        return {
            static: windows[0]
            for static, windows in self.static_partners().items()
            if len(windows) == 1
        }

    def stream_join_keys(self) -> PaneJoinSpec | None:
        """The equi-join keys between this plan's two streams.

        ``None`` unless the plan joins exactly two windowed streams
        through at least one ``a.x = b.y`` predicate whose sides are the
        two windows or their :meth:`lookups` (a lookup's columns travel
        with its window's tuples).  Key order mirrors the runtime join
        pipeline's collection order (iteration over the decomposable
        join predicates in plan order), which is what makes the
        symmetric-hash pane join reproduce the recompute hash join
        exactly.
        """
        if len(self.windows) != 2:
            return None
        left, right = self.windows[0].alias, self.windows[1].alias
        side = {left: left, right: right, **self.lookups()}
        left_keys: list[str] = []
        right_keys: list[str] = []
        for predicate in self.join_predicates:
            decomposed = as_equi_join(predicate)
            if decomposed is None:
                continue
            a, ac, b, bc = decomposed
            if side.get(a) == left and side.get(b) == right:
                left_keys.append(f"{a}.{ac}")
                right_keys.append(f"{b}.{bc}")
            elif side.get(b) == left and side.get(a) == right:
                left_keys.append(f"{b}.{bc}")
                right_keys.append(f"{a}.{ac}")
        if not left_keys:
            return None
        return PaneJoinSpec(left, right, tuple(left_keys), tuple(right_keys))

    def output_names(self) -> list[str]:
        """Column names of the produced result rows."""
        if self.aggregate is not None:
            return list(self.aggregate.group_names) + [
                c.output_name for c in self.aggregate.calls
            ]
        return [c.name for c in self.projection]

    def operator_count(self) -> int:
        """Rough operator count (scheduler load unit)."""
        return (
            len(self.windows)
            + len(self.statics)
            + len(self.join_predicates)
            + len(self.filters)
            + (1 if self.aggregate else 1)
        )
