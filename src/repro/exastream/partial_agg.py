"""Shared partial-aggregation planning: decompose, combine, classify.

Two execution subsystems split one aggregation into combinable partials:

* **sharding** (space): each shard evaluates partial aggregates over its
  slice of the tuples and a merge operator recombines them by group key
  (:mod:`repro.exastream.sharding`, PARTIAL mode);
* **panes** (time): each pane of a sliding window is evaluated once and
  every window combines the partial state of its constituent panes
  (:mod:`repro.exastream.engine`, PANE-INCREMENTAL mode).

Both need the same planning machinery — which aggregate calls are
combinable, the ``AVG -> SUM + COUNT`` rewrite, the final-call mapping
from partials back to outputs, and the post-combine HAVING / canonical
ordering / DISTINCT tail — so it lives here and is imported by both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..sql import Expr
from ..streams import PanePlan, pane_plan
from .operators import Relation, compile_kernel
from .plan import AggregateCall, ContinuousPlan, PaneJoinSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .udf import UDFRegistry

__all__ = [
    "COMBINABLE",
    "FinalCall",
    "CombinerSpec",
    "decompose_calls",
    "plan_combiner",
    "combine_partials",
    "finalize_rows",
    "canonical_row_key",
    "IncrementalMode",
    "IncrementalDecision",
    "analyze_incremental",
]

#: SQL aggregates with an exact partial form (sequence UDFs read the whole
#: window's tuple sequence at once and never decompose).
COMBINABLE = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


# -- canonical result ordering ------------------------------------------------


def _cell_key(value: Any) -> tuple:
    if value is None:
        return (0, False)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    return (4, repr(value))


def canonical_row_key(row: tuple) -> tuple:
    """A total order over heterogeneous result rows.

    Used by the engine's aggregation stage, the shard merge operator and
    the pane combiner, so grouped output has one deterministic order
    regardless of tuple arrival order, shard count or execution mode.
    """
    return tuple(_cell_key(v) for v in row)


# -- partial decomposition ----------------------------------------------------


@dataclass(frozen=True)
class FinalCall:
    """How one output aggregate is computed from partials."""

    function: str  # COUNT | SUM | MIN | MAX | AVG
    output_name: str
    partial_indexes: tuple[int, ...]  # offsets into the partial call list


@dataclass(frozen=True)
class CombinerSpec:
    """The recombination operator for partial aggregates."""

    group_arity: int
    finals: tuple[FinalCall, ...]
    out_columns: tuple[str, ...]
    having: tuple[Expr, ...]
    distinct: bool


def decompose_calls(
    calls: Sequence[AggregateCall],
) -> tuple[list[AggregateCall], list[FinalCall]]:
    """Rewrite aggregate calls into partial calls plus final mappings.

    ``AVG`` decomposes into a SUM and a COUNT partial; the other
    combinable aggregates are their own partial.  Raises ``ValueError``
    on non-combinable calls — callers classify first.
    """
    partial_calls: list[AggregateCall] = []
    finals: list[FinalCall] = []
    for i, call in enumerate(calls):
        fn = call.function.upper()
        if fn not in COMBINABLE:
            raise ValueError(f"aggregate {fn!r} has no partial form")
        if fn == "AVG":
            partial_calls.append(
                AggregateCall("SUM", f"__p{i}_sum", argument=call.argument)
            )
            partial_calls.append(
                AggregateCall("COUNT", f"__p{i}_cnt", argument=call.argument)
            )
            finals.append(
                FinalCall(
                    "AVG",
                    call.output_name,
                    (len(partial_calls) - 2, len(partial_calls) - 1),
                )
            )
        else:
            partial_calls.append(
                AggregateCall(fn, f"__p{i}", argument=call.argument)
            )
            finals.append(
                FinalCall(fn, call.output_name, (len(partial_calls) - 1,))
            )
    return partial_calls, finals


def plan_combiner(
    plan: ContinuousPlan,
) -> tuple[list[AggregateCall], CombinerSpec]:
    """The partial calls of ``plan``'s aggregation and the operator that
    recombines them — shared by the shard merge and both pane tiers."""
    aggregate = plan.aggregate
    assert aggregate is not None
    partial_calls, finals = decompose_calls(aggregate.calls)
    combiner = CombinerSpec(
        group_arity=len(aggregate.group_names),
        finals=tuple(finals),
        out_columns=tuple(plan.output_names()),
        having=aggregate.having,
        distinct=plan.distinct,
    )
    return partial_calls, combiner


# -- recombination ------------------------------------------------------------


def _reduce(fn: str, acc: Any, value: Any) -> Any:
    if value is None:
        return acc
    if acc is None:
        return value
    if fn in ("SUM", "COUNT"):
        return acc + value
    if fn == "MIN":
        return min(acc, value)
    return max(acc, value)


def finalize_rows(
    rows: list[tuple],
    combiner: CombinerSpec,
    udfs: UDFRegistry | None = None,
    kernels=None,
) -> list[tuple]:
    """The shared post-combine tail: HAVING, canonical order, DISTINCT.

    Applies the same steps, in the same order, as the engine's
    full-recompute aggregation stage, so combined output is
    indistinguishable from single-pass output.  ``kernels`` lets a
    runtime substitute its memoised ``(kind, exprs, relation) ->
    kernel`` builder for :func:`compile_kernel`.
    """
    if combiner.having:
        relation = Relation(list(combiner.out_columns), rows)
        if kernels is None:
            having = compile_kernel("filter", combiner.having, relation, udfs)
        else:
            having = kernels("filter", combiner.having, relation)
        rows = having(rows)
    rows.sort(key=canonical_row_key)
    if combiner.distinct:
        rows = list(dict.fromkeys(rows))
    return rows


def combine_partials(
    shard_rows: Sequence[Sequence[tuple]],
    combiner: CombinerSpec,
    udfs: UDFRegistry | None = None,
) -> list[tuple]:
    """Recombine per-shard partial aggregate rows into final rows.

    Shards are folded in shard order (deterministic), HAVING applies to
    the combined relation, and the output is canonically ordered.
    """
    arity = combiner.group_arity
    n_partials = sum(len(f.partial_indexes) for f in combiner.finals)
    groups: dict[tuple, list[Any]] = {}
    reducers: list[str] = []
    for final in combiner.finals:
        if final.function == "AVG":
            reducers += ["SUM", "COUNT"]
        else:
            reducers.append(final.function)
    for rows in shard_rows:
        for row in rows:
            key = row[:arity]
            acc = groups.get(key)
            if acc is None:
                acc = [None] * n_partials
                groups[key] = acc
            for j in range(n_partials):
                acc[j] = _reduce(reducers[j], acc[j], row[arity + j])
    out: list[tuple] = []
    for key, acc in groups.items():
        values = list(key)
        offset = 0
        for final in combiner.finals:
            if final.function == "AVG":
                total, count = acc[offset], acc[offset + 1]
                values.append(total / count if count else None)
                offset += 2
            elif final.function == "COUNT":
                values.append(acc[offset] or 0)
                offset += 1
            else:
                values.append(acc[offset])
                offset += 1
        out.append(tuple(values))
    return finalize_rows(out, combiner, udfs)


# -- incremental classification -----------------------------------------------


class IncrementalMode(Enum):
    PANE_INCREMENTAL = "pane_incremental"
    PANE_JOIN = "pane_join"
    RECOMPUTE = "recompute"


@dataclass(frozen=True)
class IncrementalDecision:
    """Whether a plan's windows execute incrementally over panes.

    ``PANE_INCREMENTAL`` plans evaluate the per-pane pipeline (load,
    filter pushdown, stream-static join probe, partial aggregation)
    exactly once per pane and combine partials per window;
    ``PANE_JOIN`` plans (two windowed streams joined on equi-keys) keep
    per-pane hash tables on each side, probe new panes against the
    partner stream's live pane ring, and assemble each window from
    pane-pair join partials; ``RECOMPUTE`` plans run the classic
    window-at-a-time pipeline.  The decision is a *ceiling*: a
    pane-driven runtime still falls back to recompute per window on
    out-of-order batches or evicted panes, so output never depends on
    the mode.
    """

    mode: IncrementalMode
    reason: str = ""
    panes: PanePlan | None = None
    #: per-stream pane decompositions of a PANE_JOIN plan (the two
    #: streams may use different — mismatched — window grids)
    side_panes: tuple[PanePlan, PanePlan] | None = None
    #: the stream-stream equi-key layout of a PANE_JOIN plan
    join: PaneJoinSpec | None = None

    @property
    def is_incremental(self) -> bool:
        return self.mode is IncrementalMode.PANE_INCREMENTAL

    @property
    def is_pane_join(self) -> bool:
        return self.mode is IncrementalMode.PANE_JOIN


def analyze_incremental(plan: ContinuousPlan) -> IncrementalDecision:
    """Classify ``plan`` as PANE-INCREMENTAL, PANE-JOIN or RECOMPUTE.

    Pane decomposition requires a grouped aggregation of combinable
    calls (stream-static joins stay per-tuple and pane-local; with
    conjunctive predicates no filter can span panes).  One windowed
    stream classifies PANE_INCREMENTAL; two windowed streams joined by a
    direct equi-key classify PANE_JOIN when both window grids are
    pane-decomposable — stream-stream matches *can* span panes, which is
    exactly what the symmetric-hash pane join handles by probing every
    pane pair of the two live rings.  Plain projections recompute: their
    row order is part of the result.
    """
    recompute = IncrementalMode.RECOMPUTE
    if plan.aggregate is None:
        return IncrementalDecision(
            recompute, reason="projection row order must be preserved"
        )
    bad = [
        c.function.upper()
        for c in plan.aggregate.calls
        if c.function.upper() not in COMBINABLE
    ]
    if bad:
        return IncrementalDecision(
            recompute,
            reason=f"non-decomposable aggregates {sorted(set(bad))}",
        )
    if len(plan.windows) == 1:
        panes = pane_plan(plan.spec)
        if panes is None:
            return IncrementalDecision(
                recompute,
                reason=(
                    "window is not pane-decomposable "
                    "(no overlap, or gcd(range, slide) too fine)"
                ),
            )
        return IncrementalDecision(
            IncrementalMode.PANE_INCREMENTAL,
            reason=(
                f"combinable aggregates over {panes.panes_per_window} panes "
                f"per window ({panes.panes_per_slide} new per slide)"
            ),
            panes=panes,
        )
    if len(plan.windows) == 2:
        join = plan.stream_join_keys()
        if join is None:
            return IncrementalDecision(
                recompute,
                reason=(
                    "no direct stream-stream equi-join key "
                    "(symmetric-hash pane joins need one)"
                ),
            )
        left = pane_plan(plan.windows[0].spec)
        right = pane_plan(plan.windows[1].spec)
        if left is None or right is None:
            return IncrementalDecision(
                recompute,
                reason=(
                    "a joined stream's window is not pane-decomposable "
                    "(no overlap, or gcd(range, slide) too fine)"
                ),
            )
        return IncrementalDecision(
            IncrementalMode.PANE_JOIN,
            reason=(
                "symmetric-hash pane join over "
                f"{left.panes_per_window}x{right.panes_per_window} "
                "pane pairs per window"
            ),
            side_panes=(left, right),
            join=join,
        )
    return IncrementalDecision(
        recompute,
        reason="joins across more than two windowed streams recompute",
    )
