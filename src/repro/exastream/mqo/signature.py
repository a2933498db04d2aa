"""Plan normalization: canonical signatures for shareable pipeline prefixes.

Unfolded continuous queries are highly regular — fifty variants of one
diagnostic task differ only in a threshold or an output name while their
*pipeline prefix* (windowed stream scan, computed columns, pushed
filters, stream-static joins, grouping) is structurally identical.  This
module canonicalizes that prefix into a signature string so the shared
pipeline runtime (:mod:`repro.exastream.mqo.runtime`) can detect overlap
across independently registered plans.

Two queries share iff their signatures are equal, so the signature must
capture **everything** that affects the prefix's output byte-for-byte:

* the streams (one or two), their window grids (range/slide *and* pulse
  anchor) and the ordered computed columns (they extend the scan schema
  in order);
* the ordered static relations (join order follows plan order, and join
  order determines output column order);
* the equi-join predicate *set* and the filter *set* — application order
  of conjunctive predicates cannot change the surviving rows or their
  relative order, so these sort canonically to widen sharing;
* for the aggregation tier (single-stream plans): the ordered GROUP BY
  expressions (they form the group-key tuple) and the ordered partial
  aggregate calls (they index the partial payload tuples);
* for two-stream join plans: one *side signature* per windowed stream —
  the side's scan, computed columns, pushed single-alias filters and
  static lookups — keying the symmetric-hash pane join's shared
  per-(side, pane) prefix relations and hash tables, shared across
  queries joining that stream even when their partner streams differ.

Aliases are normalized away (windowed streams become ``s0``/``s1``,
statics become ``t0``, ``t1``, … in plan order; each side's own stream
is ``s0`` within its side signature), so structurally equal prefixes
written with different aliases still share; the runtime translates
cached relation columns back into each subscriber's own aliases.

Everything *after* the prefix — final aggregation mapping, HAVING,
DISTINCT, projection, output names — is per-query residual work and is
deliberately excluded.

The signature is a function of the plan alone.  Which *rows* a static
input holds is decided at bind time (the static catalog materialises
afresh after a ``Database.insert``), so a binding shares under
:meth:`PlanSignature.over` — the signature qualified by the write
counters of the static relations it actually took.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...sql import BinOp, Col, Expr, Func, Lit, Star, UnaryOp
from ..partial_agg import COMBINABLE, decompose_calls
from ..plan import ContinuousPlan, expr_aliases

__all__ = [
    "PlanSignature",
    "SideSignature",
    "canonical_expr",
    "plan_signature",
]

#: canonical alias of the (first) windowed stream
STREAM_ALIAS = "s0"


def canonical_expr(expr: Expr, alias_map: dict[str, str]) -> str:
    """Render ``expr`` with table aliases rewritten through ``alias_map``.

    Mirrors :func:`repro.sql.print_expr` exactly (parenthesisation and
    spacing included) so two structurally equal expressions print
    identically; aliases absent from the map (e.g. ``None``-table
    references to aggregate output columns) pass through unchanged.
    """
    if isinstance(expr, Col):
        if expr.table:
            return f"{alias_map.get(expr.table, expr.table)}.{expr.name}"
        return expr.name
    if isinstance(expr, Lit):
        value = expr.value
        # repr() distinguishes 2 from 2.0 — their arithmetic differs
        return f"lit:{type(value).__name__}:{value!r}"
    if isinstance(expr, BinOp):
        left = canonical_expr(expr.left, alias_map)
        right = canonical_expr(expr.right, alias_map)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {canonical_expr(expr.operand, alias_map)})"
    if isinstance(expr, Func):
        inner = ", ".join(canonical_expr(a, alias_map) for a in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, Star):
        return "*"
    raise TypeError(f"cannot canonicalize expression {expr!r}")


@dataclass(frozen=True)
class SideSignature:
    """The sharing identity of one stream side of a windowed join.

    The side prefix is the per-pane work done *before* the stream-stream
    join: scan, computed columns, the side's pushed single-alias
    filters and the probes of its static lookups
    (:meth:`~repro.exastream.plan.ContinuousPlan.lookups`).  Queries
    with equal side keys produce the identical filtered pane relation —
    and therefore interchangeable per-pane join hash tables — for that
    stream, whatever they join it against.  ``alias_map`` maps the
    plan's real side alias to the canonical ``s0`` and its lookups to
    ``t0``, ``t1``, …; ``statics`` are the lookups' positions in
    ``plan.statics``.
    """

    key: str
    alias_map: dict[str, str]
    statics: tuple[int, ...] = ()

    def __hash__(self) -> int:  # alias_map is per-plan, not identity
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SideSignature):
            return NotImplemented
        return self.key == other.key


@dataclass(frozen=True)
class PlanSignature:
    """The sharing identity of one plan's pipeline prefix.

    ``relation_key`` identifies the relational prefix (scan + computed
    columns + filters + static joins): plans with equal relation keys
    produce the identical joined, filtered relation for every pane and
    every window.  ``aggregate_key`` extends it with the grouping and the
    ordered partial aggregate calls: plans with equal aggregate keys
    additionally produce identical per-pane partial-aggregation payloads
    (``None`` when the plan has no combinable grouped aggregation).
    ``alias_map`` maps the plan's real aliases to the canonical ones, so
    the runtime can translate shared relation columns per subscriber.
    ``sides`` (two-stream join plans only) carries one
    :class:`SideSignature` per windowed stream, keying the shared
    per-(side, pane) prefix relations + hash tables of the
    symmetric-hash pane join.
    """

    relation_key: str
    aggregate_key: str | None
    alias_map: dict[str, str]
    sides: tuple[SideSignature, ...] = ()

    def __hash__(self) -> int:  # alias_map is per-plan, not identity
        return hash((self.relation_key, self.aggregate_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanSignature):
            return NotImplemented
        return (
            self.relation_key == other.relation_key
            and self.aggregate_key == other.aggregate_key
        )

    def over(self, static_versions: tuple[int, ...]) -> PlanSignature:
        """This identity over static relations materialised at the given
        database write counters (one per static input, in plan order:
        the version component of each ``StaticKey``).

        The relation and aggregate tiers interchange rows already joined
        to the static side, so two bindings may share them only when
        they hold the same materialisation — a query registered after a
        ``Database.insert`` probes fresh rows and must not read pane
        results computed over the old ones.  A side prefix is qualified
        by the versions of its lookups only.
        """
        if not static_versions:
            return self
        tag = f"@{static_versions!r}"
        return replace(
            self,
            relation_key=self.relation_key + tag,
            aggregate_key=(
                None if self.aggregate_key is None
                else self.aggregate_key + tag
            ),
            sides=tuple(
                replace(side, key=side.key + "@" + repr(tuple(
                    static_versions[i] for i in side.statics
                ))) if side.statics else side
                for side in self.sides
            ),
        )

    def scoped(self, tag: str | None) -> PlanSignature:
        """This identity within one sharing scope: every pipeline key
        prefixed with ``tag`` (see
        :func:`repro.exastream.engine.mqo_scope_tag`; ``None``, a
        one-node engine's only scope, is the identity itself)."""
        if tag is None:
            return self
        return replace(
            self,
            relation_key=f"{tag}::{self.relation_key}",
            aggregate_key=(
                None if self.aggregate_key is None
                else f"{tag}::{self.aggregate_key}"
            ),
            sides=tuple(
                replace(side, key=f"{tag}::{side.key}") for side in self.sides
            ),
        )


def _side_signature(plan: ContinuousPlan, index: int) -> SideSignature:
    """The canonical per-side prefix key of windowed stream ``index``."""
    window = plan.windows[index]
    lookups = plan.lookups()
    statics = tuple(
        position for position, static in enumerate(plan.statics)
        if lookups.get(static.alias) == window.alias
    )
    side_map = {window.alias: STREAM_ALIAS}
    for local, position in enumerate(statics):
        side_map[plan.statics[position].alias] = f"t{local}"

    def within_side(predicates) -> tuple[str, ...]:
        # conjuncts over this side's aliases alone, canonically sorted
        return tuple(sorted(
            canonical_expr(p, side_map) for p in predicates
            if (aliases := expr_aliases(p)) and aliases <= set(side_map)
        ))

    parts = (
        "side",
        window.stream,
        (repr(window.spec.range_seconds), repr(window.spec.slide_seconds)),
        repr(plan.start),
        tuple(
            (c.name, canonical_expr(c.expr, side_map))
            for c in window.computed
        ),
        # exactly the filters the runtime pushes below the join
        within_side(p for p in plan.filters if len(expr_aliases(p)) == 1),
    )
    if statics:
        # the lookups, in probe order, and the keys they are probed on
        parts += (
            tuple(
                (plan.statics[position].source, plan.statics[position].sql)
                for position in statics
            ),
            within_side(plan.join_predicates),
        )
    key = repr(parts)
    return SideSignature(key, side_map, statics)


def plan_signature(plan: ContinuousPlan) -> PlanSignature | None:
    """Canonical signature of ``plan``'s shareable prefix.  Computes
    afresh on every call: read ``plan.signature``, which calls this once
    per plan object and keeps the result beside the plan's
    partitioning/incremental classifications.

    Keys are ``repr``\\ s of nested tuples of strings — Python's string
    escaping keeps every component unambiguous, so no static SQL text or
    filter rendering can collide two structurally different plans into
    one key.  Single-stream plans carry a relation tier and (for
    combinable grouped aggregations) an aggregate tier; two-stream join
    plans additionally carry per-side prefix signatures, so queries
    joining the same stream pair share the per-(side, pane) hash tables
    of the symmetric-hash pane join even when their groupings differ.
    Joins across more than two windowed streams are not covered and
    return ``None``.
    """
    if len(plan.windows) > 2:
        return None
    alias_map = {
        window.alias: f"s{index}" for index, window in enumerate(plan.windows)
    }
    for index, static in enumerate(plan.statics):
        alias_map[static.alias] = f"t{index}"

    relation = (
        "rel",
        tuple(
            (
                window.stream,
                (
                    repr(window.spec.range_seconds),
                    repr(window.spec.slide_seconds),
                ),
                tuple(
                    (c.name, canonical_expr(c.expr, alias_map))
                    for c in window.computed
                ),
            )
            for window in plan.windows
        ),
        repr(plan.start),
        # Static order is load-bearing: the join pipeline visits statics
        # in plan order, and output column order follows join order.
        tuple(
            (alias_map[s.alias], s.source, s.sql) for s in plan.statics
        ),
        # Conjunctive predicate sets: application order never changes
        # the surviving rows or their relative order, so sort to widen
        # sharing.
        tuple(
            sorted(canonical_expr(p, alias_map) for p in plan.join_predicates)
        ),
        tuple(sorted(canonical_expr(p, alias_map) for p in plan.filters)),
    )
    relation_key = repr(relation)

    aggregate_key = None
    aggregate = plan.aggregate
    if (
        len(plan.windows) == 1
        and aggregate is not None
        and all(c.function.upper() in COMBINABLE for c in aggregate.calls)
    ):
        # The aggregate tier interchanges per-pane partial payloads;
        # two-stream pane-join partials are pane-*pair* state owned by
        # each runtime, so the tier exists only for single-stream plans.
        partial_calls, _ = decompose_calls(aggregate.calls)
        # Partial call *order* is part of the identity: payload tuples
        # index by position, so subscribers must agree on it exactly.
        aggregate_key = repr(
            (
                "agg",
                relation,
                tuple(
                    canonical_expr(e, alias_map) for e in aggregate.group_by
                ),
                tuple(
                    (
                        c.function.upper(),
                        canonical_expr(c.argument, alias_map)
                        if c.argument is not None
                        else "*",
                    )
                    for c in partial_calls
                ),
            )
        )

    sides: tuple[SideSignature, ...] = ()
    if len(plan.windows) == 2:
        # Gate on the actual PANE_JOIN classification (not just "has
        # equi-keys"): a two-stream plan whose grids cannot pane-
        # decompose recomputes every window and never touches the side
        # pipes — emitting sides for it would subscribe dead pipelines
        # and make the scheduler account its scans as shared while each
        # query in fact re-scans privately.
        if plan.incremental.is_pane_join:
            sides = (_side_signature(plan, 0), _side_signature(plan, 1))

    return PlanSignature(relation_key, aggregate_key, alias_map, sides)
