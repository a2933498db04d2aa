"""Sharing predictions: what a query would reuse from the live fleet.

Two independent lenses, both computed on demand (``Session.explain``,
the CLI) — registration never runs them:

* **Signature sharing** (ANA030) — the MQO runtime shares pipeline
  prefixes between bindings with equal scoped signatures.  The keys a
  bind made now would subscribe to are computed exactly as the engine
  computes them (the engine's default layout, the static relations'
  current versions, the layout's scope tag) and looked up in the
  gateway's :class:`~repro.exastream.mqo.SharedPipelineRegistry`: the
  peers named are the queries that registry actually holds there.

* **Containment subsumption** (ANA031) — signature equality is exact
  sharing; containment (:func:`repro.queries.containment.is_contained_in`)
  finds the looser "filter-subsumption" relationships: a query whose
  plan is contained in a registered one could in principle be answered
  by filtering the registered query's output.  The plans are encoded as
  conjunctive queries over synthetic predicates (windows, statics,
  equi-joins) so the standard homomorphism check applies.  This is a
  scouting diagnostic only — execution never acts on it.
"""

from __future__ import annotations

from ..exastream.engine import mqo_scope_tag
from ..exastream.plan import as_equi_join
from ..queries.containment import is_contained_in
from ..queries.cq import Atom, ConjunctiveQuery, Filter
from ..rdf import IRI, Literal, Variable
from ..sql import BinOp, Col, Expr, Lit
from .diagnostics import AnalysisReport, Severity

__all__ = ["check_sharing", "plan_as_cq"]

_CQ_OPS = {"=", "!=", "<", "<=", ">", ">="}


def _bind_signatures(plan, engine) -> list | None:
    """The scoped signatures a bind of ``plan`` made now would subscribe
    under, one per leaf — ``None`` when it would share nothing (an
    ineligible plan) or be refused (a static database not attached)."""
    leaf_plan, scopes, _ = engine.layout(plan)
    signature = leaf_plan.signature
    if signature is None:
        return None
    try:
        versions = tuple(
            engine.database(ref.source).version for ref in leaf_plan.statics
        )
    except KeyError:
        return None
    signature = signature.over(versions)
    return [signature.scoped(mqo_scope_tag(engine, s)) for s in scopes]


def check_sharing(plan, gateway, report: AnalysisReport) -> None:
    """Predict MQO sharing and containment subsumption against a gateway.

    ``report.query`` is the analysed name: a registered query is never
    its own peer.
    """
    if gateway is None:
        return
    name = report.query
    signatures = (
        _bind_signatures(plan, gateway.engine)
        if gateway.mqo is not None else None
    )
    if signatures is not None:
        subscribers = gateway.mqo.subscribers()

        def peers(keys) -> set[str]:
            return {
                peer for key in keys for peer in subscribers.get(key, ())
            } - {name}

        # each peer is named once, at the deepest tier it shares
        aggregate_peers = peers(
            s.aggregate_key for s in signatures if s.aggregate_key is not None
        )
        relation_peers = (
            peers(s.relation_key for s in signatures) - aggregate_peers
        )
        side_peers = (
            peers(side.key for s in signatures for side in s.sides)
            - aggregate_peers - relation_peers
        )
        if aggregate_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share a pipeline prefix up to the partial-aggregate "
                f"tier with {sorted(aggregate_peers)}",
                hint="per-pane scan, filter, join and partial-aggregation "
                "work is computed once across these queries",
            )
        if relation_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share the relational pipeline prefix (scan + filters "
                f"+ static joins) with {sorted(relation_peers)}",
            )
        if side_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share per-stream join side state with "
                f"{sorted(side_peers)}",
                hint="the symmetric-hash pane join's per-(side, pane) hash "
                "tables are shared across these queries",
            )

    new_cq = plan_as_cq(plan)
    if new_cq is None:
        return
    new_preds = {atom.predicate for atom in new_cq.atoms}
    # registration order, like the diagnostics it produces
    for registered in gateway.queries:
        if registered.name == name or registered.plan is plan:
            continue
        other_cq = plan_as_cq(registered.plan)
        # a homomorphism into the new query needs every predicate of the
        # registered one to occur in it: a cheap filter before the search
        if other_cq is None or not {
            atom.predicate for atom in other_cq.atoms
        } <= new_preds:
            continue
        contained = is_contained_in(new_cq, other_cq)
        if contained and is_contained_in(other_cq, new_cq):
            continue  # equivalent: exact sharing already covers it
        if contained:
            report.add(
                "ANA031",
                Severity.INFO,
                f"filter-subsumption sharing opportunity: every window's "
                f"answers are already contained in those of registered "
                f"query {registered.name!r}",
                hint=f"the query could be answered by filtering "
                f"{registered.name!r}'s output instead of running its own "
                "pipeline",
            )


def plan_as_cq(plan) -> ConjunctiveQuery | None:
    """Encode a plan's matching structure as a conjunctive query.

    Windows, statics and equi-joins become atoms over synthetic
    predicates; simple column-vs-literal filters become CQ filters.  A
    column is a variable named ``{alias}__{column}`` with equi-joined
    columns unified into one variable, so ``find_homomorphism`` sees
    join structure the standard way.  Plans whose predicates fall
    outside this fragment (expressions, UDF calls) return ``None`` —
    containment must stay sound, never guessed.
    """
    # union-find over qualified columns, seeded by the equi-joins
    parent: dict[str, str] = {}

    def find(key: str) -> str:
        parent.setdefault(key, key)
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    equi_pairs: list[tuple[str, str]] = []
    for predicate in plan.join_predicates:
        decomposed = as_equi_join(predicate)
        if decomposed is None:
            return None  # non-equi join predicate: outside the CQ fragment
        alias_a, col_a, alias_b, col_b = decomposed
        a, b = f"{alias_a}__{col_a}", f"{alias_b}__{col_b}"
        union(a, b)
        equi_pairs.append((a, b))

    def var(alias: str, column: str) -> Variable:
        return Variable(find(f"{alias}__{column}"))

    atoms: list[Atom] = []
    for ref in plan.windows:
        # window identity: stream + grid (+ computed column definitions,
        # which change what the alias's columns mean)
        computed = ";".join(f"{c.name}" for c in ref.computed)
        predicate = IRI(
            f"urn:cqan:window:{ref.stream}:{ref.spec.range_seconds}:"
            f"{ref.spec.slide_seconds}:{computed}"
        )
        atoms.append(Atom(predicate, (var(ref.alias, "row"),)))
        # bind every joined/filtered column of this alias to the row
        # through a per-column atom, added below once columns are known.
    for static in plan.statics:
        predicate = IRI(f"urn:cqan:static:{static.source}:{static.sql}")
        atoms.append(Atom(predicate, (var(static.alias, "row"),)))

    alias_of = {w.alias for w in plan.windows} | {s.alias for s in plan.statics}

    columns: set[tuple[str, str]] = set()
    for predicate in plan.join_predicates:
        alias_a, col_a, alias_b, col_b = as_equi_join(predicate)
        columns.add((alias_a, col_a))
        columns.add((alias_b, col_b))

    filters: list[Filter] = []
    for predicate in plan.filters:
        parsed = _simple_filter(predicate)
        if parsed is None:
            return None  # complex filter: outside the CQ fragment
        alias, column, op, value = parsed
        if alias is None or alias not in alias_of:
            return None
        columns.add((alias, column))
        filters.append(Filter(op, var(alias, column), Literal(str(value))))

    for alias, column in sorted(columns):
        predicate = IRI(f"urn:cqan:col:{column}")
        atoms.append(Atom(predicate, (var(alias, "row"), var(alias, column))))

    if not atoms:
        return None
    # Head: the row variables of every source, in alias order — both
    # encodings list sources the same way, so equal-shaped plans align.
    head = tuple(
        var(alias, "row")
        for alias in sorted(alias_of)
    )
    try:
        return ConjunctiveQuery(head, tuple(atoms), tuple(filters))
    except ValueError:  # pragma: no cover - head vars always in atoms
        return None


def _simple_filter(expr: Expr) -> tuple[str | None, str, str, object] | None:
    """Decompose ``alias.col <op> literal`` (either side); else ``None``."""
    if not isinstance(expr, BinOp) or expr.op not in _CQ_OPS:
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Lit) and isinstance(right, Col):
        left, right, op = right, left, flip[op]
    if isinstance(left, Col) and isinstance(right, Lit):
        return left.table, left.name, op, right.value
    return None
