"""Sharing predictions: what a new query will reuse from the live fleet.

Two independent lenses:

* **Signature sharing** — the MQO runtime shares pipeline prefixes
  between plans with equal canonical signatures (``plan.signature``,
  see :func:`repro.exastream.mqo.plan_signature`).  Comparing a new plan's
  signature against the gateway's registered plans predicts, *before*
  registration, which live pipeline tiers (relation / aggregate / join
  side) the query will subscribe to.

* **Containment subsumption** — signature equality is exact sharing;
  containment (:func:`repro.queries.containment.is_contained_in`) finds
  the looser "filter-subsumption" relationships: a new query whose plan
  is contained in a registered one could in principle be answered by
  filtering the registered query's output.  The plans are encoded as
  conjunctive queries over synthetic predicates (windows, statics,
  equi-joins) so the standard homomorphism check applies.  This is a
  scouting diagnostic only — execution never acts on it.
"""

from __future__ import annotations

from ..exastream.plan import as_equi_join
from ..queries.containment import is_contained_in
from ..queries.cq import Atom, ConjunctiveQuery, Filter
from ..rdf import IRI, Literal, Variable
from ..sql import BinOp, Col, Expr, Lit
from .diagnostics import AnalysisReport, Severity

__all__ = ["check_sharing", "plan_as_cq", "index_plan", "unindex_plan"]

_CQ_OPS = {"=", "!=", "<", "<=", ">", ">="}

_WINDOW_PREFIX = "urn:cqan:window:"


def _signature_entries(gateway, signature):
    """``(index, key)`` for every sharing index a signature appears in."""
    if signature is None:
        return []
    entries = [(gateway._sig_relation, signature.relation_key)]
    if signature.aggregate_key is not None:
        entries.append((gateway._sig_aggregate, signature.aggregate_key))
    entries += [(gateway._sig_side, side.key) for side in signature.sides]
    return entries


def index_plan(gateway, name: str, plan, cq) -> None:
    """Record a newly registered plan in the gateway's sharing indexes.

    The gateway calls this once per registration (after the advisory
    analysis, so a plan never indexes itself into its own report),
    handing over the :func:`plan_as_cq` encoding it made for that
    analysis.  The indexes turn the per-registration sharing scan from
    O(live queries) into O(1) dictionary lookups — registering N
    queries costs N CQ encodings in total instead of O(N²).
    """
    for store, key in _signature_entries(gateway, plan.signature):
        store.setdefault(key, set()).add(name)
    gateway._cq_by_query[name] = cq
    if cq is not None:
        preds = frozenset(atom.predicate.value for atom in cq.atoms)
        gateway._cq_preds[name] = preds
        for predicate in preds:
            if predicate.startswith(_WINDOW_PREFIX):
                gateway._cq_windex.setdefault(predicate, set()).add(name)


def unindex_plan(gateway, name: str, plan) -> None:
    """Drop a deregistered query from the gateway's sharing indexes."""
    entries = _signature_entries(gateway, plan.signature)
    for predicate in gateway._cq_preds.pop(name, ()):
        if predicate.startswith(_WINDOW_PREFIX):
            entries.append((gateway._cq_windex, predicate))
    for store, key in entries:
        peers = store.get(key)
        if peers is not None:
            peers.discard(name)
            if not peers:
                del store[key]
    gateway._cq_by_query.pop(name, None)


def _holds_current_statics(registered) -> bool:
    """Whether a bind made now would take the static rows this query
    holds (no ``Database.insert`` since it registered) — the condition
    under which the relation and aggregate tiers are shared, see
    :meth:`~repro.exastream.mqo.signature.PlanSignature.over`."""
    return all(
        version == database.version
        for database, _, version
        in registered.runtime.leaf_runtimes[0].static_keys
    )


def _tier_peers(gateway, index, key, live) -> list[str]:
    """The live queries indexed under a relation/aggregate tier ``key``
    that a registration made now would actually share that tier with."""
    return sorted(
        name for name in index.get(key, ())
        if name in live and _holds_current_statics(gateway._queries[name])
    )


def check_sharing(plan, gateway, report: AnalysisReport, cq=None) -> None:
    """Predict MQO sharing and containment subsumption against a gateway.

    The signature peers come from O(1) key lookups in the gateway's
    sharing indexes, and containment candidates are pruned through the
    window-predicate inverted index.  ``cq`` is the plan's
    :func:`plan_as_cq` encoding when the caller already made it.
    """
    if gateway is None:
        return
    live = {
        name for name, q in gateway._queries.items() if q.plan is not plan
    }
    if not live:
        return

    signature = plan.signature
    if signature is not None:
        relation_peers = _tier_peers(
            gateway, gateway._sig_relation, signature.relation_key, live
        )
        aggregate_peers = (
            _tier_peers(
                gateway, gateway._sig_aggregate, signature.aggregate_key, live
            )
            if signature.aggregate_key is not None
            else []
        )
        side_peers: set[str] = set()
        for side in signature.sides:
            side_peers |= gateway._sig_side.get(side.key, set())
        side_peers &= live
        if aggregate_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share a pipeline prefix up to the partial-aggregate "
                f"tier with {aggregate_peers}",
                hint="per-pane scan, filter, join and partial-aggregation "
                "work is computed once across these queries",
            )
        elif relation_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share the relational pipeline prefix (scan + filters "
                f"+ static joins) with {relation_peers}",
            )
        elif side_peers:
            report.add(
                "ANA030",
                Severity.INFO,
                "will share per-stream join side state with "
                f"{sorted(side_peers)}",
                hint="the symmetric-hash pane join's per-(side, pane) hash "
                "tables are shared across these queries",
            )

    new_cq = cq if cq is not None else plan_as_cq(plan)
    if new_cq is None:
        return
    # Candidate pruning: a homomorphism from a registered query's atoms
    # into the new one requires every registered predicate to appear in
    # the new query — in particular its window predicates, so the
    # inverted window-predicate index bounds the candidates to queries
    # on a shared stream/grid before the (exponential in the worst case)
    # homomorphism search runs.
    new_preds = frozenset(atom.predicate.value for atom in new_cq.atoms)
    candidates: set[str] = set()
    for predicate in new_preds:
        if predicate.startswith(_WINDOW_PREFIX):
            candidates |= gateway._cq_windex.get(predicate, set())
    # registration order, like the diagnostics it produces
    for name in gateway._queries:
        if (
            name not in live
            or name not in candidates
            or not gateway._cq_preds.get(name, frozenset()) <= new_preds
        ):
            continue
        other_cq = gateway._cq_by_query.get(name)
        if other_cq is None:
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
                f"query {name!r}",
                hint=f"the query could be answered by filtering {name!r}'s "
                "output instead of running its own pipeline",
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
