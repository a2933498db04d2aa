"""The on-demand CQ analyzer: one entry point per input kind.

``analyze_plan`` runs every plan-level dimension — type inference,
interval satisfiability, window-grid diagnostics, sharing predictions —
over a planned/translated :class:`~repro.exastream.plan.ContinuousPlan`.
``analyze_starql`` adds the STARQL-level checks (syntax, unknown streams,
malformed windows, unmapped attributes) and then analyzes the translated
plan; translation failures become diagnostics instead of exceptions, so
the CLI and ``Session.lint`` can report *all* queries of a document.

Analysis runs when asked (``Session.explain``, the CLI), never inside
registration, and binds nothing: the only plan state it touches is the
memoized ``mqo_signature`` that a bind computes anyway.
"""

from __future__ import annotations

from ..errors import QueryNotFound, ReproError
from ..exastream.planner import plan_sql
from ..starql.ast import (
    AggregateComparison,
    BoolOp,
    Exists,
    Forall,
    Implies,
    STARQLQuery,
)
from ..starql.parser import STARQLSyntaxError, parse_starql
from ..starql.translator import TranslationError
from .diagnostics import AnalysisReport, Severity, find_span
from .intervals import check_satisfiability
from .sharing import check_sharing
from .typecheck import check_types
from .windows import check_windows

__all__ = ["analyze_plan", "analyze_starql", "check_translation"]


def analyze_plan(
    plan, engine, gateway=None, name=None, undecomposed=None
) -> AnalysisReport:
    """All plan-level diagnostics for one continuous plan, against
    ``gateway``'s live queries when one is given.  ``undecomposed`` is
    the translation's reason for keeping its WHERE pattern whole."""
    report = AnalysisReport(name or plan.name or "<query>")
    check_types(plan, engine, report)
    source = plan.source
    check_satisfiability(list(plan.filters), report, source, "filter")
    check_satisfiability(
        list(plan.join_predicates), report, source, "join predicate"
    )
    if plan.aggregate is not None and plan.aggregate.having:
        check_satisfiability(
            list(plan.aggregate.having), report, source, "HAVING predicate"
        )
    check_windows(plan, report)
    check_sharing(plan, gateway, report)
    check_statics(plan, engine, gateway, report, undecomposed)
    check_observed(gateway, report)
    check_estimates(plan, gateway, report)
    return report


def check_statics(
    plan, engine, gateway, report: AnalysisReport, undecomposed=None
) -> None:
    """What registering would cost on the static side (INFO, ANA060).

    One line per static input: whether the engine's static catalog
    already holds its relation — then registration shares it, rows and
    indexes included — or registration would run the SQL once.  A
    static keyed by two or more windows (WARNING, ANA032) is no
    window's lookup: it holds combinations of the streamed entities and
    is probed only after the stream-stream join.
    """
    partners = plan.static_partners()
    for ref in plan.statics:
        try:
            database = engine.database(ref.source)
        except KeyError:
            continue  # not attached: registration would refuse the plan
        key, table = engine.static_catalog.peek(database, ref.sql)
        if table is None:
            status = "not materialised yet: registration runs its SQL once"
        else:
            users = sum(
                any(key in leaf.static_keys
                    for leaf in registered.runtime.leaf_runtimes)
                for registered in (gateway.queries if gateway else ())
            )
            status = (
                f"materialised, {len(table.relation.rows)} rows, shared "
                f"with {users} registered "
                f"{'query' if users == 1 else 'queries'}"
            )
        report.add(
            "ANA060",
            Severity.INFO,
            f"static input {ref.alias!r} on {ref.source!r}: {status}",
            hint="static relations are shared by (database, SQL text)",
        )
        if len(partners[ref.alias]) > 1:
            rows = (
                "not materialised yet" if table is None
                else f"{len(table.relation.rows)} rows"
            )
            report.add(
                "ANA032",
                Severity.WARNING,
                f"static input {ref.alias!r} is keyed by windows "
                f"{', '.join(partners[ref.alias])} ({rows}): it is "
                "materialised as combinations of their entities and probed "
                "after the stream-stream join; "
                + (
                    f"the WHERE pattern stayed one piece because "
                    f"{undecomposed}"
                    if undecomposed
                    else "the SQL(+) text joins one relation to both"
                ),
                hint="describe each streamed entity by its own static "
                "relation, joined on the columns they share",
            )


def check_translation(translation, engine, report: AnalysisReport) -> None:
    """What the translate leg produced (INFO, ANA061): WHERE pieces,
    UCQ disjuncts after enrichment and SQL blocks after unfolding, all
    pieces together — and (ERROR, ANA008) an emitted SQL(+) text that
    does not plan back to the translation's plan: the text is the
    program, so the translator and the planner drifting apart is a
    defect, not a display glitch."""
    report.add(
        "ANA061",
        Severity.INFO,
        f"translation: {len(translation.enriched)} WHERE piece(s), "
        f"{sum(map(len, translation.enriched))} UCQ disjunct(s) after "
        f"enrichment, {translation.fleet_size} SQL block(s) after unfolding",
    )
    plan = translation.plan
    try:
        replanned = plan_sql(
            translation.sql, engine, name=plan.name, start=plan.start
        )
    except ReproError as exc:
        problem = f"does not plan ({exc})"
    else:
        if replanned == plan:
            return
        problem = "plans to a different plan than the translation carries"
    report.add(
        "ANA008",
        Severity.ERROR,
        f"the emitted SQL(+) {problem}: {translation.sql}",
        hint="STARQL2SQL(+) and the SQL(+) planner/printer disagree; "
        "registering the STARQL query and its SQL(+) text would run "
        "different programs",
    )


def check_observed(gateway, report: AnalysisReport) -> None:
    """Observed per-operator selectivities for this query name (INFO).

    When the deployment's metric registry already carries per-operator
    rows-in/rows-out counts under the analyzed name — the query ran, or
    is running — ``explain`` surfaces them: the observed side of the
    cardinality-estimator feed, next to the static predictions.
    """
    snapshot_fn = getattr(gateway, "metrics_snapshot", None)
    if snapshot_fn is None:
        return
    snapshot = snapshot_fn()
    name = report.query
    operators = sorted(
        value
        for (series, labels) in snapshot.series
        if series == "operator_rows_in_total" and (("query", name) in labels)
        for key, value in labels
        if key == "operator"
    )
    for operator in operators:
        rows_in = snapshot.value(
            "operator_rows_in_total", query=name, operator=operator
        )
        rows_out = snapshot.value(
            "operator_rows_out_total", query=name, operator=operator
        )
        if not rows_in:
            continue
        report.add(
            "ANA040",
            Severity.INFO,
            f"observed {operator}: {int(rows_in)} rows in -> "
            f"{int(rows_out or 0)} out "
            f"(selectivity {(rows_out or 0) / rows_in:.3f})",
            hint="live per-operator stats recorded for this query name",
        )


def check_estimates(plan, gateway, report: AnalysisReport) -> None:
    """The costed-plan explain record, when one exists (INFO, ANA050).

    Adaptive engines attach a
    :class:`~repro.exastream.estimator.PlanChoice` at registration; this
    surfaces it through ``explain`` — chosen tier vs ceiling with the
    per-tier cost estimates, the advisory hints, any mid-flight demotion
    — plus an estimated-vs-observed selectivity comparison per stream
    once the query has run (the feedback loop the estimator's
    ``effective_selectivity`` refinement closes).
    """
    choice = getattr(plan, "choice", None)
    if choice is None and gateway is not None:
        # Analyzing a re-planned copy (Session.explain re-plans the SQL
        # text): fall back to the registered plan's record.
        try:
            choice = gateway.query(report.query).plan.choice
        except QueryNotFound:
            choice = None
    if choice is None:
        return
    for line in choice.explain_lines():
        report.add(
            "ANA050",
            Severity.INFO,
            f"cost-based plan: {line}",
            hint="estimates from the adaptive engine's statistics catalog",
        )
    snapshot_fn = getattr(gateway, "metrics_snapshot", None)
    if snapshot_fn is None:
        return
    snapshot = snapshot_fn()
    for alias, estimated in sorted(choice.est_selectivity.items()):
        rows_in = snapshot.value(
            "operator_rows_in_total",
            query=report.query,
            operator=f"filter:{alias}",
        )
        rows_out = snapshot.value(
            "operator_rows_out_total",
            query=report.query,
            operator=f"filter:{alias}",
        )
        if not rows_in:
            continue
        observed = (rows_out or 0) / rows_in
        report.add(
            "ANA050",
            Severity.INFO,
            f"cost-based plan: filter:{alias} estimated selectivity "
            f"{estimated:.3f}, observed {observed:.3f}",
            hint="observed stats override the prior once converged",
        )


def analyze_starql(
    text_or_query, translator, gateway=None, name=None
) -> AnalysisReport:
    """STARQL-level + plan-level diagnostics for one STARQL query.

    Accepts query text or an already-parsed :class:`STARQLQuery`.  Never
    raises on bad queries — syntax, reference and translation failures
    all surface as error diagnostics in the returned report.
    """
    if isinstance(text_or_query, STARQLQuery):
        query, text = text_or_query, text_or_query.text
    else:
        text = text_or_query
        report = AnalysisReport(name or "<starql>")
        try:
            query = parse_starql(text)
        except STARQLSyntaxError as exc:
            report.add(
                "ANA000",
                Severity.ERROR,
                f"STARQL syntax error: {exc}",
                hint="fix the query text; nothing else was checked",
            )
            return report

    report = AnalysisReport(name or query.output_stream or "<starql>")
    engine = translator.engine

    for window in query.windows:
        if window.stream not in engine.stream_names:
            report.add(
                "ANA002",
                Severity.ERROR,
                f"unknown stream {window.stream!r} in FROM STREAM "
                f"(registered: {sorted(engine.stream_names)})",
                span=find_span(text, window.stream),
                hint="register the stream or fix the FROM STREAM clause",
            )
        if window.range_seconds <= 0 or window.slide_seconds <= 0:
            report.add(
                "ANA005",
                Severity.ERROR,
                f"malformed window over {window.stream!r}: range "
                f"{window.range_seconds}s, slide {window.slide_seconds}s "
                "(both must be positive)",
                span=find_span(text, window.stream),
            )

    for aggregate in _having_aggregates(query.having):
        for attribute in (aggregate.attribute, aggregate.second_attribute):
            if attribute is None:
                continue
            try:
                translator.resolve_stream_attribute(attribute)
            except TranslationError as exc:
                report.add(
                    "ANA006",
                    Severity.ERROR,
                    f"HAVING references attribute "
                    f"{attribute.local_name!r} that no stream mapping "
                    f"provides: {exc}",
                    span=find_span(
                        text, attribute.local_name, attribute.value
                    ),
                    hint="map the attribute onto a stream column, or fix "
                    "the attribute IRI",
                )

    if report.has_errors:
        return report  # translation would fail on the same defects

    try:
        result = translator.translate(query)
    except (TranslationError, ValueError) as exc:
        report.add(
            "ANA007",
            Severity.ERROR,
            f"translation failed: {exc}",
        )
        return report

    plan_report = analyze_plan(
        result.plan, engine, gateway=gateway, name=report.query,
        undecomposed=result.undecomposed,
    )
    report.diagnostics.extend(plan_report.diagnostics)
    check_translation(result, engine, report)
    return report


def _having_aggregates(having):
    """All :class:`AggregateComparison` nodes of a HAVING expression."""
    if having is None:
        return
    if isinstance(having, AggregateComparison):
        yield having
    elif isinstance(having, BoolOp):
        for operand in having.operands:
            yield from _having_aggregates(operand)
    elif isinstance(having, (Exists, Forall)):
        yield from _having_aggregates(having.body)
    elif isinstance(having, Implies):
        yield from _having_aggregates(having.premise)
        yield from _having_aggregates(having.conclusion)
