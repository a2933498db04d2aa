"""Static CQ analyzer tests: seeded defects, zero false positives on the
Siemens suite, refusing before binding (explain, then submit), sharing
diagnostics read from the MQO registry, the session API and the CLI."""

import ast
import re

import pytest

from repro.analysis import (
    AnalysisReport,
    Severity,
    analyze_plan,
    analyze_starql,
    find_span,
    verify_gateway,
)
from repro.analysis.__main__ import main as analysis_cli
from repro.exastream import GatewayServer, Scheduler
from repro.exastream.planner import plan_sql
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet

from cqgen import build_engine

ROWS = [
    (0.0, 1, 1.0),
    (1.0, 2, 2.0),
    (2.0, 1, 3.0),
    (3.0, 2, 4.0),
    (4.0, 1, 5.0),
]


def fresh_gateway():
    return GatewayServer(build_engine(list(ROWS)))


def analyze_sql(sql, gateway=None, name=None):
    gateway = gateway or fresh_gateway()
    plan = plan_sql(sql, gateway.engine)
    return analyze_plan(plan, gateway.engine, gateway=gateway, name=name)


def explain_registered(gateway, name):
    """The on-demand report for a registered query, under its name."""
    plan = gateway.query(name).plan
    return analyze_plan(plan, gateway.engine, gateway=gateway)


def ana030_peers(report):
    """Every query name the report's ANA030 lines promise sharing with."""
    peers = set()
    for diagnostic in report:
        if diagnostic.code == "ANA030":
            match = re.search(r"with (\[.*\])$", diagnostic.message)
            peers |= set(ast.literal_eval(match.group(1)))
    return peers


def bound_state(gateway):
    """What a bind takes: MQO subscriptions, reader and static
    references, scheduler placements."""
    engine = gateway.engine
    scheduler = gateway.scheduler
    return (
        gateway.mqo.subscribers() if gateway.mqo is not None else None,
        engine.catalog.refs,
        engine.static_catalog.refs,
        scheduler.load_report() if scheduler is not None else None,
        [q.name for q in gateway.queries],
    )


GROUPED = (
    "SELECT s.sid AS sid, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid"
)
STATIC_JOIN = (
    "SELECT m.kind AS kind, COUNT(*) AS n "
    "FROM timeSlidingWindow(S, 10, 2) AS s, "
    "(SELECT sid, kind FROM sensors) AS m "
    "WHERE s.sid = m.sid GROUP BY m.kind"
)


class TestSeededDefects:
    """One test per defect class: severity and source span both checked."""

    def test_type_mismatch_comparison(self):
        sql = (
            "SELECT s.sid AS sid FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 'hot'"
        )
        report = analyze_sql(sql)
        errors = [d for d in report.errors if d.code == "ANA003"]
        assert len(errors) == 1
        assert "REAL" in errors[0].message or "TEXT" in errors[0].message
        assert errors[0].span is not None
        assert sql[errors[0].span.start : errors[0].span.end] in sql

    def test_unsatisfiable_predicate(self):
        sql = (
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 5 AND s.val < 3"
        )
        report = analyze_sql(sql)
        errors = [d for d in report.errors if d.code == "ANA010"]
        assert len(errors) == 1
        assert "never produce a row" in errors[0].message
        span = errors[0].span
        assert span is not None
        assert sql[span.start : span.end] == "s.val > 5"

    def test_contradictory_equality(self):
        report = analyze_sql(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val = 5 AND s.val = 6"
        )
        assert any(d.code == "ANA010" for d in report.errors)

    def test_open_bound_equality_contradiction(self):
        report = analyze_sql(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 5 AND s.val = 5"
        )
        assert any(d.code == "ANA010" for d in report.errors)

    def test_redundant_filter_is_info(self):
        report = analyze_sql(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 5 AND s.val > 3"
        )
        assert not report.has_errors
        infos = [d for d in report.infos if d.code == "ANA011"]
        assert len(infos) == 1
        assert "s.val > 3" in infos[0].message

    def test_bad_grid_pane_cap(self):
        sql = (
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 0.3) AS s GROUP BY s.sid"
        )
        report = analyze_sql(sql)
        warnings = [d for d in report.warnings if d.code == "ANA021"]
        assert len(warnings) == 1
        assert "not pane-decomposable" in warnings[0].message
        assert warnings[0].span is not None

    def test_unknown_column(self):
        sql = "SELECT s.bogus AS v FROM timeSlidingWindow(S, 10, 2) AS s"
        report = analyze_sql(sql)
        errors = [d for d in report.errors if d.code == "ANA001"]
        assert len(errors) == 1
        assert "s.bogus" in errors[0].message
        assert "val" in (errors[0].hint or "")  # hint lists real columns
        span = errors[0].span
        assert sql[span.start : span.end] == "s.bogus"

    def test_unknown_alias(self):
        report = analyze_sql(
            "SELECT z.val AS v FROM timeSlidingWindow(S, 10, 2) AS s"
        )
        assert any(d.code == "ANA002" for d in report.errors)

    def test_join_key_incompatibility(self):
        sql = (
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s, sensors AS t "
            "WHERE s.sid = t.kind GROUP BY s.sid"
        )
        report = analyze_sql(sql)
        errors = [d for d in report.errors if d.code == "ANA004"]
        assert len(errors) == 1
        assert "INTEGER" in errors[0].message and "TEXT" in errors[0].message
        assert errors[0].span is not None

    def test_compatible_join_key_is_clean(self):
        report = analyze_sql(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s, sensors AS t "
            "WHERE s.sid = t.sid GROUP BY s.sid"
        )
        assert not report.has_errors

    def test_tumbling_window_info(self):
        report = analyze_sql(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 5, 5) AS s"
        )
        assert any(d.code == "ANA020" for d in report.infos)


class TestStarqlAnalysis:
    def test_unknown_stream(self):
        deployment = siemens()
        text = task_text(0).replace("S_Msmt", "S_Nope")
        report = analyze_starql(text, deployment.translator)
        assert any(d.code == "ANA002" for d in report.errors)

    def test_syntax_error_is_diagnostic(self):
        deployment = siemens()
        report = analyze_starql(
            "CREATE STREAM garbage WITHOUT meaning", deployment.translator
        )
        assert any(d.code == "ANA000" for d in report.errors)

    def test_unknown_attribute(self):
        deployment = siemens()
        text = task_text(0).replace("sie:hasValue", "sie:noSuchAttr")
        report = analyze_starql(text, deployment.translator)
        assert any(d.code in ("ANA006", "ANA007") for d in report.errors)


_SIEMENS = {}


def siemens():
    if "d" not in _SIEMENS:
        _SIEMENS["d"] = deploy(stream_duration=5)
    return _SIEMENS["d"]


def task_text(index):
    return diagnostic_catalog()[index].starql


class TestNoFalsePositives:
    def test_all_siemens_tasks_error_free(self):
        deployment = siemens()
        for task in diagnostic_catalog():
            report = analyze_starql(
                task.starql, deployment.translator, name=task.name
            )
            assert not report.has_errors, report.render()

    def test_fig1_example_error_free(self):
        from test_starql import FIG1_QUERY, tiny_deployment

        onto, mc, engine, macros, translator = tiny_deployment()
        report = analyze_starql(FIG1_QUERY, translator)
        assert not report.has_errors, report.render()


class TestStrictRegistration:
    """Refusing a query before anything binds: analyse it on demand,
    check ``has_errors``, and do not register it.  Registration itself
    never analyses."""

    def test_strict_rejects_and_binds_nothing(self):
        engine = build_engine(list(ROWS))
        gateway = GatewayServer(engine, scheduler=Scheduler(2))
        gateway.register(STATIC_JOIN, name="live")
        before = bound_state(gateway)
        report = analyze_sql(
            STATIC_JOIN.replace(
                "GROUP BY", "AND s.val > 5 AND s.val < 3 GROUP BY"
            ),
            gateway,
            name="doomed",
        )
        assert report.has_errors
        # the whole analysis ran against the live deployment — sharing,
        # subsumption, static catalog — and took nothing from it
        assert {"ANA010", "ANA031", "ANA060"} <= {d.code for d in report}
        assert bound_state(gateway) == before
        assert "doomed" not in gateway
        verify_gateway(gateway)

    def test_strict_accepts_clean_query(self):
        gateway = fresh_gateway()
        assert not analyze_sql(GROUPED, gateway).has_errors
        registered = gateway.register(GROUPED)
        assert registered.active

    def test_default_registration_is_advisory(self):
        gateway = fresh_gateway()
        registered = gateway.register(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 5 AND s.val < 3"
        )
        assert registered.active  # runs (and yields nothing) as before
        assert not hasattr(registered, "diagnostics")


class TestRegistrationDiagnostics:
    """ANA030/ANA031 computed on demand against the live gateway."""

    def test_sharing_prediction(self):
        gateway = fresh_gateway()
        gateway.register(GROUPED, name="base")
        gateway.register(
            "SELECT s.sid AS sid, AVG(s.val) AS a "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            name="peer",
        )
        report = explain_registered(gateway, "peer")
        codes = {d.code for d in report}
        assert "ANA030" in codes
        assert any("base" in d.message for d in report)
        assert ana030_peers(report) == {"base"}

    def test_no_sharing_predicted_without_mqo(self):
        """An ``mqo=False`` engine shares nothing, so nothing is
        promised — not even between two registrations of one text."""
        gateway = GatewayServer(build_engine(list(ROWS), mqo=False))
        gateway.register(GROUPED, name="a")
        gateway.register(GROUPED, name="b")
        report = explain_registered(gateway, "b")
        assert not [d for d in report if d.code == "ANA030"]

    def test_no_sharing_predicted_across_layouts(self):
        """A ``shards=1`` and a ``shards=2`` registration of one text
        live in separate pipelines; ANA030 says what the registry
        holds."""
        gateway = GatewayServer(build_engine(list(ROWS), shards=2))
        gateway.register(GROUPED, name="one", shards=1)
        gateway.register(GROUPED, name="two", shards=2)
        subscribers = gateway.mqo.subscribers()
        assert not [
            key for key, names in subscribers.items()
            if {"one", "two"} <= set(names)
        ]
        report = explain_registered(gateway, "two")
        assert not [d for d in report if d.code == "ANA030"]
        # a third registration in the default (two-shard) layout does
        # share with "two", and only with it
        gateway.register(GROUPED, name="three")
        assert ana030_peers(explain_registered(gateway, "three")) == {"two"}

    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(turbines=3, plants=2))

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ana030_names_exactly_the_registry_peers(self, fleet, shards):
        """The 20 catalog tasks registered twice: for every query, the
        peers ANA030 names are exactly the other subscribers of its
        pipelines in the MQO registry."""
        dep = deploy(fleet=fleet, stream_duration=5, shards=shards)
        sessions = [dep.session(), dep.session()]
        handles = [
            session.submit(task.starql)
            for session in sessions
            for task in diagnostic_catalog()
        ]
        subscribers = dep.gateway.mqo.subscribers()
        shared = 0
        for handle in handles:
            expected = {
                peer
                for names in subscribers.values() if handle.name in names
                for peer in names
            } - {handle.name}
            report = sessions[0].explain(handle.prepared, name=handle.name)
            assert ana030_peers(report) == expected, handle.name
            shared += bool(expected)
        assert shared == len(handles)  # every task has its twin
        for session in sessions:
            session.close()

    def test_no_ana030_without_mqo(self, fleet):
        dep = deploy(fleet=fleet, stream_duration=5, mqo=False)
        session = dep.session()
        handles = [
            session.submit(task.starql)
            for _ in range(2)
            for task in diagnostic_catalog()
        ]
        for handle in handles:
            report = session.explain(handle.prepared, name=handle.name)
            assert not [d for d in report if d.code == "ANA030"]
        session.close()

    def test_filter_subsumption_opportunity(self):
        gateway = fresh_gateway()
        gateway.register(GROUPED, name="broad")
        gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 2 GROUP BY s.sid",
            name="narrow",
        )
        report = explain_registered(gateway, "narrow")
        subsumed = [d for d in report if d.code == "ANA031"]
        assert len(subsumed) == 1
        assert subsumed[0].severity is Severity.INFO
        assert "broad" in subsumed[0].message
        # and execution is unchanged: both queries run to completion
        while gateway.step():
            pass

    def test_no_subsumption_in_reverse_direction(self):
        gateway = fresh_gateway()
        gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 2 GROUP BY s.sid",
            name="narrow",
        )
        gateway.register(GROUPED, name="broad")
        report = explain_registered(gateway, "broad")
        assert not [d for d in report if d.code == "ANA031"]


class TestSessionAPI:
    def test_explain_and_lint(self):
        deployment = siemens()
        session = deployment.session()
        try:
            report = session.explain(task_text(0))
            assert isinstance(report, AnalysisReport)
            assert not report.has_errors
            diags = session.lint(task_text(0))
            assert diags == sorted(diags, key=lambda d: -d.severity.rank)
        finally:
            session.close()

    def test_explain_bad_query(self):
        deployment = siemens()
        session = deployment.session()
        try:
            report = session.explain(
                task_text(0).replace("S_Msmt", "S_Nope")
            )
            assert report.has_errors
        finally:
            session.close()

    def test_strict_submit(self):
        """explain → ``has_errors`` → submit; the explain bound nothing."""
        deployment = siemens()
        session = deployment.session()
        try:
            live = session.submit(task_text(1))
            before = bound_state(deployment.gateway)
            report = session.explain(task_text(1), name="candidate")
            assert bound_state(deployment.gateway) == before
            assert not report.has_errors
            assert live.name in ana030_peers(report)
            handle = session.submit(task_text(1), name="candidate")
            assert handle.registered.active
        finally:
            session.close()


class TestByteIdentity:
    def test_analysis_and_audit_do_not_change_results(self, monkeypatch):
        sqls = [
            "SELECT s.sid AS sid, COUNT(*) AS n, AVG(s.val) AS a "
            "FROM timeSlidingWindow(S, 6, 2) AS s GROUP BY s.sid",
            "SELECT s.sid AS sid, MAX(s.val) AS m "
            "FROM timeSlidingWindow(S, 6, 2) AS s "
            "WHERE s.val > 1 GROUP BY s.sid",
        ]

        def run(audit, explain):
            if audit:
                monkeypatch.setenv("REPRO_AUDIT", "1")
            else:
                monkeypatch.delenv("REPRO_AUDIT", raising=False)
            gateway = fresh_gateway()
            handles = []
            for i, sql in enumerate(sqls):
                if explain:
                    assert not analyze_sql(sql, gateway).has_errors
                handles.append(gateway.register(sql, name=f"q{i}"))
                if explain:
                    explain_registered(gateway, f"q{i}")
            while gateway.step():
                pass
            if explain:
                for handle in handles:
                    explain_registered(gateway, handle.name)
            out = [
                [(r.window_id, tuple(map(tuple, r.rows))) for r in h.results()]
                for h in handles
            ]
            for handle in handles:
                gateway.deregister(handle.name)
            return out

        baseline = run(audit=False, explain=False)
        assert run(audit=True, explain=False) == baseline
        assert run(audit=True, explain=True) == baseline


class TestCLI:
    def test_cli_clean_file(self, tmp_path, capsys):
        path = tmp_path / "ok.starql"
        path.write_text(task_text(0))
        assert analysis_cli([str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_cli_defective_file(self, tmp_path, capsys):
        path = tmp_path / "bad.starql"
        path.write_text(task_text(0).replace("S_Msmt", "S_Nope"))
        assert analysis_cli([str(path)]) == 1
        assert "ANA002" in capsys.readouterr().out


class TestSpanHelper:
    def test_find_span_line_column(self):
        span = find_span("line one\nline two s.val here", "s.val")
        assert (span.line, span.column) == (2, 10)

    def test_find_span_missing(self):
        assert find_span("abc", "zzz") is None
        assert find_span(None, "x") is None
