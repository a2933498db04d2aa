"""Static CQ analyzer tests: seeded defects, zero false positives on the
Siemens suite, strict registration, the session API and the CLI."""

import pytest

from repro.analysis import (
    AnalysisReport,
    Severity,
    StrictAnalysisError,
    analyze_plan,
    analyze_starql,
    find_span,
)
from repro.analysis.__main__ import main as analysis_cli
from repro.exastream import GatewayServer
from repro.siemens import deploy, diagnostic_catalog

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


def analyze_sql(sql, gateway=None):
    gateway = gateway or fresh_gateway()
    from repro.exastream.planner import plan_sql

    plan = plan_sql(sql, gateway.engine)
    return analyze_plan(plan, gateway.engine, gateway=gateway)


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
    def test_strict_rejects_and_binds_nothing(self):
        gateway = fresh_gateway()
        with pytest.raises(StrictAnalysisError) as info:
            gateway.register(
                "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
                "WHERE s.val > 5 AND s.val < 3",
                name="doomed",
                strict=True,
            )
        assert info.value.report.has_errors
        assert "doomed" not in gateway
        assert gateway.shared_reader_count == 0
        assert not gateway.engine.catalog.refs

    def test_strict_accepts_clean_query(self):
        gateway = fresh_gateway()
        registered = gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            strict=True,
        )
        assert registered.active

    def test_default_registration_is_advisory(self):
        gateway = fresh_gateway()
        registered = gateway.register(
            "SELECT s.val AS v FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 5 AND s.val < 3"
        )
        assert registered.active  # runs (and yields nothing) as before


class TestRegistrationDiagnostics:
    def test_sharing_prediction(self):
        gateway = fresh_gateway()
        gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            name="base",
        )
        peer = gateway.register(
            "SELECT s.sid AS sid, AVG(s.val) AS a "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            name="peer",
        )
        codes = {d.code for d in peer.diagnostics}
        assert "ANA030" in codes
        assert any("base" in d.message for d in peer.diagnostics)

    def test_filter_subsumption_opportunity(self):
        gateway = fresh_gateway()
        gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            name="broad",
        )
        narrow = gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s "
            "WHERE s.val > 2 GROUP BY s.sid",
            name="narrow",
        )
        subsumed = [d for d in narrow.diagnostics if d.code == "ANA031"]
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
        broad = gateway.register(
            "SELECT s.sid AS sid, COUNT(*) AS n "
            "FROM timeSlidingWindow(S, 10, 2) AS s GROUP BY s.sid",
            name="broad",
        )
        assert not [d for d in broad.diagnostics if d.code == "ANA031"]


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
        deployment = siemens()
        session = deployment.session()
        try:
            handle = session.submit(task_text(0), strict=True)
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

        def run(audit, strict):
            if audit:
                monkeypatch.setenv("REPRO_AUDIT", "1")
            else:
                monkeypatch.delenv("REPRO_AUDIT", raising=False)
            gateway = fresh_gateway()
            handles = [
                gateway.register(sql, name=f"q{i}", strict=strict)
                for i, sql in enumerate(sqls)
            ]
            while gateway.step():
                pass
            out = [
                [(r.window_id, tuple(map(tuple, r.rows))) for r in h.results()]
                for h in handles
            ]
            for handle in handles:
                gateway.deregister(handle.name)
            return out

        baseline = run(audit=False, strict=False)
        assert run(audit=True, strict=False) == baseline
        assert run(audit=True, strict=True) == baseline


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
