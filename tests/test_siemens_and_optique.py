"""Integration tests: the Siemens scenario and the OPTIQUE platform facade."""

import pytest

from repro.exastream import plan_sql
from repro.optique import OptiquePlatform
from repro.rdf import Namespace
from repro.siemens import (
    Dashboard,
    FleetConfig,
    SIE,
    build_siemens_mappings,
    build_siemens_ontology,
    deploy,
    diagnostic_catalog,
    generate_fleet,
)
from repro.ontology import check_owl2ql
from repro.streams import ListSource


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(FleetConfig(turbines=4, plants=2, correlated_pairs=2))


@pytest.fixture(scope="module")
def deployment(small_fleet):
    return deploy(fleet=small_fleet, stream_duration=25)


class TestSiemensOntology:
    def test_hundreds_of_terms(self):
        onto = build_siemens_ontology()
        assert onto.term_count() >= 150
        assert len(onto.axioms) >= 150

    def test_profile_conformant(self):
        assert check_owl2ql(build_siemens_ontology()).conformant

    def test_hierarchies_present(self):
        from repro.ontology import AtomicClass, Reasoner

        r = Reasoner(build_siemens_ontology())
        assert r.is_subclass_of(
            AtomicClass(SIE.HeavyDutyGasTurbine), AtomicClass(SIE.Turbine)
        )
        assert r.is_subclass_of(
            AtomicClass(SIE.AnalogTemperatureSensor), AtomicClass(SIE.Sensor)
        )


class TestGenerator:
    def test_deterministic(self):
        a = generate_fleet(FleetConfig(turbines=3, plants=2))
        b = generate_fleet(FleetConfig(turbines=3, plants=2))
        assert a.sensor_ids == b.sensor_ids
        assert a.ramp_sensors == b.ramp_sensors
        rows_a = a.measurement_source(a.sensor_ids[:5], duration_seconds=5)
        rows_b = b.measurement_source(b.sensor_ids[:5], duration_seconds=5)
        assert list(rows_a) == list(rows_b)

    def test_cardinalities(self, small_fleet):
        cfg = small_fleet.config
        assert len(small_fleet.turbine_ids) == cfg.turbines
        assert len(small_fleet.sensor_ids) == cfg.sensor_count
        assert small_fleet.plant_db.row_count("sensors") == cfg.sensor_count

    def test_paper_scale_configuration(self):
        cfg = FleetConfig()
        assert cfg.turbines == 950
        assert cfg.sensor_count > 100_000

    def test_ramp_pattern_injected(self, small_fleet):
        sid = small_fleet.ramp_sensors[0]
        source = small_fleet.measurement_source(
            [sid], duration_seconds=25, ramp_start=5, ramp_length=10
        )
        rows = list(source)
        ramp = [r for r in rows if 5 <= r[0] < 15]
        values = [r[2] for r in ramp]
        assert values == sorted(values)
        assert any(r[3] == 1 for r in rows)  # failure flag raised

    def test_correlated_pair(self, small_fleet):
        from repro.streams import exact_pearson

        a, b = small_fleet.correlated[0]
        source = small_fleet.measurement_source([a, b], duration_seconds=30)
        series = {a: [], b: []}
        for _ts, sid, val, _ in source:
            series[sid].append(val)
        assert exact_pearson(series[a], series[b]) > 0.95

    def test_event_source(self, small_fleet):
        events = list(small_fleet.event_source(duration_seconds=60))
        assert events
        assert all(e[1] in small_fleet.turbine_ids for e in events)


class TestCatalog:
    def test_twenty_tasks(self):
        catalog = diagnostic_catalog()
        assert len(catalog) == 20
        assert len({t.task_id for t in catalog}) == 20
        assert len({t.name for t in catalog}) == 20

    def test_all_parse(self):
        from repro.starql import parse_starql

        for task in diagnostic_catalog():
            query = parse_starql(task.starql)
            assert query.windows, task.name

    def test_all_translate_and_register(self, deployment):
        session = deployment.session()
        for task in diagnostic_catalog():
            handle = session.submit(task.starql, name=f"t{task.task_id}")
            assert handle.prepared.fleet_size >= 1, task.name
        assert len(deployment.gateway.queries) == 20

    def test_fig1_task_fires_on_ramp_sensor(self, small_fleet):
        dep = deploy(fleet=small_fleet, stream_duration=25)
        session = dep.session(sink_capacity=None)  # keep every window
        handle = session.submit(
            diagnostic_catalog()[0].starql, name="fig1", max_windows=20
        )
        while session.step():
            pass
        assert handle.windows_executed == 20
        assert len(handle.sink) == 20  # the unbounded sink dropped nothing
        alerted = {
            triple[0].value.rsplit("/", 1)[-1] for triple in handle.alerts()
        }
        streamed_ramps = {
            s for s in small_fleet.ramp_sensors if s in _streamed(dep)
        }
        assert streamed_ramps <= alerted

    def test_dashboard_collects(self, small_fleet):
        dep = deploy(fleet=small_fleet, stream_duration=25)
        session = dep.session()
        for task in diagnostic_catalog()[:3]:
            session.submit(task.starql, name=f"d{task.task_id}", max_windows=8)
        while session.step():
            pass
        # every session handle is attached to the deployment's dashboard
        dash = dep.dashboard
        assert len(dash.panels) == 3
        rendered = dash.render()
        assert "total alerts" in rendered
        for panel in dash.panels:
            assert 0 < panel.windows_seen <= 8

    def test_standalone_dashboard_subscribes_per_query(self, small_fleet):
        dep = deploy(fleet=small_fleet, stream_duration=25)
        handle = dep.session().submit(
            diagnostic_catalog()[0].starql, name="solo", max_windows=5
        )
        dash = Dashboard()
        panel = dash.subscribe(handle)
        while dep.step():
            pass
        assert panel.windows_seen == 5
        assert dep.dashboard.panel("solo").windows_seen == 5


#: What catalog task 5 translated to while its WHERE pattern was unfolded
#: as one block: every same-turbine sensor *pair*, keyed by both windows.
#: Frozen here as the independent oracle of the per-subject decomposition
#: and of the engine's lookups — and the query that keeps the path of a
#: static relation keyed by two windows exercised.
T05_SINGLE_BLOCK = (
    "SELECT st.v0_s1 AS v0_s1, st.v1_s2 AS v1_s2, st.v2_a1 AS v2_a1, "
    "st.v3_a2 AS v3_a2, st.v4_t AS v4_t, PEARSON(w1.val, w2.val) AS cond0 "
    "FROM timeSlidingWindow(S_Msmt, 30.0, 10.0) AS w1, "
    "timeSlidingWindow(S_Msmt, 30.0, 10.0) AS w2, (SELECT DISTINCT "
    "('http://siemens.com/data/sensor/' || m0.sid) AS v0_s1, "
    "('http://siemens.com/data/sensor/' || m1.sid) AS v1_s2, "
    "('http://siemens.com/data/assembly/' || m0.aid) AS v2_a1, "
    "('http://siemens.com/data/assembly/' || m1.aid) AS v3_a2, "
    "('http://siemens.com/data/turbine/' || m4.tid) AS v4_t FROM sensors "
    "AS m0, sensors AS m1, assemblies AS m4, assemblies AS m5 WHERE "
    "(m0.aid = m4.aid) AND (m4.tid = m5.tid) AND (m1.aid = m5.aid)) AS st "
    "WHERE (('http://siemens.com/data/sensor/' || w1.sid) = st.v0_s1) AND "
    "(('http://siemens.com/data/sensor/' || w2.sid) = st.v1_s2) AND "
    "(w1.ts = w2.ts) GROUP BY st.v0_s1, st.v1_s2, st.v2_a1, st.v3_a2, "
    "st.v4_t HAVING (cond0 > 0.9)"
)


class TestDecomposedWhere:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_task_5_delivers_what_its_single_block_sql_delivers(
        self, shards, incremental
    ):
        fleet = generate_fleet(FleetConfig(turbines=3, plants=2, seed=7))
        dep = deploy(
            fleet=fleet, stream_duration=90,
            shards=shards, incremental=incremental,
        )
        source = dep.engine.stream("S_Msmt")
        quiet = fleet.correlated[0][0]
        dep.register_stream(ListSource(source.stream, [
            row for row in source  # one sensor drops out, then everything
            if not (row[1] == quiet and 12 <= row[0] < 34)
            and not 50 <= row[0] < 63
        ]))
        session = dep.session(sink_capacity=None)
        prepared = session.prepare(diagnostic_catalog()[4].starql)
        assert [s.alias for s in prepared.translation.plan.statics] == [
            "st1", "st2"
        ]
        assert prepared.sql != T05_SINGLE_BLOCK
        handle = session.submit(prepared, name="t05/starql")
        oracle = dep.gateway.register(
            plan_sql(T05_SINGLE_BLOCK, dep.engine, name="t05/sql")
        )
        assert oracle.plan.lookups() == {}  # keyed by w1 and w2
        while dep.step():
            pass
        ours, theirs = handle.registered.results(), oracle.results()
        assert [
            (r.window_id, r.window_end, r.columns, r.rows) for r in ours
        ] == [
            (r.window_id, r.window_end, r.columns, r.rows) for r in theirs
        ]
        assert len(ours) >= 6 and sum(len(r.rows) for r in ours) >= 6
        assert any(not r.rows for r in ours)  # the outage

    def test_a_static_keyed_by_two_windows_is_named(self, deployment):
        session = deployment.session()
        report = session.explain(diagnostic_catalog()[4].starql)
        assert "ANA032" not in {d.code for d in report}
        assert "2 WHERE piece(s)" in report.render()
        from repro.analysis import analyze_plan

        plan = plan_sql(T05_SINGLE_BLOCK, deployment.engine, name="t05/sql")
        (finding,) = [
            d for d in analyze_plan(plan, deployment.engine)
            if d.code == "ANA032"
        ]
        assert finding.severity.name == "WARNING"
        assert "'st' is keyed by windows w1, w2" in finding.message
        assert "not materialised yet" in finding.message
        registered = deployment.gateway.register(plan)
        (finding,) = [
            d for d in analyze_plan(plan, deployment.engine)
            if d.code == "ANA032"
        ]
        rows = len(registered.runtime.statics["st"].relation.rows)
        assert f"({rows} rows)" in finding.message and rows > 1000
        deployment.gateway.deregister(registered.name)
        # ... and so is a WHERE pattern the decomposition must keep whole
        whole = diagnostic_catalog()[4].starql.replace(
            "?t sie:hasPart ?a2.", "?t sie:hasPart ?a2. FILTER(?s1 != ?s2)"
        )
        (finding,) = [d for d in session.explain(whole) if d.code == "ANA032"]
        assert "stayed one piece because filter ?s1 != ?s2" in finding.message


def _streamed(dep):
    source = dep.engine.stream("S_Msmt")
    return {row[1] for row in source.take(10_000)}


class TestOptiquePlatform:
    def test_bootstrap_and_query_lifecycle(self, small_fleet):
        platform = OptiquePlatform()
        NS = Namespace("http://siemens.com/ontology#")
        from repro.siemens import plant_schema

        report = platform.bootstrap_from(
            plant_schema(), small_fleet.plant_db, "plant", NS
        )
        assert report.profile_conformant
        assert platform.ontology.term_count() > 10
        catalog = platform.provenance()
        assert len(catalog) == len(platform.mappings)

    def test_curated_deployment_runs_tasks(self, small_fleet):
        platform = OptiquePlatform(
            ontology=build_siemens_ontology(),
            mappings=build_siemens_mappings(),
        )
        platform.attach_database("plant", small_fleet.plant_db)
        platform.register_stream(
            small_fleet.measurement_source(
                small_fleet.sensor_ids[:10] + small_fleet.ramp_sensors[:1],
                duration_seconds=20,
            )
        )
        from repro.siemens.deployment import MONOTONIC_MACRO, FAILURE_MACRO

        platform.register_macro(MONOTONIC_MACRO)
        platform.register_macro(FAILURE_MACRO)
        session = platform.session(sink_capacity=None)
        task = session.submit(
            diagnostic_catalog()[0].starql, name="fig1", max_windows=18
        )
        while platform.step():
            pass
        assert task.prepared.fleet_size >= 1
        assert platform.dashboard.panel("fig1").windows_seen == 18
        # the ramp sensor raises an alert through the full platform stack
        alerts = task.alerts()
        assert any(
            small_fleet.ramp_sensors[0] in str(t[0]) for t in alerts
        )

    def test_verify_reports_workload_coverage(self):
        platform = OptiquePlatform(
            ontology=build_siemens_ontology(),
            mappings=build_siemens_mappings(),
        )
        report = platform.verify(workload_terms={SIE.hasValue, SIE.Sensor})
        assert not report.uncovered_workload_terms
