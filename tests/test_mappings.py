"""Tests for mapping templates and the unfolding engine."""


from repro.mappings import (
    ColumnSpec,
    ConstantSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
    Unfolder,
)
from repro.queries import (
    ClassAtom,
    ConjunctiveQuery,
    Filter,
    PropertyAtom,
    UnionOfConjunctiveQueries,
)
from repro.rdf import IRI, Literal, Namespace, Variable, XSD

SIE = Namespace("http://siemens.com/ontology#")
SENSOR_T = Template("urn:data/sensor/{sid}")
ASSEMBLY_T = Template("urn:data/assembly/{aid}")

x, v, a = Variable("x"), Variable("v"), Variable("a")


class TestTemplate:
    def test_columns(self):
        t = Template("urn:{a}/x/{b}")
        assert t.columns == ("a", "b")

    def test_render(self):
        assert SENSOR_T.render({"sid": 3}) == "urn:data/sensor/3"

    def test_match(self):
        assert SENSOR_T.match("urn:data/sensor/3") == {"sid": "3"}

    def test_match_failure(self):
        assert SENSOR_T.match("urn:data/assembly/3") is None

    def test_match_does_not_cross_separators(self):
        assert SENSOR_T.match("urn:data/sensor/a/b") is None

    def test_shape(self):
        assert SENSOR_T.shape == "urn:data/sensor/{}"
        assert Template("urn:data/sensor/{other}").shape == SENSOR_T.shape


def collection():
    mc = MappingCollection()
    mc.add(
        MappingAssertion.for_class(
            SIE.Sensor, TemplateSpec(SENSOR_T), "SELECT sid FROM sensors",
            source_name="plant",
        )
    )
    mc.add(
        MappingAssertion.for_property(
            SIE.hasValue,
            TemplateSpec(SENSOR_T),
            ColumnSpec("val", XSD.double),
            "SELECT sid, val FROM measurements",
            source_name="plant",
            is_stream=True,
        )
    )
    mc.add(
        MappingAssertion.for_property(
            SIE.inAssembly,
            TemplateSpec(SENSOR_T),
            TemplateSpec(ASSEMBLY_T),
            "SELECT sid, aid FROM sensors",
            source_name="plant",
        )
    )
    return mc


PKS = {"sensors": ("sid",), "measurements": ("sid", "ts")}


def unfold_one(cq, mc=None, pks=PKS):
    unfolder = Unfolder(mc or collection(), primary_keys=pks)
    return unfolder.unfold(UnionOfConjunctiveQueries((cq,)))


class TestUnfolding:
    def test_class_atom(self):
        result = unfold_one(ConjunctiveQuery((x,), (ClassAtom(SIE.Sensor, x),)))
        assert result.fleet_size == 1
        sql = result.sql()
        assert "sensors" in sql and "urn:data/sensor/" in sql

    def test_unmapped_predicate_yields_empty(self):
        result = unfold_one(ConjunctiveQuery((x,), (ClassAtom(SIE.Unmapped, x),)))
        assert result.fleet_size == 0
        assert result.query is None
        assert result.sql() == ""

    def test_join_on_shared_variable(self):
        cq = ConjunctiveQuery(
            (x, v),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.hasValue, x, v)),
        )
        result = unfold_one(cq)
        assert result.fleet_size == 1
        assert "(m0.sid = m1.sid)" in result.sql()

    def test_self_join_eliminated(self):
        cq = ConjunctiveQuery(
            (x, a),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.inAssembly, x, a)),
        )
        result = unfold_one(cq)
        # both atoms read table `sensors` joined on its pk -> single scan
        assert result.sql().count("sensors") == 1

    def test_self_join_kept_without_pk_info(self):
        cq = ConjunctiveQuery(
            (x, a),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.inAssembly, x, a)),
        )
        result = unfold_one(cq, pks={})
        assert result.sql().count("sensors") == 2

    def test_self_join_on_an_equated_column_eliminated(self):
        """``Assembly(a)`` read off ``sensors.aid`` (the saturated range
        of ``inAssembly``) beside ``inAssembly(x, a)``: the first scan
        contributes nothing but ``aid``, equated to the second scan's."""
        import sqlite3

        mc = collection()
        mc.add(
            MappingAssertion.for_class(
                SIE.Assembly, TemplateSpec(ASSEMBLY_T),
                "SELECT aid FROM sensors", source_name="plant",
            )
        )
        cq = ConjunctiveQuery(
            (a, x),
            (ClassAtom(SIE.Assembly, a), PropertyAtom(SIE.inAssembly, x, a)),
        )
        result = unfold_one(cq, mc)
        sql = result.sql()
        assert sql.count("sensors") == 1
        # ``aid`` is no key column: the join dropped the NULLs, so must
        # the single scan
        assert sql.endswith("WHERE (m1.aid IS NOT NULL)")
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE sensors (sid INTEGER, aid INTEGER)")
        conn.executemany(
            "INSERT INTO sensors VALUES (?, ?)",
            [(1, 10), (2, 10), (3, 20), (4, None)],
        )
        joined = unfold_one(cq, mc, pks={}).sql()
        assert joined.count("sensors") == 2  # no schema knowledge: kept
        assert (
            set(conn.execute(sql)) == set(conn.execute(joined))
            == {("urn:data/assembly/10", "urn:data/sensor/1"),
                ("urn:data/assembly/10", "urn:data/sensor/2"),
                ("urn:data/assembly/20", "urn:data/sensor/3")}
        )
        # a scan that contributes a column of its own stays
        both = ConjunctiveQuery(
            (a, x, v),
            (PropertyAtom(SIE.inAssembly, v, a), PropertyAtom(SIE.inAssembly, x, a)),
        )
        assert unfold_one(both, mc).sql().count("sensors") == 2

    def test_constant_iri_inverted_through_template(self):
        cq = ConjunctiveQuery(
            (x,),
            (PropertyAtom(SIE.inAssembly, x, IRI("urn:data/assembly/7")),),
        )
        result = unfold_one(cq)
        assert "(m0.aid = '7')" in result.sql()

    def test_incompatible_constant_prunes(self):
        cq = ConjunctiveQuery(
            (x,),
            (PropertyAtom(SIE.inAssembly, x, IRI("urn:data/sensor/7")),),
        )
        assert unfold_one(cq).fleet_size == 0

    def test_literal_constant_on_column(self):
        cq = ConjunctiveQuery(
            (x,),
            (PropertyAtom(SIE.hasValue, x, Literal("42.5", XSD.double)),),
        )
        result = unfold_one(cq)
        assert "(m0.val = 42.5)" in result.sql()

    def test_filter_translated(self):
        cq = ConjunctiveQuery(
            (x, v),
            (PropertyAtom(SIE.hasValue, x, v),),
            (Filter(">", v, Literal("90", XSD.integer)),),
        )
        result = unfold_one(cq)
        assert "(m0.val > 90)" in result.sql()

    def test_template_vs_literal_pruned(self):
        """A variable used as IRI in one atom and literal in another dies."""
        cq = ConjunctiveQuery(
            (x,),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.hasValue, a, x)),
        )
        assert unfold_one(cq).fleet_size == 0

    def test_multiple_mappings_produce_union(self):
        mc = collection()
        mc.add(
            MappingAssertion.for_class(
                SIE.Sensor,
                TemplateSpec(SENSOR_T),
                "SELECT sensor_id AS sid FROM legacy_sensors",
                source_name="legacy",
            )
        )
        result = unfold_one(ConjunctiveQuery((x,), (ClassAtom(SIE.Sensor, x),)), mc)
        assert result.fleet_size == 2
        assert "UNION ALL" in result.sql()

    def test_ucq_disjuncts_merge_and_dedupe(self):
        cq = ConjunctiveQuery((x,), (ClassAtom(SIE.Sensor, x),))
        result = Unfolder(collection(), primary_keys=PKS).unfold(
            UnionOfConjunctiveQueries((cq, cq))
        )
        assert result.fleet_size == 1

    def test_stream_metadata_propagated(self):
        cq = ConjunctiveQuery((x, v), (PropertyAtom(SIE.hasValue, x, v),))
        result = unfold_one(cq)
        d = result.disjuncts[0]
        assert d.uses_stream
        assert d.stream_tables == {"measurements"}
        assert d.sources == {"plant"}

    def test_constructors_rebuild_terms(self):
        cq = ConjunctiveQuery(
            (x, v),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.hasValue, x, v)),
        )
        result = unfold_one(cq)
        ctors = result.disjuncts[0].constructors
        assert ctors[x].construct("urn:data/sensor/9") == IRI("urn:data/sensor/9")
        lit = ctors[v].construct(42.5)
        assert lit == Literal("42.5", XSD.double)

    def test_constant_spec(self):
        mc = MappingCollection()
        mc.add(
            MappingAssertion.for_property(
                SIE.unit,
                TemplateSpec(SENSOR_T),
                ConstantSpec(Literal("celsius")),
                "SELECT sid FROM sensors",
            )
        )
        u = Variable("u")
        cq = ConjunctiveQuery((x, u), (PropertyAtom(SIE.unit, x, u),))
        result = unfold_one(cq, mc)
        assert result.fleet_size == 1
        assert "'celsius'" in result.sql()

    def test_executes_on_sqlite(self):
        import sqlite3

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE sensors (sid INTEGER, aid INTEGER)")
        conn.execute("CREATE TABLE measurements (sid INTEGER, ts REAL, val REAL)")
        conn.executemany("INSERT INTO sensors VALUES (?, ?)", [(1, 10), (2, 20)])
        conn.executemany(
            "INSERT INTO measurements VALUES (?, ?, ?)",
            [(1, 0.0, 95.0), (2, 0.0, 50.0)],
        )
        cq = ConjunctiveQuery(
            (x, v),
            (ClassAtom(SIE.Sensor, x), PropertyAtom(SIE.hasValue, x, v)),
            (Filter(">", v, Literal("60", XSD.integer)),),
        )
        result = unfold_one(cq)
        rows = conn.execute(result.sql()).fetchall()
        assert rows == [("urn:data/sensor/1", 95.0)]
