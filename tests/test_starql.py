"""Tests for STARQL: parser, macros, translator and the equivalence of
the compiled relational path with the reference semantics."""

import random

import pytest

from repro.exastream import GatewayServer, StreamEngine
from repro.mappings import (
    ColumnSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
)
from repro.ontology import parse_ontology
from repro.errors import ReproError
from repro.queries import ClassAtom, PropertyAtom
from repro.rdf import IRI, Literal, Namespace, Variable, XSD
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.starql import (
    AggregateComparison,
    BoolOp,
    Comparison,
    Exists,
    Forall,
    GraphPattern,
    Implies,
    MacroCall,
    MacroError,
    MacroRegistry,
    ReferenceEvaluator,
    STARQLSyntaxError,
    STARQLTranslator,
    TranslationError,
    compile_macro,
    parse_aggregate_macro,
    parse_document,
    parse_duration,
    parse_starql,
    static_abox_graph,
)
from repro.streams import ListSource, Stream, StreamSchema

from having_oracle import HavingEvaluator, RelationalStates, interpret_macro

SIE = Namespace("http://siemens.com/ontology#")

FIG1_QUERY = """
PREFIX sie: <http://siemens.com/ontology#>
PREFIX : <http://www.optique-project.eu/siemens#>
CREATE STREAM S_out AS
CONSTRUCT GRAPH NOW { ?c2 rdf:type :MonInc }
FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration,
STATIC DATA <http://x/ABoxstatic>, ONTOLOGY <http://x/TBox>
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c2 sie:inAssembly ?c1.}
SEQUENCE BY StdSeq AS seq
HAVING MONOTONIC.HAVING(?c2, sie:hasValue)
"""

FIG1_MACRO = """
PREFIX sie: <http://siemens.com/ontology#>
CREATE AGGREGATE MONOTONIC:HAVING ($var,$attr) AS
HAVING EXISTS ?k IN SEQ: GRAPH ?k { $var sie:showsFailure } AND
FORALL ?i < ?j IN seq, ?x, ?y:
(IF ( ?i < ?k AND ?j < ?k AND GRAPH ?i {$var $attr ?x}
     AND GRAPH ?j {$var $attr ?y}) THEN ?x<=?y)
"""


class TestDurations:
    @pytest.mark.parametrize(
        "text,seconds",
        [
            ("PT10S", 10.0),
            ("PT1M", 60.0),
            ("PT2H", 7200.0),
            ("PT1M30S", 90.0),
            ("P1D", 86400.0),
            ("10S", 10.0),
            ("5M", 300.0),
        ],
    )
    def test_parse(self, text, seconds):
        assert parse_duration(text) == seconds

    def test_bad_duration(self):
        with pytest.raises(STARQLSyntaxError):
            parse_duration("soon")


class TestParser:
    def test_fig1_query_shape(self):
        q = parse_starql(FIG1_QUERY)
        assert q.output_stream == "S_out"
        assert q.windows[0].stream == "S_Msmt"
        assert q.windows[0].range_seconds == 10.0
        assert q.windows[0].slide_seconds == 1.0
        assert q.pulse.start_seconds == 600
        assert q.pulse.frequency_seconds == 1.0
        assert len(q.where_atoms) == 3
        assert q.sequence_method == "StdSeq"
        assert isinstance(q.having, MacroCall)
        assert q.having.name == "MONOTONIC.HAVING"

    def test_construct_class_atom_normalised(self):
        q = parse_starql(FIG1_QUERY)
        atom = q.construct_atoms[0]
        assert atom.is_class_atom
        assert atom.predicate.local_name == "MonInc"

    def test_fig1_macro_shape(self):
        m = parse_aggregate_macro(FIG1_MACRO)
        assert m.name == "MONOTONIC.HAVING"
        assert m.parameters == ("$var", "$attr")
        assert isinstance(m.body, Exists)
        body = m.body.body
        graph, forall = body.operands
        assert isinstance(graph, GraphPattern)
        assert isinstance(forall, Forall)
        assert forall.index_constraints[0].op == "<"
        assert isinstance(forall.body, Implies)

    def test_document_with_query_and_macro(self):
        queries, macros = parse_document(FIG1_QUERY + "\n" + FIG1_MACRO)
        assert len(queries) == 1 and len(macros) == 1

    def test_aggregate_comparison(self):
        q = parse_starql(
            FIG1_QUERY.replace(
                "HAVING MONOTONIC.HAVING(?c2, sie:hasValue)",
                "HAVING AVG(?c2, sie:hasValue) > 95",
            )
        )
        assert isinstance(q.having, AggregateComparison)
        assert q.having.function == "AVG"
        assert q.having.op == ">"

    def test_missing_stream_rejected(self):
        bad = """
        CREATE STREAM S AS CONSTRUCT GRAPH NOW { ?x rdf:type <urn:C> }
        FROM STATIC DATA <urn:d>
        WHERE { ?x a <urn:D> }
        """
        with pytest.raises(STARQLSyntaxError):
            parse_starql(bad)

    def test_filter_in_where(self):
        q = parse_starql(
            FIG1_QUERY.replace(
                "?c2 sie:inAssembly ?c1.",
                "?c2 sie:inAssembly ?c1. ?c2 sie:hasThreshold ?th. "
                "FILTER(?th > 100)",
            )
        )
        assert len(q.where_filters) == 1

    def test_trailing_garbage_rejected(self):
        with pytest.raises(STARQLSyntaxError):
            parse_starql(FIG1_QUERY + " bogus trailing")


class TestHavingEvaluator:
    """Direct checks of the macro semantics on relational states: the
    frozen tree-walking oracle and the compiled form must both meet
    every expectation."""

    COLUMNS = {"ts": 0, "attr0": 1, "attr1": 2}
    ROLES = {SIE.hasValue: "attr0", SIE.showsFailure: "attr1"}

    def states(self, rows):
        return RelationalStates(
            rows,
            0,
            {SIE.hasValue: 1, SIE.showsFailure: 2},
            IRI("urn:s1"),
        )

    def macro_body(self):
        macro = parse_aggregate_macro(FIG1_MACRO)
        registry = MacroRegistry()
        registry.register(macro)
        call = MacroCall(
            "MONOTONIC.HAVING", (Variable("s"), SIE.hasValue)
        )
        return registry.expand(call)

    def run(self, rows, body=None):
        body = body or self.macro_body()
        evaluator = HavingEvaluator(self.states(rows))
        expected = evaluator.is_satisfied(body, {Variable("s"): IRI("urn:s1")})
        compiled = compile_macro(body, IRI("urn:s1"), self.ROLES)
        assert compiled(rows, self.COLUMNS) is expected
        return expected

    def test_monotonic_with_failure(self):
        rows = [(0.0, 1.0, None), (1.0, 2.0, None), (2.0, 3.0, None),
                (3.0, None, 1)]
        assert self.run(rows)

    def test_no_failure(self):
        rows = [(0.0, 1.0, None), (1.0, 2.0, None)]
        assert not self.run(rows)

    def test_non_monotonic(self):
        rows = [(0.0, 5.0, None), (1.0, 2.0, None), (2.0, 3.0, None),
                (3.0, None, 1)]
        assert not self.run(rows)

    def test_decrease_after_failure_is_fine(self):
        rows = [(0.0, 1.0, None), (1.0, 2.0, None), (2.0, None, 1),
                (3.0, 0.5, None)]
        assert self.run(rows)

    def test_failure_flag_zero_is_no_failure(self):
        rows = [(0.0, 1.0, 0), (1.0, 2.0, 0)]
        assert not self.run(rows)

    def test_exists_over_indexes(self):
        states = self.states([(0.0, 1.0, None), (1.0, 5.0, None)])
        k = Variable("k")
        x = Variable("x")
        # a reading above 4 exists in some state
        from repro.starql import BoolOp

        cond = Exists((k,), BoolOp("AND", (
            GraphPattern(k, (
                __import__("repro.queries", fromlist=["PropertyAtom"]).PropertyAtom(
                    SIE.hasValue, Variable("s"), x
                ),
            )),
            Comparison(">", x, __import__("repro.rdf", fromlist=["Literal"]).Literal("4", XSD.integer)),
        )))
        evaluator = HavingEvaluator(states)
        assert evaluator.is_satisfied(cond, {Variable("s"): IRI("urn:s1")})
        assert self.run([(0.0, 1.0, None), (1.0, 5.0, None)], cond)


class _HavingFamily:
    """A seeded generator of HAVING bodies over the relational layout:
    EXISTS, FORALL with index constraints, IF..THEN, AND/OR/NOT,
    comparisons, flag atoms and literal objects, with variables reused
    across patterns (joins), bound in only some OR branches, compared
    while unbound, and shadowed by nested quantifiers."""

    SUBJECT = IRI("urn:s1")
    INDEXES = [Variable(n) for n in "ijkm"]
    VALUES = [Variable(n) for n in "xyz"]
    OPS = ["=", "!=", "<", "<=", ">", ">="]

    def __init__(self, rng):
        self.rng = rng

    def body(self):
        """A closed body: every state variable is quantified."""
        rng = self.rng
        if rng.random() < 0.5:
            return self.exists([], 3)
        return self.forall([], 3)

    def exists(self, indexes, depth):
        new = self.rng.sample(self.INDEXES, self.rng.choice([1, 1, 2]))
        return Exists(tuple(new), self.expr(indexes + new, depth - 1))

    def forall(self, indexes, depth):
        rng = self.rng
        new = rng.sample(self.INDEXES, rng.choice([1, 2, 2]))
        scope = indexes + new
        constraints = tuple(
            Comparison(rng.choice(self.OPS), rng.choice(new), rng.choice(scope))
            for _ in range(rng.choice([0, 1, 1, 2]))
        )
        if rng.random() < 0.7:
            body = Implies(
                self.expr(scope, depth - 1), self.expr(scope, depth - 1)
            )
        else:
            body = self.expr(scope, depth - 1)
        return Forall(tuple(new), constraints, tuple(self.VALUES[:2]), body)

    def expr(self, indexes, depth):
        rng = self.rng
        leaves = [self.pattern, self.pattern, self.comparison]
        if depth <= 0:
            return rng.choice(leaves)(indexes)
        roll = rng.random()
        if roll < 0.30:
            return rng.choice(leaves)(indexes)
        if roll < 0.55:
            return BoolOp("AND", tuple(
                self.expr(indexes, depth - 1)
                for _ in range(rng.choice([2, 2, 3]))
            ))
        if roll < 0.70:
            return BoolOp("OR", tuple(
                self.expr(indexes, depth - 1)
                for _ in range(rng.choice([2, 2, 3]))
            ))
        if roll < 0.78:
            return BoolOp("NOT", (self.expr(indexes, depth - 1),))
        if roll < 0.86:
            return Implies(
                self.expr(indexes, depth - 1), self.expr(indexes, depth - 1)
            )
        if roll < 0.93:
            return self.exists(indexes, depth)
        return self.forall(indexes, depth)

    def comparison(self, indexes):
        rng = self.rng

        def operand():
            roll = rng.random()
            if roll < 0.45:
                return rng.choice(self.VALUES)
            if roll < 0.75:
                return rng.choice(indexes)
            if roll < 0.95:
                return Literal(str(rng.choice([0, 1, 2, 3])), XSD.integer)
            return Literal("2.5", XSD.double)

        return Comparison(rng.choice(self.OPS), operand(), operand())

    def pattern(self, indexes):
        rng = self.rng
        atoms = tuple(self.atom() for _ in range(rng.choice([1, 1, 1, 2])))
        return GraphPattern(rng.choice(indexes), atoms)

    def atom(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.85:
            subject = Variable("s")
        elif roll < 0.90:
            subject = self.SUBJECT
        elif roll < 0.95:
            subject = IRI("urn:other")
        else:
            subject = rng.choice(self.VALUES)  # a data variable as subject
        roll = rng.random()
        if roll < 0.05:
            return ClassAtom(SIE.Sensor, subject)
        if roll < 0.10:
            return PropertyAtom(SIE.noSuchRole, subject, rng.choice(self.VALUES))
        if roll < 0.30:  # the parser's encoding of ``{$var sie:showsFailure}``
            return PropertyAtom(
                rng.choice([SIE.showsFailure, SIE.hasValue]), subject,
                Variable(f"anyobj_{rng.randrange(3)}"),
            )
        if roll < 0.45:
            literal = Literal(str(rng.choice([1, 2, 3])), XSD.integer)
            return PropertyAtom(SIE.hasValue, subject, literal)
        if roll < 0.50:
            return PropertyAtom(SIE.hasValue, subject, IRI("urn:any"))
        return PropertyAtom(
            rng.choice([SIE.hasValue, SIE.hasValue, SIE.showsFailure]),
            subject, rng.choice(self.VALUES),
        )

    def sequence(self):
        """``(ts, value, flag)`` rows: ``None`` values, duplicate
        timestamps, unsorted, a single state, no rows at all."""
        rng = self.rng
        shape = rng.random()
        if shape < 0.08:
            return []
        n_rows = 1 if shape < 0.16 else rng.randrange(2, 9)
        times = [0.0] if shape < 0.30 else [float(t) for t in range(5)]
        rows = [
            (
                rng.choice(times),
                rng.choice([None, 1, 2, 3, 2.0, 2.5, 0, "two"]),
                rng.choice([None, None, 0, 1]),
            )
            for _ in range(n_rows)
        ]
        if rng.random() < 0.5:
            rows.sort(key=lambda row: row[0])
        return rows


class TestCompiledHaving:
    """``compile_macro`` against the frozen tree-walking oracle
    (``tests/having_oracle.py``), and its compile-time error surface."""

    ROLES = {SIE.hasValue: "attr0", SIE.showsFailure: "attr1"}
    COLUMNS = {"ts": 0, "attr0": 1, "attr1": 2}

    def agree(self, body, subject, sequences):
        compiled = compile_macro(body, subject, self.ROLES)
        oracle = interpret_macro(body, subject, self.ROLES)
        for rows in sequences:
            expected = oracle(list(rows), self.COLUMNS)
            assert compiled(list(rows), self.COLUMNS) is expected, (
                body, rows, compiled.source
            )

    @pytest.mark.parametrize(
        "call",
        [
            MacroCall("MONOTONIC.HAVING", (Variable("c"), SIE.hasValue)),
            MacroCall("STRICT.INCREASE", (Variable("c"), SIE.hasValue)),
            MacroCall("FAILURE.SEEN", (Variable("c"),)),
        ],
    )
    def test_shipped_macros_agree_with_the_oracle(self, call):
        from repro.siemens import standard_macros

        body = standard_macros().expand(call)
        family = _HavingFamily(random.Random(call.name))
        sequences = [family.sequence() for _ in range(400)]
        self.agree(body, call.args[0], sequences)
        # both truth values actually occur
        compiled = compile_macro(body, call.args[0], self.ROLES)
        assert {compiled(rows, self.COLUMNS) for rows in sequences} == {
            True, False,
        }

    @pytest.mark.parametrize("seed", range(60))
    def test_generated_family_agrees_with_the_oracle(self, seed):
        family = _HavingFamily(random.Random(9100 + seed))
        for _ in range(12):
            body = family.body()
            self.agree(
                body, family.SUBJECT, [family.sequence() for _ in range(8)]
            )

    def test_family_reaches_every_construct_and_both_verdicts(self):
        seen, verdicts = set(), set()

        def walk(expr):
            seen.add(
                f"{type(expr).__name__}:{expr.op}"
                if isinstance(expr, BoolOp) else type(expr).__name__
            )
            for child in getattr(expr, "operands", ()):
                walk(child)
            for name in ("body", "premise", "conclusion"):
                if hasattr(expr, name):
                    walk(getattr(expr, name))

        family = _HavingFamily(random.Random(9100))
        for _ in range(300):
            body = family.body()
            walk(body)
            compiled = compile_macro(body, family.SUBJECT, self.ROLES)
            verdicts.add(compiled(family.sequence(), self.COLUMNS))
        assert seen >= {
            "Exists", "Forall", "Implies", "GraphPattern", "Comparison",
            "BoolOp:AND", "BoolOp:OR", "BoolOp:NOT",
        }
        assert verdicts == {True, False}

    def test_one_compiled_macro_serves_every_column_layout(self):
        from repro.siemens import standard_macros

        call = MacroCall("MONOTONIC.HAVING", (Variable("c"), SIE.hasValue))
        compiled = compile_macro(
            standard_macros().expand(call), call.args[0], self.ROLES
        )
        oracle = interpret_macro(
            standard_macros().expand(call), call.args[0], self.ROLES
        )
        rows = [(0.0, 5.0, None), (1.0, 2.0, None), (2.0, None, 1)]
        wide = [("pad", flag, value, ts) for ts, value, flag in rows]
        moved = {"ts": 3, "attr0": 2, "attr1": 1}
        swapped = {"ts": 3, "attr0": 1, "attr1": 2}
        # a value drop before the failure; read with the roles swapped,
        # the first "failure" (5.0, truthy) has nothing before it
        assert compiled(rows, self.COLUMNS) is False
        assert compiled(wide, moved) is False
        assert compiled(wide, swapped) is True
        for layout in (moved, swapped):
            assert compiled(wide, layout) is oracle(wide, layout)

    def test_compilation_is_memoised_on_the_body(self):
        macro = parse_aggregate_macro(FIG1_MACRO)
        registry = MacroRegistry()
        registry.register(macro)
        call = MacroCall("MONOTONIC.HAVING", (Variable("c"), SIE.hasValue))
        first = compile_macro(registry.expand(call), call.args[0], self.ROLES)
        again = compile_macro(registry.expand(call), call.args[0], self.ROLES)
        assert first is again
        other = compile_macro(
            registry.expand(call), call.args[0], {SIE.hasValue: "attr0"}
        )
        assert other is not first

    def test_translating_a_text_twice_compiles_its_macro_once(self):
        from repro.starql import macros as macros_module

        _, _, _, _, translator = tiny_deployment()
        translator.translate(parse_starql(FIG1_QUERY), name="a")
        before = macros_module._compile_macro.cache_info()
        translator.translate(
            parse_starql(FIG1_QUERY.replace("S_out", "S_other")), name="b"
        )
        after = macros_module._compile_macro.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1

    # -- errors surface when the macro is compiled, as MacroError ----------

    def test_unbound_state_variable(self):
        body = GraphPattern(
            Variable("k"), (PropertyAtom(SIE.hasValue, Variable("s"), Variable("x")),)
        )
        with pytest.raises(MacroError, match=r"unbound state variable \?k"):
            compile_macro(body, IRI("urn:s1"), self.ROLES)

    def test_state_variable_bound_to_a_value(self):
        k, x = Variable("k"), Variable("x")
        value = PropertyAtom(SIE.hasValue, Variable("s"), x)
        body = Exists((k,), BoolOp("AND", (
            GraphPattern(k, (value,)), GraphPattern(x, (value,)),
        )))
        with pytest.raises(MacroError, match="not bound by EXISTS/FORALL"):
            compile_macro(body, IRI("urn:s1"), self.ROLES)

    def test_unexpanded_macro_call_in_a_body(self):
        body = Exists((Variable("k"),), MacroCall("FAILURE.SEEN", (Variable("s"),)))
        with pytest.raises(MacroError, match="FAILURE.SEEN"):
            compile_macro(body, IRI("urn:s1"), self.ROLES)

    def test_unknown_macro_and_wrong_arity_at_translate_time(self):
        _, _, _, _, translator = tiny_deployment()
        for having in ("NO.SUCH(?c2)", "MONOTONIC.HAVING(?c2)"):
            text = FIG1_QUERY.replace(
                "MONOTONIC.HAVING(?c2, sie:hasValue)", having
            )
            with pytest.raises(MacroError) as raised:
                translator.translate(parse_starql(text))
            assert isinstance(raised.value, ReproError)

    def test_window_aggregate_inside_a_body(self):
        body = Exists((Variable("k"),), AggregateComparison(
            "AVG", Variable("s"), SIE.hasValue, ">",
            Literal("1", XSD.integer),
        ))
        with pytest.raises(MacroError, match="AVG"):
            compile_macro(body, IRI("urn:s1"), self.ROLES)

    def test_a_body_too_deep_for_python_is_a_macro_error(self):
        body = GraphPattern(
            Variable("k"), (PropertyAtom(SIE.hasValue, Variable("s"), Variable("x")),)
        )
        for _ in range(30):
            body = BoolOp("AND", (
                GraphPattern(Variable("k"), (
                    PropertyAtom(SIE.hasValue, Variable("s"), Variable("x")),
                )),
                body,
            ))
        with pytest.raises(MacroError, match="too deeply"):
            compile_macro(Exists((Variable("k"),), body), IRI("urn:s1"), self.ROLES)


def tiny_deployment():
    """A minimal ontology/mappings/engine triple shared by tests."""
    onto = parse_ontology(
        """
        Prefix(sie:=<http://siemens.com/ontology#>)
        Ontology(<http://t/onto>
          SubClassOf(sie:TemperatureSensor sie:Sensor)
          ObjectPropertyDomain(sie:inAssembly sie:Sensor)
          ObjectPropertyRange(sie:inAssembly sie:Assembly)
          ClassAssertion(sie:Assembly sie:a1)
          ClassAssertion(sie:TemperatureSensor sie:s1)
          ClassAssertion(sie:TemperatureSensor sie:s2)
          ObjectPropertyAssertion(sie:inAssembly sie:s1 sie:a1)
          ObjectPropertyAssertion(sie:inAssembly sie:s2 sie:a1)
        )
        """
    )
    sensor_t = Template("http://siemens.com/ontology#{sid}")
    assembly_t = Template("http://siemens.com/ontology#{aid}")
    mc = MappingCollection()
    mc.add(MappingAssertion.for_class(
        SIE.Sensor, TemplateSpec(sensor_t), "SELECT sid FROM sensors",
        source_name="db"))
    mc.add(MappingAssertion.for_class(
        SIE.TemperatureSensor, TemplateSpec(sensor_t),
        "SELECT sid FROM sensors WHERE kind = 'temperature'",
        source_name="db"))
    mc.add(MappingAssertion.for_class(
        SIE.Assembly, TemplateSpec(assembly_t),
        "SELECT aid FROM assemblies", source_name="db"))
    mc.add(MappingAssertion.for_property(
        SIE.inAssembly, TemplateSpec(sensor_t), TemplateSpec(assembly_t),
        "SELECT sid, aid FROM sensors", source_name="db"))
    mc.add(MappingAssertion.for_property(
        SIE.hasValue, TemplateSpec(sensor_t), ColumnSpec("val", XSD.double),
        "SELECT ts, sid, val FROM S_Msmt", source_name="ms", is_stream=True))
    mc.add(MappingAssertion.for_property(
        SIE.showsFailure, TemplateSpec(sensor_t),
        ColumnSpec("failure", XSD.boolean),
        "SELECT ts, sid, failure FROM S_Msmt WHERE failure = 1",
        source_name="ms", is_stream=True))

    schema = Schema("db")
    schema.add(Table("assemblies", [Column("aid", SQLType.TEXT)],
                     primary_key=("aid",)))
    schema.add(Table("sensors", [Column("sid", SQLType.TEXT),
                                 Column("aid", SQLType.TEXT),
                                 Column("kind", SQLType.TEXT)],
                     primary_key=("sid",)))
    db = Database(schema)
    db.insert("assemblies", [("a1",)])
    db.insert("sensors", [("s1", "a1", "temperature"),
                          ("s2", "a1", "temperature")])

    sschema = StreamSchema(
        (Column("ts", SQLType.REAL), Column("sid", SQLType.TEXT),
         Column("val", SQLType.REAL), Column("failure", SQLType.INTEGER)),
        time_column="ts")
    rows = []
    for t in range(12):
        rows.append((float(t), "s1", 50.0 + t, 1 if t == 8 else 0))
        rows.append((float(t), "s2", 60.0 + (1 if t % 2 == 0 else -1) * t,
                     1 if t == 8 else 0))
    engine = StreamEngine()
    engine.register_stream(ListSource(Stream("S_Msmt", sschema), rows))
    engine.attach_database("db", db)

    macros = MacroRegistry()
    macros.register(parse_aggregate_macro(FIG1_MACRO))
    translator = STARQLTranslator(
        onto, mc, engine, macros,
        primary_keys={"sensors": ("sid",), "assemblies": ("aid",)})
    return onto, mc, engine, macros, translator


class TestTranslator:
    def test_fig1_translates(self):
        _, _, engine, _, translator = tiny_deployment()
        result = translator.translate(parse_starql(FIG1_QUERY), name="fig1")
        assert result.fleet_size >= 1
        assert "timeSlidingWindow(S_Msmt" in result.sql
        assert "GROUP BY" in result.sql
        assert result.plan.aggregate is not None
        assert result.plan.windows[0].spec.range_seconds == 10.0

    def test_unknown_attribute_rejected(self):
        _, _, _, _, translator = tiny_deployment()
        bad = FIG1_QUERY.replace("sie:hasValue", "sie:noSuchAttr")
        with pytest.raises(TranslationError):
            translator.translate(parse_starql(bad))

    def test_construct_var_must_be_bound(self):
        _, _, _, _, translator = tiny_deployment()
        bad = FIG1_QUERY.replace("{ ?c2 rdf:type :MonInc }",
                                 "{ ?zz rdf:type :MonInc }")
        with pytest.raises(TranslationError):
            translator.translate(parse_starql(bad))

    def test_relational_path_matches_reference_semantics(self):
        onto, mc, engine, macros, translator = tiny_deployment()
        query = parse_starql(FIG1_QUERY.replace(
            'USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"', ""))
        result = translator.translate(query, name="fig1")
        gateway = GatewayServer(engine)
        registered = gateway.register(result.plan)
        while gateway.step(window_limit=12):
            pass
        relational = {}
        for wr in registered.results():
            triples = set()
            for row in wr.rows:
                triples |= set(result.construct.triples_for(row))
            relational[wr.window_id] = triples

        reference = ReferenceEvaluator(
            onto, mc, engine, static_abox_graph(onto), macros)
        for ref in reference.evaluate(query, max_windows=12):
            assert relational[ref.window_id] == ref.triples

    def test_aggregate_comparison_path(self):
        onto, mc, engine, macros, translator = tiny_deployment()
        text = FIG1_QUERY.replace(
            "HAVING MONOTONIC.HAVING(?c2, sie:hasValue)",
            "HAVING AVG(?c2, sie:hasValue) > 55",
        ).replace('USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"', "")
        result = translator.translate(parse_starql(text), name="avg_task")
        gateway = GatewayServer(engine)
        registered = gateway.register(result.plan)
        while gateway.step(window_limit=12):
            pass
        alerts = [
            result.construct.triples_for(row)[0][0].value
            for wr in registered.results()
            for row in wr.rows
        ]
        assert any("s1" in a for a in alerts)

    def test_enrichment_visible_in_static_sql(self):
        """TemperatureSensor data answers the Sensor query (T-mappings)."""
        _, _, _, _, translator = tiny_deployment()
        result = translator.translate(parse_starql(FIG1_QUERY))
        # bindings come from the sensors table (the only static source)
        assert "sensors" in result.sql


class TestSubstitutionErrors:
    def test_wrong_arity_macro_call(self):
        macros = MacroRegistry()
        macros.register(parse_aggregate_macro(FIG1_MACRO))
        from repro.starql import MacroError

        with pytest.raises(MacroError):
            macros.expand(MacroCall("MONOTONIC.HAVING", (Variable("x"),)))

    def test_unknown_macro(self):
        from repro.starql import MacroError

        with pytest.raises(MacroError):
            MacroRegistry().expand(MacroCall("NOPE", ()))
