"""Tests for T-mappings (mapping saturation) and the residual ontology."""

import hashlib
import random
import sqlite3

from hypothesis import example, given, settings, strategies as st

from repro.mappings import (
    ColumnSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
    Unfolder,
)
from repro.mappings.saturation import existential_subontology, saturate_mappings
from repro.ontology import (
    AtomicClass,
    Existential,
    Ontology,
    Role,
    SubClassOf,
    SubPropertyOf,
)
from repro.queries import ClassAtom, ConjunctiveQuery, PropertyAtom
from repro.rdf import Namespace, Variable, XSD
from repro.rewriting import PerfectRef

NS = Namespace("urn:sat#")
T = Template("urn:data/{id}")


def base_mappings():
    mc = MappingCollection()
    mc.add(MappingAssertion.for_class(
        NS.GasTurbine, TemplateSpec(T),
        "SELECT id FROM turbines WHERE kind = 'gas'", source_name="db"))
    mc.add(MappingAssertion.for_property(
        NS.hasMainSensor, TemplateSpec(T), TemplateSpec(Template("urn:s/{sid}")),
        "SELECT id, sid FROM sensors WHERE main = 1", source_name="db"))
    return mc


class TestSaturation:
    def test_subclass_mapping_copied_up(self):
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.GasTurbine), AtomicClass(NS.Turbine)))
        saturated = saturate_mappings(base_mappings(), onto)
        assert saturated.for_predicate(NS.Turbine)

    def test_domain_projection(self):
        onto = Ontology()
        onto.add(SubClassOf(Existential(Role(NS.hasMainSensor)), AtomicClass(NS.Turbine)))
        saturated = saturate_mappings(base_mappings(), onto)
        turbine_maps = saturated.for_predicate(NS.Turbine)
        assert turbine_maps and turbine_maps[0].is_class_mapping
        assert isinstance(turbine_maps[0].subject, TemplateSpec)

    def test_range_projection(self):
        onto = Ontology()
        onto.add(SubClassOf(
            Existential(Role(NS.hasMainSensor, inverse=True)),
            AtomicClass(NS.Sensor)))
        saturated = saturate_mappings(base_mappings(), onto)
        sensor_maps = saturated.for_predicate(NS.Sensor)
        assert sensor_maps
        # the subject is the *object* template of the property mapping
        assert sensor_maps[0].subject.template.pattern == "urn:s/{sid}"

    def test_literal_object_not_projected_to_class(self):
        mc = MappingCollection()
        mc.add(MappingAssertion.for_property(
            NS.hasValue, TemplateSpec(T), ColumnSpec("v", XSD.double),
            "SELECT id, v FROM m", source_name="db", is_stream=True))
        onto = Ontology()
        onto.add(SubClassOf(
            Existential(Role(NS.hasValue, inverse=True)), AtomicClass(NS.Value)))
        saturated = saturate_mappings(mc, onto)
        assert not saturated.for_predicate(NS.Value)

    def test_role_hierarchy_with_inverse(self):
        onto = Ontology()
        onto.add(SubPropertyOf(Role(NS.hasMainSensor), Role(NS.sensorOf, True)))
        saturated = saturate_mappings(base_mappings(), onto)
        inv_maps = saturated.for_predicate(NS.sensorOf)
        assert inv_maps
        # arguments swapped: subject is now the sensor template
        assert inv_maps[0].subject.template.pattern == "urn:s/{sid}"

    def test_identity_on_empty_tbox(self):
        mc = base_mappings()
        saturated = saturate_mappings(mc, Ontology())
        assert len(saturated) == len(mc)

    def test_pruning_removes_contained_mapping(self):
        mc = base_mappings()
        # a redundant specialisation of the GasTurbine mapping
        mc.add(MappingAssertion.for_class(
            NS.GasTurbine, TemplateSpec(T),
            "SELECT id FROM turbines WHERE kind = 'gas' AND year > 2000",
            source_name="db"))
        saturated = saturate_mappings(mc, Ontology())
        assert len(saturated.for_predicate(NS.GasTurbine)) == 1

    def test_pruning_keeps_incomparable_mappings(self):
        mc = base_mappings()
        mc.add(MappingAssertion.for_class(
            NS.GasTurbine, TemplateSpec(T),
            "SELECT id FROM legacy_turbines WHERE type = 'GT'",
            source_name="db"))
        saturated = saturate_mappings(mc, Ontology())
        assert len(saturated.for_predicate(NS.GasTurbine)) == 2

    def test_saturation_answers_match_rewriting(self):
        """Saturated unfolding == full PerfectRef unfolding (same answers)."""
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.GasTurbine), AtomicClass(NS.Turbine)))
        onto.add(SubClassOf(
            Existential(Role(NS.hasMainSensor)), AtomicClass(NS.Turbine)))
        mc = base_mappings()

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE turbines (id INTEGER, kind TEXT)")
        conn.execute("CREATE TABLE sensors (id INTEGER, sid INTEGER, main INTEGER)")
        conn.executemany("INSERT INTO turbines VALUES (?, ?)",
                         [(1, "gas"), (2, "steam")])
        conn.executemany("INSERT INTO sensors VALUES (?, ?, ?)",
                         [(2, 10, 1), (3, 11, 0)])

        x = Variable("x")
        q = ConjunctiveQuery((x,), (ClassAtom(NS.Turbine, x),))
        rows_a, rows_b = both_paths(conn, onto, mc, q)
        assert rows_a == rows_b == {("urn:data/1",), ("urn:data/2",)}


# -- path A / path B: the residual TBox answers what the full TBox answers --
#
# Path A is PerfectRef over the full TBox + the raw mappings; path B is
# PerfectRef over ``existential_subontology`` + the saturated mappings.
# Both unfold to SQL and run on sqlite; the answer sets must be equal.

CLASSES = ("A", "B", "C", "D")
ROLES = ("p", "q", "r")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def signature_mappings():
    """One table per class (``c_A(id)``) and per role (``r_p(s, o)``)."""
    mc = MappingCollection()
    for name in CLASSES:
        mc.add(MappingAssertion.for_class(
            NS[name], TemplateSpec(Template("urn:i/{id}")),
            f"SELECT id FROM c_{name}", source_name="db"))
    for name in ROLES:
        mc.add(MappingAssertion.for_property(
            NS[name], TemplateSpec(Template("urn:i/{s}")),
            TemplateSpec(Template("urn:i/{o}")),
            f"SELECT s, o FROM r_{name}", source_name="db"))
    return mc


def signature_db(members=(), edges=()):
    """``members``: (class, id) pairs; ``edges``: (role, s, o) triples."""
    conn = sqlite3.connect(":memory:")
    for name in CLASSES:
        conn.execute(f"CREATE TABLE c_{name} (id INTEGER)")
    for name in ROLES:
        conn.execute(f"CREATE TABLE r_{name} (s INTEGER, o INTEGER)")
    for name, member in members:
        conn.execute(f"INSERT INTO c_{name} VALUES (?)", (member,))
    for name, s, o in edges:
        conn.execute(f"INSERT INTO r_{name} VALUES (?, ?)", (s, o))
    return conn


def both_paths(conn, onto, mc, query):
    def answers(sql):
        return set(conn.execute(sql).fetchall()) if sql else set()

    full = Unfolder(mc).unfold(PerfectRef(onto).rewrite(query))
    residual = Unfolder(saturate_mappings(mc, onto)).unfold(
        PerfectRef(existential_subontology(onto)).rewrite(query)
    )
    return answers(full.sql()), answers(residual.sql())


def iri(n):
    return (f"urn:i/{n}",)


class TestResidualEquivalence:
    def test_witness_reached_through_a_super_role(self):
        # {A ⊑ ∃p, p ⊑ q}: q(x, _) must still find A(x) — dropping the
        # role inclusion without closing the existential loses it
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.A), Existential(Role(NS.p))))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        conn = signature_db(members=[("A", 1)], edges=[("q", 2, 3)])
        q = ConjunctiveQuery((X,), (PropertyAtom(NS.q, X, Y),))
        rows_a, rows_b = both_paths(conn, onto, signature_mappings(), q)
        assert rows_a == rows_b == {iri(1), iri(2)}

    def test_one_witness_serves_both_roles(self):
        # p(x, y) ∧ q(x, y) needs the *same* anonymous y under both roles
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.A), Existential(Role(NS.p))))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        conn = signature_db(members=[("A", 1)], edges=[("p", 2, 3)])
        q = ConjunctiveQuery(
            (X,), (PropertyAtom(NS.p, X, Y), PropertyAtom(NS.q, X, Y))
        )
        rows_a, rows_b = both_paths(conn, onto, signature_mappings(), q)
        assert rows_a == rows_b == {iri(1), iri(2)}

    def test_inverse_roles(self):
        # A ⊑ ∃p⁻, p ⊑ q⁻: every A is the object of a p, hence the
        # subject of a q; ∃q ⊑ B folds into the mappings
        onto = Ontology()
        onto.add(SubClassOf(
            AtomicClass(NS.A), Existential(Role(NS.p, inverse=True))))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q, inverse=True)))
        onto.add(SubClassOf(Existential(Role(NS.q)), AtomicClass(NS.B)))
        conn = signature_db(members=[("A", 1)], edges=[("p", 5, 6)])
        mc = signature_mappings()
        q = ConjunctiveQuery((X,), (PropertyAtom(NS.q, X, Y),))
        rows_a, rows_b = both_paths(conn, onto, mc, q)
        assert rows_a == rows_b == {iri(1), iri(6)}
        q = ConjunctiveQuery((X,), (ClassAtom(NS.B, X),))
        rows_a, rows_b = both_paths(conn, onto, mc, q)
        assert rows_a == rows_b == {iri(1), iri(6)}

    def test_qualified_existential(self):
        # B ⊑ ∃p.C, C ⊑ D, p ⊑ q: the witness is a C (and a D) reached
        # by p and by q
        onto = Ontology()
        onto.add(SubClassOf(
            AtomicClass(NS.B), Existential(Role(NS.p), AtomicClass(NS.C))))
        onto.add(SubClassOf(AtomicClass(NS.C), AtomicClass(NS.D)))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        conn = signature_db(
            members=[("B", 1), ("D", 4)], edges=[("q", 2, 4), ("p", 3, 9)]
        )
        q = ConjunctiveQuery(
            (X,), (PropertyAtom(NS.q, X, Y), ClassAtom(NS.D, Y))
        )
        rows_a, rows_b = both_paths(conn, onto, signature_mappings(), q)
        assert rows_a == rows_b == {iri(1), iri(2)}

    def test_witness_owns_a_witness(self):
        # A ⊑ ∃p, ∃p⁻ ⊑ ∃r: a chain of two anonymous individuals
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.A), Existential(Role(NS.p))))
        onto.add(SubClassOf(
            Existential(Role(NS.p, inverse=True)), Existential(Role(NS.r))))
        conn = signature_db(members=[("A", 1)])
        q = ConjunctiveQuery(
            (X,), (PropertyAtom(NS.p, X, Y), PropertyAtom(NS.r, Y, Z))
        )
        rows_a, rows_b = both_paths(conn, onto, signature_mappings(), q)
        assert rows_a == rows_b == {iri(1)}


# A two-class, two-role signature: small enough that random axioms,
# query atoms and facts keep meeting each other.
SMALL_CLASSES, SMALL_ROLES = CLASSES[:2], ROLES[:2]


@st.composite
def tboxes(draw):
    role = st.builds(Role, st.sampled_from(SMALL_ROLES).map(NS.__getitem__),
                     st.booleans())
    named = st.sampled_from(SMALL_CLASSES).map(NS.__getitem__).map(AtomicClass)
    basic = st.one_of(named, role.map(Existential))
    axiom = st.one_of(
        st.builds(SubClassOf, basic, named),
        st.builds(SubClassOf, basic, role.map(Existential)),
        st.builds(SubClassOf, basic, st.builds(Existential, role, named)),
        st.builds(SubPropertyOf, role, role),
    )
    onto = Ontology()
    for item in draw(st.lists(axiom, min_size=1, max_size=6)):
        onto.add(item)
    return onto


@st.composite
def queries(draw):
    variable = st.sampled_from((X, Y, Z))
    atom = st.one_of(
        st.builds(ClassAtom,
                  st.sampled_from(SMALL_CLASSES).map(NS.__getitem__),
                  variable),
        st.builds(PropertyAtom,
                  st.sampled_from(SMALL_ROLES).map(NS.__getitem__),
                  variable, variable),
    )
    atoms = tuple(draw(st.lists(atom, min_size=1, max_size=3)))
    used = [v for v in (X, Y, Z) if any(v in a.args for a in atoms)]
    arity = draw(st.integers(1, min(2, len(used))))
    return ConjunctiveQuery(tuple(used[:arity]), atoms)


class TestResidualEquivalenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        tboxes(),
        queries(),
        st.sets(st.tuples(st.sampled_from(SMALL_CLASSES), st.integers(0, 2)),
                max_size=4),
        st.sets(st.tuples(st.sampled_from(SMALL_ROLES), st.integers(0, 2),
                          st.integers(0, 2)), max_size=4),
    )
    def test_random_dl_lite_tboxes(self, onto, query, members, edges):
        conn = signature_db(sorted(members), sorted(edges))
        rows_a, rows_b = both_paths(conn, onto, signature_mappings(), query)
        assert rows_a == rows_b


def natural_join(pieces):
    """The join of lists of ``{variable: value}`` bindings on the
    variables they share."""
    joined = [{}]
    for piece in pieces:
        joined = [
            {**bound, **more}
            for bound in joined
            for more in piece
            if all(bound.get(v, x) == x for v, x in more.items())
        ]
    return joined


def _ontology(*axioms):
    onto = Ontology()
    for axiom in axioms:
        onto.add(axiom)
    return onto


_A, _B = (AtomicClass(NS[name]) for name in SMALL_CLASSES)
_P, _Q = (Role(NS[name]) for name in SMALL_ROLES)


class TestWhereDecomposition:
    """``decompose_where``: per-subject pieces whose certain answers,
    naturally joined, are the whole pattern's."""

    @staticmethod
    def answers(conn, onto, mc, query):
        unfolding = Unfolder(saturate_mappings(mc, onto)).unfold(
            PerfectRef(existential_subontology(onto)).rewrite(query)
        )
        rows = set(conn.execute(unfolding.sql())) if unfolding.sql() else set()
        return [dict(zip(query.answer_variables, row)) for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(
        tboxes(),
        st.randoms(use_true_random=False),
        st.sets(st.tuples(st.sampled_from(SMALL_CLASSES), st.integers(0, 2)),
                max_size=5),
        st.sets(st.tuples(st.sampled_from(SMALL_ROLES), st.integers(0, 2),
                          st.integers(0, 2)), max_size=6),
    )
    # Whole patterns whose rewritings unfold to more SELECT blocks than
    # one SQLite compound SELECT takes (600 and 768): before the fleet
    # nested its UNIONs, the whole pattern's SQL raised "too many terms
    # in compound SELECT".  The second rewriting's 4 112 disjuncts also
    # took PerfectRef's minimisation several seconds when it compared
    # every pair of disjuncts.
    @example(
        _ontology(
            SubClassOf(_B, _A), SubClassOf(Existential(_P.inverted()), _B),
            SubClassOf(Existential(_P), Existential(_Q.inverted())),
            SubPropertyOf(_Q, _Q), SubPropertyOf(_Q.inverted(), _P.inverted()),
            SubPropertyOf(_Q.inverted(), _Q.inverted()),
        ),
        random.Random(88), set(), set(),
    )
    @example(
        _ontology(
            SubClassOf(_A, _A), SubClassOf(Existential(_Q), _B),
            SubClassOf(_B, Existential(_Q, _A)),
            SubClassOf(_A, Existential(_P, _B)),
            SubPropertyOf(_P, _Q.inverted()), SubPropertyOf(_Q, _P),
        ),
        random.Random(11),
        {("A", 0), ("A", 1), ("A", 2), ("B", 0), ("B", 1)},
        {("p", 1, 1), ("q", 2, 2)},
    )
    def test_pieces_join_to_the_whole_pattern(self, onto, rng, members, edges):
        from cqgen import random_where_pattern
        from repro.starql.translator import decompose_where

        cq, subjects = random_where_pattern(
            rng, [NS[c] for c in SMALL_CLASSES], [NS[r] for r in SMALL_ROLES]
        )
        pieces, reason = decompose_where(cq, subjects)
        straddled = any(
            len(set(atom.variables()) & set(subjects)) == 2 for atom in cq.atoms
        )
        if len(set(subjects)) < 2:
            assert (pieces, reason) == ([cq], None)
        elif straddled:
            assert pieces == [cq] and reason
        if len(pieces) == 1:
            assert pieces == [cq]
            return
        assert reason is None and len(pieces) == len(set(subjects))
        for piece, subject in zip(pieces, dict.fromkeys(subjects)):
            held = set(piece.answer_variables)
            assert held & set(subjects) == {subject}
            assert held == set(piece.body_variables())
            assert all(set(f.variables()) <= held for f in piece.filters)
        assert all(
            any(atom in piece.atoms for piece in pieces) for atom in cq.atoms
        )
        assert all(
            any(f in piece.filters for piece in pieces) for f in cq.filters
        )

        conn = signature_db(sorted(members), sorted(edges))
        mc = signature_mappings()
        joined = natural_join(
            self.answers(conn, onto, mc, piece) for piece in pieces
        )

        def rows(bindings):
            return {tuple(b[v] for v in cq.answer_variables) for b in bindings}

        assert rows(joined) == rows(self.answers(conn, onto, mc, cq))

    def test_equidistant_variables_are_shared(self):
        # the catalog's task 5: ?t is one step from each sensor's assembly
        s1, s2, a1, a2, t = map(Variable, ("s1", "s2", "a1", "a2", "t"))
        cq = ConjunctiveQuery((s1, s2, a1, a2, t), (
            ClassAtom(NS.A, s1), ClassAtom(NS.A, s2),
            PropertyAtom(NS.p, s1, a1), PropertyAtom(NS.p, s2, a2),
            PropertyAtom(NS.q, t, a1), PropertyAtom(NS.q, t, a2),
        ))
        from repro.starql.translator import decompose_where

        (one, two), reason = decompose_where(cq, [s1, s2, s1])
        assert reason is None
        assert one == ConjunctiveQuery((s1, a1, t), (
            ClassAtom(NS.A, s1), PropertyAtom(NS.p, s1, a1),
            PropertyAtom(NS.q, t, a1),
        ))
        assert two.answer_variables == (s2, a2, t)
        # a direct edge between the subjects' entities: one piece, named
        whole, reason = decompose_where(
            cq.with_atoms(cq.atoms + (PropertyAtom(NS.p, a1, a2),)), [s1, s2]
        )
        assert len(whole) == 1 and "p(?a1, ?a2)" in reason


class TestResidualOntology:
    def test_existential_axioms_closed_under_the_hierarchy(self):
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.A0), AtomicClass(NS.A)))
        onto.add(SubClassOf(AtomicClass(NS.A), AtomicClass(NS.B)))
        onto.add(SubClassOf(AtomicClass(NS.A), Existential(Role(NS.p))))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        onto.add(SubClassOf(
            Existential(Role(NS.q, inverse=True)), AtomicClass(NS.C)))
        residual = existential_subontology(onto)
        witness = Role(NS["p__gen"])
        # who owns a witness: A and everything below it
        assert set(residual.class_inclusions) == {
            SubClassOf(AtomicClass(NS.A), Existential(witness)),
            SubClassOf(AtomicClass(NS.A0), Existential(witness)),
            # ... and what the witness is: ∃p⁻ ⊑ ∃q⁻ ⊑ C
            SubClassOf(Existential(witness.inverted()), AtomicClass(NS.C)),
        }
        # which named roles reach it: p and, through p ⊑ q, q
        assert set(residual.property_inclusions) == {
            SubPropertyOf(witness, Role(NS.p)),
            SubPropertyOf(witness, Role(NS.q)),
        }

    def test_no_inclusion_between_named_terms(self):
        onto = Ontology()
        onto.add(SubClassOf(AtomicClass(NS.A), AtomicClass(NS.B)))
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        onto.add(SubClassOf(Existential(Role(NS.p)), AtomicClass(NS.A)))
        assert not existential_subontology(onto).axioms

    def test_witness_a_named_edge_already_provides_is_skipped(self):
        onto = Ontology()
        onto.add(SubPropertyOf(Role(NS.p), Role(NS.q)))
        onto.add(SubClassOf(
            Existential(Role(NS.p)), Existential(Role(NS.q))))
        assert not existential_subontology(onto).class_inclusions

    def test_siemens_residual_is_empty(self):
        from repro.siemens.ontology import build_siemens_ontology

        assert not existential_subontology(build_siemens_ontology()).axioms


#: (rows, sha256 of the sorted row set) of every catalog task's static
#: side — the natural join of its WHERE pieces' SQL on the variables
#: they share, columns in WHERE-variable order — on
#: ``FleetConfig(turbines=3, plants=2, seed=7)``, captured from the
#: single-block translation the copy-every-property-inclusion residual
#: produced
CATALOG_STATIC_ROWS = {
    1: (336, "61233579fb429ebd"), 2: (72, "3518de1690680c28"),
    3: (9, "cdb6fab9f618e35a"), 4: (48, "1d5f6e3fad91bf54"),
    5: (37632, "3511b7aad773c04f"), 6: (224, "319ba6c7cd6a39c0"),
    7: (72, "3518de1690680c28"), 8: (336, "76ecf34a34aecc49"),
    9: (24, "7db030829658c735"), 10: (42, "4bad3513b2bd5dd1"),
    11: (336, "76ecf34a34aecc49"), 12: (24, "aaceb68c2b6175fd"),
    13: (42, "353748f4e1075171"), 14: (42, "b4c5277294cc5950"),
    15: (48, "5157fd9af9b0e711"), 16: (72, "3518de1690680c28"),
    17: (42, "4e5108be8ec8f283"), 18: (4, "585b3fcd625176ea"),
    19: (336, "76ecf34a34aecc49"), 20: (16, "02ec42b5ca8adf57"),
}


def test_catalog_static_sql_keeps_its_row_sets():
    from repro.siemens import (
        FleetConfig, deploy, diagnostic_catalog, generate_fleet,
    )

    fleet = generate_fleet(FleetConfig(turbines=3, plants=2, seed=7))
    deployment = deploy(fleet=fleet, stream_duration=5)
    seen = {}
    for task in diagnostic_catalog():
        translation = deployment.translator.translate_text(task.starql)
        bindings = natural_join(
            [
                dict(zip(unfolding.answer_variables, row))
                for row in set(
                    deployment.engine.database(ref.source).query(ref.sql)
                )
            ]
            for ref, unfolding in zip(
                translation.plan.statics, translation.unfolding
            )
        )
        variables = translation.starql.where_variables()
        rows = {tuple(b[v] for v in variables) for b in bindings}
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:16]
        seen[task.task_id] = (len(rows), digest)
    assert seen == CATALOG_STATIC_ROWS
