"""Parser for the OWL 2 functional-style syntax subset used by OPTIQUE.

Supports the constructs that fall inside the OWL 2 QL profile::

    Prefix(sie:=<http://siemens.com/ontology#>)
    Ontology(<http://siemens.com/ontology>
      Declaration(Class(sie:Turbine))
      SubClassOf(sie:GasTurbine sie:Turbine)
      SubClassOf(sie:Turbine ObjectSomeValuesFrom(sie:hasPart sie:Assembly))
      ObjectPropertyDomain(sie:inAssembly sie:Sensor)
      ObjectPropertyRange(sie:inAssembly sie:Assembly)
      InverseObjectProperties(sie:hasPart sie:partOf)
      SubObjectPropertyOf(sie:hasMainSensor sie:hasSensor)
      DisjointClasses(sie:Turbine sie:Sensor)
      DataPropertyDomain(sie:hasValue sie:Sensor)
      ClassAssertion(sie:Turbine sie:t001)
      ObjectPropertyAssertion(sie:hasPart sie:t001 sie:a001)
      DataPropertyAssertion(sie:hasValue sie:s001 "42.0"^^xsd:double)
    )

The grammar is an s-expression dialect, parsed by a hand written
tokenizer + recursive descent parser.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from ..errors import ReproError
from ..rdf import IRI, Literal, PrefixMap, XSD
from .model import (
    AtomicClass,
    Attribute,
    ClassAssertion,
    ClassExpression,
    DisjointClasses,
    DisjointProperties,
    Existential,
    Ontology,
    PropertyAssertion,
    PropertyExpression,
    Role,
    SubClassOf,
    SubPropertyOf,
    Thing,
)

__all__ = ["parse_ontology", "serialize_ontology", "OntologySyntaxError"]


class OntologySyntaxError(ReproError, ValueError):
    """Raised when the ontology document cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<assign>:?=)
    | (?P<full_iri><[^>]*>)
    | (?P<name>[A-Za-z_][\w.-]*:[\w.-]*|[A-Za-z_][\w.-]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise OntologySyntaxError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        yield kind, match.group()
    yield "eof", ""


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0
        self.prefixes = PrefixMap()

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> tuple[str, str]:
        return self._tokens[self._index]

    def _next(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        got_kind, value = self._next()
        if got_kind != kind:
            raise OntologySyntaxError(f"expected {kind}, got {got_kind} {value!r}")
        return value

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Ontology:
        while self._peek()[1] == "Prefix":
            self._parse_prefix()
        ontology = self._parse_ontology()
        if self._peek()[0] != "eof":
            raise OntologySyntaxError(f"trailing input: {self._peek()[1]!r}")
        return ontology

    def _parse_prefix(self) -> None:
        self._expect("name")  # 'Prefix'
        self._expect("lparen")
        name = self._expect("name")
        if not name.endswith(":"):
            raise OntologySyntaxError(f"prefix name must end with ':': {name!r}")
        self._expect("assign")
        iri = self._expect("full_iri")
        self._expect("rparen")
        self.prefixes.bind(name[:-1], iri[1:-1])

    def _parse_ontology(self) -> Ontology:
        keyword = self._expect("name")
        if keyword != "Ontology":
            raise OntologySyntaxError(f"expected Ontology(...), got {keyword!r}")
        self._expect("lparen")
        ontology = Ontology()
        if self._peek()[0] == "full_iri":
            ontology.iri = self._next()[1][1:-1]
        while self._peek()[0] != "rparen":
            self._parse_axiom(ontology)
        self._expect("rparen")
        return ontology

    def _parse_axiom(self, ontology: Ontology) -> None:
        keyword = self._expect("name")
        self._expect("lparen")
        if keyword == "Declaration":
            self._parse_declaration(ontology)
        elif keyword == "SubClassOf":
            sub = self._parse_class_expression()
            sup = self._parse_class_expression()
            ontology.add(SubClassOf(sub, sup))
        elif keyword == "EquivalentClasses":
            a = self._parse_class_expression()
            b = self._parse_class_expression()
            ontology.add(SubClassOf(a, b))
            ontology.add(SubClassOf(b, a))
        elif keyword == "SubObjectPropertyOf":
            sub = self._parse_object_property()
            sup = self._parse_object_property()
            ontology.add(SubPropertyOf(sub, sup))
        elif keyword == "SubDataPropertyOf":
            sub = Attribute(self._parse_iri())
            sup = Attribute(self._parse_iri())
            ontology.add(SubPropertyOf(sub, sup))
        elif keyword == "InverseObjectProperties":
            p = self._parse_object_property()
            q = self._parse_object_property()
            ontology.add(SubPropertyOf(p, q.inverted()))
            ontology.add(SubPropertyOf(q.inverted(), p))
        elif keyword == "SymmetricObjectProperty":
            p = self._parse_object_property()
            ontology.add(SubPropertyOf(p, p.inverted()))
        elif keyword == "ObjectPropertyDomain":
            p = self._parse_object_property()
            c = self._parse_class_expression()
            ontology.add(SubClassOf(Existential(p), c))
        elif keyword == "ObjectPropertyRange":
            p = self._parse_object_property()
            c = self._parse_class_expression()
            ontology.add(SubClassOf(Existential(p.inverted()), c))
        elif keyword == "DataPropertyDomain":
            u = Attribute(self._parse_iri())
            c = self._parse_class_expression()
            ontology.add(SubClassOf(Existential(u), c))
        elif keyword == "DisjointClasses":
            a = self._parse_class_expression()
            b = self._parse_class_expression()
            ontology.add(DisjointClasses(a, b))
        elif keyword == "DisjointObjectProperties":
            a = self._parse_object_property()
            b = self._parse_object_property()
            ontology.add(DisjointProperties(a, b))
        elif keyword == "ClassAssertion":
            cls = self._parse_class_expression()
            individual = self._parse_iri()
            if not isinstance(cls, AtomicClass):
                raise OntologySyntaxError("ClassAssertion requires a named class")
            ontology.add(ClassAssertion(cls, individual))
        elif keyword == "ObjectPropertyAssertion":
            p = self._parse_object_property()
            subject = self._parse_iri()
            value = self._parse_iri()
            ontology.add(PropertyAssertion(p, subject, value))
        elif keyword == "DataPropertyAssertion":
            u = Attribute(self._parse_iri())
            subject = self._parse_iri()
            value = self._parse_literal()
            ontology.add(PropertyAssertion(u, subject, value))
        else:
            raise OntologySyntaxError(f"unsupported axiom {keyword!r}")
        self._expect("rparen")

    def _parse_declaration(self, ontology: Ontology) -> None:
        kind = self._expect("name")
        self._expect("lparen")
        iri = self._parse_iri()
        self._expect("rparen")
        if kind == "Class":
            ontology.declare_class(iri)
        elif kind == "ObjectProperty":
            ontology.declare_object_property(iri)
        elif kind == "DataProperty":
            ontology.declare_data_property(iri)
        elif kind == "NamedIndividual":
            pass  # individuals need no bookkeeping
        else:
            raise OntologySyntaxError(f"unsupported declaration {kind!r}")

    def _parse_class_expression(self) -> ClassExpression:
        kind, value = self._peek()
        if kind == "name" and value == "ObjectSomeValuesFrom":
            self._next()
            self._expect("lparen")
            prop = self._parse_object_property()
            filler = self._parse_class_expression()
            self._expect("rparen")
            if isinstance(filler, Thing):
                return Existential(prop)
            if not isinstance(filler, AtomicClass):
                raise OntologySyntaxError(
                    "OWL 2 QL allows only named fillers in SomeValuesFrom"
                )
            return Existential(prop, filler)
        if kind == "name" and value == "DataSomeValuesFrom":
            self._next()
            self._expect("lparen")
            attr = Attribute(self._parse_iri())
            self._expect("rparen")
            return Existential(attr)
        iri = self._parse_iri()
        if iri.value == "http://www.w3.org/2002/07/owl#Thing":
            return Thing()
        return AtomicClass(iri)

    def _parse_object_property(self) -> Role:
        kind, value = self._peek()
        if kind == "name" and value == "ObjectInverseOf":
            self._next()
            self._expect("lparen")
            role = Role(self._parse_iri(), inverse=True)
            self._expect("rparen")
            return role
        return Role(self._parse_iri())

    def _parse_iri(self) -> IRI:
        kind, value = self._next()
        if kind == "full_iri":
            return IRI(value[1:-1])
        if kind == "name" and ":" in value:
            return self.prefixes.expand(value)
        raise OntologySyntaxError(f"expected an IRI, got {value!r}")

    def _parse_literal(self) -> Literal:
        value = self._expect("string")
        lexical = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        if self._peek()[0] == "dtsep":
            self._next()
            datatype = self._parse_iri()
            return Literal(lexical, datatype)
        return Literal(lexical, XSD.string)


def parse_ontology(text: str) -> Ontology:
    """Parse an OWL 2 functional-syntax document into an :class:`Ontology`."""
    return _Parser(text).parse()


def _class_to_functional(expr: ClassExpression) -> str:
    if isinstance(expr, Thing):
        return "<http://www.w3.org/2002/07/owl#Thing>"
    if isinstance(expr, AtomicClass):
        return expr.iri.n3()
    if isinstance(expr, Existential):
        if isinstance(expr.property, Attribute):
            return f"DataSomeValuesFrom({expr.property.iri.n3()})"
        prop = _property_to_functional(expr.property)
        filler = (
            "<http://www.w3.org/2002/07/owl#Thing>"
            if expr.filler is None
            else expr.filler.iri.n3()
        )
        return f"ObjectSomeValuesFrom({prop} {filler})"
    raise TypeError(f"unexpected class expression {expr!r}")


def _property_to_functional(prop: PropertyExpression) -> str:
    if isinstance(prop, Attribute):
        return prop.iri.n3()
    if prop.inverse:
        return f"ObjectInverseOf({prop.iri.n3()})"
    return prop.iri.n3()


def serialize_ontology(ontology: Ontology) -> str:
    """Render an :class:`Ontology` back to functional syntax (round-trips)."""
    lines = [f"Ontology(<{ontology.iri}>"]
    for iri in sorted(ontology.classes, key=lambda i: i.value):
        lines.append(f"  Declaration(Class({iri.n3()}))")
    for iri in sorted(ontology.object_properties, key=lambda i: i.value):
        lines.append(f"  Declaration(ObjectProperty({iri.n3()}))")
    for iri in sorted(ontology.data_properties, key=lambda i: i.value):
        lines.append(f"  Declaration(DataProperty({iri.n3()}))")
    for axiom in ontology.axioms:
        if isinstance(axiom, SubClassOf):
            lines.append(
                "  SubClassOf("
                f"{_class_to_functional(axiom.sub)} {_class_to_functional(axiom.sup)})"
            )
        elif isinstance(axiom, SubPropertyOf):
            if isinstance(axiom.sub, Attribute):
                lines.append(
                    f"  SubDataPropertyOf({axiom.sub.iri.n3()} {axiom.sup.iri.n3()})"
                )
            else:
                lines.append(
                    "  SubObjectPropertyOf("
                    f"{_property_to_functional(axiom.sub)} "
                    f"{_property_to_functional(axiom.sup)})"
                )
        elif isinstance(axiom, DisjointClasses):
            lines.append(
                "  DisjointClasses("
                f"{_class_to_functional(axiom.a)} {_class_to_functional(axiom.b)})"
            )
        elif isinstance(axiom, DisjointProperties):
            lines.append(
                "  DisjointObjectProperties("
                f"{_property_to_functional(axiom.a)} "
                f"{_property_to_functional(axiom.b)})"
            )
        elif isinstance(axiom, ClassAssertion):
            lines.append(
                f"  ClassAssertion({axiom.cls.iri.n3()} {axiom.individual.n3()})"
            )
        elif isinstance(axiom, PropertyAssertion):
            if isinstance(axiom.property, Attribute):
                lines.append(
                    "  DataPropertyAssertion("
                    f"{axiom.property.iri.n3()} {axiom.subject.n3()} "
                    f"{axiom.value.n3()})"
                )
            else:
                lines.append(
                    "  ObjectPropertyAssertion("
                    f"{_property_to_functional(axiom.property)} "
                    f"{axiom.subject.n3()} {axiom.value.n3()})"
                )
    lines.append(")")
    return "\n".join(lines)
