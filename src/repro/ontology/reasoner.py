"""Classification and consistency reasoning for OWL 2 QL ontologies.

DL-Lite_R reasoning is polynomial: subsumption between *basic concepts*
(named classes and unqualified existentials) reduces to reachability in a
saturation graph, and ABox consistency reduces to checking each negative
inclusion against the saturated positive closure.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from collections.abc import Hashable

from ..errors import ReproError
from ..rdf import IRI
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
    normalize,
)

__all__ = ["Reasoner", "InconsistentOntologyError"]


class InconsistentOntologyError(ReproError):
    """Raised when the ABox violates a (derived) negative inclusion."""


def _role_key(prop: PropertyExpression) -> tuple[IRI, bool]:
    return (prop.iri, prop.inverse)


def _concept_key(expr: ClassExpression) -> Hashable:
    if isinstance(expr, AtomicClass):
        return ("class", expr.iri)
    if isinstance(expr, Existential) and expr.filler is None:
        return ("exists", expr.property.iri, expr.property.inverse)
    if isinstance(expr, Thing):
        return ("thing",)
    raise ValueError(f"not a basic concept: {expr}")


@dataclass
class Reasoner:
    """Precomputed subsumption closures for one ontology.

    The ontology is :func:`normalized <repro.ontology.model.normalize>` on
    construction, so qualified existentials never reach the closure
    computation.

    >>> onto = Ontology()
    >>> a, b = onto.declare_class(IRI("urn:A")), onto.declare_class(IRI("urn:B"))
    >>> _ = onto.add(SubClassOf(a, b))
    >>> Reasoner(onto).is_subclass_of(a, b)
    True
    """

    ontology: Ontology
    _concept_supers: dict[Hashable, set[Hashable]] = field(init=False)
    _role_supers: dict[tuple[IRI, bool], set[tuple[IRI, bool]]] = field(init=False)

    def __post_init__(self) -> None:
        self.ontology = normalize(self.ontology)
        self._role_supers = self._saturate_roles()
        self._concept_supers = self._saturate_concepts()

    # -- closure construction ------------------------------------------------

    def _saturate_roles(self) -> dict[tuple[IRI, bool], set[tuple[IRI, bool]]]:
        """Transitive closure of role inclusions, closed under inversion."""
        edges: dict[tuple[IRI, bool], set[tuple[IRI, bool]]] = defaultdict(set)
        for axiom in self.ontology.property_inclusions:
            sub, sup = axiom.sub, axiom.sup
            edges[_role_key(sub)].add(_role_key(sup))
            if isinstance(sub, Role) and isinstance(sup, Role):
                edges[_role_key(sub.inverted())].add(_role_key(sup.inverted()))
        closure: dict[tuple[IRI, bool], set[tuple[IRI, bool]]] = {}
        nodes = set(edges)
        for targets in edges.values():
            nodes |= targets
        for prop in self.ontology.object_properties:
            nodes.add((prop, False))
            nodes.add((prop, True))
        for prop in self.ontology.data_properties:
            nodes.add((prop, False))
        for node in nodes:
            reached = {node}
            queue = deque([node])
            while queue:
                current = queue.popleft()
                for nxt in edges.get(current, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        queue.append(nxt)
            closure[node] = reached
        return closure

    def _saturate_concepts(self) -> dict[Hashable, set[Hashable]]:
        """Reachability over class inclusions + inferred existential edges.

        ``R ⊑ S`` implies ``∃R ⊑ ∃S`` and ``∃R⁻ ⊑ ∃S⁻``; those edges are
        materialised so concept subsumption is plain graph reachability.
        """
        edges: dict[Hashable, set[Hashable]] = defaultdict(set)
        for axiom in self.ontology.class_inclusions:
            if isinstance(axiom.sup, Thing):
                continue
            edges[_concept_key(axiom.sub)].add(_concept_key(axiom.sup))
        for sub_key, supers in self._role_supers.items():
            iri, inverse = sub_key
            for sup_iri, sup_inverse in supers:
                if (iri, inverse) == (sup_iri, sup_inverse):
                    continue
                edges[("exists", iri, inverse)].add(("exists", sup_iri, sup_inverse))
                edges[("exists", iri, not inverse)].add(
                    ("exists", sup_iri, not sup_inverse)
                )
        nodes: set[Hashable] = set(edges)
        for targets in edges.values():
            nodes |= targets
        for cls in self.ontology.classes:
            nodes.add(("class", cls))
        closure: dict[Hashable, set[Hashable]] = {}
        for node in nodes:
            reached = {node}
            queue = deque([node])
            while queue:
                current = queue.popleft()
                for nxt in edges.get(current, ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        queue.append(nxt)
            closure[node] = reached
        return closure

    # -- public subsumption API ----------------------------------------------

    def is_subclass_of(self, sub: ClassExpression, sup: ClassExpression) -> bool:
        """Entailment ``sub ⊑ sup`` over basic concepts."""
        if isinstance(sup, Thing):
            return True
        sub_key = _concept_key(sub)
        sup_key = _concept_key(sup)
        if sub_key == sup_key:
            return True
        return sup_key in self._concept_supers.get(sub_key, set())

    def is_subproperty_of(
        self, sub: PropertyExpression, sup: PropertyExpression
    ) -> bool:
        """Entailment ``sub ⊑ sup`` over (possibly inverse) properties."""
        sub_key, sup_key = _role_key(sub), _role_key(sup)
        if sub_key == sup_key:
            return True
        return sup_key in self._role_supers.get(sub_key, set())

    def superclasses(self, cls: AtomicClass) -> set[AtomicClass]:
        """All named classes subsuming ``cls`` (excluding itself)."""
        result = set()
        for key in self._concept_supers.get(_concept_key(cls), set()):
            if isinstance(key, tuple) and key[0] == "class" and key[1] != cls.iri:
                result.add(AtomicClass(key[1]))
        return result

    def subclasses(self, cls: AtomicClass) -> set[AtomicClass]:
        """All named classes subsumed by ``cls`` (excluding itself)."""
        target = _concept_key(cls)
        result = set()
        for key, supers in self._concept_supers.items():
            if (
                isinstance(key, tuple)
                and key[0] == "class"
                and key[1] != cls.iri
                and target in supers
            ):
                result.add(AtomicClass(key[1]))
        return result

    def subproperties(self, prop: PropertyExpression) -> set[PropertyExpression]:
        """All properties subsumed by ``prop`` (excluding itself)."""
        target = _role_key(prop)
        result: set[PropertyExpression] = set()
        for key, supers in self._role_supers.items():
            if key != target and target in supers:
                iri, inverse = key
                if iri in self.ontology.data_properties:
                    result.add(Attribute(iri))
                else:
                    result.add(Role(iri, inverse))
        return result

    def classify(self) -> dict[IRI, set[IRI]]:
        """Map every named class to the set of its named superclasses."""
        hierarchy: dict[IRI, set[IRI]] = {}
        for cls in self.ontology.classes:
            hierarchy[cls] = {
                sup.iri for sup in self.superclasses(AtomicClass(cls))
            }
        return hierarchy

    # -- consistency -----------------------------------------------------------

    def _entailed_concepts(self, individual: IRI) -> set[Hashable]:
        """Basic concepts the ABox (+TBox) entails for ``individual``."""
        base: set[Hashable] = set()
        for assertion in self.ontology.class_assertions:
            if assertion.individual == individual:
                base.add(_concept_key(assertion.cls))
        for assertion in self.ontology.property_assertions:
            prop = assertion.property
            if assertion.subject == individual:
                base.add(("exists", prop.iri, prop.inverse))
            if (
                isinstance(prop, Role)
                and isinstance(assertion.value, IRI)
                and assertion.value == individual
            ):
                base.add(("exists", prop.iri, not prop.inverse))
        entailed = set(base)
        for key in base:
            entailed |= self._concept_supers.get(key, set())
        return entailed

    def check_consistency(self) -> None:
        """Raise :class:`InconsistentOntologyError` on a violated disjointness."""
        individuals = {a.individual for a in self.ontology.class_assertions}
        individuals |= {a.subject for a in self.ontology.property_assertions}
        for assertion in self.ontology.property_assertions:
            if isinstance(assertion.value, IRI):
                individuals.add(assertion.value)
        disjoint_pairs = [
            (_concept_key(d.a), _concept_key(d.b))
            for d in self.ontology.disjoint_classes
        ]
        for individual in individuals:
            entailed = self._entailed_concepts(individual)
            for a_key, b_key in disjoint_pairs:
                if a_key in entailed and b_key in entailed:
                    raise InconsistentOntologyError(
                        f"{individual.value} belongs to disjoint concepts "
                        f"{a_key} and {b_key}"
                    )
        self._check_property_disjointness()

    def _check_property_disjointness(self) -> None:
        pairs: dict[tuple[IRI, IRI], set[tuple[IRI, bool]]] = defaultdict(set)
        for assertion in self.ontology.property_assertions:
            if not isinstance(assertion.value, IRI):
                continue
            prop = assertion.property
            if not isinstance(prop, Role):
                continue
            subject, value = assertion.subject, assertion.value
            if prop.inverse:
                subject, value = value, subject
            for sup_iri, sup_inv in self._role_supers.get(
                (prop.iri, False), {(prop.iri, False)}
            ):
                if sup_inv:
                    pairs[(value, subject)].add((sup_iri, False))
                else:
                    pairs[(subject, value)].add((sup_iri, False))
        for disjoint in self.ontology.disjoint_properties:
            a_key = _role_key(disjoint.a)
            b_key = _role_key(disjoint.b)
            for held in pairs.values():
                if a_key in held and b_key in held:
                    raise InconsistentOntologyError(
                        f"disjoint properties {disjoint.a} and {disjoint.b} "
                        "hold between the same pair of individuals"
                    )

    def is_consistent(self) -> bool:
        """``True`` when :meth:`check_consistency` does not raise."""
        try:
            self.check_consistency()
        except InconsistentOntologyError:
            return False
        return True
