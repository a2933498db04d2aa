"""T-mappings: compiling the TBox hierarchy into the mapping collection.

PerfectRef alone suffers the classic UCQ blowup: a WHERE clause with a
handful of atoms over a TBox with dozens of subclasses per concept
produces the *product* of the per-atom rewritings.  Production OBDA
systems (Ontop, which OPTIQUE builds on for the static case) avoid this
by *saturating the mappings* instead: if ``B ⊑ A`` then every mapping
for ``B`` is also a mapping for ``A``; if ``∃P ⊑ A`` then the
subject-projection of every ``P`` mapping is an ``A`` mapping, and so
on.  After saturation, the rewriter only needs the axioms whose
right-hand side is an existential (those can never be compiled into
mappings because their witnesses are not in the data).

:func:`saturate_mappings` performs the compilation;
:func:`existential_subontology` extracts the residual TBox for the
rewriter.
"""

from __future__ import annotations

from ..ontology import (
    AtomicClass,
    Attribute,
    Existential,
    Ontology,
    PropertyExpression,
    Reasoner,
    Role,
    SubClassOf,
    SubPropertyOf,
    normalize,
)
from ..rdf import IRI
from .model import (
    ColumnSpec,
    ConstantSpec,
    MappingAssertion,
    MappingCollection,
    TemplateSpec,
)

__all__ = ["saturate_mappings", "existential_subontology"]


def _mapping_signature(assertion: MappingAssertion):
    """Canonical (specs, table, predicate-set) of a simple mapping.

    Returns ``None`` for non-simple sources (joins, subqueries); those
    are never pruned.  Term-spec columns are resolved to underlying base
    table columns so differently-aliased projections compare equal.
    """
    from ..sql import BaseTable, Col, SelectQuery, print_expr

    source = assertion.source
    if not isinstance(source, SelectQuery) or len(source.from_) != 1:
        return None
    base = source.from_[0]
    if not isinstance(base, BaseTable) or source.group_by or source.distinct:
        return None
    rename: dict[str, str] = {}
    for item in source.select:
        if isinstance(item.expr, Col):
            rename[item.alias or item.expr.name] = item.expr.name
        else:
            return None

    def spec_sig(spec) -> tuple | None:
        if spec is None:
            return ("none",)
        if isinstance(spec, TemplateSpec):
            return (
                "template",
                spec.template.pattern,
                tuple(rename.get(c, c) for c in spec.template.columns),
            )
        if isinstance(spec, ColumnSpec):
            return ("column", rename.get(spec.column, spec.column), spec.datatype)
        if isinstance(spec, ConstantSpec):
            return ("const", repr(spec.term))
        return None

    subject_sig = spec_sig(assertion.subject)
    object_sig = spec_sig(assertion.object)
    if subject_sig is None or object_sig is None:
        return None
    predicates = frozenset(print_expr(p) for p in source.where)
    return (
        assertion.source_name,
        base.name,
        subject_sig,
        object_sig,
        predicates,
    )


def _prune_redundant(collection: MappingCollection) -> MappingCollection:
    """Drop mappings contained in a more general mapping for the same
    predicate (same source table + term shapes, superset of filters)."""
    result = MappingCollection()
    for predicate in sorted(
        collection.mapped_predicates(), key=lambda i: i.value
    ):
        assertions = collection.for_predicate(predicate)
        signatures = [_mapping_signature(a) for a in assertions]
        kept: list[int] = []
        for i, sig in enumerate(signatures):
            if sig is None:
                kept.append(i)
                continue
            redundant = False
            for j, other_sig in enumerate(signatures):
                if i == j or other_sig is None:
                    continue
                if other_sig[:4] == sig[:4] and other_sig[4] <= sig[4]:
                    if other_sig[4] < sig[4] or j < i:
                        redundant = True
                        break
            if not redundant:
                kept.append(i)
        for i in kept:
            result.add(assertions[i])
    return result


def saturate_mappings(
    mappings: MappingCollection, ontology: Ontology, prune: bool = True
) -> MappingCollection:
    """Close a mapping collection under the ontology's positive inclusions.

    Produces a new collection containing the original assertions plus,
    for every entailed inclusion:

    * ``B ⊑ A`` (named classes): B's class mappings, re-targeted at A;
    * ``∃P ⊑ A`` / ``∃P⁻ ⊑ A``: P's property mappings projected onto
      their subject/object position as A class mappings (object
      projections require an IRI-template object);
    * ``Q ⊑ P`` (roles, with inverses): Q's mappings re-targeted at P,
      arguments swapped when the inclusion inverts direction.

    Saturation is the identity on collections over an empty TBox.
    """
    reasoner = Reasoner(ontology)
    result = MappingCollection()
    seen: set[tuple] = set()

    def add(assertion: MappingAssertion) -> None:
        key = (
            assertion.predicate,
            repr(assertion.subject),
            repr(assertion.object),
            str(assertion.source),
            assertion.source_name,
            assertion.is_stream,
        )
        if key not in seen:
            seen.add(key)
            result.add(assertion)

    for assertion in mappings:
        add(assertion)

    # classes: named subclass closure + domains/ranges of mapped properties
    for cls in ontology.classes:
        target = AtomicClass(cls)
        for sub in reasoner.subclasses(target):
            for assertion in mappings.for_predicate(sub.iri):
                if not assertion.is_class_mapping:
                    continue
                add(
                    MappingAssertion(
                        predicate=cls,
                        subject=assertion.subject,
                        source=assertion.source,
                        object=None,
                        source_name=assertion.source_name,
                        is_stream=assertion.is_stream,
                        identifier=f"tmap:{assertion.identifier}",
                    )
                )
        for prop_iri in list(ontology.object_properties) + list(
            ontology.data_properties
        ):
            is_attr = prop_iri in ontology.data_properties
            for inverse in (False,) if is_attr else (False, True):
                prop = Attribute(prop_iri) if is_attr else Role(prop_iri, inverse)
                if not reasoner.is_subclass_of(Existential(prop), target):
                    continue
                if Existential(prop) == target:  # pragma: no cover
                    continue
                for assertion in mappings.for_predicate(prop_iri):
                    if assertion.is_class_mapping:
                        continue
                    subject_spec = (
                        assertion.object if inverse else assertion.subject
                    )
                    if not isinstance(subject_spec, TemplateSpec):
                        continue  # literals cannot be class members
                    add(
                        MappingAssertion(
                            predicate=cls,
                            subject=subject_spec,
                            source=assertion.source,
                            object=None,
                            source_name=assertion.source_name,
                            is_stream=assertion.is_stream,
                            identifier=f"tmap:{assertion.identifier}",
                        )
                    )

    # properties: role hierarchy closure
    all_props = list(ontology.object_properties) + list(ontology.data_properties)
    for prop_iri in all_props:
        is_attr = prop_iri in ontology.data_properties
        target = Attribute(prop_iri) if is_attr else Role(prop_iri)
        for sub in reasoner.subproperties(target):
            for assertion in mappings.for_predicate(sub.iri):
                if assertion.is_class_mapping:
                    continue
                swap = getattr(sub, "inverse", False)
                subject, obj = assertion.subject, assertion.object
                if swap:
                    if not isinstance(obj, TemplateSpec):
                        continue  # cannot invert onto a literal subject
                    subject, obj = obj, assertion.subject
                add(
                    MappingAssertion(
                        predicate=prop_iri,
                        subject=subject,
                        source=assertion.source,
                        object=obj,
                        source_name=assertion.source_name,
                        is_stream=assertion.is_stream,
                        identifier=f"tmap:{assertion.identifier}",
                    )
                )
    if prune:
        result = _prune_redundant(result)
    return result


def existential_subontology(ontology: Ontology) -> Ontology:
    """The residual TBox for rewriting over saturated mappings.

    Saturation makes the virtual ABox closed under every inclusion with
    a named right-hand side, so the rewriter must only see what
    saturation cannot compile: the *anonymous witnesses* of axioms
    ``X ⊑ ∃R``.  The residual therefore contains no inclusion between
    named terms at all.  Every generating role ``R`` gets an unmapped
    witness role ``G`` (the ``__aux`` role :func:`normalize` made for a
    qualified existential, a fresh ``__gen`` role otherwise) and the
    residual states, closed under the class/role hierarchy via
    :class:`Reasoner`:

    * ``Y ⊑ ∃G`` for every basic concept ``Y`` with ``T ⊨ Y ⊑ X`` —
      who owns a witness (``Y`` ranges over the named signature and
      over the witnesses ``∃G'⁻`` themselves);
    * ``G ⊑ S`` for every named ``S`` with ``T ⊨ R ⊑ S`` — which edges
      reach the witness (for ``A ⊑ ∃p``, ``p ⊑ q``: ``G ⊑ p``,
      ``G ⊑ q``, so ``q(x, _)`` still rewrites to ``A(x)``);
    * ``∃G⁻ ⊑ C`` for every named class ``C`` with ``T ⊨ ∃R⁻ ⊑ C`` —
      what the witness is.

    Only witness roles occur on a left-hand side next to a named
    right-hand side, so no residual axiom rewrites an atom into
    something the saturated mappings already answer.  A witness a named
    edge already provides (``Y = ∃R'`` with ``T ⊨ R' ⊑ R``) is skipped.
    """
    normalised = normalize(ontology)
    residual = Ontology(iri=ontology.iri + "#existential")
    generators = [
        axiom
        for axiom in normalised.class_inclusions
        if isinstance(axiom.sup, Existential) and axiom.sub != axiom.sup
    ]
    if not generators:
        return residual
    reasoner = Reasoner(normalised)

    def by_value(iris):
        return sorted(iris, key=lambda iri: iri.value)

    classes = [AtomicClass(iri) for iri in by_value(ontology.classes)]
    named: list[PropertyExpression] = [
        Role(iri, inverse)
        for iri in by_value(ontology.object_properties)
        for inverse in (False, True)
    ] + [Attribute(iri) for iri in by_value(ontology.data_properties)]
    named_iris = ontology.object_properties | ontology.data_properties

    # generating role -> its witness role, in first-axiom order
    witness: dict[PropertyExpression, PropertyExpression] = {}
    for axiom in generators:
        role = axiom.sup.property
        if role in witness:
            continue
        if role.iri not in named_iris:
            witness[role] = role  # normalize's __aux role: already unmapped
        elif isinstance(role, Attribute):
            witness[role] = Attribute(IRI(f"{role.iri.value}__gen"))
        else:
            suffix = "__gen_inv" if role.inverse else "__gen"
            witness[role] = Role(IRI(role.iri.value + suffix))

    #: (concept as the reasoner knows it, concept as the residual says it)
    owners = [(c, c) for c in classes]
    owners += [(Existential(p), Existential(p)) for p in named]
    owners += [
        (Existential(role.inverted()), Existential(g.inverted()))
        for role, g in witness.items()
        if isinstance(role, Role)
    ]
    emitted: set[SubClassOf] = set()
    for axiom in generators:
        role = axiom.sup.property
        for known, stated in owners:
            if isinstance(known, Existential) and reasoner.is_subproperty_of(
                known.property, role
            ):
                continue  # that edge is already an R-successor
            owns = SubClassOf(stated, Existential(witness[role]))
            if owns not in emitted and reasoner.is_subclass_of(
                known, axiom.sub
            ):
                emitted.add(owns)
                residual.add(owns)
    for role, g in witness.items():
        for sup in named:
            if reasoner.is_subproperty_of(role, sup):
                residual.add(SubPropertyOf(g, sup))
        if isinstance(role, Role):
            reached = Existential(role.inverted())
            for cls in classes:
                if reasoner.is_subclass_of(reached, cls):
                    residual.add(SubClassOf(Existential(g.inverted()), cls))
    return residual
