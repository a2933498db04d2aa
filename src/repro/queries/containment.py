"""CQ homomorphisms and containment.

Containment powers UCQ minimisation after enrichment: when one disjunct is
contained in another, the contained one is redundant and its unfolded SQL
would only add work for the stream engine.  Containment of CQs is
NP-complete in general but our rewritten queries are small (a handful of
atoms), so the backtracking homomorphism search below is fast in practice.
"""

from __future__ import annotations

from collections import defaultdict

from ..rdf import Term, Variable
from .cq import Atom, ConjunctiveQuery, UnionOfConjunctiveQueries, canonical_form

__all__ = ["find_homomorphism", "is_contained_in", "minimize_ucq"]


def _extend(
    mapping: dict[Variable, Term],
    source: Term,
    target: Term,
) -> dict[Variable, Term] | None:
    """Try to extend ``mapping`` with ``source -> target``; None on clash."""
    if isinstance(source, Variable):
        bound = mapping.get(source)
        if bound is None:
            extended = dict(mapping)
            extended[source] = target
            return extended
        return mapping if bound == target else None
    return mapping if source == target else None


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> dict[Variable, Term] | None:
    """A homomorphism from ``source`` onto ``target``'s body, or ``None``.

    The homomorphism must map each answer variable of ``source`` to the
    answer variable of ``target`` in the same head position (the standard
    containment criterion for queries with equal arity heads).
    """
    if len(source.answer_variables) != len(target.answer_variables):
        return None
    mapping: dict[Variable, Term] = {}
    for s_var, t_var in zip(source.answer_variables, target.answer_variables):
        extended = _extend(mapping, s_var, t_var)
        if extended is None:
            return None
        mapping = extended

    by_predicate: dict[tuple[str, int], list[Atom]] = defaultdict(list)
    for atom in target.atoms:
        by_predicate[(atom.predicate.value, len(atom.args))].append(atom)
    # Every source atom needs a same-predicate image, whatever the
    # variable bindings: without one there is nothing to backtrack over.
    # (A set test, not a multiset one — a homomorphism may fold several
    # source atoms onto one target atom.)
    if any(
        (atom.predicate.value, len(atom.args)) not in by_predicate
        for atom in source.atoms
    ):
        return None

    def search(
        remaining: tuple[Atom, ...], current: dict[Variable, Term]
    ) -> dict[Variable, Term] | None:
        if not remaining:
            return current
        atom, rest = remaining[0], remaining[1:]
        for candidate in by_predicate.get(
            (atom.predicate.value, len(atom.args)), ()
        ):
            trial: dict[Variable, Term] | None = current
            for s_arg, t_arg in zip(atom.args, candidate.args):
                trial = _extend(trial, s_arg, t_arg)
                if trial is None:
                    break
            if trial is not None:
                result = search(rest, trial)
                if result is not None:
                    return result
        return None

    return search(source.atoms, mapping)


def is_contained_in(
    sub: ConjunctiveQuery, sup: ConjunctiveQuery
) -> bool:
    """``True`` when every answer of ``sub`` is an answer of ``sup``.

    By the homomorphism theorem, ``sub ⊆ sup`` iff there is a homomorphism
    from ``sup`` into ``sub``.  Filters are handled conservatively: we only
    claim containment when ``sup``'s filters (under the homomorphism) are a
    subset of ``sub``'s.
    """
    hom = find_homomorphism(sup, sub)
    if hom is None:
        return False
    sup_filters = {
        (f.op, str(f.substitute(hom).left), str(f.substitute(hom).right))
        for f in sup.filters
    }
    sub_filters = {(f.op, str(f.left), str(f.right)) for f in sub.filters}
    return sup_filters <= sub_filters


def minimize_ucq(
    ucq: UnionOfConjunctiveQueries,
) -> UnionOfConjunctiveQueries:
    """Remove duplicate (mod renaming) and redundant disjuncts.

    A disjunct is redundant when it is contained in another disjunct (its
    answers are already produced by the other one).  Among mutually
    equivalent disjuncts the one with the fewest atoms is kept, so the
    resulting SQL fleet is as small as possible.
    """
    seen: dict[tuple, ConjunctiveQuery] = {}
    for query in ucq:
        seen.setdefault(canonical_form(query), query)
    # Smallest queries first: the chosen representative of an equivalence
    # class is then always the syntactically smallest member.
    queries = sorted(
        seen.values(), key=lambda q: (len(q.atoms), len(q.filters))
    )

    kept: list[ConjunctiveQuery] = []
    for query in queries:
        if any(is_contained_in(query, other) for other in kept):
            continue  # an already-kept disjunct covers it
        kept.append(query)
    # A kept query may still be covered by a *later*, larger one
    # (strict containment in the other direction); prune those.
    final: list[ConjunctiveQuery] = []
    for i, query in enumerate(kept):
        covered = any(
            j != i and is_contained_in(query, other)
            for j, other in enumerate(kept)
        )
        if not covered:
            final.append(query)
    if not final:  # pragma: no cover - total mutual containment
        final = [kept[0]]
    return UnionOfConjunctiveQueries(tuple(final))
