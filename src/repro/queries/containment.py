"""CQ homomorphisms and containment.

Containment powers UCQ minimisation after enrichment: when one disjunct is
contained in another, the contained one is redundant and its unfolded SQL
would only add work for the stream engine.  Containment of CQs is
NP-complete in general but our rewritten queries are small (a handful of
atoms), so the backtracking homomorphism search below is fast in practice.
A rewriting can still have thousands of disjuncts, and minimisation
compares them pairwise: :func:`minimize_ucq` rules most pairs out with
set tests before any search.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product

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

    if len(queries) < 2:
        return UnionOfConjunctiveQueries(tuple(queries))
    kept = _Disjuncts()
    for query in queries:
        if not kept.covers(query):
            kept.add(query)
    # A kept query may still be covered by a *later*, larger one
    # (strict containment in the other direction); prune those.
    final = [
        query for i, query in enumerate(kept.queries)
        if not kept.covers(query, skip=i)
    ]
    if not final:  # pragma: no cover - total mutual containment
        final = [kept.queries[0]]
    return UnionOfConjunctiveQueries(tuple(final))


class _Disjuncts:
    """Disjuncts grouped by head and indexed by what a homomorphism from
    them must fix.

    ``query ⊆ other`` needs a homomorphism from ``other`` into
    ``query``, and it maps ``other``'s head onto ``query``'s position by
    position.  So an atom of ``other`` over head variables and
    constants alone has one possible image, which must be an atom of
    ``query``, and every other predicate of ``other`` must occur in
    ``query`` too.  Such atoms are stored with each head variable
    replaced by its first head position; for a ``query``, the atoms
    those forms can map onto are pulled back once per head group, and
    only disjuncts whose forms are all among them are searched.  These
    set tests rule out most pairs of a large rewriting before any
    search.
    """

    def __init__(self) -> None:
        self.queries: list[ConjunctiveQuery] = []
        self._predicates: list[frozenset] = []
        #: head -> positional forms of the atoms it fixes -> positions
        self._groups: dict[tuple, dict[frozenset, list[int]]] = {}

    def add(self, query: ConjunctiveQuery) -> None:
        head = query.answer_variables
        first: dict[Term, int] = {}
        for position, term in enumerate(head):
            if isinstance(term, Variable):
                first.setdefault(term, position)
        forms = frozenset(
            (atom.predicate, tuple(first.get(arg, arg) for arg in atom.args))
            for atom in query.atoms
            if all(arg in first or not isinstance(arg, Variable) for arg in atom.args)
        )
        self._groups.setdefault(head, {}).setdefault(forms, []).append(
            len(self.queries)
        )
        self.queries.append(query)
        self._predicates.append(_predicates(query))

    def covers(self, query: ConjunctiveQuery, skip: int = -1) -> bool:
        """Whether a disjunct (other than position ``skip``) contains
        ``query``."""
        predicates = _predicates(query)
        for head, by_forms in self._groups.items():
            images = _pull_back(head, query)
            if images is None:
                continue
            for forms, positions in by_forms.items():
                if forms <= images and any(
                    position != skip
                    and self._predicates[position] <= predicates
                    and is_contained_in(query, self.queries[position])
                    for position in positions
                ):
                    return True
        return False


def _pull_back(head: tuple, query: ConjunctiveQuery) -> set | None:
    """The positional atom forms (see :class:`_Disjuncts`) of a
    disjunct with ``head`` that map onto atoms of ``query``, or
    ``None`` when no homomorphism maps ``head`` onto ``query``'s."""
    if len(head) != len(query.answer_variables):
        return None
    image: dict[Term, Term] = {}
    for term, target in zip(head, query.answer_variables):
        if not isinstance(term, Variable):
            if term != target:
                return None
        elif image.setdefault(term, target) != target:
            return None
    sources: dict[Term, list] = defaultdict(list)
    for term, target in image.items():
        sources[target].append(head.index(term))
    forms = set()
    for atom in query.atoms:
        choices = [
            sources.get(arg, []) + ([] if isinstance(arg, Variable) else [arg])
            for arg in atom.args
        ]
        forms.update((atom.predicate, args) for args in product(*choices))
    return forms


def _predicates(query: ConjunctiveQuery) -> frozenset:
    return frozenset((atom.predicate.value, len(atom.args)) for atom in query.atoms)
