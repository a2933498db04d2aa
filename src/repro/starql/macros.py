"""Aggregate macros and the HAVING-language evaluator.

STARQL's ``CREATE AGGREGATE`` declares reusable window conditions (the
paper's ``MONOTONIC:HAVING``).  This module provides:

* :class:`MacroRegistry` — macro storage + call expansion (``$var`` /
  ``$attr`` parameter substitution);
* :class:`HavingEvaluator` — evaluation of HAVING expressions over a
  window's state sequence, parameterised by a *state accessor* so the
  same semantics runs in two worlds:

  - :class:`RelationalStates` — tuples grouped by timestamp with
    attribute-to-column roles (the compiled SQL(+)/UDF fast path);
  - :class:`GraphStates` — per-state RDF graphs with optional
    ontology-aware atom expansion (the reference semantics).

* :func:`compile_macro` — close a HAVING body over a role map, yielding a
  sequence UDF the EXASTREAM engine can run per group (this *is* the
  STARQL2SQL(+) treatment of macros: "we use standard SQL to combine
  data and process them with UDFs").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from ..errors import ReproError
from ..queries import Atom
from ..rdf import IRI, Graph, Literal, RDF, Term, Variable
from .ast import (
    AggregateComparison,
    AggregateMacro,
    BoolOp,
    Comparison,
    Exists,
    Forall,
    GraphPattern,
    HavingExpr,
    Implies,
    MacroCall,
)

__all__ = [
    "MacroRegistry",
    "MacroError",
    "substitute_having",
    "collect_attributes",
    "HavingEvaluator",
    "RelationalStates",
    "GraphStates",
    "compile_macro",
]

_PARAM_PREFIX = "urn:starql:param:"


class MacroError(ReproError, ValueError):
    """Raised on macro registration/expansion problems."""


class MacroRegistry:
    """Named aggregate macros of one deployment."""

    def __init__(self) -> None:
        self._macros: dict[str, AggregateMacro] = {}

    def register(self, macro: AggregateMacro) -> None:
        self._macros[macro.name.upper()] = macro

    def get(self, name: str) -> AggregateMacro | None:
        return self._macros.get(name.upper())

    def names(self) -> set[str]:
        return set(self._macros)

    def expand(self, call: MacroCall) -> HavingExpr:
        """Inline a macro call, substituting its parameters by the args."""
        macro = self.get(call.name)
        if macro is None:
            raise MacroError(f"unknown aggregate macro {call.name!r}")
        if len(call.args) != len(macro.parameters):
            raise MacroError(
                f"{macro.name} expects {len(macro.parameters)} arguments, "
                f"got {len(call.args)}"
            )
        mapping: dict[str, Term] = {
            param: arg for param, arg in zip(macro.parameters, call.args)
        }
        return substitute_having(macro.body, mapping)


def _substitute_term(term: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(term, Variable) and term.name.startswith("$"):
        replacement = mapping.get(term.name)
        if replacement is None:
            raise MacroError(f"unbound macro parameter {term.name}")
        return replacement
    return term


def _substitute_predicate(predicate: IRI, mapping: Mapping[str, Term]) -> IRI:
    if predicate.value.startswith(_PARAM_PREFIX):
        name = "$" + predicate.value[len(_PARAM_PREFIX):]
        replacement = mapping.get(name)
        if not isinstance(replacement, IRI):
            raise MacroError(f"parameter {name} must be bound to an IRI")
        return replacement
    return predicate


def substitute_having(
    expr: HavingExpr, mapping: Mapping[str, Term]
) -> HavingExpr:
    """Replace ``$param`` occurrences (terms and predicates) in a body."""
    if isinstance(expr, GraphPattern):
        atoms = tuple(
            Atom(
                _substitute_predicate(a.predicate, mapping),
                tuple(_substitute_term(t, mapping) for t in a.args),
            )
            for a in expr.atoms
        )
        return GraphPattern(expr.state, atoms)
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _substitute_term(expr.left, mapping),
            _substitute_term(expr.right, mapping),
        )
    if isinstance(expr, MacroCall):
        return MacroCall(
            expr.name,
            tuple(_substitute_term(t, mapping) for t in expr.args),
        )
    if isinstance(expr, AggregateComparison):
        return expr
    if isinstance(expr, Exists):
        return Exists(expr.variables, substitute_having(expr.body, mapping))
    if isinstance(expr, Forall):
        return Forall(
            expr.index_variables,
            expr.index_constraints,
            expr.value_variables,
            substitute_having(expr.body, mapping),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(
            expr.op,
            tuple(substitute_having(o, mapping) for o in expr.operands),
        )
    if isinstance(expr, Implies):
        return Implies(
            substitute_having(expr.premise, mapping),
            substitute_having(expr.conclusion, mapping),
        )
    raise TypeError(f"unexpected having expression {expr!r}")


def collect_attributes(expr: HavingExpr) -> set[IRI]:
    """All attribute IRIs mentioned in GRAPH patterns of a HAVING body."""
    attributes: set[IRI] = set()
    if isinstance(expr, GraphPattern):
        for atom in expr.atoms:
            if atom.is_property_atom:
                attributes.add(atom.predicate)
    elif isinstance(expr, Exists):
        attributes |= collect_attributes(expr.body)
    elif isinstance(expr, Forall):
        attributes |= collect_attributes(expr.body)
    elif isinstance(expr, BoolOp):
        for operand in expr.operands:
            attributes |= collect_attributes(operand)
    elif isinstance(expr, Implies):
        attributes |= collect_attributes(expr.premise)
        attributes |= collect_attributes(expr.conclusion)
    return attributes


# ---------------------------------------------------------------------------
# State accessors
# ---------------------------------------------------------------------------


class RelationalStates:
    """Window states as tuples grouped by timestamp, with attribute roles.

    ``roles`` maps attribute IRI -> tuple index of its value column; rows
    with a ``None`` value for a column simply don't carry that attribute
    (sparse encoding of heterogeneous stream tuples).
    """

    def __init__(
        self,
        rows: list[tuple],
        ts_index: int,
        roles: Mapping[IRI, int],
        subject: Term,
    ) -> None:
        by_ts: dict[Any, list[tuple]] = {}
        for row in rows:
            by_ts.setdefault(row[ts_index], []).append(row)
        self._states = [by_ts[k] for k in sorted(by_ts)]
        self._roles = dict(roles)
        self._subject = subject

    def num_states(self) -> int:
        return len(self._states)

    def match(
        self, state: int, atom: Atom, env: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        if not atom.is_property_atom:
            return  # class atoms carry no stream data in this encoding
        column = self._roles.get(atom.predicate)
        if column is None:
            return
        subject_term, object_term = atom.args
        # subjects inside one group all refer to the grouped entity
        if isinstance(subject_term, Variable):
            bound = env.get(subject_term, self._subject)
            if bound != self._subject:
                return
        elif subject_term != self._subject:
            return
        flag_atom = _is_flag(atom)
        for row in self._states[state]:
            value = row[column]
            if value is None:
                continue
            if flag_atom and not value:
                continue  # a flag attribute holds only when truthy
            extended = dict(env)
            if isinstance(subject_term, Variable):
                extended[subject_term] = self._subject
            if isinstance(object_term, Variable):
                existing = extended.get(object_term)
                if existing is not None and existing != value:
                    continue
                extended[object_term] = value
            elif isinstance(object_term, Literal):
                if object_term.to_python() != value:
                    continue
            yield extended


def _is_flag(atom: Atom) -> bool:
    object_term = atom.args[1]
    return isinstance(object_term, Variable) and object_term.name.startswith(
        "anyobj_"
    )


class GraphStates:
    """Window states as RDF graphs (the reference semantics).

    ``expander`` optionally maps a single atom to alternative atoms implied
    by the ontology (one-atom rewriting), so state patterns benefit from
    enrichment exactly like WHERE patterns do.
    """

    def __init__(
        self,
        graphs: list[Graph],
        static_graph: Graph | None = None,
        expander: Callable[[Atom], Iterable[Atom]] | None = None,
    ) -> None:
        self._graphs = graphs
        self._static = static_graph or Graph()
        self._expander = expander or (lambda atom: [atom])

    def num_states(self) -> int:
        return len(self._graphs)

    def match(
        self, state: int, atom: Atom, env: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        from ..queries import match_atom

        graph = self._graphs[state] | self._static
        seen: set[tuple] = set()
        for candidate in self._expander(atom):
            for extended in match_atom(graph, candidate, _rdf_env(env)):
                native = {
                    var: (value.to_python() if isinstance(value, Literal) else value)
                    for var, value in extended.items()
                }
                merged = dict(env)
                merged.update(native)
                key = tuple(sorted((v.name, repr(x)) for v, x in merged.items()))
                if key not in seen:
                    seen.add(key)
                    yield merged


def _rdf_env(env: dict[Variable, Any]) -> dict[Variable, Term]:
    from ..rdf import term_from_python

    out: dict[Variable, Term] = {}
    for var, value in env.items():
        if isinstance(value, int) and not isinstance(value, bool):
            # state indexes never appear inside graph patterns
            continue
        try:
            out[var] = term_from_python(value)
        except TypeError:
            continue
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class HavingEvaluator:
    """Evaluate a HAVING expression over one window's state sequence.

    The evaluation model is SPARQL-like: expressions produce streams of
    extended environments; truth means "at least one solution".
    """

    states: RelationalStates | GraphStates
    macros: MacroRegistry | None = None

    def is_satisfied(
        self, expr: HavingExpr, env: dict[Variable, Any] | None = None
    ) -> bool:
        return any(True for _ in self.solutions(expr, env or {}))

    def solutions(
        self, expr: HavingExpr, env: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        if isinstance(expr, GraphPattern):
            yield from self._graph_pattern(expr, env)
            return
        if isinstance(expr, Comparison):
            if self._compare(expr, env):
                yield env
            return
        if isinstance(expr, MacroCall):
            if self.macros is None:
                raise MacroError("no macro registry available")
            yield from self.solutions(self.macros.expand(expr), env)
            return
        if isinstance(expr, BoolOp):
            yield from self._boolop(expr, env)
            return
        if isinstance(expr, Exists):
            for assignment in self._index_assignments(expr.variables, (), env):
                if self.is_satisfied(expr.body, assignment):
                    yield env
                    return
            return
        if isinstance(expr, Forall):
            if self._forall(expr, env):
                yield env
            return
        if isinstance(expr, Implies):
            if self._implies(expr, env):
                yield env
            return
        raise TypeError(f"cannot evaluate {expr!r}")

    # -- pieces ------------------------------------------------------------

    def _graph_pattern(
        self, pattern: GraphPattern, env: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        state = env.get(pattern.state)
        if state is None:
            raise MacroError(f"unbound state variable ?{pattern.state.name}")
        if not (0 <= state < self.states.num_states()):
            return
        envs = [env]
        for atom in pattern.atoms:
            next_envs: list[dict[Variable, Any]] = []
            for current in envs:
                next_envs.extend(self.states.match(state, atom, current))
            envs = next_envs
            if not envs:
                return
        yield from envs

    def _compare(self, expr: Comparison, env: dict[Variable, Any]) -> bool:
        left = self._value(expr.left, env)
        right = self._value(expr.right, env)
        if left is None or right is None:
            return False
        ops: dict[str, Callable[[Any, Any], bool]] = {
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        try:
            return ops[expr.op](left, right)
        except TypeError:
            return False

    @staticmethod
    def _value(term: Term, env: dict[Variable, Any]) -> Any:
        if isinstance(term, Variable):
            return env.get(term)
        if isinstance(term, Literal):
            return term.to_python()
        return term

    def _boolop(
        self, expr: BoolOp, env: dict[Variable, Any]
    ) -> Iterator[dict[Variable, Any]]:
        if expr.op == "NOT":
            if not self.is_satisfied(expr.operands[0], env):
                yield env
            return
        if expr.op == "OR":
            seen: set[int] = set()
            for operand in expr.operands:
                for solution in self.solutions(operand, env):
                    yield solution
            return
        # AND: thread bindings through the operands
        envs = [env]
        for operand in expr.operands:
            next_envs: list[dict[Variable, Any]] = []
            for current in envs:
                next_envs.extend(self.solutions(operand, current))
            envs = next_envs
            if not envs:
                return
        yield from envs

    def _index_assignments(
        self,
        variables: tuple[Variable, ...],
        constraints: tuple[Comparison, ...],
        env: dict[Variable, Any],
    ) -> Iterator[dict[Variable, Any]]:
        n = self.states.num_states()
        for combo in product(range(n), repeat=len(variables)):
            assignment = dict(env)
            assignment.update(dict(zip(variables, combo)))
            if all(self._compare(c, assignment) for c in constraints):
                yield assignment

    def _forall(self, expr: Forall, env: dict[Variable, Any]) -> bool:
        for assignment in self._index_assignments(
            expr.index_variables, expr.index_constraints, env
        ):
            if isinstance(expr.body, Implies):
                if not self._implies(expr.body, assignment):
                    return False
            else:
                if not self.is_satisfied(expr.body, assignment):
                    return False
        return True

    def _implies(self, expr: Implies, env: dict[Variable, Any]) -> bool:
        for premise_env in self.solutions(expr.premise, env):
            if not self.is_satisfied(expr.conclusion, premise_env):
                return False
        return True


# ---------------------------------------------------------------------------
# Macro -> sequence UDF compilation
# ---------------------------------------------------------------------------


def compile_macro(
    body: HavingExpr,
    subject: Term,
    attribute_roles: Mapping[IRI, str],
) -> Callable[[list[tuple], dict[str, int]], bool]:
    """Close a HAVING body into an EXASTREAM sequence UDF.

    ``attribute_roles`` names the column role carrying each attribute
    (role names appear in the UDF's ``arg_names`` next to ``ts``).  The
    returned function matches :data:`repro.exastream.udf.SequenceFn`.
    """
    role_names = dict(attribute_roles)

    def udf(tuples: list[tuple], columns: dict[str, int]) -> bool:
        roles = {
            attribute: columns[role]
            for attribute, role in role_names.items()
        }
        states = RelationalStates(tuples, columns["ts"], roles, subject)
        evaluator = HavingEvaluator(states)
        return evaluator.is_satisfied(body)

    return udf
