"""The frozen oracle for relational HAVING evaluation.

This is the tree-walking interpreter ``repro.starql.macros`` used for the
relational (SQL(+)/UDF) path before macro bodies were compiled: the
``RelationalStates`` accessor, the ``HavingEvaluator`` as it stood then
and the closure ``compile_macro`` built over them (``interpret_macro``
here), moved verbatim.  ``repro.starql.compile_macro`` must agree with
it on every body and every tuple sequence; do not optimise or "fix" this
file — a disagreement is a bug in the compiler or a deliberate semantic
change that needs its own issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from collections.abc import Callable, Iterator, Mapping
from typing import Any

from repro.queries import Atom
from repro.rdf import IRI, Literal, Term, Variable
from repro.starql.ast import (
    BoolOp,
    Comparison,
    Exists,
    Forall,
    GraphPattern,
    HavingExpr,
    Implies,
    MacroCall,
)
from repro.starql.macros import MacroError, MacroRegistry

__all__ = ["RelationalStates", "HavingEvaluator", "interpret_macro"]


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



@dataclass
class HavingEvaluator:
    """Evaluate a HAVING expression over one window's state sequence.

    The evaluation model is SPARQL-like: expressions produce streams of
    extended environments; truth means "at least one solution".
    """

    states: RelationalStates
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


def interpret_macro(
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
