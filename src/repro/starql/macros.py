"""Aggregate macros and the HAVING-language evaluator.

STARQL's ``CREATE AGGREGATE`` declares reusable window conditions (the
paper's ``MONOTONIC:HAVING``).  This module provides:

* :class:`MacroRegistry` — macro storage + call expansion (``$var`` /
  ``$attr`` parameter substitution);
* :class:`HavingEvaluator` over :class:`GraphStates` — the reference
  semantics: a tree-walking evaluation of HAVING expressions over a
  window's sequence of per-state RDF graphs, with optional
  ontology-aware atom expansion;
* :func:`compile_macro` — the relational semantics: a HAVING body
  compiled, once per body, into Python source over the tuples-by-
  timestamp state layout, yielding a sequence UDF the EXASTREAM engine
  runs per group (this *is* the STARQL2SQL(+) treatment of macros: "we
  use standard SQL to combine data and process them with UDFs").

The two agree by construction of the tests: ``tests/having_oracle.py``
keeps the tree-walker's relational form as the frozen oracle the
compiler is compared against, and ``tests/test_starql.py`` compares the
compiled relational path with the graph reference end to end.
"""

from __future__ import annotations

import operator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
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
    "GraphStates",
    "CompiledMacro",
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
# Graph state accessor
# ---------------------------------------------------------------------------


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

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class HavingEvaluator:
    """Evaluate a HAVING expression over one window's state graphs.

    The evaluation model is SPARQL-like: expressions produce streams of
    extended environments; truth means "at least one solution".  This
    is the reference semantics; the engine runs :func:`compile_macro`'s
    compiled form of the same rules.
    """

    states: GraphStates
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
        try:
            return _COMPARATORS[expr.op](left, right)
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
            for operand in expr.operands:
                yield from self.solutions(operand, env)
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
#
# The relational state layout: a group's tuples bucketed by timestamp,
# buckets in timestamp order -- ``S[i]`` is the rows of state ``i``,
# ``n`` the number of states.  An attribute is a column of those rows
# (``None`` = the row does not carry it); every subject inside one group
# is the grouped entity.
#
# A body compiles to straight-line Python over that layout, in
# continuation-passing style: "for every solution of this expression,
# run what follows" becomes nested ``for``/``if`` blocks with what
# follows emitted inside them.  Wherever the semantics asks only
# *whether* a solution exists (the top level, a quantifier's body, an
# implication's conclusion, NOT) a generated function returns at the
# first one.  Variables are Python locals; a variable some OR branch
# binds and another does not travels as ``None`` (no bound value is ever
# ``None``), which is exactly what an unbound variable reads as in the
# reference semantics.

_PYTHON_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

# What is known at compile time about the value a bound variable holds.
_INDEX = "index"  # a state index: an int in range(n)
_VALUE = "value"  # a column value: anything but None
_SUBJECT = "subject"  # the grouped entity (the constant ``SUBJ``)
_MAYBE = "maybe"  # a value, or None when no branch bound it


@dataclass(frozen=True)
class _Bound:
    """A variable's Python expression and what is known about it."""

    name: str
    kind: str


_Env = dict[Variable, _Bound]


class _Source:
    """Indented source lines of one generated function."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._depth = 1  # every function nests in the ``_make`` factory

    def line(self, text: str) -> None:
        self.lines.append("    " * self._depth + text)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.line(header)
        self._depth += 1
        body_from = len(self.lines)
        try:
            yield
            if len(self.lines) == body_from:
                self.line("pass")  # nothing can follow: no solution here
        finally:
            self._depth -= 1


def _is_flag(atom: Atom) -> bool:
    """``{$var sie:showsFailure}``: the parser's fresh object variable —
    a flag attribute holds only when its value is truthy."""
    object_term = atom.args[1]
    return isinstance(object_term, Variable) and object_term.name.startswith(
        "anyobj_"
    )


class _MacroCompiler:
    """One HAVING body -> the source of its generated functions."""

    def __init__(self, subject: Term, columns: Mapping[IRI, str]) -> None:
        self.subject = subject
        #: attribute -> the Python name holding its column index
        self.columns = columns
        #: Python name -> value, for terms and literals the body mentions
        self.constants: dict[str, Any] = {}
        self.functions: list[_Source] = []
        self._numbers = count()
        self._out = _Source()

    def _fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self._numbers)}"

    def _constant(self, value: Any) -> str:
        name = self._fresh("K")
        self.constants[name] = value
        return name

    # -- generated functions -------------------------------------------------

    @staticmethod
    def _parameters(env: _Env) -> list[Variable]:
        """The variables a generated function receives (the subject is
        a constant, not a parameter)."""
        return [v for v, b in env.items() if b.kind != _SUBJECT]

    def _signature(self, env: _Env) -> str:
        """``S, n, <env>``: a generated function's parameter list, and
        its argument list where ``env`` is what is bound."""
        return ", ".join(
            ["S", "n"] + [env[v].name for v in self._parameters(env)]
        )

    def _define(
        self, env: _Env, emit_body: Callable[[], None], default: object
    ) -> str:
        """Emit ``def f(S, n, <env>)`` around ``emit_body`` (falling off
        its end returns ``default``); the function's name."""
        name = self._fresh("f")
        outer, self._out = self._out, _Source()
        self.functions.append(self._out)
        with self._out.block(f"def {name}({self._signature(env)}):"):
            emit_body()
            self._out.line(f"return {default}")
        self._out = outer
        return name

    def _function(
        self, env: _Env, emit_body: Callable[[], None], default: bool
    ) -> str:
        """:meth:`_define`, and the expression that calls the function
        from a place where ``env`` is bound."""
        return f"{self._define(env, emit_body, default)}({self._signature(env)})"

    def truth(self, expr: HavingExpr, env: _Env) -> str:
        """A Python expression: does ``expr`` have a solution in ``env``?"""
        if isinstance(expr, Exists):
            return self._quantified(expr.variables, (), expr.body, env, True)
        if isinstance(expr, Forall):
            return self._quantified(
                expr.index_variables, expr.index_constraints, expr.body,
                env, False,
            )
        if isinstance(expr, Implies):
            return self._function(
                env, lambda: self._implication(expr, env), True
            )
        if isinstance(expr, BoolOp) and expr.op == "NOT":
            return f"not {self.truth(expr.operands[0], env)}"
        return self._function(
            env, lambda: self._solutions(expr, env, self._found), False
        )

    def _found(self, _env: _Env) -> None:
        self._out.line("return True")

    def _quantified(
        self,
        variables: tuple[Variable, ...],
        constraints: tuple[Comparison, ...],
        body: HavingExpr,
        env: _Env,
        exists: bool,
    ) -> str:
        """EXISTS (true at the first index assignment whose body holds)
        or FORALL (false at the first whose body fails)."""

        def at_assignment(inner: _Env) -> None:
            if exists:
                self._solutions(body, inner, self._found)
            elif isinstance(body, Implies):
                self._implication(body, inner)
            else:
                self._out.line(
                    f"if not {self.truth(body, inner)}: return False"
                )

        return self._function(
            env,
            lambda: self._loops(variables, constraints, env, at_assignment),
            not exists,
        )

    def _loops(
        self,
        variables: tuple[Variable, ...],
        constraints: tuple[Comparison, ...],
        env: _Env,
        then: Callable[[_Env], None],
    ) -> None:
        """One ``for`` over the state indexes per variable; a constraint
        is tested as soon as every index it mentions is assigned."""
        quantified = set(variables)

        def step(position: int, env: _Env, pending: list[Comparison]) -> None:
            unassigned = set(variables[position:])
            ready = [
                c for c in pending
                if not {c.left, c.right} & quantified & unassigned
            ]
            later = [c for c in pending if c not in ready]

            def inside() -> None:
                if position == len(variables):
                    then(env)
                    return
                index = self._fresh("i")
                with self._out.block(f"for {index} in range(n):"):
                    step(
                        position + 1,
                        {**env, variables[position]: _Bound(index, _INDEX)},
                        later,
                    )

            self._all(ready, env, inside)

        step(0, env, list(constraints))

    def _all(
        self, comparisons: Sequence[Comparison], env: _Env,
        then: Callable[[], None],
    ) -> None:
        if not comparisons:
            then()
            return
        self._compare(
            comparisons[0], env,
            lambda: self._all(comparisons[1:], env, then),
        )

    def _implication(self, expr: Implies, env: _Env) -> None:
        """False at the first premise solution the conclusion fails on."""

        def fail() -> None:
            self._out.line("return False")

        def conclude(inner: _Env) -> None:
            if isinstance(expr.conclusion, Comparison):
                self._compare(expr.conclusion, inner, fail, holds=False)
            else:
                with self._out.block(
                    f"if not {self.truth(expr.conclusion, inner)}:"
                ):
                    fail()

        self._solutions(expr.premise, env, conclude)

    # -- solutions ------------------------------------------------------------

    def _solutions(
        self, expr: HavingExpr, env: _Env, then: Callable[[_Env], None]
    ) -> None:
        """Emit code that runs ``then``'s code once per solution of
        ``expr``; ``then`` receives the environment a solution binds."""
        if isinstance(expr, GraphPattern):
            self._pattern(expr, env, then)
        elif isinstance(expr, Comparison):
            self._compare(expr, env, lambda: then(env))
        elif isinstance(expr, BoolOp) and expr.op == "OR":
            self._disjunction(expr.operands, env, then)
        elif isinstance(expr, BoolOp) and expr.op != "NOT":
            self._conjunction(expr.operands, env, then)
        elif isinstance(expr, (BoolOp, Exists, Forall, Implies)):
            # NOT and the quantified forms bind nothing outward
            with self._out.block(f"if {self.truth(expr, env)}:"):
                then(env)
        elif isinstance(expr, MacroCall):
            raise MacroError(
                f"macro call {expr.name} inside a macro body: expand the "
                "body (MacroRegistry.expand) before compiling it"
            )
        elif isinstance(expr, AggregateComparison):
            raise MacroError(
                f"window aggregate {expr.function} cannot appear inside a "
                "macro body"
            )
        else:
            raise TypeError(f"cannot compile {expr!r}")

    def _conjunction(
        self, operands: Sequence[HavingExpr], env: _Env,
        then: Callable[[_Env], None],
    ) -> None:
        if not operands:
            then(env)
            return
        self._solutions(
            operands[0], env,
            lambda inner: self._conjunction(operands[1:], inner, then),
        )

    def _disjunction(
        self, operands: Sequence[HavingExpr], env: _Env,
        then: Callable[[_Env], None],
    ) -> None:
        """What follows an OR becomes one generated function every
        branch calls, so code size stays linear in the body.  It returns
        None to carry on, or the enclosing function's verdict."""
        reached = [
            inner for operand in operands
            for inner in self._reached(operand, env)
        ]
        if not reached:
            return
        merged = dict(env)
        for variable in {v: None for inner in reached for v in inner}:
            bounds = [inner.get(variable) for inner in reached]
            if all(b == bounds[0] for b in bounds):
                merged[variable] = bounds[0]
                continue
            kinds = {_MAYBE if b is None else b.kind for b in bounds}
            merged[variable] = _Bound(
                self._fresh("v"),
                kinds.pop() if len(kinds) == 1
                else _MAYBE if _MAYBE in kinds else _VALUE,
            )
        parameters = self._parameters(merged)
        name = self._define(merged, lambda: then(merged), None)

        def call(inner: _Env) -> None:
            arguments = ["S", "n"]
            for variable in parameters:
                bound = inner.get(variable)
                arguments.append("None" if bound is None else bound.name)
            verdict = self._fresh("t")
            self._out.line(f"{verdict} = {name}({', '.join(arguments)})")
            self._out.line(f"if {verdict} is not None: return {verdict}")

        for operand in operands:
            self._solutions(operand, env, call)

    def _reached(self, expr: HavingExpr, env: _Env) -> list[_Env]:
        """The environments ``expr``'s solutions bind (a dry run)."""
        outer, kept = self._out, len(self.functions)
        self._out = _Source()
        reached: list[_Env] = []
        self._solutions(expr, env, reached.append)
        self._out = outer
        del self.functions[kept:]
        return reached

    # -- atoms of the language ------------------------------------------------

    def _operand(self, term: Term, env: _Env) -> _Bound | None:
        """A comparison operand (``None``: an unbound variable)."""
        if isinstance(term, Variable):
            return env.get(term)
        if isinstance(term, Literal):
            return _Bound(self._constant(term.to_python()), _VALUE)
        return _Bound(self._constant(term), _VALUE)

    def _compare(
        self,
        expr: Comparison,
        env: _Env,
        then: Callable[[], None],
        holds: bool = True,
    ) -> None:
        """Emit ``then``'s code where the comparison holds (or, with
        ``holds=False``, where it does not).  An unbound operand makes
        it false; so does comparing values Python cannot order."""
        if expr.op not in _PYTHON_OPS:
            raise MacroError(f"unknown comparison operator {expr.op!r}")
        left, right = self._operand(expr.left, env), self._operand(expr.right, env)
        if left is None or right is None:
            if not holds:
                then()
            return
        condition = " and ".join(
            [f"{b.name} is not None" for b in (left, right) if b.kind == _MAYBE]
            + [f"{left.name} {_PYTHON_OPS[expr.op]} {right.name}"]
        )
        if not left.kind == right.kind == _INDEX:  # ints always compare
            verdict = self._fresh("t")
            with self._out.block("try:"):
                self._out.line(f"{verdict} = {condition}")
            with self._out.block("except TypeError:"):
                self._out.line(f"{verdict} = False")
            condition = verdict
        with self._out.block(
            f"if {condition}:" if holds else f"if not ({condition}):"
        ):
            then()

    def _pattern(
        self, pattern: GraphPattern, env: _Env, then: Callable[[_Env], None]
    ) -> None:
        state = env.get(pattern.state)
        if state is None:
            raise MacroError(f"unbound state variable ?{pattern.state.name}")
        if state.kind != _INDEX:
            raise MacroError(
                f"state variable ?{pattern.state.name} is not bound by "
                "EXISTS/FORALL to a sequence index"
            )

        def atoms(position: int, env: _Env) -> None:
            if position == len(pattern.atoms):
                then(env)
                return
            self._atom(
                state.name, pattern.atoms[position], env,
                lambda inner: atoms(position + 1, inner),
            )

        atoms(0, env)

    def _atom(
        self, state: str, atom: Atom, env: _Env, then: Callable[[_Env], None]
    ) -> None:
        """One ``subject attribute object`` atom in state ``S[state]``:
        a loop over the state's rows that carry the attribute."""
        if not atom.is_property_atom:
            return  # class atoms carry no stream data in this encoding
        column = self.columns.get(atom.predicate)
        if column is None:
            return
        subject_term, object_term = atom.args
        # subjects inside one group all refer to the grouped entity
        guard = None
        if isinstance(subject_term, Variable):
            bound = env.get(subject_term)
            if bound is not None and bound.kind != _SUBJECT:
                guard = f"not ({bound.name} != SUBJ)"
                if bound.kind == _MAYBE:
                    guard = f"({bound.name} is None or {guard})"
            env = {**env, subject_term: _Bound("SUBJ", _SUBJECT)}
        elif subject_term != self.subject:
            return
        row, value = self._fresh("r"), self._fresh("x")
        # rows with None in the column do not carry the attribute
        carried = [f"{value} is not None"]
        if isinstance(object_term, Variable):
            if _is_flag(atom):
                carried = [value]  # truthy, so not None either
            bound = env.get(object_term)
            if bound is not None:
                same = f"not ({bound.name} != {value})"
                if bound.kind == _MAYBE:
                    same = f"({bound.name} is None or {same})"
                carried.append(same)
            if bound is None or bound.kind == _MAYBE:
                env = {**env, object_term: _Bound(value, _VALUE)}
        elif isinstance(object_term, Literal):
            literal = self._constant(object_term.to_python())
            carried.append(f"not ({literal} != {value})")
        with ExitStack() as blocks:
            if guard is not None:
                blocks.enter_context(self._out.block(f"if {guard}:"))
            blocks.enter_context(
                self._out.block(f"for {row} in S[{state}]:")
            )
            self._out.line(f"{value} = {row}[{column}]")
            blocks.enter_context(
                self._out.block(f"if {' and '.join(carried)}:")
            )
            then(env)


class CompiledMacro:
    """A HAVING body compiled for the relational state layout; calling
    it is an EXASTREAM sequence UDF
    (:data:`repro.exastream.udf.SequenceFn`).

    ``source`` is the generated module: a factory ``_make(ts, <one
    column index per attribute role>)`` whose ``run(rows)`` buckets the
    group's rows by timestamp and runs the compiled body.  The factory
    is called once per column layout the engine presents.
    """

    def __init__(
        self, source: str, namespace: dict[str, Any], roles: tuple[str, ...]
    ) -> None:
        self.source = source
        try:
            code = compile(source, "<compiled HAVING macro>", "exec")
        except SyntaxError as exc:
            # CPython caps statically nested blocks and indentation
            # levels; any other syntax error is a bug in the generator
            if "too many" not in exc.msg:
                raise
            raise MacroError(
                f"macro body nests too deeply to compile: {exc.msg}"
            ) from exc
        exec(code, namespace)
        self._make = namespace["_make"]
        self._roles = roles
        self._runs: dict[tuple[int, ...], Callable[[list[tuple]], bool]] = {}

    def __call__(self, tuples: list[tuple], columns: dict[str, int]) -> bool:
        layout = tuple([columns[role] for role in self._roles])
        run = self._runs.get(layout)
        if run is None:
            run = self._runs[layout] = self._make(*layout)
        return run(tuples)


def compile_macro(
    body: HavingExpr,
    subject: Term,
    attribute_roles: Mapping[IRI, str],
) -> CompiledMacro:
    """Compile an expanded HAVING body into an EXASTREAM sequence UDF.

    ``attribute_roles`` names the column role carrying each attribute
    (role names appear in the UDF's ``arg_names`` next to ``ts``).
    Everything that can be decided from the body is decided here: an
    unbound state variable, an unexpanded macro call or an unknown
    operator raises :class:`MacroError` now, not from a window.

    Compilation is memoised on ``(body, subject, roles)`` — all
    immutable — so re-translating a query text costs a dictionary
    lookup, not a compile.
    """
    return _compile_macro(body, subject, tuple(sorted(
        attribute_roles.items(), key=lambda item: item[1]
    )))


@lru_cache(maxsize=256)
def _compile_macro(
    body: HavingExpr, subject: Term, roles: tuple[tuple[IRI, str], ...]
) -> CompiledMacro:
    columns = {attribute: f"c{i}" for i, (attribute, _) in enumerate(roles)}
    compiler = _MacroCompiler(subject, columns)
    satisfied = compiler.truth(body, {})
    lines = [f"def _make({', '.join(['ts', *columns.values()])}):"]
    for function in compiler.functions:
        lines.extend(function.lines)
    lines.extend([
        "    def run(rows):",
        "        by_ts = {}",
        "        for row in rows:",
        "            state = by_ts.get(row[ts])",
        "            if state is None:",
        "                by_ts[row[ts]] = [row]",
        "            else:",
        "                state.append(row)",
        "        S = [by_ts[t] for t in sorted(by_ts)]",
        "        n = len(S)",
        f"        return {satisfied}",
        "    return run",
    ])
    namespace = {"SUBJ": subject, **compiler.constants}
    return CompiledMacro(
        "\n".join(lines) + "\n", namespace,
        ("ts",) + tuple(role for _, role in roles),
    )
