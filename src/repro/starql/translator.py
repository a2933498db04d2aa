"""STARQL2SQL(+): enrichment, unfolding and SQL(+) generation.

This is OPTIQUE's full three-stage evaluation pipeline for one STARQL
query:

1. **enrichment** — the WHERE pattern is rewritten against the OWL 2 QL
   TBox (PerfectRef), so implied bindings are not missed;
2. **unfolding** — the enriched UCQ is translated through the mappings
   into a *fleet* of SQL blocks over the static sources (the paper's
   "fleet with a large number of low-level data queries");
3. **SQL(+) generation** — HAVING macros/aggregates are compiled to
   sequence UDFs, their attributes resolved through *stream* mappings,
   and the whole query becomes one SQL(+) ``SELECT`` block: windowed
   streams joined to the unfolded static blocks on the subject-IRI
   template, grouped by the WHERE bindings.  That query is the
   translator's one artefact: the SQL(+) planner
   (:func:`~repro.exastream.planner.plan_select`) turns it into the
   :class:`~repro.exastream.plan.ContinuousPlan` the engine runs, and
   :attr:`TranslationResult.sql` is its printed text.

Stages 1 and 2 run once per *piece* of the WHERE pattern
(:func:`decompose_where`): a pattern that describes two streamed
entities — each HAVING subject with its own static context — is split
into one conjunctive query per subject before it is enriched, so what
is materialised is a per-subject lookup (``st1``, ``st2``, … joined on
the variables they share) instead of the cross-entity product of the
whole pattern.  Most patterns have one subject and stay one piece.

The output also carries a :class:`ConstructTemplate` that turns result
rows back into RDF triples for the CONSTRUCTed output stream.
"""

from __future__ import annotations

import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from ..errors import ReproError
from ..exastream.engine import StreamEngine
from ..exastream.plan import ContinuousPlan
from ..exastream.planner import plan_select
from ..mappings import (
    ColumnSpec,
    MappingAssertion,
    MappingCollection,
    TemplateSpec,
    Unfolder,
    UnfoldingResult,
    fleet_union,
)
from ..mappings.saturation import existential_subontology, saturate_mappings
from ..ontology import Ontology
from ..queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..rdf import IRI, Literal, Term, Variable
from ..rewriting import PerfectRef
from ..sql import (
    BaseTable,
    BinOp,
    Col,
    Expr,
    Func,
    Lit,
    SelectItem,
    SelectQuery,
    SubSelect,
    TableFunction,
    UnaryOp,
    print_query,
)
from .ast import (
    AggregateComparison,
    BoolOp,
    HavingExpr,
    MacroCall,
    STARQLQuery,
)
from .macros import MacroRegistry, collect_attributes, compile_macro

__all__ = [
    "TranslationError",
    "ConstructTemplate",
    "TranslationResult",
    "STARQLTranslator",
    "decompose_where",
]

_translator_counter = itertools.count(1)

#: prepared translations kept per translator, least recently used out
#: first (a cached result holds a plan, a UCQ and an unfolding)
_TEXT_CACHE_SIZE = 128

# mirrors the parser's string-literal token; capturing group keeps the
# literals in re.split output (at odd indices)
_STRING_LITERAL = re.compile(r'("(?:[^"\\]|\\.)*")')


class TranslationError(ReproError, ValueError):
    """Raised when a STARQL query cannot be translated."""


@dataclass
class ConstructTemplate:
    """Rebuild CONSTRUCT triples from engine result rows."""

    output_stream: str
    atoms: tuple  # construct atoms (class or property)
    slots: dict[Variable, int]  # variable -> result column index
    constructors: dict[Variable, Any]  # variable -> TermConstructor

    def triples_for(self, row: tuple) -> list[tuple]:
        """RDF triples asserted by one result row (GRAPH NOW contents)."""
        from ..rdf import RDF

        def resolve(term: Term) -> Term:
            if isinstance(term, Variable):
                value = row[self.slots[term]]
                constructor = self.constructors.get(term)
                if constructor is not None:
                    return constructor.construct(value)
                return IRI(str(value))
            return term

        triples = []
        for atom in self.atoms:
            if atom.is_class_atom:
                triples.append((resolve(atom.args[0]), RDF.type, atom.predicate))
            else:
                triples.append(
                    (resolve(atom.args[0]), atom.predicate, resolve(atom.args[1]))
                )
        return triples


@dataclass
class TranslationResult:
    """Everything produced for one STARQL query."""

    plan: ContinuousPlan
    #: the SQL(+) program ``plan`` was planned from; planning this text
    #: (``plan_sql(sql, engine, start=plan.start)``) gives ``plan`` again
    sql: str
    #: SQL blocks over the static sources, all pieces together
    fleet_size: int
    #: per WHERE piece (see :func:`decompose_where`), in the order of
    #: ``plan.statics``: the enriched UCQ and its static unfolding
    enriched: tuple[UnionOfConjunctiveQueries, ...]
    unfolding: tuple[UnfoldingResult, ...]
    construct: ConstructTemplate
    starql: STARQLQuery
    #: why a WHERE pattern with two or more stream-bound subjects stayed
    #: one piece (``None``: it was split, or has fewer than two)
    undecomposed: str | None = None


@dataclass
class _StreamAttribute:
    """A HAVING attribute resolved through a stream mapping."""

    attribute: IRI
    stream_table: str
    subject_template: TemplateSpec
    value_column: str
    key_columns: tuple[str, ...]


class STARQLTranslator:
    """Translator bound to one deployment (ontology + mappings + engine)."""

    def __init__(
        self,
        ontology: Ontology,
        mappings: MappingCollection,
        engine: StreamEngine,
        macros: MacroRegistry | None = None,
        primary_keys: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        self.ontology = ontology
        self.mappings = mappings
        self.engine = engine
        self.macros = macros or MacroRegistry()
        # Ontop-style compilation: the class/role hierarchy is folded
        # into the mappings; the rewriter handles only the residual
        # existential axioms.  This avoids PerfectRef's exponential UCQ
        # blowup on multi-atom WHERE clauses over large TBoxes.
        self.saturated = saturate_mappings(mappings, ontology)
        self._rewriter = PerfectRef(existential_subontology(ontology))
        self._unfolder = Unfolder(self.saturated, primary_keys)
        self._text_cache: OrderedDict[str, TranslationResult] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API -----------------------------------------------------------

    @staticmethod
    def normalize_text(text: str) -> str:
        """The translation-cache key: whitespace-insensitive query text.

        Whitespace inside double-quoted literals (pulse clock values,
        typed constants) is significant and preserved verbatim — only
        the text between literals is collapsed.
        """
        parts = _STRING_LITERAL.split(text)
        for i in range(0, len(parts), 2):  # odd indices are the literals
            parts[i] = " ".join(parts[i].split())
        return "".join(parts)

    def translate_text(self, text: str) -> TranslationResult:
        """Parse + translate once per normalized query text (prepared
        queries).

        The cached :class:`TranslationResult` is name-neutral — its plan
        carries an auto-generated name; callers registering it must clone
        the plan (``dataclasses.replace``) before renaming, since the same
        cached plan may back many registered queries.
        """
        from .parser import parse_starql

        key = self.normalize_text(text)
        cached = self._text_cache.get(key)
        if cached is None:
            self.cache_misses += 1
            cached = self.translate(parse_starql(text))
            self._text_cache[key] = cached
            if len(self._text_cache) > _TEXT_CACHE_SIZE:
                self._text_cache.popitem(last=False)
        else:
            self.cache_hits += 1
            self._text_cache.move_to_end(key)
        return cached

    def translate(
        self, query: STARQLQuery, name: str | None = None
    ) -> TranslationResult:
        """Run enrichment + unfolding, emit the SQL(+) query and plan it."""
        answer_vars = query.where_variables()
        if not answer_vars:
            raise TranslationError("WHERE pattern binds no variables")
        cq = ConjunctiveQuery(answer_vars, query.where_atoms, query.where_filters)
        pieces, undecomposed = decompose_where(
            cq, _having_subjects(query.having)
        )

        enriched = tuple(self._rewriter.rewrite(piece) for piece in pieces)
        unfoldings = tuple(self._unfold_static(ucq) for ucq in enriched)
        # UNION (distinct) across blocks: redundant disjuncts must not
        # duplicate binding rows, or COUNT-style aggregates would inflate.
        statics = [
            SubSelect(
                fleet_union([d.select for d in unfolding.disjuncts], all=False),
                "st" if len(pieces) == 1 else f"st{index}",
            )
            for index, unfolding in enumerate(unfoldings, 1)
        ]
        # Where each WHERE variable is read from: every piece projects
        # its own variables as ``v<position>_<name>``; a variable several
        # pieces share is read from the first and joins the others.
        var_column: dict[Variable, Col] = {}
        constructors: dict[Variable, Any] = {}
        piece_joins: list[Expr] = []
        for static, unfolding in zip(statics, unfoldings):
            for position, var in enumerate(unfolding.answer_variables):
                column = Col(static.alias, f"v{position}_{var.name}")
                if var in var_column:
                    piece_joins.append(BinOp("=", var_column[var], column))
                else:
                    var_column[var] = column
                    constructors[var] = unfolding.disjuncts[0].constructors[var]
        var_column = {var: var_column[var] for var in answer_vars}

        builder = _QueryBuilder(self, query, statics, var_column, piece_joins)
        if query.having is not None:
            builder.add_having(query.having)
        select = builder.build()
        plan = plan_select(
            select,
            self.engine,
            name=name or f"starql_{next(_translator_counter)}",
            start=query.pulse.start_seconds if query.pulse else None,
        )
        plan.source = query.text

        # the WHERE bindings lead the output row, in ``var_column`` order
        positions = {var: i for i, var in enumerate(var_column)}
        slots = {}
        for var in query.construct_variables():
            if var not in positions:
                raise TranslationError(
                    f"CONSTRUCT variable ?{var.name} is not bound in WHERE"
                )
            slots[var] = positions[var]
        construct = ConstructTemplate(
            output_stream=query.output_stream,
            atoms=query.construct_atoms,
            slots=slots,
            constructors=constructors,
        )

        return TranslationResult(
            plan=plan,
            sql=print_query(select),
            fleet_size=sum(u.fleet_size for u in unfoldings),
            enriched=enriched,
            unfolding=unfoldings,
            construct=construct,
            starql=query,
            undecomposed=undecomposed,
        )

    def _unfold_static(self, ucq: UnionOfConjunctiveQueries) -> UnfoldingResult:
        """The blocks of ``ucq``'s unfolding that read one static source."""
        unfolding = self._unfolder.unfold(ucq)
        if not unfolding.disjuncts:
            raise TranslationError(
                "WHERE pattern unfolds to nothing: no mappings for its terms"
            )
        # WHERE bindings come from the static sources; disjuncts that read
        # streams (e.g. sensors known only through measurements) are not
        # retrievable at registration time and are dropped.
        static_disjuncts = [d for d in unfolding.disjuncts if not d.uses_stream]
        if not static_disjuncts:
            raise TranslationError(
                "WHERE pattern unfolds to stream-only sources; it must bind "
                "entities from static data"
            )
        sources = {s for d in static_disjuncts for s in d.sources}
        if len(sources) != 1:
            raise TranslationError(
                f"WHERE unfolds across multiple static sources {sources}; "
                "deploy a federated view first"
            )
        return UnfoldingResult(static_disjuncts, unfolding.answer_variables)

    # -- attribute resolution -----------------------------------------------------

    def resolve_stream_attribute(self, attribute: IRI) -> _StreamAttribute:
        """Find the stream mapping providing values of ``attribute``."""
        candidates = [
            m
            for m in self.saturated.for_predicate(attribute)
            if m.is_stream
        ]
        if not candidates:
            raise TranslationError(
                f"attribute {attribute.local_name} has no stream mapping"
            )
        mapping = candidates[0]
        source = mapping.source
        if not isinstance(source, SelectQuery) or len(source.from_) != 1:
            raise TranslationError(
                f"stream mapping for {attribute.local_name} must read one stream"
            )
        base = source.from_[0]
        if not isinstance(base, BaseTable):
            raise TranslationError("stream mapping source must be a base stream")
        if not isinstance(mapping.subject, TemplateSpec):
            raise TranslationError("stream mapping subject must be a template")
        obj = mapping.object
        if not isinstance(obj, ColumnSpec):
            raise TranslationError(
                f"stream mapping object for {attribute.local_name} must be a column"
            )
        # resolve projection aliases back to stream columns
        rename: dict[str, str] = {}
        for item in source.select:
            if isinstance(item.expr, Col):
                rename[item.alias or item.expr.name] = item.expr.name
        key_columns = tuple(
            rename.get(c, c) for c in mapping.subject.template.columns
        )
        return _StreamAttribute(
            attribute=attribute,
            stream_table=base.name,
            subject_template=mapping.subject,
            value_column=rename.get(obj.column, obj.column),
            key_columns=key_columns,
        )


# ---------------------------------------------------------------------------
# WHERE decomposition
# ---------------------------------------------------------------------------


def _having_subjects(expr: HavingExpr | None) -> Iterator[Variable]:
    """The WHERE variables a HAVING clause binds to stream windows."""
    if isinstance(expr, MacroCall):
        if expr.args and isinstance(expr.args[0], Variable):
            yield expr.args[0]
    elif isinstance(expr, AggregateComparison):
        yield expr.subject
        if expr.second_subject is not None:
            yield expr.second_subject
    elif isinstance(expr, BoolOp):
        for operand in expr.operands:
            yield from _having_subjects(operand)


def decompose_where(
    cq: ConjunctiveQuery, subjects: Iterable[Variable]
) -> tuple[list[ConjunctiveQuery], str | None]:
    """Split a WHERE pattern into one conjunctive query per subject.

    ``subjects`` are the stream-bound variables (each is joined to its
    own window).  Every other variable goes to the subject nearest to it
    in the pattern's variable graph (variables are adjacent when an atom
    holds both); a variable equally near to several subjects goes to all
    of them.  An atom lands in every piece that holds all its variables,
    a filter likewise, and each piece answers the variables of its
    atoms.  Exact when every variable of ``cq`` is an answer variable —
    as in a WHERE pattern — because the certain answers of a conjunction
    of ground atoms are the natural join of its conjuncts' answers:
    ``cert(q1 AND q2) = cert(q1) JOIN cert(q2)`` on the shared variables.

    Returns ``([cq], None)`` for fewer than two distinct subjects, and
    ``([cq], reason)`` when the pattern cannot be split: an atom or
    filter would straddle two pieces, a variable reaches no subject, or
    a variable is not answered.
    """
    subjects = list(dict.fromkeys(subjects))
    if len(subjects) < 2:
        return [cq], None
    adjacent: dict[Variable, set[Variable]] = {v: set() for v in subjects}
    for atom in cq.atoms:
        variables = set(atom.variables())
        for var in variables:
            adjacent.setdefault(var, set()).update(variables - {var})
    if set(adjacent) - set(cq.answer_variables):
        return [cq], "the pattern has variables it does not answer"

    #: variable -> distance from each subject (by piece index) reaching it
    distance: dict[Variable, dict[int, int]] = {v: {} for v in adjacent}
    for index, subject in enumerate(subjects):
        frontier, depth = [subject], 0
        while frontier:
            for var in frontier:
                distance[var][index] = depth
            depth += 1
            frontier = [
                near for var in frontier for near in adjacent[var]
                if index not in distance[near]
            ]
    owners: dict[Variable, set[int]] = {}
    for var, reached in distance.items():
        if var in subjects:
            owners[var] = {subjects.index(var)}
        elif not reached:
            return [cq], f"?{var.name} is connected to no HAVING subject"
        else:
            nearest = min(reached.values())
            owners[var] = {i for i, d in reached.items() if d == nearest}

    atoms: list[list] = [[] for _ in subjects]
    for atom in cq.atoms:
        home = set(range(len(subjects))).intersection(
            *(owners[var] for var in atom.variables())
        )
        if not home:
            return [cq], f"{atom} joins the entities of two HAVING subjects"
        for index in home:
            atoms[index].append(atom)
    held = [{v for atom in piece for v in atom.variables()} for piece in atoms]
    filters: list[list] = [[] for _ in subjects]
    for filt in cq.filters:
        home = [
            index for index, variables in enumerate(held)
            if set(filt.variables()) <= variables
        ]
        if not home:
            return [cq], f"filter {filt} compares two HAVING subjects' entities"
        for index in home:
            filters[index].append(filt)
    return [
        ConjunctiveQuery(
            tuple(v for v in cq.answer_variables if v in held[index]),
            tuple(atoms[index]),
            tuple(filters[index]),
        )
        for index in range(len(subjects))
    ], None


# ---------------------------------------------------------------------------
# SQL(+) assembly
# ---------------------------------------------------------------------------


@dataclass
class _QueryBuilder:
    """WHERE bindings + HAVING calls -> one SQL(+) ``SELECT`` block."""

    translator: STARQLTranslator
    query: STARQLQuery
    statics: list[SubSelect]  # the unfolded WHERE block, one per piece
    var_column: dict[Variable, Col]  # WHERE variable -> static column
    piece_joins: list[Expr]  # equalities on the variables pieces share

    _windows: dict[str, TableFunction] = field(default_factory=dict)
    _joins: list[Expr] = field(default_factory=list)
    _calls: list[SelectItem] = field(default_factory=list)
    _having: list[Expr] = field(default_factory=list)
    _alias_counter: itertools.count = field(default_factory=lambda: itertools.count(1))
    _call_counter: itertools.count = field(default_factory=lambda: itertools.count(0))

    # -- having translation -------------------------------------------------

    def add_having(self, expr: HavingExpr) -> None:
        """Translate the HAVING clause into calls + predicates (one
        predicate per top-level conjunct, as SQL(+) text reads back)."""
        if isinstance(expr, BoolOp) and expr.op == "AND":
            for operand in expr.operands:
                self.add_having(operand)
        else:
            self._having.append(self._translate(expr))

    def _translate(self, expr: HavingExpr) -> Expr:
        if isinstance(expr, MacroCall):
            return self._translate_macro(expr)
        if isinstance(expr, AggregateComparison):
            return self._translate_aggregate(expr)
        if isinstance(expr, BoolOp):
            if expr.op == "NOT":
                return UnaryOp("NOT", self._translate(expr.operands[0]))
            combined = self._translate(expr.operands[0])
            for operand in expr.operands[1:]:
                combined = BinOp(expr.op, combined, self._translate(operand))
            return combined
        raise TranslationError(
            "top-level HAVING supports macro calls, window aggregates and "
            f"boolean combinations; got {type(expr).__name__}"
        )

    def _call(self, function: str, *columns: Col) -> Col:
        """Select ``function(columns...)``; the HAVING-side reference to
        its output."""
        output = f"cond{len(self._calls)}"
        self._calls.append(SelectItem(Func(function, columns), output))
        return Col(None, output)

    def _time_column(self, attribute: _StreamAttribute) -> str:
        source = self.translator.engine.stream(attribute.stream_table)
        return source.stream.schema.time_column

    def _translate_macro(self, call: MacroCall) -> Expr:
        body = self.translator.macros.expand(call)
        subject = call.args[0]
        if not isinstance(subject, Variable):
            raise TranslationError("macro subject must be a WHERE variable")
        attributes = sorted(collect_attributes(body), key=lambda a: a.value)
        if not attributes:
            raise TranslationError(
                f"macro {call.name} references no stream attributes"
            )
        resolved = [
            self.translator.resolve_stream_attribute(a) for a in attributes
        ]
        streams = {r.stream_table for r in resolved}
        if len(streams) > 1:
            raise TranslationError(
                "one macro must read attributes of a single stream; "
                f"got {streams}"
            )
        alias = self._window_for(resolved[0], subject)

        roles = {r.attribute: f"attr{i}" for i, r in enumerate(resolved)}
        udf_fn = compile_macro(body, subject, roles)
        udf_name = f"MACRO_{call.name.replace('.', '_')}_{next(self._call_counter)}"
        arg_names = ("ts",) + tuple(roles[r.attribute] for r in resolved)
        self.translator.engine.udfs.register_sequence(udf_name, udf_fn, arg_names)

        output = self._call(
            udf_name,
            Col(alias, self._time_column(resolved[0])),
            *(Col(alias, r.value_column) for r in resolved),
        )
        return BinOp("=", output, Lit(True))

    def _translate_aggregate(self, agg: AggregateComparison) -> Expr:
        resolved = self.translator.resolve_stream_attribute(agg.attribute)
        alias = self._window_for(resolved, agg.subject)
        value = Col(alias, resolved.value_column)
        if agg.function == "PEARSON":
            if agg.second_subject is None or agg.second_attribute is None:
                raise TranslationError("PEARSON needs two (var, attribute) pairs")
            second = self.translator.resolve_stream_attribute(agg.second_attribute)
            alias2 = self._window_for(
                second, agg.second_subject, force_new=agg.second_subject != agg.subject
            )
            if alias2 != alias:
                ts = self._time_column(resolved)
                self._joins.append(
                    BinOp("=", Col(alias, ts), Col(alias2, ts))
                )
            output = self._call(
                "PEARSON", value, Col(alias2, second.value_column)
            )
        elif agg.function == "SLOPE":
            output = self._call(
                "SLOPE", Col(alias, self._time_column(resolved)), value
            )
        else:  # SPREAD and the SQL aggregates read the one value column
            output = self._call(agg.function, value)
        if not isinstance(agg.value, Literal):
            raise TranslationError("aggregate comparisons need literal bounds")
        return BinOp(agg.op, output, Lit(agg.value.to_python()))

    # -- window/stream management ------------------------------------------------

    def _window(self, clause, alias: str) -> TableFunction:
        return TableFunction(
            "timeSlidingWindow",
            (
                BaseTable(clause.stream),
                Lit(clause.range_seconds),
                Lit(clause.slide_seconds),
            ),
            alias,
        )

    def _window_for(
        self,
        attribute: _StreamAttribute,
        subject: Variable,
        force_new: bool = False,
    ) -> str:
        """The window alias joining ``subject`` to its measurements."""
        subject_column = self.var_column.get(subject)
        if subject_column is None:
            raise TranslationError(
                f"HAVING subject ?{subject.name} is not bound in WHERE"
            )
        key = f"{attribute.stream_table}|{subject.name}"
        if not force_new and key in self._windows:
            return self._windows[key].alias

        alias = f"w{next(self._alias_counter)}"
        window_clause = None
        for clause in self.query.windows:
            if clause.stream == attribute.stream_table:
                window_clause = clause
                break
        if window_clause is None and len(self.query.windows) == 1:
            window_clause = self.query.windows[0]
        if window_clause is None:
            raise TranslationError(
                f"no FROM STREAM clause matches stream {attribute.stream_table!r}"
            )
        if window_clause.stream != attribute.stream_table:
            raise TranslationError(
                f"attribute {attribute.attribute.local_name} lives on stream "
                f"{attribute.stream_table!r} but the query windows "
                f"{window_clause.stream!r}"
            )

        self._windows[key] = self._window(window_clause, alias)
        # the subject IRI, built from the stream mapping's template, is
        # the join key; the planner makes it a computed window column
        self._joins.append(
            BinOp(
                "=",
                _template_expr(
                    attribute.subject_template.template,
                    alias,
                    attribute.key_columns,
                ),
                subject_column,
            )
        )
        return alias

    # -- assembly ----------------------------------------------------------------

    def build(self) -> SelectQuery:
        # No HAVING attributes: gate output on the pulse of the first
        # declared stream (pure static bindings per window).
        windows = list(self._windows.values()) or [
            self._window(self.query.windows[0], "w0")
        ]
        group_by = tuple(self.var_column.values())
        return SelectQuery(
            select=tuple(
                SelectItem(column, f"v{position}_{var.name}")
                for position, (var, column) in enumerate(self.var_column.items())
            ) + tuple(self._calls),
            from_=(*windows, *self.statics),
            where=(*self._joins, *self.piece_joins),
            group_by=group_by,
            having=tuple(self._having),
        )


def _template_expr(template, alias: str, key_columns: Sequence[str]) -> Expr:
    """Concatenation expression building a template IRI from stream columns."""
    pattern = template.pattern
    parts: list[Expr] = []
    cursor = 0
    for placeholder, column in zip(template.columns, key_columns):
        start = pattern.index("{" + placeholder + "}", cursor)
        if start > cursor:
            parts.append(Lit(pattern[cursor:start]))
        parts.append(Col(alias, column))
        cursor = start + len(placeholder) + 2
    if cursor < len(pattern):
        parts.append(Lit(pattern[cursor:]))
    expr = parts[0]
    for part in parts[1:]:
        expr = BinOp("||", expr, part)
    return expr
