"""Unfolding: translating enriched UCQs into SQL(+) over the sources.

This is OPTIQUE's stage (ii): "the enriched ontological query is
automatically translated with the help of mappings in possibly many
queries over the data".  For each conjunctive query, every combination of
mapping assertions for its atoms yields one SELECT block; the blocks are
unioned.  Without optimisation this fleet is hugely redundant (the paper
notes naive unfoldings "contain many redundant joins and unions"), so the
unfolder applies:

* *template compatibility pruning* — combinations whose IRI templates can
  never produce equal identifiers are dropped before SQL is emitted;
* *self-join elimination* — two atoms reading the same table joined on its
  full primary key collapse into one scan, and so does a scan that
  contributes nothing but columns equated to another scan's;
* *duplicate-block elimination* — SELECTs identical up to the order of
  their WHERE conjuncts are emitted once.

Unfolding is linear in |mappings| x |query atoms| per produced block
(benchmark E6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from collections.abc import Sequence
from typing import Union

from ..queries import ConjunctiveQuery, Filter, UnionOfConjunctiveQueries
from ..rdf import IRI, Literal, Term, Variable, XSD
from ..sql import (
    BaseTable,
    BinOp,
    Col,
    Expr,
    Lit,
    Query,
    SelectItem,
    SelectQuery,
    Star,
    SubSelect,
    TableExpr,
    UnionQuery,
    print_expr,
    print_query,
)
from .model import (
    ColumnSpec,
    ConstantSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
)

__all__ = [
    "Unfolder",
    "UnfoldingResult",
    "UnfoldedDisjunct",
    "IRIConstructor",
    "LiteralConstructor",
    "ConstantConstructor",
    "TermConstructor",
    "fleet_union",
]


# --------------------------------------------------------------------------
# Symbolic terms (internal) and answer constructors (public)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _STemplate:
    template: Template
    columns: tuple[Col, ...]  # aligned with template.columns


@dataclass(frozen=True)
class _SColumn:
    column: Col
    datatype: IRI


@dataclass(frozen=True)
class _SConst:
    term: Term


_SymTerm = Union[_STemplate, _SColumn, _SConst]


@dataclass(frozen=True)
class IRIConstructor:
    """Build an IRI answer term from a result row via a template."""

    template: Template

    def construct(self, value: object) -> Term:
        return IRI(str(value))


@dataclass(frozen=True)
class LiteralConstructor:
    """Build a typed literal answer term from a result row."""

    datatype: IRI = XSD.string

    def construct(self, value: object) -> Term:
        return Literal(str(value), self.datatype)


@dataclass(frozen=True)
class ConstantConstructor:
    """An answer position fixed to a constant by the mappings."""

    term: Term

    def construct(self, value: object) -> Term:
        return self.term


TermConstructor = Union[IRIConstructor, LiteralConstructor, ConstantConstructor]


# --------------------------------------------------------------------------
# Result containers
# --------------------------------------------------------------------------


@dataclass
class UnfoldedDisjunct:
    """One SELECT block of the unfolded fleet plus routing metadata."""

    select: SelectQuery
    sources: set[str]
    stream_tables: set[str]
    constructors: dict[Variable, TermConstructor]

    @property
    def uses_stream(self) -> bool:
        return bool(self.stream_tables)


@dataclass
class UnfoldingResult:
    """The full unfolding of a UCQ."""

    disjuncts: list[UnfoldedDisjunct]
    answer_variables: tuple[Variable, ...]

    @property
    def query(self) -> Query | None:
        """The fleet as one UNION ALL query (None when nothing matched)."""
        if not self.disjuncts:
            return None
        return fleet_union([d.select for d in self.disjuncts])

    @property
    def fleet_size(self) -> int:
        """Number of low-level SELECT blocks — the paper's 'fleet' size."""
        return len(self.disjuncts)

    def sql(self) -> str:
        """The printed SQL(+) text of the whole fleet."""
        query = self.query
        return "" if query is None else print_query(query)


#: SQLite refuses a compound SELECT of more blocks than this
#: (``SQLITE_MAX_COMPOUND_SELECT``)
MAX_COMPOUND_SELECT = 500


def fleet_union(selects: Sequence[SelectQuery], all: bool = True) -> Query:
    """One query over a fleet of SELECT blocks: the block itself, their
    UNION, or — past :data:`MAX_COMPOUND_SELECT` blocks, which a large
    rewriting reaches — a UNION of ``SELECT *`` over nested UNIONs of at
    most that many blocks each, which SQLite accepts and which has the
    same rows."""
    if len(selects) == 1:
        return selects[0]
    if len(selects) <= MAX_COMPOUND_SELECT:
        return UnionQuery(tuple(selects), all=all)
    return fleet_union(
        [
            SelectQuery(
                (SelectItem(Star()),),
                (SubSelect(
                    fleet_union(selects[at:at + MAX_COMPOUND_SELECT], all),
                    f"fleet{at // MAX_COMPOUND_SELECT}",
                ),),
            )
            for at in range(0, len(selects), MAX_COMPOUND_SELECT)
        ],
        all,
    )


# --------------------------------------------------------------------------
# Alias bindings
# --------------------------------------------------------------------------


@dataclass
class _AliasBinding:
    """One occurrence of a mapping source in the FROM clause."""

    alias: str
    table: TableExpr
    resolver: dict[str, Expr]  # source output column -> expression
    extra_where: list[Expr]
    signature: str  # identity of the underlying source (for self-joins)
    base_table: str | None  # inlined base table name, when simple
    source_name: str
    is_stream: bool


class _CombinationPruned(Exception):
    """Internal signal: this mapping combination can produce no answers."""


# --------------------------------------------------------------------------
# The unfolder
# --------------------------------------------------------------------------


class Unfolder:
    """Translate UCQs to SQL(+) through a mapping collection.

    ``primary_keys`` maps table name -> primary key columns; when provided
    it enables self-join elimination.
    """

    def __init__(
        self,
        mappings: MappingCollection,
        primary_keys: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        self._mappings = mappings
        self._primary_keys = primary_keys or {}

    # -- public API ----------------------------------------------------------

    def unfold(self, ucq: UnionOfConjunctiveQueries) -> UnfoldingResult:
        """Unfold every disjunct and merge the fleets."""
        disjuncts: list[UnfoldedDisjunct] = []
        seen: set[tuple] = set()
        for cq in ucq:
            for disjunct in self.unfold_cq(cq):
                # WHERE is a conjunction: blocks differing only in the
                # order their atoms contributed conjuncts are one query
                select = disjunct.select
                key = (
                    print_query(replace(select, where=())),
                    tuple(sorted(map(print_expr, select.where))),
                )
                if key not in seen:
                    seen.add(key)
                    disjuncts.append(disjunct)
        return UnfoldingResult(disjuncts, ucq.answer_variables)

    def unfold_cq(self, cq: ConjunctiveQuery) -> list[UnfoldedDisjunct]:
        """All SELECT blocks for one conjunctive query."""
        options: list[list[MappingAssertion]] = []
        for atom in cq.atoms:
            candidates = self._mappings.for_predicate(atom.predicate)
            if not candidates:
                return []  # an unmapped predicate kills the whole CQ
            options.append(candidates)

        blocks: list[UnfoldedDisjunct] = []
        for combination in itertools.product(*options):
            try:
                blocks.append(self._build_block(cq, combination))
            except _CombinationPruned:
                continue
        return blocks

    # -- block construction -----------------------------------------------------

    def _build_block(
        self,
        cq: ConjunctiveQuery,
        combination: Sequence[MappingAssertion],
    ) -> UnfoldedDisjunct:
        bindings: list[_AliasBinding] = []
        var_terms: dict[Variable, _SymTerm] = {}
        constraints: list[Expr] = []

        for index, (atom, assertion) in enumerate(zip(cq.atoms, combination)):
            binding = self._bind_source(assertion, f"m{index}")
            bindings.append(binding)
            constraints.extend(binding.extra_where)
            terms = self._assertion_terms(assertion, binding)
            if atom.is_class_atom:
                pairs = [(atom.args[0], terms[0])]
            else:
                pairs = list(zip(atom.args, terms))
            for arg, sym in pairs:
                if isinstance(arg, Variable):
                    bound = var_terms.get(arg)
                    if bound is None:
                        var_terms[arg] = sym
                    else:
                        constraints.extend(self._unify(bound, sym))
                else:
                    constraints.extend(self._unify_const(sym, arg))

        # CQ filters -> SQL predicates
        for filt in cq.filters:
            constraints.append(self._filter_to_sql(filt, var_terms))

        bindings, constraints, var_terms = self._eliminate_self_joins(
            bindings, constraints, var_terms
        )

        select_items: list[SelectItem] = []
        constructors: dict[Variable, TermConstructor] = {}
        for position, var in enumerate(cq.answer_variables):
            sym = var_terms.get(var)
            if sym is None:
                raise _CombinationPruned  # pragma: no cover - head vars bound
            select_items.append(
                SelectItem(self._render(sym), alias=f"v{position}_{var.name}")
            )
            constructors[var] = self._constructor(sym)

        select = SelectQuery(
            select=tuple(select_items),
            from_=tuple(b.table for b in bindings),
            where=tuple(dict.fromkeys(constraints, None)),  # dedupe, keep order
            distinct=True,
        )
        return UnfoldedDisjunct(
            select=select,
            sources={b.source_name for b in bindings},
            stream_tables={
                b.base_table or b.alias for b in bindings if b.is_stream
            },
            constructors=constructors,
        )

    # -- source binding ----------------------------------------------------------

    def _bind_source(
        self, assertion: MappingAssertion, alias: str
    ) -> _AliasBinding:
        source = assertion.source
        signature = f"{assertion.source_name}::{print_query(source)}"
        inlined = self._try_inline(source, alias)
        if inlined is not None:
            table, resolver, extra_where, base_name = inlined
            # Projections are irrelevant for self-join elimination: two scans
            # of the same base table with the same residual filters can merge.
            filter_sig = sorted(
                print_expr(_rename_aliases(p, {alias: "_"})) for p in extra_where
            )
            signature = f"{assertion.source_name}::{base_name}::{filter_sig}"
            return _AliasBinding(
                alias,
                table,
                resolver,
                extra_where,
                signature,
                base_name,
                assertion.source_name,
                assertion.is_stream,
            )
        resolver = {
            name: Col(alias, name)
            for name in (
                source.output_names()
                if isinstance(source, SelectQuery)
                else source.output_names()
            )
        }
        return _AliasBinding(
            alias,
            SubSelect(source, alias),
            resolver,
            [],
            signature,
            None,
            assertion.source_name,
            assertion.is_stream,
        )

    @staticmethod
    def _try_inline(
        source: Query, alias: str
    ) -> tuple[TableExpr, dict[str, Expr], list[Expr], str] | None:
        """Inline ``SELECT cols FROM one_table [WHERE preds]`` sources."""
        if not isinstance(source, SelectQuery):
            return None
        if (
            len(source.from_) != 1
            or not isinstance(source.from_[0], BaseTable)
            or source.group_by
            or source.having
            or source.limit is not None
            or source.distinct
        ):
            return None
        base = source.from_[0]
        inner_name = base.alias or base.name

        def requalify(expr: Expr) -> Expr:
            if isinstance(expr, Col):
                if expr.table in (None, inner_name, base.name):
                    return Col(alias, expr.name)
                return expr
            if isinstance(expr, BinOp):
                return BinOp(expr.op, requalify(expr.left), requalify(expr.right))
            return expr

        resolver: dict[str, Expr] = {}
        for item in source.select:
            expr = item.expr
            if isinstance(expr, Col):
                name = item.alias or expr.name
                resolver[name] = Col(alias, expr.name)
            else:
                return None  # computed projections stay as subselects
        extra_where = [requalify(p) for p in source.where]
        return BaseTable(base.name, alias), resolver, extra_where, base.name

    def _assertion_terms(
        self, assertion: MappingAssertion, binding: _AliasBinding
    ) -> list[_SymTerm]:
        terms = [self._spec_to_sym(assertion.subject, binding)]
        if assertion.object is not None:
            terms.append(self._spec_to_sym(assertion.object, binding))
        return terms

    @staticmethod
    def _spec_to_sym(spec: object, binding: _AliasBinding) -> _SymTerm:
        if isinstance(spec, TemplateSpec):
            columns = []
            for name in spec.template.columns:
                expr = binding.resolver.get(name)
                if not isinstance(expr, Col):
                    raise _CombinationPruned
                columns.append(expr)
            return _STemplate(spec.template, tuple(columns))
        if isinstance(spec, ColumnSpec):
            expr = binding.resolver.get(spec.column)
            if not isinstance(expr, Col):
                raise _CombinationPruned
            return _SColumn(expr, spec.datatype)
        if isinstance(spec, ConstantSpec):
            return _SConst(spec.term)
        raise TypeError(f"unknown term spec {spec!r}")

    # -- unification ----------------------------------------------------------------

    def _unify(self, a: _SymTerm, b: _SymTerm) -> list[Expr]:
        if isinstance(a, _STemplate) and isinstance(b, _STemplate):
            if a.template.shape != b.template.shape:
                raise _CombinationPruned
            return [
                BinOp("=", left, right)
                for left, right in zip(a.columns, b.columns)
                if left != right
            ]
        if isinstance(a, _SColumn) and isinstance(b, _SColumn):
            if a.column == b.column:
                return []
            return [BinOp("=", a.column, b.column)]
        if isinstance(a, _SConst):
            return self._unify_const(b, a.term)
        if isinstance(b, _SConst):
            return self._unify_const(a, b.term)
        # template vs column: an IRI can never equal a literal
        raise _CombinationPruned

    def _unify_const(self, sym: _SymTerm, const: Term) -> list[Expr]:
        if isinstance(sym, _SConst):
            if sym.term == const:
                return []
            raise _CombinationPruned
        if isinstance(sym, _STemplate):
            if not isinstance(const, IRI):
                raise _CombinationPruned
            extracted = sym.template.match(const.value)
            if extracted is None:
                raise _CombinationPruned
            return [
                BinOp("=", column, Lit(extracted[name]))
                for column, name in zip(sym.columns, sym.template.columns)
            ]
        if isinstance(sym, _SColumn):
            if isinstance(const, Literal):
                return [BinOp("=", sym.column, Lit(const.to_python()))]
            raise _CombinationPruned
        raise TypeError(f"unknown symbolic term {sym!r}")

    def _filter_to_sql(
        self, filt: Filter, var_terms: dict[Variable, _SymTerm]
    ) -> Expr:
        def to_expr(term: Term) -> Expr:
            if isinstance(term, Variable):
                sym = var_terms.get(term)
                if sym is None:
                    raise _CombinationPruned
                return self._render(sym)
            if isinstance(term, Literal):
                return Lit(term.to_python())
            if isinstance(term, IRI):
                return Lit(term.value)
            raise _CombinationPruned

        return BinOp(filt.op, to_expr(filt.left), to_expr(filt.right))

    # -- self-join elimination ----------------------------------------------------

    def _eliminate_self_joins(
        self,
        bindings: list[_AliasBinding],
        constraints: list[Expr],
        var_terms: dict[Variable, _SymTerm],
    ) -> tuple[list[_AliasBinding], list[Expr], dict[Variable, _SymTerm]]:
        """Merge scans of one table (of known primary key) that need
        not be two.

        Two aliases of the same source collapse when they are joined on
        the table's full primary key, or when one of them contributes
        nothing but columns equated to the same columns of the other:
        under ``SELECT DISTINCT`` the surviving alias's own row is the
        witness, provided the equated columns are not NULL (a primary
        key column never is).
        """
        changed = True
        while changed:
            changed = False
            for i, j in itertools.combinations(range(len(bindings)), 2):
                a, b = bindings[i], bindings[j]
                pk = self._primary_keys.get(a.base_table)
                if a.base_table is None or a.signature != b.signature or not pk:
                    continue
                equated = self._equated(a.alias, b.alias, constraints)
                if set(pk) <= equated:
                    keep, drop, not_null = a, b, set()
                elif not equated:
                    continue
                elif self._only_reads(b, equated, constraints, var_terms):
                    keep, drop, not_null = a, b, equated - set(pk)
                elif self._only_reads(a, equated, constraints, var_terms):
                    keep, drop, not_null = b, a, equated - set(pk)
                else:
                    continue
                rename = {drop.alias: keep.alias}
                merged = []
                for c in constraints:
                    c = _rename_aliases(c, rename)
                    if isinstance(c, BinOp) and c.op == "=" and c.left == c.right:
                        if not (isinstance(c.left, Col) and c.left.name in not_null):
                            continue
                        c = BinOp("IS NOT", c.left, Lit(None))
                    merged.append(c)
                constraints = merged
                var_terms = {
                    v: _rename_sym(s, rename) for v, s in var_terms.items()
                }
                bindings = [x for x in bindings if x is not drop]
                changed = True
                break
        return bindings, constraints, var_terms

    @staticmethod
    def _equated(alias_a: str, alias_b: str, constraints: list[Expr]) -> set[str]:
        """Column names ``c`` with a constraint ``a.c = b.c``."""
        equated = set()
        for constraint in constraints:
            if not (isinstance(constraint, BinOp) and constraint.op == "="):
                continue
            left, right = constraint.left, constraint.right
            if isinstance(left, Col) and isinstance(right, Col):
                pair = {left.table, right.table}
                if pair == {alias_a, alias_b} and left.name == right.name:
                    equated.add(left.name)
        return equated

    @staticmethod
    def _only_reads(
        binding: _AliasBinding,
        columns: set[str],
        constraints: list[Expr],
        var_terms: dict[Variable, _SymTerm],
    ) -> bool:
        """Whether everything read from ``binding`` — its own source
        filters aside — is one of ``columns``."""
        read: list[Expr] = [
            c for c in constraints if c not in binding.extra_where
        ]
        for sym in var_terms.values():
            if isinstance(sym, _STemplate):
                read.extend(sym.columns)
            elif isinstance(sym, _SColumn):
                read.append(sym.column)
        return all(
            column.name in columns
            for expr in read
            for column in _columns(expr)
            if column.table == binding.alias
        )

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _render(sym: _SymTerm) -> Expr:
        if isinstance(sym, _SColumn):
            return sym.column
        if isinstance(sym, _SConst):
            if isinstance(sym.term, Literal):
                return Lit(sym.term.to_python())
            if isinstance(sym.term, IRI):
                return Lit(sym.term.value)
            return Lit(str(sym.term))
        if isinstance(sym, _STemplate):
            pattern = sym.template.pattern
            parts: list[Expr] = []
            cursor = 0
            for column, name in zip(sym.columns, sym.template.columns):
                start = pattern.index("{" + name + "}", cursor)
                if start > cursor:
                    parts.append(Lit(pattern[cursor:start]))
                parts.append(column)
                cursor = start + len(name) + 2
            if cursor < len(pattern):
                parts.append(Lit(pattern[cursor:]))
            expr = parts[0]
            for part in parts[1:]:
                expr = BinOp("||", expr, part)
            return expr
        raise TypeError(f"unknown symbolic term {sym!r}")

    @staticmethod
    def _constructor(sym: _SymTerm) -> TermConstructor:
        if isinstance(sym, _STemplate):
            return IRIConstructor(sym.template)
        if isinstance(sym, _SColumn):
            return LiteralConstructor(sym.datatype)
        return ConstantConstructor(sym.term)


def _columns(expr: Expr):
    """Every column reference inside a constraint expression."""
    if isinstance(expr, Col):
        yield expr
    elif isinstance(expr, BinOp):
        yield from _columns(expr.left)
        yield from _columns(expr.right)


def _rename_aliases(expr: Expr, rename: dict[str, str]) -> Expr:
    if isinstance(expr, Col):
        if expr.table in rename:
            return Col(rename[expr.table], expr.name)
        return expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _rename_aliases(expr.left, rename),
            _rename_aliases(expr.right, rename),
        )
    return expr


def _rename_sym(sym: _SymTerm, rename: dict[str, str]) -> _SymTerm:
    if isinstance(sym, _STemplate):
        return _STemplate(
            sym.template,
            tuple(_rename_aliases(c, rename) for c in sym.columns),  # type: ignore[arg-type]
        )
    if isinstance(sym, _SColumn):
        renamed = _rename_aliases(sym.column, rename)
        assert isinstance(renamed, Col)
        return _SColumn(renamed, sym.datatype)
    return sym
