"""Parser for the STARQL query language.

Hand-written recursive descent over a dedicated tokenizer.  The
``CONSTRUCT``/``WHERE`` basic graph patterns are delegated to the shared
SPARQL BGP parser; window specifications, PULSE clauses, HAVING
conditions and ``CREATE AGGREGATE`` macros are handled here.

The accepted syntax matches the paper's Figure 1 (see
:mod:`repro.starql.ast`).
"""

from __future__ import annotations

import re

from ..errors import ReproError
from ..queries import Atom, parse_bgp
from ..rdf import IRI, Literal, PrefixMap, Term, Variable, XSD
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
    PulseClause,
    STARQLQuery,
    WindowClause,
)

__all__ = [
    "parse_starql",
    "parse_aggregate_macro",
    "parse_document",
    "parse_duration",
    "STARQLSyntaxError",
    "SQL_AGG_FUNCTIONS",
]


class STARQLSyntaxError(ReproError, ValueError):
    """Raised when STARQL text cannot be parsed."""


_existential_counter = __import__("itertools").count()


def _fresh_existential() -> Variable:
    """A fresh variable for object-less state atoms (existential object)."""
    return Variable(f"anyobj_{next(_existential_counter)}")


SQL_AGG_FUNCTIONS = {"AVG", "MIN", "MAX", "SUM", "COUNT", "SLOPE", "SPREAD", "PEARSON"}

_KEYWORDS = {
    "CREATE", "STREAM", "AS", "CONSTRUCT", "GRAPH", "NOW", "FROM", "STATIC",
    "DATA", "ONTOLOGY", "USING", "PULSE", "WITH", "START", "FREQUENCY",
    "WHERE", "SEQUENCE", "BY", "HAVING", "AGGREGATE", "EXISTS", "FORALL",
    "IN", "IF", "THEN", "AND", "OR", "NOT", "SEQ", "PREFIX",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<arrow>->)
    | (?P<lbracket>\[) | (?P<rbracket>\])
    | (?P<lbrace>\{) | (?P<rbrace>\})
    | (?P<lparen>\() | (?P<rparen>\))
    | (?P<comma>,) | (?P<semicolon>;)
    | (?P<comparator><=|>=|!=|=|<(?![^>\s]*>)|>)
    | (?P<minus>-)
    | (?P<full_iri><[^>\s]*>)
    | (?P<var>\?[A-Za-z_]\w*)
    | (?P<param>\$[A-Za-z_]\w*)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<qname>[A-Za-z_][\w-]*:(?:[\w-]+(?:\.[\w-]+)*)?|:[\w-]+(?:\.[\w-]+)*)
    | (?P<dot>\.)
    | (?P<colon>:)
    | (?P<name>[A-Za-z_]\w*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise STARQLSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}"
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "ws":
            if kind == "name" and value.upper() in _KEYWORDS:
                tokens.append(("kw", value.upper(), pos))
            else:
                tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", pos))
    return tokens


_DURATION_RE = re.compile(
    r"^P(?:(?P<days>\d+)D)?"
    r"(?:T(?:(?P<hours>\d+)H)?(?:(?P<minutes>\d+)M)?"
    r"(?:(?P<seconds>\d+(?:\.\d+)?)S)?)?$"
)


def parse_duration(text: str) -> float:
    """Parse an ISO-8601 duration ("PT10S") or shorthand ("10S") to seconds."""
    text = text.strip()
    match = _DURATION_RE.match(text)
    if match and any(match.groupdict().values()):
        parts = match.groupdict()
        return (
            float(parts["days"] or 0) * 86400
            + float(parts["hours"] or 0) * 3600
            + float(parts["minutes"] or 0) * 60
            + float(parts["seconds"] or 0)
        )
    short = re.match(r"^(\d+(?:\.\d+)?)\s*(S|M|H)$", text, re.IGNORECASE)
    if short:
        value = float(short.group(1))
        unit = short.group(2).upper()
        return value * {"S": 1, "M": 60, "H": 3600}[unit]
    raise STARQLSyntaxError(f"cannot parse duration {text!r}")


_CLOCK_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?")


def _parse_clock(text: str) -> float:
    """Parse "00:10:00CET" style start times into seconds since midnight."""
    match = _CLOCK_RE.match(text.strip())
    if match is None:
        raise STARQLSyntaxError(f"cannot parse start time {text!r}")
    hours, minutes = int(match.group(1)), int(match.group(2))
    seconds = int(match.group(3) or 0)
    return hours * 3600 + minutes * 60 + seconds


class _Parser:
    def __init__(self, text: str, prefixes: PrefixMap | None = None) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self.prefixes = prefixes or PrefixMap()

    # -- token helpers -------------------------------------------------------

    def _peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self._tokens[min(self._index + ahead, len(self._tokens) - 1)]

    def _next(self) -> tuple[str, str, int]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _accept_kw(self, *keywords: str) -> str | None:
        kind, value, _ = self._peek()
        if kind == "kw" and value in keywords:
            self._next()
            return value
        return None

    def _expect_kw(self, keyword: str) -> None:
        if self._accept_kw(keyword) is None:
            raise STARQLSyntaxError(
                f"expected {keyword}, got {self._peek()[1]!r}"
            )

    def _expect(self, kind: str) -> str:
        got, value, pos = self._next()
        if got != kind:
            raise STARQLSyntaxError(
                f"expected {kind}, got {got} {value!r} at {pos}"
            )
        return value

    # -- shared pieces ------------------------------------------------------

    def parse_prefixes(self) -> None:
        while self._accept_kw("PREFIX"):
            kind, value, _ = self._next()
            if kind == "qname" and value.endswith(":"):
                prefix = value[:-1]
            elif kind == "name":
                prefix = value
                self._expect("colon")
            elif kind == "colon":
                prefix = ""
            else:
                raise STARQLSyntaxError(f"bad prefix declaration near {value!r}")
            iri = self._expect("full_iri")
            self.prefixes.bind(prefix, iri[1:-1])

    def _extract_braced_block(self) -> str:
        """Consume a balanced ``{ ... }`` block, returning its raw text."""
        kind, _, start = self._peek()
        if kind != "lbrace":
            raise STARQLSyntaxError(f"expected '{{', got {self._peek()[1]!r}")
        depth = 0
        end = start
        while True:
            kind, value, pos = self._next()
            if kind == "lbrace":
                depth += 1
            elif kind == "rbrace":
                depth -= 1
                if depth == 0:
                    end = pos + 1
                    break
            elif kind == "eof":
                raise STARQLSyntaxError("unterminated '{' block")
        return self._text[start:end]

    def _parse_duration_token(self) -> float:
        value = self._expect("string")
        if self._peek()[0] == "dtsep":
            self._next()
            self._next()  # the xsd:duration datatype qname
        return parse_duration(value[1:-1])

    # -- query ---------------------------------------------------------------

    def parse_query(self) -> STARQLQuery:
        start_offset = self._peek()[2]
        self.parse_prefixes()
        self._expect_kw("CREATE")
        self._expect_kw("STREAM")
        output = self._parse_stream_name()
        self._expect_kw("AS")
        self._expect_kw("CONSTRUCT")
        self._expect_kw("GRAPH")
        self._expect_kw("NOW")
        construct_text = self._extract_braced_block()
        construct_atoms, construct_filters = parse_bgp(construct_text, self.prefixes)
        construct_atoms = [_normalize_rdf_type(a) for a in construct_atoms]
        if construct_filters:
            raise STARQLSyntaxError("CONSTRUCT patterns cannot contain FILTER")

        self._expect_kw("FROM")
        windows: list[WindowClause] = []
        statics: list[str] = []
        ontology: str | None = None
        while True:
            if self._accept_kw("STREAM"):
                windows.append(self._parse_window_clause())
            elif self._accept_kw("STATIC"):
                self._expect_kw("DATA")
                statics.append(self._expect("full_iri")[1:-1])
            elif self._accept_kw("ONTOLOGY"):
                ontology = self._expect("full_iri")[1:-1]
            else:
                raise STARQLSyntaxError(
                    f"expected STREAM/STATIC DATA/ONTOLOGY, got {self._peek()[1]!r}"
                )
            if self._peek()[0] == "comma":
                self._next()
                continue
            break

        pulse: PulseClause | None = None
        if self._accept_kw("USING"):
            self._expect_kw("PULSE")
            self._expect_kw("WITH")
            start: float | None = None
            if self._accept_kw("START"):
                self._expect("comparator")  # '='
                start = _parse_clock(self._expect("string")[1:-1])
                if self._peek()[0] == "comma":
                    self._next()
            self._expect_kw("FREQUENCY")
            self._expect("comparator")  # '='
            frequency = self._parse_duration_token()
            pulse = PulseClause(start, frequency)

        self._expect_kw("WHERE")
        where_text = self._extract_braced_block()
        where_atoms, where_filters = parse_bgp(where_text, self.prefixes)
        where_atoms = [_normalize_rdf_type(a) for a in where_atoms]

        sequence_method, sequence_alias = "StdSeq", "seq"
        if self._accept_kw("SEQUENCE"):
            self._expect_kw("BY")
            sequence_method = self._expect("name")
            if self._accept_kw("AS"):
                sequence_alias = self._next()[1]

        having: HavingExpr | None = None
        if self._accept_kw("HAVING"):
            having = self._parse_having()

        if not windows:
            raise STARQLSyntaxError("STARQL queries need at least one FROM STREAM")
        end_offset = self._peek()[2]
        return STARQLQuery(
            output_stream=output,
            construct_atoms=tuple(construct_atoms),
            windows=tuple(windows),
            static_data=tuple(statics),
            ontology_iri=ontology,
            pulse=pulse,
            where_atoms=tuple(where_atoms),
            where_filters=tuple(where_filters),
            sequence_method=sequence_method,
            sequence_alias=sequence_alias,
            having=having,
            prefixes=self.prefixes,
            text=self._text[start_offset:end_offset].strip(),
        )

    def _parse_stream_name(self) -> str:
        kind, value, _ = self._next()
        if kind in ("name", "qname"):
            return value
        raise STARQLSyntaxError(f"expected stream name, got {value!r}")

    def _parse_window_clause(self) -> WindowClause:
        stream = self._parse_stream_name()
        self._expect("lbracket")
        self._expect_kw("NOW")
        self._expect("minus")
        range_seconds = self._parse_duration_token()
        self._expect("comma")
        self._expect_kw("NOW")
        self._expect("rbracket")
        self._expect("arrow")
        slide_seconds = self._parse_duration_token()
        return WindowClause(stream, range_seconds, slide_seconds)

    # -- HAVING language -------------------------------------------------------

    def _parse_having(self) -> HavingExpr:
        return self._parse_or()

    def _parse_or(self) -> HavingExpr:
        left = self._parse_and()
        operands = [left]
        while self._accept_kw("OR"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return left
        return BoolOp("OR", tuple(operands))

    def _parse_and(self) -> HavingExpr:
        left = self._parse_unary()
        operands = [left]
        while self._accept_kw("AND"):
            operands.append(self._parse_unary())
        if len(operands) == 1:
            return left
        return BoolOp("AND", tuple(operands))

    def _parse_unary(self) -> HavingExpr:
        if self._accept_kw("NOT"):
            return BoolOp("NOT", (self._parse_unary(),))
        return self._parse_primary()

    def _parse_primary(self) -> HavingExpr:
        kind, value, _ = self._peek()
        if kind == "lparen":
            self._next()
            inner = self._parse_if_or_having()
            self._expect("rparen")
            return inner
        if kind == "kw" and value == "IF":
            return self._parse_if()
        if kind == "kw" and value == "EXISTS":
            return self._parse_exists()
        if kind == "kw" and value == "FORALL":
            return self._parse_forall()
        if kind == "kw" and value == "GRAPH":
            return self._parse_graph_pattern()
        if kind in ("name", "qname") and self._is_call_ahead():
            return self._parse_call()
        return self._parse_comparison()

    def _parse_if_or_having(self) -> HavingExpr:
        if self._peek()[0] == "kw" and self._peek()[1] == "IF":
            return self._parse_if()
        return self._parse_having()

    def _parse_if(self) -> HavingExpr:
        self._expect_kw("IF")
        premise = self._parse_having()
        self._expect_kw("THEN")
        conclusion = self._parse_having()
        return Implies(premise, conclusion)

    def _parse_exists(self) -> HavingExpr:
        self._expect_kw("EXISTS")
        variables = [Variable(self._expect("var")[1:])]
        while self._peek()[0] == "comma":
            self._next()
            variables.append(Variable(self._expect("var")[1:]))
        self._expect_kw("IN")
        if self._accept_kw("SEQ") is None:
            # allow the lowercase alias name used after SEQUENCE BY ... AS
            self._next()
        kind, value, _ = self._peek()
        if kind == "colon":
            self._next()
        return Exists(tuple(variables), self._parse_having())

    def _parse_forall(self) -> HavingExpr:
        self._expect_kw("FORALL")
        index_vars: list[Variable] = []
        constraints: list[Comparison] = []
        first = Variable(self._expect("var")[1:])
        index_vars.append(first)
        previous = first
        while self._peek()[0] == "comparator":
            op = self._next()[1]
            nxt = Variable(self._expect("var")[1:])
            constraints.append(Comparison(op, previous, nxt))
            index_vars.append(nxt)
            previous = nxt
        self._expect_kw("IN")
        if self._accept_kw("SEQ") is None:
            self._next()  # sequence alias
        value_vars: list[Variable] = []
        while self._peek()[0] == "comma":
            self._next()
            value_vars.append(Variable(self._expect("var")[1:]))
        if self._peek()[0] == "colon":
            self._next()
        body = self._parse_having()
        return Forall(
            tuple(index_vars), tuple(constraints), tuple(value_vars), body
        )

    def _parse_graph_pattern(self) -> GraphPattern:
        self._expect_kw("GRAPH")
        state = Variable(self._expect("var")[1:])
        self._expect("lbrace")
        atoms: list[Atom] = []
        while self._peek()[0] != "rbrace":
            atoms.append(self._parse_state_atom())
            if self._peek()[0] in ("dot", "semicolon"):
                self._next()
        self._expect("rbrace")
        return GraphPattern(state, tuple(atoms))

    def _parse_state_atom(self) -> Atom:
        subject = self._parse_term()
        kind, value, _ = self._peek()
        if kind == "name" and value == "a":
            self._next()
            cls = self._parse_iri_or_param()
            return Atom(_as_iri(cls), (subject,))
        predicate = self._parse_iri_or_param()
        kind, _, _ = self._peek()
        if kind in ("rbrace", "dot", "semicolon"):
            # existential object: { $var sie:showsFailure } holds when any
            # showsFailure assertion on $var exists in the state
            obj: Term = _fresh_existential()
            return Atom(_as_iri(predicate), (subject, obj))
        obj = self._parse_term()
        return Atom(_as_iri(predicate), (subject, obj))

    def _is_call_ahead(self) -> bool:
        """NAME '(' or NAME '.' NAME '(' or QNAME '(' — a call follows."""
        kind, _, _ = self._peek()
        if kind not in ("name", "qname"):
            return False
        if self._peek(1)[0] == "lparen":
            return True
        return (
            self._peek(1)[0] == "dot"
            and self._peek(2)[0] in ("name", "qname", "kw")
            and self._peek(3)[0] == "lparen"
        )

    def _parse_call(self) -> HavingExpr:
        name = self._next()[1]
        if self._peek()[0] == "dot":
            self._next()
            name = f"{name}.{self._next()[1]}"
        name = name.replace(":", ".")
        self._expect("lparen")
        args: list[Term] = []
        while self._peek()[0] != "rparen":
            args.append(self._parse_term())
            if self._peek()[0] == "comma":
                self._next()
        self._expect("rparen")
        upper = name.upper()
        if upper in SQL_AGG_FUNCTIONS and self._peek()[0] == "comparator":
            return self._finish_aggregate_comparison(upper, args)
        return MacroCall(name.upper(), tuple(args))

    def _finish_aggregate_comparison(
        self, function: str, args: list[Term]
    ) -> AggregateComparison:
        op = self._expect("comparator")
        value = self._parse_term()
        if function == "PEARSON":
            if len(args) != 4:
                raise STARQLSyntaxError(
                    "PEARSON expects (?var, attr, ?var, attr)"
                )
            subject, attribute, subject2, attribute2 = args
            return AggregateComparison(
                function,
                _as_var(subject),
                _as_iri(attribute),
                op,
                value,
                second_subject=_as_var(subject2),
                second_attribute=_as_iri(attribute2),
            )
        if len(args) != 2:
            raise STARQLSyntaxError(f"{function} expects (?var, attribute)")
        subject, attribute = args
        return AggregateComparison(
            function, _as_var(subject), _as_iri(attribute), op, value
        )

    def _parse_comparison(self) -> HavingExpr:
        left_terms = [self._parse_term()]
        while self._peek()[0] == "comma":
            # "?i, ?j < ?k" sugar: both compared to the right side
            self._next()
            left_terms.append(self._parse_term())
        op = self._expect("comparator")
        right = self._parse_term()
        comparisons = [Comparison(op, left, right) for left in left_terms]
        if len(comparisons) == 1:
            return comparisons[0]
        return BoolOp("AND", tuple(comparisons))

    # -- terms ----------------------------------------------------------------

    def _parse_term(self) -> Term:
        kind, value, _ = self._peek()
        if kind == "var":
            self._next()
            return Variable(value[1:])
        if kind == "param":
            self._next()
            return Variable(value)  # '$name' marks a macro parameter
        if kind == "number":
            self._next()
            if "." in value:
                return Literal(value, XSD.double)
            return Literal(value, XSD.integer)
        if kind == "string":
            self._next()
            lexical = value[1:-1]
            if self._peek()[0] == "dtsep":
                self._next()
                datatype = self._parse_iri_or_param()
                return Literal(lexical, _as_iri(datatype))
            return Literal(lexical, XSD.string)
        return self._parse_iri_or_param()

    def _parse_iri_or_param(self) -> Term:
        kind, value, _ = self._next()
        if kind == "full_iri":
            return IRI(value[1:-1])
        if kind == "qname":
            if value.startswith(":"):
                return self.prefixes.expand("" + value)
            return self.prefixes.expand(value)
        if kind == "param":
            return Variable(value)
        raise STARQLSyntaxError(f"expected an IRI, got {value!r}")

    # -- CREATE AGGREGATE ---------------------------------------------------------

    def parse_aggregate(self) -> AggregateMacro:
        self.parse_prefixes()
        self._expect_kw("CREATE")
        self._expect_kw("AGGREGATE")
        name = self._next()[1]
        if self._peek()[0] == "dot":
            self._next()
            name = f"{name}.{self._next()[1]}"
        name = name.replace(":", ".").upper()
        self._expect("lparen")
        parameters: list[str] = []
        while self._peek()[0] != "rparen":
            parameters.append(self._expect("param"))
            if self._peek()[0] == "comma":
                self._next()
        self._expect("rparen")
        self._expect_kw("AS")
        self._expect_kw("HAVING")
        body = self._parse_having()
        return AggregateMacro(name, tuple(parameters), body)


_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def _normalize_rdf_type(atom: Atom) -> Atom:
    """Turn ``(s, rdf:type, C)`` property atoms into class atoms ``C(s)``."""
    if (
        atom.is_property_atom
        and atom.predicate == _RDF_TYPE
        and isinstance(atom.args[1], IRI)
    ):
        return Atom(atom.args[1], (atom.args[0],))
    return atom


def _as_iri(term: Term) -> IRI:
    if isinstance(term, IRI):
        return term
    if isinstance(term, Variable) and term.name.startswith("$"):
        # parameters stand in for IRIs until substitution
        return IRI(f"urn:starql:param:{term.name[1:]}")
    raise STARQLSyntaxError(f"expected an IRI, got {term}")


def _as_var(term: Term) -> Variable:
    if isinstance(term, Variable):
        return term
    raise STARQLSyntaxError(f"expected a variable, got {term}")


def parse_starql(text: str, prefixes: PrefixMap | None = None) -> STARQLQuery:
    """Parse one STARQL CREATE STREAM query."""
    parser = _Parser(text, prefixes)
    query = parser.parse_query()
    if parser._peek()[0] != "eof":
        raise STARQLSyntaxError(f"trailing input: {parser._peek()[1]!r}")
    return query


def parse_aggregate_macro(
    text: str, prefixes: PrefixMap | None = None
) -> AggregateMacro:
    """Parse one CREATE AGGREGATE macro definition."""
    parser = _Parser(text, prefixes)
    macro = parser.parse_aggregate()
    if parser._peek()[0] != "eof":
        raise STARQLSyntaxError(f"trailing input: {parser._peek()[1]!r}")
    return macro


def parse_document(
    text: str, prefixes: PrefixMap | None = None
) -> tuple[list[STARQLQuery], list[AggregateMacro]]:
    """Parse a document with queries and macros (Figure 1 as one file)."""
    parser = _Parser(text, prefixes)
    queries: list[STARQLQuery] = []
    macros: list[AggregateMacro] = []
    while parser._peek()[0] != "eof":
        # look ahead: CREATE STREAM vs CREATE AGGREGATE (after prefixes)
        save = parser._index
        parser.parse_prefixes()
        if parser._peek()[1] != "CREATE":
            raise STARQLSyntaxError(
                f"expected CREATE, got {parser._peek()[1]!r}"
            )
        following = parser._peek(1)[1]
        parser._index = save
        if following == "AGGREGATE":
            macros.append(parser.parse_aggregate())
        else:
            queries.append(parser.parse_query())
    return queries, macros
