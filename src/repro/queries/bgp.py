"""SPARQL-style basic graph pattern parsing.

STARQL's ``WHERE`` and ``CONSTRUCT`` clauses use SPARQL basic graph
patterns (``{?c1 a sie:Assembly . ?c1 sie:inAssembly ?c2}``).  This module
parses such patterns into :class:`~repro.queries.cq.Atom` lists, including
``FILTER`` comparisons.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from ..errors import ReproError
from ..rdf import IRI, Literal, PrefixMap, Term, Variable, XSD
from .cq import Atom, ClassAtom, Filter, PropertyAtom

__all__ = ["parse_bgp", "BGPSyntaxError", "format_bgp"]


class BGPSyntaxError(ReproError, ValueError):
    """Raised when a basic graph pattern cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<dot>\.(?!\d))
    | (?P<comma>,)
    | (?P<semicolon>;)
    | (?P<comparator><=|>=|!=|=|<(?![^>\s]*>)|>)
    | (?P<full_iri><[^>\s]*>)
    | (?P<var>\?[A-Za-z_]\w*)
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<keyword>FILTER|filter)
    | (?P<qname>[A-Za-z_][\w-]*:(?:[\w-]+(?:\.[\w-]+)*)?|:[\w-]+(?:\.[\w-]+)*|a\b)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise BGPSyntaxError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        yield match.lastgroup or "", match.group()
    yield "eof", ""


class _BGPParser:
    def __init__(self, text: str, prefixes: PrefixMap) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0
        self._prefixes = prefixes

    def _peek(self) -> tuple[str, str]:
        return self._tokens[self._index]

    def _next(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> str:
        got, value = self._next()
        if got != kind:
            raise BGPSyntaxError(f"expected {kind}, got {got} {value!r}")
        return value

    def parse(self) -> tuple[list[Atom], list[Filter]]:
        self._expect("lbrace")
        atoms: list[Atom] = []
        filters: list[Filter] = []
        while self._peek()[0] != "rbrace":
            if self._peek()[0] == "keyword":
                filters.append(self._parse_filter())
            else:
                atoms.extend(self._parse_triple_block())
            if self._peek()[0] == "dot":
                self._next()
        self._expect("rbrace")
        if self._peek()[0] != "eof":
            raise BGPSyntaxError(f"trailing input after '}}': {self._peek()[1]!r}")
        return atoms, filters

    def _parse_filter(self) -> Filter:
        self._next()  # FILTER
        self._expect("lparen")
        left = self._parse_term()
        op = self._expect("comparator")
        right = self._parse_term()
        self._expect("rparen")
        return Filter(op, left, right)

    def _parse_triple_block(self) -> list[Atom]:
        """One subject with ``;``-separated predicate-object lists."""
        subject = self._parse_term()
        atoms: list[Atom] = []
        while True:
            kind, value = self._peek()
            if kind == "qname" and value == "a":
                self._next()
                cls = self._parse_iri()
                atoms.append(ClassAtom(cls, subject))
            else:
                predicate = self._parse_iri()
                obj = self._parse_term()
                atoms.append(PropertyAtom(predicate, subject, obj))
                while self._peek()[0] == "comma":
                    self._next()
                    atoms.append(PropertyAtom(predicate, subject, self._parse_term()))
            if self._peek()[0] == "semicolon":
                self._next()
                continue
            return atoms

    def _parse_iri(self) -> IRI:
        kind, value = self._next()
        if kind == "full_iri":
            return IRI(value[1:-1])
        if kind == "qname" and value != "a":
            return self._prefixes.expand(value)
        raise BGPSyntaxError(f"expected an IRI, got {value!r}")

    def _parse_term(self) -> Term:
        kind, value = self._peek()
        if kind == "var":
            self._next()
            return Variable(value[1:])
        if kind == "number":
            self._next()
            if "." in value:
                return Literal(value, XSD.double)
            return Literal(value, XSD.integer)
        if kind == "string":
            self._next()
            lexical = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            if self._peek()[0] == "dtsep":
                self._next()
                return Literal(lexical, self._parse_iri())
            return Literal(lexical, XSD.string)
        return self._parse_iri()


def parse_bgp(
    text: str, prefixes: PrefixMap | None = None
) -> tuple[list[Atom], list[Filter]]:
    """Parse ``{ ... }`` into (atoms, filters).

    >>> pm = PrefixMap(); pm.bind("sie", "urn:sie#")
    >>> atoms, _ = parse_bgp("{?s a sie:Sensor . ?s sie:hasValue ?v}", pm)
    >>> [str(a) for a in atoms]
    ['Sensor(?s)', 'hasValue(?s, ?v)']
    """
    return _BGPParser(text, prefixes or PrefixMap()).parse()


def format_bgp(
    atoms: list[Atom],
    filters: list[Filter] = (),
    prefixes: PrefixMap | None = None,
) -> str:
    """Render atoms/filters back to SPARQL pattern text."""
    pm = prefixes or PrefixMap()

    def term_text(term: Term) -> str:
        if isinstance(term, Variable):
            return f"?{term.name}"
        if isinstance(term, IRI):
            return pm.shrink(term)
        return term.n3()

    parts: list[str] = []
    for atom in atoms:
        if atom.is_class_atom:
            parts.append(f"{term_text(atom.args[0])} a {pm.shrink(atom.predicate)}")
        else:
            parts.append(
                f"{term_text(atom.args[0])} {pm.shrink(atom.predicate)} "
                f"{term_text(atom.args[1])}"
            )
    for filt in filters:
        parts.append(
            f"FILTER({term_text(filt.left)} {filt.op} {term_text(filt.right)})"
        )
    return "{ " + " . ".join(parts) + " }"
