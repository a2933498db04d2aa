"""Parser for the SQL(+) SELECT subset.

The EXASTREAM gateway accepts queries as text; mappings may also define
their logical tables as SQL strings.  This recursive-descent parser covers
the subset the system emits and consumes:

* SELECT [DISTINCT] items FROM sources [WHERE] [GROUP BY] [HAVING]
  [ORDER BY] [LIMIT], chained with UNION [ALL];
* comma joins and explicit INNER/LEFT JOIN ... ON;
* table-valued functions in FROM position (``timeSlidingWindow``,
  ``wCache``) with table, subquery or scalar arguments;
* scalar expressions with the usual precedence, function calls,
  qualified columns and literals.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from ..errors import ReproError
from .ast import (
    BaseTable,
    BinOp,
    Col,
    Expr,
    Func,
    Join,
    Lit,
    Query,
    SelectItem,
    SelectQuery,
    Star,
    SubSelect,
    TableExpr,
    TableFunction,
    UnaryOp,
    UnionQuery,
)

__all__ = ["parse_sql", "SQLSyntaxError"]


class SQLSyntaxError(ReproError, ValueError):
    """Raised when SQL(+) text cannot be parsed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<op><>|!=|<=|>=|=|<|>|\|\||[+\-/%])
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<star>\*)
    | (?P<name>[A-Za-z_][A-Za-z_0-9$]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "UNION", "ALL", "AS", "AND", "OR", "NOT", "JOIN", "INNER",
    "LEFT", "OUTER", "CROSS", "ON", "NULL", "TRUE", "FALSE", "IN", "IS",
    "BETWEEN", "LIKE", "ASC", "DESC",
}


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SQLSyntaxError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "ws":
            continue
        if kind == "name" and value.upper() in _KEYWORDS:
            yield "kw", value.upper()
        else:
            yield kind, value
    yield "eof", ""


class _SQLParser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._index = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> tuple[str, str]:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _accept_kw(self, *keywords: str) -> str | None:
        kind, value = self._peek()
        if kind == "kw" and value in keywords:
            self._next()
            return value
        return None

    def _expect_kw(self, keyword: str) -> None:
        if self._accept_kw(keyword) is None:
            raise SQLSyntaxError(f"expected {keyword}, got {self._peek()[1]!r}")

    def _expect(self, kind: str) -> str:
        got, value = self._next()
        if got != kind:
            raise SQLSyntaxError(f"expected {kind}, got {got} {value!r}")
        return value

    # -- entry point -------------------------------------------------------

    def parse(self) -> Query:
        query = self._parse_query()
        if self._peek()[0] != "eof":
            raise SQLSyntaxError(f"trailing input: {self._peek()[1]!r}")
        return query

    def _parse_query(self) -> Query:
        selects = [self._parse_select()]
        all_flag = True
        while self._accept_kw("UNION"):
            all_flag = self._accept_kw("ALL") is not None
            selects.append(self._parse_select())
        if len(selects) == 1:
            return selects[0]
        return UnionQuery(tuple(selects), all=all_flag)

    # -- SELECT block ---------------------------------------------------------

    def _parse_select(self) -> SelectQuery:
        self._expect_kw("SELECT")
        distinct = self._accept_kw("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._peek()[0] == "comma":
            self._next()
            items.append(self._parse_select_item())

        from_items: list[TableExpr] = []
        if self._accept_kw("FROM"):
            from_items.append(self._parse_table_expr())
            while self._peek()[0] == "comma":
                self._next()
                from_items.append(self._parse_table_expr())

        where: list[Expr] = []
        if self._accept_kw("WHERE"):
            where = _split_conjunction(self._parse_expr())

        group_by: list[Expr] = []
        if self._accept_kw("GROUP"):
            self._expect_kw("BY")
            group_by.append(self._parse_expr())
            while self._peek()[0] == "comma":
                self._next()
                group_by.append(self._parse_expr())

        having: list[Expr] = []
        if self._accept_kw("HAVING"):
            having = _split_conjunction(self._parse_expr())

        order_by: list[Expr] = []
        if self._accept_kw("ORDER"):
            self._expect_kw("BY")
            order_by.append(self._parse_expr())
            self._accept_kw("ASC", "DESC")
            while self._peek()[0] == "comma":
                self._next()
                order_by.append(self._parse_expr())
                self._accept_kw("ASC", "DESC")

        limit: int | None = None
        if self._accept_kw("LIMIT"):
            limit = int(self._expect("number"))

        return SelectQuery(
            select=tuple(items),
            from_=tuple(from_items),
            where=tuple(where),
            group_by=tuple(group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        kind, value = self._peek()
        if kind == "star":
            self._next()
            return SelectItem(Star())
        # alias.* projection
        if (
            kind == "name"
            and self._peek(1)[0] == "dot"
            and self._peek(2)[0] == "star"
        ):
            self._next()
            self._next()
            self._next()
            return SelectItem(Star(value))
        expr = self._parse_expr()
        alias = None
        if self._accept_kw("AS"):
            alias = self._expect("name")
        elif self._peek()[0] == "name":
            alias = self._next()[1]
        return SelectItem(expr, alias)

    # -- FROM position ----------------------------------------------------------

    def _parse_table_expr(self) -> TableExpr:
        left = self._parse_table_primary()
        while True:
            kind = self._accept_kw("INNER", "LEFT", "CROSS", "JOIN")
            if kind is None:
                return left
            join_kind = "INNER"
            if kind == "LEFT":
                self._accept_kw("OUTER")
                join_kind = "LEFT"
                self._expect_kw("JOIN")
            elif kind == "CROSS":
                join_kind = "CROSS"
                self._expect_kw("JOIN")
            elif kind == "INNER":
                self._expect_kw("JOIN")
            right = self._parse_table_primary()
            condition: Expr | None = None
            if join_kind != "CROSS":
                self._expect_kw("ON")
                condition = self._parse_expr()
            left = Join(left, right, condition, join_kind)

    def _parse_table_primary(self) -> TableExpr:
        kind, value = self._peek()
        if kind == "lparen":
            self._next()
            query = self._parse_query()
            self._expect("rparen")
            self._accept_kw("AS")
            alias = self._expect("name")
            return SubSelect(query, alias)
        name = self._expect("name")
        if self._peek()[0] == "lparen":  # table-valued function
            self._next()
            args: list[object] = []
            while self._peek()[0] != "rparen":
                args.append(self._parse_table_function_arg())
                if self._peek()[0] == "comma":
                    self._next()
            self._expect("rparen")
            alias = self._parse_optional_alias()
            return TableFunction(name, tuple(args), alias)
        alias = self._parse_optional_alias()
        return BaseTable(name, alias)

    def _parse_table_function_arg(self) -> object:
        kind, value = self._peek()
        if kind == "lparen":
            self._next()
            query = self._parse_query()
            self._expect("rparen")
            return query
        if kind == "kw" and value == "SELECT":  # bare subquery
            return self._parse_query()
        # A bare name (not followed by an operator/dot) denotes a source
        # table or stream; anything else is a scalar expression.
        if kind == "name" and self._peek(1)[0] in ("comma", "rparen"):
            self._next()
            return BaseTable(value)
        return self._parse_expr()

    def _parse_optional_alias(self) -> str | None:
        if self._accept_kw("AS"):
            return self._expect("name")
        if self._peek()[0] == "name":
            return self._next()[1]
        return None

    # -- expressions ---------------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_kw("OR"):
            left = BinOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_kw("AND"):
            left = BinOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept_kw("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        kind, value = self._peek()
        if kind == "op" and value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._next()
            op = "!=" if value == "<>" else value
            return BinOp(op, left, self._parse_additive())
        if kind == "kw" and value == "IS":
            self._next()
            negated = self._accept_kw("NOT") is not None
            self._expect_kw("NULL")
            op = "IS NOT" if negated else "IS"
            return BinOp(op, left, Lit(None))
        if kind == "kw" and value == "LIKE":
            self._next()
            return BinOp("LIKE", left, self._parse_additive())
        if kind == "kw" and value == "IN":
            self._next()
            self._expect("lparen")
            values = [self._parse_expr()]
            while self._peek()[0] == "comma":
                self._next()
                values.append(self._parse_expr())
            self._expect("rparen")
            return Func("IN_LIST", (left, *values))
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            kind, value = self._peek()
            if kind == "op" and value in ("+", "-", "||"):
                self._next()
                left = BinOp(value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            kind, value = self._peek()
            if kind == "op" and value in ("*", "/", "%"):
                self._next()
                left = BinOp(value, left, self._parse_unary())
            elif kind == "star":
                # ``a * b`` — the tokenizer marks bare ``*`` as star
                self._next()
                left = BinOp("*", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        kind, value = self._peek()
        if kind == "op" and value == "-":
            self._next()
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        kind, value = self._peek()
        if kind == "lparen":
            self._next()
            expr = self._parse_expr()
            self._expect("rparen")
            return expr
        if kind == "number":
            self._next()
            if "." in value or "e" in value or "E" in value:
                return Lit(float(value))
            return Lit(int(value))
        if kind == "string":
            self._next()
            return Lit(value[1:-1].replace("''", "'"))
        if kind == "kw" and value in ("NULL", "TRUE", "FALSE"):
            self._next()
            return Lit({"NULL": None, "TRUE": True, "FALSE": False}[value])
        if kind == "name":
            self._next()
            if self._peek()[0] == "lparen":  # scalar/aggregate function
                self._next()
                distinct = self._accept_kw("DISTINCT") is not None
                args: list[Expr] = []
                if self._peek()[0] == "star":
                    self._next()
                    args.append(Star())
                elif self._peek()[0] != "rparen":
                    args.append(self._parse_expr())
                    while self._peek()[0] == "comma":
                        self._next()
                        args.append(self._parse_expr())
                self._expect("rparen")
                return Func(value.upper(), tuple(args), distinct)
            if self._peek()[0] == "dot":
                self._next()
                if self._peek()[0] == "star":
                    self._next()
                    return Star(value)
                column = self._expect("name")
                return Col(value, column)
            return Col(None, value)
        raise SQLSyntaxError(f"unexpected token {value!r}")


def _split_conjunction(expr: Expr) -> list[Expr]:
    """Flatten top-level ANDs into a predicate list."""
    if isinstance(expr, BinOp) and expr.op == "AND":
        return _split_conjunction(expr.left) + _split_conjunction(expr.right)
    return [expr]


def parse_sql(text: str) -> Query:
    """Parse SQL(+) text into a query AST.

    >>> q = parse_sql("SELECT s.id FROM sensors AS s WHERE s.temp > 90")
    >>> len(q.where)
    1
    """
    return _SQLParser(text).parse()
