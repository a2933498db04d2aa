"""Generated kernels: the expression compiler against its frozen oracle,
what may enter a kernel's source, and how often sources compile.

``tests/expr_oracle.py`` is the closure tree the engine ran before
expressions were generated as Python source; every kernel kind must
agree with it (compositions of it, for the multi-row kinds) value for
value and type for type, or raise the same exception type.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.exastream import GatewayServer, StreamEngine, operators
from repro.exastream.operators import (
    Relation,
    compile_expr,
    compile_kernel,
    kernel_factory,
)
from repro.exastream.udf import builtin_registry
from repro.relational import Column, Database, Schema, SQLType, Table
from repro.siemens import FleetConfig, deploy, diagnostic_catalog, generate_fleet
from repro.sql import BinOp, Col, Func, Lit, UnaryOp

from expr_oracle import interpret_expr
from test_exastream import measurement_stream

COLUMNS = ["w.a", "w.b", "w.c"]
RELATION = Relation(COLUMNS, [])


def _registry():
    registry = builtin_registry()  # ABS, C2F
    registry.register_scalar("ADD2", lambda a, b: a + b, 2)
    return registry


REGISTRY = _registry()

# Strings without '%': ``str % x`` is formatting, and a random format
# spec could ask for an arbitrarily wide field.
TEXT = st.text(alphabet="ab 1", max_size=3)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
ROWS = st.tuples(SCALARS, SCALARS, SCALARS)

LEAVES = st.one_of(
    st.sampled_from([Col("w", "a"), Col("w", "b"), Col("w", "c")]),
    SCALARS.map(Lit),
)
BINARY = ["+", "-", "*", "/", "%", "||", "=", "!=", "<", "<=", ">", ">=",
          "AND", "OR"]


def _extend(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(BINARY), children, children),
        st.builds(
            BinOp, st.sampled_from(["IS", "IS NOT"]), children,
            st.just(Lit(None)),
        ),
        st.builds(
            BinOp, st.just("LIKE"), children,
            st.text(alphabet="ab%_1", max_size=4).map(Lit),
        ),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(
            lambda target, values: Func("IN_LIST", (target, *values)),
            children, st.lists(SCALARS.map(Lit), min_size=1, max_size=3),
        ),
        st.builds(lambda arg: Func("ABS", (arg,)), children),
        st.builds(lambda a, b: Func("ADD2", (a, b)), children, children),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=8)


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is what is compared
        return "raise", type(exc)


def _same(expected, got) -> bool:
    """Equal outcome: the same exception type, or a value of the same
    type with the same repr (which tells 1, 1.0 and True apart, orders
    dicts, and makes NaN equal to itself)."""
    if expected[0] != got[0]:
        return False
    if expected[0] == "raise":
        return expected[1] is got[1]
    return (
        type(expected[1]) is type(got[1])
        and repr(expected[1]) == repr(got[1])
    )


class TestAgainstTheClosureTree:
    @settings(max_examples=600, deadline=None)
    @given(EXPRS, st.lists(ROWS, min_size=1, max_size=4))
    def test_value_kernel_matches_the_oracle(self, expr, rows):
        oracle = _outcome(interpret_expr, expr, RELATION, REGISTRY)
        kernel = _outcome(compile_expr, expr, RELATION, REGISTRY)
        assert oracle[0] == kernel[0], (expr, oracle, kernel)
        if oracle[0] == "raise":  # refused when compiled, by both
            assert oracle[1] is kernel[1], (expr, oracle, kernel)
            return
        for row in rows:
            expected, got = _outcome(oracle[1], row), _outcome(kernel[1], row)
            assert _same(expected, got), (
                expr, row, expected, got, kernel[1].source
            )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(EXPRS, min_size=1, max_size=3),
        st.lists(ROWS, max_size=6),
    )
    def test_row_kinds_match_the_engine_loops_they_replace(self, exprs, rows):
        try:
            fns = [interpret_expr(e, RELATION, REGISTRY) for e in exprs]
        except (ValueError, TypeError):
            return  # covered by the value-kernel test

        def grouped(rows):
            groups = {}
            for row in rows:
                groups.setdefault(tuple(fn(row) for fn in fns), []).append(row)
            return groups

        loops = {
            "extend": lambda rows: [
                row + tuple(fn(row) for fn in fns) for row in rows
            ],
            "filter": lambda rows: [
                r for r in rows if all(fn(r) for fn in fns)
            ],
            "project": lambda rows: [
                tuple(fn(row) for fn in fns) for row in rows
            ],
            "group": grouped,
            "values": lambda rows: [
                v for v in (fns[0](m) for m in rows) if v is not None
            ],
        }
        for kind, loop in loops.items():
            kernel = compile_kernel(
                kind, exprs[:1] if kind == "values" else exprs,
                RELATION, REGISTRY,
            )
            expected, got = _outcome(loop, rows), _outcome(kernel, rows)
            assert _same(expected, got), (kind, exprs, rows, kernel.source)

    def test_and_or_evaluate_the_right_operand_whatever_the_left_gave(self):
        # the closure tree evaluated both operands before combining them
        divide = BinOp("/", Col("w", "b"), Col("w", "c"))
        for op, row in (("AND", (1, 1, 0)), ("OR", (0, 1, 0))):
            expr = BinOp(op, BinOp("!=", Col("w", "a"), Lit(1)), divide)
            for kernel in (
                interpret_expr(expr, RELATION), compile_expr(expr, RELATION)
            ):
                assert _outcome(kernel, row) == ("raise", ZeroDivisionError)
        ordering = BinOp(
            "<", Col("w", "a"), BinOp("<", Col("w", "b"), Col("w", "c"))
        )
        assert _outcome(compile_expr(ordering, RELATION), (None, "x", 1)) == (
            "raise", TypeError
        )

    def test_connective_chains_flatten_and_deep_nesting_is_refused(self):
        # a long OR/AND chain is one all()/any() call, not 500 nested ones
        for op, expected in (("OR", True), ("AND", False)):
            chain = Col("w", "a")
            for i in range(500):
                chain = BinOp(op, chain, Lit(i))
            assert compile_expr(chain, RELATION)((1, 0, 0)) is expected
        # arithmetic deeper than CPython compiles is refused when the
        # kernel is generated (a BindError at registration for a pushed
        # filter or computed column), not while rows flow
        deep = Col("w", "a")
        for i in range(250):
            deep = BinOp("+", deep, Lit(i))
        with pytest.raises(ValueError, match="nests too deeply"):
            compile_expr(deep, RELATION)

    def test_and_or_return_bool(self):
        for op in ("AND", "OR"):
            fn = compile_expr(BinOp(op, Col("w", "a"), Col("w", "b")), RELATION)
            assert fn((2, 3)) is True and fn((0, 0)) is False


EVIL = "x'\"\n)__import__('os')"


def _plant_with(assembly: str):
    schema = Schema("plant")
    schema.add(Table(
        "sensor_info",
        [Column("sid", SQLType.INTEGER), Column("assembly", SQLType.TEXT)],
        primary_key=("sid",),
    ))
    db = Database(schema)
    db.insert("sensor_info", [(1, assembly), (2, "stator")])
    return db


def test_user_literals_never_enter_kernel_source(monkeypatch):
    sources: list[str] = []

    def recording(source):
        sources.append(source)
        return kernel_factory(source)

    monkeypatch.setattr(operators, "kernel_factory", recording)
    rows = []
    for t in range(12):
        rows.append((float(t), 1, 50.0 + t, 0))
        rows.append((float(t), 2, 60.0, 0))
    engine = StreamEngine()
    engine.register_stream(measurement_stream(rows))
    engine.attach_database("plant", _plant_with(EVIL))
    gateway = GatewayServer(engine)
    literal = "'" + EVIL.replace("'", "''") + "'"
    where = gateway.register(
        "SELECT w.sid AS s, COUNT(*) AS n "
        "FROM timeSlidingWindow(S_Msmt, 4, 4) AS w, sensor_info AS st "
        f"WHERE w.sid = st.sid AND st.assembly = {literal} GROUP BY w.sid",
        name="where",
    )
    having = gateway.register(
        "SELECT w.sid AS s, MAX(st.assembly) AS m "
        "FROM timeSlidingWindow(S_Msmt, 4, 4) AS w, sensor_info AS st "
        "WHERE w.sid = st.sid GROUP BY w.sid "
        f"HAVING MAX(st.assembly) = {literal}",
        name="having",
    )
    while gateway.step():
        pass
    for query in (where, having):
        results = query.results()
        assert results
        assert all(row[0] == 1 for r in results for row in r.rows)
        assert any(r.rows for r in results)
    assert all(row[1] == EVIL for r in having.results() for row in r.rows)
    assert sources
    for source in sources:
        # no quote of any kind: nothing is spelled as a string literal
        assert "'" not in source and '"' not in source
        assert not {"__import__", "os"} & set(re.findall(r"\w+", source))


def _shifted(text: str, shift: int) -> str:
    """``register_churn``'s variant text: every numeric HAVING threshold
    moved up by ``shift * 1e-12``."""
    def bump(match: re.Match) -> str:
        value = float(match.group(2)) + shift * 1e-12
        return f"{match.group(1)}{value:.12f}"

    return "\n".join(
        re.sub(r"([<>]=?\s*)(\d+(?:\.\d+)?)", bump, line)
        if line.startswith("HAVING") else line
        for line in text.split("\n")
    )


def test_a_shape_compiles_once_across_sessions_and_constants():
    fleet = generate_fleet(FleetConfig(turbines=3, plants=2, correlated_pairs=2))
    deployment = deploy(fleet=fleet, stream_duration=25)
    texts = [task.starql for task in diagnostic_catalog()]
    variants = [_shifted(text, 7) for text in texts]
    assert sum(v != t for v, t in zip(variants, texts)) >= 5

    def run_round(texts: list[str], prefix: str) -> int:
        before = kernel_factory.cache_info().misses
        session = deployment.session(sink_capacity=8)
        for index, text in enumerate(texts):
            session.submit(text, name=f"{prefix}{index}", max_windows=2)
        delivered = session.step(1) + session.step(1)
        session.close()
        assert delivered
        return kernel_factory.cache_info().misses - before

    run_round(texts, "first.")
    assert run_round(texts, "second.") == 0
    assert run_round(variants, "variant.") == 0
