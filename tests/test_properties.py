"""Cross-module property-based tests on core invariants."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.mappings import Template
from repro.queries import canonical_form, ConjunctiveQuery, PropertyAtom
from repro.rdf import IRI, Variable
from repro.sql import parse_sql, print_query
from repro.exastream.operators import Relation, StaticTable
from repro.streams import (
    WindowCache,
    WindowSpec,
    time_sliding_window,
)


# ---------------------------------------------------------------------------
# Template inversion
# ---------------------------------------------------------------------------

_safe_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


class TestTemplateProperties:
    @given(_safe_values, _safe_values)
    def test_render_match_roundtrip(self, a, b):
        template = Template("urn:x/{p}/{q}")
        rendered = template.render({"p": a, "q": b})
        extracted = template.match(rendered)
        assert extracted == {"p": a, "q": b}

    @given(_safe_values)
    def test_match_rejects_other_shapes(self, a):
        template = Template("urn:x/{p}")
        other = Template("urn:y/{p}")
        assert template.match(other.render({"p": a})) is None

    @given(st.integers(0, 10**9))
    def test_numeric_values_roundtrip_as_strings(self, n):
        template = Template("urn:n/{v}")
        assert template.match(template.render({"v": n})) == {"v": str(n)}


# ---------------------------------------------------------------------------
# Window semantics against a brute-force reference
# ---------------------------------------------------------------------------


class TestWindowProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 50, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.5, 8),
        st.floats(0.5, 8),
    )
    def test_every_tuple_lands_in_expected_windows(self, times, rng, slide):
        rows = [(t,) for t in sorted(times)]
        spec = WindowSpec(rng, slide)
        batches = list(time_sliding_window(rows, spec, 0))
        anchor = rows[0][0]
        # reference: recompute membership per batch from the definition
        for batch in batches:
            end = anchor + batch.window_id * slide
            assert batch.end == pytest.approx(end)
            expected = [t for (t,) in rows if end - rng <= t <= end]
            assert [t for (t,) in batch.tuples] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 30, allow_nan=False), min_size=1, max_size=40))
    def test_window_ids_contiguous(self, times):
        rows = [(t,) for t in sorted(times)]
        batches = list(time_sliding_window(rows, WindowSpec(3, 1), 0))
        assert [b.window_id for b in batches] == list(range(len(batches)))


# ---------------------------------------------------------------------------
# StaticTable (the one hash index) ≡ scan
# ---------------------------------------------------------------------------

_WIDTH = 3
_aliases = st.text(alphabet="abcxyz", min_size=1, max_size=3)


class TestIndexerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.one_of(st.none(), st.integers(0, 4))] * _WIDTH),
            max_size=60,
        ),
        st.lists(
            st.lists(st.integers(0, _WIDTH - 1), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.lists(_aliases, min_size=2, max_size=4),
    )
    def test_probe_results_independent_of_indexing(
        self, rows, layouts, aliases
    ):
        table = StaticTable(
            Relation([f"c{i}" for i in range(_WIDTH)], list(rows))
        )
        views = [(alias, table.view(alias)) for alias in aliases]
        for n, layout in enumerate(layouts):
            alias, view = views[n % len(views)]
            index = view.index_for([f"{alias}.c{i}" for i in layout])
            # every lookup equals a row-order scan, and nothing more
            scanned: dict[tuple, list[tuple]] = {}
            for row in rows:
                scanned.setdefault(tuple(row[i] for i in layout), []).append(row)
            assert index == scanned
            # every view of the table probes the one index dict
            for other_alias, other in views:
                assert other.index_for(
                    [f"{other_alias}.c{i}" for i in layout]
                ) is index
            assert table.index_for([f"c{i}" for i in layout]) is index
            # a loaded copy holds no index and builds an equal one
            loaded = pickle.loads(pickle.dumps(view))
            assert loaded._indexes == {}
            assert loaded.relation.rows == view.relation.rows
            rebuilt = loaded.index_for([f"{alias}.c{i}" for i in layout])
            assert rebuilt == index and rebuilt is not index
        assert all(view._indexes is table._indexes for _, view in views)
        assert set(table._indexes) == {tuple(layout) for layout in layouts}


# ---------------------------------------------------------------------------
# Window cache LRU discipline
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=100), st.integers(1, 8))
    def test_capacity_never_exceeded(self, accesses, capacity):
        from repro.streams.window import WindowBatch

        cache = WindowCache(capacity=capacity)
        for window_id in accesses:
            if cache.get("s", window_id) is None:
                cache.put("s", WindowBatch(window_id, 0.0, 1.0, []))
        assert len(cache) <= capacity

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=2, max_size=50))
    def test_most_recent_entry_always_present(self, accesses):
        from repro.streams.window import WindowBatch

        cache = WindowCache(capacity=3)
        for window_id in accesses:
            cache.put("s", WindowBatch(window_id, 0.0, 1.0, []))
        assert ("s", accesses[-1]) in cache


# ---------------------------------------------------------------------------
# SQL printer/parser fixpoint
# ---------------------------------------------------------------------------

_idents = st.sampled_from(["a", "b", "c", "val", "ts"])


@st.composite
def simple_selects(draw):
    cols = draw(st.lists(_idents, min_size=1, max_size=3, unique=True))
    table = draw(st.sampled_from(["t", "s", "events"]))
    pred_col = draw(_idents)
    pred_val = draw(st.integers(-5, 5))
    return (
        f"SELECT {', '.join(cols)} FROM {table} "
        f"WHERE {pred_col} > {pred_val}"
    )


class TestSQLProperties:
    @settings(max_examples=60, deadline=None)
    @given(simple_selects())
    def test_print_parse_fixpoint(self, sql):
        once = print_query(parse_sql(sql))
        assert print_query(parse_sql(once)) == once


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


class TestCanonicalFormProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_atom_order_irrelevant(self, order):
        predicates = [IRI(f"urn:cf#p{i}") for i in range(4)]
        x, y = Variable("x"), Variable("y")
        atoms = [PropertyAtom(predicates[i], x, y) for i in range(4)]
        base = ConjunctiveQuery((x,), tuple(atoms))
        shuffled = ConjunctiveQuery((x,), tuple(atoms[i] for i in order))
        assert canonical_form(base) == canonical_form(shuffled)
