"""E5 (§2): STARQL/PerfectRef enrichment is polynomial in the TBox.

"STARQL query enrichment is polynomial-time in the size of the input
ontology if the ontology is OWL 2 QL."  We sweep class-hierarchy width
and depth and check the rewriting time and output size grow
polynomially (here: linearly in the number of subclasses for an atomic
query), not exponentially.

A paper reproduction, not a gate: it regenerates a claim of the paper,
is not part of the tier-1 suite, and CI only collects it (``make
bench-collect``); the repo's benchmark is the ledger
(``benchmarks/ledger/``, ``make ledger``).
"""

import time

import pytest

from repro.ontology import AtomicClass, Ontology, SubClassOf
from repro.queries import ClassAtom, ConjunctiveQuery
from repro.rdf import IRI, Variable
from repro.rewriting import PerfectRef

x = Variable("x")


def _wide_hierarchy(width: int) -> Ontology:
    onto = Ontology()
    top = AtomicClass(IRI("urn:e5#Top"))
    for i in range(width):
        onto.add(SubClassOf(AtomicClass(IRI(f"urn:e5#C{i}")), top))
    return onto


def _deep_hierarchy(depth: int) -> Ontology:
    onto = Ontology()
    for i in range(depth):
        onto.add(
            SubClassOf(
                AtomicClass(IRI(f"urn:e5#D{i + 1}")),
                AtomicClass(IRI(f"urn:e5#D{i}")),
            )
        )
    return onto


@pytest.mark.parametrize("width", [8, 32, 128])
def test_rewrite_wide_hierarchy(benchmark, width):
    onto = _wide_hierarchy(width)
    query = ConjunctiveQuery((x,), (ClassAtom(IRI("urn:e5#Top"), x),))
    engine = PerfectRef(onto)
    ucq = benchmark(engine.rewrite, query)
    # output size is exactly width + 1: linear, not exponential
    assert len(ucq) == width + 1


@pytest.mark.parametrize("depth", [8, 32, 128])
def test_rewrite_deep_hierarchy(benchmark, depth):
    onto = _deep_hierarchy(depth)
    query = ConjunctiveQuery((x,), (ClassAtom(IRI("urn:e5#D0"), x),))
    ucq = benchmark(PerfectRef(onto).rewrite, query)
    assert len(ucq) == depth + 1


def test_polynomial_growth_curve():
    """Quadrupling the TBox must not square the runtime (no blow-up)."""
    timings = {}
    for width in (32, 128):
        onto = _wide_hierarchy(width)
        query = ConjunctiveQuery((x,), (ClassAtom(IRI("urn:e5#Top"), x),))
        engine = PerfectRef(onto)
        start = time.perf_counter()
        engine.rewrite(query)
        timings[width] = time.perf_counter() - start
    ratio = timings[128] / max(timings[32], 1e-9)
    # 4x TBox -> comfortably sub-quadratic-in-practice growth allowance
    assert ratio < 40, timings
