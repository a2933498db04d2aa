"""Malformed input text fails inside the ``repro.errors`` family.

The nine input-text error classes are each a ``ReproError`` and keep
the builtin base existing ``except`` clauses guard.
"""

import pytest

from cqgen import build_engine
from repro.errors import ReproError
from repro.exastream import GatewayServer, PlanningError
from repro.ontology import (
    InconsistentOntologyError,
    OntologySyntaxError,
    parse_ontology,
)
from repro.queries import BGPSyntaxError
from repro.siemens import FleetConfig, deploy, generate_fleet
from repro.sql import SQLSyntaxError
from repro.starql import MacroError, STARQLSyntaxError, TranslationError
from repro.streams import SequencingError

VALUE_ERRORS = (
    SQLSyntaxError,
    STARQLSyntaxError,
    OntologySyntaxError,
    BGPSyntaxError,
    MacroError,
    TranslationError,
    PlanningError,
    SequencingError,
)


@pytest.mark.parametrize(
    "error", VALUE_ERRORS + (InconsistentOntologyError,),
    ids=lambda cls: cls.__name__,
)
def test_input_text_errors_are_repro_errors(error):
    assert issubclass(error, ReproError)
    assert issubclass(error, ValueError) == (error in VALUE_ERRORS)
    assert str(error("what went wrong")) == "what went wrong"


def test_malformed_starql_through_a_session():
    fleet = generate_fleet(FleetConfig(turbines=2, plants=1, correlated_pairs=1))
    session = deploy(fleet=fleet, stream_duration=5).session()
    for text in ("CREATE STREAM broken AS", "CONSTRUCT GRAPH NOW { ?s a"):
        with pytest.raises(ReproError) as caught:
            session.submit(text)
        assert isinstance(caught.value, ValueError)
    assert session.gateway.shared_reader_count == 0


@pytest.mark.parametrize(
    "text, error",
    [
        ("SELECT FROM WHERE", SQLSyntaxError),
        ("SELECT s.sid AS sid FROM timeSlidingWindow(S, 10) AS s", ReproError),
        ("SELECT t.sid AS sid FROM sensors AS t", PlanningError),
    ],
)
def test_malformed_sql_through_the_gateway(text, error):
    gateway = GatewayServer(build_engine())
    with pytest.raises(error) as caught:
        gateway.register(text, name="q")
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)
    assert gateway.shared_reader_count == 0


def test_malformed_ontology_text():
    with pytest.raises(ReproError) as caught:
        parse_ontology("Ontology(<http://t/onto> SubClassOf(")
    assert isinstance(caught.value, OntologySyntaxError)
    assert isinstance(caught.value, ValueError)
