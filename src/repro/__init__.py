"""repro: a full reproduction of the OPTIQUE ontology-based stream-static
data integration system (Kharlamov et al., SIGMOD 2016).

Subpackages
-----------
``repro.rdf``        RDF terms, namespaces, indexed triple store
``repro.ontology``   OWL 2 QL model, parser, reasoner, profile checker
``repro.queries``    conjunctive queries, BGPs, evaluation, containment
``repro.rewriting``  PerfectRef enrichment
``repro.relational`` relational schemas + SQLite-backed static storage
``repro.sql``        SQL(+) AST, printer, parser
``repro.mappings``   R2RML-style mappings + UCQ-to-SQL unfolding
``repro.streams``    CQL windows, wCache, sequences, adaptive index, LSH
``repro.exastream``  the distributed stream engine + cluster simulator
``repro.starql``     the STARQL language: parser, semantics, translator
``repro.bootox``     ontology & mapping bootstrapping
``repro.siemens``    the Siemens turbine demo scenario
``repro.optique``    the end-to-end platform facade
"""

from .optique import OptiquePlatform

__version__ = "1.0.0"

__all__ = ["OptiquePlatform", "__version__"]
