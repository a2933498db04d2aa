"""Mappings: GAV/R2RML-style assertions and UCQ-to-SQL(+) unfolding."""

from .model import (
    ColumnSpec,
    ConstantSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
    TermSpec,
)
from .saturation import existential_subontology, saturate_mappings
from .serialization import (
    dump_mappings,
    load_mappings,
    mappings_from_dict,
    mappings_to_dict,
)
from .unfolding import (
    ConstantConstructor,
    IRIConstructor,
    LiteralConstructor,
    TermConstructor,
    UnfoldedDisjunct,
    Unfolder,
    UnfoldingResult,
    fleet_union,
)

__all__ = [
    "ColumnSpec",
    "ConstantSpec",
    "MappingAssertion",
    "MappingCollection",
    "Template",
    "TemplateSpec",
    "TermSpec",
    "existential_subontology",
    "saturate_mappings",
    "dump_mappings",
    "load_mappings",
    "mappings_from_dict",
    "mappings_to_dict",
    "ConstantConstructor",
    "IRIConstructor",
    "LiteralConstructor",
    "TermConstructor",
    "UnfoldedDisjunct",
    "Unfolder",
    "UnfoldingResult",
    "fleet_union",
]
