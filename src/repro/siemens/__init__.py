"""The Siemens Energy demo scenario: data, ontology, catalog, dashboards."""

from .catalog import DiagnosticTask, diagnostic_catalog
from .dashboard import Dashboard, TaskPanel
from .deployment import (
    DATA,
    build_siemens_mappings,
    deploy,
    standard_macros,
)
from .generator import FleetConfig, SiemensFleet, generate_fleet
from .ontology import DIAG, SIE, build_siemens_ontology
from .schemas import (
    event_stream_schema,
    history_schema,
    legacy_schema,
    measurement_stream_schema,
    plant_schema,
)

__all__ = [
    "DiagnosticTask",
    "diagnostic_catalog",
    "Dashboard",
    "TaskPanel",
    "DATA",
    "build_siemens_mappings",
    "deploy",
    "standard_macros",
    "FleetConfig",
    "SiemensFleet",
    "generate_fleet",
    "DIAG",
    "SIE",
    "build_siemens_ontology",
    "event_stream_schema",
    "history_schema",
    "legacy_schema",
    "measurement_stream_schema",
    "plant_schema",
]
