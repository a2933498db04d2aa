"""The preconfigured Siemens deployment.

This module holds the demo's assets — the hand-curated mappings over
the ``plant`` schema and the measurement stream (the paper bootstraps
them with BOOTOX and then manually post-processes "so that they reach
the required quality") and the aggregate macro library — and
:func:`deploy`, which stands them up on the one deployment object,
:class:`~repro.optique.platform.OptiquePlatform`: fleet databases
attached, streams registered, macros installed, translator built.
Tasks run the one way every platform runs them:
``deploy(...).session().submit(starql)`` then ``session.step()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mappings import (
    ColumnSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
)
from ..rdf import Namespace, XSD
from ..starql import MacroRegistry, parse_aggregate_macro
from .generator import FleetConfig, SiemensFleet, generate_fleet
from .ontology import SIE, build_siemens_ontology

if TYPE_CHECKING:
    from ..optique.platform import OptiquePlatform

__all__ = [
    "DATA",
    "TURBINE_T",
    "ASSEMBLY_T",
    "SENSOR_T",
    "build_siemens_mappings",
    "MONOTONIC_MACRO",
    "standard_macros",
    "deploy",
]

DATA = Namespace("http://siemens.com/data/")

TURBINE_T = Template(DATA.base + "turbine/{tid}")
ASSEMBLY_T = Template(DATA.base + "assembly/{aid}")
SENSOR_T = Template(DATA.base + "sensor/{sid}")
PLANT_T = Template(DATA.base + "plant/{plant_id}")
COUNTRY_T = Template(DATA.base + "country/{country_id}")

_ASSEMBLY_CLASS_FOR_KIND = {
    "rotor": "Rotor",
    "stator": "Stator",
    "burner": "Burner",
    "bearing": "Bearing",
    "compressor_stage": "CompressorStage",
    "cooling_system": "CoolingSystem",
    "fuel_system": "FuelSystem",
    "exhaust_system": "ExhaustSystem",
}

_SENSOR_CLASS_FOR_QUANTITY = {
    "temperature": "TemperatureSensor",
    "pressure": "PressureSensor",
    "vibration": "VibrationSensor",
    "rotational_speed": "RotationalSpeedSensor",
    "flow": "FlowSensor",
    "power": "PowerSensor",
}


def build_siemens_mappings(stream_name: str = "S_Msmt") -> MappingCollection:
    """The curated mapping collection over the ``plant`` schema + stream."""
    mc = MappingCollection()
    source = "plant"

    mc.add(MappingAssertion.for_class(
        SIE.Turbine, TemplateSpec(TURBINE_T),
        "SELECT tid FROM turbines", source_name=source, identifier="turbines"))
    mc.add(MappingAssertion.for_class(
        SIE.GasTurbine, TemplateSpec(TURBINE_T),
        "SELECT tid FROM turbines WHERE kind = 'gas'",
        source_name=source, identifier="turbines.gas"))
    mc.add(MappingAssertion.for_class(
        SIE.SteamTurbine, TemplateSpec(TURBINE_T),
        "SELECT tid FROM turbines WHERE kind = 'steam'",
        source_name=source, identifier="turbines.steam"))

    mc.add(MappingAssertion.for_class(
        SIE.Assembly, TemplateSpec(ASSEMBLY_T),
        "SELECT aid FROM assemblies", source_name=source, identifier="assemblies"))
    for kind, cls in _ASSEMBLY_CLASS_FOR_KIND.items():
        mc.add(MappingAssertion.for_class(
            SIE[cls], TemplateSpec(ASSEMBLY_T),
            f"SELECT aid FROM assemblies WHERE kind = '{kind}'",
            source_name=source, identifier=f"assemblies.{kind}"))

    mc.add(MappingAssertion.for_class(
        SIE.Sensor, TemplateSpec(SENSOR_T),
        "SELECT sid FROM sensors", source_name=source, identifier="sensors"))
    for quantity, cls in _SENSOR_CLASS_FOR_QUANTITY.items():
        mc.add(MappingAssertion.for_class(
            SIE[cls], TemplateSpec(SENSOR_T),
            f"SELECT sid FROM sensors WHERE quantity = '{quantity}'",
            source_name=source, identifier=f"sensors.{quantity}"))

    mc.add(MappingAssertion.for_class(
        SIE.PowerPlant, TemplateSpec(PLANT_T),
        "SELECT plant_id FROM plants", source_name=source, identifier="plants"))
    mc.add(MappingAssertion.for_class(
        SIE.Country, TemplateSpec(COUNTRY_T),
        "SELECT country_id FROM countries",
        source_name=source, identifier="countries"))

    mc.add(MappingAssertion.for_property(
        SIE.inAssembly, TemplateSpec(SENSOR_T), TemplateSpec(ASSEMBLY_T),
        "SELECT sid, aid FROM sensors", source_name=source,
        identifier="sensors.aid"))
    mc.add(MappingAssertion.for_property(
        SIE.isMainSensorOf, TemplateSpec(SENSOR_T), TemplateSpec(ASSEMBLY_T),
        "SELECT sid, aid FROM sensors WHERE is_main = 1",
        source_name=source, identifier="sensors.main"))
    mc.add(MappingAssertion.for_property(
        SIE.hasPart, TemplateSpec(TURBINE_T), TemplateSpec(ASSEMBLY_T),
        "SELECT tid, aid FROM assemblies", source_name=source,
        identifier="assemblies.tid"))
    mc.add(MappingAssertion.for_property(
        SIE.deployedAt, TemplateSpec(TURBINE_T), TemplateSpec(PLANT_T),
        "SELECT tid, plant_id FROM turbines", source_name=source,
        identifier="turbines.plant"))
    mc.add(MappingAssertion.for_property(
        SIE.plantLocatedIn, TemplateSpec(PLANT_T), TemplateSpec(COUNTRY_T),
        "SELECT plant_id, country_id FROM plants", source_name=source,
        identifier="plants.country"))

    mc.add(MappingAssertion.for_property(
        SIE.hasModel, TemplateSpec(TURBINE_T), ColumnSpec("model"),
        "SELECT tid, model FROM turbines", source_name=source,
        identifier="turbines.model"))
    mc.add(MappingAssertion.for_property(
        SIE.hasCommissioningYear, TemplateSpec(TURBINE_T),
        ColumnSpec("commissioned", XSD.integer),
        "SELECT tid, commissioned FROM turbines", source_name=source,
        identifier="turbines.commissioned"))
    mc.add(MappingAssertion.for_property(
        SIE.hasThreshold, TemplateSpec(SENSOR_T),
        ColumnSpec("threshold", XSD.double),
        "SELECT sid, threshold FROM sensors", source_name=source,
        identifier="sensors.threshold"))
    mc.add(MappingAssertion.for_property(
        SIE.hasUnit, TemplateSpec(SENSOR_T), ColumnSpec("unit"),
        "SELECT sid, unit FROM sensors", source_name=source,
        identifier="sensors.unit"))
    mc.add(MappingAssertion.for_property(
        SIE.hasCapacity, TemplateSpec(PLANT_T),
        ColumnSpec("capacity_mw", XSD.double),
        "SELECT plant_id, capacity_mw FROM plants", source_name=source,
        identifier="plants.capacity"))

    # stream mappings: measurements and failure messages
    mc.add(MappingAssertion.for_property(
        SIE.hasValue, TemplateSpec(SENSOR_T), ColumnSpec("val", XSD.double),
        f"SELECT ts, sid, val FROM {stream_name}", source_name="msmt",
        is_stream=True, identifier=f"{stream_name}.val"))
    mc.add(MappingAssertion.for_property(
        SIE.showsFailure, TemplateSpec(SENSOR_T),
        ColumnSpec("failure", XSD.boolean),
        f"SELECT ts, sid, failure FROM {stream_name} WHERE failure = 1",
        source_name="msmt", is_stream=True,
        identifier=f"{stream_name}.failure"))
    return mc


MONOTONIC_MACRO = """
PREFIX sie: <http://siemens.com/ontology#>
CREATE AGGREGATE MONOTONIC:HAVING ($var, $attr) AS
HAVING EXISTS ?k IN SEQ: GRAPH ?k { $var sie:showsFailure } AND
FORALL ?i < ?j IN seq, ?x, ?y:
(IF ( ?i < ?k AND ?j < ?k AND GRAPH ?i {$var $attr ?x}
      AND GRAPH ?j {$var $attr ?y}) THEN ?x <= ?y)
"""

FAILURE_MACRO = """
PREFIX sie: <http://siemens.com/ontology#>
CREATE AGGREGATE FAILURE:SEEN ($var) AS
HAVING EXISTS ?k IN SEQ: GRAPH ?k { $var sie:showsFailure }
"""

STRICT_INCREASE_MACRO = """
PREFIX sie: <http://siemens.com/ontology#>
CREATE AGGREGATE STRICT:INCREASE ($var, $attr) AS
HAVING FORALL ?i < ?j IN seq, ?x, ?y:
(IF ( GRAPH ?i {$var $attr ?x} AND GRAPH ?j {$var $attr ?y}) THEN ?x < ?y)
"""


def standard_macros() -> MacroRegistry:
    """The macro library shipped with the deployment."""
    registry = MacroRegistry()
    for text in (MONOTONIC_MACRO, FAILURE_MACRO, STRICT_INCREASE_MACRO):
        registry.register(parse_aggregate_macro(text))
    return registry


def deploy(
    fleet: SiemensFleet | None = None,
    config: FleetConfig | None = None,
    stream_sensors: list[str] | None = None,
    stream_duration: int = 30,
    workers: int = 4,
    **engine_options,
) -> OptiquePlatform:
    """Stand up the Siemens platform (generate the fleet if needed).

    Returns an :class:`~repro.optique.platform.OptiquePlatform` with the
    three fleet databases attached (their primary keys read off the
    schemas), the measurement and event streams registered, the macro
    library installed, ``.fleet`` set and the translator already built.

    ``engine_options`` go to the one engine constructor,
    :class:`~repro.exastream.contracts.Engine`.  ``shards=N`` partitions
    the turbine streams by sensor across N nodes (``parallel="fork"``
    adds worker processes); the default ``shards=1`` is the single-node
    deployment.  ``incremental=False`` forces full window recompute
    (pane-incremental execution is on by default and falls back
    automatically per plan).  ``mqo=False`` disables shared-subplan
    execution across registered tasks (the multi-query optimizer is on
    by default; results are byte-identical either way).
    ``adaptive=True`` turns on cost-based tier selection with
    mid-flight re-planning guards (also byte-identical: the estimator
    only picks among the exact tiers).
    """
    # optique.platform imports this package (for the dashboard)
    from ..optique.platform import OptiquePlatform

    # first, so a refused engine option costs no fleet generation
    platform = OptiquePlatform(
        build_siemens_ontology(),
        build_siemens_mappings(),
        workers,
        **engine_options,
    )
    if fleet is None:
        fleet = generate_fleet(config or FleetConfig(turbines=10, plants=4))
    platform.fleet = fleet
    platform.attach_database("plant", fleet.plant_db)
    platform.attach_database("legacy", fleet.legacy_db)
    platform.attach_database("history", fleet.history_db)
    sensors = stream_sensors
    if sensors is None:
        sensors = (fleet.ramp_sensors[:3] + fleet.sensor_ids[:20])[:23]
        for a, b in fleet.correlated[:2]:
            sensors.extend([a, b])
        sensors = list(dict.fromkeys(sensors))
    platform.register_stream(
        fleet.measurement_source(sensors, duration_seconds=stream_duration)
    )
    platform.register_stream(
        fleet.event_source(duration_seconds=stream_duration)
    )
    platform.macros = standard_macros()
    _ = platform.translator  # built here, so registration never pays for it
    return platform
