"""Wiring a full OPTIQUE deployment over the Siemens scenario.

This module plays the role of the demo's preconfigured deployment: the
hand-curated ontology + mappings (the paper bootstraps them with BOOTOX
and then manually post-processes "so that they reach the required
quality"), the EXASTREAM engine with streams and static databases
attached, and the STARQL translator bound to all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exastream import (
    Engine,
    GatewayServer,
    Scheduler,
    Stopwatch,
    StreamEngine,
)
from ..mappings import (
    ColumnSpec,
    MappingAssertion,
    MappingCollection,
    Template,
    TemplateSpec,
)
from ..ontology import Ontology
from ..rdf import Namespace, XSD
from ..starql import MacroRegistry, STARQLTranslator, parse_aggregate_macro
from .generator import FleetConfig, SiemensFleet, generate_fleet
from .ontology import SIE, build_siemens_ontology

__all__ = [
    "DATA",
    "TURBINE_T",
    "ASSEMBLY_T",
    "SENSOR_T",
    "PRIMARY_KEYS",
    "build_siemens_mappings",
    "MONOTONIC_MACRO",
    "standard_macros",
    "SiemensDeployment",
    "deploy",
]

DATA = Namespace("http://siemens.com/data/")

TURBINE_T = Template(DATA.base + "turbine/{tid}")
ASSEMBLY_T = Template(DATA.base + "assembly/{aid}")
SENSOR_T = Template(DATA.base + "sensor/{sid}")
PLANT_T = Template(DATA.base + "plant/{plant_id}")
COUNTRY_T = Template(DATA.base + "country/{country_id}")

PRIMARY_KEYS = {
    "countries": ("country_id",),
    "plants": ("plant_id",),
    "turbines": ("tid",),
    "assemblies": ("aid",),
    "sensors": ("sid",),
    "weather": ("plant_id", "day"),
    "EQUIP": ("EQ_NO",),
    "MEASPOINT": ("MP_NO",),
    "service_events": ("event_id",),
    "operating_hours": ("tid", "year"),
}

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


@dataclass
class SiemensDeployment:
    """Everything needed to register and run diagnostic tasks."""

    fleet: SiemensFleet
    ontology: Ontology
    mappings: MappingCollection
    engine: Engine
    gateway: GatewayServer
    translator: STARQLTranslator
    macros: MacroRegistry
    _compat_session: object = field(default=None, repr=False)

    def register_task(self, starql_text: str, name: str | None = None):
        """Translate STARQL text and register it as a continuous query.

        Compatibility wrapper over the session API (one shared compat
        session with unbounded sinks): translations are cached by
        normalized text and the cached plan is cloned per registration.
        """
        if self._compat_session is None:
            self._compat_session = self.session(sink_capacity=None)
        handle = self._compat_session.submit(starql_text, name=name)
        return handle.registered, handle.prepared.translation

    def session(self, **kwargs):
        """A client session over this deployment's translator + gateway."""
        from ..optique.session import Session

        return Session(self.translator, self.gateway, **kwargs)

    def async_session(self, **kwargs):
        """An asyncio session (``serve()`` + ``async for`` handles)."""
        from ..optique.session import AsyncSession

        return AsyncSession(self.translator, self.gateway, **kwargs)

    def step(self, n_windows: int = 1) -> int:
        """Advance the cooperative executor; see ``GatewayServer.step``."""
        return self.gateway.step(n_windows)

    async def serve(self, **kwargs) -> int:
        """Drive the asyncio pulse loop; see ``GatewayServer.serve``."""
        return await self.gateway.serve(**kwargs)

    def run(self, max_windows: int | None = None) -> float:
        """Drive all registered tasks; returns wall seconds."""
        watch = Stopwatch()
        while self.gateway.step(window_limit=max_windows):
            pass
        elapsed = watch.elapsed()
        self.engine.metrics.wall_seconds += elapsed
        return elapsed

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self):
        """The deployment's merged registry snapshot (shards included)."""
        return self.gateway.metrics_snapshot()

    def monitor(self):
        """The live monitoring surface over this deployment (S2).

        ``monitor().render()`` is the per-task throughput / latency /
        MQO-hit progress table, re-rendered per call from the registry.
        """
        from ..obs import Monitor

        return Monitor(self)


def deploy(
    fleet: SiemensFleet | None = None,
    config: FleetConfig | None = None,
    stream_sensors: list[str] | None = None,
    stream_duration: int = 30,
    workers: int = 4,
    **engine_options,
) -> SiemensDeployment:
    """Stand up a complete deployment (generate the fleet if needed).

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
    if fleet is None:
        fleet = generate_fleet(config or FleetConfig(turbines=10, plants=4))
    ontology = build_siemens_ontology()
    mappings = build_siemens_mappings()

    scheduler = Scheduler(workers)
    engine = StreamEngine(scheduler=scheduler, **engine_options)
    engine.attach_database("plant", fleet.plant_db)
    engine.attach_database("legacy", fleet.legacy_db)
    engine.attach_database("history", fleet.history_db)
    sensors = stream_sensors
    if sensors is None:
        sensors = (fleet.ramp_sensors[:3] + fleet.sensor_ids[:20])[:23]
        for a, b in fleet.correlated[:2]:
            sensors.extend([a, b])
        sensors = list(dict.fromkeys(sensors))
    engine.register_stream(
        fleet.measurement_source(sensors, duration_seconds=stream_duration)
    )
    engine.register_stream(fleet.event_source(duration_seconds=stream_duration))

    macros = standard_macros()
    translator = STARQLTranslator(
        ontology, mappings, engine, macros, primary_keys=PRIMARY_KEYS
    )
    gateway = GatewayServer(engine, scheduler=scheduler)
    return SiemensDeployment(
        fleet=fleet,
        ontology=ontology,
        mappings=mappings,
        engine=engine,
        gateway=gateway,
        translator=translator,
        macros=macros,
    )
