"""Multi-query optimization: shared-subplan execution across registered
queries.

The two halves:

* :mod:`~repro.exastream.mqo.signature` — the plan normalizer: canonical
  signatures for structurally equal pipeline prefixes;
* :mod:`~repro.exastream.mqo.runtime` — the shared pipeline runtime:
  per-(signature, pane) results computed once, reference-counted across
  subscriber queries, consulted by every
  :class:`~repro.exastream.engine.PlanRuntime`.

The gateway owns one :class:`SharedPipelineRegistry` and folds every
``register``/``deregister`` into it; ``mqo=False`` on the engines (and on
``OptiquePlatform``/``siemens.deploy``) disables the subsystem entirely.
"""

from .runtime import (
    MQOBinding,
    MQOStats,
    PaneSideEntry,
    SharedPipeline,
    SharedPipelineRegistry,
)
from .signature import (
    PlanSignature,
    SideSignature,
    canonical_expr,
    plan_signature,
)

__all__ = [
    "MQOBinding",
    "MQOStats",
    "SharedPipeline",
    "SharedPipelineRegistry",
    "PaneSideEntry",
    "PlanSignature",
    "SideSignature",
    "canonical_expr",
    "plan_signature",
]
