"""The public exception hierarchy of the repro platform.

Every error the platform raises on purpose derives from
:class:`ReproError`, so callers embedding the engine can guard one
family instead of a grab-bag of builtins::

    try:
        session.handle("fig1").poll()
    except repro.errors.ReproError:
        ...

Concrete classes keep their historical builtin bases (``KeyError``,
``ValueError``) so existing ``except`` clauses continue to work:

* :class:`QueryNotFound` — a query name is not registered (gateway
  ``deregister``/``query``, session ``handle``); also a ``KeyError``;
* :class:`BindError` — an input of a plan could not be bound (a static
  input's database is not attached or its SQL failed, or the plan names
  a column an input does not have); carries the query name, the input's
  alias and its text; also a ``KeyError``;
* :class:`InvalidOption` — an engine option was given a value the
  engine does not have (``shards=0``, ``parallel="frok"``); raised by
  the one engine constructor, so by ``OptiquePlatform(...)`` and
  ``deploy(...)`` too, and by a registration whose ``shards=`` the
  engine's pool cannot serve; also a ``ValueError``;
* :class:`SinkOverflow` — a result had to be refused by a bounded
  delivery channel that cannot block (an event-bus subscription whose
  ``block``-policy queue is force-offered); also a ``RuntimeError``;
* :class:`~repro.analysis.InvariantViolation` — the audit-mode
  verifier found engine invariants broken; defined in
  ``repro.analysis`` and re-exported here;
* :class:`CheckpointCorrupt` — a checkpoint-log segment failed its
  checksum / framing validation (the durability layer normally handles
  this by truncating the torn tail and falling back to the previous
  epoch; it surfaces only from strict scans);
* :class:`RecoveryError` — a recovery or state-migration attempt could
  not faithfully rebuild engine state (unknown stream, occupied reader
  slot, refcount mismatch, non-serializable fork workers).

Errors about *input text* are defined next to the parser or compiler
that raises them and derive from :class:`ReproError` there; all but
the last are also a ``ValueError``:

* ``repro.sql.SQLSyntaxError``, ``repro.starql.STARQLSyntaxError``,
  ``repro.ontology.OntologySyntaxError``,
  ``repro.queries.BGPSyntaxError`` — text that does not parse;
* ``repro.starql.MacroError``, ``repro.starql.TranslationError``,
  ``repro.exastream.PlanningError`` — text that parses but cannot be
  expanded, translated or planned;
* ``repro.ontology.InconsistentOntologyError`` — the ABox violates a
  (derived) negative inclusion.

This module is a dependency leaf: it imports nothing from the rest of
the package, so any layer may raise from it.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QueryNotFound",
    "BindError",
    "InvalidOption",
    "SinkOverflow",
    "InvariantViolation",
    "CheckpointCorrupt",
    "RecoveryError",
]


class ReproError(Exception):
    """Base class of every intentional platform error."""


class QueryNotFound(ReproError, KeyError):
    """A query name is not (or no longer) registered.

    Subclasses ``KeyError`` for compatibility with callers that guarded
    the old bare-``KeyError`` behaviour of ``GatewayServer.deregister``
    and ``Session.handle``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"query {name!r} is not registered")

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg
        return self.args[0]


class BindError(ReproError, KeyError):
    """An input of a plan could not be bound at registration.

    Raised by ``Engine.bind`` (so by ``GatewayServer.register`` and
    ``Session.submit``) when a static input's database is not attached
    or its SQL fails (the database's own exception is the
    ``__cause__``), or when the plan names a column or function an
    input — static relation or windowed stream — does not have.
    ``sql`` is the static input's SQL, or the windowed input's
    ``stream[range/slide]``.  A failed bind leaves nothing behind: no
    shared reader, no static relation, no reference count.  Subclasses
    ``KeyError`` because an unattached database, and an unknown stream
    column, used to surface as a bare one.
    """

    def __init__(self, query: str, alias: str, sql: str, reason: str) -> None:
        self.query = query
        self.alias = alias
        self.sql = sql
        super().__init__(
            f"query {query!r}: cannot bind input {alias!r} "
            f"({reason}); input: {sql}"
        )

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg
        return self.args[0]


class InvalidOption(ReproError, ValueError):
    """An engine option was given a value the engine does not have.

    Raised by the engine constructor before anything is built, so a
    misspelt value can never select a default silently — and by
    ``Engine.resolve_shards`` for a per-registration ``shards=`` below
    1 or wider than the engine's pool.
    """


class SinkOverflow(ReproError, RuntimeError):
    """A bounded delivery channel refused a result it could not buffer.

    Raised when a ``block``-policy subscription is offered a result
    while full from a context that cannot await (the producer's
    contract is to check ``would_block()`` first and defer the window
    instead); never raised by ``drop_oldest`` channels, which evict.
    """


class CheckpointCorrupt(ReproError):
    """A checkpoint-log record failed checksum or framing validation.

    The tolerant scan path (used by ``recover()``) catches this
    internally, logs it, truncates the torn tail and falls back to the
    newest epoch that is valid across every log file; it only escapes
    to callers asking for a strict scan.
    """


class RecoveryError(ReproError):
    """Recovery or live state migration could not rebuild engine state.

    Raised when a checkpoint names a stream/static source the fresh
    engine does not provide, when a migration target already holds the
    reader slot being handed off, when post-restore demand refcounts
    disagree with the checkpointed ones, or when asked to snapshot
    state that lives in forked worker processes.
    """


def __getattr__(name: str):
    # InvariantViolation lives in repro.analysis (it carries verifier
    # state); re-export lazily to keep this module import-cycle free.
    if name == "InvariantViolation":
        from . import analysis

        return analysis.InvariantViolation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
