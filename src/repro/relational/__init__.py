"""Relational substrate: schema model and SQLite-backed static storage."""

from .database import QUERY_ERRORS, Database, Row
from .schema import Column, ForeignKey, Schema, SQLType, Table

__all__ = [
    "Database",
    "Row",
    "QUERY_ERRORS",
    "Column",
    "ForeignKey",
    "Schema",
    "SQLType",
    "Table",
]
