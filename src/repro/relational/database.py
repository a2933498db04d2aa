"""SQLite-backed static relational storage.

EXASTREAM "is built as a streaming extension of the SQLite DBMS"; we keep
the same substrate: static tables (equipment structure, service history,
weather) live in a :mod:`sqlite3` database, while streams flow through the
Python operator pipelines of :mod:`repro.streams`.  Each
:class:`Database` wraps one in-memory (or on-disk) SQLite connection plus
its :class:`~repro.relational.schema.Schema`.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterable, Sequence
from typing import Any

from .schema import Schema, Table

__all__ = ["Database", "Row", "QUERY_ERRORS"]

Row = tuple[Any, ...]

#: what :meth:`Database.query` / :meth:`Database.query_with_names` raise
#: on SQL the database refuses (callers above the storage layer catch
#: these instead of importing the backend)
QUERY_ERRORS = (sqlite3.Error, sqlite3.Warning)


class Database:
    """A static relational data source.

    >>> from repro.relational.schema import Column, SQLType, Table, Schema
    >>> schema = Schema("plant")
    >>> _ = schema.add(Table("turbine", [Column("id", SQLType.INTEGER)],
    ...                      primary_key=("id",)))
    >>> db = Database(schema)
    >>> db.insert("turbine", [(1,), (2,)])
    2
    >>> db.query("SELECT COUNT(*) FROM turbine")[0][0]
    2
    """

    def __init__(self, schema: Schema, path: str = ":memory:") -> None:
        self.schema = schema
        #: bumped by every :meth:`insert`: consumers that keep query
        #: results around compare it to tell stale from current
        self.version = 0
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA foreign_keys = OFF")
        for table in schema:
            self._conn.execute(table.ddl())
        self._conn.commit()

    # -- data loading -----------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert ``rows`` into ``table_name``; returns the row count."""
        table = self.schema[table_name]
        placeholders = ", ".join("?" for _ in table.columns)
        statement = f"INSERT INTO {table_name} VALUES ({placeholders})"
        cursor = self._conn.executemany(statement, rows)
        self._conn.commit()
        self.version += 1
        return cursor.rowcount

    def insert_dicts(
        self, table_name: str, rows: Iterable[dict[str, Any]]
    ) -> int:
        """Insert rows given as dicts; missing columns become NULL."""
        table = self.schema[table_name]
        names = table.column_names()
        tuples = [tuple(row.get(name) for name in names) for row in rows]
        return self.insert(table_name, tuples)

    # -- querying -----------------------------------------------------------

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[Row]:
        """Run a SQL query and return all rows."""
        cursor = self._conn.execute(sql, params)
        return cursor.fetchall()

    def query_with_names(
        self, sql: str, params: Sequence[Any] = ()
    ) -> tuple[list[str], list[Row]]:
        """Run a query returning (column names, rows)."""
        cursor = self._conn.execute(sql, params)
        names = [d[0] for d in cursor.description or ()]
        return names, cursor.fetchall()

    def table_rows(self, table_name: str) -> list[Row]:
        """All rows of a table (test/bootstrapping helper)."""
        return self.query(f"SELECT * FROM {self.schema[table_name].name}")

    def row_count(self, table_name: str) -> int:
        """COUNT(*) of a table."""
        return self.query(f"SELECT COUNT(*) FROM {table_name}")[0][0]

    def distinct_values(self, table_name: str, column: str) -> list[Any]:
        """Distinct non-NULL values of one column (used by FK discovery)."""
        rows = self.query(
            f"SELECT DISTINCT {column} FROM {table_name} "
            f"WHERE {column} IS NOT NULL"
        )
        return [row[0] for row in rows]

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
