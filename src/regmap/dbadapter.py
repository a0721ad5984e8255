"""Optional execution of emitted SQL against live PostgreSQL/MySQL.

Backends are configured purely from the environment: ``REGMAP_PG_URL``
and ``REGMAP_MYSQL_URL`` hold standard connection URLs, and an absent
variable means the backend is disabled. Disabled backends are skipped
by callers, never treated as errors, so the whole test and benchmark
surface works with no server configured.

Database drivers are imported lazily at connection time; nothing in
this module requires them at import. PostgreSQL tries psycopg then
psycopg2, MySQL tries pymysql then MySQLdb.

Connections run with autocommit enabled so the transaction statements
inside emitted scripts (and their deliberate absence, for rowwise
inserts) control transaction boundaries. The functions that run SQL
take a connection from their caller, who opened it with ``connect`` and
closes it (``bench._db_cells``); none opens one itself.
"""

from __future__ import annotations

import os
import urllib.parse
from dataclasses import dataclass

from .sqlgen import SqlDialect, SqlScript, emit_ddl

__all__ = [
    "BackendConfig",
    "backends_from_env",
    "execute_script",
    "execute_statement",
    "fetch_rows",
    "reset_schema",
    "connect",
]

PG_ENV = "REGMAP_PG_URL"
MYSQL_ENV = "REGMAP_MYSQL_URL"


@dataclass(frozen=True, slots=True)
class BackendConfig:
    """One configured backend; disabled when no locator is present."""

    dialect: SqlDialect
    url: str | None

    @property
    def enabled(self) -> bool:
        return bool(self.url)

    @property
    def name(self) -> str:
        return self.dialect.value


def backends_from_env(env=None) -> list[BackendConfig]:
    """Backend configs for all three dialects from the environment.

    The two MySQL storage-engine dialects share REGMAP_MYSQL_URL; the
    engine only changes the emitted DDL.
    """
    env = os.environ if env is None else env
    pg = env.get(PG_ENV) or None
    my = env.get(MYSQL_ENV) or None
    return [
        BackendConfig(SqlDialect.POSTGRES, pg),
        BackendConfig(SqlDialect.MYSQL_INNODB, my),
        BackendConfig(SqlDialect.MYSQL_MYISAM, my),
    ]


def _require_enabled(config: BackendConfig) -> None:
    if not config.enabled:
        raise ValueError(f"backend {config.name} is disabled (no connection URL)")


def connect(config: BackendConfig):
    """Open an autocommit DB-API connection for the backend."""
    _require_enabled(config)
    if config.dialect is SqlDialect.POSTGRES:
        return _connect_postgres(config.url)
    return _connect_mysql(config.url)


def _connect_postgres(url: str):
    try:
        import psycopg

        conn = psycopg.connect(url)
    except ImportError:
        try:
            import psycopg2
        except ImportError as exc:
            raise RuntimeError(
                "no PostgreSQL driver available (install psycopg or psycopg2)"
            ) from exc
        conn = psycopg2.connect(url)
    conn.autocommit = True
    return conn


def _connect_mysql(url: str):
    parts = urllib.parse.urlsplit(url)
    kwargs = {
        "host": parts.hostname or "localhost",
        "user": urllib.parse.unquote(parts.username or ""),
        "password": urllib.parse.unquote(parts.password or ""),
        "database": parts.path.lstrip("/"),
        "autocommit": True,
    }
    if parts.port:
        kwargs["port"] = parts.port
    try:
        import pymysql as driver
    except ImportError:
        try:
            import MySQLdb as driver
        except ImportError as exc:
            raise RuntimeError(
                "no MySQL driver available (install pymysql or mysqlclient)"
            ) from exc
    return driver.connect(**kwargs)


def _stringify(row) -> tuple[str, ...]:
    return tuple("" if v is None else str(v) for v in row)


def execute_statement(conn, statement: str):
    """Run one statement; rows for queries, affected count otherwise."""
    cur = conn.cursor()
    try:
        cur.execute(statement)
        if cur.description is not None:
            return [_stringify(row) for row in cur.fetchall()]
        return cur.rowcount if cur.rowcount is not None else 0
    finally:
        cur.close()


def execute_script(config: BackendConfig, script: SqlScript, conn):
    """Run every statement of a script in order on the caller's ``conn``.

    Returns the result rows of the last row-returning statement, or the
    total affected-row count when nothing returned rows. Server errors
    propagate with the driver's message intact; a disabled backend
    raises ValueError.
    """
    _require_enabled(config)
    rows, affected = None, 0
    for statement in script.statements():
        result = execute_statement(conn, statement)
        if isinstance(result, list):
            rows = result
        elif result > 0:
            affected += result
    return rows if rows is not None else affected


_DROP_STATEMENTS = (
    "drop view if exists vwregions;",
    "drop table if exists staging_regions;",
    "drop table if exists regions;",
    "drop table if exists regiondesc;",
)


def reset_schema(config: BackendConfig, conn) -> None:
    """Drop and recreate the benchmark schema on ``conn`` so runs are independent."""
    _require_enabled(config)
    for stmt in (*_DROP_STATEMENTS, *emit_ddl(config.dialect).statements()):
        execute_statement(conn, stmt)


def fetch_rows(config: BackendConfig, query_script: SqlScript, conn) -> list[tuple[str, ...]]:
    """execute_script specialized to scripts whose last statement selects."""
    result = execute_script(config, query_script, conn)
    if not isinstance(result, list):
        raise RuntimeError(f"script {query_script.kind.value} returned no result rows")
    return result
