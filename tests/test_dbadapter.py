"""Adapter tests run against a stub DB-API connection; live-server
checks live in the acceptance suite and only run when a backend URL is
configured."""

import pytest

from regmap.dbadapter import (
    MYSQL_ENV,
    PG_ENV,
    BackendConfig,
    backends_from_env,
    execute_script,
    execute_statement,
    fetch_rows,
    reset_schema,
)
from regmap.sqlgen import SqlDialect, emit_ddl, emit_rowwise_insert


class StubCursor:
    def __init__(self, conn):
        self.conn = conn
        self.description = None
        self.rowcount = -1

    def execute(self, statement):
        self.conn.statements.append(statement)
        if statement.lstrip().startswith("select"):
            self.description = (("col",),)
            rows = self.conn.select_result
            self._rows = rows(statement) if callable(rows) else rows
        else:
            self.description = None
            self.rowcount = 1

    def fetchall(self):
        return self._rows

    def close(self):
        pass


class StubConnection:
    """``select_result`` is every select's rows, or a function from the
    select statement to its rows."""

    def __init__(self, select_result=()):
        self.statements = []
        self.select_result = select_result if callable(select_result) else list(select_result)
        self.closed = False

    def cursor(self):
        return StubCursor(self)

    def close(self):
        self.closed = True


def pg_config(url="postgresql://localhost/bench"):
    return BackendConfig(SqlDialect.POSTGRES, url)


class TestBackendsFromEnv:
    def test_no_env_means_all_disabled(self):
        backends = backends_from_env(env={})
        assert [b.enabled for b in backends] == [False, False, False]
        assert {b.dialect for b in backends} == set(SqlDialect)

    def test_pg_only(self):
        backends = backends_from_env(env={PG_ENV: "postgresql://h/db"})
        by_dialect = {b.dialect: b for b in backends}
        assert by_dialect[SqlDialect.POSTGRES].enabled
        assert not by_dialect[SqlDialect.MYSQL_INNODB].enabled

    def test_mysql_url_enables_both_engines(self):
        backends = backends_from_env(env={MYSQL_ENV: "mysql://h/db"})
        by_dialect = {b.dialect: b for b in backends}
        assert by_dialect[SqlDialect.MYSQL_INNODB].enabled
        assert by_dialect[SqlDialect.MYSQL_MYISAM].enabled
        assert by_dialect[SqlDialect.MYSQL_INNODB].url == "mysql://h/db"
        assert not by_dialect[SqlDialect.POSTGRES].enabled

    def test_empty_value_counts_as_disabled(self):
        backends = backends_from_env(env={PG_ENV: ""})
        assert not any(b.enabled for b in backends)


class TestExecution:
    def test_disabled_backend_is_an_error_when_called_directly(self):
        disabled = BackendConfig(SqlDialect.POSTGRES, None)
        conn = StubConnection()
        message = "^backend postgres is disabled \\(no connection URL\\)$"
        with pytest.raises(ValueError, match=message):
            execute_script(disabled, emit_ddl(SqlDialect.POSTGRES), conn)
        with pytest.raises(ValueError, match=message):
            reset_schema(disabled, conn)
        with pytest.raises(ValueError, match=message):
            fetch_rows(disabled, emit_ddl(SqlDialect.POSTGRES), conn)
        assert conn.statements == []

    def test_statements_run_in_order(self):
        conn = StubConnection()
        script = emit_rowwise_insert(SqlDialect.POSTGRES)
        result = execute_script(pg_config(), script, conn=conn)
        assert result == len(script.statements())
        assert conn.statements == script.statements()
        assert not conn.closed  # caller-owned connection stays open

    def test_select_rows_are_stringified(self):
        conn = StubConnection(select_result=[(1, "chr1", None)])
        rows = execute_statement(conn, "select * from regions;")
        assert rows == [("1", "chr1", "")]

    def test_script_returns_last_result_rows(self):
        conn = StubConnection(select_result=[(5,)])
        from regmap.sqlgen import emit_search_queries

        script = emit_search_queries(SqlDialect.POSTGRES)[0]
        assert execute_script(pg_config(), script, conn=conn) == [("5",)]

    def test_reset_schema_drops_then_creates(self):
        conn = StubConnection()
        reset_schema(pg_config(), conn=conn)
        drops = [s for s in conn.statements if s.startswith("drop ")]
        creates = [s for s in conn.statements if s.startswith("create ")]
        assert len(drops) == 4
        assert len(creates) == 3
        assert conn.statements.index(creates[0]) > conn.statements.index(drops[-1])

    def test_fetch_rows_of_a_script_that_returns_none_is_an_error(self):
        conn = StubConnection()
        script = emit_ddl(SqlDialect.POSTGRES)
        with pytest.raises(RuntimeError, match="^script ddl returned no result rows$"):
            fetch_rows(pg_config(), script, conn)
        assert conn.statements == script.statements()
