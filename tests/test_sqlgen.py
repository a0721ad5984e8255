import math
import re
import sqlite3
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmap.bench import GenConfig, generate_regions
from regmap.intervals import GenomicRegion, RawRegion, centre_distance_sql_compat
from regmap.joins import JoinFilter, nested_loop_join, sweep_join
from regmap.sqlgen import (
    DEMO_REGIONS,
    ScriptKind,
    SqlDialect,
    SqlScript,
    emit_all,
    emit_batch_insert,
    emit_bulk_import,
    emit_ddl,
    emit_geo_query,
    emit_random_gen,
    emit_regmap_query,
    emit_rowwise_insert,
    emit_search_queries,
)
from regmap.store import RegionStore

GOLDEN_DIR = Path(__file__).parent / "goldens"

ALL_DIALECTS = list(SqlDialect)


class TestDdl:
    def test_postgres_structure(self):
        text = emit_ddl(SqlDialect.POSTGRES).text
        assert "create table regions" in text
        assert "start_pos bigint not null" in text
        assert "end_pos bigint not null" in text
        assert "create table regiondesc" in text
        assert "create table staging_regions" in text
        assert "engine=" not in text

    def test_staging_has_no_id(self):
        text = emit_ddl(SqlDialect.POSTGRES).text
        staging = text.split("create table staging_regions")[1]
        assert re.search(r"^\s*id ", staging, re.MULTILINE) is None
        assert "primary key" not in staging

    def test_mysql_engines_differ_only_in_engine_clause(self):
        innodb = emit_ddl(SqlDialect.MYSQL_INNODB).text
        myisam = emit_ddl(SqlDialect.MYSQL_MYISAM).text
        assert innodb != myisam
        assert innodb.replace("engine=innodb", "engine=myisam") == myisam


class TestRegmapQuery:
    def test_case_has_four_branches_in_order(self):
        text = emit_regmap_query(SqlDialect.POSTGRES).text
        whens = re.findall(r"when (.+?) then (.+)", text)
        assert len(whens) == 4
        assert whens[0] == (
            "a.end_pos <= b.end_pos and a.start_pos >= b.start_pos",
            "a.end_pos - a.start_pos",
        )
        assert whens[1][1] == "b.end_pos - b.start_pos"
        assert whens[2][1] == "a.end_pos - b.start_pos"
        assert whens[3][1] == "b.end_pos - a.start_pos"

    def test_filter_clause_mirrors_view_columns(self):
        script = emit_regmap_query(
            SqlDialect.POSTGRES, JoinFilter(min_bp=1, max_centre_distance=1000)
        )
        assert "where bpooverlap >= 1" in script.text
        # the bound applies to twice the exact distance, not the
        # integer-division column the view reports
        assert "twicecentredistance < 2000" in script.text
        assert " centredistance <" not in script.text

    def test_default_has_no_distance_bound(self):
        text = emit_regmap_query(SqlDialect.POSTGRES).text
        assert "centredistance <" not in text

    def test_infinite_bound_emits_no_clause(self):
        for dialect in ALL_DIALECTS:
            unbounded = emit_regmap_query(dialect, JoinFilter(min_bp=-5, max_centre_distance=math.inf))
            assert unbounded.text == emit_regmap_query(dialect, JoinFilter(min_bp=-5)).text

    def test_mysql_uses_integer_division(self):
        assert " div 2 " in emit_regmap_query(SqlDialect.MYSQL_INNODB).text
        assert " / 2 " in emit_regmap_query(SqlDialect.POSTGRES).text

    def test_ordered_output(self):
        for dialect in ALL_DIALECTS:
            assert "order by a_id, b_id" in emit_regmap_query(dialect).text


class TestGeoQuery:
    def test_postgres_uses_lseg_intersection(self):
        text = emit_geo_query(SqlDialect.POSTGRES).text
        assert "?#" in text
        assert "lseg(point(a.start_pos, 0), point(a.end_pos, 0))" in text

    def test_mysql_uses_st_intersects(self):
        text = emit_geo_query(SqlDialect.MYSQL_INNODB).text
        assert "st_intersects" in text
        assert "linestring" in text

    def test_returns_id_pairs_only(self):
        text = emit_geo_query(SqlDialect.POSTGRES).text
        first = text.split("from")[0]
        assert "bpooverlap" not in first
        assert "a.id as a_id" in first and "b.id as b_id" in first


class TestBulkImport:
    def test_three_statements(self):
        for dialect in ALL_DIALECTS:
            stmts = emit_bulk_import(dialect, "/data/x.bed").statements()
            assert len(stmts) == 3
            assert stmts[2] == "truncate table staging_regions;"

    def test_dialect_load_keywords(self):
        assert emit_bulk_import(SqlDialect.POSTGRES, "/d/x.bed").text.startswith("copy ")
        for d in (SqlDialect.MYSQL_INNODB, SqlDialect.MYSQL_MYISAM):
            assert emit_bulk_import(d, "/d/x.bed").text.startswith("load data infile ")

    def test_id_assignment_continues_from_max(self):
        text = emit_bulk_import(SqlDialect.POSTGRES, "/d/x.bed").text
        assert "coalesce(max(id), 0)" in text
        assert "row_number() over" in text

    def test_path_validation(self):
        with pytest.raises(ValueError, match="unsafe"):
            emit_bulk_import(SqlDialect.POSTGRES, "/tmp/x'; drop table regions; --")


class TestRandomGen:
    def test_single_transaction(self):
        for dialect in ALL_DIALECTS:
            text = emit_random_gen(dialect, count=100).text
            assert text.count("start transaction;") == 1
            assert text.count("commit;") == 1
            assert text.count("insert into regions") == 1

    def test_parameter_substitution(self):
        text = emit_random_gen(
            SqlDialect.POSTGRES, count=777, coord_lower=10, coord_upper=2000, max_size=100
        ).text
        assert "generate_series(1, 777)" in text
        assert "floor(random() * 1890)" in text  # 2000 - 10 - 100
        assert "cast(10 + floor" in text

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            emit_random_gen(SqlDialect.POSTGRES, count=0)
        with pytest.raises(ValueError):
            emit_random_gen(SqlDialect.POSTGRES, count=10, coord_lower=0, coord_upper=400)
        with pytest.raises(ValueError, match="^max_size must be >= 1, got 0$"):
            emit_random_gen(SqlDialect.POSTGRES, count=10, max_size=0)


class TestInsertScripts:
    def test_batch_is_one_transactional_insert(self):
        stmts = emit_batch_insert(SqlDialect.POSTGRES).statements()
        assert stmts[0] == "start transaction;"
        assert stmts[-1] == "commit;"
        assert sum("insert into regions" in s for s in stmts) == 1

    def test_rowwise_is_one_statement_per_region(self):
        stmts = emit_rowwise_insert(SqlDialect.POSTGRES).statements()
        assert len(stmts) == len(DEMO_REGIONS)
        assert all(s.startswith("insert into regions") for s in stmts)
        assert "transaction" not in " ".join(stmts)

    def test_explicit_ids_from_start_id(self):
        text = emit_batch_insert(
            SqlDialect.POSTGRES, DEMO_REGIONS[:2], dataset=7, start_id=100
        ).text
        assert "(100, 7, 'chr1', 100, 250)" in text
        assert "(101, 7, 'chr1', 200, 600)" in text

    def test_chromosome_token_validation(self):
        from regmap.intervals import GenomicRegion

        bad = GenomicRegion("chr1;drop", 0, 10)
        with pytest.raises(ValueError, match="token"):
            emit_batch_insert(SqlDialect.POSTGRES, [bad])

    def test_chromosome_of_64_characters_is_written(self):
        name = "chr" + "1" * 61
        for emit in (emit_batch_insert, emit_rowwise_insert):
            assert f"(1, 1, '{name}', 0, 10)" in emit(SqlDialect.POSTGRES, [RawRegion(name, 0, 10)]).text

    def test_chromosome_past_64_characters_is_refused(self):
        name = "chr" + "1" * 62
        for emit in (emit_batch_insert, emit_rowwise_insert):
            with pytest.raises(ValueError, match="^chromosome must be at most 64 characters, got 65"):
                emit(SqlDialect.POSTGRES, [RawRegion("chr1", 0, 5), RawRegion(name, 0, 10)])

    def test_batch_requires_rows(self):
        with pytest.raises(ValueError):
            emit_batch_insert(SqlDialect.POSTGRES, [])


class TestSearchQueries:
    def test_invalid_predicate(self):
        invalid, _ = emit_search_queries(SqlDialect.POSTGRES)
        assert invalid.kind is ScriptKind.INVALID_SEARCH
        assert "start_pos < 0" in invalid.text
        assert "end_pos < start_pos" in invalid.text

    def test_default_proximity_parameters_are_myc_tss(self):
        _, proximity = emit_search_queries(SqlDialect.POSTGRES)
        # chr8:128748314 +/- 100000
        assert "chromosome = 'chr8'" in proximity.text
        assert "128848314" in proximity.text
        assert "128648314" in proximity.text

    def test_window_validation(self):
        with pytest.raises(ValueError):
            emit_search_queries(SqlDialect.POSTGRES, window=0)
        with pytest.raises(ValueError, match="token"):
            emit_search_queries(SqlDialect.POSTGRES, chrom="chr8; drop")


class TestIntegerParameters:
    """Integers follow one rule (``operator.index``, no bool) and must
    fit a BIGINT column."""

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_value_outside_bigint_is_refused(self, value):
        pg = SqlDialect.POSTGRES
        for emit in (emit_batch_insert, emit_rowwise_insert):
            for row in (RawRegion("chr1", value, 0), RawRegion("chr1", 0, value)):
                with pytest.raises(ValueError, match="bigint range"):
                    emit(pg, [row])
            with pytest.raises(ValueError, match="^dataset must lie in the bigint range"):
                emit(pg, DEMO_REGIONS, dataset=value)
            with pytest.raises(ValueError, match="^start_id must lie in the bigint range"):
                emit(pg, DEMO_REGIONS, start_id=value)
        with pytest.raises(ValueError, match="^position must lie in the bigint range"):
            emit_search_queries(pg, "chr1", value, 5)
        with pytest.raises(ValueError, match="^query_dataset must lie in the bigint range"):
            emit_regmap_query(pg, query_dataset=value)
        with pytest.raises(ValueError, match="^ref_dataset must lie in the bigint range"):
            emit_geo_query(pg, ref_dataset=value)
        with pytest.raises(ValueError, match="^dataset must lie in the bigint range"):
            emit_bulk_import(pg, dataset=value)

    def test_bigint_limits_are_written(self):
        lo, hi = -(2**63), 2**63 - 1
        row = RawRegion("chr1", lo, hi)
        batch = emit_batch_insert(SqlDialect.POSTGRES, [row], dataset=2**31 - 1, start_id=hi)
        assert f"    ({hi}, {2**31 - 1}, 'chr1', {lo}, {hi});" in batch.text
        rowwise = emit_rowwise_insert(SqlDialect.POSTGRES, [row], dataset=-(2**31), start_id=lo)
        assert rowwise.text.endswith(f" values ({lo}, {-(2**31)}, 'chr1', {lo}, {hi});\n")
        for position in (hi - 5, lo + 5):
            _, proximity = emit_search_queries(SqlDialect.POSTGRES, "chr1", position, 5)
            assert f"least(end_pos, {position + 5}) - greatest(start_pos, {position - 5})" in proximity.text

    @pytest.mark.parametrize("dataset", [2**31 - 1, -(2**31)])
    def test_integer_limits_of_a_dataset_number_are_written(self, dataset):
        pg = SqlDialect.POSTGRES
        for emit in (emit_batch_insert, emit_rowwise_insert):
            assert f"(1, {dataset}, 'chr1', 100, 250)" in emit(pg, DEMO_REGIONS[:1], dataset=dataset).text
        assert f"\n    {dataset},\n" in emit_bulk_import(pg, dataset=dataset).text
        assert f"\n    {dataset},\n" in emit_random_gen(pg, dataset=dataset).text

    @pytest.mark.parametrize("dataset", [2**31, -(2**31) - 1])
    def test_dataset_number_outside_integer_is_refused(self, dataset):
        pg = SqlDialect.POSTGRES
        message = f"^dataset must lie in the integer range of regiondesc_id, got {dataset}$"
        for emit in (emit_batch_insert, emit_rowwise_insert, emit_bulk_import, emit_random_gen):
            with pytest.raises(ValueError, match=message):
                emit(pg, dataset=dataset)

    def test_compared_dataset_numbers_need_only_bigint(self):
        pg = SqlDialect.POSTGRES
        assert "a.regiondesc_id = 2147483648" in emit_regmap_query(pg, query_dataset=2**31).text
        assert "b.regiondesc_id = -2147483649" in emit_geo_query(pg, ref_dataset=-(2**31) - 1).text

    def test_ids_past_bigint_are_refused(self):
        with pytest.raises(ValueError, match="^id must lie in the bigint range, got 9223372036854775808$"):
            emit_batch_insert(SqlDialect.POSTGRES, DEMO_REGIONS[:2], start_id=2**63 - 1)

    @pytest.mark.parametrize("position, window", [(2**63 - 5, 5), (-(2**63) + 4, 5)])
    def test_window_bound_past_bigint_is_refused(self, position, window):
        with pytest.raises(ValueError, match="^window (start|end) must lie in the bigint range"):
            emit_search_queries(SqlDialect.POSTGRES, "chr1", position, window)

    @pytest.mark.parametrize("position, window, name", [(True, 5, "position"), (150, False, "window")])
    def test_bool_is_refused(self, position, window, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got (True|False)$"):
            emit_search_queries(SqlDialect.POSTGRES, "chr1", position, window)

    def test_numpy_integers_are_accepted(self):
        got = emit_search_queries(SqlDialect.POSTGRES, "chr1", np.int64(150), np.int32(20))
        assert got == emit_search_queries(SqlDialect.POSTGRES, "chr1", 150, 20)
        flt = JoinFilter(min_bp=np.int64(-3))
        assert emit_regmap_query(SqlDialect.POSTGRES, flt) == emit_regmap_query(
            SqlDialect.POSTGRES, JoinFilter(min_bp=-3)
        )


class TestDeterminismAndGoldens:
    def test_identical_inputs_identical_bytes(self):
        for dialect in ALL_DIALECTS:
            first = [s.text for s in emit_all(dialect)]
            second = [s.text for s in emit_all(dialect)]
            assert first == second

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=lambda d: d.value)
    def test_scripts_match_frozen_goldens(self, dialect):
        for script in emit_all(dialect):
            golden = GOLDEN_DIR / script.filename
            assert golden.exists(), f"missing golden {script.filename}"
            assert script.text == golden.read_text(encoding="utf-8"), script.filename

    def test_mysql_pair_differs_only_in_engine_clause(self):
        innodb = {s.kind: s.text for s in emit_all(SqlDialect.MYSQL_INNODB)}
        myisam = {s.kind: s.text for s in emit_all(SqlDialect.MYSQL_MYISAM)}
        for kind, text in innodb.items():
            assert text.replace("engine=innodb", "engine=myisam") == myisam[kind], kind

    def test_text_hygiene(self):
        for dialect in ALL_DIALECTS:
            for script in emit_all(dialect):
                assert script.text.endswith(";\n"), script.filename
                assert "\r" not in script.text
                assert script.text == script.text.lower() or any(
                    token in script.text for token in ("chrX",)
                )

    def test_statement_splitting_reassembles(self):
        for dialect in ALL_DIALECTS:
            for script in emit_all(dialect):
                stmts = script.statements()
                assert stmts, script.filename
                assert all(s.endswith(";") for s in stmts)
                # no statement loses content relative to the script
                squashed = re.sub(r"\s+", " ", " ".join(stmts))
                original = re.sub(r"\s+", " ", script.text).strip()
                assert squashed == original


class TestScriptObject:
    def test_filename_tagging(self):
        script = emit_ddl(SqlDialect.POSTGRES)
        assert script.filename == "ddl.postgres.sql"
        assert isinstance(script, SqlScript)

    def test_kind_coverage(self):
        kinds = {s.kind for s in emit_all(SqlDialect.POSTGRES)}
        assert kinds == set(ScriptKind)


def sqlite_text(script: SqlScript) -> SqlScript:
    """The PostgreSQL script in SQLite's terms, after four substitutions."""
    text = script.text
    for old, new in (
        ("start transaction;", "begin;"),
        ("create or replace view", "create view"),
        ("least(", "min("),
        ("greatest(", "max("),
    ):
        text = text.replace(old, new)
    return SqlScript(script.kind, script.dialect, text)


def run_sqlite(path: Path, *scripts: SqlScript) -> list[tuple]:
    """Run the scripts in order on a file database; the last statement's rows."""
    conn = sqlite3.connect(path, isolation_level=None)
    try:
        rows: list[tuple] = []
        for script in scripts:
            for statement in sqlite_text(script).statements():
                rows = conn.execute(statement).fetchall()
        return rows
    finally:
        conn.close()


# Invalid rows: stored and searchable, but in no join and no proximity hit.
INVALID = (RawRegion("chr1", -5, 100), RawRegion("chr1", 300, 200), RawRegion("chr2", -50, -10))


# Probes on the chromosomes the searched rows use and on one they lack.
SEARCH_PROBES = st.tuples(
    st.sampled_from(["chr1", "chr2", "chrUn"]), st.integers(0, 3_500), st.integers(1, 400)
)


class TestRunsInSqlite:
    """The emitted PostgreSQL text, run by stdlib sqlite3, agrees with
    the native engine."""

    @pytest.mark.parametrize("bound", [None, 1, 30.5, 30.25, 0.1, 1e308, math.inf])
    @pytest.mark.parametrize("min_bp", [1, 0, -20])
    def test_overlap_view_matches_native_join(self, tmp_path, min_bp, bound):
        config = dict(count=300, chromosomes=("chr1", "chr2"), coord_upper=1500, max_size=40)
        a = generate_regions(GenConfig(seed=61, **config))
        b = generate_regions(GenConfig(seed=62, **config))
        a_rows = [*a, *INVALID]
        b_rows = [*INVALID, *b]
        flt = JoinFilter(min_bp=min_bp, max_centre_distance=bound)
        dialect = SqlDialect.POSTGRES
        rows = run_sqlite(
            tmp_path / "regmap.db",
            emit_ddl(dialect),
            emit_batch_insert(dialect, a_rows, dataset=1, start_id=1),
            emit_batch_insert(dialect, b_rows, dataset=2, start_id=1001),
            emit_regmap_query(dialect, flt),
        )
        a_ids = list(enumerate(a, start=1))
        b_ids = list(enumerate(b, start=1001 + len(INVALID)))
        native = nested_loop_join(a_ids, b_ids, flt)
        region = dict(a_ids + b_ids)
        assert native
        if bound == math.inf:  # no bound at all
            assert native == nested_loop_join(a_ids, b_ids, JoinFilter(min_bp=min_bp))
        assert rows == sorted(
            (p.a_id, p.b_id, p.chrom, p.bp_overlap,
             centre_distance_sql_compat(region[p.a_id], region[p.b_id]))
            for p in native
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_searches_match_store(self, data):
        probes = data.draw(st.lists(SEARCH_PROBES, min_size=1, max_size=4), label="probes")
        # Coordinates on, just inside and just outside every window edge,
        # or anywhere around the probed span; any two make a row, so
        # some rows start below 0 or end before they start.
        edges = [e + d for _, pos, win in probes for e in (pos - win, pos + win) for d in (-1, 0, 1)]
        coord = st.one_of(st.sampled_from(edges), st.integers(-50, 4_000))
        regions = data.draw(
            st.lists(st.builds(RawRegion, st.sampled_from(["chr1", "chr2"]), coord, coord),
                     min_size=1, max_size=40),
            label="regions",
        )
        store = RegionStore()
        store.import_dataset("ds", regions)
        dialect = SqlDialect.POSTGRES
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "regmap.db"
            run_sqlite(db, emit_ddl(dialect), emit_batch_insert(dialect, regions))
            for indexed in (False, True):
                if indexed:
                    store.build_index()
                for chrom, position, window in probes:
                    invalid, proximity = emit_search_queries(dialect, chrom, position, window)
                    hits = store.proximity_search(chrom, position, window)
                    assert [row[0] for row in run_sqlite(db, proximity)] == [row.id for row in hits]
            assert [row[0] for row in run_sqlite(db, invalid)] == [row.id for row in store.find_invalid()]

    def test_bigint_limits_read_back_exactly(self, tmp_path):
        lo, hi = -(2**63), 2**63 - 1
        dialect = SqlDialect.POSTGRES
        batch = emit_batch_insert(dialect, [RawRegion("chr1", lo, hi)], dataset=2**31 - 1, start_id=hi)
        invalid, _ = emit_search_queries(dialect)
        rows = run_sqlite(tmp_path / "regmap.db", emit_ddl(dialect), batch, invalid)
        assert rows == [(hi, 2**31 - 1, "chr1", lo, hi)]


def agreed_pairs(a, b, flt):
    """The pairs of A x B (ids from 1 and from 1001) once ``sweep_join``,
    ``nested_loop_join`` and the emitted PostgreSQL text run in sqlite3
    are checked to agree on them."""
    a_ids, b_ids = list(enumerate(a, start=1)), list(enumerate(b, start=1001))
    dialect = SqlDialect.POSTGRES
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_sqlite(
            Path(tmp) / "regmap.db",
            emit_ddl(dialect),
            emit_batch_insert(dialect, a, dataset=1, start_id=1),
            emit_batch_insert(dialect, b, dataset=2, start_id=1001),
            emit_regmap_query(dialect, flt),
        )
    nested = nested_loop_join(a_ids, b_ids, flt)
    assert sweep_join(a_ids, b_ids, flt) == nested
    region = dict(a_ids + b_ids)
    assert rows == [
        (p.a_id, p.b_id, p.chrom, p.bp_overlap, centre_distance_sql_compat(region[p.a_id], region[p.b_id]))
        for p in nested
    ]
    return nested


# Rows far from 0, where a doubled distance has no float of its own.
FAR_ROWS = st.lists(
    st.builds(
        lambda start, length: GenomicRegion("chr1", start, start + length),
        st.integers(2**53, 2**61),
        st.sampled_from([0, 1, 2, 3, 1000]) | st.integers(0, 2**40),
    ),
    min_size=1,
    max_size=4,
)
# Offsets from half a doubled distance, each within 1.
NEAR_HALF = st.sampled_from(
    [-1, Fraction(-1, 2), Fraction(-1, 10**30), 0, Fraction(1, 10**30), Fraction(1, 2), 1]
)


class TestCentreDistanceBound:
    """Sweep, nested and the SQL run in sqlite3 keep the same pairs at
    every centre-distance bound."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_far_rows_near_the_bound(self, data):
        a = data.draw(FAR_ROWS, label="a")
        b = data.draw(FAR_ROWS, label="b")
        x, y = data.draw(st.sampled_from(a), label="x"), data.draw(st.sampled_from(b), label="y")
        half = Fraction(abs((x.start + x.end) - (y.start + y.end)), 2) + data.draw(NEAR_HALF, label="offset")
        kind = data.draw(st.sampled_from([Fraction, float, math.floor]), label="kind")
        bound = kind(max(half, 0))
        agreed_pairs(a, b, JoinFilter(min_bp=-(2**62), max_centre_distance=bound))

    @pytest.mark.parametrize("bound", [2.0**53, 2**53])
    def test_doubled_distance_one_below_twice_the_bound(self, bound):
        # doubled distance 2**54 - 1 against twice the bound, 2**54
        flt = JoinFilter(max_centre_distance=bound)
        pairs = agreed_pairs([GenomicRegion("chr1", 0, 1)], [GenomicRegion("chr1", 0, 2**54)], flt)
        assert len(pairs) == 1

    def test_fractional_bound_just_below_an_odd_half(self):
        # doubled distance 2000 against twice the bound, just below 2001
        flt = JoinFilter(min_bp=-(10**6), max_centre_distance=Fraction(2001, 2) - Fraction(1, 10**30))
        assert "twicecentredistance < 2001" in emit_regmap_query(SqlDialect.POSTGRES, flt).text
        pairs = agreed_pairs([GenomicRegion("chr1", 0, 10)], [GenomicRegion("chr1", 1000, 1010)], flt)
        assert len(pairs) == 1

    def test_bound_past_float_range_as_a_fraction_is_no_bound(self):
        flt = JoinFilter(max_centre_distance=Fraction(sys.float_info.max))
        for dialect in ALL_DIALECTS:
            assert emit_regmap_query(dialect, flt).text == emit_regmap_query(dialect).text
        pairs = agreed_pairs([GenomicRegion("chr1", 0, 10)], [GenomicRegion("chr1", 5, 2**61)], flt)
        assert len(pairs) == 1

    def test_fractional_doubled_bound_is_written_rounded_up(self):
        text = emit_regmap_query(SqlDialect.POSTGRES, JoinFilter(max_centre_distance=30.25)).text
        assert "  and twicecentredistance < 61\n" in text
