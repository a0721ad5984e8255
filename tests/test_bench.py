import io
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_dbadapter import StubConnection

from regmap import bench, dbadapter, sqlgen
from regmap import intervals as intervals_module
from regmap import store as store_module
from regmap.bedio import parse_bed_file
from regmap.bench import (
    REPORT_COLUMNS,
    BenchmarkReport,
    GenConfig,
    add_search_writes,
    generate_regions,
    make_invalid_rows,
    report_from_json,
    report_to_json,
    run_import_bench,
    run_insertion_bench,
    run_overlap_bench,
    run_search_bench,
    write_report,
)
from regmap.cli import main
from regmap.data import toy_catalog_path
from regmap.dbadapter import BackendConfig
from regmap.intervals import GenomicRegion, centre_distance_sql_compat
from regmap.joins import JoinFilter, nested_loop_join
from regmap.sqlgen import SqlDialect


class TestGenerateRegions:
    def test_deterministic_for_seed(self):
        config = GenConfig(seed=99, count=2000)
        assert generate_regions(config) == generate_regions(config)

    def test_different_seeds_differ(self):
        assert generate_regions(GenConfig(seed=1, count=50)) != generate_regions(
            GenConfig(seed=2, count=50)
        )

    def test_constructive_bounds(self):
        config = GenConfig(seed=5, count=5000, coord_lower=1000, coord_upper=90_000)
        for r in generate_regions(config):
            assert 1 <= r.length <= 500
            assert r.start >= 1000
            assert r.end <= 90_000
            assert r.chrom in config.chromosomes

    def test_fixed_size(self):
        config = GenConfig(seed=5, count=200, fixed_size=True)
        assert all(r.length == 500 for r in generate_regions(config))

    def test_mean_length_tracks_uniform_expectation(self):
        regions = generate_regions(GenConfig(seed=17, count=20_000))
        mean = sum(r.length for r in regions) / len(regions)
        assert abs(mean - 250.5) < 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(chromosomes=())
        with pytest.raises(ValueError):
            GenConfig(coord_lower=0, coord_upper=400, max_size=500)
        with pytest.raises(ValueError):
            GenConfig(max_size=0)
        with pytest.raises(ValueError, match="^count must be >= 0$"):
            GenConfig(count=-1)

    def test_invalid_row_factory(self):
        rows = make_invalid_rows(24, seed=3)
        assert len(rows) == 24
        assert all(not r.is_valid() for r in rows)


class TestInsertionBench:
    def test_native_report_shape(self):
        report = run_insertion_bench([2000], reps=2)
        scenarios = [(r.scenario, r.backend, r.size) for r in report.rows]
        assert scenarios == [
            ("insert_batch", "native", 2000),
            ("insert_rowwise", "native", 2000),
        ]
        for row in report.rows:
            assert row.reps == 2
            assert row.min_s <= row.mean_s <= row.max_s

    def test_context_mentions_reference_timings(self):
        report = run_insertion_bench([100], reps=1)
        assert any("reference timings" in line for line in report.context)

    def test_rowwise_store_that_differs_from_batch_fails(self, monkeypatch):
        insert = bench.RegionStore.insert_regions_rowwise

        def drop_last(store, name, regions):
            return insert(store, name, list(regions)[:-1])

        monkeypatch.setattr(bench.RegionStore, "insert_regions_rowwise", drop_last)
        with pytest.raises(AssertionError, match="rows differ"):
            run_insertion_bench([50], reps=1)


class TestImportBench:
    def test_row_counts_verified_against_files(self):
        base = toy_catalog_path().parent
        files = sorted(base.glob("*.bed"))
        expected = sum(
            len(p.read_text().strip().splitlines()) for p in files
        )
        report = run_import_bench(files, reps=1)
        row = report.rows[0]
        assert row.scenario == "import_staged"
        assert row.size == expected
        assert not any(line.startswith("import files=") for line in report.context)

    def test_rejected_lines_are_noted(self, tmp_path):
        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        rows = sum(len(p.read_text().strip().splitlines()) for p in files)
        malformed = tmp_path / "malformed.bed"
        malformed.write_text(files[0].read_text() + "chr1\t300\n")
        report = run_import_bench([malformed, *files[1:]], reps=1)
        assert report.rows[0].size == rows
        assert report.context[-1] == f"import files={len(files)}: rows={rows} rejected=1"


class TestOverlapBench:
    def test_nested_and_sweep_agree(self):
        report = run_overlap_bench([1000], reps=1, seed=12)
        scenarios = {r.scenario for r in report.rows}
        assert scenarios == {"overlap_sweep", "overlap_nested"}
        # counts equality enforced internally; pair counts noted in context
        assert any(line.startswith("overlap size=1000") for line in report.context)

    def test_nested_loop_capped(self):
        report = run_overlap_bench([12_000], reps=1, seed=12)
        scenarios = {r.scenario for r in report.rows}
        assert scenarios == {"overlap_sweep"}

    def test_geo_count_at_least_regmap_count(self):
        report = run_overlap_bench([800], reps=1, seed=77)
        note = next(line for line in report.context if line.startswith("overlap size="))
        pairs = int(note.split("pairs=")[1].split()[0])
        geo = int(note.split("geo_pairs=")[1])
        assert geo >= pairs

    def test_default_size_makes_touching_pairs(self):
        report = run_overlap_bench([5000], reps=1, seed=31)
        note = report.context[-1]
        pairs = int(note.split("pairs=")[1].split()[0])
        geo = int(note.split("geo_pairs=")[1])
        assert pairs >= 1000
        assert geo > pairs  # some rows only touch


class TestSearchBench:
    def test_seeded_invalid_rows_and_index_consistency(self):
        report = run_search_bench([20_000], reps=1, seed=5, invalid_rows=24)
        scenarios = [r.scenario for r in report.rows]
        assert scenarios == [
            "search_invalid",
            "search_proximity_scan",
            "search_proximity_indexed",
        ]

    def test_index_not_slower_than_scan_at_a_million_rows(self):
        report = run_search_bench([1_000_000], reps=1, seed=6, invalid_rows=24)
        by_scenario = {r.scenario: r for r in report.rows}
        scan = by_scenario["search_proximity_scan"]
        indexed = by_scenario["search_proximity_indexed"]
        assert indexed.mean_s <= scan.mean_s


class TestSearchWrites:
    def test_ten_timed_writes_into_the_indexed_store(self, capsys):
        report = BenchmarkReport()
        add_search_writes(report, [4_000], seed=3)
        [row] = report.rows
        assert (row.scenario, row.backend, row.size, row.reps) == ("search_write_indexed", "native", 4_000, 10)
        assert 0 < row.min_s <= row.mean_s <= row.max_s
        assert main(["bench", "--scenario", "search", "--sizes", "2000", "--reps", "1"]) == 0
        scenarios = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert scenarios[-4:] == [
            "search_invalid", "search_proximity_scan", "search_proximity_indexed", "search_write_indexed",
        ]

    def test_an_index_that_loses_a_write_fails(self, monkeypatch):
        # An index whose entries keep their old runs and drop each write's
        # rows: the probes after the first write differ from the scan.
        def kept(runs, *columns):
            return runs or intervals_module._with_run(runs, *columns)

        monkeypatch.setattr(store_module, "_with_run", kept)
        with pytest.raises(AssertionError, match="after write 0: indexed and unindexed"):
            add_search_writes(BenchmarkReport(), [20_000], seed=3)


class TestCorrectnessGates:
    """Each of the bench's correctness checks raises its AssertionError
    when one component it checks is made wrong."""

    def test_an_import_that_loses_a_row_fails(self, monkeypatch):
        imported = bench.RegionStore.import_dataset
        monkeypatch.setattr(
            bench.RegionStore, "import_dataset", lambda store, name, rows: imported(store, name, rows) - 1
        )
        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        with pytest.raises(AssertionError, match="^import row-count check failed$"):
            run_import_bench(files, reps=1)

    def test_a_nested_loop_that_drops_a_pair_fails(self, monkeypatch):
        counts = []

        def dropped(a, b):
            pairs = nested_loop_join(a, b)
            counts.append(len(pairs))
            return pairs[:-1]

        monkeypatch.setattr(bench, "nested_loop_join", dropped)
        with pytest.raises(AssertionError) as raised:
            run_overlap_bench([1000], reps=1, seed=12)
        n = counts[0]
        assert n > 0
        assert str(raised.value) == f"join variants disagree: nested={n - 1} sweep={n}"

    def test_a_geo_join_below_the_overlap_join_fails(self, monkeypatch):
        join, counts = bench.window_join, []

        def fewer(a, b, join_filter):
            pairs = join(a, b, join_filter)
            if join_filter.min_bp:
                counts.append(len(pairs))
                return pairs
            return pairs[: counts[-1] - 1]

        monkeypatch.setattr(bench, "window_join", fewer)
        with pytest.raises(AssertionError) as raised:
            run_overlap_bench([1000], reps=1, seed=12)
        n = counts[-1]
        assert str(raised.value) == f"geo count {n - 1} below overlap count {n}"

    def test_a_lost_invalid_row_fails(self, monkeypatch):
        monkeypatch.setattr(bench, "make_invalid_rows", lambda count, seed: make_invalid_rows(count, seed)[:-1])
        with pytest.raises(AssertionError, match="^expected 24 invalid rows, found 23$"):
            run_search_bench([2_000], reps=1, seed=5, invalid_rows=24)

    def test_an_index_that_finds_nothing_fails(self, monkeypatch):
        report = run_search_bench([30_000], reps=1, seed=0)
        assert report.context[-1] == "search size=30000: proximity hits=4"
        monkeypatch.setattr(store_module, "_windows", lambda run, first, last: (0, 0))
        with pytest.raises(AssertionError, match="^indexed and unindexed proximity results differ$"):
            run_search_bench([30_000], reps=1, seed=0)

    def test_an_index_that_finds_nothing_fails_where_the_timed_probe_has_no_hits(self, monkeypatch):
        report = run_search_bench([20_000], reps=1, seed=5)
        assert report.context[-1] == "search size=20000: proximity hits=0"
        monkeypatch.setattr(store_module, "_windows", lambda run, first, last: (0, 0))
        with pytest.raises(AssertionError, match="^indexed and unindexed proximity results differ$"):
            run_search_bench([20_000], reps=1, seed=5)


class TestReports:
    def make_report(self):
        report = BenchmarkReport()
        report.note("hello context")
        report.add("s1", "native", 10, [0.5, 1.0, 1.5])
        report.add("s2", "postgres", 20, [0.25])
        return report

    def test_tsv_layout(self):
        text = write_report(self.make_report(), fmt="tsv")
        lines = text.splitlines()
        assert lines[0] == "# hello context"
        assert lines[1] == "\t".join(REPORT_COLUMNS)
        fields = lines[2].split("\t")
        assert fields[0] == "s1"
        assert fields[3] == "3"
        assert float(fields[4]) == 1.0  # mean
        assert float(fields[5]) == 0.5 and float(fields[6]) == 1.5

    def test_empty_report_is_header_only(self):
        text = write_report(BenchmarkReport(), fmt="tsv")
        assert text == "\t".join(REPORT_COLUMNS) + "\n"

    def test_json_round_trip(self):
        report = self.make_report()
        loaded = report_from_json(report_to_json(report))
        assert loaded.rows == report.rows
        assert loaded.context == report.context

    def test_json_values_read_back_as_field_types(self):
        row = {"scenario": "s", "backend": "native", "size": "10", "reps": 2.0,
               "mean_s": "0.5", "min_s": 0, "max_s": 1}
        (loaded,) = report_from_json(json.dumps({"rows": [row]})).rows
        assert [type(v) for v in (loaded.size, loaded.reps)] == [int, int]
        assert [type(v) for v in (loaded.mean_s, loaded.min_s, loaded.max_s)] == [float] * 3
        assert (loaded.size, loaded.mean_s, loaded.scenario) == (10, 0.5, "s")

    def test_json_mirrors_tsv_rows(self):
        report = self.make_report()
        payload = json.loads(report_to_json(report))
        assert [r["scenario"] for r in payload["rows"]] == ["s1", "s2"]
        assert list(payload["rows"][0]) == list(REPORT_COLUMNS)

    def test_write_to_path_and_stream(self, tmp_path):
        report = self.make_report()
        target = tmp_path / "r.tsv"
        write_report(report, fmt="tsv", sink=target)
        assert target.read_text().startswith("# hello context")
        buf = io.StringIO()
        write_report(report, fmt="json", sink=buf)
        assert buf.getvalue().startswith("{")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_report(BenchmarkReport(), fmt="xml")

    def test_min_mean_max_ordering_invariant(self):
        report = self.make_report()
        for row in report.rows:
            assert row.min_s <= row.mean_s <= row.max_s
            assert row.reps >= 1


POSTGRES = BackendConfig(SqlDialect.POSTGRES, "postgresql://stub/bench")
MYSQL_OFF = BackendConfig(SqlDialect.MYSQL_INNODB, None)
SKIPPED_NOTE = "skipped: mysql_innodb (no connection URL configured)"


# One row of a batch insert: (id, dataset, chromosome, start, end).
INSERTED_ROW = re.compile(r"^    \((\d+), (\d+), '([^']*)', (-?\d+), (-?\d+)\)", re.MULTILINE)


# The file a bulk import script copies into the staging table.
COPIED_FILE = re.compile(r"^copy staging_regions \(chromosome, start_pos, end_pos\) from '([^']*)'")


class StubServer:
    """``dbadapter.connect`` stand-in: each call opens a new stub
    connection. Its regmap and geo selects answer with the rows a
    database holding the regions batch-inserted since the last schema
    reset returns, computed by the reference join, and its row count
    with the rows of the files copied since then that the native reader
    keeps; ``edit[kind]``, for kind "regmap", "geo" or "count", then
    changes them."""

    def __init__(self):
        self.edit = {}
        self.connections = []

    def connect(self, backend):
        conn = StubConnection(select_result=lambda statement: self.answer(conn, statement))
        self.connections.append(conn)
        return conn

    def answer(self, conn, statement):
        reset = max(i for i, s in enumerate(conn.statements) if s == "drop table if exists regions;")
        datasets = {1: [], 2: []}
        for text in conn.statements[reset:]:
            for rid, ds, chrom, start, end in INSERTED_ROW.findall(text):
                datasets[int(ds)].append((int(rid), GenomicRegion(chrom, int(start), int(end))))
        a, b = datasets[1], datasets[2]
        if statement == "select count(*) from regions;":
            copied = [m[1] for m in map(COPIED_FILE.match, conn.statements[reset:]) if m]
            count = sum(len(parse_bed_file(path, mode="permissive")[0]) for path in copied)
            kind, rows = "count", [(count,)]
        elif "from vwregions" in statement:
            region = dict(a + b)
            kind, rows = "regmap", [
                (p.a_id, p.b_id, p.chrom, p.bp_overlap,
                 centre_distance_sql_compat(region[p.a_id], region[p.b_id]))
                for p in nested_loop_join(a, b)
            ]
        else:
            kind, rows = "geo", [(p.a_id, p.b_id) for p in nested_loop_join(a, b, JoinFilter(min_bp=0))]
        return self.edit.get(kind, list)(rows)


class TestDatabaseCells:
    """The live-backend cells of each scenario, run on stub connections:
    one enabled and one disabled backend."""

    BACKENDS = (POSTGRES, MYSQL_OFF)

    @pytest.fixture
    def server(self, monkeypatch):
        server = StubServer()
        monkeypatch.setattr(dbadapter, "connect", server.connect)
        return server

    @pytest.fixture
    def dense(self, monkeypatch):
        """Generated regions on one 20 kb chromosome, so that 300 x 300
        rows make pairs."""

        def generate(config):
            return generate_regions(replace(config, chromosomes=("chr1",), coord_upper=20_000))

        monkeypatch.setattr(bench, "generate_regions", generate)

    @staticmethod
    def rows(report):
        return [(r.scenario, r.backend, r.size, r.reps) for r in report.rows]

    @staticmethod
    def native_pairs(size, seed):
        note = run_overlap_bench([size], reps=1, seed=seed).context[-1]
        assert note.startswith(f"overlap size={size}: ")
        pairs = int(note.split("pairs=")[1].split()[0])
        return pairs, int(note.split("geo_pairs=")[1])

    def test_insertion(self, server):
        report = run_insertion_bench([40], reps=2, backends=self.BACKENDS, seed=4)
        assert self.rows(report) == [
            ("insert_batch", "native", 40, 2),
            ("insert_rowwise", "native", 40, 2),
            ("insert_batch", "postgres", 40, 2),
            ("insert_rowwise", "postgres", 40, 2),
        ]
        assert report.context[1:] == [SKIPPED_NOTE]
        assert len(server.connections) == 1
        assert all(conn.closed for conn in server.connections)
        statements = server.connections[0].statements
        assert statements[0] == "drop view if exists vwregions;"
        assert sum(s.startswith("insert into regions") for s in statements) > 40 * 3

    def test_import(self, server):
        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        report = run_import_bench(files, reps=1, backends=self.BACKENDS)
        total = report.rows[0].size
        assert self.rows(report) == [
            ("import_staged", "native", total, 1),
            ("import_staged", "postgres", total, 1),
        ]
        assert report.context[1:] == [SKIPPED_NOTE]
        assert len(server.connections) == 1 and server.connections[0].closed
        copies = [s for s in server.connections[0].statements if s.startswith("copy ")]
        assert len(copies) == 2 * len(files)  # warm-up plus one measured repetition

    def test_import_reads_back_the_native_row_count(self, server):
        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        report = run_import_bench(files, reps=2, backends=self.BACKENDS)
        assert report.context[1:] == [SKIPPED_NOTE]
        statements = server.connections[0].statements
        assert statements[-1] == "select count(*) from regions;"
        assert statements[-2] == "truncate table staging_regions;"

    def test_import_count_mismatch_becomes_a_note(self, server):
        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        server.edit["count"] = lambda rows: [(rows[0][0] - 1,)]
        report = run_import_bench(files, reps=1, backends=self.BACKENDS)
        total = report.rows[0].size
        assert [r.backend for r in report.rows] == ["native"]
        assert report.context[1:] == [
            SKIPPED_NOTE,
            f"error: postgres import: database rows {total - 1} != native rows {total}",
        ]
        assert len(server.connections) == 1 and server.connections[0].closed

    def test_overlap(self, server, dense):
        pairs, geo = self.native_pairs(300, seed=9)
        assert pairs
        report = run_overlap_bench([300], reps=1, backends=self.BACKENDS, seed=9)
        assert self.rows(report) == [
            ("overlap_sweep", "native", 300, 1),
            ("overlap_nested", "native", 300, 1),
            ("overlap_regmap_sql", "postgres", 300, 1),
            ("overlap_geo_sql", "postgres", 300, 1),
        ]
        assert report.context[1:] == [
            SKIPPED_NOTE,
            f"overlap size=300: pairs={pairs} geo_pairs={geo}",
        ]
        assert len(server.connections) == 1 and server.connections[0].closed

    def test_overlap_count_mismatch_becomes_a_note(self, server, dense):
        pairs, geo = self.native_pairs(300, seed=9)
        server.edit["regmap"] = lambda rows: rows + rows[-1:]
        report = run_overlap_bench([300], reps=1, backends=self.BACKENDS, seed=9)
        assert [r.backend for r in report.rows] == ["native", "native"]
        assert report.context[1:] == [
            SKIPPED_NOTE,
            f"overlap size=300: pairs={pairs} geo_pairs={geo}",
            f"error: postgres overlap size=300: regmap rows {pairs + 1} != native pairs {pairs}",
        ]
        assert len(server.connections) == 1 and server.connections[0].closed

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("regmap", lambda row: (row[1], row[0], *row[2:])),  # ids swapped
            ("regmap", lambda row: (*row[:4], row[4] + 1)),  # centre distance off by one
            ("geo", lambda row: (row[1], row[0])),  # ids swapped
        ],
    )
    def test_overlap_row_mismatch_with_the_right_count_becomes_a_note(
        self, server, dense, kind, edit
    ):
        first = []

        def edit_first_row(rows):
            first.append(rows[0])
            return [edit(rows[0]), *rows[1:]]

        server.edit[kind] = edit_first_row
        report = run_overlap_bench([300], reps=1, backends=self.BACKENDS, seed=9)
        assert [r.backend for r in report.rows] == ["native", "native"]
        got, want = (tuple(map(str, row)) for row in (edit(first[0]), first[0]))
        native = {"regmap": "native pairs", "geo": "native geo pairs"}[kind]
        assert report.context[-1] == (
            f"error: postgres overlap size=300: {kind} row 0 {got} != {native} row {want}"
        )

    def test_failed_connect_becomes_a_note(self, monkeypatch):
        def refuse(backend):
            raise RuntimeError("no server")

        monkeypatch.setattr(dbadapter, "connect", refuse)
        report = run_insertion_bench([10, 20], reps=1, backends=self.BACKENDS)
        assert [r.backend for r in report.rows] == ["native"] * 4
        assert report.context[1:] == [
            SKIPPED_NOTE,
            "error: postgres insertion size=10: no server",
            "error: postgres insertion size=20: no server",
        ]

    def test_schema_reset_runs_outside_the_timer(self, server, monkeypatch):
        # The fake clock reads the number of statements run so far, so a
        # timing is the number of statements its repetition ran.
        def clock():
            return float(sum(len(conn.statements) for conn in server.connections))

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=clock))
        regions = generate_regions(GenConfig(seed=4, count=40))
        report = run_insertion_bench([40], reps=2, backends=self.BACKENDS, seed=4)
        timed = {r.scenario: (r.min_s, r.max_s) for r in report.rows if r.backend == "postgres"}
        for scenario, emit in (
            ("insert_batch", sqlgen.emit_batch_insert),
            ("insert_rowwise", sqlgen.emit_rowwise_insert),
        ):
            count = len(emit(POSTGRES.dialect, regions).statements())
            assert timed[scenario] == (count, count)
        # The reset still runs before every repetition, warm-up included.
        statements = server.connections[0].statements
        assert statements.count("drop view if exists vwregions;") == 2 * 3

        files = sorted(toy_catalog_path().parent.glob("*.bed"))
        report = run_import_bench(files, reps=2, backends=self.BACKENDS)
        (row,) = [r for r in report.rows if r.backend == "postgres"]
        count = sum(
            len(sqlgen.emit_bulk_import(POSTGRES.dialect, str(f.resolve()), dataset=i).statements())
            for i, f in enumerate(files, 1)
        )
        assert (row.min_s, row.max_s) == (count, count)
