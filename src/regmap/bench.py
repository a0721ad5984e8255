"""Seeded data generation and wall-clock benchmarks.

Four workload families are timed: insertion (batch vs rowwise), staged
file import, overlap joins, and searches. The native in-memory engine
always runs. Live database backends configured through the environment
also run insertion, import and overlap (search has no database cell),
each on a connection of its own; a failed cell becomes an ``error:``
note. Timings are reported as mean/min/max over repetitions with one
discarded warm-up repetition; correctness cross-checks (pair counts,
result sets, and row counts of native imports only) are enforced on
every run and never depend on timing.

Data generation is fully deterministic for a given seed: a PCG64
stream drives chromosome, length and start draws, and derived datasets
use spawned child seeds so every scenario is reproducible bit for bit.

Scenarios run serially to keep timings honest.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import closing
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from itertools import product
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import dbadapter, sqlgen
from .bedio import as_records, parse_bed_file, write_lines
from .columns import RegionColumns, window_join
from .intervals import GenomicRegion, RawRegion, centre_distance_sql_compat
from .joins import JoinFilter, nested_loop_join
from .store import RegionStore

__all__ = [
    "GenConfig",
    "BenchRow",
    "BenchmarkReport",
    "DEFAULT_CHROMOSOMES",
    "generate_regions",
    "make_invalid_rows",
    "run_insertion_bench",
    "run_import_bench",
    "run_overlap_bench",
    "run_search_bench",
    "add_search_writes",
    "write_report",
    "report_to_json",
    "report_from_json",
    "REPORT_COLUMNS",
]

DEFAULT_CHROMOSOMES: tuple[str, ...] = tuple(f"chr{i}" for i in range(1, 23)) + ("chrX",)

# Reference timings from the original RegMap benchmarks (PostgreSQL 9.0 vs
# MySQL 5.6, 4-core 2.4 GHz desktop); recorded as context, never asserted.
CONTEXT_INSERTION = (
    "reference timings, original RegMap benchmarks: 5K batch insert 1 s (postgres)"
    " vs 219 s (mysql-innodb) / 237 s (mysql-myisam); 80K in 4 s vs ~3600 s"
)
CONTEXT_IMPORT = (
    "reference timings, original RegMap benchmarks: 1005 files / 23.8M regions"
    " imported in ~445 s (postgres) vs ~2940 s (mysql-innodb) / ~2460 s (mysql-myisam)"
)
CONTEXT_OVERLAP = (
    "reference timings, original RegMap benchmarks: 80K x 80K overlap join 134 s"
    " (postgres regmap) vs 257 s (postgres geo) vs 1119 s (mysql-innodb regmap)"
)
CONTEXT_SEARCH = (
    "reference timings, original RegMap benchmarks: invalid-row scan over 24M rows"
    " ~5 s (postgres); 100 kb proximity query 3-5 s, ~1 s with an index"
)


@dataclass(frozen=True, slots=True)
class GenConfig:
    """Random region generation parameters."""

    seed: int = 0
    count: int = 1000
    chromosomes: tuple[str, ...] = DEFAULT_CHROMOSOMES
    coord_lower: int = 0
    coord_upper: int = 200_000_000
    max_size: int = 500
    fixed_size: bool = False

    def __post_init__(self) -> None:
        if not self.chromosomes:
            raise ValueError("chromosomes must be non-empty")
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.coord_upper - self.coord_lower <= self.max_size:
            raise ValueError("coordinate range must exceed max_size")
        if self.count < 0:
            raise ValueError("count must be >= 0")


def generate_regions(config: GenConfig) -> list[GenomicRegion]:
    """Deterministic random regions: uniform chromosome, length uniform
    in [1, max_size] (or exactly max_size with fixed_size), start
    uniform in [coord_lower, coord_upper - length]."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = config.count
    chrom_idx = rng.integers(0, len(config.chromosomes), size=n)
    if config.fixed_size:
        sizes = np.full(n, config.max_size, dtype=np.int64)
    else:
        sizes = rng.integers(1, config.max_size + 1, size=n)
    starts = rng.integers(config.coord_lower, config.coord_upper - sizes + 1)
    chroms = config.chromosomes
    return [
        GenomicRegion(chroms[c], int(s), int(s) + int(size))
        for c, s, size in zip(chrom_idx.tolist(), starts.tolist(), sizes.tolist())
    ]


def make_invalid_rows(count: int, seed: int = 0, chrom: str = "chr1") -> list[RawRegion]:
    """Deliberately malformed raw records (negative start or end < start)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for i in range(count):
        if i % 2 == 0:
            start = -int(rng.integers(1, 1000))
            rows.append(RawRegion(chrom, start, start + 100))
        else:
            start = int(rng.integers(1000, 10_000))
            rows.append(RawRegion(chrom, start, start - int(rng.integers(1, 500))))
    return rows


@dataclass(frozen=True, slots=True)
class BenchRow:
    scenario: str
    backend: str
    size: int
    reps: int
    mean_s: float
    min_s: float
    max_s: float


# The report schema is BenchRow's: TSV columns and JSON keys in field
# order; a JSON value is read back through its field's int or float.
REPORT_COLUMNS = tuple(f.name for f in fields(BenchRow))
_JSON_COERCIONS = tuple(
    {"int": int, "float": float}.get(f.type, lambda value: value) for f in fields(BenchRow)
)


@dataclass(slots=True)
class BenchmarkReport:
    """Timed scenario results plus free-form context lines."""

    rows: list[BenchRow] = field(default_factory=list)
    context: list[str] = field(default_factory=list)

    def add(self, scenario: str, backend: str, size: int, timings: Sequence[float]) -> None:
        self.rows.append(
            BenchRow(
                scenario=scenario,
                backend=backend,
                size=size,
                reps=len(timings),
                mean_s=statistics.fmean(timings),
                min_s=min(timings),
                max_s=max(timings),
            )
        )

    def note(self, line: str) -> None:
        self.context.append(line)


def _time_reps(
    run: Callable[[], None], reps: int, setup: Callable[[], None] | None = None
) -> list[float]:
    """Wall-clock one callable: one discarded warm-up run, then ``reps``
    measured ones. ``setup`` runs before every run, outside the timer."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    timings = []
    for _ in range(reps + 1):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        run()
        timings.append(time.perf_counter() - t0)
    return timings[1:]


def _new_report(context: str, backends) -> BenchmarkReport:
    """A report opening with its reference-timing line, then one
    ``skipped:`` note per disabled backend."""
    report = BenchmarkReport(context=[context])
    for b in backends or []:
        if not b.enabled:
            report.note(f"skipped: {b.name} (no connection URL configured)")
    return report


def _db_cells(report: BenchmarkReport, backends, label: str, cell) -> None:
    """Run ``cell(backend, conn)`` for each enabled backend on a
    connection of its own, closed afterwards; a cell that fails becomes
    the note ``error: <backend> <label>: <exception>``."""
    for backend in backends or []:
        if not backend.enabled:
            continue
        try:
            with closing(dbadapter.connect(backend)) as conn:
                cell(backend, conn)
        except Exception as exc:  # per-cell isolation
            report.note(f"error: {backend.name} {label}: {exc}")


def run_insertion_bench(
    sizes: Iterable[int],
    reps: int = 3,
    backends: Sequence[dbadapter.BackendConfig] | None = None,
    seed: int = 0,
) -> BenchmarkReport:
    """Batch vs rowwise insertion of freshly generated regions; the two
    native stores' rows are verified equal."""
    report = _new_report(CONTEXT_INSERTION, backends)
    for size in sizes:
        regions = generate_regions(GenConfig(seed=seed, count=size))
        batch = partial(_inserted, RegionStore.insert_regions_batch, regions)
        rowwise = partial(_inserted, RegionStore.insert_regions_rowwise, regions)
        report.add("insert_batch", "native", size, _time_reps(batch, reps))
        report.add("insert_rowwise", "native", size, _time_reps(rowwise, reps))
        if batch().rows() != rowwise().rows():
            raise AssertionError("batch and rowwise insertion rows differ")
        _db_cells(report, backends, f"insertion size={size}",
                  partial(_db_insertion_cell, report, regions, size, reps))
    return report


def _inserted(insert, regions) -> RegionStore:
    """A new store after ``insert(store, "bench", regions)``."""
    store = RegionStore()
    insert(store, "bench", regions)
    return store


def _db_insertion_cell(report, regions, size, reps, backend, conn) -> None:
    scripts = (
        ("insert_batch", sqlgen.emit_batch_insert(backend.dialect, regions)),
        ("insert_rowwise", sqlgen.emit_rowwise_insert(backend.dialect, regions)),
    )
    reset = partial(dbadapter.reset_schema, backend, conn=conn)
    for scenario, script in scripts:
        run = partial(dbadapter.execute_script, backend, script, conn=conn)
        report.add(scenario, backend.name, size, _time_reps(run, reps, setup=reset))


def run_import_bench(
    files: Sequence[str | Path],
    reps: int = 3,
    backends: Sequence[dbadapter.BackendConfig] | None = None,
) -> BenchmarkReport:
    """Three-step staged import of BED files; each engine must load the native row count.

    Malformed lines are skipped; when the files hold any, the note
    ``import files=K: rows=N rejected=M`` counts them."""
    report = _new_report(CONTEXT_IMPORT, backends)
    parsed = []
    total = rejected = 0
    for i, path in enumerate(files):
        regions, parse = parse_bed_file(path, mode="permissive")
        parsed.append((f"ds{i + 1}", regions))
        total += len(regions)
        rejected += parse.rejected
    if rejected:
        report.note(f"import files={len(files)}: rows={total} rejected={rejected}")

    def run_native() -> None:
        store = RegionStore()
        imported = 0
        for name, regions in parsed:
            imported += store.import_dataset(name, regions)
        if imported != total or len(store) != total or store.staging_size != 0:
            raise AssertionError("import row-count check failed")

    report.add("import_staged", "native", total, _time_reps(run_native, reps))
    _db_cells(report, backends, "import", partial(_db_import_cell, report, files, total, reps))
    return report


def _db_import_cell(report, files, total, reps, backend, conn) -> None:
    def run() -> None:
        for i, path in enumerate(files):
            script = sqlgen.emit_bulk_import(
                backend.dialect, str(Path(path).resolve()), dataset=i + 1
            )
            dbadapter.execute_script(backend, script, conn=conn)

    reset = partial(dbadapter.reset_schema, backend, conn=conn)
    timings = _time_reps(run, reps, setup=reset)
    ((count,),) = dbadapter.execute_statement(conn, "select count(*) from regions;")
    if count != str(total):
        raise AssertionError(f"database rows {count} != native rows {total}")
    report.add("import_staged", backend.name, total, timings)


NESTED_LOOP_CAP = 10_000
# The overlap scenario's regions lie below this coordinate on each of
# the default chromosomes: at the default size of 5,000 the two sets
# make about 5,000 pairs, some of them touching, while the nested-loop
# reference still compares only same-chromosome rows.
OVERLAP_COORD_UPPER = 100_000


def run_overlap_bench(
    sizes: Iterable[int],
    reps: int = 3,
    backends: Sequence[dbadapter.BackendConfig] | None = None,
    seed: int = 0,
) -> BenchmarkReport:
    """Overlap joins over two independent generated datasets per size,
    placed below OVERLAP_COORD_UPPER so that they make pairs.

    The sweep and nested-loop joins see identical data. The sweep row
    times ``columns.window_join`` on columns built once, as ``regmap
    overlap`` joins them. Pair counts must agree wherever semantics
    coincide; the nested-loop reference is capped at NESTED_LOOP_CAP
    regions per side. A database's rows must equal the native pairs.
    """
    report = _new_report(CONTEXT_OVERLAP, backends)
    for size in sizes:
        child_a, child_b = np.random.SeedSequence(seed).spawn(2)
        seed_a = int(child_a.generate_state(1)[0])
        seed_b = int(child_b.generate_state(1)[0])
        regions_a = generate_regions(GenConfig(seed=seed_a, count=size, coord_upper=OVERLAP_COORD_UPPER))
        regions_b = generate_regions(GenConfig(seed=seed_b, count=size, coord_upper=OVERLAP_COORD_UPPER))
        a = list(enumerate(regions_a, start=1))
        b = list(enumerate(regions_b, start=len(regions_a) + 1))

        a_cols, b_cols = RegionColumns.from_id_regions(a), RegionColumns.from_id_regions(b)
        sweep = partial(window_join, a_cols, b_cols, JoinFilter())
        pairs = sweep()
        sweep_count = len(pairs)
        report.add("overlap_sweep", "native", size, _time_reps(sweep, reps))
        if size <= NESTED_LOOP_CAP:
            nested_count = len(nested_loop_join(a, b))
            if nested_count != sweep_count:
                raise AssertionError(
                    f"join variants disagree: nested={nested_count} sweep={sweep_count}"
                )
            report.add(
                "overlap_nested",
                "native",
                size,
                _time_reps(lambda: nested_loop_join(a, b), reps),
            )
        # adjacency-inclusive: closed segments that touch count too
        geo_pairs = window_join(a_cols, b_cols, JoinFilter(min_bp=0))
        geo_count = len(geo_pairs)
        if geo_count < sweep_count:
            raise AssertionError(
                f"geo count {geo_count} below overlap count {sweep_count}"
            )
        report.note(
            f"overlap size={size}: pairs={sweep_count} geo_pairs={geo_count}"
        )
        _db_cells(report, backends, f"overlap size={size}",
                  partial(_db_overlap_cell, report, regions_a, regions_b, size, reps,
                          pairs, geo_pairs))
    return report


def _db_overlap_cell(report, regions_a, regions_b, size, reps,
                     pairs, geo_pairs, backend, conn) -> None:
    dbadapter.reset_schema(backend, conn=conn)
    start_id = 1
    for dataset, regions in enumerate((regions_a, regions_b), start=1):
        script = sqlgen.emit_batch_insert(backend.dialect, regions, dataset, start_id)
        dbadapter.execute_script(backend, script, conn=conn)
        start_id += len(regions)
    regmap_script = sqlgen.emit_regmap_query(backend.dialect)
    geo_script = sqlgen.emit_geo_query(backend.dialect)

    rows = dbadapter.fetch_rows(backend, regmap_script, conn=conn)
    region = dict(enumerate([*regions_a, *regions_b], start=1))
    _check_rows("regmap", rows, "native pairs", [
        (p.a_id, p.b_id, p.chrom, p.bp_overlap,
         centre_distance_sql_compat(region[p.a_id], region[p.b_id]))
        for p in pairs
    ])
    geo_rows = dbadapter.fetch_rows(backend, geo_script, conn=conn)
    _check_rows("geo", geo_rows, "native geo pairs", [(p.a_id, p.b_id) for p in geo_pairs])

    for scenario, script in (("overlap_regmap_sql", regmap_script), ("overlap_geo_sql", geo_script)):
        run = partial(dbadapter.fetch_rows, backend, script, conn=conn)
        report.add(scenario, backend.name, size, _time_reps(run, reps))


def _check_rows(what: str, rows, native: str, expected) -> None:
    """Raise AssertionError unless a database's ``rows`` (as text, as
    ``dbadapter`` returns them) equal the native rows ``expected``."""
    expected = [tuple(map(str, row)) for row in expected]
    if len(rows) != len(expected):
        raise AssertionError(f"{what} rows {len(rows)} != {native} {len(expected)}")
    for i, (got, want) in enumerate(zip(rows, expected)):
        if got != want:
            raise AssertionError(f"{what} row {i} {got} != {native} row {want}")


def run_search_bench(
    store_sizes: Iterable[int],
    reps: int = 3,
    backends: Sequence[dbadapter.BackendConfig] | None = None,
    seed: int = 0,
    invalid_rows: int = 24,
) -> BenchmarkReport:
    """Invalid-row scans and windowed proximity queries, with and
    without the index, over synthetic stores seeded with a known number
    of invalid rows. The index must give the timed probe's hits and
    those of a probe at a generated row."""
    report = _new_report(CONTEXT_SEARCH, backends)
    chrom, position, window = "chr8", 128_748_314, 100_000  # the proximity probe
    for size in store_sizes:
        store = RegionStore()
        regions = generate_regions(GenConfig(seed=seed, count=size))
        bad = make_invalid_rows(invalid_rows, seed=seed + 1)
        store.import_dataset("synthetic", list(regions) + list(bad))

        found = store.find_invalid()
        if len(found) != invalid_rows:
            raise AssertionError(
                f"expected {invalid_rows} invalid rows, found {len(found)}"
            )
        report.add("search_invalid", "native", size, _time_reps(store.find_invalid, reps))

        probe = partial(store.proximity_search, chrom, position, window)
        on_row = partial(store.proximity_search, regions[0].chrom, regions[0].start, window)
        store.drop_index()
        unindexed = probe(), on_row()
        report.add("search_proximity_scan", "native", size, _time_reps(probe, reps))
        store.build_index()
        indexed = probe(), on_row()
        if indexed != unindexed:
            raise AssertionError("indexed and unindexed proximity results differ")
        report.add("search_proximity_indexed", "native", size, _time_reps(probe, reps))
        report.note(f"search size={size}: proximity hits={len(indexed[0])}")
    return report


SEARCH_WRITES = 10  # writes of size // 20 rows each in ``add_search_writes``


def add_search_writes(report: BenchmarkReport, store_sizes: Iterable[int], seed: int = 0) -> None:
    """Add a ``search_write_indexed`` row per store size to ``report``:
    ``SEARCH_WRITES`` timed writes of ``size // 20`` rows each into an
    indexed store of ``size`` rows, one timing per write. After each
    write, probes at three loci with a 100 kb and a 10 Mb half-window
    must equal those of an unindexed store holding the same rows, or
    AssertionError is raised."""
    loci = [("chr8", 128_748_314), ("chr1", 1_000_000), ("chrX", 100_000_000)]
    for size in store_sizes:
        base = as_records(generate_regions(GenConfig(seed=seed, count=size)))
        indexed, plain = RegionStore(), RegionStore()
        indexed.import_dataset("synthetic", base)
        plain.import_dataset("synthetic", base)
        indexed.build_index()
        timings = []
        for k in range(SEARCH_WRITES):
            rows = as_records(generate_regions(GenConfig(seed=seed + 2 + k, count=max(1, size // 20))))
            t0 = time.perf_counter()
            indexed.import_dataset(f"write{k}", rows)
            timings.append(time.perf_counter() - t0)
            plain.import_dataset(f"write{k}", rows)
            for (chrom, position), window in product(loci, (100_000, 10_000_000)):
                got = indexed.proximity_search(chrom, position, window)
                if got != plain.proximity_search(chrom, position, window):
                    raise AssertionError(
                        f"after write {k}: indexed and unindexed proximity results differ at {chrom}:{position}"
                    )
        report.add("search_write_indexed", "native", size, timings)


def write_report(
    report: BenchmarkReport, fmt: str = "tsv", sink: str | Path | IO | None = None
) -> str:
    """Serialize a report as TSV (context lines prefixed '#') or JSON.

    Returns the serialized text; writes it to ``sink`` when given.
    """
    if fmt == "tsv":
        lines = [f"# {line}" for line in report.context]
        lines.append("\t".join(REPORT_COLUMNS))
        for row in report.rows:
            lines.append("\t".join(
                f"{value:.6f}" if name.endswith("_s") else str(value)
                for name, value in zip(REPORT_COLUMNS, astuple(row))
            ))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = report_to_json(report)
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    if sink is not None:
        write_lines((text,), sink)
    return text


def report_to_json(report: BenchmarkReport) -> str:
    payload = {"context": list(report.context), "rows": [asdict(r) for r in report.rows]}
    return json.dumps(payload, indent=2) + "\n"


def report_from_json(text: str) -> BenchmarkReport:
    payload = json.loads(text)
    report = BenchmarkReport(context=list(payload.get("context", [])))
    for r in payload.get("rows", []):
        report.rows.append(BenchRow(*(
            convert(r[name]) for name, convert in zip(REPORT_COLUMNS, _JSON_COERCIONS)
        )))
    return report
