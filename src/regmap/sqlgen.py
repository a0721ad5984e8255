"""Dialect-specific SQL script emission.

Emits the schema, the overlap view/query, the geometry-based
comparison query, bulk import and insert scripts, and the two search
queries, for PostgreSQL and both common MySQL storage engines. Scripts
are deterministic bytes given (kind, dialect, parameters): lower-case
identifiers, explicit column lists, LF line endings, trailing newline.

Only validated integers and token-checked identifiers are substituted
into script text; arbitrary strings are never interpolated. An integer
parameter is anything ``operator.index`` takes except a ``bool``. Every
id, dataset number, coordinate and proximity-window bound written must
lie in the bigint range [-2**63, 2**63 - 1], else ValueError: a wider
value is refused by PostgreSQL's and MySQL's BIGINT and read back as a
REAL by SQLite. A dataset number written into a row must also fit
``regiondesc_id integer``, [-2**31, 2**31 - 1], and a chromosome name
``varchar(64)``. Filter literals are compared, not stored: ``min_bp``
is written as given and the centre-distance bound as
``JoinFilter.twice_bound``, an integer; the dataset numbers a query
compares need only the bigint range.

Column naming: ``start``/``end`` are reserved words in at least one
target dialect, so the physical columns are ``start_pos``/``end_pos``.
The overlap view keeps its historical column names ``bpooverlap`` and
``centredistance`` so existing filter queries keep working.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Sequence

from .intervals import _INT64_MAX, _INT64_MIN, GenomicRegion, _integer
from .joins import JoinFilter

__all__ = [
    "SqlDialect",
    "ScriptKind",
    "SqlScript",
    "DEMO_REGIONS",
    "emit_ddl",
    "emit_regmap_query",
    "emit_geo_query",
    "emit_bulk_import",
    "emit_random_gen",
    "emit_batch_insert",
    "emit_rowwise_insert",
    "emit_search_queries",
    "emit_all",
]


class SqlDialect(enum.Enum):
    POSTGRES = "postgres"
    MYSQL_INNODB = "mysql_innodb"
    MYSQL_MYISAM = "mysql_myisam"

    @property
    def is_mysql(self) -> bool:
        return self in (SqlDialect.MYSQL_INNODB, SqlDialect.MYSQL_MYISAM)


class ScriptKind(enum.Enum):
    DDL = "ddl"
    REGMAP_QUERY = "regmap_query"
    GEO_QUERY = "geo_query"
    BULK_IMPORT = "bulk_import"
    RANDOM_GEN = "random_gen"
    ROWWISE_INSERT = "rowwise_insert"
    BATCH_INSERT = "batch_insert"
    INVALID_SEARCH = "invalid_search"
    PROXIMITY_SEARCH = "proximity_search"


@dataclass(frozen=True, slots=True)
class SqlScript:
    """One emitted script: kind, dialect and exact text."""

    kind: ScriptKind
    dialect: SqlDialect
    text: str

    @property
    def filename(self) -> str:
        return f"{self.kind.value}.{self.dialect.value}.sql"

    def statements(self) -> list[str]:
        """Individual statements; every statement ends with ';'.

        Emitted scripts terminate each statement with ';' at end of
        line, which is the split point (no emitted literal contains
        one).
        """
        parts = self.text.split(";\n")
        return [p.strip() + ";" for p in parts if p.strip()]


# Default demo rows used for parameterless emission (CLI, goldens).
DEMO_REGIONS: tuple[GenomicRegion, ...] = (
    GenomicRegion("chr1", 100, 250),
    GenomicRegion("chr1", 200, 600),
    GenomicRegion("chr2", 400, 900),
    GenomicRegion("chr8", 128748300, 128748400),
    GenomicRegion("chrX", 5000, 5500),
)

_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.]+$")
_PATH_RE = re.compile(r"^[A-Za-z0-9_./\\:~-]+$")

_INSERT_REGIONS = "insert into regions (id, regiondesc_id, chromosome, start_pos, end_pos)"
_MAX_ID_JOIN = "cross join (select coalesce(max(id), 0) as max_id from regions) mx;"


def _check_int(value: int, name: str) -> int:
    """``value`` under the integer rule, refused unless a BIGINT holds it."""
    value = _integer(value, name)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{name} must lie in the bigint range, got {value}")
    return value


def _check_dataset(value: int) -> int:
    """A dataset number written into a row: ``regions.regiondesc_id`` is
    an ``integer`` column, so it must also lie in [-2**31, 2**31 - 1]."""
    ds = _check_int(value, "dataset")
    if not -(2**31) <= ds < 2**31:
        raise ValueError(f"dataset must lie in the integer range of regiondesc_id, got {ds}")
    return ds


def _check_token(value: str, name: str) -> str:
    if not _TOKEN_RE.match(value):
        raise ValueError(f"{name} must be a plain token, got {value!r}")
    return value


def _check_path(value: str) -> str:
    if not _PATH_RE.match(value):
        raise ValueError(f"unsafe characters in path: {value!r}")
    return value


def _engine_suffix(dialect: SqlDialect) -> str:
    if dialect is SqlDialect.MYSQL_INNODB:
        return " engine=innodb"
    if dialect is SqlDialect.MYSQL_MYISAM:
        return " engine=myisam"
    return ""


def emit_ddl(dialect: SqlDialect) -> SqlScript:
    """Schema: production regions, their description link, and staging."""
    eng = _engine_suffix(dialect)
    text = f"""\
create table regiondesc (
    id integer not null,
    name varchar(255) not null,
    annotation text,
    primary key (id),
    unique (name)
){eng};

create table regions (
    id bigint not null,
    regiondesc_id integer not null,
    chromosome varchar(64) not null,
    start_pos bigint not null,
    end_pos bigint not null,
    primary key (id)
){eng};

create table staging_regions (
    chromosome varchar(64) not null,
    start_pos bigint not null,
    end_pos bigint not null
){eng};
"""
    return SqlScript(ScriptKind.DDL, dialect, text)


_BP_CASE = """\
    case
        when a.end_pos <= b.end_pos and a.start_pos >= b.start_pos then a.end_pos - a.start_pos
        when b.end_pos <= a.end_pos and b.start_pos >= a.start_pos then b.end_pos - b.start_pos
        when a.end_pos <= b.end_pos and a.start_pos <= b.start_pos then a.end_pos - b.start_pos
        when a.end_pos >= b.end_pos and a.start_pos >= b.start_pos then b.end_pos - a.start_pos
    end as bpooverlap"""


def _region_pairs(query_dataset: int, ref_dataset: int) -> str:
    """The from and where lines that pair the rows of two datasets on
    one chromosome, as the overlap view and the geometry query do."""
    q = _check_int(query_dataset, "query_dataset")
    r = _check_int(ref_dataset, "ref_dataset")
    return f"""\
from regions a
join regions b
    on a.chromosome = b.chromosome
where a.regiondesc_id = {q}
  and b.regiondesc_id = {r}"""


def emit_regmap_query(
    dialect: SqlDialect,
    flt: JoinFilter = JoinFilter(),
    query_dataset: int = 1,
    ref_dataset: int = 2,
) -> SqlScript:
    """Overlap view plus the filtered select over it.

    The view computes bp overlap through the four-branch case analysis
    and centre distance with integer division, exactly as the native
    sql-compat mode models it. MySQL needs ``div`` for integer
    division; PostgreSQL truncates ``/`` on integers. Twice the exact
    distance must be below the filter's integer ``twice_bound``, as in
    the native join; with no ``twice_bound`` there is no clause. Rows
    with ``start_pos < 0`` or ``end_pos < start_pos`` take part on
    neither side, as in the native joins.
    """
    pairs = _region_pairs(query_dataset, ref_dataset)
    div = "div" if dialect.is_mysql else "/"
    where = [f"where bpooverlap >= {flt.min_bp}"]  # JoinFilter checks min_bp
    if (twice_bound := flt.twice_bound) is not None:
        where.append(f"  and twicecentredistance < {twice_bound}")
    where_clause = "\n".join(where)
    text = f"""\
create or replace view vwregions as
select
    a.id as a_id,
    b.id as b_id,
    a.chromosome as chromosome,
{_BP_CASE},
    abs((a.end_pos + a.start_pos) {div} 2 - (b.end_pos + b.start_pos) {div} 2) as centredistance,
    abs((a.end_pos + a.start_pos) - (b.end_pos + b.start_pos)) as twicecentredistance
{pairs}
  and a.start_pos >= 0
  and a.end_pos >= a.start_pos
  and b.start_pos >= 0
  and b.end_pos >= b.start_pos;

select a_id, b_id, chromosome, bpooverlap, centredistance
from vwregions
{where_clause}
order by a_id, b_id;
"""
    return SqlScript(ScriptKind.REGMAP_QUERY, dialect, text)


def emit_geo_query(
    dialect: SqlDialect, query_dataset: int = 1, ref_dataset: int = 2
) -> SqlScript:
    """Boolean intersection of 1-D segments via the dialect's geometry
    machinery; returns matched id pairs only."""
    pairs = _region_pairs(query_dataset, ref_dataset)
    if dialect.is_mysql:
        predicate = (
            "st_intersects(\n"
            "      st_geomfromtext(concat('linestring(', a.start_pos, ' 0, ', a.end_pos, ' 0)')),\n"
            "      st_geomfromtext(concat('linestring(', b.start_pos, ' 0, ', b.end_pos, ' 0)'))\n"
            "  )"
        )
    else:
        predicate = (
            "lseg(point(a.start_pos, 0), point(a.end_pos, 0))"
            " ?# lseg(point(b.start_pos, 0), point(b.end_pos, 0))"
        )
    text = f"""\
select
    a.id as a_id,
    b.id as b_id
{pairs}
  and {predicate}
order by a_id, b_id;
"""
    return SqlScript(ScriptKind.GEO_QUERY, dialect, text)


def emit_bulk_import(
    dialect: SqlDialect, file_path: str = "/tmp/regions.bed", dataset: int = 1
) -> SqlScript:
    """Three-step staged import: load staging, copy with id assignment,
    empty staging."""
    path = _check_path(file_path)
    ds = _check_dataset(dataset)
    if dialect.is_mysql:
        load = (
            f"load data infile '{path}' into table staging_regions"
            " fields terminated by '\\t' lines terminated by '\\n'"
            " (chromosome, start_pos, end_pos);"
        )
    else:
        load = (
            f"copy staging_regions (chromosome, start_pos, end_pos)"
            f" from '{path}' with (format text);"
        )
    text = f"""\
{load}

{_INSERT_REGIONS}
select mx.max_id + row_number() over (order by s.chromosome, s.start_pos, s.end_pos),
    {ds},
    s.chromosome,
    s.start_pos,
    s.end_pos
from staging_regions s
{_MAX_ID_JOIN}

truncate table staging_regions;
"""
    return SqlScript(ScriptKind.BULK_IMPORT, dialect, text)


def emit_random_gen(
    dialect: SqlDialect,
    count: int = 5000,
    coord_lower: int = 0,
    coord_upper: int = 200_000_000,
    max_size: int = 500,
    dataset: int = 1,
    chromosome_count: int = 23,
) -> SqlScript:
    """Generate ``count`` random regions in memory and insert them in a
    single transaction.

    Starts fall in [coord_lower, coord_upper - max_size) and sizes in
    [1, max_size], so every region stays inside the coordinate range.
    """
    n = _check_int(count, "count")
    lo = _check_int(coord_lower, "coord_lower")
    hi = _check_int(coord_upper, "coord_upper")
    size = _check_int(max_size, "max_size")
    ds = _check_dataset(dataset)
    nchrom = _check_int(chromosome_count, "chromosome_count")
    if n < 1:
        raise ValueError(f"count must be >= 1, got {n}")
    if size < 1:
        raise ValueError(f"max_size must be >= 1, got {size}")
    if hi - lo <= size:
        raise ValueError("coordinate range must exceed max_size")
    span = hi - lo - size
    if dialect.is_mysql:
        depth = f"set session cte_max_recursion_depth = {n + 1};\n\n"
        seq = ("with recursive seq (n) as (\n    select 1\n    union all\n"
               f"    select n + 1 from seq where n < {n}\n)\n")
        alias, rows = "seq", "seq"
        chrom = f"concat('chr', 1 + floor(rand() * {nchrom}))"
        rand, integer = "rand", "signed"
    else:
        depth = seq = ""
        alias, rows = "gs", f"generate_series(1, {n}) as gs(n)"
        chrom = f"'chr' || cast(1 + floor(random() * {nchrom}) as varchar)"
        rand, integer = "random", "bigint"
    text = f"""\
{depth}start transaction;

{_INSERT_REGIONS}
{seq}select mx.max_id + r.n,
    {ds},
    r.chromosome,
    r.start_pos,
    r.start_pos + r.size
from (
    select {alias}.n as n,
        {chrom} as chromosome,
        cast({lo} + floor({rand}() * {span}) as {integer}) as start_pos,
        cast(1 + floor({rand}() * {size}) as {integer}) as size
    from {rows}
) r
{_MAX_ID_JOIN}

commit;
"""
    return SqlScript(ScriptKind.RANDOM_GEN, dialect, text)


def _region_values(regions: Sequence[GenomicRegion], dataset: int, start_id: int) -> list[str]:
    """The ``(id, dataset, 'chrom', start, end)`` literal of each region,
    with ids counting up from ``start_id``."""
    ds = _check_dataset(dataset)
    sid = _check_int(start_id, "start_id")
    return [
        f"({_check_int(sid + offset, 'id')}, {ds}, '{_check_chromosome(region.chrom)}',"
        f" {_check_int(region.start, 'start')}, {_check_int(region.end, 'end')})"
        for offset, region in enumerate(regions)
    ]


def _check_chromosome(name: str) -> str:
    """A chromosome name written into a row: a plain token that
    ``chromosome varchar(64)`` holds."""
    if len(name) > 64:
        raise ValueError(f"chromosome must be at most 64 characters, got {len(name)}: {name!r}")
    return _check_token(name, "chromosome")


def emit_batch_insert(
    dialect: SqlDialect,
    regions: Sequence[GenomicRegion] = DEMO_REGIONS,
    dataset: int = 1,
    start_id: int = 1,
) -> SqlScript:
    """All rows in one multi-row insert inside one transaction."""
    values = _region_values(regions, dataset, start_id)
    if not values:
        raise ValueError("batch insert needs at least one region")
    rows = ",\n".join(f"    {v}" for v in values)
    text = f"start transaction;\n\n{_INSERT_REGIONS} values\n{rows};\n\ncommit;\n"
    return SqlScript(ScriptKind.BATCH_INSERT, dialect, text)


def emit_rowwise_insert(
    dialect: SqlDialect,
    regions: Sequence[GenomicRegion] = DEMO_REGIONS,
    dataset: int = 1,
    start_id: int = 1,
) -> SqlScript:
    """One autocommit insert statement per row (no transaction wrapper)."""
    stmts = [f"{_INSERT_REGIONS} values {v};" for v in _region_values(regions, dataset, start_id)]
    return SqlScript(ScriptKind.ROWWISE_INSERT, dialect, "\n".join(stmts) + "\n")


def emit_search_queries(
    dialect: SqlDialect,
    chrom: str = "chr8",
    position: int = 128_748_314,
    window: int = 100_000,
) -> list[SqlScript]:
    """The erroneous-region scan and the windowed proximity query.

    The proximity query, like the native search, returns valid rows
    only. Defaults are the MYC transcription start site with a 100 kb window
    on either side.
    """
    c = _check_token(chrom, "chrom")
    pos = _check_int(position, "position")
    win = _check_int(window, "window")
    if win < 1:
        raise ValueError(f"window must be >= 1, got {win}")
    lo = _check_int(pos - win, "window start")
    hi = _check_int(pos + win, "window end")
    select = "select id, regiondesc_id, chromosome, start_pos, end_pos\nfrom regions\n"
    invalid = f"""\
{select}where start_pos < 0
   or end_pos < start_pos
order by id;
"""
    proximity = f"""\
{select}where chromosome = '{c}'
  and start_pos >= 0
  and end_pos >= start_pos
  and least(end_pos, {hi}) - greatest(start_pos, {lo}) >= 1
order by id;
"""
    return [
        SqlScript(ScriptKind.INVALID_SEARCH, dialect, invalid),
        SqlScript(ScriptKind.PROXIMITY_SEARCH, dialect, proximity),
    ]


def emit_all(dialect: SqlDialect) -> list[SqlScript]:
    """Every script kind for one dialect, default parameters."""
    scripts = [
        emit_ddl(dialect),
        emit_regmap_query(dialect),
        emit_geo_query(dialect),
        emit_bulk_import(dialect),
        emit_random_gen(dialect),
        emit_batch_insert(dialect),
        emit_rowwise_insert(dialect),
    ]
    scripts.extend(emit_search_queries(dialect))
    return scripts
