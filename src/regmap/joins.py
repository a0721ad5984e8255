"""Overlap joins between region datasets and the pairwise mining report.

Two join implementations produce identical output:

- ``nested_loop_join`` pairs every same-chromosome combination and is
  the executable reference for the SQL view semantics (it evaluates the
  four-branch case analysis per pair); the tests compare against it;
- ``sweep_join`` runs the one join kernel, ``columns.window_join``: A
  and B are sorted by start together, and each pair is found from its
  row that starts first, among the later rows that start by that row's
  end less ``min_bp``, so gap joins need no centre-distance bound.

A pair (a, b) is emitted when its signed bp overlap is at least
``min_bp`` and, if a bound is set, its exact centre distance is
strictly below ``max_centre_distance``. Output is ordered by
(a_id, b_id) so runs are byte-comparable.

The mining report, ``mining_report``, runs over one
``columns.RegionColumns`` of valid rows per dataset that has a
same-assembly partner (``paired_datasets``) and builds no region or
pair objects: each assembly is one ``columns.hit_counts`` matrix, whose
entry [q, r] is the number of distinct rows of dataset q that have a
pair with a row of dataset r. It takes the assemblies, and each
assembly's datasets, in name order, so it yields its rows already in
report order and sorts none. ``pairwise_mining`` feeds it from a
RegionStore's columns and returns its rows as a list; ``regmap mine``
feeds it from the BED files, converting each once, and writes each row
as it is built, so the report is never held whole.
``count_overlapping`` gives the same count for
two (id, GenomicRegion) lists. Percentages are rounded half up in
exact integer arithmetic.

The two result tables are written by ``write_pairs_tsv`` and
``write_mining_tsv`` through ``bedio.write_lines``. Each TSV's columns
(``PAIRS_TSV_HEADER``, ``MINING_TSV_HEADER``) are the fields of its row
type, ``OverlapPair`` or ``MiningRow``, in order.

Joins are pure functions over immutable inputs and thread-safe.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import Counter
from dataclasses import astuple, dataclass, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .bedio import CatalogEntry, write_lines
from .intervals import _INT64_MAX, GenomicRegion, _integer, case_overlap_coords

if TYPE_CHECKING:
    from .columns import RegionColumns
    from .store import RegionStore

__all__ = [
    "OverlapPair",
    "JoinFilter",
    "MiningRow",
    "nested_loop_join",
    "sweep_join",
    "count_overlapping",
    "paired_datasets",
    "mining_report",
    "pairwise_mining",
    "overlap_percentage",
    "write_pairs_tsv",
    "write_mining_tsv",
    "PAIRS_TSV_HEADER",
    "MINING_TSV_HEADER",
]

IdRegion = tuple[int, GenomicRegion]

@dataclass(frozen=True, slots=True)
class OverlapPair:
    """One joined row: region ids plus both derived metrics. The centre
    distance is a float, exact while the doubled distance is <= 2**53."""

    a_id: int
    b_id: int
    chrom: str
    bp_overlap: int
    centre_distance: float


@dataclass(frozen=True, slots=True)
class JoinFilter:
    """Emission conditions: bp_overlap >= min_bp, centre distance < bound.

    ``min_bp`` must be an integer (``operator.index``; a ``bool`` is
    refused), and is kept as an ``int``. A bound, kept as given, must be
    a real number a float holds (not a ``bool``) and not NaN; an
    infinite bound is no bound. The joins' kernel and the emitted SQL
    test the bound as ``twice_bound``.
    """

    min_bp: int = 1
    max_centre_distance: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_bp", _integer(self.min_bp, "min_bp"))
        bound = self.max_centre_distance
        if bound is None:
            return
        # A finite bound past float's range is an int or a Fraction.
        if bound.__class__ is bool or not isinstance(bound, numbers.Real) or (
            sys.float_info.max < abs(bound) < math.inf
        ):
            raise ValueError(f"max_centre_distance must be a real number, got {bound!r}")
        if math.isnan(bound):
            raise ValueError("max_centre_distance must not be NaN")
        if bound < 0:
            raise ValueError("max_centre_distance must be non-negative")

    @property
    def twice_bound(self) -> int | None:
        """The exact integer ``ceil(2 * max_centre_distance)``, which a
        passing pair's doubled centre distance is below. None for no bound,
        and when it would pass int64: no pair of coordinates below 2**62 is that far."""
        bound = self.max_centre_distance
        if bound is None or 2 * bound > _INT64_MAX:
            return None
        return math.ceil(2 * bound)


@dataclass(frozen=True, slots=True)
class MiningRow:
    """One query-vs-reference line of the pairwise overlap report."""

    assembly: str
    query_name: str
    query_factor: str
    query_cell_line: str
    query_treatment: str | None
    ref_name: str
    ref_factor: str
    ref_cell_line: str
    ref_treatment: str | None
    query_total: int
    overlapping: int
    percentage: float


PAIRS_TSV_HEADER = tuple(f.name for f in fields(OverlapPair))
MINING_TSV_HEADER = tuple(f.name for f in fields(MiningRow))


def _check_unique_ids(a_regions: Sequence[IdRegion], b_regions: Sequence[IdRegion]) -> None:
    for regions, label in ((a_regions, "A"), (b_regions, "B")):
        ids = [rid for rid, _ in regions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate region ids in input {label}")


def _by_chrom(regions: Sequence[IdRegion]) -> dict[str, list[tuple[int, int, int]]]:
    grouped: dict[str, list[tuple[int, int, int]]] = {}
    for rid, region in regions:
        grouped.setdefault(region.chrom, []).append((rid, region.start, region.end))
    return grouped


def nested_loop_join(
    a_regions: Sequence[IdRegion],
    b_regions: Sequence[IdRegion],
    flt: JoinFilter = JoinFilter(),
) -> list[OverlapPair]:
    """Reference join: evaluate every same-chromosome pair of A x B.

    bp overlap goes through the four-branch case analysis, exactly as
    the SQL view computes it. The doubled centre distance is compared
    with twice the bound as given, not with ``JoinFilter.twice_bound``.
    """
    _check_unique_ids(a_regions, b_regions)
    a_by_chrom = _by_chrom(a_regions)
    b_by_chrom = _by_chrom(b_regions)
    min_bp, max_cd = flt.min_bp, flt.max_centre_distance
    # An int compares exactly with a float or a Fraction; an overflowed double is inf.
    twice_max = math.inf if max_cd is None else 2 * max_cd
    pairs: list[OverlapPair] = []
    for chrom, a_rows in a_by_chrom.items():
        b_rows = b_by_chrom.get(chrom)
        if not b_rows:
            continue
        for a_id, a_start, a_end in a_rows:
            for b_id, b_start, b_end in b_rows:
                bp = case_overlap_coords(a_start, a_end, b_start, b_end)
                if bp < min_bp:
                    continue
                twice = abs((a_start + a_end) - (b_start + b_end))
                if not twice < twice_max:
                    continue
                pairs.append(OverlapPair(a_id, b_id, chrom, bp, twice / 2))
    pairs.sort(key=lambda p: (p.a_id, p.b_id))
    return pairs


def sweep_join(
    a_regions: Sequence[IdRegion],
    b_regions: Sequence[IdRegion],
    flt: JoinFilter = JoinFilter(),
) -> list[OverlapPair]:
    """Sorted window join; identical output to nested_loop_join.

    Converts both inputs to columns and runs ``columns.window_join``.
    Coordinates must lie below 2**62.
    """
    # Imported here, not at module level: ``import regmap`` must not load
    # numpy, which would add about 14 MB to every store-only process.
    from .columns import RegionColumns, window_join

    _check_unique_ids(a_regions, b_regions)
    a, b = RegionColumns.from_id_regions(a_regions), RegionColumns.from_id_regions(b_regions)
    return window_join(a, b, flt)


def count_overlapping(
    a_regions: Sequence[IdRegion],
    b_regions: Sequence[IdRegion],
    flt: JoinFilter = JoinFilter(),
) -> tuple[int, int]:
    """(overlapping, total) where overlapping counts DISTINCT A regions
    participating in at least one emitted pair, and total is |A|.

    This is the counting convention of the mining report: each query
    region counts once however many reference regions it hits.
    Coordinates must lie below 2**62.
    """
    from .columns import RegionColumns, hit_counts

    _check_unique_ids(a_regions, b_regions)
    a = RegionColumns.from_id_regions(a_regions)
    return int(hit_counts([a, RegionColumns.from_id_regions(b_regions)], flt)[0, 1]), len(a)


def overlap_percentage(overlapping: int, total: int, digits: int = 2) -> float:
    """overlapping / total as a percentage, rounded half-up to ``digits``
    places (0 for fewer). Exact: the rounding is done in integers, and
    the one division into a float rounds correctly."""
    if total == 0:
        return 0.0
    scale = 10 ** max(digits, 0)
    return (200 * scale * overlapping + total) // (2 * total) / scale


def paired_datasets(catalog: Sequence[CatalogEntry]) -> list[str]:
    """Names of the datasets the mining report reads, in catalog order:
    those with a same-assembly partner."""
    per_assembly = Counter(entry.assembly for entry in catalog)
    return [entry.name for entry in catalog if per_assembly[entry.assembly] > 1]


def mining_report(
    catalog: Sequence[CatalogEntry],
    columns: Mapping[str, RegionColumns],
    flt: JoinFilter = JoinFilter(),
) -> Iterator[MiningRow]:
    """Yield the overlap counts of every ordered pair of same-assembly
    datasets, by assembly, then by (query name, reference name).

    ``columns`` maps each name of ``paired_datasets(catalog)`` to its
    valid rows. Pairs across assemblies are never computed: each
    assembly's counts are one ``columns.hit_counts`` matrix, made when
    its first row is asked for.
    """
    from .columns import hit_counts

    paired = set(paired_datasets(catalog))
    ordered = sorted((e for e in catalog if e.name in paired), key=attrgetter("assembly", "name"))
    for assembly, group in groupby(ordered, attrgetter("assembly")):
        entries = list(group)
        sets = [columns[entry.name] for entry in entries]
        # A CatalogEntry's first four fields are a MiningRow's query_ or
        # ref_ columns, in field order.
        described = [astuple(entry)[:4] for entry in entries]
        counts = hit_counts(sets, flt).tolist()
        for query, q, a, hits in zip(entries, described, sets, counts):
            total = len(a)
            for ref, r, overlapping in zip(entries, described, hits):
                # names are unique: load_catalog refuses a duplicate
                if query.name != ref.name:
                    percentage = overlap_percentage(overlapping, total)
                    yield MiningRow(assembly, *q, *r, total, overlapping, percentage)


def pairwise_mining(
    catalog: Sequence[CatalogEntry],
    store: RegionStore,
    flt: JoinFilter = JoinFilter(),
) -> list[MiningRow]:
    """``mining_report`` over the datasets of a store, which must hold
    every catalog dataset. Only datasets with a same-assembly partner
    are read.
    """
    from .columns import RegionColumns

    names = set(store.dataset_names())
    for entry in catalog:
        if entry.name not in names:
            raise ValueError(f"catalog dataset {entry.name!r} not imported")
    stored = {name: store.columns(name) for name in paired_datasets(catalog)}
    columns = {name: RegionColumns.from_records(d.rows, d.first_id) for name, d in stored.items()}
    return list(mining_report(catalog, columns, flt))


def _format_distance(cd: float) -> str:
    return str(int(cd)) if cd == int(cd) else f"{cd:.1f}"


def write_pairs_tsv(pairs: Iterable[OverlapPair], sink: str | Path | IO) -> None:
    """Overlap pairs as TSV, header included."""
    write_lines(_pairs_lines(pairs), sink)


def _pairs_lines(pairs: Iterable[OverlapPair]) -> Iterator[str]:
    yield "\t".join(PAIRS_TSV_HEADER) + "\n"
    for p in pairs:
        yield f"{p.a_id}\t{p.b_id}\t{p.chrom}\t{p.bp_overlap}\t{_format_distance(p.centre_distance)}\n"


def write_mining_tsv(rows: Iterable[MiningRow], sink: str | Path | IO) -> None:
    """Mining report as TSV; percentage printed with exactly 2 decimals."""
    write_lines(_mining_lines(rows), sink)


def _mining_lines(rows: Iterable[MiningRow]) -> Iterator[str]:
    yield "\t".join(MINING_TSV_HEADER) + "\n"
    for r in rows:
        yield (
            f"{r.assembly}\t{r.query_name}\t{r.query_factor}\t{r.query_cell_line}\t"
            f"{r.query_treatment or ''}\t{r.ref_name}\t{r.ref_factor}\t{r.ref_cell_line}\t"
            f"{r.ref_treatment or ''}\t{r.query_total}\t{r.overlapping}\t{r.percentage:.2f}\n"
        )
