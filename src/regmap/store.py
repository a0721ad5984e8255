"""In-memory region store mirroring the database-side structures.

Every record, valid or not, is kept with its dataset in import order,
under store-wide ids 1..N. Datasets are write-once: a write rejects a
name already present, and no row is ever updated or deleted. Imports
run in three steps like the staged bulk load of the SQL backends: fill
a staging buffer, copy it into production while assigning ids, then
empty staging. A failed import leaves production untouched, and
staging is always empty once an import returns.

Representation: no Python object is kept per row. A dataset
(``DatasetColumns``) is its first id, its rows as one
``bedio.BedRecords`` and the offsets of its invalid rows (``start < 0``
or ``end < start``), found once at import. A parsed file's columns, by
either reader, are kept as they are; other records, on either write
path, go through ``bedio.as_records``.
``StoredRegion``/``RawRegion`` objects are built only at the API edge
(``rows()``, ``regions()``, search hits and ``find_invalid``), fresh and
equal to what was imported; a ``BedRecords`` holds only checked names,
so every read skips the constructors' checks.

An optional index serves proximity queries. It is the interval index
the joins use (``intervals._by_code`` and ``_sorted_entry``): one
entry per chromosome, covering every dataset, over the valid rows
``_by_code`` admits at ``min_bp = 1`` (the only rows a probe can hit),
with their ids as the entry's rows. Each entry is a run set
(``intervals._with_run``): a few immutable runs, each sorted by start
with a running maximum of ends, and under half the size of the one
before it unless it is small.
``build_index`` makes one run per chromosome. A write adds its rows
as a new run, sorting only them, and merges that run into the runs
before it only while they are at most twice its size or small, so a
row is copied O(log n) times and a write costs about its own rows, not
the size of the index. A probe looks in every run: one ``_windows``
lookup each, a filter of the candidates (in Python when they are few,
else vectorised), then one sort of the hits by id; a bisect over the
datasets' first ids, kept in the index, names each hit's dataset.
Results are identical with and without the index. Without an index,
or for a window that leaves int64, a probe is a linear scan of the
columns, the reference the tests compare the index against.

The store loads numpy at the first ``build_index``, never for writes,
``find_invalid`` or an unindexed probe, so ``import regmap`` stays
numpy-free. A file's parse (``bedio.parse_bed_file``) loads it once the
paths the process parsed without it reach ``bedio._NUMPY_AFTER`` bytes
(2 MiB), so a store loaded from more than that has numpy before its
first ``build_index``, and ``regmap search`` over such files loads it
too, with the one OpenBLAS thread ``cli.main`` gives every command. A
dataset's search for invalid rows uses numpy only when it is already
loaded.

Concurrency: any number of reader threads may run beside writers.
Writes and index builds and drops are serialized on an internal lock
and publish new structures instead of mutating published ones; no
published column, array or run is written after it is published (a
write publishes a new index, whose entries share the runs it did not
merge). A query reads each published structure once (an indexed probe
reads only the index, which names the dataset of every id it holds; a
probe whose window leaves int64 reads only the datasets), so its
result is correct for the store before or after a concurrent write; a
rowwise insert's dataset is seen either absent or with every record it
committed. Query results are fresh lists of fresh objects.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING

from .bedio import BedRecords, as_records
from .intervals import _INT64_MAX, _INT64_MIN, GenomicRegion, RawRegion, _integer, _raw_region
from .intervals import _by_code, _unchecked, _windows, _with_run

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StoredRegion", "DatasetColumns", "RegionStore"]

@dataclass(frozen=True, slots=True)
class StoredRegion:
    """One production row: store-wide unique id, dataset, raw record."""

    id: int
    dataset: str
    region: RawRegion


_stored_region = _unchecked(StoredRegion)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class DatasetColumns:
    """One dataset; row i of ``rows`` has id ``first_id + i``. Read-only:
    the store never changes it once published, and callers must not
    either. Compared by identity."""

    first_id: int
    rows: BedRecords
    invalid: tuple[int, ...]  # offsets of rows with start < 0 or end < start

    def __len__(self) -> int:
        return len(self.rows)

    def stored(self, name: str, offsets) -> list[StoredRegion]:
        """The rows at ``offsets`` as StoredRegion objects of dataset ``name``."""
        return [_stored_region(self.first_id + i, name, self.rows[i]) for i in offsets]


def _dataset(first_id: int, rows: BedRecords) -> DatasetColumns:
    """One dataset of ``rows``, with its invalid rows recorded: found in
    numpy when it is already loaded (as ``bedio.parse_bed`` decides),
    else by a loop, which keeps a numpy-free process numpy-free."""
    if sys.modules.get("numpy") is not None:
        import numpy as np

        _, start, end = rows.arrays()
        invalid = tuple(np.flatnonzero((start < 0) | (end < start)).tolist())
    else:
        invalid = tuple(i for i, s, e in zip(count(), rows.starts, rows.ends) if s < 0 or e < s)
    return DatasetColumns(first_id, rows, invalid)


# An index entry, one per chromosome: an ``intervals`` run set of its
# indexed rows' numpy (start, end, id) arrays, each run sorted by start
# with ties in any order. A run's coordinates are int64, or object
# (exact ints) when one of its ends exceeds int64.
_IndexEntry = tuple[tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"], ...]
# The index, published as one tuple: its entries by chromosome, then the
# first ids and names of the datasets it covers, in id order.
_Index = tuple[dict[str, _IndexEntry], list[int], list[str]]


def _index_dataset(dataset: DatasetColumns) -> dict[str, tuple]:
    """One dataset's index part: ``{chrom: (start, end, id)}`` numpy
    arrays of the valid rows ``_by_code`` admits at ``min_bp = 1``.
    Coordinates are int64 when every such end fits, else exact ``object`` ints."""
    import numpy as np

    chrom, start, end = dataset.rows.arrays()
    if dataset.invalid:  # the code past the last name, which _by_code drops
        chrom = chrom.copy()
        chrom[list(dataset.invalid)] = len(dataset.rows.names)
    groups = _by_code(dataset.rows.names, chrom, start, end, 1)
    # An admitted row has 0 <= start < end, so the ends decide whether both fit int64.
    fits = not end.dtype.hasobject or all(end[at].max() <= _INT64_MAX for _, at in groups)
    dtype = np.int64 if fits else object
    ids = np.arange(len(end)) + dataset.first_id
    return {name: (start[at].astype(dtype), end[at].astype(dtype), ids[at]) for name, at in groups}


def _merge(index: _Index, datasets: dict[str, DatasetColumns]) -> _Index:
    """A new index: ``index`` with ``datasets`` (in id order, after its
    own) added; ``index`` is not changed. The new rows of each
    chromosome become one new run of its entry (``_with_run``), which
    merges it only into runs of a comparable size."""
    import numpy as np

    entries, first_ids, names = index
    grouped: dict[str, list[tuple]] = {}
    for ds in datasets.values():
        for chrom, cols in _index_dataset(ds).items():
            grouped.setdefault(chrom, []).append(cols)
    merged = {
        chrom: _with_run(entries.get(chrom, ()), *map(np.concatenate, zip(*cols)))
        for chrom, cols in grouped.items()
    }
    first_ids = first_ids + [ds.first_id for ds in datasets.values()]
    return {**entries, **merged}, first_ids, names + list(datasets)


class RegionStore:
    """Region storage with staged imports, searches and an optional index.

    A write fails only on its own input (a name already imported, a
    refused record, a failing source or attribute): a batch-style write
    then keeps nothing, a rowwise one the records before the failure.
    """

    def __init__(self):
        self._datasets: dict[str, DatasetColumns] = {}
        self._staging: DatasetColumns | None = None
        self._next_id = 1
        self._index: _Index | None = None
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return self._next_id - 1

    @property
    def staging_size(self) -> int:
        staging = self._staging
        return 0 if staging is None else len(staging)

    def dataset_names(self) -> list[str]:
        return list(self._datasets)

    def columns(self, dataset: str) -> DatasetColumns | None:
        """One dataset's columns (read-only), or None when it is absent."""
        return self._datasets.get(dataset)

    def rows(self) -> list[StoredRegion]:
        """All production rows in id order."""
        return [r for name, ds in self._datasets.items() for r in ds.stored(name, range(len(ds)))]

    def regions(self, dataset: str) -> list[StoredRegion]:
        """All rows of one dataset in id order."""
        ds = self._datasets.get(dataset)
        return [] if ds is None else ds.stored(dataset, range(len(ds)))

    def valid_regions(self, dataset: str) -> list[tuple[int, GenomicRegion]]:
        """(id, validated region) pairs of one dataset, invalid rows skipped."""
        ds = self._datasets.get(dataset)
        if ds is None:
            return []
        rows = ds.rows
        names = rows.names
        return [
            (rid, GenomicRegion(names[c], s, e))
            for rid, c, s, e in zip(count(ds.first_id), rows.codes, rows.starts, rows.ends)
            if 0 <= s <= e
        ]

    def _check_new(self, name: str) -> None:
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already imported")

    def _commit(self, name: str, dataset: DatasetColumns) -> int:
        """Publish a dataset (lock held), then extend the index with it;
        an empty one is not kept."""
        if len(dataset):
            self._datasets = {**self._datasets, name: dataset}
            self._next_id += len(dataset)
            index = self._index
            if index is not None:
                self._index = _merge(index, {name: dataset})
        return len(dataset)

    def import_dataset(self, name: str, regions) -> int:
        """Three-step staged import: stage, copy with ids, empty staging.

        ``regions`` holds RawRegion, GenomicRegion or any objects with
        ``chrom``, ``start`` and ``end``; coordinates must be integers.
        A parsed file (``bedio.BedRecords``) is kept as it is, building
        no record. Atomic: any failure leaves production
        untouched and staging empty. Returns the number of imported rows.
        """
        with self._write_lock:
            self._check_new(name)
            try:
                self._staging = _dataset(self._next_id, as_records(regions))
                return self._commit(name, self._staging)
            finally:
                self._staging = None

    def insert_regions_batch(self, name: str, regions) -> int:
        """Insert all regions as one atomic append (single transaction)."""
        return self.import_dataset(name, regions)

    def insert_regions_rowwise(self, name: str, regions) -> int:
        """Insert regions one at a time (autocommit semantics).

        Each record is refused as ``import_dataset`` would refuse it, by
        ``bedio.as_records``. On failure at record k (a refused record,
        an attribute or the iterator raising) the first k-1 records stay
        committed; they are published together when the call ends. The
        records stream through one
        ``as_records``, so the call keeps their columns, not the records.
        An interrupt (a ``BaseException`` that is not an ``Exception``,
        such as ``KeyboardInterrupt``) commits nothing.
        """
        with self._write_lock:
            self._check_new(name)
            stopped: list[Exception] = []

            def taken():
                """The records up to the first one refused, each with its
                attributes read; the error that ends the stream goes to
                ``stopped``."""
                chroms = set()
                try:
                    for r in regions:
                        # Only a new name or a coordinate not of class int
                        # can be refused, so each name is checked once.
                        if (r.chrom not in chroms or r.start.__class__ is not int
                                or r.end.__class__ is not int):
                            as_records((r,))
                            chroms.add(r.chrom)
                        yield r
                except Exception as exc:  # committed first, then raised
                    stopped.append(exc)

            count = self._commit(name, _dataset(self._next_id, as_records(taken())))
            if stopped:
                raise stopped[0]
            return count

    def find_invalid(self) -> list[StoredRegion]:
        """All rows with start < 0 or end < start, in id order: the
        invalid offsets each dataset recorded at import."""
        return [row for name, ds in self._datasets.items() for row in ds.stored(name, ds.invalid)]

    def build_index(self) -> None:
        """Build the per-chromosome index over every dataset. Idempotent.

        Built and published under the write lock, so an index never
        misses rows that a concurrent import committed. When an index
        exists the call returns without taking the lock: writes extend
        it, and only ``drop_index`` removes it.
        """
        if self._index is not None:
            return
        with self._write_lock:
            if self._index is None:
                self._index = _merge(({}, [], []), self._datasets)

    def drop_index(self) -> None:
        """Discard the index; a no-op when none is built."""
        with self._write_lock:
            self._index = None

    @property
    def has_index(self) -> bool:
        return self._index is not None

    def proximity_search(self, chrom: str, position: int, window: int) -> list[StoredRegion]:
        """Valid regions on chrom sharing >= 1 base with the half-open
        window [position - window, position + window), in id order.

        Uses the index when built, a linear scan otherwise; unknown
        chromosomes yield an empty list. ``position`` and ``window`` must
        be integers (``operator.index``; a ``bool`` is refused).
        """
        if position.__class__ is not int or window.__class__ is not int:
            position, window = _integer(position, "position"), _integer(window, "window")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        lo, hi = position - window, position + window
        # One read: the index names the dataset of every id it holds.
        index = self._index
        # A window that leaves int64 is scanned, so an indexed probe's
        # bounds lie in int64, where int64 and object runs compare exactly.
        if index is None or not _INT64_MIN <= lo < hi <= _INT64_MAX:
            return _scan(self._datasets, chrom, lo, hi)
        entries, first_ids, names = index
        entry = entries.get(chrom)
        if entry is None:
            return []
        hits = []
        for run in entry:
            start, end, ids, _ = run
            i, j = _windows(run, lo + 1, hi - 1)  # a hit has end >= lo + 1 and start <= hi - 1
            if j - i > _PYTHON_FILTER_MAX:
                start, end, ids = start[i:j], end[i:j], ids[i:j]
                hit = end > lo
                hits += zip(ids[hit].tolist(), start[hit].tolist(), end[hit].tolist())
            elif j > i:
                hits += [h for h in zip(ids[i:j].tolist(), start[i:j].tolist(), end[i:j].tolist()) if h[2] > lo]
        hits.sort()  # ids are unique, so this orders by id
        return [
            _stored_region(rid, names[bisect_right(first_ids, rid) - 1], _raw_region(chrom, s, e))
            for rid, s, e in hits
        ]


# A probe's candidates in one run are filtered in Python, about 0.1 us
# each, up to this many; past it, in numpy, whose mask and gathers cost
# about 1.5 us more a run (both on a 2-vCPU Xeon VM, CPython 3.11) but
# skip the candidates that miss, as most do in the window a long row
# left of the probe opens. That is rare: in replays of store-mixed plans
# (seeds 1-3, 6 writes and 1,200 probes each) 2 to 5 of 2,171 to 2,407
# run lookups had more candidates than this.
_PYTHON_FILTER_MAX = 64


def _scan(datasets: dict[str, DatasetColumns], chrom: str, lo: int, hi: int) -> list[StoredRegion]:
    """The unindexed probe: every row of every dataset is tested."""
    hits: list[StoredRegion] = []
    for name, ds in datasets.items():
        rows = ds.rows
        if chrom in rows.names:
            code = rows.names.index(chrom)
            hits += ds.stored(name, [
                i for i, c, s, e in zip(count(), rows.codes, rows.starts, rows.ends)
                if c == code and s >= 0 and min(e, hi) - max(s, lo) >= 1
            ])
    return hits
