"""In-memory region store mirroring the database-side structures.

Every record, valid or not, is kept with its dataset in import order,
under store-wide ids 1..N. Datasets are write-once: a write rejects a
name already present, and no row is ever updated or deleted. Imports
run in three steps like the staged bulk load of the SQL backends: fill
a staging buffer, copy it into production while assigning ids, then
empty staging. A failed import leaves production untouched, and
staging is always empty once an import returns.

An optional per-(dataset, chromosome) start-sorted index of the valid
regions serves proximity queries. Once built, each write extends it
with the new dataset, so results are identical with and without it.

Concurrency: any number of reader threads may run beside writers.
Writes and index builds and drops are serialized on an internal lock
and publish new structures instead of mutating published ones. A query
reads each once, so its result is correct for the store before or after
a concurrent write; a rowwise insert's dataset is seen either absent or
with every record it committed. Query results are fresh lists.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .intervals import GenomicRegion, RawRegion

__all__ = ["StoredRegion", "RegionStore"]


@dataclass(frozen=True, slots=True)
class StoredRegion:
    """One production row: store-wide unique id, dataset, raw record."""

    id: int
    dataset: str
    region: RawRegion


def _as_raw(region) -> RawRegion:
    if isinstance(region, RawRegion):
        return region
    # GenomicRegion and anything region-shaped is accepted.
    return RawRegion(region.chrom, region.start, region.end)


# index entry: (starts, rows sorted by (start, end), max region length)
_IndexEntry = tuple[list[int], list[StoredRegion], int]


def _index_dataset(rows: list[StoredRegion]) -> dict[str, _IndexEntry]:
    """One dataset's index entries by chromosome; valid rows only."""
    by_chrom: dict[str, list[StoredRegion]] = {}
    for row in rows:
        if row.region.is_valid():
            by_chrom.setdefault(row.region.chrom, []).append(row)
    entries: dict[str, _IndexEntry] = {}
    for chrom, chrom_rows in by_chrom.items():
        chrom_rows.sort(key=lambda r: (r.region.start, r.region.end))
        starts = [r.region.start for r in chrom_rows]
        max_len = max(r.region.end - r.region.start for r in chrom_rows)
        entries[chrom] = (starts, chrom_rows, max_len)
    return entries


class RegionStore:
    """Region storage with staged imports, searches and an optional index.

    ``capacity`` bounds the number of production rows; exceeding it is
    the allocation-failure path (batch-style writes fail whole, rowwise
    writes keep the prefix already committed).
    """

    def __init__(self, capacity: int | None = None):
        self._by_dataset: dict[str, list[StoredRegion]] = {}
        self._staging: list[RawRegion] = []
        self._next_id = 1
        self._capacity = capacity
        self._index: dict[str, dict[str, _IndexEntry]] | None = None
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return self._next_id - 1

    @property
    def staging_size(self) -> int:
        return len(self._staging)

    def dataset_names(self) -> list[str]:
        return list(self._by_dataset)

    def rows(self) -> list[StoredRegion]:
        """All production rows in id order."""
        return list(chain.from_iterable(self._by_dataset.values()))

    def regions(self, dataset: str) -> list[StoredRegion]:
        """All rows of one dataset in id order."""
        return list(self._by_dataset.get(dataset, ()))

    def valid_regions(self, dataset: str) -> list[tuple[int, GenomicRegion]]:
        """(id, validated region) pairs of one dataset, invalid rows skipped."""
        return [
            (row.id, row.region.to_region())
            for row in self._by_dataset.get(dataset, ())
            if row.region.is_valid()
        ]

    def _check_capacity(self, extra: int) -> None:
        if self._capacity is not None and len(self) + extra > self._capacity:
            raise ValueError(
                f"store capacity {self._capacity} exceeded "
                f"({len(self)} rows + {extra} new)"
            )

    def _commit(self, name: str, raws: list[RawRegion]) -> int:
        """Publish a dataset with fresh ids (lock held); an empty one is not kept."""
        if raws:
            rows = [StoredRegion(i, name, raw) for i, raw in enumerate(raws, self._next_id)]
            self._by_dataset = {**self._by_dataset, name: rows}
            self._next_id += len(rows)
            index = self._index
            if index is not None:
                self._index = {**index, name: _index_dataset(rows)}
        return len(raws)

    def import_dataset(self, name: str, regions) -> int:
        """Three-step staged import: stage, copy with ids, empty staging.

        Atomic: any failure leaves production untouched and staging
        empty. Returns the number of imported rows.
        """
        with self._write_lock:
            if name in self._by_dataset:
                raise ValueError(f"dataset {name!r} already imported")
            try:
                self._staging = [_as_raw(r) for r in regions]
                self._check_capacity(len(self._staging))
                return self._commit(name, self._staging)
            finally:
                self._staging = []

    def insert_regions_batch(self, name: str, regions) -> int:
        """Insert all regions as one atomic append (single transaction)."""
        return self.import_dataset(name, regions)

    def insert_regions_rowwise(self, name: str, regions) -> int:
        """Insert regions one at a time (autocommit semantics).

        On failure at record k the first k-1 records stay committed;
        they are published together when the call ends.
        """
        with self._write_lock:
            if name in self._by_dataset:
                raise ValueError(f"dataset {name!r} already imported")
            raws: list[RawRegion] = []
            try:
                for r in regions:
                    raw = _as_raw(r)
                    self._check_capacity(len(raws) + 1)
                    raws.append(raw)
            finally:
                self._commit(name, raws)
            return len(raws)

    def find_invalid(self) -> list[StoredRegion]:
        """All rows with start < 0 or end < start, in id order (full scan)."""
        rows = chain.from_iterable(self._by_dataset.values())
        return [row for row in rows if not row.region.is_valid()]

    def build_index(self) -> None:
        """Build the per-(dataset, chromosome) start-sorted index. Idempotent.

        Built and published under the write lock, so an index never
        misses rows that a concurrent import committed. When an index
        exists the call returns without taking the lock: writes extend
        it, and only ``drop_index`` removes it.
        """
        if self._index is not None:
            return
        with self._write_lock:
            if self._index is None:
                self._index = {
                    name: _index_dataset(rows) for name, rows in self._by_dataset.items()
                }

    def drop_index(self) -> None:
        """Discard the index; a no-op when none is built."""
        with self._write_lock:
            self._index = None

    @property
    def has_index(self) -> bool:
        return self._index is not None

    def proximity_search(self, chrom: str, position: int, window: int) -> list[StoredRegion]:
        """Valid regions on chrom sharing >= 1 base with the half-open
        window [position - window, position + window).

        Uses the index when built, a linear scan otherwise; unknown
        chromosomes yield an empty list.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        lo = position - window
        hi = position + window
        # One read: a concurrent write or drop may replace self._index.
        index = self._index
        if index is None:
            return [
                row
                for row in chain.from_iterable(self._by_dataset.values())
                if row.region.chrom == chrom
                and row.region.is_valid()
                and min(row.region.end, hi) - max(row.region.start, lo) >= 1
            ]
        hits: list[StoredRegion] = []
        for by_chrom in index.values():
            if (entry := by_chrom.get(chrom)) is None:
                continue
            starts, rows, max_len = entry
            # e > lo forces s > lo - len >= lo - max_len
            i = bisect_left(starts, lo - max_len + 1)
            while i < len(starts) and starts[i] <= hi - 1:
                region = rows[i].region
                if min(region.end, hi) - max(region.start, lo) >= 1:
                    hits.append(rows[i])
                i += 1
        hits.sort(key=lambda r: r.id)
        return hits
