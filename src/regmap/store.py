"""In-memory region store mirroring the database-side structures.

The store keeps every ingested record, valid or not, in a production
list with unique, strictly increasing ids. Imports run in three steps
like the staged bulk load of the SQL backends: fill a staging buffer,
copy it into production while assigning ids, then empty staging. A
failed import leaves production untouched, and staging is always empty
once an import returns.

A per-(dataset, chromosome) start-sorted index can be built for
proximity queries; it holds only valid regions and is dropped whenever
production changes, so query results are always identical with and
without it.

Concurrency: any number of reader threads may run beside writers.
Mutations and index builds are serialized on an internal lock; a query
reads the index once, so each result is correct for the store either
before or after a concurrent write. Query results are fresh lists.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

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


class RegionStore:
    """Region storage with staged imports, searches and an optional index.

    ``capacity`` bounds the number of production rows; exceeding it is
    the allocation-failure path (batch-style writes fail whole, rowwise
    writes keep the prefix already committed).
    """

    def __init__(self, capacity: int | None = None):
        self._production: list[StoredRegion] = []
        self._staging: list[RawRegion] = []
        self._datasets: set[str] = set()
        self._next_id = 1
        self._capacity = capacity
        self._index: dict[tuple[str, str], _IndexEntry] | None = None
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._production)

    @property
    def staging_size(self) -> int:
        return len(self._staging)

    def dataset_names(self) -> list[str]:
        return list(dict.fromkeys(row.dataset for row in self._production))

    def rows(self) -> list[StoredRegion]:
        """All production rows in id order."""
        return list(self._production)

    def regions(self, dataset: str) -> list[StoredRegion]:
        """All rows of one dataset in id order."""
        return [r for r in self._production if r.dataset == dataset]

    def valid_regions(self, dataset: str) -> list[tuple[int, GenomicRegion]]:
        """(id, validated region) pairs of one dataset, invalid rows skipped."""
        out = []
        for row in self._production:
            if row.dataset == dataset and row.region.is_valid():
                out.append((row.id, row.region.to_region()))
        return out

    def _check_new_dataset(self, name: str) -> None:
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already imported")

    def _check_capacity(self, extra: int) -> None:
        if self._capacity is not None and len(self._production) + extra > self._capacity:
            raise ValueError(
                f"store capacity {self._capacity} exceeded "
                f"({len(self._production)} rows + {extra} new)"
            )

    def _append_rows(self, name: str, regions: list[RawRegion]) -> None:
        # All-or-nothing: rows are materialized before production grows.
        rows = []
        next_id = self._next_id
        for raw in regions:
            rows.append(StoredRegion(next_id, name, raw))
            next_id += 1
        self._production.extend(rows)
        self._next_id = next_id
        if rows:
            self._datasets.add(name)
        self._index = None

    def import_dataset(self, name: str, regions) -> int:
        """Three-step staged import: stage, copy with ids, empty staging.

        Atomic: any failure leaves production untouched and staging
        empty. Returns the number of imported rows.
        """
        with self._write_lock:
            self._check_new_dataset(name)
            try:
                self._staging = [_as_raw(r) for r in regions]
                self._check_capacity(len(self._staging))
                self._append_rows(name, self._staging)
                return len(self._staging)
            finally:
                self._staging = []

    def insert_regions_batch(self, name: str, regions) -> int:
        """Insert all regions as one atomic append (single transaction)."""
        with self._write_lock:
            self._check_new_dataset(name)
            raws = [_as_raw(r) for r in regions]
            self._check_capacity(len(raws))
            self._append_rows(name, raws)
            return len(raws)

    def insert_regions_rowwise(self, name: str, regions) -> int:
        """Insert regions one at a time (autocommit semantics).

        On failure at record k the first k-1 records stay committed.
        """
        with self._write_lock:
            self._check_new_dataset(name)
            count = 0
            for r in regions:
                raw = _as_raw(r)
                self._check_capacity(1)
                self._append_rows(name, [raw])
                count += 1
            return count

    def find_invalid(self) -> list[StoredRegion]:
        """All rows with start < 0 or end < start, in id order (full scan)."""
        return [
            row
            for row in self._production
            if row.region.start < 0 or row.region.end < row.region.start
        ]

    def build_index(self) -> None:
        """Build the per-(dataset, chromosome) start-sorted index. Idempotent.

        Built and published under the write lock, so an index never
        misses rows that a concurrent import committed.
        """
        with self._write_lock:
            if self._index is not None:
                return
            grouped: dict[tuple[str, str], list[StoredRegion]] = {}
            for row in self._production:
                if row.region.is_valid():
                    grouped.setdefault((row.dataset, row.region.chrom), []).append(row)
            index: dict[tuple[str, str], _IndexEntry] = {}
            for key, rows in grouped.items():
                rows.sort(key=lambda r: (r.region.start, r.region.end))
                starts = [r.region.start for r in rows]
                max_len = max(r.region.end - r.region.start for r in rows)
                index[key] = (starts, rows, max_len)
            self._index = index

    def drop_index(self) -> None:
        """Discard the index; a no-op when none is built."""
        self._index = None

    @property
    def has_index(self) -> bool:
        return self._index is not None

    def proximity_search(self, chrom: str, position: int, window: int) -> list[StoredRegion]:
        """Valid regions on chrom sharing >= 1 base with the half-open
        window [position - window, position + window).

        Uses the sorted index when built, a linear scan otherwise; the
        two paths return identical results. Unknown chromosomes yield
        an empty list.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        lo = position - window
        hi = position + window
        # One read: a concurrent import may reset self._index at any time.
        index = self._index
        if index is None:
            return [
                row
                for row in self._production
                if row.region.chrom == chrom
                and row.region.is_valid()
                and min(row.region.end, hi) - max(row.region.start, lo) >= 1
            ]
        hits: list[StoredRegion] = []
        for (_, key_chrom), (starts, rows, max_len) in index.items():
            if key_chrom != chrom:
                continue
            # e > lo forces s > lo - len >= lo - max_len
            i = bisect_left(starts, lo - max_len + 1)
            while i < len(starts) and starts[i] <= hi - 1:
                region = rows[i].region
                if min(region.end, hi) - max(region.start, lo) >= 1:
                    hits.append(rows[i])
                i += 1
        hits.sort(key=lambda r: r.id)
        return hits
