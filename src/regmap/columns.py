"""Region sets as columns, and the window join that runs on them.

A region set is held as parallel arrays: an ``int32`` chromosome code
indexing a name table, plus ``int64`` start, end and id arrays. Rows
are validated once, vectorised, when the columns are built, from a BED
file, from (id, GenomicRegion) lists or from store rows. The window
join has two public ends over one per-chromosome loop: ``window_join``
builds the emitted OverlapPair rows, and ``window_count`` counts the
distinct A rows that have a pair, for the mining report, building no
object. ``RegionColumns.to_id_regions`` gives the (id, GenomicRegion)
lists the reference join takes.

Coordinates must lie below ``COORD_LIMIT`` (2**62), so the sum of two
coordinates and every window bound fit in ``int64``; a larger one is
refused with a ValueError rather than wrapped.

This module imports numpy. ``import regmap`` must not load it, so the
package imports this module only inside the calls that join.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .bedio import scan_bed
from .intervals import GenomicRegion
from .joins import JoinFilter, OverlapPair
from .store import StoredRegion

__all__ = [
    "COORD_LIMIT",
    "CANDIDATE_CHUNK",
    "RegionColumns",
    "read_bed_columns",
    "window_join",
    "window_count",
]

COORD_LIMIT = 1 << 62
# Candidate pairs expanded at once. A long region in B widens every
# window on its chromosome; expanding all candidates together would
# then allocate |A_chr| * |B_chr| int64s. One chunk holds about this
# many candidates, or one A row's window when that alone is larger.
CANDIDATE_CHUNK = 1 << 16

IdRegion = tuple[int, GenomicRegion]


@dataclass(frozen=True, eq=False)
class RegionColumns:
    """A validated region set; row i lies on ``names[chrom[i]]``."""

    names: tuple[str, ...]
    chrom: np.ndarray  # int32
    start: np.ndarray  # int64
    end: np.ndarray  # int64
    ids: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_id_regions(cls, regions: Sequence[IdRegion]) -> "RegionColumns":
        """Columns of (id, region) pairs, in the given order."""
        codes: dict[str, int] = {}
        chrom = [codes.setdefault(r.chrom, len(codes)) for _, r in regions]
        return _build(
            tuple(codes),
            chrom,
            [r.start for _, r in regions],
            [r.end for _, r in regions],
            np.array([rid for rid, _ in regions], dtype=np.int64),
        )

    @classmethod
    def from_stored(cls, rows: Sequence[StoredRegion]) -> "RegionColumns":
        """Columns of the valid store rows, under their store ids, in the given order.

        Rows with ``start < 0`` or ``end < start`` are dropped, as
        ``RegionStore.valid_regions`` drops them.
        """
        valid = [
            row for row in rows if row.region.start >= 0 and row.region.end >= row.region.start
        ]
        codes: dict[str, int] = {}
        chrom = [codes.setdefault(row.region.chrom, len(codes)) for row in valid]
        return _build(
            tuple(codes),
            chrom,
            [row.region.start for row in valid],
            [row.region.end for row in valid],
            np.array([row.id for row in valid], dtype=np.int64),
        )

    def to_id_regions(self) -> list[IdRegion]:
        """(id, GenomicRegion) pairs in row order."""
        names = self.names
        return [
            (rid, GenomicRegion(names[c], s, e))
            for rid, c, s, e in zip(
                self.ids.tolist(), self.chrom.tolist(), self.start.tolist(), self.end.tolist()
            )
        ]


def read_bed_columns(path: str | Path, first_id: int = 1) -> RegionColumns:
    """Strict parse of a BED file straight into columns.

    Rows get ids ``first_id, first_id + 1, ...`` in file order. A
    malformed line raises BedParseError; the first invalid row raises
    the ValueError that GenomicRegion raises for it.
    """
    names, codes, starts, ends, _ = scan_bed(Path(path), mode="strict")
    ids = np.arange(first_id, first_id + len(codes), dtype=np.int64)
    return _build(tuple(names), codes, starts, ends, ids)


def _in_range(value: int) -> bool:
    return -COORD_LIMIT < value < COORD_LIMIT


def _build(names, codes: list[int], starts: list[int], ends: list[int], ids) -> RegionColumns:
    """Validate rows in order and build the arrays; the first offender raises."""
    n = len(starts)
    if n and not (
        _in_range(min(starts)) and _in_range(max(starts))
        and _in_range(min(ends)) and _in_range(max(ends))
    ):
        # Convert only the rows before the first one int64 cannot hold.
        n = next(
            i for i, (s, e) in enumerate(zip(starts, ends))
            if not (_in_range(s) and _in_range(e))
        )
    start = np.array(starts[:n], dtype=np.int64)
    end = np.array(ends[:n], dtype=np.int64)
    bad = (start < 0) | (end < start)
    if bad.any():
        i = int(bad.argmax())
        _reject(names[codes[i]], int(start[i]), int(end[i]))
    if n < len(starts):
        _reject(names[codes[n]], starts[n], ends[n])
    return RegionColumns(names, np.array(codes, dtype=np.int32), start, end, ids)


def _reject(chrom: str, start: int, end: int) -> NoReturn:
    GenomicRegion(chrom, start, end)  # an invalid row raises GenomicRegion's own message
    raise ValueError(
        f"coordinate {max(start, end)} out of range: coordinates must be below 2**62"
    )


def _groups(chrom: np.ndarray, order: np.ndarray, count: int) -> np.ndarray:
    """Bounds of each code's run in ``chrom[order]``: code k is [b[k], b[k+1])."""
    return np.searchsorted(chrom[order], np.arange(count + 1), "left")


def window_join(a: RegionColumns, b: RegionColumns, flt: JoinFilter) -> list[OverlapPair]:
    """Pairs of A x B passing ``flt``, ordered by (a_id, b_id).

    Per chromosome, B is sorted by start. A pair needs
    ``b.start <= a.end - min_bp`` and ``b.end >= a.start + min_bp``, so
    each A row's candidates are the B starts in
    ``[a.start + min_bp - widest_B, a.end - min_bp]``: a bounded window
    for every ``min_bp``. Candidates are expanded with ``np.repeat``,
    gathered and filtered exactly, in chunks of CANDIDATE_CHUNK.
    """
    found = []
    for code, ar, br, chunks in _chromosome_chunks(a, b, flt):
        for a_rows, b_rows, bp, twice in chunks:
            found.append((ar[a_rows], br[b_rows], np.full(len(bp), code, np.int32), bp, twice))
    if not found:
        return []
    a_rows, b_rows, codes, bp, twice = (np.concatenate(col) for col in zip(*found))
    a_ids, b_ids = a.ids[a_rows], b.ids[b_rows]
    order = np.lexsort((b_ids, a_ids))
    names = a.names
    return [
        OverlapPair(x, y, names[c], p, t / 2)
        for x, y, c, p, t in zip(
            a_ids[order].tolist(),
            b_ids[order].tolist(),
            codes[order].tolist(),
            bp[order].tolist(),
            twice[order].tolist(),
        )
    ]


def window_count(a: RegionColumns, b: RegionColumns, flt: JoinFilter) -> int:
    """Number of distinct A rows in at least one pair of A x B passing ``flt``.

    The same window join as ``window_join``; it marks hit rows instead
    of building pairs.
    """
    hit = np.zeros(len(a), dtype=bool)
    for _, ar, _, chunks in _chromosome_chunks(a, b, flt):
        for a_rows, _, _, _ in chunks:
            hit[ar[a_rows]] = True
    return int(np.count_nonzero(hit))


def _chromosome_chunks(a: RegionColumns, b: RegionColumns, flt: JoinFilter):
    """Yield (code, A rows, B rows, chunks) for each chromosome both sides hold.

    ``code`` indexes ``a.names``; the row arrays map the chromosome's
    local rows to rows of ``a`` and of ``b`` (B sorted by start);
    ``chunks`` is ``_join_chromosome`` on them.
    """
    # Signed overlaps of coordinates in [0, 2**62) lie in (-2**62, 2**62),
    # so clamping min_bp changes no result and keeps the bounds in int64.
    min_bp = min(max(flt.min_bp, 1 - COORD_LIMIT), COORD_LIMIT)
    max_cd = flt.max_centre_distance
    # A pair with centre distance < D has bp overlap >= -ceil(D), which
    # can narrow the window of a gap join.
    reach = min_bp
    if max_cd is not None and math.isfinite(max_cd):
        reach = max(min_bp, -math.ceil(max_cd))
    twice_bound = None if max_cd is None else 2 * max_cd

    a_order = np.argsort(a.chrom, kind="stable")
    b_order = np.lexsort((b.start, b.chrom))
    a_bounds = _groups(a.chrom, a_order, len(a.names))
    b_bounds = _groups(b.chrom, b_order, len(b.names))
    b_codes = {name: code for code, name in enumerate(b.names)}
    for code, name in enumerate(a.names):
        j = b_codes.get(name)
        if j is None or b_bounds[j] == b_bounds[j + 1]:
            continue
        ar = a_order[a_bounds[code] : a_bounds[code + 1]]
        br = b_order[b_bounds[j] : b_bounds[j + 1]]
        yield code, ar, br, _join_chromosome(
            a.start[ar], a.end[ar], b.start[br], b.end[br], min_bp, reach, twice_bound
        )


def _join_chromosome(a_start, a_end, b_start, b_end, min_bp, reach, twice_bound):
    """Yield (A rows, B rows, bp overlap, twice the centre distance) of
    the passing pairs of one chromosome, one chunk of A at a time.

    ``b_start`` must be sorted; B rows index the sorted arrays.
    """
    widest = int((b_end - b_start).max())
    lo = np.searchsorted(b_start, a_start + (reach - widest), "left")
    hi = np.searchsorted(b_start, a_end - reach, "right")
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    r0, rows = 0, len(counts)
    while r0 < rows:
        done = int(ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + CANDIDATE_CHUNK, "right")))
        n = counts[r0:r1]
        total = int(ends[r1 - 1]) - done
        if total:
            first = ends[r0:r1] - n - done  # each row's first candidate in the chunk
            a_rows = np.repeat(np.arange(r0, r1), n)
            b_rows = np.arange(total) + np.repeat(lo[r0:r1] - first, n)
            s1, e1 = a_start[a_rows], a_end[a_rows]
            s2, e2 = b_start[b_rows], b_end[b_rows]
            bp = np.minimum(e1, e2) - np.maximum(s1, s2)
            twice = np.abs((s1 + e1) - (s2 + e2))
            keep = bp >= min_bp
            if twice_bound is not None:
                keep &= twice < twice_bound
            yield a_rows[keep], b_rows[keep], bp[keep], twice[keep]
        r0 = r1
