"""Pure interval algebra for genomic regions.

Regions use 0-based half-open coordinates (UCSC BED convention), so a
region's length is ``end - start`` and two regions are adjacent, not
overlapping, when one ends exactly where the other starts.

The central quantity is the signed base-pair overlap of two regions on
the same chromosome: positive when bases are shared, zero at adjacency,
and negative by the size of the gap. It is computed two ways that are
provably equal:

- ``bp_overlap`` uses the closed form min(end) - max(start);
- ``bp_overlap_case`` evaluates four positional branches in a fixed
  first-match order, mirroring how a SQL CASE expression resolves the
  same configurations.

Coordinate-level kernels (``overlap_coords`` and friends) are exposed
for callers that work on raw integers, e.g. array pipelines and tests
that sweep millions of coordinate pairs.

The interval index that joins, mining counts and store probes share
is two steps here: ``_by_code`` groups by chromosome the rows that can
pair under a ``min_bp`` (the one admission rule of an entry) and
``_sorted_entry`` builds a chromosome's entry (the one place rows are
sorted by start; ties in any order). Both import numpy, in the call,
and sort with ``_argsort``. The joins build one entry at once and scan
it forward (``columns``). The store, which grows, holds each
chromosome's entry as a run set, a tuple of runs that ``_with_run``
extends by the logarithmic method; each run keeps the running maximum
of its ends, in which ``_windows`` finds a probe's candidates.

All functions here are pure and operate on immutable values; they are
safe to call concurrently from any number of threads.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, fields

__all__ = [
    "RawRegion",
    "GenomicRegion",
    "RelativePosition",
    "OverlapMetrics",
    "overlap_metrics",
    "bp_overlap",
    "bp_overlap_case",
    "classify",
    "centre_distance",
    "centre_distance_sql_compat",
    "overlaps",
    "geo_intersects",
    "region_length",
    "overlap_coords",
    "case_overlap_coords",
    "centre_distance_coords",
    "centre_distance_sql_coords",
]


def _chrom_reason(chrom: str) -> str | None:
    """The chromosome-name rule: why a name is rejected, or None when it
    is accepted."""
    if not chrom:
        return "empty chromosome"
    # split() cuts at exactly the characters str.isspace() accepts
    if chrom.split() != [chrom]:
        return "chromosome contains whitespace"
    return None


# The range of a 64-bit signed integer, which BIGINT columns share.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _integer(value, name: str) -> int:
    """The integer rule: ``operator.index(value)``, a ``bool`` refused.
    A refused value raises ValueError."""
    if value.__class__ is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_chrom(chrom: str) -> None:
    """Raise ValueError for a name ``_chrom_reason`` rejects."""
    if _chrom_reason(chrom) is not None:
        raise ValueError(
            f"chromosome name contains whitespace: {chrom!r}" if chrom
            else "chromosome name must be non-empty"
        )


@dataclass(frozen=True, slots=True)
class RawRegion:
    """An unvalidated (chromosome, start, end) record.

    start and end may be any integers, in any order. Invalid records
    are deliberately representable so they can be stored and later
    located by an erroneous-region search.
    """

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        _check_chrom(self.chrom)

    def is_valid(self) -> bool:
        """True when the record satisfies the GenomicRegion invariants."""
        return self.start >= 0 and self.end >= self.start

    def to_region(self) -> "GenomicRegion":
        """Validate and convert; raises ValueError on an invalid record."""
        return GenomicRegion(self.chrom, self.start, self.end)


def _unchecked(cls):
    """A builder of ``cls(a, b, c)``, for a frozen slotted dataclass of
    three fields, that skips ``__init__`` and its checks: for checked values."""
    new = object.__new__
    set_a, set_b, set_c = (getattr(cls, f.name).__set__ for f in fields(cls))

    def build(a, b, c):
        obj = new(cls)
        set_a(obj, a)
        set_b(obj, b)
        set_c(obj, c)
        return obj

    return build


_raw_region = _unchecked(RawRegion)


@dataclass(frozen=True, slots=True)
class GenomicRegion:
    """A validated genomic interval, 0-based, half-open on the end."""

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        _check_chrom(self.chrom)
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"end must be >= start, got [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


class RelativePosition(enum.Enum):
    """Relative placement of region A against region B on one chromosome."""

    A_WITHIN_B = "a_within_b"
    B_WITHIN_A = "b_within_a"
    A_LEFT_OF_B = "a_left_of_b"
    A_RIGHT_OF_B = "a_right_of_b"


@dataclass(frozen=True, slots=True)
class OverlapMetrics:
    """Signed bp overlap plus centre distance for one region pair."""

    bp_overlap: int
    centre_distance: float


def overlap_metrics(a: "GenomicRegion", b: "GenomicRegion") -> OverlapMetrics:
    """Both derived quantities for a same-chromosome pair in one call."""
    _require_same_chrom(a, b)
    return OverlapMetrics(
        bp_overlap=overlap_coords(a.start, a.end, b.start, b.end),
        centre_distance=centre_distance_coords(a.start, a.end, b.start, b.end),
    )


def _require_same_chrom(a: GenomicRegion, b: GenomicRegion) -> None:
    if a.chrom != b.chrom:
        raise ValueError(
            f"regions are on different chromosomes: {a.chrom!r} vs {b.chrom!r}"
        )


def overlap_coords(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    """Signed bp overlap of two same-chromosome intervals, closed form."""
    return min(a_end, b_end) - max(a_start, b_start)


def _case_branch(
    a_start: int, a_end: int, b_start: int, b_end: int
) -> tuple[RelativePosition, int]:
    """First matching positional branch and the bp overlap it computes.

    Branch order: A within B, B within A, A left of B, A right of B.
    The branches are exhaustive, and wherever two conditions hold at
    once their formulas agree, so the order only determines which
    arithmetic path is taken.
    """
    if a_end <= b_end and a_start >= b_start:
        return RelativePosition.A_WITHIN_B, a_end - a_start
    if b_end <= a_end and b_start >= a_start:
        return RelativePosition.B_WITHIN_A, b_end - b_start
    if a_end <= b_end and a_start <= b_start:
        return RelativePosition.A_LEFT_OF_B, a_end - b_start
    if a_end >= b_end and a_start >= b_start:
        return RelativePosition.A_RIGHT_OF_B, b_end - a_start
    raise AssertionError("positional branches are exhaustive")  # pragma: no cover


def case_overlap_coords(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    """Signed bp overlap via the four positional branches, first match wins."""
    return _case_branch(a_start, a_end, b_start, b_end)[1]


def centre_distance_coords(a_start: int, a_end: int, b_start: int, b_end: int) -> float:
    """Distance between interval midpoints, a multiple of 0.5, as a float: exact
    while the doubled distance ``|(a_start + a_end) - (b_start + b_end)|`` is <= 2**53."""
    return abs((a_start + a_end) - (b_start + b_end)) / 2


def centre_distance_sql_coords(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    """Midpoint distance as integer-division SQL evaluates it.

    Each midpoint is truncated to an integer before the difference is
    taken, so the result can differ from the exact value by up to 1.
    Coordinates are non-negative here, so floor and truncating division
    coincide.
    """
    return abs((a_start + a_end) // 2 - (b_start + b_end) // 2)


def bp_overlap(a: GenomicRegion, b: GenomicRegion) -> int:
    """Signed base-pair overlap of two regions on the same chromosome.

    Positive means at least one shared base, zero means the regions are
    adjacent, and a negative value is the size of the gap between them.
    Raises ValueError on a chromosome mismatch; overlap across
    chromosomes is undefined.
    """
    _require_same_chrom(a, b)
    return overlap_coords(a.start, a.end, b.start, b.end)


def bp_overlap_case(a: GenomicRegion, b: GenomicRegion) -> int:
    """bp overlap computed through the four-branch case analysis."""
    _require_same_chrom(a, b)
    return case_overlap_coords(a.start, a.end, b.start, b.end)


def classify(a: GenomicRegion, b: GenomicRegion) -> RelativePosition:
    """First matching positional branch for the pair (a, b).

    Ties (e.g. identical regions satisfy several conditions) resolve to
    the earliest branch, matching SQL CASE first-match semantics.
    """
    _require_same_chrom(a, b)
    return _case_branch(a.start, a.end, b.start, b.end)[0]


def centre_distance(a: GenomicRegion, b: GenomicRegion) -> float:
    """Distance between region centres (multiples of 0.5 bp), a float.

    Computed on doubled coordinates, so it is exact while the doubled
    distance is at most 2**53 (``centre_distance_coords``).
    """
    _require_same_chrom(a, b)
    return centre_distance_coords(a.start, a.end, b.start, b.end)


def centre_distance_sql_compat(a: GenomicRegion, b: GenomicRegion) -> int:
    """Centre distance exactly as the emitted SQL computes it on integers."""
    _require_same_chrom(a, b)
    return centre_distance_sql_coords(a.start, a.end, b.start, b.end)


def overlaps(a: GenomicRegion, b: GenomicRegion, min_bp: int = 1) -> bool:
    """True when a and b share at least ``min_bp`` bases.

    Unlike the metric functions this predicate is total: regions on
    different chromosomes simply do not overlap.
    """
    if min_bp < 1:
        raise ValueError(f"min_bp must be >= 1, got {min_bp}")
    if a.chrom != b.chrom:
        return False
    return overlap_coords(a.start, a.end, b.start, b.end) >= min_bp


def geo_intersects(a: GenomicRegion, b: GenomicRegion) -> bool:
    """Boolean intersection of the closed segments [start, end].

    Emulates a database geometry intersect over 1-D segments: segments
    that merely touch at an endpoint count as intersecting, so this is
    deliberately looser than overlaps() at adjacency.
    """
    if a.chrom != b.chrom:
        return False
    return overlap_coords(a.start, a.end, b.start, b.end) >= 0


def region_length(r: GenomicRegion) -> int:
    """Region length under half-open coordinates: end - start."""
    return r.end - r.start


def _argsort(keys):
    """The order that sorts ``keys``, ties in any order. Keys in one or
    two ascending runs (a file sorted by chromosome and start, or two
    runs of a store entry being merged) take numpy's stable
    sort, timsort, which merges runs in one pass; any others take the
    default sort, SIMD where the CPU has it, which is faster on shuffled
    keys but O(n log n) on every input."""
    import numpy as np

    descents = np.count_nonzero(keys[1:] < keys[:-1])
    return np.argsort(keys, kind="stable" if descents < 2 else None)


def _by_code(names, codes, start, end, min_bp: int) -> list:
    """``(name, rows)`` for each name with rows that can pair under
    ``min_bp`` (row i lies on ``names[codes[i]]``): ``end - start >=
    max(min_bp, 0)``, as a pair's bp overlap is at most either row's
    length. Every row is valid (``0 <= start <= end``: no int64 wrap) or
    has the code ``len(names)``, which drops it. Rows in any order,
    int32 when they fit."""
    import numpy as np

    # The other rows take the code past the last name: sorted last, then dropped.
    codes = np.where(end - start >= max(min_bp, 0), codes, np.int32(len(names)))
    order = _argsort(codes)
    order = order.astype(np.int32) if len(order) < 2**31 else order
    ends = np.bincount(codes, minlength=len(names)).cumsum().tolist()
    return [(name, order[i:j]) for name, i, j in zip(names, [0] + ends, ends) if j > i]


def _sorted_entry(start, end, rows) -> tuple:
    """An index entry ``(start, end, rows)``: the numpy arrays sorted by
    start, ties in any order; int64 or exact ``object`` ints. No result
    depends on the order of tied starts: joins order their pairs by id,
    counts count rows, and probes sort their hits by id."""
    order = _argsort(start)
    return start[order], end[order], rows[order]


def _windows(run, first, last):
    """``(lo, hi)``: the rows of a store run with ``end >= first`` and
    ``start <= last`` lie in ``lo:hi``, for scalar or array bounds."""
    start, _, _, furthest = run
    return furthest.searchsorted(first), start.searchsorted(last, "right")


# A run set: a store entry held as a tuple of runs, each a
# ``_sorted_entry`` and the running maximum of its ends (the Augmented
# Interval List's "max end"), never changed once built, oldest and
# largest first. A row added to a run set sorts with its own rows only,
# then merges (the logarithmic method of Bentley & Saxe, J. Algorithms
# 1980): while the newer run is at least half the older's size, or the
# older holds at most ``_SMALL_RUN`` rows, the two merge into one. Each
# run is then under half the size of the one before it, apart from runs
# of at most ``_SMALL_RUN`` rows, so a set of n rows holds at most about
# log2(n / _SMALL_RUN) + 2 runs and a row is merged O(log n) times.
# The floor: merging into a run of at most 4,096 int64 rows costs at
# most about 50 us more than leaving the new run apart, and each later
# probe of the entry pays about 3 us for every run it looks in (both
# measured on a 2-vCPU Xeon VM, CPython 3.11, numpy 2.4), so such a
# merge pays for itself within about 15 probes, and a tiny write never
# leaves a run beside a large one.
_SMALL_RUN = 4096


def _with_run(runs: tuple, start, end, rows) -> tuple:
    """The run set ``runs`` with the rows ``(start, end, rows)`` added;
    ``runs`` is not changed. Merged runs are two ascending runs for
    ``_sorted_entry``, which merges them in one pass."""
    import numpy as np

    run = _sorted_entry(start, end, rows)
    while runs and (len(runs[-1][0]) <= max(2 * len(run[0]), _SMALL_RUN)):
        run = _sorted_entry(*map(np.concatenate, zip(runs[-1][:3], run)))
        runs = runs[:-1]
    return runs + (run + (np.maximum.accumulate(run[1]),),)
