"""Region sets as numpy columns, and the window join that runs on them.

A region set is held as parallel arrays: an ``int32`` chromosome code
indexing a name table, plus ``int64`` start, end and id arrays. One
validator, ``_checked``, builds every region set; vectorised, it raises
for the first row that is invalid or reaches ``COORD_LIMIT``. Every
source is first a ``bedio.BedRecords``, viewed as numpy by
``BedRecords.arrays``: a strictly parsed file (``read_bed_columns``),
other records or a store dataset's rows (``from_records``, which drops
invalid rows) and (id, GenomicRegion) lists (``from_id_regions``).

``window_join`` builds the emitted OverlapPair rows of two region sets,
and ``hit_counts`` serves the mining report: for k sets at once it
counts, for each ordered pair, the distinct rows of one that have a
pair with the other, building no object. Both run one kernel,
``_join_chromosome``, on the interval index of ``intervals``: they
group by chromosome each set's rows that can pair under the filter's
``min_bp`` (``_by_code``), and put every set's rows of one chromosome
into one entry (``_sorted_entry``, the only sort of a set's rows: by
start, ties in any order) when they reach it, each row tagged with its
set. The kernel finds each pair of rows of different sets once, from
the row that starts first (a forward scan), so a row's candidates are
one range of later starts and a long row costs linear work.
``RegionColumns.to_id_regions`` gives the (id, GenomicRegion) lists the
reference join takes.

``_read_bed`` parses a BED file with numpy for ``bedio.parse_bed``, on
a path once numpy is loaded (``parse_bed`` imports it once a process
has parsed ``bedio._NUMPY_AFTER`` bytes of paths without it), and
returns ``(BedRecords, ParseReport)`` as bedio's readers do. Its fast path only accepts: it has no reject
reasons of its own, and every line it does not accept goes through
``bedio.scan_numbered``, so bedio's Python scanner stays the one
rulebook and the reference reader.
The fast path reads fields a word at a time (SWAR), over an unaligned
little-endian ``uint64`` view of each block padded with zero bytes: a
coordinate is the two or three words that end at its last byte, with
the bytes before it set to ``'0'``, checked and folded eight digits at
once as Langdale and Lemire parse numbers ("Parsing gigabytes of JSON
per second", VLDB J. 2019); a chromosome name is the words from its
first byte, masked to its width, as the key of its code.

Coordinates must lie below ``COORD_LIMIT`` (2**62), so the sum of two
coordinates and every window bound fit in ``int64``; a larger one is
refused with a ValueError rather than wrapped.

This module imports numpy. ``import regmap`` must not load it, so the
package imports this module only inside the calls that join, and in
``bedio.parse_bed`` once numpy is loaded.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .bedio import _SKIP_PREFIXES, BedRecords, ParseReport, as_records, parse_bed_file
from .bedio import scan_numbered, scan_text
from .intervals import GenomicRegion, RawRegion, _by_code, _chrom_reason, _sorted_entry
from .joins import JoinFilter, OverlapPair

__all__ = [
    "COORD_LIMIT",
    "CANDIDATE_CHUNK",
    "RegionColumns",
    "read_bed_columns",
    "window_join",
    "hit_counts",
]

COORD_LIMIT = 1 << 62
# Candidate pairs expanded at once. A row's window holds every row that
# starts inside it, so the candidates of a chromosome whose rows all
# overlap number about n**2 / 2; one chunk holds about this many
# candidates, or one row's window when that is larger.
CANDIDATE_CHUNK = 1 << 16
# Bytes of whole lines the BED reader parses at once; bounds the size of
# its temporaries. A line longer than this is one block.
INGEST_BLOCK = 1 << 18
# Longest chromosome name and coordinate the reader's fast path accepts.
# 18 digits always fit int64; longer fields go through bedio.
NAME_WIDTH = 64
MAX_DIGITS = 18

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
        rows = as_records(r for _, r in regions)
        ids = np.array([rid for rid, _ in regions], dtype=np.int64)
        return _checked(rows.names, *rows.arrays(), ids)

    @classmethod
    def from_records(cls, records: Sequence[RawRegion], first_id: int = 1) -> "RegionColumns":
        """Columns of the valid records, in the given order; record i
        keeps id ``first_id + i``, the id a store import starting at
        ``first_id`` gives it. Records go through ``bedio.as_records``,
        so a record the store refuses raises its ValueError; then rows
        with ``start < 0`` or ``end < start`` are dropped, as
        ``RegionStore.valid_regions`` drops them."""
        rows = as_records(records)
        chrom, start, end = rows.arrays()
        keep = np.flatnonzero((start >= 0) & (end >= start))
        return _checked(rows.names, chrom[keep], start[keep], end[keep], keep + first_id)

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
    the ValueError that GenomicRegion raises for it. The file is parsed
    by ``bedio.parse_bed_file``, which reads a path with ``_read_bed``.
    """
    rows, _ = parse_bed_file(path)
    ids = np.arange(first_id, first_id + len(rows), dtype=np.int64)
    return _checked(rows.names, *rows.arrays(), ids)


def _read_bed(path: str | Path, strict: bool) -> tuple[BedRecords, ParseReport]:
    """``bedio.parse_bed``'s result for a path.

    The file is read once, as bytes, and parsed with numpy
    (``_scan_fast``). That fast path only accepts; bedio stays the
    rulebook. Each line the fast path does not accept goes through
    bedio's rules under its own line number. A file holding a non-ASCII
    byte, a ``\\r``, a NUL, a line that only bedio accepts or a name
    that only bedio enters into the name table is decoded whole and
    scanned by ``bedio.scan_text``, as ``parse_bed`` reads a path without
    numpy, so newline handling and decode errors are bedio's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii() and b"\r" not in data and b"\0" not in data:
        if parsed := _scan_fast(data, strict):
            return parsed
    # Decoded as open(path, encoding="utf-8").read() decodes it.
    return scan_text(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(), strict)


def _scan_fast(data: bytes, strict: bool) -> tuple[BedRecords, ParseReport] | None:
    """``_read_bed``'s result for an ASCII file with no ``\\r`` and no
    NUL, block by block; None if bedio would accept a line the fast
    path declined (a coordinate of over MAX_DIGITS digits, a name
    longer than NAME_WIDTH) or enter its name into the table (such a
    name on a line with bad coordinates). The declined lines' rejects
    are bedio's, in line order; in strict mode the first raises. Each
    block's rows are appended to the columns as it is parsed."""
    table: dict[str, int] = {}  # chromosome name -> code
    columns = array("i"), array("q"), array("q")
    report = ParseReport()
    lineno = pos = 0
    while pos < len(data):
        stop = data.find(b"\n", pos + INGEST_BLOCK - 1) + 1 or len(data)
        *rows, count, declined = _scan_block(data, pos, stop, lineno, table)
        if declined:
            others, part = scan_numbered(declined, strict)
            if part.accepted or not all(map(table.__contains__, others.names)):
                return None
            report.rejects += part.rejects
        for column, values in zip(columns, rows):
            column.frombytes(memoryview(values).cast("B"))
        lineno += count
        pos = stop
    report.accepted, report.rejected = len(columns[0]), len(report.rejects)
    # Like bedio, the fast path enters each name of at most NAME_WIDTH
    # bytes at its first line of three fields, so the tables are equal.
    return BedRecords(table, *columns), report


def _scan_block(data: bytes, pos: int, stop: int, lineno: int, table: dict[str, int]):
    """Parse the whole lines ``data[pos:stop]`` with numpy.

    A line is accepted when it has at least three tab-separated fields,
    its chromosome name has at most NAME_WIDTH bytes and passes
    ``intervals._chrom_reason`` and the skip prefixes, and its start and
    end match ``-?[0-9]{1,MAX_DIGITS}``. ``lineno`` is the number of
    lines before ``pos``; ``table`` maps accepted names to codes and
    gains the block's new names in order of first appearance. Returns
    the accepted rows' codes, starts and ends, the number of lines, and
    the (line number, text) pairs of every other line.

    The block is copied between _FRONT and NAME_WIDTH zero bytes, so the
    words a coordinate ends with and a name starts with (``_words``)
    never leave it.
    """
    padded = bytes(_FRONT) + data[pos:stop] + bytes(NAME_WIDTH)
    b = np.frombuffer(padded, np.uint8)
    last = _FRONT + stop - pos  # one past the block's last byte
    # Every tab and line end, in order; a line's fields end at the
    # separators that follow its start.
    seps = np.flatnonzero((b == ord("\t")) | (b == ord("\n")))
    if padded[last - 1] != ord("\n"):
        seps = np.append(seps, last)
    tab = b[seps] == ord("\t")
    ends_at = np.flatnonzero(~tab)
    line_end = seps[ends_at]
    line_begin = np.concatenate(([_FRONT], line_end[:-1] + 1))
    first = np.concatenate(([0], ends_at[:-1] + 1))  # each line's first separator
    # Two sentinels past the block: a line's third separator always exists.
    seps, tab = np.append(seps, (last, last)), np.append(tab, (False, False))
    tab1, tab2, tab3 = seps[first], seps[first + 1], seps[first + 2]
    width = tab1 - line_begin
    ok = tab[first] & tab[first + 1] & (width >= 1) & (width <= NAME_WIDTH)
    codes = np.full(len(line_end), -1, dtype=np.int32)
    if ok.any():
        codes[ok] = _chrom_codes(b, line_begin[ok], width[ok], table)
        ok &= codes >= 0
    start = _parse_ints(b, tab1 + 1, tab2, ok)
    end = _parse_ints(b, tab2 + 1, tab3, ok)
    other = np.flatnonzero(~ok)
    declined = [
        (lineno + 1 + i, padded[lo:hi].decode("ascii"))
        for i, lo, hi in zip(
            other.tolist(), line_begin[other].tolist(), line_end[other].tolist()
        )
    ]
    return codes[ok], start[ok], end[ok], len(line_end), declined


# The word-at-a-time kernels. _FRONT zero bytes precede a block, one word
# per eight of MAX_DIGITS. _LOW[n] keeps a word's n lowest bytes, the
# first n of its text; _ONES is eight bytes of 1, _WORD[j] 8 * j.
_FRONT = -(-MAX_DIGITS // 8) * 8
_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_ONES = 0x0101010101010101
_WORD = 8 * np.arange(max(_FRONT, NAME_WIDTH) // 8)[:, None]


def _words(b: np.ndarray, at: np.ndarray, count: int) -> np.ndarray:
    """``count`` x len(at) array: row j holds the little-endian ``uint64``
    of bytes ``at + 8 * j`` to ``at + 8 * j + 7`` of ``b``."""
    size = 8 * count
    spans = np.ndarray((len(b) - size + 1,), f"V{size}", b, strides=(1,))
    return spans[at].view("<u8").reshape(len(at), count).T.copy()


def _chrom_codes(b: np.ndarray, begin: np.ndarray, width: np.ndarray, table: dict[str, int]):
    """Code of each name of ``width`` bytes at ``b[begin]``, or -1
    for a name bedio does not accept. A name's key is its words masked
    to its width; each distinct name is checked once, and the new ones
    are ordered by first appearance in one pass."""
    # Zero-filled to a multiple of 8 bytes, distinct names stay distinct
    # keys because the file holds no NUL; an 8-byte key is one word.
    count = -(-int(width.max()) // 8)
    keys = _words(b, begin, count)
    keys &= _LOW[np.clip(width - _WORD[:count], 0, 8)]
    keys = keys[0] if count == 1 else keys.T.copy().view(f"S{8 * count}").ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    raw = distinct.tobytes()
    size = 8 * count
    mapped = np.empty(len(distinct), dtype=np.int32)
    new: dict[int, str] = {}  # distinct index -> a name bedio accepts
    for i in range(len(distinct)):
        name = raw[i * size : (i + 1) * size].rstrip(b"\0").decode("ascii")
        code = table.get(name)
        if code is None:
            code = -1
            if _chrom_reason(name) is None and not name.startswith(_SKIP_PREFIXES):
                new[i] = name
        mapped[i] = code
    if new:
        seen = inverse[np.isin(inverse, list(new))].tolist()
        for i in dict.fromkeys(seen):  # in order of first appearance
            mapped[i] = table[new[i]] = len(table)
    return mapped[inverse]


def _parse_ints(b: np.ndarray, begin: np.ndarray, end: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Values of the fields ``b[begin:end]``. Clears ``ok`` on each row
    whose field does not match ``-?[0-9]{1,MAX_DIGITS}``.

    Eight digits at a time, as Langdale and Lemire parse numbers
    ("Parsing gigabytes of JSON per second", 2019): the words that end
    at a field's last byte, with the bytes before the field set to
    ``'0'``, are all digits when no byte of ``x + 0x46`` or ``x - 0x30``
    has its top bit set, and fold pairwise into their value (``* 10 >>
    8``, ``* 100 >> 16``, ``* 10000 >> 32``).
    """
    negative = b[begin] == ord("-")
    digits = end - begin - negative
    ok &= (digits >= 1) & (digits <= MAX_DIGITS)
    digits[~ok] = 0
    count = max(1, -(-int(digits.max(initial=0)) // 8))
    x = _words(b, end - 8 * count, count)
    before = _LOW[np.clip((8 * count - digits) - _WORD[:count], 0, 8)]
    x |= before
    before &= 0xCF * _ONES
    x ^= before  # each byte before the field is now "0"
    bad = x + 0x46 * _ONES
    x -= 0x30 * _ONES
    bad |= x
    bad &= 0x80 * _ONES
    ok &= ~bad.any(axis=0)
    # Each step joins neighbouring lanes: digit pairs, then 4 and 8 digits.
    x *= 10 << 8 | 1
    x >>= 8
    x &= 0x00FF00FF00FF00FF
    x *= 100 << 16 | 1
    x >>= 16
    x &= 0x0000FFFF0000FFFF
    x *= 10000 << 32 | 1
    x >>= 32
    value = x[0]
    for j in range(1, count):
        value = value * 10**8 + x[j]
    value = value.view(np.int64)
    np.negative(value, out=value, where=negative)
    return value


def _checked(names, chrom, start: np.ndarray, end: np.ndarray, ids) -> RegionColumns:
    """The only builder of a RegionColumns: the columns once every row
    is valid and below COORD_LIMIT; the first row that is not raises.

    ``start`` and ``end`` are ``int64`` or exact ``object`` ints; they
    are stored as ``int64``, without a copy when they already are.
    """
    bad = (start < 0) | (end < start) | (end >= COORD_LIMIT)
    if bad.any():
        i = int(bad.argmax())
        _reject(names[chrom[i]], int(start[i]), int(end[i]))
    return RegionColumns(
        names, chrom, start.astype(np.int64, copy=False), end.astype(np.int64, copy=False), ids
    )


def _reject(chrom: str, start: int, end: int) -> NoReturn:
    GenomicRegion(chrom, start, end)  # an invalid row raises GenomicRegion's own message
    raise ValueError(
        f"coordinate {max(start, end)} out of range: coordinates must be below 2**62"
    )


def window_join(a: RegionColumns, b: RegionColumns, flt: JoinFilter) -> list[OverlapPair]:
    """Pairs of A x B passing ``flt``, ordered by (a_id, b_id).

    Per chromosome, the rows of A and B form one index entry, and
    ``_join_chromosome`` finds each pair from its row that starts first;
    the pair is then turned so that its A row comes first.
    """
    min_bp, reach, twice_bound = _window_bounds(flt)
    found = []
    for entry, side in _aligned([a, b], min_bp):
        rows = entry[2]
        for x, y, bp, twice in _join_chromosome(entry, side, reach, twice_bound):
            x_in_a = side[x] == 0
            found.append((rows[np.where(x_in_a, x, y)], rows[np.where(x_in_a, y, x)], bp, twice))
    if not found:
        return []
    a_rows, b_rows, bp, twice = (np.concatenate(col) for col in zip(*found))
    a_ids, b_ids = a.ids[a_rows], b.ids[b_rows]
    order = np.lexsort((b_ids, a_ids))
    names = a.names
    return [
        OverlapPair(x, y, names[c], p, t / 2)
        for x, y, c, p, t in zip(
            a_ids[order].tolist(),
            b_ids[order].tolist(),
            a.chrom[a_rows[order]].tolist(),
            bp[order].tolist(),
            twice[order].tolist(),
        )
    ]


def hit_counts(sets: Sequence[RegionColumns], flt: JoinFilter) -> np.ndarray:
    """k x k ``int64`` matrix whose entry ``[q, r]`` counts the distinct
    rows of ``sets[q]`` in at least one pair passing ``flt`` with a row
    of ``sets[r]``. The diagonal is 0: no set is counted against itself.

    Per chromosome, the sets' rows form one entry (``_aligned``), joined
    with itself across sets. Each pair flags both its rows against the
    other row's set in a rows x k array, and one ``np.bincount`` of the
    flags' (set, set) cells adds the chromosome to the matrix.
    """
    k = len(sets)
    counts = np.zeros(k * k, dtype=np.int64)
    min_bp, reach, twice_bound = _window_bounds(flt)
    for entry, side in _aligned(sets, min_bp):
        hit = np.zeros((len(side), k), dtype=bool)
        for x, y, _, _ in _join_chromosome(entry, side, reach, twice_bound):
            hit[x, side[y]] = hit[y, side[x]] = True
        row, r = np.nonzero(hit)
        counts += np.bincount(side[row] * k + r, minlength=k * k)
    return counts.reshape(k, k)


def _window_bounds(flt: JoinFilter):
    """``(min_bp, reach, twice_bound)``: ``min_bp`` clamped into int64's
    range, the lowest bp overlap a passing pair can have, and the
    filter's ``twice_bound`` (None for no bound)."""
    # Signed overlaps of coordinates in [0, 2**62) lie in (-2**62, 2**62),
    # so clamping min_bp changes no result and keeps the bounds in int64.
    min_bp = min(max(flt.min_bp, 1 - COORD_LIMIT), COORD_LIMIT)
    twice_bound = flt.twice_bound
    if twice_bound is None:
        return min_bp, min_bp, None
    # A gap of g bp makes a doubled distance of at least 2g, which can narrow
    # a gap join's window; the clamp keeps reach <= 0 at twice_bound 0.
    return min_bp, max(min_bp, -(max(twice_bound - 1, 0) // 2)), twice_bound


def _aligned(sets: Sequence[RegionColumns], min_bp: int):
    """Yield ``(entry, side)`` for each chromosome name on which two or
    more of ``sets`` hold rows ``_by_code`` admits at ``min_bp``, in
    order of first appearance: ``entry`` is the ``_sorted_entry`` of all
    those rows, built here, and entry row i is row ``entry[2][i]`` of
    ``sets[side[i]]``."""
    per_name: dict[str, list[tuple[int, np.ndarray]]] = {}
    for i, cols in enumerate(sets):
        for name, rows in _by_code(cols.names, cols.chrom, cols.start, cols.end, min_bp):
            per_name.setdefault(name, []).append((i, rows))
    for parts in per_name.values():
        if len(parts) > 1:
            side = np.repeat([i for i, _ in parts], [len(at) for _, at in parts])
            picked = [(sets[i].start[at], sets[i].end[at], at) for i, at in parts]
            start, end, rows = map(np.concatenate, zip(*picked))
            start, end, order = _sorted_entry(start, end, np.arange(len(side)))
            yield (start, end, rows[order]), side[order]


def _join_chromosome(entry, side, reach, twice_bound):
    """Yield (earlier rows, later rows, bp overlap, twice the centre
    distance) of the passing pairs of rows of different sets (``side``)
    in one entry, as entry positions, CANDIDATE_CHUNK candidates at a time.

    Each pair is found from its row x that starts first (the forward scan
    of Bouros & Mamoulis, PVLDB 2017): x's candidates are the later rows
    that start at or before ``x.end - reach`` (``_forward_windows``).
    A candidate y's bp overlap is ``min(x.end, y.end) - y.start``, at least
    ``reach`` or y's length, so at least the ``min_bp`` that admitted y
    and gave ``reach``; only a centre-distance bound drops a candidate.
    """
    start, end, _ = entry
    lo, hi = _forward_windows(start, end - reach)
    counts = hi - lo
    ends = np.cumsum(counts)
    r0, rows = 0, len(counts)
    while r0 < rows:
        done = int(ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + CANDIDATE_CHUNK, "right")))
        n = counts[r0:r1]
        total = int(ends[r1 - 1]) - done
        if total:
            first = ends[r0:r1] - n - done  # each row's first candidate in the chunk
            x = np.repeat(np.arange(r0, r1), n)
            y = np.arange(total) + np.repeat(lo[r0:r1] - first, n)
            across = side[x] != side[y]
            x, y = x[across], y[across]
            s1, e1, s2, e2 = start[x], end[x], start[y], end[y]
            bp = np.minimum(e1, e2) - s2
            twice = np.abs((s1 + e1) - (s2 + e2))
            if twice_bound is not None:
                keep = twice < twice_bound
                x, y, bp, twice = x[keep], y[keep], bp[keep], twice[keep]
            yield x, y, bp, twice
        r0 = r1


def _forward_windows(start, last):
    """``(lo, hi)``: the rows after row i of an entry that start at or
    before ``last[i] >= start[i]`` are ``lo[i]:hi[i]``."""
    return np.arange(1, len(start) + 1), start.searchsorted(last, "right")
