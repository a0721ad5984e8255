"""BED-like region file parsing/writing, the dataset catalog,
``BedRecords``, the one numpy-free column type for a region set, and
``write_lines``, the one output rule.

Input files are tab-separated with at least three columns (chromosome,
start, end); extra columns are ignored. Blank lines and lines starting
with ``#``, ``track`` or ``browser`` are skipped. Coordinates accept
only ASCII digits with an optional leading ``-``, keeping the parse
locale-independent; their sanity is NOT enforced here, so that invalid
rows can be stored and later located by the erroneous-region search.

``BedRecords`` holds a chromosome name table, ``array('i')`` codes and
two coordinate columns; its constructor checks each name once, so it
builds rows without checking them again. The coordinate rule,
``coord_column``: an ``array('q')`` when every value fits int64, else a
list of the exact ints; a value that is not an integer raises
ValueError. A parse returns the scanner's columns as they are; other
region-shaped records are converted column by column, a chunk of
records at a time, by ``as_records`` alone. The store keeps each
dataset as one, and ``columns.RegionColumns`` views one as numpy.

``scan_numbered`` is the one line scanner and the rulebook: it alone
decides that a line is malformed, and why. It accepts at once a line
whose name it accepted before and whose coordinates are ASCII digits.
``parse_bed`` runs it over a stream, or over a path read whole as text
with universal newlines (``scan_text``). When numpy is loaded, it
reads a path with the numpy reader ``columns._read_bed`` instead, whose
fast path only accepts and sends every other line to ``scan_numbered``.
Each of these readers returns ``(BedRecords, ParseReport)``. A parse
imports numpy itself only once the paths a process has parsed without
it reach ``_NUMPY_AFTER`` bytes (2 MiB), about where the numpy reader's
saving pays for the import. A process that parses less by path stays
numpy-free; the worst case, a process that parses just past it and no
more, pays the import (about 0.09 s) for little saving, at most about
twice the cheaper choice. Streams never count. Without numpy, or with
its import blocked, every path is scanned in Python.

Every table regmap writes goes through ``write_lines``: to an open
stream as given, or to a path as UTF-8 with ``\n`` line ends, through a
file that replaces a regular one only once every line is written.
``write_bed`` refuses a name ``parse_bed`` would skip, so its lines all
read back.
"""

from __future__ import annotations

import math
import operator
import os
import stat
import sys
from array import array
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Literal

from .intervals import GenomicRegion, RawRegion, _check_chrom, _chrom_reason, _raw_region

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BedParseError",
    "BedRecords",
    "CatalogEntry",
    "ParseReport",
    "as_records",
    "coord_column",
    "numpy_coords",
    "parse_bed",
    "parse_bed_file",
    "write_bed",
    "write_lines",
    "load_catalog",
    "load_catalog_file",
]

_SKIP_PREFIXES = ("#", "track", "browser")
# ``as_records`` reads this many records at a time: list comprehensions
# and ``array.fromlist`` build a chunk's columns faster than appending
# record by record, and a chunk of records is all it holds at once.
_RECORD_CHUNK = 4096
# The path bytes ``parse_bed`` may still send to the Python scanner in
# this process before it imports numpy for the numpy reader (ski rental,
# Karlin et al., "Competitive snoopy caching", Algorithmica 1988). A
# path parsed while numpy is not loaded spends its size first, so the
# path that exhausts the budget is the first the numpy reader reads; a
# failed import sets it to ``math.inf``, so the import is tried once.
# Threads may lose a spend, which only delays the import.
# The start: in a store-only process ``import numpy`` took 0.086-0.10 s
# (median 0.091 s), and a path byte took 34-42 ns in the Python scanner
# and ``store._dataset``'s loop against 12-15 ns in the numpy reader and
# ``_dataset``'s numpy form (median saving 23 ns; 7.09 MB of BED text on
# a 2-vCPU Xeon VM, CPython 3.11, numpy 2.4): import / saving is 3.9 MB,
# rounded down to a power of two, so a process that never needed numpy
# pays at most about twice the cheaper of the two choices.
_NUMPY_AFTER = 1 << 21

CATALOG_HEADER = ("name", "factor", "cell_line", "treatment", "assembly", "path")


class BedParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One dataset of the catalog: regions file plus its metadata."""

    name: str
    factor: str
    cell_line: str
    treatment: str | None
    assembly: str
    path: str


@dataclass(slots=True)
class ParseReport:
    """Accounting for one parse: accepted + rejected = data lines seen."""

    accepted: int = 0
    rejected: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)


def coord_column(values) -> array | list[int]:
    """The coordinate rule: ``array('q')`` when every value fits int64,
    else a list of the exact ints. A value that is not an integer
    raises ValueError."""
    try:
        try:
            return array("q", values)
        except OverflowError:
            return list(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), None)
        raise ValueError(f"coordinate {bad!r} is not an integer") from None


def numpy_coords(values: array | list[int]) -> "np.ndarray":
    """A ``coord_column`` as numpy: an ``int64`` view of an ``array('q')``,
    exact ``object`` ints of a list, never numpy's own dtype guess
    (``np.array([2**63])`` is uint64). Imports numpy."""
    import numpy as np

    return np.frombuffer(values, np.int64) if isinstance(values, array) else np.array(values, object)


class BedRecords(Sequence):
    """A region set as columns: row i is ``RawRegion(names[codes[i]],
    starts[i], ends[i])``, built only when it is read. ``codes`` is an
    ``array('i')``; ``starts`` and ``ends`` follow ``coord_column``.
    The constructor checks each name once, raising ``RawRegion``'s
    ValueError, so rows are built without checking it again. Read-only:
    nothing changes the columns once built, and callers must not either.
    A slice is a list. Equal to any sequence of equal records, so
    unhashable."""

    __slots__ = ("names", "codes", "starts", "ends")

    def __init__(self, names, codes: array, starts: array | list[int], ends: array | list[int]):
        self.names, self.codes, self.starts, self.ends = tuple(names), codes, starts, ends
        for name in self.names:
            _check_chrom(name)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return _raw_region(self.names[self.codes[i]], self.starts[i], self.ends[i])

    def __iter__(self) -> Iterator[RawRegion]:
        return map(_raw_region, map(self.names.__getitem__, self.codes), self.starts, self.ends)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def arrays(self):
        """``(codes, starts, ends)`` as numpy: the codes viewed as ``intc``
        (int32), coordinates through ``numpy_coords``. Imports numpy."""
        import numpy as np

        return np.frombuffer(self.codes, np.intc), numpy_coords(self.starts), numpy_coords(self.ends)


def as_records(regions) -> BedRecords:
    """``regions`` as columns: a ``BedRecords`` as it is, any other
    iterable of region-shaped records in one pass that keeps no record
    past its chunk. A coordinate that is not an integer or is a bool, or
    a rejected name (each distinct one checked once), raises ValueError."""
    if isinstance(regions, BedRecords):
        return regions
    names: dict[str, int] = {}
    codes, starts, ends = array("i"), array("q"), array("q")
    rows = iter(regions)
    while chunk := list(islice(rows, _RECORD_CHUNK)):
        chroms = [r.chrom for r in chunk]
        for chrom in dict.fromkeys(chroms):
            names.setdefault(chrom, len(names))
        codes.fromlist([names[chrom] for chrom in chroms])
        start, end = [r.start for r in chunk], [r.end for r in chunk]
        if bool in {*map(type, start), *map(type, end)}:  # array("q") would keep it as 0 or 1
            bad = next(v for v in start + end if v.__class__ is bool)
            raise ValueError(f"coordinate {bad!r} is not an integer")
        if isinstance(starts, array):
            try:
                starts.fromlist(start)
                ends.fromlist(end)
                continue
            except (OverflowError, TypeError):
                # A value int64 does not hold, or not an integer: from here
                # on the coordinates are kept as given, for coord_column.
                n = len(codes) - len(chunk)
                starts, ends = starts[:n].tolist(), ends[:n].tolist()
        starts += start
        ends += end
    if isinstance(starts, list):
        starts, ends = coord_column(starts), coord_column(ends)
    return BedRecords(names, codes, starts, ends)


def _iter_lines(source: str | Path | IO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    for line in source:
        yield line.decode("utf-8") if isinstance(line, bytes) else line


def _is_int(text: str) -> bool:
    # ASCII only: str.isdigit alone would accept e.g. Arabic-Indic digits.
    return text.isascii() and (
        text.isdigit() or (text[:1] == "-" and text[1:].isdigit())
    )


def parse_bed(
    source: str | Path | IO | Iterable[str],
    mode: Literal["strict", "permissive"] = "strict",
) -> tuple[BedRecords, ParseReport]:
    """Parse a BED-like source into RawRegion records, held as columns.

    The name table lists each chromosome once, in order of first
    appearance: a name that passes the chromosome rule enters it at its
    first line of three or more fields, even when that line's
    coordinates are rejected. Each distinct chromosome name is checked
    once. In strict mode the first malformed line raises BedParseError;
    in permissive mode malformed lines are recorded in the report and
    skipped, and the parse itself never fails on tab-separated text.

    A stream goes through ``scan_numbered``. A path goes through the
    numpy reader when numpy is loaded, else through ``scan_text``. While
    numpy is not loaded, each path spends its size from
    ``_NUMPY_AFTER``; the path that exhausts it imports numpy (numpy's
    defaults, or one OpenBLAS thread under ``cli.main``) and goes to the
    numpy reader, as does every later one. A failed import is not tried
    again, and a ``None`` entry in ``sys.modules`` (a blocked import)
    keeps every parse on ``scan_text``. Either reader gives the same
    result.
    """
    global _NUMPY_AFTER
    if mode not in ("strict", "permissive"):
        raise ValueError(f"unknown parse mode: {mode!r}")
    strict = mode == "strict"
    if isinstance(source, (str, Path)):
        if "numpy" not in sys.modules:
            _NUMPY_AFTER -= os.path.getsize(source)
            if _NUMPY_AFTER <= 0:
                try:
                    import numpy  # noqa: F401
                except ImportError:
                    _NUMPY_AFTER = math.inf
        if sys.modules.get("numpy") is not None:
            from .columns import _read_bed

            return _read_bed(source, strict)
        with open(source, "r", encoding="utf-8") as fh:
            return scan_text(fh.read(), strict)
    # Without its "\n", a streamed 3-column line can take the fast accept.
    lines = (line.removesuffix("\n") for line in _iter_lines(source))
    return scan_numbered(enumerate(lines, start=1), strict)


def scan_text(text: str, strict: bool) -> tuple[BedRecords, ParseReport]:
    """``parse_bed``'s result for a whole text split at ``\\n``; the empty
    piece after a final newline is a blank line, so it is skipped."""
    return scan_numbered(enumerate(text.split("\n"), start=1), strict)


def scan_numbered(numbered: Iterable[tuple[int, str]], strict: bool) -> tuple[BedRecords, ParseReport]:
    """``parse_bed``'s rules over (line number, line) pairs.

    The columnar reader sends here each line its fast path does not
    accept, under its line number in the file.
    """
    names: list[str] = []
    codes: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    report = ParseReport()
    # chromosome name -> its code, or the reason the name is rejected
    seen: dict[str, int | str] = {}
    for lineno, raw in numbered:
        fields = raw.split("\t", 3)
        if len(fields) > 2:
            # An accepted name already passed every rule but the coordinates.
            code, start, end = seen.get(fields[0]), fields[1], fields[2]
            if code.__class__ is int and start.isdigit() and end.isdigit():
                if start.isascii() and end.isascii():
                    codes.append(code)
                    starts.append(int(start))
                    ends.append(int(end))
                    continue
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith(_SKIP_PREFIXES):
            continue
        fields = line.split("\t", 3)
        if len(fields) < 3:
            reason = "too few columns"
        else:
            chrom, start, end = fields[0], fields[1], fields[2]
            code = seen.get(chrom)
            if code is None:
                reason = _chrom_reason(chrom)
                if reason is None:
                    code = seen[chrom] = len(names)
                    names.append(chrom)
                else:
                    code = seen[chrom] = reason
            if code.__class__ is str:
                reason = code
            elif not _is_int(start):
                reason = "non-integer start"
            elif not _is_int(end):
                reason = "non-integer end"
            else:
                codes.append(code)
                starts.append(int(start))
                ends.append(int(end))
                continue
        if strict:
            raise BedParseError(lineno, reason)
        report.rejects.append((lineno, reason))
    report.accepted = len(codes)
    report.rejected = len(report.rejects)
    return BedRecords(names, array("i", codes), coord_column(starts), coord_column(ends)), report


def parse_bed_file(
    path: str | Path, mode: Literal["strict", "permissive"] = "strict"
) -> tuple[BedRecords, ParseReport]:
    """parse_bed over a filesystem path."""
    return parse_bed(Path(path), mode=mode)


def write_lines(lines: Iterable[str], sink: str | Path | IO) -> None:
    """Write each string of ``lines`` in order, as given: a line carries
    its own ``\n``. A path is written as UTF-8 with ``newline=""``, so no
    line end is translated; an open stream is written as it is.

    A path naming a regular file, or nothing yet, is written to a new
    file in the same directory that then replaces it (``os.replace``;
    an old file's permission bits are kept), so a write that fails
    leaves the old file, or no file, and raises an OSError that names
    ``sink``, not the new file. Any other path, such as ``/dev/null``
    or a FIFO, is written in place."""
    if not isinstance(sink, (str, Path)):
        sink.writelines(lines)
        return
    target = os.path.realpath(sink)  # a symlink keeps pointing at the file
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        return
    head, name = os.path.split(target)
    temporary = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(lines)
        os.replace(temporary, target)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            # name the path the caller gave, not the temporary file
            raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from exc
        raise


def _bed_lines(regions: Iterable[GenomicRegion | RawRegion]) -> Iterator[str]:
    for r in regions:
        if r.chrom.startswith(_SKIP_PREFIXES):
            raise ValueError(f"parse_bed would skip a line of chromosome {r.chrom!r}")
        yield f"{r.chrom}\t{r.start}\t{r.end}\n"


def write_bed(regions: Iterable[GenomicRegion | RawRegion], sink: str | Path | IO) -> None:
    """Write one chrom/start/end line per region, in input order.

    Output round-trips losslessly through parse_bed: a chromosome name
    starting with ``#``, ``track`` or ``browser`` raises ValueError
    before its line is written.
    """
    write_lines(_bed_lines(regions), sink)


def load_catalog(source: str | Path | IO | Iterable[str]) -> list[CatalogEntry]:
    """Load a dataset catalog from TSV.

    The first line must be exactly the header
    ``name factor cell_line treatment assembly path`` (tab-separated).
    Dataset names must be unique; an empty treatment field means none.
    """
    lines = list(_iter_lines(source))
    if not lines:
        raise ValueError("catalog is empty, expected a header line")
    header = tuple(lines[0].rstrip("\r\n").split("\t"))
    if header != CATALOG_HEADER:
        raise ValueError(
            f"bad catalog header: expected {list(CATALOG_HEADER)}, got {list(header)}"
        )
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(CATALOG_HEADER):
            raise ValueError(
                f"line {lineno}: expected {len(CATALOG_HEADER)} columns, got {len(fields)}"
            )
        name, factor, cell_line, treatment, assembly, path = fields
        if name in seen:
            raise ValueError(f"line {lineno}: duplicate dataset name {name!r}")
        if not assembly:
            raise ValueError(f"line {lineno}: empty assembly for dataset {name!r}")
        seen.add(name)
        entries.append(
            CatalogEntry(
                name=name,
                factor=factor,
                cell_line=cell_line,
                treatment=treatment or None,
                assembly=assembly,
                path=path,
            )
        )
    return entries


def load_catalog_file(path: str | Path) -> list[CatalogEntry]:
    """load_catalog over a filesystem path."""
    return load_catalog(Path(path))
