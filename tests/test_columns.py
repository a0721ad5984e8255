import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regmap import bedio, columns, intervals
from regmap import store as store_module
from regmap.bedio import (
    BedParseError,
    BedRecords,
    numpy_coords,
    parse_bed,
    parse_bed_file,
    scan_text,
    write_bed,
)
from regmap.bench import GenConfig, generate_regions
from regmap.columns import RegionColumns, hit_counts, read_bed_columns, window_join
from regmap.intervals import GenomicRegion, RawRegion
from regmap.joins import JoinFilter, count_overlapping, nested_loop_join, sweep_join
from regmap.store import RegionStore

def ids(regions, start=1):
    return [(start + i, r) for i, r in enumerate(regions)]


def gen(seed, count, upper=5000):
    config = GenConfig(
        seed=seed, count=count, chromosomes=("chr1", "chr2"),
        coord_lower=0, coord_upper=upper, max_size=500,
    )
    return generate_regions(config)


def long_region_case(n_a, n_b, seed=0):
    """n_a narrow A regions and n_b narrow B regions on chr1, plus one
    200 Mb B region at 0 that overlaps every other row."""
    rng = np.random.default_rng(seed)
    a_start = rng.integers(0, 199_000_000, n_a)
    b_start = rng.integers(0, 199_000_000, n_b)
    a = ids([GenomicRegion("chr1", s, s + 300) for s in a_start.tolist()])
    b = ids(
        [GenomicRegion("chr1", 0, 200_000_000)]
        + [GenomicRegion("chr1", s, s + 300) for s in b_start.tolist()],
        start=n_a + 1,
    )
    return a, b


class TestReadBedColumns:
    def test_ids_and_name_table(self, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("# c\nchr2\t5\t9\nchr1\t0\t3\textra\nchr2\t7\t7\n")
        cols = read_bed_columns(bed, first_id=10)
        assert cols.names == ("chr2", "chr1")
        assert cols.chrom.dtype == np.int32 and cols.start.dtype == np.int64
        assert cols.to_id_regions() == [
            (10, GenomicRegion("chr2", 5, 9)),
            (11, GenomicRegion("chr1", 0, 3)),
            (12, GenomicRegion("chr2", 7, 7)),
        ]

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("chr1\t0\t3\n\nchr1\t١٢\t30\n")
        with pytest.raises(BedParseError, match=r"^line 3: non-integer start$"):
            read_bed_columns(bed)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("chr1\t5\t9\nchr1\t-4\t2\nchr1\t9\t1\n", "start must be >= 0, got -4"),
            ("chr1\t5\t9\nchr1\t9\t1\nchr1\t-4\t2\n", r"end must be >= start, got \[9, 1\)"),
            # the first offender wins even when a later row cannot fit int64
            ("chr1\t9\t1\nchr1\t0\t99999999999999999999\n", r"got \[9, 1\)"),
            ("chr1\t0\t4611686018427387904\n", "out of range"),
            ("chr1\t0\t99999999999999999999\n", "out of range"),
            ("chr1\t99999999999999999999\t5\n", r"end must be >= start"),
            ("chr1\t-99999999999999999999\t5\n", "start must be >= 0"),
        ],
    )
    def test_first_invalid_row_raises_region_message(self, tmp_path, rows, message):
        bed = tmp_path / "x.bed"
        bed.write_text(rows)
        with pytest.raises(ValueError, match=message):
            read_bed_columns(bed)

    def test_largest_coordinate_accepted(self, tmp_path):
        bed = tmp_path / "x.bed"
        top = columns.COORD_LIMIT - 1
        bed.write_text(f"chr1\t{top - 10}\t{top}\n")
        a = read_bed_columns(bed)
        b = read_bed_columns(bed, first_id=2)
        (pair,) = window_join(a, b, JoinFilter(min_bp=-columns.COORD_LIMIT))
        assert (pair.bp_overlap, pair.centre_distance) == (10, 0.0)


def as_lists(records, report):
    """A reader's result as ``(names, codes, starts, ends, report)`` lists."""
    columns = records.names, records.codes, records.starts, records.ends
    return (*map(list, columns), report)


def text_scan(path, strict):
    """The reference reader: bedio's Python scanner over the file's text,
    as ``parse_bed`` reads a path when numpy is not loaded, with lists."""
    with open(path, encoding="utf-8") as fh:
        return as_lists(*scan_text(fh.read(), strict))


def scanned(path, first_id=1):
    """The reference reader's rows through the same build."""
    names, codes, starts, ends, _ = text_scan(path, strict=True)
    ids = np.arange(first_id, first_id + len(codes), dtype=np.int64)
    chrom = np.array(codes, dtype=np.int32)
    return columns._checked(tuple(names), chrom, numpy_coords(starts), numpy_coords(ends), ids)


def outcome(read, path, first_id):
    """Every column of the result, or the exception's type and message."""
    try:
        cols = read(path, first_id)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)
    return (
        cols.names,
        *((col.dtype.str, col.tolist()) for col in (cols.chrom, cols.start, cols.end, cols.ids)),
    )


LONG_NAME = "chr" + "x" * 70
NAMES = [
    "chr1", "chr2", "chrX", "chrUn_KI270742v1", "trackX", "track", "#x", "browser",
    "chr\x1c1", "chr 1", "", " ", LONG_NAME, "chr1\x00",
]
COORDS = [
    "0", "5", "17", "120", "3000", "-", "-0", "-7", "+5", "007", "\u0661\u0662", "", "5 ", "1e3",
    "9" * 18, "1" + "0" * 17, "-" + "9" * 18, "1" * 19, "0" * 18 + "4", "-" + "0" * 18 + "1",
    "9" * 19, "9" * 20, str(2**62 - 1), str(2**62),
]
TAILS = ["", "", "", "\tpeak\t0", "\t", "\t\t"]
VALID_LINE = st.tuples(
    st.sampled_from(NAMES[:4]), st.integers(0, 3000), st.integers(0, 500)
).map(lambda t: f"{t[0]}\t{t[1]}\t{t[1] + t[2]}".encode())
ANY_LINE = st.tuples(
    st.sampled_from(NAMES), st.sampled_from(COORDS), st.sampled_from(COORDS), st.sampled_from(TAILS)
).map(lambda t: f"{t[0]}\t{t[1]}\t{t[2]}{t[3]}".encode())
OTHER_LINE = st.sampled_from(
    [b"", b"   ", b" \t ", b"\x0c", b"# comment", b"track name=x", b"browser position chr1",
     b"chr1\t5", b"chr1", b"\t5\t9", b"chr1\t5\t9\x1c"]
)
CLEAN_LINE = st.one_of(VALID_LINE, VALID_LINE, VALID_LINE, ANY_LINE, OTHER_LINE)
# Files with a non-ASCII byte or a \r, which bedio reads whole.
DIRTY_LINE = st.one_of(
    CLEAN_LINE,
    st.sampled_from(["chr\u00e9\t1\t2".encode(), b"chr1\t\xff\t9", b"\xe9\t1\t2"]),
)
FILE_LINES = st.one_of(
    st.lists(st.tuples(CLEAN_LINE, st.just(b"\n")), max_size=12),
    st.lists(st.tuples(CLEAN_LINE, st.just(b"\n")), max_size=12),
    st.lists(st.tuples(DIRTY_LINE, st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=12),
)


class TestReadBedColumnsDifferential:
    @settings(max_examples=400, deadline=None)
    @given(
        FILE_LINES,
        st.booleans(),
        st.sampled_from([1, 5, 40, columns.INGEST_BLOCK]),
    )
    def test_matches_the_text_scan(self, tmp_path_factory, lines, final_newline, block):
        data = b"".join(line + end for line, end in lines)
        if lines and not final_newline:
            data = data[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("bed") / "x.bed"
        path.write_bytes(data)
        default = columns.INGEST_BLOCK
        columns.INGEST_BLOCK = block
        try:
            got = outcome(read_bed_columns, path, 7)
        finally:
            columns.INGEST_BLOCK = default
        assert got == outcome(scanned, path, 7)

    def test_blocks_do_not_change_the_answer(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(3000):
            name = ("chr1", "chr2", "chrX", "chrUn_KI270742v1", LONG_NAME)[i % 5 if i % 97 else 4]
            start = int(rng.integers(0, 10**6))
            lines.append(f"{name}\t{start}\t{start + int(rng.integers(0, 500))}")
            if i % 211 == 0:
                lines.append("# a comment")
            if i % 301 == 0:
                lines.append(f"chr2\t{'0' * 15}{start}\t{start + 9}")  # 19+ digits
        bed = tmp_path / "x.bed"
        bed.write_text("track name=x\n\n" + "\n".join(lines))
        want = outcome(scanned, bed, 1)
        for block in (1 << 40, 1, 100, 4096):
            monkeypatch.setattr(columns, "INGEST_BLOCK", block)
            assert outcome(read_bed_columns, bed, 1) == want, block


def read_as_bedio(path, strict):
    """``columns._read_bed``, whose columns have the types of bedio's
    readers, with lists."""
    records, report = columns._read_bed(path, strict)
    assert type(records) is BedRecords
    assert type(records.codes) is array and records.codes.typecode == "i"
    assert coordinate_column_type_ok(records.starts) and coordinate_column_type_ok(records.ends)
    return as_lists(records, report)


def scan_outcome(read, path, strict):
    """The whole scan result, report included, or the exception's type and message."""
    try:
        return read(path, strict)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def refuse(*args):
    raise AssertionError("a reader the test rules out was called")


NAME_64 = "chr" + "n" * 61
NAME_65 = "chr" + "n" * 62
assert (len(NAME_64), len(NAME_65)) == (columns.NAME_WIDTH, columns.NAME_WIDTH + 1)
# The malformed lines perfbench/gen.py injects, one per reject reason.
GEN_MALFORMED = [b"chr1\t500", b"chr1\t500x\t600", b"chr1\t500\tNA", b"chr 1\t500\t600", b"\t500\t600"]
READER_COORDS = [
    "0", "7", "120", "-7", "-0", "x", "", "9" * 18, "-" + "9" * 18, "1" * 19, "-" + "1" * 19, "9" * 20,
]
READER_LINE = st.one_of(
    VALID_LINE,
    VALID_LINE,
    st.tuples(VALID_LINE, st.sampled_from(TAILS)).map(lambda t: t[0] + t[1].encode()),
    st.tuples(
        st.sampled_from(["chr1", "chr2", NAME_64, NAME_65, LONG_NAME, "chr 1", ""]),
        st.sampled_from(READER_COORDS),
        st.sampled_from(READER_COORDS),
    ).map(lambda t: "\t".join(t).encode()),
    st.sampled_from(GEN_MALFORMED),
    OTHER_LINE,
)
READER_FILE = st.one_of(
    st.lists(st.tuples(READER_LINE, st.just(b"\n")), max_size=20),
    st.lists(st.tuples(READER_LINE, st.just(b"\n")), max_size=20),
    st.lists(
        st.tuples(
            st.one_of(READER_LINE, st.sampled_from(["chr\u00e9\t1\t2".encode(), b"chr1\t\xff\t9"])),
            st.sampled_from([b"\n", b"\r\n"]),
        ),
        max_size=20,
    ),
)


class TestReadBedDifferential:
    """``columns._read_bed``, which ``parse_bed`` runs on a path once numpy
    is loaded, against the Python scanner over the file's text: names,
    codes, coordinates and the whole report, or the same error."""

    @settings(max_examples=500, deadline=None)
    @example(  # a name over NAME_WIDTH bytes on a rejected line
        [(b"chr1\t1\t2", b"\n"), (b"c" * 70 + b"\tx\t5", b"\n"), (b"chr2\t3\t4", b"\n")],
        True,
        columns.INGEST_BLOCK,
        False,
    )
    @given(
        READER_FILE,
        st.booleans(),
        st.sampled_from([1, 5, 40, columns.INGEST_BLOCK]),
        st.booleans(),
    )
    def test_matches_scan_text(self, tmp_path_factory, lines, final_newline, block, strict):
        data = b"".join(line + end for line, end in lines)
        if lines and not final_newline:
            data = data[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("bed") / "x.bed"
        path.write_bytes(data)
        default = columns.INGEST_BLOCK
        columns.INGEST_BLOCK = block
        try:
            got = scan_outcome(read_as_bedio, path, strict)
        finally:
            columns.INGEST_BLOCK = default
        assert got == scan_outcome(text_scan, path, strict)

    def test_long_name_on_a_rejected_line_keeps_its_code(self, tmp_path):
        # The fast path never enters a name over NAME_WIDTH bytes; bedio
        # enters it even when the line's coordinates are bad.
        path = tmp_path / "x.bed"
        path.write_text(f"chr1\t1\t2\n{'c' * 70}\tx\t5\nchr2\t3\t4\n")
        names, codes, starts, ends, report = read_as_bedio(path, strict=False)
        assert (names, codes, starts, ends) == (["chr1", "c" * 70, "chr2"], [0, 2], [1, 3], [2, 4])
        assert report.rejects == [(2, "non-integer start")]

    def test_rejects_across_blocks_without_the_text_scanner(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        lines = []
        for i in range(30_000):
            start = int(rng.integers(0, 10**8))
            lines.append(f"chr{i % 3 + 1}\t{start}\t{start + int(rng.integers(1, 500))}".encode())
            if i % 97 == 0:
                lines.append(GEN_MALFORMED[i % len(GEN_MALFORMED)])
            if i % 1_001 == 0:
                lines += [b"# comment", b"", b"track name=x"]
        path = tmp_path / "x.bed"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert path.stat().st_size > 2 * columns.INGEST_BLOCK
        want = text_scan(path, strict=False)
        monkeypatch.setattr(columns, "scan_text", refuse)
        assert read_as_bedio(path, strict=False) == want
        assert want[-1].rejected == 310

    def test_a_new_name_on_every_line(self, tmp_path, monkeypatch):
        # Every line names a scaffold no earlier line names, in shuffled order.
        names = [f"scaffold_{i}" for i in np.random.default_rng(17).permutation(5_000).tolist()]
        path = tmp_path / "x.bed"
        path.write_text("".join(f"{name}\t{i}\t{i + 10}\n" for i, name in enumerate(names)))
        want = text_scan(path, strict=True)
        assert want[0] == names
        for block in (1, 4096, columns.INGEST_BLOCK):
            monkeypatch.setattr(columns, "INGEST_BLOCK", block)
            assert read_as_bedio(path, strict=True) == want, block

    def test_distinct_names_cost_about_what_the_text_scan_costs(self, tmp_path):
        # Ordering a block's new names must not pass over the block once per name.
        names = [f"scaffold_{i}" for i in np.random.default_rng(18).permutation(40_000).tolist()]
        text = "".join(f"{name}\t{i}\t{i + 10}\n" for i, name in enumerate(names))
        path = tmp_path / "x.bed"
        path.write_text(text)

        def best_of_3(read):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                read()
                times.append(time.perf_counter() - t0)
            return min(times)

        reader = best_of_3(lambda: columns._read_bed(path, True))
        assert reader <= 2 * best_of_3(lambda: scan_text(text, True))


class TestChromCodes:
    """Names that recur across ``_chrom_codes``' blocks, and new names
    first met in a late block, get ``bedio.scan_text``'s name table and
    codes."""

    @pytest.mark.parametrize("block", [40, columns.INGEST_BLOCK])
    def test_names_recurring_across_blocks(self, tmp_path, monkeypatch, block):
        early = ["chr1", "chr2", "chrX", "chrUn_KI270742v1", "ctg7", "ctg8", "chr 1"]
        late = ["chr19_KI270938v1_alt", "chrY"]  # first named after two default blocks
        rng = np.random.default_rng(29)
        lines = []
        for i in range(15_000):
            names = early + late if i >= 13_000 else early
            start = int(rng.integers(0, 10**8))
            name = names[int(rng.integers(len(names)))]
            lines.append(f"{name}\t{start}\t{start + 99}\tpeak_{i:06d}\t0\t+\n")
            if i % 997 == 0:
                lines.append("chr1\t500x\t600\n")
        path = tmp_path / "x.bed"
        path.write_text("".join(lines))
        assert len("".join(lines[:13_000])) > 2 * columns.INGEST_BLOCK
        want = text_scan(path, strict=False)
        table = want[0]
        assert sorted(table[:-2]) == sorted(name for name in early if " " not in name)
        assert sorted(table[-2:]) == sorted(late)
        monkeypatch.setattr(columns, "INGEST_BLOCK", block)
        monkeypatch.setattr(columns, "scan_text", refuse)
        assert read_as_bedio(path, strict=False) == want


# Coordinates and names that end just before, at and just after the
# reader's 8-byte word boundaries.
WORD_DIGITS = [1, 7, 8, 9, 15, 16, 17, 18, 19, 20]
WORD_NAMES = [("c" + "hrUn_scaffold" * 5)[:n] for n in (1, 7, 8, 9, 16, 17, 64)]


def word_boundary_text(max_digits, rejects):
    """Every WORD_NAMES name with start and end of each WORD_DIGITS width
    up to ``max_digits``, signed and unsigned; with ``rejects``, also each
    such number with ``/`` or ``:`` (the bytes around the digits) in
    every position, or next to it."""
    lines = []
    for n in (d for d in WORD_DIGITS if d <= max_digits):
        number = ("9081726354" * 2)[:n]
        for name in WORD_NAMES:
            for sign in ("", "-"):
                lines.append(f"{name}\t{sign}{number}\t{number[::-1]}")
        if rejects:
            for c in "/:":
                bad = [number[:i] + c + number[i + 1 :] for i in range(n)] + [c + number, number + c]
                lines += [f"chr{n}\t{b}\t5" for b in bad] + [f"chr{n}\t5\t-{b}" for b in bad]
    return "\n".join(lines) + "\n"


class TestWordBoundaries:
    """The word-at-a-time reader against ``bedio.scan_text`` where fields
    start and end around its 8-byte words, in blocks of any size."""

    @pytest.mark.parametrize("block", [1, 5, 40, columns.INGEST_BLOCK])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("rejects", [False, True])
    def test_fast_path_alone_matches_scan_text(self, tmp_path, monkeypatch, block, strict, rejects):
        path = tmp_path / "x.bed"
        path.write_text(word_boundary_text(columns.MAX_DIGITS, rejects))
        want = scan_outcome(text_scan, path, strict)
        monkeypatch.setattr(columns, "INGEST_BLOCK", block)
        monkeypatch.setattr(columns, "scan_text", refuse)  # the fast path decides every line
        assert scan_outcome(read_as_bedio, path, strict) == want
        if not strict:
            assert (want[-1].accepted, want[-1].rejected) == (112, 428 if rejects else 0)

    @pytest.mark.parametrize("block", [1, 5, 40, columns.INGEST_BLOCK])
    @pytest.mark.parametrize("strict", [True, False])
    def test_longer_coordinates_match_scan_text(self, tmp_path, monkeypatch, block, strict):
        path = tmp_path / "x.bed"
        path.write_text(word_boundary_text(20, rejects=True))
        want = scan_outcome(text_scan, path, strict)
        monkeypatch.setattr(columns, "INGEST_BLOCK", block)
        assert scan_outcome(read_as_bedio, path, strict) == want


class TestParseDispatch:
    """``bedio.parse_bed`` reads a path with the columnar reader when
    numpy is already loaded (it is, in this module) and a stream with
    the Python scanner."""

    TEXT = "# c\nchr1\t0\t10\nchr1\tbad\t1\n\nchr2\t-5\t3\nchr1\t7\n"
    ROWS = [RawRegion("chr1", 0, 10), RawRegion("chr2", -5, 3)]
    REJECTS = [(3, "non-integer start"), (6, "too few columns")]

    def test_path_skips_the_python_scanner(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bed"
        path.write_text(self.TEXT)
        monkeypatch.setattr(bedio, "scan_text", refuse)
        monkeypatch.setattr(columns, "scan_text", refuse)
        records, report = parse_bed_file(path, mode="permissive")
        assert isinstance(records, BedRecords) and records == self.ROWS
        assert report.rejects == self.REJECTS and report.accepted == 2
        assert (records.codes, records.starts, records.ends) == (
            array("i", [0, 1]), array("q", [0, -5]), array("q", [10, 3])
        )

    def test_path_with_numpy_blocked_uses_the_python_scanner(self, tmp_path):
        path = tmp_path / "x.bed"
        path.write_text(self.TEXT)
        code = (
            "import sys; sys.modules['numpy'] = None; from regmap.bedio import parse_bed_file; "
            f"records, report = parse_bed_file({str(path)!r}, mode='permissive'); "
            "print([(r.chrom, r.start, r.end) for r in records], report.rejects)"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"[('chr1', 0, 10), ('chr2', -5, 3)] {self.REJECTS}\n"

    def test_stream_uses_the_python_scanner(self, monkeypatch):
        monkeypatch.setattr(columns, "_read_bed", refuse)
        records, report = parse_bed(io.StringIO(self.TEXT), mode="permissive")
        assert records == self.ROWS and report.rejects == self.REJECTS


def coordinate_column_type_ok(column):
    """The coordinate rule: ``array('q')`` when every value fits int64,
    else a list."""
    if all(-(2**63) <= v < 2**63 for v in column):
        return type(column) is array and column.typecode == "q"
    return type(column) is list


# Valid rows, malformed lines and invalid rows; the last three texts
# hold a 19-digit coordinate that fits int64, a 20-digit one that does
# not, and a negative one that does not.
DIFFERENTIAL_TEXTS = [
    "chr1\t0\t10\nchr1\tbad\t5\n# c\nchr2\t-5\t3\nchr 1\t1\t2\nchr1\t7\n\nchr2\t9\t4\n",
    f"chr1\t0\t10\nchr1\tx\t5\nchr2\t3\t{'1' * 19}\nchr1\t5\t7\n",
    f"chr1\t0\t10\nchr1\tx\t5\nchr2\t3\t{10**19}\nchr1\t5\t7\n",
    f"track t\nchr1\t-{10**19}\t10\nchr2\t1\t2\t+\nchr1\t5\n",
]


@pytest.mark.parametrize(
    "text", DIFFERENTIAL_TEXTS, ids=["malformed", "19-digit", "20-digit", "negative-20-digit"]
)
def test_numpy_path_parse_equals_scan_text_with_the_same_column_types(tmp_path, text):
    path = tmp_path / "x.bed"
    path.write_text(text)
    records, report = parse_bed_file(path, mode="permissive")  # numpy is loaded here
    expected, want = scan_text(text, strict=False)
    assert records == expected and records.names == expected.names
    assert (report.accepted, report.rejects) == (want.accepted, want.rejects)
    for got in (records, expected):
        assert got.codes.typecode == "i"
        assert coordinate_column_type_ok(got.starts) and coordinate_column_type_ok(got.ends)
    assert (records.codes, records.starts, records.ends) == (
        expected.codes, expected.starts, expected.ends
    )


REFUSED_RECORDS = [
    ([RawRegion("chr1", 1.5, 3)], "coordinate 1.5 is not an integer"),
    ([RawRegion("chr1", "1", "3")], "coordinate '1' is not an integer"),
    (
        [RawRegion("chr1", 0, 5), SimpleNamespace(chrom="chr 1", start=0, end=5)],
        "chromosome name contains whitespace: 'chr 1'",
    ),
    # array("q") would keep a bool as 0 or 1
    ([RawRegion("chr1", 0, 5), RawRegion("chr1", True, 5)], "coordinate True is not an integer"),
]


@pytest.mark.parametrize("records, message", REFUSED_RECORDS)
@pytest.mark.parametrize(
    "convert",
    [
        lambda records: RegionStore().import_dataset("ds", records),
        RegionColumns.from_records,
        lambda records: RegionColumns.from_id_regions(list(enumerate(records, 1))),
    ],
    ids=["import_dataset", "from_records", "from_id_regions"],
)
def test_from_records_refuses_what_the_store_refuses(convert, records, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        convert(records)
    assert type(refused.value) is ValueError


@pytest.mark.parametrize("name", ["", "chr 1", "chr1\u00a0"])
def test_from_records_refuses_hand_built_records_with_a_rejected_name(name):
    with pytest.raises(ValueError) as refused:
        RegionColumns.from_records(
            BedRecords(["chr1", name], array("i", [0, 1]), array("q", [0, 2]), array("q", [5, 9]))
        )
    with pytest.raises(ValueError) as constructed:
        RawRegion(name, 2, 9)
    assert str(refused.value) == str(constructed.value)


class TestWindowJoin:
    def test_extreme_filters_match_reference(self):
        a = ids(gen(1, 80))
        b = ids(gen(2, 80), start=100)
        for flt in (
            JoinFilter(min_bp=10**30),
            JoinFilter(min_bp=-(10**30)),
            JoinFilter(min_bp=0, max_centre_distance=float("inf")),
            JoinFilter(min_bp=-3, max_centre_distance=0.5),
            JoinFilter(min_bp=1, max_centre_distance=1e308),
        ):
            assert sweep_join(a, b, flt) == nested_loop_join(a, b, flt), flt

    def test_chunking_does_not_change_the_answer(self, monkeypatch):
        a, b = long_region_case(300, 40)
        a += ids(gen(3, 100), start=1000)
        b += ids(gen(4, 100), start=2000)
        for flt in (JoinFilter(), JoinFilter(min_bp=-100), JoinFilter(min_bp=5, max_centre_distance=1e6)):
            monkeypatch.setattr(columns, "CANDIDATE_CHUNK", 1 << 40)
            unchunked = sweep_join(a, b, flt)
            monkeypatch.setattr(columns, "CANDIDATE_CHUNK", 7)
            assert sweep_join(a, b, flt) == unchunked == nested_loop_join(a, b, flt)

    def test_long_region_keeps_memory_bounded(self):
        # 50K x 201 candidates: expanded at once, their int64 index arrays
        # alone would take 80 MB, and the gathered columns several times more.
        a, b = long_region_case(50_000, 200)
        a_cols, b_cols = RegionColumns.from_id_regions(a), RegionColumns.from_id_regions(b)
        tracemalloc.start()
        try:
            pairs = window_join(a_cols, b_cols, JoinFilter())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        long_id = b[0][0]
        assert sum(p.b_id == long_id for p in pairs) == 50_000


# Lengths from 0 bp to 200 Mb, log-uniform in scale: most rows are
# short, a few cover every start a set can draw.
HEAVY_LENGTH = st.integers(0, 28).flatmap(lambda e: st.integers(0, min(2**e, 200_000_000)))


@st.composite
def region_sets(draw):
    """2-5 (id, region) lists, at least one of them empty, each on its
    own subset of chromosomes; starts lie within 3 kb so pairs occur."""
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        chroms = draw(st.lists(st.sampled_from(["chr1", "chr2", "chr3"]), min_size=1, max_size=3, unique=True))
        rows = draw(st.lists(
            st.builds(lambda c, s, n: GenomicRegion(c, s, s + n),
                      st.sampled_from(chroms), st.integers(0, 3000), HEAVY_LENGTH),
            max_size=12,
        ))
        sets.append(ids(rows))
    sets.insert(draw(st.integers(0, len(sets))), [])
    return sets


def count_candidates(monkeypatch):
    """A list that gains the number of candidates of each window search
    of ``_join_chromosome``."""
    windows, totals = columns._forward_windows, []

    def counted(*args):
        lo, hi = windows(*args)
        totals.append(int((hi - lo).sum()))
        return lo, hi

    monkeypatch.setattr(columns, "_forward_windows", counted)
    return totals


def entry_pairs(sets, flt):
    """Pairs of distinct rows passing ``flt`` among all the rows of every
    chromosome on which two or more sets hold rows at least ``min_bp``
    long: the row pairs of the merged index entries, same-set pairs
    included, from the reference join."""
    admitted = [[r for _, r in s if r.length >= max(flt.min_bp, 0)] for s in sets]
    total = 0
    for chrom in {r.chrom for rows in admitted for r in rows}:
        on = [[r for r in rows if r.chrom == chrom] for rows in admitted]
        if sum(map(bool, on)) > 1:
            merged = ids([r for rows in on for r in rows])
            # each pair of distinct rows twice, and every row with itself
            total += (len(nested_loop_join(merged, merged, flt)) - len(merged)) // 2
    return total


def reference_hits(sets, flt):
    """hit_counts' matrix from distinct a_ids of the reference join."""
    k = len(sets)
    return [
        [0 if q == r else len({p.a_id for p in nested_loop_join(sets[q], sets[r], flt)}) for r in range(k)]
        for q in range(k)
    ]


class TestHitCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        region_sets(),
        st.sampled_from([-50, 0, 1, 7]),
        st.sampled_from([None, 0, 0.5, 12, float("inf")]),
    )
    def test_matches_reference_join(self, sets, min_bp, bound):
        flt = JoinFilter(min_bp=min_bp, max_centre_distance=bound)
        cols = [RegionColumns.from_id_regions(s) for s in sets]
        got = hit_counts(cols, flt)
        assert got.dtype == np.int64 and got.shape == (len(sets), len(sets))
        want = reference_hits(sets, flt)
        assert got.tolist() == want
        assert count_overlapping(sets[0], sets[1], flt) == (want[0][1], len(sets[0]))
        assert window_join(cols[0], cols[1], flt) == nested_loop_join(sets[0], sets[1], flt)

    @pytest.mark.parametrize("bound", [None, float("inf")])
    def test_unbounded_candidates_are_the_passing_pairs_of_the_entry(self, monkeypatch, bound):
        # Without a centre bound every candidate passes: the forward scan
        # expands exactly the passing pairs of each chromosome's merged
        # entry, same-set pairs included, and no other.
        candidates = count_candidates(monkeypatch)
        a, b = long_region_case(300, 50)
        sets = [a, b, ids(gen(5, 200), start=1_000)]
        for min_bp in (1, 0, -500, 200):
            flt = JoinFilter(min_bp=min_bp, max_centre_distance=bound)
            candidates.clear()
            got = hit_counts([RegionColumns.from_id_regions(s) for s in sets], flt)
            assert got.tolist() == reference_hits(sets, flt), min_bp
            assert sum(candidates) == entry_pairs(sets, flt), min_bp

    def test_no_sets_and_one_set(self):
        assert hit_counts([], JoinFilter()).shape == (0, 0)
        one = RegionColumns.from_id_regions(ids(gen(6, 40)))
        assert hit_counts([one], JoinFilter()).tolist() == [[0]]

    def test_a_set_given_twice_counts_against_itself(self):
        a = RegionColumns.from_id_regions(ids(gen(7, 60)))
        got = hit_counts([a, a], JoinFilter(min_bp=0))
        assert got.tolist() == [[0, 60], [60, 0]]


def tied_rows(rng, n, region=GenomicRegion):
    """n rows on chr1 and chr2 whose starts take six values, so most rows
    share their start with dozens of others; a few are long."""
    starts = rng.choice([0, 10, 20, 500, 505, 1_000], n).tolist()
    lengths = rng.choice([0, 1, 5, 10, 30, 490, 2_000], n).tolist()
    return [
        region(f"chr{i % 2 + 1}", s, s + length) for i, (s, length) in enumerate(zip(starts, lengths))
    ]


def shuffled(rng, rows):
    return [rows[i] for i in rng.permutation(len(rows)).tolist()]


def reordered(rng, rows, order):
    """``rows`` shuffled, or sorted by chromosome and start as a sorted
    BED file is, or in two such sorted runs one after the other; rows
    are regions or ``(id, region)`` pairs."""
    rows = shuffled(rng, rows)
    if order == "shuffled":
        return rows

    def key(row):
        region = row[1] if isinstance(row, tuple) else row
        return region.chrom, region.start

    runs = [rows] if order == "sorted" else [rows[: len(rows) // 2], rows[len(rows) // 2 :]]
    return [row for run in runs for row in sorted(run, key=key)]


ORDERS = ["shuffled", "shuffled", "sorted", "two sorted runs"]


class TestTiedStarts:
    """The index sorts by start with ties in any order; no result may
    depend on the order of rows that share a start."""

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [7],
            [0, 0, 3, 3, 3, 9],
            [0, 4, 4, 9, 1, 4, 4, 12],
            [5, 1, 4, 1, 5, 9, 2, 6, 5, 3],
            [2**63, 5, 2**64, 5, 0],
        ],
        ids=["empty", "one", "one run", "two runs", "shuffled", "exact ints"],
    )
    def test_argsort_sorts_keys_in_any_number_of_runs(self, keys):
        keys = np.array(keys, dtype=np.int64 if all(k < 2**63 for k in keys) else object)
        order = intervals._argsort(keys)
        assert sorted(order.tolist()) == list(range(len(keys)))
        assert keys[order].tolist() == sorted(keys.tolist())

    FILTERS = [
        JoinFilter(),
        JoinFilter(min_bp=0),
        JoinFilter(min_bp=-30, max_centre_distance=40),
        JoinFilter(min_bp=1, max_centre_distance=25.5),
    ]

    @pytest.mark.parametrize("seed", range(3))
    def test_joins_and_counts_ignore_row_order(self, seed):
        rng = np.random.default_rng(seed)
        sets = [ids(tied_rows(rng, 120), start=1 + 1_000 * k) for k in range(3)]
        for flt in self.FILTERS:
            want_pairs = nested_loop_join(sets[0], sets[1], flt)
            want_counts = reference_hits(sets, flt)
            for order in ORDERS:
                cols = [RegionColumns.from_id_regions(reordered(rng, s, order)) for s in sets]
                assert window_join(cols[0], cols[1], flt) == want_pairs, flt
                assert hit_counts(cols, flt).tolist() == want_counts, flt

    @pytest.mark.parametrize("seed", range(3))
    def test_indexed_probes_after_merged_writes_ignore_row_order(self, seed):
        rng = np.random.default_rng(seed)
        datasets = [tied_rows(rng, 150, RawRegion) + [RawRegion("chr1", 20, 5)] for _ in range(4)]
        probes = [
            (chrom, position, window)
            for chrom in ("chr1", "chr2") for position in (0, 5, 10, 21, 505, 1_000, 1_031)
            for window in (1, 3, 600)
        ]
        for order in ORDERS:
            store = RegionStore()
            store.import_dataset("d0", reordered(rng, datasets[0], order))
            store.build_index()
            for k, rows in enumerate(datasets[1:], 1):
                write = store.insert_regions_rowwise if k == 2 else store.import_dataset
                write(f"d{k}", reordered(rng, rows, order))
                for chrom, position, window in probes:
                    want = store_module._scan(store._datasets, chrom, position - window, position + window)
                    assert store.proximity_search(chrom, position, window) == want


# Rows of int64 coordinates near the edges: invalid rows whose end - start
# wraps int64, zero-length rows and rows that start at 2**63 - 1.
INT64_EDGES = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -(2**62) - 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]),
)
EDGE_ROW = st.one_of(
    st.tuples(st.integers(0, 2), INT64_EDGES, INT64_EDGES),
    st.tuples(st.integers(0, 2), INT64_EDGES, st.integers(-2, 2)).map(
        lambda row: (row[0], row[1], min(max(row[1] + row[2], -(2**63)), 2**63 - 1))),
)


class TestIndexAdmission:
    """An index entry holds only the rows that can pair: a pair's bp
    overlap is at most either row's length, so a row shorter than
    ``min_bp`` enters no entry, and at ``min_bp <= 0`` a zero-length row
    does, since adjacency and gap joins pair it."""

    @staticmethod
    def recorded_lengths(monkeypatch):
        sorted_entry, lengths = columns._sorted_entry, []

        def recorded(start, end, rows):
            lengths.extend((end - start).tolist())
            return sorted_entry(start, end, rows)

        monkeypatch.setattr(columns, "_sorted_entry", recorded)
        return lengths

    @staticmethod
    def joined_and_counted(sets, flt):
        cols = [RegionColumns.from_id_regions(s) for s in sets]
        assert window_join(cols[0], cols[1], flt) == nested_loop_join(sets[0], sets[1], flt)
        assert hit_counts(cols, flt).tolist() == reference_hits(sets, flt)

    SETS = [ids(tied_rows(np.random.default_rng(4), 150), start=1 + 1_000 * k) for k in range(3)]

    def test_rule_at_the_int64_edges(self):
        # Row 0 is invalid and its end - start wraps int64 to a large
        # length; it also has the code past the last name, which drops
        # it (the store's own test is in test_store).
        start = np.array([2**62, 0, 5, 7, 2**63 - 1], dtype=np.int64)
        end = np.array([-(2**62) - 1, 0, 25, 26, 2**63 - 1], dtype=np.int64)
        codes = np.array([3, 0, 1, 1, 2], dtype=np.int32)

        def admitted(min_bp):
            groups = intervals._by_code(("chr1", "chr2", "chr3"), codes, start, end, min_bp)
            return [(name, sorted(rows.tolist())) for name, rows in groups]

        assert admitted(20) == [("chr2", [2])]
        assert admitted(0) == admitted(-5) == [("chr1", [1]), ("chr2", [2, 3]), ("chr3", [4])]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(EDGE_ROW, max_size=12), st.integers(-(2**62), 2**62) | st.integers(-3, 3))
    @example([(0, 10, -(2**63) + 5)], 1)
    @example([(1, 2**62, -(2**62) - 1), (2, 0, 0), (0, 2**63 - 1, 2**63 - 1)], 0)
    def test_admission_is_the_exact_rule_on_any_int64_rows(self, rows, min_bp):
        # _by_code drops every invalid row itself, whatever its int64
        # end - start wraps to, and keeps the rows long enough for min_bp.
        names = ("chr1", "chr2", "chr3")
        codes = np.array([code for code, _, _ in rows], dtype=np.int32)
        start = np.array([s for _, s, _ in rows], dtype=np.int64)
        end = np.array([e for _, _, e in rows], dtype=np.int64)
        want: dict[str, list[int]] = {}
        for i, (code, s, e) in enumerate(rows):
            if 0 <= s <= e and e - s >= max(min_bp, 0):
                want.setdefault(names[code], []).append(i)
        got = intervals._by_code(names, codes, start, end, min_bp)
        assert [(name, sorted(at.tolist())) for name, at in got] == [(n, want[n]) for n in names if n in want]

    @pytest.mark.parametrize("bound", [None, 1000])
    def test_rows_shorter_than_min_bp_enter_no_entry(self, monkeypatch, bound):
        lengths = self.recorded_lengths(monkeypatch)
        self.joined_and_counted(self.SETS, JoinFilter(min_bp=20, max_centre_distance=bound))
        assert lengths and min(lengths) >= 20

    @pytest.mark.parametrize("min_bp", [0, -30])
    @pytest.mark.parametrize("bound", [None, 1000])
    def test_zero_length_rows_enter_at_min_bp_0_and_below(self, monkeypatch, min_bp, bound):
        lengths = self.recorded_lengths(monkeypatch)
        self.joined_and_counted(self.SETS, JoinFilter(min_bp=min_bp, max_centre_distance=bound))
        assert 0 in lengths


def narrow_and_long(n, long_start, seed=1):
    """n narrow A rows and n narrow B rows on chr1 in [0, 1 Mb), and the
    B rows plus one 50 Mb row starting at ``long_start``, given last."""
    rng = np.random.default_rng(seed)
    a = ids([GenomicRegion("chr1", s, s + 300) for s in rng.integers(0, 1_000_000, n).tolist()])
    b = ids(
        [GenomicRegion("chr1", s, s + 300) for s in rng.integers(0, 1_000_000, n).tolist()],
        start=n + 1,
    )
    return a, b, b + [(2 * n + 1, GenomicRegion("chr1", long_start, long_start + 50_000_000))]


class TestLongRowWindows:
    def test_long_row_right_of_every_a_row_widens_no_window(self, monkeypatch):
        candidates = count_candidates(monkeypatch)
        a, b, with_long = narrow_and_long(2_000, 150_000_000)
        a_cols = RegionColumns.from_id_regions(a)
        plain = window_join(a_cols, RegionColumns.from_id_regions(b), JoinFilter())
        without = sum(candidates)
        candidates.clear()
        widened = window_join(a_cols, RegionColumns.from_id_regions(with_long), JoinFilter())
        assert widened == plain
        assert sum(candidates) == without

    @pytest.mark.parametrize("run", ["join", "count"])
    def test_long_row_at_0_adds_at_most_a_candidate_a_row(self, monkeypatch, run):
        # The 200 Mb row starts first, so it is found by no other row and
        # finds each of the 4,000 narrow rows once: linear, not 4,000 x 4,000.
        candidates = count_candidates(monkeypatch)
        a, b, _ = narrow_and_long(2_000, 0)
        with_long = b + [(2 * len(b) + 1, GenomicRegion("chr1", 0, 200_000_000))]
        flt = JoinFilter(max_centre_distance=300)
        a_cols = RegionColumns.from_id_regions(a)
        results = []
        for b_rows in (b, with_long):
            b_cols = RegionColumns.from_id_regions(b_rows)
            candidates.clear()
            if run == "join":
                results.append(window_join(a_cols, b_cols, flt))
            else:
                results.append(hit_counts([a_cols, b_cols], flt).tolist())
            results.append(sum(candidates))
        plain, without, widened, with_row = results
        assert widened == plain  # the long row's centre is 99 Mb from every narrow row
        assert without < with_row <= without + len(a) + len(with_long)

    @pytest.mark.parametrize("long_start", [0, 500_000, 150_000_000])
    def test_long_row_anywhere_matches_reference(self, long_start):
        a, _, b = narrow_and_long(300, long_start)
        a_cols, b_cols = RegionColumns.from_id_regions(a), RegionColumns.from_id_regions(b)
        for flt in (
            JoinFilter(),
            JoinFilter(min_bp=-1000),
            JoinFilter(min_bp=0, max_centre_distance=300),
            JoinFilter(min_bp=-500, max_centre_distance=25_000_000),
        ):
            assert window_join(a_cols, b_cols, flt) == nested_loop_join(a, b, flt), flt
            if flt.max_centre_distance is not None:
                assert hit_counts([a_cols, b_cols], flt).tolist() == reference_hits([a, b], flt)


raw_records = st.lists(
    st.builds(
        RawRegion,
        st.sampled_from(["chr1", "chr2", "chrX"]),
        st.integers(-30, 400),
        st.integers(-30, 400),
    ),
    max_size=40,
)


class TestFromRecords:
    """``RegionColumns.from_records`` against the store's own rows."""

    @settings(max_examples=150, deadline=None)
    @given(raw_records, raw_records)
    def test_matches_store_valid_rows_and_ids(self, before, records):
        store = RegionStore()
        store.import_dataset("before", before)
        store.import_dataset("ds", records)
        cols = RegionColumns.from_records(records, first_id=len(before) + 1)
        assert cols.to_id_regions() == store.valid_regions("ds")
        assert cols.chrom.dtype == np.int32 and cols.ids.dtype == np.int64
        if records:  # an empty import is not kept
            ds = store.columns("ds")
            stored = RegionColumns.from_records(ds.rows, ds.first_id)
            assert stored.to_id_regions() == cols.to_id_regions()
            assert stored.chrom.dtype == np.int32 and stored.ids.dtype == np.int64

    def test_invalid_rows_dropped_even_out_of_range(self):
        records = [RawRegion("chr1", -1, 2**70), RawRegion("chr2", 5, 9), RawRegion("chr1", 2**70, 3)]
        cols = RegionColumns.from_records(records, first_id=7)
        assert cols.names == ("chr1", "chr2")
        assert cols.to_id_regions() == [(8, GenomicRegion("chr2", 5, 9))]
        assert len(RegionColumns.from_records([])) == 0
        store = RegionStore()
        store.import_dataset("pad", [RawRegion("chr3", 0, 1)] * 6)
        store.import_dataset("ds", records)
        ds = store.columns("ds")
        stored = RegionColumns.from_records(ds.rows, ds.first_id)
        assert stored.to_id_regions() == [(8, GenomicRegion("chr2", 5, 9))]

    def test_valid_row_out_of_range_raises(self):
        records = [RawRegion("chr1", 0, 5), RawRegion("chr1", 3, 2**62), RawRegion("chr1", 9, 2)]
        message = f"coordinate {2**62} out of range: coordinates must be below 2**62"
        with pytest.raises(ValueError, match=re.escape(message)):
            RegionColumns.from_records(records)


def parsed(records):
    """``records`` written as BED text and parsed back: a BedRecords."""
    text = io.StringIO()
    write_bed(records, text)
    result, _ = parse_bed(io.StringIO(text.getvalue()))
    assert isinstance(result, BedRecords)
    return result


class TestFromParsedRecords:
    """``from_records`` on a parsed file's columns against the same records as a list."""

    @settings(max_examples=150, deadline=None)
    @given(raw_records, st.integers(1, 50))
    def test_matches_list_path(self, records, first_id):
        columns = parsed(records)
        cols = RegionColumns.from_records(columns, first_id)
        expected = RegionColumns.from_records(list(columns), first_id)
        assert cols.to_id_regions() == expected.to_id_regions()
        assert cols.chrom.dtype == np.int32 and cols.ids.dtype == np.int64
        assert cols.start.dtype == np.int64 and cols.end.dtype == np.int64

    def test_invalid_and_far_rows(self):
        records = [
            RawRegion("chr1", -1, 2**70), RawRegion("chr2", 5, 9), RawRegion("chr1", 2**70, 3),
            RawRegion("chr2", 0, 2**62 - 1),
        ]
        cols = RegionColumns.from_records(parsed(records), first_id=7)
        assert cols.to_id_regions() == [
            (8, GenomicRegion("chr2", 5, 9)), (10, GenomicRegion("chr2", 0, 2**62 - 1))
        ]
        assert len(RegionColumns.from_records(parsed([]))) == 0

    def test_valid_row_out_of_range_raises_the_same_error(self):
        records = parsed([
            RawRegion("chr1", 0, 5), RawRegion("chr1", -1, 2**70), RawRegion("chr1", 3, 2**62),
            RawRegion("chr1", 10**20, 2**64), RawRegion("chr1", 9, 2),
        ])
        message = f"coordinate {2**62} out of range: coordinates must be below 2**62"
        for source in (records, list(records)):
            with pytest.raises(ValueError, match=re.escape(message)):
                RegionColumns.from_records(source)


def test_parsed_file_to_store_and_columns_builds_no_record(tmp_path, monkeypatch):
    path = tmp_path / "p.bed"
    path.write_text("chr1\t0\t10\nchr1\t-5\t3\nchr2\t9\t20\nchr2\tbad\t1\n")
    built = []
    original = RawRegion.__post_init__
    monkeypatch.setattr(RawRegion, "__post_init__", lambda r: (built.append(r), original(r)))
    # Rows read from columns skip __post_init__: count the builder they use too.
    for module in (bedio, store_module):
        unchecked = module._raw_region
        monkeypatch.setattr(
            module, "_raw_region", lambda *a, build=unchecked: built.append(build(*a)) or built[-1]
        )
    records, _ = parse_bed_file(path, mode="permissive")
    store = RegionStore()
    store.import_dataset("p", records)
    cols = RegionColumns.from_records(records, first_id=1)
    assert built == []
    assert cols.ids.tolist() == [1, 3]
    assert [row.id for row in store.find_invalid()] == [2]  # built at the API edge
    assert len(built) == 1
