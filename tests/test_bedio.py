import io
import json
import os
import random
import re
import subprocess
import sys
from array import array
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from regmap import bedio
from regmap.bedio import (
    BedParseError,
    BedRecords,
    load_catalog,
    parse_bed,
    write_bed,
)
from regmap.bedio import _chrom_reason
from regmap.intervals import GenomicRegion, RawRegion, _check_chrom


def parse_text(text, mode="strict"):
    return parse_bed(io.StringIO(text), mode=mode)


class TestParseBed:
    def test_single_line(self):
        regions, report = parse_text("chr1\t0\t500\n")
        assert regions == [RawRegion("chr1", 0, 500)]
        assert report.accepted == 1
        assert report.rejected == 0

    def test_negative_start_is_parseable(self):
        # validation is a later, explicit step; bad coordinates survive
        regions, report = parse_text("chr1\t-5\t100\n", mode="permissive")
        assert regions == [RawRegion("chr1", -5, 100)]
        assert report.accepted == 1

    def test_non_integer_start_rejected_permissive(self):
        regions, report = parse_text("chr1\tabc\t100\n", mode="permissive")
        assert regions == []
        assert report.rejected == 1
        assert report.rejects == [(1, "non-integer start")]

    def test_strict_mode_aborts_with_line_number(self):
        text = "chr1\t0\t10\nchr1\txx\t20\n"
        with pytest.raises(BedParseError) as exc:
            parse_text(text, mode="strict")
        assert exc.value.lineno == 2
        assert "start" in exc.value.reason

    def test_comment_track_browser_and_blank_lines_skipped(self):
        text = (
            "# a comment\n"
            "track name=peaks\n"
            "browser position chr1\n"
            "\n"
            "chr1\t5\t10\n"
        )
        regions, report = parse_text(text, mode="strict")
        assert len(regions) == 1
        assert report.accepted == 1
        assert report.rejected == 0

    def test_extra_columns_ignored(self):
        regions, _ = parse_text("chr1\t0\t10\tpeak_1\t960\t+\n")
        assert regions == [RawRegion("chr1", 0, 10)]

    def test_too_few_columns(self):
        _, report = parse_text("chr1\t0\n", mode="permissive")
        assert report.rejects == [(1, "too few columns")]

    def test_crlf_tolerated(self):
        regions, _ = parse_text("chr1\t3\t9\r\n")
        assert regions == [RawRegion("chr1", 3, 9)]

    @pytest.mark.parametrize(
        "coord", ["+5", " 5", "5 ", "5_0", "0x10", "５", "1e3", ""]
    )
    def test_only_ascii_integer_coordinates(self, coord):
        _, report = parse_text(f"chr1\t{coord}\t100\n", mode="permissive")
        assert report.rejected == 1

    def test_accounting_balances(self):
        text = (
            "chr1\t0\t10\n"
            "# comment\n"
            "chr1\tbad\t10\n"
            "chr2\t5\t6\textra\n"
            "\n"
            "chr3\t1\n"
        )
        regions, report = parse_text(text, mode="permissive")
        assert report.accepted == len(regions) == 2
        assert report.rejected == 2
        assert report.accepted + report.rejected == 4  # non-comment, non-blank lines

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_text("chr1\t0\t1\n", mode="lenient")

    def test_parses_from_path(self, tmp_path):
        p = tmp_path / "x.bed"
        p.write_text("chr5\t100\t200\n")
        regions, _ = parse_bed(p)
        assert regions == [RawRegion("chr5", 100, 200)]

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\n\r"),
                max_size=40,
            ),
            max_size=20,
        )
    )
    def test_permissive_never_raises_and_accounting_balances(self, lines):
        text = "".join(line + "\n" for line in lines)
        regions, report = parse_text(text, mode="permissive")
        data_lines = [
            line
            for line in lines
            if line.strip() and not line.startswith(("#", "track", "browser"))
        ]
        assert report.accepted + report.rejected == len(data_lines)
        assert report.accepted == len(regions)
        assert len(report.rejects) == report.rejected


class TestBedRecords:
    TEXT = "chr1\t0\t5\nchr2\t-3\t9\nchrX\tbad\t1\nchr1\t7\t2\n"
    EXPECTED = [RawRegion("chr1", 0, 5), RawRegion("chr2", -3, 9), RawRegion("chr1", 7, 2)]

    def test_sequence_contract(self):
        records, report = parse_text(self.TEXT, mode="permissive")
        expected = self.EXPECTED
        assert isinstance(records, BedRecords) and isinstance(records, Sequence)
        assert len(records) == report.accepted == 3
        assert records.names == ("chr1", "chr2", "chrX")  # a rejected row's name is listed
        assert (records.codes, records.starts, records.ends) == (
            array("i", [0, 1, 0]), array("q", [0, -3, 7]), array("q", [5, 9, 2])
        )
        assert [records[i] for i in range(3)] == expected
        assert (records[-1], records[-3]) == (expected[-1], expected[-3])
        for i in (3, -4):
            with pytest.raises(IndexError):
                records[i]
        for part in (slice(1, None), slice(None, None, -1), slice(0, 3, 2), slice(5, 9)):
            assert type(records[part]) is list
            assert records[part] == expected[part]
        assert list(records) == expected
        assert records.index(expected[1]) == 1 and expected[2] in records

    def test_equality(self):
        records, _ = parse_text(self.TEXT, mode="permissive")
        expected = self.EXPECTED
        assert records == expected and expected == records
        assert records == tuple(expected) and tuple(expected) == records
        assert records == parse_text(self.TEXT, mode="permissive")[0]
        assert not records != expected
        assert records != expected[:2] and records != expected[::-1]
        assert records != parse_text("chr1\t0\t5\n")[0]
        assert records != "chr1" and records != 3
        assert parse_text("")[0] == [] and parse_text("")[0] != "" and parse_text("")[0] == ()
        with pytest.raises(TypeError):
            hash(records)

    def test_constructor_checks_each_name_as_raw_region_does(self):
        coords = array("q", [0]), array("q", [5])
        assert BedRecords(("chr1", "chrUn_x"), array("i", [1]), *coords)[0] == RawRegion("chrUn_x", 0, 5)
        for name in ("", "chr 1", "chr1\t", "\u3000"):
            with pytest.raises(ValueError) as constructed:
                RawRegion(name, 0, 5)
            with pytest.raises(ValueError, match=f"^{re.escape(str(constructed.value))}$"):
                BedRecords(["chr1", name], array("i", [0]), *coords)

    def test_read_only(self):
        records, _ = parse_text(self.TEXT, mode="permissive")
        with pytest.raises(TypeError):
            records[0] = RawRegion("chr1", 1, 2)
        with pytest.raises(AttributeError):
            records.extra = 1

class TestAsRecords:
    ROWS = [
        RawRegion("chr1", 0, 5),
        RawRegion("chr2", 3, 9),
        RawRegion("chr1", 2**62, 2**63 + 4),
        RawRegion("chr3", -(2**64), 7),
        RawRegion("chr2", 1, 2),
    ]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_columns_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # A record past int64 in a later chunk turns the coordinates
        # already taken into exact ints; a non-integer anywhere is refused.
        monkeypatch.setattr(bedio, "_RECORD_CHUNK", chunk)
        fits = bedio.as_records(iter(self.ROWS[:2] + self.ROWS[4:]))
        assert (fits.starts, fits.ends) == (array("q", [0, 3, 1]), array("q", [5, 9, 2]))
        exact = bedio.as_records(iter(self.ROWS))
        assert list(exact) == self.ROWS and exact.names == ("chr1", "chr2", "chr3")
        assert exact.codes == array("i", [0, 1, 0, 2, 1])
        assert exact.starts == [0, 3, 2**62, -(2**64), 1] and exact.ends == [5, 9, 2**63 + 4, 7, 2]
        ends_only = bedio.as_records(iter(self.ROWS[:3]))
        assert ends_only.starts == array("q", [0, 3, 2**62]) and ends_only.ends == [5, 9, 2**63 + 4]
        mixed = bedio.as_records(iter(self.ROWS[:2] + self.ROWS[3:]))
        assert mixed.starts == [0, 3, -(2**64), 1] and mixed.ends == array("q", [5, 9, 7, 2])
        bad = [*self.ROWS, SimpleNamespace(chrom="chr1", start=4, end=1.5)]
        with pytest.raises(ValueError, match=r"^coordinate 1.5 is not an integer$"):
            bedio.as_records(iter(bad))


# The rules of the bedio docstring, one line at a time, with no fast path.
COORDINATE = re.compile(r"-?[0-9]+")


def reference_scan(text, universal, strict):
    """``(rows, names, rejects)``, or ``("error", lineno)`` when strict."""
    if universal:  # a path is read in text mode: \r\n and \r end lines too
        text = re.sub(r"\r\n?", "\n", text)
    rows, names, rejects = [], [], []
    for lineno, line in enumerate(re.findall(r"[^\n]*\n|[^\n]+\Z", text), start=1):
        line = line.rstrip("\r\n")
        if not line.strip() or line.startswith(("#", "track", "browser")):
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            reason = "too few columns"
        elif fields[0] == "":
            reason = "empty chromosome"
        elif any(ch.isspace() for ch in fields[0]):
            reason = "chromosome contains whitespace"
        else:
            chrom, start, end = fields[:3]
            if chrom not in names:
                names.append(chrom)
            if not COORDINATE.fullmatch(start):
                reason = "non-integer start"
            elif not COORDINATE.fullmatch(end):
                reason = "non-integer end"
            else:
                rows.append((chrom, int(start), int(end)))
                continue
        if strict:
            return "error", lineno
        rejects.append((lineno, reason))
    return rows, names, rejects


# Repeated names and digit-like coordinates are drawn often, so that
# lines after a name's first accepted row test the fast accept.
scan_names = st.just("chr1") | st.sampled_from(
    ["chr1", "chr2", "chrX", "c h", "a\x1cb", "\x0c", "", "track9", "#c"]
)
scan_coords = st.one_of(
    st.sampled_from(["0", "7", "-5", "-0", "1" * 19, "9" * 20, "+3", "", "x"]),
    st.sampled_from(["٣", "²", "1٣", "5\x0c"]),
    st.integers(0, 10**6).map(str),
)
scan_line = st.one_of(
    st.builds(
        lambda name, start, end, extra: "\t".join([name, start, end, *extra]),
        scan_names | st.text("ab", min_size=1, max_size=2),
        scan_coords,
        scan_coords,
        st.lists(st.sampled_from(["peak", "", "9", " "]), max_size=2),
    ),
    st.lists(scan_names | scan_coords, max_size=2).map("\t".join),
    st.sampled_from(["#c\t1\t2", "track name=x", "browser position chr1", "", " \t "]),
)


class TestScanAgainstReference:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @example(
        [
            (line, "\r\n")
            for line in ("chr1\t1\t2", "chr1\t٣\t5", "chr1\t-5\t²", "chr1\t3\t+3", "chr1\t3\t5\x0c")
        ],
        False,
        "permissive",
    )
    @example([("chr1\t1\t2", "\r"), ("chr1\t3\t9\t", "\n"), ("chr1\t2\t1٣", "\n")], True, "strict")
    @given(
        st.lists(st.tuples(scan_line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=25),
        st.booleans(),
        st.sampled_from(["strict", "permissive"]),
    )
    def test_path_and_stream_sources_match_reference(self, tmp_path, lines, final_newline, mode):
        text = "".join(line + end for line, end in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        path = tmp_path / "scan.bed"
        path.write_bytes(text.encode("utf-8"))
        for source, universal in ((path, True), (io.StringIO(text), False)):
            expected = reference_scan(text, universal, mode == "strict")
            if expected[0] == "error":
                with pytest.raises(BedParseError) as exc:
                    parse_bed(source, mode)
                assert exc.value.lineno == expected[1]
                continue
            rows, names, rejects = expected
            records, report = parse_bed(source, mode)
            assert list(records.names) == names
            assert [(r.chrom, r.start, r.end) for r in records] == rows
            assert report.rejects == rejects
            assert (report.accepted, report.rejected) == (len(rows), len(rejects))


# Parses path and stream sources in a fresh interpreter, after setting
# bedio._NUMPY_AFTER when the config gives a value. Each call is
# [kind, path, mode], kind "path" or "stream"; in every thread it records
# whether numpy was loaded before and after it, its outcome and the
# outcome of scan_text over the file's text read with universal newlines.
SWITCH_CHILD = r"""
import json, sys, threading
config = json.loads(sys.argv[1])
if config["block"]:
    sys.modules["numpy"] = None
refused = []
if config["refuse"]:
    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy":
                refused.append(name)
                raise ImportError("numpy refused")
    sys.meta_path.insert(0, Refuse())
from regmap import bedio
assert "numpy" not in sys.modules or config["block"]
if config["after"] is not None:
    bedio._NUMPY_AFTER = config["after"]

def outcome(parse):
    try:
        records, report = parse()
    except bedio.BedParseError as exc:
        return ["error", exc.lineno, exc.reason]
    return [list(records.names), list(records.codes), list(records.starts), list(records.ends),
            report.accepted, report.rejected, [list(reject) for reject in report.rejects]]

def loaded():
    return sys.modules.get("numpy") is not None

def run(rows):
    for kind, path, mode in config["calls"]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        before = loaded()
        if kind == "path":
            got = outcome(lambda: bedio.parse_bed_file(path, mode))
        else:
            with open(path, encoding="utf-8") as fh:
                got = outcome(lambda: bedio.parse_bed(fh, mode))
        want = outcome(lambda: bedio.scan_text(text, mode == "strict"))
        rows.append([before, loaded(), got, want])

results = [[] for _ in range(config["threads"])]
if config["threads"] == 1:
    run(results[0])
else:
    start = threading.Barrier(config["threads"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda rows=rows: (start.wait(), run(rows))) for rows in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
print(json.dumps({"results": results, "refused": len(refused), "loaded": loaded(),
                  "after": bedio._NUMPY_AFTER}))
"""


def switch_child(calls, after=None, block=False, refuse=False, threads=1):
    config = dict(calls=[[kind, str(path), mode] for kind, path, mode in calls],
                  after=after, block=block, refuse=refuse, threads=threads)
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", SWITCH_CHILD, json.dumps(config)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def bed_file(path, rows, extra="", newline="\n", seed=0):
    """``rows`` seeded rows on three chromosomes, then ``extra``; every
    line ends with ``newline``."""
    rng = random.Random(seed)
    lines = []
    for _ in range(rows):
        start = rng.randrange(0, 10**7)
        lines.append(f"chr{rng.randrange(1, 4)}\t{start}\t{start + rng.randrange(1, 500)}\n")
    text = "".join(lines) + extra
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


MALFORMED = (
    "# comment\ntrack name=x\n\nchr1\t300\nchr1\tx\t9\nchr 1\t1\t2\n\t5\t9\n"
    "chr2\t5\tz\nchr2\t-5\t3\nchr3\t9\t2\n"
)


class TestNumpySwitch:
    @staticmethod
    def files(tmp_path):
        """Plain rows, malformed lines (ASCII, so the numpy reader's fast
        path declines them), a CRLF copy, a non-ASCII name and
        coordinates past int64."""
        return [
            bed_file(tmp_path / "plain.bed", 300, seed=1),
            bed_file(tmp_path / "malformed.bed", 300, MALFORMED, seed=2),
            bed_file(tmp_path / "crlf.bed", 300, MALFORMED, newline="\r\n", seed=3),
            bed_file(tmp_path / "nonascii.bed", 300, "chrÜn\t10\t20\nchr1\t5\tx\n", seed=4),
            bed_file(tmp_path / "big.bed", 300, f"chr2\t5\t{2**70}\nchr3\t{2**64}\t1\n", seed=5),
        ]

    @staticmethod
    def assert_equal_to_scan_text(results):
        for rows in results:
            for _, _, got, want in rows:
                assert got == want

    def test_numpy_loads_at_the_path_that_crosses_the_constant(self, tmp_path):
        files = self.files(tmp_path)
        # every file in both modes, twice: the first round spends one
        # byte less than the constant, so the second round's first path
        # crosses it
        calls = [("path", f, mode) for f in files for mode in ("strict", "permissive")] * 2
        after = sum(os.path.getsize(f) for f in files) * 2 + 1
        crossing = len(calls) // 2
        out = switch_child(calls, after=after)
        rows = out["results"][0]
        assert [before for before, _, _, _ in rows] == [i > crossing for i in range(len(calls))]
        assert [now for _, now, _, _ in rows] == [i >= crossing for i in range(len(calls))]
        assert sum(got[0] == "error" for _, _, got, _ in rows) > 0
        self.assert_equal_to_scan_text(out["results"])

    def test_streams_never_count(self, tmp_path):
        files = self.files(tmp_path)
        calls = [("stream", f, mode) for f in files for mode in ("strict", "permissive")]
        out = switch_child(calls, after=100)
        assert out["after"] == 100 and not out["loaded"]
        assert not any(before or now for before, now, _, _ in out["results"][0])
        self.assert_equal_to_scan_text(out["results"])

    def test_a_blocked_numpy_never_loads(self, tmp_path):
        calls = [("path", f, mode) for f in self.files(tmp_path) for mode in ("strict", "permissive")]
        out = switch_child(calls, after=100, block=True)
        assert not out["loaded"]
        assert not any(before or now for before, now, _, _ in out["results"][0])
        self.assert_equal_to_scan_text(out["results"])

    def test_a_file_below_the_default_constant_leaves_numpy_unloaded(self, tmp_path):
        # the budget a fresh process starts with; this one may have spent some
        default = switch_child([])["after"]
        below = tmp_path / "below.bed"
        with open(below, "w", encoding="utf-8", newline="") as fh:
            row = "chr1\t100\t200\n"
            count, rest = divmod(default - 1, len(row))
            fh.write(row * count + "\n" * rest)
        assert os.path.getsize(below) == default - 1
        one_byte = tmp_path / "one.bed"
        one_byte.write_text("\n")
        out = switch_child([("path", below, "strict"), ("path", one_byte, "strict")])
        (first, second) = out["results"][0]
        assert first[:2] == [False, False] and second[:2] == [False, True]
        self.assert_equal_to_scan_text(out["results"])

    def test_a_failed_import_is_tried_once(self, tmp_path):
        files = [bed_file(tmp_path / f"{i}.bed", 50, MALFORMED, seed=i) for i in range(20)]
        calls = [("path", f, "permissive") for f in files]
        out = switch_child(calls, after=100, refuse=True)
        assert out["refused"] == 1 and not out["loaded"]
        assert out["after"] == float("inf")
        self.assert_equal_to_scan_text(out["results"])

    def test_threads_parse_across_the_switch(self, tmp_path):
        files = self.files(tmp_path)
        calls = [("path", f, mode) for f in files for mode in ("strict", "permissive")] * 2
        after = sum(os.path.getsize(f) for f in files) * 2
        out = switch_child(calls, after=after, threads=4)
        assert out["loaded"] and len(out["results"]) == 4
        assert all(len(rows) == len(calls) for rows in out["results"])
        self.assert_equal_to_scan_text(out["results"])


class TestChromosomeRule:
    def test_split_test_matches_isspace_on_every_code_point(self):
        # Both checks use chrom.split() != [chrom] for speed; the rule is
        # "contains a character for which str.isspace() is true".
        names = [chr(c) for c in range(sys.maxunicode + 1)]
        names += [
            "chr1", "chr 1", " chr1", "chr1 ", "chr1\t", "chr\x1c1", "a\u3000b",
            "chr\u00a0", "\u0661\u0662", "chrUn_KI270742v1", "  ", "x\u2028", "\u200bchr",
        ]
        for name in names:
            spaced = any(c.isspace() for c in name)
            assert (_chrom_reason(name) is not None) == spaced, repr(name)
            if spaced:
                with pytest.raises(ValueError, match="^chromosome name contains whitespace: "):
                    _check_chrom(name)
            else:
                _check_chrom(name)
        assert _chrom_reason("") == "empty chromosome"
        with pytest.raises(ValueError, match="^chromosome name must be non-empty$"):
            _check_chrom("")


regions_strategy = st.lists(
    st.tuples(
        st.sampled_from(["chr1", "chr2", "chr10", "chrX"]),
        st.integers(0, 10**9),
        st.integers(0, 10**4),
    ).map(lambda t: GenomicRegion(t[0], t[1], t[1] + t[2])),
    max_size=50,
)


class TestWriteBed:
    def test_single_region(self):
        buf = io.StringIO()
        write_bed([GenomicRegion("chr1", 0, 500)], buf)
        assert buf.getvalue() == "chr1\t0\t500\n"

    def test_empty_list(self):
        buf = io.StringIO()
        write_bed([], buf)
        assert buf.getvalue() == ""

    @given(regions_strategy)
    def test_round_trip(self, regions):
        buf = io.StringIO()
        write_bed(regions, buf)
        parsed, report = parse_text(buf.getvalue())
        assert report.accepted == len(regions)
        assert [(p.chrom, p.start, p.end) for p in parsed] == [
            (r.chrom, r.start, r.end) for r in regions
        ]

    @pytest.mark.parametrize("name", ["#chr1", "track1", "browser", "trackchr2"])
    def test_name_parse_bed_skips_is_refused_before_its_line(self, name):
        buf = io.StringIO()
        regions = [GenomicRegion("chr1", 0, 5), RawRegion(name, 10, 20), GenomicRegion("chr1", 30, 40)]
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            write_bed(regions, buf)
        assert buf.getvalue() == "chr1\t0\t5\n"

    @given(st.text(min_size=1, max_size=8) | st.sampled_from(["#", "#c", "track", "tracks", "browser1"]))
    def test_every_name_written_is_read_back(self, name):
        if _chrom_reason(name) is not None:
            return
        buf = io.StringIO()
        try:
            write_bed([RawRegion(name, 1, 2)], buf)
        except ValueError:
            assert name.startswith(bedio._SKIP_PREFIXES)
            return
        parsed, report = parse_text(buf.getvalue())
        assert (report.accepted, report.rejected) == (1, 0)
        assert list(parsed) == [RawRegion(name, 1, 2)]


CATALOG_HEADER = "name\tfactor\tcell_line\ttreatment\tassembly\tpath\n"


class TestLoadCatalog:
    def test_single_entry_empty_treatment(self):
        entries = load_catalog(
            io.StringIO(CATALOG_HEADER + "ds1\tHNF4G\tHepG2\t\thg19\tds1.bed\n")
        )
        assert len(entries) == 1
        e = entries[0]
        assert e.name == "ds1"
        assert e.factor == "HNF4G"
        assert e.treatment is None
        assert e.assembly == "hg19"

    def test_duplicate_name_rejected(self):
        text = (
            CATALOG_HEADER
            + "ds1\tA\tc\t\thg19\ta.bed\n"
            + "ds1\tB\tc\t\thg19\tb.bed\n"
        )
        with pytest.raises(ValueError, match="ds1"):
            load_catalog(io.StringIO(text))

    def test_order_preserved(self):
        text = (
            CATALOG_HEADER
            + "b\tF\tc\t\thg19\tb.bed\n"
            + "a\tF\tc\tE2\thg19\ta.bed\n"
            + "c\tF\tc\t\tmm9\tc.bed\n"
        )
        entries = load_catalog(io.StringIO(text))
        assert [e.name for e in entries] == ["b", "a", "c"]
        assert entries[1].treatment == "E2"

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            load_catalog(io.StringIO("ds1\tA\tc\t\thg19\ta.bed\n"))

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="columns"):
            load_catalog(io.StringIO(CATALOG_HEADER + "ds1\tA\tc\thg19\ta.bed\n"))

    def test_empty_assembly(self):
        with pytest.raises(ValueError, match="assembly"):
            load_catalog(io.StringIO(CATALOG_HEADER + "ds1\tA\tc\t\t\ta.bed\n"))

    def test_empty_source(self):
        with pytest.raises(ValueError, match="^catalog is empty, expected a header line$"):
            load_catalog(io.StringIO(""))

    def test_blank_lines_between_rows_are_skipped(self):
        text = CATALOG_HEADER + "\n" + "a\tF\tc\t\thg19\ta.bed\n" + " \t\r\n" + "b\tF\tc\t\thg19\tb.bed\n\n"
        assert [e.name for e in load_catalog(io.StringIO(text))] == ["a", "b"]
        # line numbers still count the blank lines
        with pytest.raises(ValueError, match="^line 4: duplicate dataset name 'a'$"):
            load_catalog(io.StringIO(CATALOG_HEADER + "a\tF\tc\t\thg19\ta.bed\n\na\tF\tc\t\thg19\ta.bed\n"))
