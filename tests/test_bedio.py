import io
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmap.bedio import (
    BedParseError,
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
