import ast
import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmap import bedio
from regmap.bedio import load_catalog_file, parse_bed_file
from regmap.cli import build_parser, main
from regmap.data import toy_catalog_path, toy_data_dir
from regmap.joins import JoinFilter, pairwise_mining, write_mining_tsv
from regmap.store import RegionStore


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def toy_beds(tmp_path):
    base = toy_catalog_path().parent
    for name in ("hnf4g_hepg2.bed", "h3k4me1_hepg2.bed"):
        shutil.copy(base / name, tmp_path / name)
    return tmp_path


class TestGen:
    def test_writes_requested_count(self, capsys, tmp_path):
        out = tmp_path / "g.bed"
        rc, _, _ = run_cli(capsys, "gen", "--count", "25", "--seed", "3", "--out", str(out))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 25

    def test_deterministic_under_seed(self, capsys):
        rc1, out1, _ = run_cli(capsys, "gen", "--count", "10", "--seed", "4")
        rc2, out2, _ = run_cli(capsys, "gen", "--count", "10", "--seed", "4")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_output_parses_back(self, capsys, tmp_path):
        from regmap.bedio import parse_bed_file

        out = tmp_path / "g.bed"
        run_cli(capsys, "gen", "--count", "40", "--seed", "9", "--out", str(out))
        regions, report = parse_bed_file(out)
        assert report.accepted == 40
        assert all(r.is_valid() for r in regions)

    def test_fixed_size(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "--count", "5", "--seed", "1", "--fixed-size")
        assert rc == 0
        for line in out.splitlines():
            chrom, start, end = line.split("\t")
            assert int(end) - int(start) == 500

    @pytest.mark.parametrize("chromosomes", ["track1", "chr1,#chr2"])
    def test_chromosome_parse_bed_skips_exits_1(self, capsys, chromosomes):
        rc, _, err = run_cli(capsys, "gen", "--count", "3", "--chromosomes", chromosomes)
        assert rc == 1
        assert err.startswith("regmap: error: parse_bed would skip a line of chromosome ")
        assert repr(chromosomes.split(",")[-1]) in err


class TestOverlap:
    def write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_known_pairs(self, capsys, tmp_path):
        a = self.write(tmp_path / "a.bed", "chr1\t0\t10\nchr1\t100\t200\n")
        b = self.write(tmp_path / "b.bed", "chr1\t5\t20\n")
        rc, out, _ = run_cli(capsys, "overlap", "--a", a, "--b", b)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "a_id\tb_id\tchrom\tbp_overlap\tcentre_distance"
        # b file ids continue after a's two regions
        assert lines[1] == "1\t3\tchr1\t5\t7.5"
        assert len(lines) == 2

    def test_algorithms_byte_identical(self, capsys, tmp_path):
        a = self.write(
            tmp_path / "a.bed", "chr1\t0\t50\nchr1\t40\t90\nchr2\t10\t30\n"
        )
        b = self.write(tmp_path / "b.bed", "chr1\t45\t60\nchr2\t0\t15\n")
        _, nested, _ = run_cli(capsys, "overlap", "--a", a, "--b", b, "--algorithm", "nested")
        _, sweep, _ = run_cli(capsys, "overlap", "--a", a, "--b", b, "--algorithm", "sweep")
        assert nested == sweep

    def test_empty_input_gives_header_only(self, capsys, tmp_path):
        a = self.write(tmp_path / "a.bed", "")
        b = self.write(tmp_path / "b.bed", "chr1\t0\t5\n")
        rc, out, _ = run_cli(capsys, "overlap", "--a", a, "--b", b)
        assert rc == 0
        assert out == "a_id\tb_id\tchrom\tbp_overlap\tcentre_distance\n"

    def test_invalid_region_data_fails_with_exit_1(self, capsys, tmp_path):
        a = self.write(tmp_path / "a.bed", "chr1\t50\t10\n")
        b = self.write(tmp_path / "b.bed", "chr1\t0\t5\n")
        rc, _, err = run_cli(capsys, "overlap", "--a", a, "--b", b)
        assert rc == 1
        assert "error" in err

    def test_nan_centre_distance_refused(self, capsys, tmp_path):
        a = self.write(tmp_path / "a.bed", "chr1\t0\t10\n")
        rc, out, err = run_cli(capsys, "overlap", "--a", a, "--b", a, "--max-centre-distance", "nan")
        assert (rc, out, err) == (1, "", "regmap: error: max_centre_distance must not be NaN\n")

    def test_filters_forwarded(self, capsys, tmp_path):
        a = self.write(tmp_path / "a.bed", "chr1\t0\t10\n")
        b = self.write(tmp_path / "b.bed", "chr1\t9\t20\n")
        rc, out, _ = run_cli(capsys, "overlap", "--a", a, "--b", b, "--min-bp", "2")
        assert rc == 0
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("algorithm", ["sweep", "nested"])
    def test_centre_distance_exact_up_to_doubled_2_to_the_53(self, capsys, tmp_path, algorithm):
        # The doubled distance 2**53 - 1 is the largest odd one whose half a float holds.
        a = self.write(tmp_path / "a.bed", "chr1\t0\t1\n")
        b = self.write(tmp_path / "b.bed", f"chr1\t{2**52 - 1}\t{2**52 + 1}\n")
        argv = ["--a", a, "--b", b, "--min-bp", str(-(2**52)), "--algorithm", algorithm]
        rc, out, _ = run_cli(capsys, "overlap", *argv)
        assert rc == 0
        assert out.splitlines()[1:] == [f"1\t2\tchr1\t{2 - 2**52}\t4503599627370495.5"]


class TestOverlapColumnar:
    """The default (columnar) path against ``--algorithm nested``."""

    MESSY_A = (
        "# peaks\r\n"
        "track name=a\n"
        "browser position chr1:1-100\n"
        "\n"
        "chr1\t0\t50\tpeak1\t900\t+\r\n"
        "chr1\t40\t40\n"
        "chr2\t10\t30\textra\n"
        "   \n"
        "chr1\t45\t45\r\n"
        "chrUn\t5\t9\n"
        "chr1\t200\t260\n"
    )
    MESSY_B = (
        "browser hide all\n"
        "chr1\t45\t60\r\n"
        "chr1\t40\t40\tzero\n"
        "\n"
        "chr2\t0\t15\n"
        "#chr2\t0\t15\n"
        "chr1\t270\t300\n"
        "chr3\t0\t10\n"
    )

    def overlap(self, capsys, tmp_path, a_text, b_text, *flags):
        a, b = tmp_path / "a.bed", tmp_path / "b.bed"
        a.write_bytes(a_text.encode())
        b.write_bytes(b_text.encode())
        return [
            run_cli(capsys, "overlap", "--a", str(a), "--b", str(b), "--algorithm", algo, *flags)
            for algo in ("sweep", "nested")
        ]

    @pytest.mark.parametrize(
        "flags",
        [(), ("--min-bp", "0"), ("--min-bp", "-20"), ("--min-bp", "-5", "--max-centre-distance", "30")],
    )
    def test_messy_files_byte_identical(self, capsys, tmp_path, flags):
        sweep, nested = self.overlap(capsys, tmp_path, self.MESSY_A, self.MESSY_B, *flags)
        assert sweep == nested
        assert sweep[0] == 0 and sweep[2] == ""
        assert len(sweep[1].splitlines()) > 1

    def test_zero_length_and_crlf_rows_pair(self, capsys, tmp_path):
        (rc, out, _), _ = self.overlap(capsys, tmp_path, self.MESSY_A, self.MESSY_B, "--min-bp", "0")
        assert rc == 0
        # A's six data rows get ids 1..6; B's ids continue at 7
        assert "2\t8\tchr1\t0\t0\n" in out  # [40,40) vs [40,40)
        assert "1\t7\tchr1\t5\t27.5\n" in out  # CRLF rows on both sides

    @pytest.mark.parametrize(
        "a_text, b_text, message",
        [
            ("chr1\t0\t5\n\nchr1\t7\n", "chr1\t0\t5\n", "line 3: too few columns"),
            ("chr1\t0\t5\n", "# h\nchr1\t0\t5\nchr1\t3\tx\n", "line 3: non-integer end"),
            ("chr1\t١٢\t30\n", "chr1\t0\t5\n", "line 1: non-integer start"),
            (
                "chr1\t0\t5\nchr1\t-4\t9\nchr1\t9\t2\n",
                "chr1\t8\t1\n",
                "start must be >= 0, got -4",
            ),
            ("chr1\t0\t5\n", "chr1\t0\t5\nchr1\t8\t1\n", "end must be >= start, got [8, 1)"),
            # a malformed B line is found only after A is read and checked
            ("chr1\t9\t2\n", "chr1\tx\t5\n", "end must be >= start, got [9, 2)"),
            (
                "chr1\t0\t4611686018427387904\n",
                "chr1\t0\t5\n",
                "coordinate 4611686018427387904 out of range: coordinates must be below 2**62",
            ),
            (
                "chr1\t0\t5\n",
                "chr1\t0\t99999999999999999999\n",
                "coordinate 99999999999999999999 out of range: coordinates must be below 2**62",
            ),
        ],
    )
    def test_errors_exit_1_with_exact_message(self, capsys, tmp_path, a_text, b_text, message):
        for rc, out, err in self.overlap(capsys, tmp_path, a_text, b_text):
            assert (rc, out, err) == (1, "", f"regmap: error: {message}\n")

    @pytest.mark.parametrize("algo", ["sweep", "nested"])
    def test_far_pair_below_the_bound_is_emitted(self, capsys, algo):
        # The doubled centre distance 2**54 - 1 is below twice the bound,
        # 2**54; the printed distance rounds to the bound itself.
        far = Path(__file__).parent / "overlap" / "far"
        rc, out, _ = run_cli(capsys, "overlap", "--a", str(far / "a.bed"), "--b", str(far / "b.bed"),
                             "--algorithm", algo, "--max-centre-distance", "9007199254740992")
        assert rc == 0
        rows = ["\t".join(line.split("\t")[:4]) for line in out.splitlines()]
        assert rows == (far / "pairs-f1-4.tsv").read_text().splitlines()
        assert out.splitlines()[1].endswith("\t9007199254740992")


class TestMine:
    def test_toy_catalog(self, capsys, tmp_path):
        out = tmp_path / "mine.tsv"
        rc, _, _ = run_cli(
            capsys, "mine", "--catalog", str(toy_catalog_path()), "--out", str(out)
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 6 ordered same-assembly pairs
        for line in lines[1:]:
            pct = line.rsplit("\t", 1)[1]
            assert len(pct.split(".")[1]) == 2

    def test_missing_catalog_exits_1(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "mine", "--catalog", str(tmp_path / "none.tsv"))
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize("text", ["", "oops\n# note\nchr1\tx\t5\n\n"], ids=["empty", "malformed-only"])
    def test_dataset_without_rows_reports_zero(self, capsys, tmp_path, text):
        catalog = write_catalog(tmp_path, [("e", "hg19", text), ("f", "hg19", "chr1\t0\t9\nchr1\t5\t2\n")])
        rc, out, err = run_cli(capsys, "mine", "--catalog", str(catalog))
        assert (rc, err) == (0, "")
        assert [line.split("\t")[9:] for line in out.splitlines()[1:]] == [
            ["0", "0", "0.00"],
            ["1", "0", "0.00"],
        ]

    @pytest.mark.parametrize("partner", [False, True])
    def test_out_of_range_coordinate_fails_only_when_paired(self, capsys, tmp_path, partner):
        big = "chr1\t0\t99999999999999999999\n"
        catalog = write_catalog(tmp_path, [
            ("a", "hg19", "chr1\t0\t9\n"),
            ("b", "hg19", "chr1\t5\t20\n"),
            ("big", "hg19" if partner else "mm9", big),
        ])
        rc, out, err = run_cli(capsys, "mine", "--catalog", str(catalog))
        if partner:
            message = "coordinate 99999999999999999999 out of range: coordinates must be below 2**62"
            assert (rc, out, err) == (1, "", f"regmap: error: {message}\n")
        else:
            assert (rc, err) == (0, "")
            assert len(out.splitlines()) == 3


def write_catalog(directory, datasets):
    """A catalog TSV of (name, assembly, BED text) datasets, files beside it."""
    lines = ["name\tfactor\tcell_line\ttreatment\tassembly\tpath\n"]
    for name, assembly, text in datasets:
        (directory / f"{name}.bed").write_bytes(text.encode())
        lines.append(f"{name}\tTF\tcell\t\t{assembly}\t{name}.bed\n")
    path = directory / "catalog.tsv"
    path.write_text("".join(lines))
    return path


def store_mine(catalog_path, flt):
    """``regmap mine`` as it ran on a RegionStore, the test oracle:
    (exit code, stdout, stderr)."""
    try:
        catalog = load_catalog_file(catalog_path)
        store = RegionStore()
        for entry in catalog:
            regions, _ = parse_bed_file(catalog_path.parent / entry.path, mode="permissive")
            store.import_dataset(entry.name, regions)
        rows = pairwise_mining(catalog, store, flt)
    except ValueError as exc:
        return 1, "", f"regmap: error: {exc}\n"
    out = io.StringIO()
    write_mining_tsv(rows, out)
    return 0, out.getvalue(), ""


@st.composite
def bed_text(draw, rows):
    """BED text of at least one row line, mixed with skipped and malformed lines."""
    junk = st.sampled_from(
        ["", "  ", "# note", "track name=x", "chr1\tx\t5", "chr1\t5", "bad chrom\t1\t2", "chr1\t\u0661\t30"]
    )
    lines = draw(st.lists(rows, min_size=1, max_size=20)) + draw(st.lists(junk, max_size=4))
    return "\n".join(draw(st.permutations(lines))) + draw(st.sampled_from(["\n", ""]))


def row_line(starts=st.integers(-20, 300), lengths=st.integers(-30, 80)):
    # start < 0 or a negative length makes an invalid row
    return st.builds(
        lambda c, s, n: f"{c}\t{s}\t{s + n}", st.sampled_from(["chr1", "chr2", "chr3"]), starts, lengths
    )


@st.composite
def mine_catalogs(draw):
    """(name, assembly, text) datasets: malformed lines and invalid rows,
    two paired assemblies, an unpaired dataset, a dataset with no valid
    row, and at most one file holding a 20-digit coordinate."""
    datasets = [
        ("void", "hg19", draw(bed_text(row_line(lengths=st.integers(-30, -1))))),
        ("lone", "dm6", draw(bed_text(row_line()))),
        ("m0", "mm9", draw(bed_text(row_line()))),
        ("m1", "mm9", draw(bed_text(row_line()))),
    ]
    for k in range(draw(st.integers(1, 3))):
        datasets.append((f"h{k}", "hg19", draw(bed_text(row_line()))))
    faulty = draw(st.sampled_from([None, *range(len(datasets))]))
    if faulty is not None:
        name, assembly, text = datasets[faulty]
        datasets[faulty] = (name, assembly, text + "\nchr2\t7\t99999999999999999999\n")
    return draw(st.permutations(datasets))


class TestMineDifferential:
    """``regmap mine`` on columns against the mining report of a store
    built as ``mine`` once built it: stdout, stderr and exit code."""

    @settings(max_examples=100, deadline=None)
    @given(
        mine_catalogs(),
        st.sampled_from([1, 0, -20]),
        st.sampled_from([None, 0.5, 12, float("inf")]),
    )
    def test_matches_store_report(self, datasets, min_bp, bound):
        with tempfile.TemporaryDirectory() as tmp:
            catalog = write_catalog(Path(tmp), datasets)
            flags = ["--min-bp", str(min_bp)] + ([] if bound is None else ["--max-centre-distance", str(bound)])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["mine", "--catalog", str(catalog), *flags])
            want = store_mine(catalog, JoinFilter(min_bp=min_bp, max_centre_distance=bound))
        assert (rc, out.getvalue(), err.getvalue()) == want


class TestSearch:
    def test_invalid_rows_found(self, capsys, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("chr1\t0\t10\nchr1\t-3\t5\nchr1\t60\t50\n")
        rc, out, _ = run_cli(capsys, "search", "--store-from", str(bed), "--invalid")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "id\tdataset\tchrom\tstart\tend"
        assert [l.split("\t")[0] for l in lines[1:]] == ["2", "3"]

    def test_near_myc_tss(self, capsys, tmp_path):
        bed = tmp_path / "peaks.bed"
        bed.write_text("chr8\t128748000\t128748600\nchr8\t0\t100\nchr1\t0\t100\n")
        rc, out, _ = run_cli(
            capsys,
            "search", "--store-from", str(bed),
            "--near", "chr8:128748314", "--window", "100000",
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[2:] == ["chr8", "128748000", "128748600"]

    def test_unknown_chromosome_is_empty_success(self, capsys, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("chr1\t0\t10\n")
        rc, out, _ = run_cli(
            capsys, "search", "--store-from", str(bed), "--near", "chr9:55", "--window", "10"
        )
        assert rc == 0
        assert out == "id\tdataset\tchrom\tstart\tend\n"

    def test_files_sharing_a_stem_get_distinct_datasets(self, capsys, tmp_path):
        paths = [tmp_path / "a" / "p.bed", tmp_path / "b" / "p.bed", tmp_path / "p-2.bed", tmp_path / "c" / "p.bed"]
        for k, path in enumerate(paths):
            path.parent.mkdir(exist_ok=True)
            path.write_text(f"chr1\t{k}\t100\nchr1\t5\t{k}\n")
        files = [str(p) for p in paths]
        rc, out, err = run_cli(capsys, "search", "--store-from", *files, "--invalid")
        assert (rc, err) == (0, "")
        # a taken name gets the first free -k; p-2 is then taken by a file's own stem
        assert out == (
            "id\tdataset\tchrom\tstart\tend\n"
            "2\tp\tchr1\t5\t0\n4\tp-2\tchr1\t5\t1\n"
            "6\tp-2-2\tchr1\t5\t2\n8\tp-3\tchr1\t5\t3\n"
        )
        rc, out, _ = run_cli(capsys, "search", "--store-from", *files, "--near", "chr1:99", "--window", "1")
        assert rc == 0
        assert [line.split("\t")[:2] for line in out.splitlines()[1:]] == [
            ["1", "p"], ["3", "p-2"], ["5", "p-2-2"], ["7", "p-3"]
        ]

    def test_distinct_stems_name_datasets_by_stem(self, capsys, tmp_path):
        (tmp_path / "x.bed").write_text("chr1\t-3\t5\n")
        (tmp_path / "y.bed").write_text("chr1\t0\t10\nchr1\t60\t50\n")
        rc, out, _ = run_cli(
            capsys, "search", "--store-from", str(tmp_path / "x.bed"), str(tmp_path / "y.bed"), "--invalid"
        )
        assert rc == 0
        assert out == "id\tdataset\tchrom\tstart\tend\n1\tx\tchr1\t-3\t5\n3\ty\tchr1\t60\t50\n"

    def test_invalid_and_near_are_exclusive(self, capsys, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("chr1\t0\t10\n")
        with pytest.raises(SystemExit) as exc:
            main(["search", "--store-from", str(bed), "--invalid", "--near", "chr1:5"])
        assert exc.value.code == 2

    def test_bad_locus_format(self, capsys, tmp_path):
        bed = tmp_path / "x.bed"
        bed.write_text("chr1\t0\t10\n")
        # non-ASCII digits: Arabic-Indic twelve, superscript two
        for locus in ("oops", "chr1:\u0661\u0662", "chr1:\u00b2"):
            rc, _, err = run_cli(
                capsys, "search", "--store-from", str(bed), "--near", locus
            )
            assert rc == 1
            assert err == f"regmap: error: expected CHROM:POS, got {locus!r}\n"


class TestSqlgen:
    def test_emits_all_kinds_for_all_dialects(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "sqlgen", "--out-dir", str(tmp_path / "sql"))
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "sql").glob("*.sql"))
        assert len(files) == 27
        assert "regmap_query.postgres.sql" in files

    def test_kind_and_dialect_filter(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys,
            "sqlgen", "--dialect", "postgres", "--kind", "ddl",
            "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert [p.name for p in tmp_path.glob("*.sql")] == ["ddl.postgres.sql"]

    def test_matches_goldens(self, capsys, tmp_path):
        from pathlib import Path

        golden_dir = Path(__file__).parent / "goldens"
        rc, _, _ = run_cli(capsys, "sqlgen", "--out-dir", str(tmp_path))
        assert rc == 0
        for emitted in tmp_path.glob("*.sql"):
            assert emitted.read_bytes() == (golden_dir / emitted.name).read_bytes()

    def test_unknown_dialect_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sqlgen", "--dialect", "oracle", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2


class TestBench:
    def test_insertion_report_tsv(self, capsys, tmp_path):
        report = tmp_path / "r.tsv"
        rc, _, _ = run_cli(
            capsys,
            "bench", "--scenario", "insertion", "--sizes", "500",
            "--reps", "1", "--report", str(report),
        )
        assert rc == 0
        lines = report.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "scenario\tbackend\tsize\treps\tmean_s\tmin_s\tmax_s"
        assert any(l.startswith("insert_batch\tnative\t500") for l in lines)

    def test_disabled_backends_reported_skipped(self, capsys, monkeypatch):
        monkeypatch.delenv("REGMAP_PG_URL", raising=False)
        monkeypatch.delenv("REGMAP_MYSQL_URL", raising=False)
        rc, out, _ = run_cli(
            capsys, "bench", "--scenario", "insertion", "--sizes", "200", "--reps", "1"
        )
        assert rc == 0
        assert out.count("# skipped:") == 3

    def test_zero_reps_exits_1(self, capsys):
        rc, out, err = run_cli(capsys, "bench", "--scenario", "insertion", "--sizes", "10", "--reps", "0")
        assert (rc, out, err) == (1, "", "regmap: error: reps must be >= 1\n")

    def test_import_scenario_requires_files(self, capsys):
        rc, _, err = run_cli(capsys, "bench", "--scenario", "import")
        assert rc == 2
        assert "--files" in err

    def test_json_format(self, capsys, toy_beds):
        files = sorted(str(p) for p in toy_beds.glob("*.bed"))
        rc, out, _ = run_cli(
            capsys,
            "bench", "--scenario", "import", "--files", *files,
            "--reps", "1", "--format", "json",
        )
        assert rc == 0
        import json

        payload = json.loads(out)
        assert payload["rows"][0]["scenario"] == "import_staged"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "regmap.conf"
        config.write_text("# defaults\nseed = 42\ncount = 7\n")
        _, out_conf, _ = run_cli(capsys, "--config", str(config), "gen")
        assert len(out_conf.splitlines()) == 7
        _, out_flag, _ = run_cli(
            capsys, "--config", str(config), "gen", "--count", "3"
        )
        assert len(out_flag.splitlines()) == 3
        # config seed still applies when the flag overrides only count
        _, out_direct, _ = run_cli(capsys, "gen", "--count", "3", "--seed", "42")
        assert out_flag == out_direct

    def test_list_option_value_is_split_on_whitespace(self, capsys, tmp_path, toy_beds):
        files = [toy_beds / "hnf4g_hepg2.bed", toy_beds / "h3k4me1_hepg2.bed"]
        sizes = [len(parse_bed_file(f, mode="permissive")[0]) for f in files]
        config = tmp_path / "files.conf"
        for listed, rows in ((files[:1], sizes[0]), (files, sum(sizes))):
            config.write_text(f"files = {' '.join(map(str, listed))}\nreps = 1\n")
            rc, out, err = run_cli(capsys, "--config", str(config), "bench", "--scenario", "import")
            assert (rc, err) == (0, "")
            (row,) = [line.split("\t") for line in out.splitlines() if line.startswith("import_")]
            assert row[2] == str(rows)

    @pytest.mark.parametrize(
        "value, fixed", [("yes", True), ("Off", False), ("1", True), ("false", False)]
    )
    def test_boolean_spellings(self, capsys, tmp_path, value, fixed):
        config = tmp_path / "flag.conf"
        config.write_text(f"fixed_size = {value}\nmax_size = 40\n")
        rc, out, _ = run_cli(capsys, "--config", str(config), "gen", "--count", "20")
        assert rc == 0
        lengths = {int(row[2]) - int(row[1]) for row in map(str.split, out.splitlines())}
        assert (lengths == {40}) == fixed

    @pytest.mark.parametrize("value", ["maybe", "", "2", "y"])
    def test_unknown_boolean_spelling_is_usage_error(self, capsys, tmp_path, value):
        config = tmp_path / "flag.conf"
        config.write_text(f"fixed_size = {value}\n")
        rc, out, err = run_cli(capsys, "--config", str(config), "gen", "--count", "3")
        assert (rc, out) == (2, "")
        assert "config error" in err and "fixed_size" in err

    def test_value_outside_choices_is_usage_error(self, capsys, tmp_path, toy_beds):
        bed = str(toy_beds / "hnf4g_hepg2.bed")
        config = tmp_path / "choice.conf"
        config.write_text("algorithm = bogus\n")
        rc, out, err = run_cli(capsys, "--config", str(config), "overlap", "--a", bed, "--b", bed)
        assert (rc, out) == (2, "")
        assert "config error" in err and "algorithm" in err and "nested, sweep" in err
        config.write_text("algorithm = nested\n")
        _, nested, _ = run_cli(capsys, "--config", str(config), "overlap", "--a", bed, "--b", bed)
        _, sweep, _ = run_cli(capsys, "overlap", "--a", bed, "--b", bed)
        assert nested == sweep and nested.count("\n") > 1

    def test_config_supplies_a_required_option(self, capsys, tmp_path, toy_beds):
        first, second = toy_beds / "hnf4g_hepg2.bed", toy_beds / "h3k4me1_hepg2.bed"
        near = ("search", "--near", "chr1:150", "--window", "100")
        _, expected, _ = run_cli(capsys, *near, "--store-from", str(first))
        assert "\thnf4g_hepg2\t" in expected
        config = tmp_path / "store.conf"
        config.write_text(f"store_from = {first}\n")
        rc, out, err = run_cli(capsys, "--config", str(config), *near)
        assert (rc, out, err) == (0, expected, "")
        # an explicit flag still wins over the config value
        _, flagged, _ = run_cli(capsys, "--config", str(config), *near, "--store-from", str(second))
        assert "\th3k4me1_hepg2\t" in flagged and "hnf4g" not in flagged

    def test_config_satisfies_a_required_exclusive_group(self, capsys, tmp_path, toy_beds):
        store = ("search", "--store-from", str(toy_beds / "hnf4g_hepg2.bed"))
        _, invalid, _ = run_cli(capsys, *store, "--invalid")
        _, near, _ = run_cli(capsys, *store, "--near", "chr1:150", "--window", "100")
        assert invalid != near
        config = tmp_path / "mode.conf"
        config.write_text("invalid = true\nwindow = 100\n")
        assert run_cli(capsys, "--config", str(config), *store) == (0, invalid, "")
        # an explicit member of the group still wins over the config's
        flagged = run_cli(capsys, "--config", str(config), *store, "--near", "chr1:150")
        assert flagged == (0, near, "")
        config.write_text("near = chr1:150\nwindow = 100\n")
        assert run_cli(capsys, "--config", str(config), *store) == (0, near, "")
        assert run_cli(capsys, "--config", str(config), *store, "--invalid") == (0, invalid, "")

    def test_config_setting_two_exclusive_options_is_usage_error(self, capsys, tmp_path, toy_beds):
        config = tmp_path / "mode.conf"
        config.write_text("invalid = true\nnear = chr1:150\n")
        store = ("search", "--store-from", str(toy_beds / "hnf4g_hepg2.bed"))
        rc, out, err = run_cli(capsys, "--config", str(config), *store)
        assert (rc, out) == (2, "")
        assert "config error" in err and "invalid" in err and "near" in err

    def test_required_option_without_config_is_still_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--invalid"])
        assert exc.value.code == 2
        assert "--store-from" in capsys.readouterr().err

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("not a key value line\n")
        rc, _, err = run_cli(capsys, "--config", str(config), "gen")
        assert rc == 2
        assert "config" in err


class TestUsage:
    def test_help_on_every_subcommand_documents_flags(self, capsys):
        parser = build_parser()
        expectations = {
            "gen": ["--count", "--seed", "--max-size", "--fixed-size", "--out"],
            "overlap": ["--a", "--b", "--min-bp", "--max-centre-distance", "--algorithm"],
            "mine": ["--catalog", "--out"],
            "search": ["--store-from", "--invalid", "--near", "--window"],
            "sqlgen": ["--dialect", "--kind", "--out-dir"],
            "bench": ["--scenario", "--sizes", "--reps", "--report"],
        }
        for command, flags in expectations.items():
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--help"])
            assert exc.value.code == 0
            help_text = capsys.readouterr().out
            for flag in flags:
                assert flag in help_text, (command, flag)

    def test_mine_and_overlap_share_the_join_filter_flags(self, capsys):
        parser = build_parser()

        def filter_help(command):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            first = lines.index("  --min-bp MIN_BP       minimum bp overlap to emit a pair")
            last = next(i for i in range(first + 2, len(lines)) if lines[i].startswith("  -"))
            return lines[first:last]

        shown = filter_help("overlap")
        assert shown == filter_help("mine")
        assert "strictly below" in "\n".join(shown)
        flags = ["--min-bp", "-5", "--max-centre-distance", "2.5"]
        overlap = parser.parse_args(["overlap", "--a", "x", "--b", "y", *flags])
        mine = parser.parse_args(["mine", "--catalog", "c", *flags])
        assert (overlap.min_bp, overlap.max_centre_distance) == (mine.min_bp, mine.max_centre_distance) == (-5, 2.5)

    @pytest.mark.parametrize("command", ["overlap", "search"])
    def test_write_error_names_the_requested_path(self, capsys, tmp_path, command):
        bed = str(toy_data_dir() / "hnf4g_hepg2.bed")
        out = str(tmp_path / "missing" / "x.tsv")
        argv = {
            "overlap": ["overlap", "--a", bed, "--b", bed],
            "search": ["search", "--store-from", bed, "--near", "chr1:150", "--window", "10"],
        }[command]
        rc, _, err = run_cli(capsys, *argv, "--out", out)
        assert rc == 1
        assert repr(out) in err
        assert ".tmp" not in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_entry_point_module_runs_in_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "regmap.cli", "gen", "--count", "3", "--seed", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 3

    @pytest.mark.parametrize("argv", [
        ["gen", "--count", "10"],
        ["search", "--store-from", str(toy_data_dir() / "hnf4g_hepg2.bed"), "--invalid"],
    ])
    def test_a_closed_stdout_exits_1_silently(self, capsys, monkeypatch, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def writelines(self, lines):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 1
        assert capsys.readouterr().err == ""

    def test_a_reader_that_closes_the_pipe_ends_the_child_with_1_silently(self):
        child = subprocess.Popen(
            [sys.executable, "-m", "regmap.cli", "gen", "--count", "300000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert child.stdout.readline().count(b"\t") == 2
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
        assert err == b""


def test_cli_import_search_and_sqlgen_leave_numpy_unloaded(tmp_path):
    # A search under bedio._NUMPY_AFTER bytes and sqlgen never load numpy.
    bed = str(toy_data_dir() / "hnf4g_hepg2.bed")
    code = (
        "import sys; from regmap.cli import main; "
        "loaded = ['numpy' in sys.modules]; "
        f"main(['search', '--store-from', {bed!r}, '--invalid', '--out', {str(tmp_path / 'i.tsv')!r}]); "
        f"main(['search', '--store-from', {bed!r}, '--near', 'chr1:150', '--out', {str(tmp_path / 'n.tsv')!r}]); "
        f"main(['sqlgen', '--out-dir', {str(tmp_path / 'sql')!r}]); "
        "loaded.append('numpy' in sys.modules); "
        "sys.stderr.write(repr(loaded))"
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
    assert result.stderr == "[False, False]"
    assert len(list((tmp_path / "sql").glob("*.sql"))) == 27


def test_cli_import_and_mine_leave_sqlgen_dbadapter_and_store_unloaded(tmp_path):
    # Only sqlgen and bench need sqlgen and dbadapter, only search and
    # bench the store; the other commands start without them.
    bed = str(toy_data_dir() / "hnf4g_hepg2.bed")
    code = (
        "import sys; import regmap.cli; "
        "unused = ('regmap.sqlgen', 'regmap.dbadapter', 'regmap.store'); "
        "loaded = [[m for m in unused if m in sys.modules]]; "
        f"regmap.cli.main(['mine', '--catalog', {str(toy_catalog_path())!r}, '--out', {str(tmp_path / 'm.tsv')!r}]); "
        f"regmap.cli.main(['overlap', '--a', {bed!r}, '--b', {bed!r}, '--out', {str(tmp_path / 'o.tsv')!r}]); "
        "loaded.append([m for m in unused if m in sys.modules]); "
        "sys.stderr.write(repr(loaded))"
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
    # mine and overlap read columns, which convert bedio's records and
    # import the store only for its type annotations
    assert result.stderr == "[[], []]"


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def numpy_command_child(argv, **env):
    """Run ``main(argv)`` in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS unless ``env`` sets it. Returns the exit code,
    whether numpy is loaded, the OS thread count (None without
    ``/proc/self/task``) and the variable's value afterwards."""
    code = (
        "import os, sys; from regmap.cli import main; "
        f"rc = main({argv!r}); "
        "task = '/proc/self/task'; "
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None; "
        f"sys.stderr.write(repr((rc, 'numpy' in sys.modules, threads, os.environ.get({BLAS_THREADS!r}))))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    child_env = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**child_env, "PYTHONPATH": str(src), **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stderr)


@pytest.fixture(scope="module")
def large_bed(tmp_path_factory):
    """A generated BED file larger than ``bedio._NUMPY_AFTER``, whose
    parse alone loads numpy."""
    path = tmp_path_factory.mktemp("large") / "large.bed"
    assert main(["gen", "--count", "150000", "--out", str(path)]) == 0
    assert path.stat().st_size > bedio._NUMPY_AFTER
    return str(path)


@pytest.fixture()
def numpy_commands(tmp_path, large_bed):
    bed = str(toy_data_dir() / "hnf4g_hepg2.bed")
    return {
        "gen": ["gen", "--count", "50", "--out", str(tmp_path / "g.bed")],
        "overlap": ["overlap", "--a", bed, "--b", bed, "--out", str(tmp_path / "o.tsv")],
        "mine": ["mine", "--catalog", str(toy_catalog_path()), "--out", str(tmp_path / "m.tsv")],
        "bench": ["bench", "--scenario", "overlap", "--sizes", "200", "--reps", "1",
                  "--report", str(tmp_path / "b.tsv")],
        "search": ["search", "--store-from", large_bed, "--near", "chr1:150000", "--window", "1000",
                   "--out", str(tmp_path / "s.tsv")],
    }


NUMPY_COMMANDS = ["gen", "overlap", "mine", "bench", "search"]


@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_numpy_commands_start_without_a_blas_thread_pool(numpy_commands, command):
    # OpenBLAS starts with one thread, and the variable is gone again.
    rc, loaded, threads, value = numpy_command_child(numpy_commands[command])
    assert (rc, loaded, value) == (0, True, None)
    if threads is not None:
        assert threads == 1


def test_numpy_commands_keep_the_callers_blas_threads(numpy_commands):
    for command in ("overlap", "search"):
        rc, loaded, _, value = numpy_command_child(numpy_commands[command], **{BLAS_THREADS: "2"})
        assert (rc, loaded, value) == (0, True, "2"), command


@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_numpy_commands_leave_a_loaded_numpy_and_the_environment_alone(numpy_commands, monkeypatch, command):
    import numpy  # noqa: F401 - loaded before the command runs
    monkeypatch.delenv(BLAS_THREADS, raising=False)
    before = dict(os.environ)
    assert main(numpy_commands[command]) == 0
    assert dict(os.environ) == before
