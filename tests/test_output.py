"""Every table goes through one output rule, ``bedio.write_lines``: a
path gets the same text an open stream gets, UTF-8 with ``\\n`` line
ends and no ``\\r``."""

import io
import os
import stat
import threading
from functools import partial

import pytest

from regmap import bedio
from regmap.bedio import write_bed, write_lines
from regmap.bench import BenchmarkReport, write_report
from regmap.cli import main
from regmap.intervals import GenomicRegion, RawRegion
from regmap.joins import MiningRow, OverlapPair, write_mining_tsv, write_pairs_tsv
from regmap.sqlgen import SqlDialect, emit_all

REGIONS = [GenomicRegion("chr1", 0, 500), RawRegion("chr2", -5, 3), RawRegion("chrΩ", 7, 9)]
PAIRS = [OverlapPair(1, 4, "chr1", 20, 12.5), OverlapPair(2, 4, "chr1", -3, 40.0)]
MINING = [
    MiningRow("hg19", "a", "HNF4G", "HepG2", None, "b", "STAG1", "HepG2", "ctl", 3, 1, 33.33),
    MiningRow("hg19", "b", "STAG1", "HepG2", "ctl", "a", "HNF4G", "HepG2", None, 2, 2, 100.0),
]


def _report():
    report = BenchmarkReport(context=["timing: native"])
    report.add("insert_batch", "native", 500, [0.25, 0.5])
    report.note("skipped: postgres")
    return report


WRITERS = {
    "bed": partial(write_bed, REGIONS),
    "pairs": partial(write_pairs_tsv, PAIRS),
    "mining": partial(write_mining_tsv, MINING),
    "report-tsv": lambda sink: write_report(_report(), "tsv", sink),
    "report-json": lambda sink: write_report(_report(), "json", sink),
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
@pytest.mark.parametrize("as_path", [str, lambda p: p], ids=["str", "Path"])
def test_a_path_gets_the_text_a_stream_gets(tmp_path, writer, as_path):
    stream = io.StringIO()
    writer(stream)
    path = tmp_path / "out"
    writer(as_path(path))
    data = path.read_bytes()
    assert stream.getvalue().count("\n") > 1
    assert data == stream.getvalue().encode("utf-8")
    assert b"\r" not in data


@pytest.mark.parametrize("mode", [["--invalid"], ["--near", "chr1:150", "--window", "100"]])
def test_search_out_file_equals_its_stdout(capsys, tmp_path, mode):
    bed = tmp_path / "p.bed"
    bed.write_text("chr1\t100\t200\nchr1\t-5\t50\nchr1\t150\t250\nchr2\t9\t3\n")
    assert main(["search", "--store-from", str(bed), *mode]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "hits.tsv"
    assert main(["search", "--store-from", str(bed), *mode, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout.count("\n") == 3
    assert out.read_bytes() == stdout.encode("utf-8")


def test_sqlgen_files_hold_each_scripts_text(capsys, tmp_path):
    assert main(["sqlgen", "--out-dir", str(tmp_path)]) == 0
    scripts = [script for dialect in SqlDialect for script in emit_all(dialect)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(s.filename for s in scripts)
    for script in scripts:
        assert (tmp_path / script.filename).read_bytes() == script.text.encode("utf-8")


def _lines_then_failure():
    yield "first\n"
    raise RuntimeError("source failed")


class TestFailedWrite:
    """A path naming a regular file, or nothing, is replaced only once
    every line is written; any other path is written in place."""

    def test_a_new_path_is_not_created(self, tmp_path):
        with pytest.raises(RuntimeError, match="source failed"):
            write_lines(_lines_then_failure(), tmp_path / "out.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_an_old_file_is_kept_and_its_mode_survives_a_write(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old\n")
        path.chmod(0o640)
        with pytest.raises(RuntimeError, match="source failed"):
            write_lines(_lines_then_failure(), str(path))
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "old\n"
        write_lines(["new\n"], path)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_dev_null_is_written_in_place(self, monkeypatch):
        # Replacing /dev/null would replace the device node itself.
        def refused(*args):
            raise AssertionError("os.replace called")

        monkeypatch.setattr(bedio.os, "replace", refused)
        write_lines(["x\n"] * 3, "/dev/null")
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        write_lines(["a\n", "b\n"], fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == ["a\nb\n"] and stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_failed_gen_out_leaves_no_file(self, capsys, tmp_path):
        # track1 is a name parse_bed would skip, refused after the chr1 rows
        out = tmp_path / "x.bed"
        args = ["gen", "--count", "6", "--seed", "1", "--chromosomes", "chr1,track1", "--out", str(out)]
        assert main(args) == 1
        assert "track1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
