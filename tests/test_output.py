"""Every table goes through one output rule, ``bedio.write_lines``: a
path gets the same text an open stream gets, UTF-8 with ``\\n`` line
ends and no ``\\r``."""

import io
from functools import partial

import pytest

from regmap.bedio import write_bed
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
