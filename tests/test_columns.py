import tracemalloc

import numpy as np
import pytest

from regmap import columns
from regmap.bedio import BedParseError
from regmap.bench import GenConfig, generate_regions
from regmap.columns import RegionColumns, read_bed_columns, window_join
from regmap.intervals import GenomicRegion
from regmap.joins import JoinFilter, nested_loop_join, sweep_join

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
    200 Mb B region that puts every B row in every A row's window."""
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

