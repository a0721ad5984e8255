import math
import os
import subprocess
import sys
import threading
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmap import intervals as intervals_module
from regmap import store as store_module
from regmap.bedio import BedRecords, as_records, parse_bed_file
from regmap.bench import GenConfig, generate_regions, make_invalid_rows
from regmap.intervals import GenomicRegion, RawRegion, overlap_coords
from regmap.store import RegionStore


def raw(chrom, start, end):
    return RawRegion(chrom, start, end)


VALID = [raw("chr1", 0, 10), raw("chr1", 50, 80), raw("chr2", 5, 6)]
# Records every write refuses: a coordinate that is not an integer, a
# bool coordinate and a chromosome name with whitespace.
REFUSED = [raw("chr1", 1.5, 9), raw("chr1", True, 5), SimpleNamespace(chrom="chr 1", start=0, end=5)]


class TestImport:
    def test_ids_start_at_one(self):
        store = RegionStore()
        assert store.import_dataset("d1", VALID) == 3
        assert [row.id for row in store.rows()] == [1, 2, 3]
        assert store.staging_size == 0

    def test_ids_continue_across_datasets(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        store.import_dataset("d2", VALID[:2])
        assert [row.id for row in store.regions("d2")] == [4, 5]

    def test_duplicate_dataset_rejected_and_store_unchanged(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        before = store.rows()
        with pytest.raises(ValueError, match="d1"):
            store.import_dataset("d1", VALID)
        assert store.rows() == before
        assert store.staging_size == 0

    def test_failed_import_leaves_production_untouched(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        before = store.rows()
        with pytest.raises(ValueError, match="not an integer"):
            store.import_dataset("d2", [VALID[0], REFUSED[0], VALID[2]])
        assert store.rows() == before
        assert store.staging_size == 0
        # the failed name is not considered imported
        store.import_dataset("d2", VALID[:1])

    def test_empty_import(self):
        store = RegionStore()
        assert store.import_dataset("d1", []) == 0
        assert len(store) == 0
        # an empty import does not claim the name
        assert store.import_dataset("d1", VALID[:1]) == 1

    def test_invalid_rows_are_storable(self):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", -5, 100), raw("chr1", 50, 10)])
        assert len(store) == 2

    @pytest.mark.parametrize("method", ["import_dataset", "insert_regions_rowwise"])
    def test_region_shaped_chromosome_with_whitespace_fails_atomically(self, method):
        # The name is checked once per import, not per RawRegion built.
        store = RegionStore()
        rows = [SimpleNamespace(chrom="chr1", start=0, end=5), SimpleNamespace(chrom="chr 1", start=0, end=5)]
        with pytest.raises(ValueError, match="whitespace"):
            getattr(store, method)("d1", rows)
        kept = 1 if method == "insert_regions_rowwise" else 0  # rowwise keeps its prefix
        assert len(store) == kept and store.staging_size == 0
        assert [row.region for row in store.rows()] == [raw("chr1", 0, 5)][:kept]

    # a bool too, which array("q") would keep as 0 or 1
    @pytest.mark.parametrize("bad", [1.5, "7", None, True, False])
    def test_non_integer_coordinate_is_refused(self, bad):
        store = RegionStore()
        rows = [raw("chr1", 0, 5), SimpleNamespace(chrom="chr1", start=2, end=bad)]
        with pytest.raises(ValueError, match="not an integer"):
            store.import_dataset("d1", rows)
        assert len(store) == 0 and store.staging_size == 0
        with pytest.raises(ValueError, match="not an integer"):
            store.insert_regions_rowwise("d1", rows)
        assert store.rows() == [store_module.StoredRegion(1, "d1", raw("chr1", 0, 5))]

    def test_both_write_paths_refuse_a_record_with_the_same_error(self):
        # A rejected name and a non-integer coordinate in one record: both
        # paths convert through bedio.as_records, which checks coordinates first.
        rows = [raw("chr1", 0, 5), SimpleNamespace(chrom="chr 1", start=1.5, end=9)]
        store = RegionStore()
        with pytest.raises(ValueError, match="not an integer"):
            store.import_dataset("d1", rows)
        assert len(store) == 0 and store.staging_size == 0
        with pytest.raises(ValueError, match="not an integer"):
            store.insert_regions_rowwise("d1", rows)
        assert store.rows() == [store_module.StoredRegion(1, "d1", raw("chr1", 0, 5))]

    def test_rowwise_commits_the_records_taken_before_the_iterator_raises(self):
        def regions():
            yield from VALID[:2]
            raise RuntimeError("source failed")

        store = RegionStore()
        store.import_dataset("d0", VALID[2:])
        with pytest.raises(RuntimeError, match="source failed"):
            store.insert_regions_rowwise("d1", regions())
        assert [(row.id, row.region) for row in store.regions("d1")] == [(2, VALID[0]), (3, VALID[1])]
        assert len(store) == 3 and store.staging_size == 0

    @pytest.mark.parametrize("error, kept", [(RuntimeError, 2), (KeyboardInterrupt, 0)])
    def test_rowwise_record_whose_attribute_raises(self, error, kept):
        # An error commits the records before it; an interrupt commits
        # nothing. Either way the store stays writable.
        class Broken:
            chrom, end = "chr1", 9

            @property
            def start(self):
                raise error("attribute failed")

        store = RegionStore()
        with pytest.raises(error, match="attribute failed"):
            store.insert_regions_rowwise("d1", iter([*VALID[:2], Broken(), VALID[2]]))
        assert [row.region for row in store.rows()] == VALID[:kept]
        assert store.dataset_names() == ["d1"][:kept > 0] and store.staging_size == 0
        store.insert_regions_rowwise("d2", VALID[2:])
        assert [row.region for row in store.regions("d2")] == VALID[2:]


class TestRejectedNameInRecords:
    @pytest.mark.parametrize(
        "name, message",
        [("", "chromosome name must be non-empty"),
         ("chr 1", "chromosome name contains whitespace: 'chr 1'")],
    )
    def test_hand_built_records_with_a_rejected_name_are_refused(self, name, message):
        # Before the name check moved into BedRecords, these records were
        # imported, and every later find_invalid and probe raised.
        store = RegionStore()
        store.import_dataset("ok", VALID)
        store.build_index()
        with pytest.raises(ValueError, match=f"^{message}$"):
            store.import_dataset(
                "bad",
                BedRecords(["chr1", name], array("i", [0, 1]), array("q", [0, -3]), array("q", [5, 9])),
            )
        assert store.dataset_names() == ["ok"] and len(store) == 3 and store.staging_size == 0
        assert store.find_invalid() == []
        assert [row.id for row in store.proximity_search("chr1", 5, 3)] == [1]


class TestBatchVsRowwise:
    def test_same_final_state(self):
        regions = generate_regions(GenConfig(seed=11, count=5000))
        a, b = RegionStore(), RegionStore()
        a.insert_regions_batch("ds", regions)
        b.insert_regions_rowwise("ds", regions)
        assert a.rows() == b.rows()

    def test_empty_batch_changes_nothing(self):
        store = RegionStore()
        assert store.insert_regions_batch("ds", []) == 0
        assert len(store) == 0
        store.insert_regions_batch("ds", VALID[:1])

    def test_batch_failure_is_all_or_nothing(self):
        store = RegionStore()
        with pytest.raises(ValueError, match="not an integer"):
            store.insert_regions_batch("ds", [*VALID[:2], REFUSED[0]])
        assert len(store) == 0

    def test_rowwise_insert_keeps_columns_not_records(self):
        # 200K records from a generator: three columns take 20 bytes a row
        # (about 4 MB); keeping the records until the call ends took over
        # 30 MB.
        names = [f"chr{k}" for k in range(1, 24)]

        def regions():
            for i in range(200_000):
                yield raw(names[i % 23], 1_000 * i, 1_000 * i + 100)

        store = RegionStore()
        tracemalloc.start()
        try:
            assert store.insert_regions_rowwise("ds", regions()) == 200_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert store.regions("ds")[-1].region == raw("chr15", 199_999_000, 199_999_100)

    def test_rowwise_failure_keeps_prefix(self):
        store = RegionStore()
        with pytest.raises(ValueError, match="not an integer"):
            store.insert_regions_rowwise("ds", [*VALID[:2], REFUSED[0]])
        assert [row.id for row in store.rows()] == [1, 2]
        assert [row.region for row in store.rows()] == VALID[:2]


class TestFindInvalid:
    def test_finds_both_error_shapes(self):
        store = RegionStore()
        store.import_dataset(
            "d1",
            [raw("chr1", 0, 5), raw("chr1", -5, 100), raw("chr2", 50, 10), raw("chr3", 1, 2)],
        )
        bad = store.find_invalid()
        assert [row.id for row in bad] == [2, 3]

    def test_all_valid(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        assert store.find_invalid() == []

    def test_seeded_invalid_rows_found_exactly(self):
        store = RegionStore()
        good = generate_regions(GenConfig(seed=3, count=20_000))
        bad = make_invalid_rows(10, seed=4)
        mixed = list(good[:10_000]) + list(bad) + list(good[10_000:])
        store.import_dataset("d1", mixed)
        found = store.find_invalid()
        assert len(found) == 10
        assert [row.region for row in found] == bad


class TestProximitySearch:
    def test_myc_window_contains_region(self):
        store = RegionStore()
        store.import_dataset(
            "d1", [raw("chr8", 128748000, 128748600), raw("chr8", 0, 100)]
        )
        hits = store.proximity_search("chr8", 128748314, 100_000)
        assert [row.id for row in hits] == [1]

    def test_unknown_chromosome_is_empty(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        assert store.proximity_search("chr99", 5, 10) == []

    def test_window_requires_positive(self):
        store = RegionStore()
        with pytest.raises(ValueError):
            store.proximity_search("chr1", 5, 0)

    def test_window_is_half_open(self):
        store = RegionStore()
        # window [90, 110): region starting at 110 shares no base
        store.import_dataset("d1", [raw("chr1", 110, 120), raw("chr1", 109, 120)])
        hits = store.proximity_search("chr1", 100, 10)
        assert [row.id for row in hits] == [2]

    @pytest.mark.parametrize(
        "start, end",
        [(0, 20_000), (40_000, 60_000), (90_000, 120_000), (40_000, 2**63 + 7)],
    )
    def test_long_row_in_its_own_dataset_matches_scan(self, start, end):
        # Narrow rows cover [0, 100 kb) of chr1; the long row sits at its
        # start, middle or end, and the last one takes the exact-int index.
        datasets = [
            ("narrow", [raw("chr1", s, s + 30) for s in range(0, 100_000, 997)]),
            ("long", [raw("chr1", start, end)]),
            ("more", [raw("chr1", s, s + 300) for s in range(50, 100_000, 4_999)]),
        ]
        indexed, plain = RegionStore(), RegionStore()
        indexed.build_index()  # each import below merges into the index
        for name, rows in datasets:
            indexed.import_dataset(name, rows)
            plain.import_dataset(name, rows)
        long_id = len(datasets[0][1]) + 1
        inside = start + min(end - start, 1_000_000) // 2
        for position in (start - 5_000, inside, end + 5_000):  # left, inside, right
            for window in (1, 40, 3_000):
                want = plain.proximity_search("chr1", position, window)
                assert indexed.proximity_search("chr1", position, window) == want
                assert (long_id in {row.id for row in want}) == (position == inside)

    @pytest.mark.parametrize(
        "position, window, name", [(19.5, 10, "position"), (20, 10.0, "window"), ("20", 10, "position")]
    )
    def test_non_integer_probe_is_refused_with_and_without_index(self, position, window, name):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 0, 100), raw("chr1", 5, 10)])
        for build in (False, True):
            if build:
                store.build_index()
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                store.proximity_search("chr1", position, window)

    @pytest.mark.parametrize("position, window, name", [(True, 10, "position"), (20, True, "window")])
    def test_bool_probe_is_refused_with_and_without_index(self, position, window, name):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 0, 100), raw("chr1", 5, 10)])
        for build in (False, True):
            if build:
                store.build_index()
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
                store.proximity_search("chr1", position, window)

    def test_index_like_probe_matches_int_probe(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 0, 100), raw("chr1", 5, 10)])
        for build in (False, True):
            if build:
                store.build_index()
            hits = store.proximity_search("chr1", Index(19), Index(10))
            assert hits == store.proximity_search("chr1", 19, 10) and [r.id for r in hits] == [1, 2]

    def test_long_row_right_of_every_probe_widens_no_window(self, monkeypatch):
        windows = store_module._windows
        totals = []

        def counted(*args):
            lo, hi = windows(*args)
            totals.append(max(int(hi - lo), 0))
            return lo, hi

        monkeypatch.setattr(store_module, "_windows", counted)
        narrow = [raw("chr1", s, s + 300) for s in range(0, 1_000_000, 997)]
        long = [raw("chr1", 150_000_000, 200_000_000)]  # 50 Mb, right of every probe

        def probed(datasets):
            store = RegionStore()
            store.build_index()
            for name, rows in datasets:
                store.import_dataset(name, rows)
            totals.clear()
            hits = [store.proximity_search("chr1", p, 500) for p in range(0, 1_000_000, 9_973)]
            return hits, len(totals), sum(totals)

        plain = probed([("narrow", narrow)])
        assert plain[1] == 101 and plain[2] > 0
        assert probed([("narrow", narrow), ("long", long)]) == plain

    def test_invalid_and_zero_length_rows_never_match(self):
        store = RegionStore()
        store.import_dataset(
            "d1", [raw("chr1", -50, 50), raw("chr1", 100, 100), raw("chr1", 90, 120)]
        )
        for build in (False, True):
            if build:
                store.build_index()
            hits = store.proximity_search("chr1", 100, 50)
            assert [row.id for row in hits] == [3]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 500), st.integers(1, 120))
    def test_index_matches_linear_scan(self, seed, position, window):
        regions = generate_regions(
            GenConfig(seed=seed, count=300, coord_upper=600, max_size=40,
                      chromosomes=("chr1", "chr2"))
        )
        store = RegionStore()
        store.import_dataset("d1", regions[:150])
        store.import_dataset("d2", regions[150:])
        plain = store.proximity_search("chr1", position, window)
        store.build_index()
        indexed = store.proximity_search("chr1", position, window)
        assert [row.id for row in plain] == [row.id for row in indexed]


class TestIndexLifecycle:
    def test_build_is_idempotent(self):
        store = RegionStore()
        store.import_dataset("d1", VALID)
        store.build_index()
        store.build_index()
        assert store.has_index

    def test_import_invalidates_index(self):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 0, 10)])
        store.build_index()
        store.import_dataset("d2", [raw("chr1", 5, 25)])
        store.build_index()
        hits = store.proximity_search("chr1", 6, 2)
        assert [row.id for row in hits] == [1, 2]

    def test_drop_on_unindexed_store_is_noop(self):
        store = RegionStore()
        store.drop_index()
        assert not store.has_index

    def test_index_excludes_invalid(self):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 50, 10), raw("chr1", 5, 9)])
        store.build_index()
        hits = store.proximity_search("chr1", 6, 3)
        assert [row.id for row in hits] == [2]

    def test_invalid_row_whose_length_wraps_int64_is_not_indexed(self):
        # In int64 this row's end - start wraps to a large length, which
        # intervals._by_code would admit; the store gives its invalid rows
        # the code _by_code drops.
        rows = [raw("chr1", 0, 10), raw("chr1", 2**62, -(2**62) - 1), raw("chr1", 2**62 - 5, 2**62 + 5)]
        store = RegionStore()
        store.import_dataset("d1", rows)
        store.build_index()
        entries, _, _ = store._index
        assert sorted(rid for run in entries["chr1"] for rid in run[2].tolist()) == [1, 3]
        assert [row.id for row in store.find_invalid()] == [2]
        for position in (0, 5, 2**61, 2**62, -(2**62)):
            for window in (1, 10, 2**61):
                lo, hi = position - window, position + window
                assert store.proximity_search("chr1", position, window) == store_module._scan(
                    store._datasets, "chr1", lo, hi)


WRITE_OPS = st.tuples(
    st.sampled_from(["import_dataset", "insert_regions_batch", "insert_regions_rowwise"]),
    st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
    st.lists(
        st.builds(RawRegion, st.sampled_from(["chr1", "chr2"]),
                  st.integers(-20, 200), st.integers(-20, 200)),
        max_size=8,
    ),
    # where a refused record goes into the write, if anywhere
    st.one_of(st.none(), st.tuples(st.integers(0, 8), st.sampled_from(REFUSED))),
)
INDEX_OPS = st.sampled_from([("build_index",), ("drop_index",)])
PROBES = [(c, p, w) for c in ("chr1", "chr2", "chr3") for p in range(-10, 220, 30) for w in (1, 25)]


class TestIndexInvariant:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(WRITE_OPS, INDEX_OPS), max_size=15))
    def test_writes_and_index_ops_keep_index_equal_to_scan(self, ops):
        store = RegionStore()
        committed = []  # (id, dataset, region) of every row, in id order
        indexed = False
        for op, *args in ops:
            if not args:
                getattr(store, op)()
                indexed = op == "build_index"
            else:
                name, regions, refused = args
                good = len(regions)  # the records before the refused one
                if refused is not None:
                    good = min(refused[0], good)
                    regions = [*regions[:good], refused[1], *regions[good:]]
                if name in {row[1] for row in committed}:
                    fails, kept = True, []
                elif op == "insert_regions_rowwise":  # keeps the prefix before the refused record
                    fails, kept = refused is not None, regions[:good]
                else:  # all or nothing
                    fails = refused is not None
                    kept = [] if fails else regions
                if fails:
                    with pytest.raises(ValueError):
                        getattr(store, op)(name, regions)
                else:
                    assert getattr(store, op)(name, regions) == len(regions)
                committed += [(len(committed) + i, name, r) for i, r in enumerate(kept, 1)]
            assert store.has_index == indexed
            rows = store.rows()
            assert [(r.id, r.dataset, r.region) for r in rows] == committed
            assert len(store) == len(committed)
            assert store.find_invalid() == [r for r in rows if not r.region.is_valid()]
            assert store.dataset_names() == list(dict.fromkeys(r.dataset for r in rows))
            for chrom, position, window in PROBES:
                scan = [
                    r for r in rows
                    if r.region.chrom == chrom and r.region.is_valid()
                    and overlap_coords(r.region.start, r.region.end,
                                       position - window, position + window) >= 1
                ]
                assert store.proximity_search(chrom, position, window) == scan


# Coordinates across the whole accepted range: small ones that overlap,
# the int64 edges and values beyond them in both directions.
COORDS = st.one_of(
    st.integers(-20, 300),
    st.sampled_from([-1, 0, 2**62, 2**63 - 1, 2**63, 2**63 + 5, 2**64, -(2**63) - 1]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def any_record(draw):
    chrom = draw(st.sampled_from(["chr1", "chr2"]))
    start, end = draw(COORDS), draw(COORDS)
    kind = draw(st.sampled_from(["raw", "genomic", "shaped"]))
    if kind == "genomic":
        start = abs(start)
        return GenomicRegion(chrom, start, start + abs(end) % 500)
    if kind == "raw":
        return RawRegion(chrom, start, end)
    return SimpleNamespace(chrom=chrom, start=start, end=end)  # region-shaped


MODEL_WRITES = st.tuples(
    st.sampled_from(["import_dataset", "insert_regions_batch", "insert_regions_rowwise"]),
    st.sampled_from(["w1", "w2", "w3", "w4"]),
    st.lists(any_record(), max_size=8),
)
# 20-digit positions sit beyond int64 on both sides of every window.
PROBE = st.tuples(
    st.sampled_from(["chr1", "chr2", "chr3"]),
    st.one_of(st.integers(-50, 350), st.integers(10**19, 10**20 - 1),
              st.sampled_from([2**63 - 3, 2**63 + 2, 100_000_000])),
    st.one_of(st.integers(1, 40), st.sampled_from([10**19, 10**20, 2**70])),
)
SEEDED = [
    # one 200 Mb region among narrow ones
    ("wide", [raw("chr1", 0, 200_000_000)] + [raw("chr1", s, s + 30) for s in range(0, 300, 37)]),
    # -1 and 2**63 in one dataset: neither int64 nor uint64 holds both
    ("edge", [raw("chr2", -1, 5), raw("chr2", 10, 2**63), raw("chr2", 2**63, 2**63 + 9)]),
]


@st.composite
def spread_record(draw):
    """A row 0 bp to 200 Mb long, rarely invalid, some ending past int64."""
    start = draw(st.one_of(
        st.integers(-5, 400), st.integers(0, 300_000_000), st.sampled_from([2**63 - 20, 2**63 + 3])
    ))
    length = draw(st.one_of(
        st.integers(-2, 400), st.integers(0, 200_000_000), st.sampled_from([0, 200_000_000])
    ))
    return raw(draw(st.sampled_from(["chr1", "chr2"])), start, start + length)


SPREAD_WRITES = st.lists(
    st.tuples(st.sampled_from(["import_dataset", "insert_regions_rowwise"]),
              st.lists(spread_record(), min_size=1, max_size=8)),
    max_size=6,
)
# Windows reach past int64 on either side at the far positions.
SPREAD_PROBES = st.lists(st.tuples(
    st.sampled_from(["chr1", "chr2", "chr3"]),
    st.one_of(st.integers(-100, 400), st.integers(0, 400_000_000),
              st.sampled_from([0, 2**63 - 1, 2**63 + 10, -(2**63)])),
    st.one_of(st.integers(1, 500), st.integers(1, 100_000_000), st.sampled_from([2**62, 2**63, 2**64])),
), min_size=1, max_size=10)


class TestMergedIndexAgainstScan:
    """Indexed probes against ``store._scan`` after every write merged into the index."""

    @settings(max_examples=150, deadline=None)
    @given(SPREAD_WRITES, SPREAD_PROBES)
    def test_indexed_probe_matches_scan_after_every_write(self, writes, probes):
        store = RegionStore()
        store.build_index()
        # a 200 Mb row at chr1's start and an end past int64 on chr2
        head = [raw("chr1", 0, 200_000_000), raw("chr2", 2**63 - 5, 2**63 + 50)]
        writes = [("import_dataset", head)] + writes
        # windows that end one base into a row, or just short of it, at either edge
        edges = [
            (r.chrom, p, 2) for _, records in writes for r in records
            for p in (r.start - 2, r.start - 1, r.end + 1, r.end + 2)
        ]
        for k, (op, records) in enumerate(writes):
            getattr(store, op)(f"w{k}", records)
            assert store.has_index
            for chrom, position, window in probes + edges:
                want = store_module._scan(store._datasets, chrom, position - window, position + window)
                assert store.proximity_search(chrom, position, window) == want


class TestRecordModel:
    """The store against a plain list of (id, dataset, record) rows."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(MODEL_WRITES, INDEX_OPS), max_size=10),
           st.lists(PROBE, min_size=1, max_size=8))
    def test_store_matches_record_model(self, ops, probes):
        store = RegionStore()
        model = []  # (id, dataset, RawRegion) in id order
        for op, *args in [("import_dataset", *seeded) for seeded in SEEDED] + ops:
            if not args:
                getattr(store, op)()
            else:
                name, records = args
                if name in {row[1] for row in model}:
                    with pytest.raises(ValueError, match="already imported"):
                        getattr(store, op)(name, records)
                else:
                    assert getattr(store, op)(name, records) == len(records)
                    model += [
                        (len(model) + i, name, raw(r.chrom, r.start, r.end))
                        for i, r in enumerate(records, 1)
                    ]
            rows = store.rows()
            assert [(r.id, r.dataset, r.region) for r in rows] == model
            assert len(store) == len(model) and store.staging_size == 0
            assert [(r.id, r.region) for r in store.find_invalid()] == [
                (rid, r) for rid, _, r in model if not r.is_valid()
            ]
            for name in store.dataset_names():
                assert [(rid, (g.chrom, g.start, g.end)) for rid, g in store.valid_regions(name)] == [
                    (rid, (r.chrom, r.start, r.end)) for rid, ds, r in model if ds == name and r.is_valid()
                ]
            for chrom, position, window in probes + [("chr1", 150_000_000, 5), ("chr2", 2**63 + 1, 1)]:
                lo, hi = position - window, position + window
                want = [
                    rid for rid, _, r in model
                    if r.chrom == chrom and r.is_valid() and min(r.end, hi) - max(r.start, lo) >= 1
                ]
                assert [r.id for r in store.proximity_search(chrom, position, window)] == want


class TestAccessors:
    def test_valid_regions_converts_and_filters(self):
        store = RegionStore()
        store.import_dataset("d1", [raw("chr1", 0, 10), raw("chr1", -1, 5)])
        pairs = store.valid_regions("d1")
        assert len(pairs) == 1
        rid, region = pairs[0]
        assert rid == 1
        assert (region.chrom, region.start, region.end) == ("chr1", 0, 10)

    def test_dataset_names_in_import_order(self):
        store = RegionStore()
        store.import_dataset("zeta", VALID[:1])
        store.import_dataset("alpha", VALID[:1])
        assert store.dataset_names() == ["zeta", "alpha"]


class TestConcurrency:
    def test_probes_beside_imports_see_old_or_new_store(self):
        def regions(seed, count):
            return generate_regions(
                GenConfig(seed=seed, count=count, coord_upper=50_000, max_size=300,
                          chromosomes=("chr1", "chr2"))
            )

        base = regions(1, 3000)
        added = regions(2, 600)
        batches = [added[i : i + 3] for i in range(0, len(added), 3)]
        # last_id[k]: the largest id once batches 1..k are imported
        last_id = [len(base)]
        for batch in batches:
            last_id.append(last_id[-1] + len(batch))
        probes = [("chr1", p) for p in range(0, 50_000, 2500)]
        final = RegionStore()
        final.import_dataset("d0", base)
        for k, batch in enumerate(batches, 1):
            final.import_dataset(f"d{k}", batch)
        want = {p: [r.id for r in final.proximity_search(*p, 400)] for p in probes}

        store = RegionStore()
        store.import_dataset("d0", base)
        store.build_index()
        started, committed = [0], [0]  # batches begun / finished by the writer
        writer_done = threading.Event()
        seen, failures = [], []

        def read(build):
            try:
                while not writer_done.is_set():
                    for probe in probes:
                        if build:
                            store.build_index()
                        oldest = committed[0]
                        got = [r.id for r in store.proximity_search(*probe, 400)]
                        seen.append((probe, got, oldest, started[0]))
            except Exception as exc:  # reported through failures
                failures.append(repr(exc))

        def write():
            try:
                for k, batch in enumerate(batches, 1):
                    started[0] = k
                    store.import_dataset(f"d{k}", batch)
                    committed[0] = k
                    store.build_index()
            finally:
                writer_done.set()

        threads = [threading.Thread(target=read, args=(i % 2 == 0,)) for i in range(4)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert seen
        for probe, got, oldest, newest in seen:
            # correct for some store state the writer passed through during the probe
            states = [[i for i in want[probe] if i <= last_id[k]] for k in range(oldest, newest + 1)]
            assert got in states, (probe, oldest, newest)
        store.build_index()
        for probe in probes:
            assert [r.id for r in store.proximity_search(*probe, 400)] == want[probe]

    def test_probe_hits_name_the_dataset_that_owns_their_id(self):
        # An indexed probe finds a hit's dataset in the index it read;
        # beside imports that dataset must still be the one owning the id.
        def regions(seed, count):
            return generate_regions(
                GenConfig(seed=seed, count=count, coord_upper=50_000, max_size=300,
                          chromosomes=("chr1", "chr2"))
            )

        base = regions(3, 2000)
        batches = [regions(100 + k, 4) for k in range(150)]
        owner = {}  # id -> (dataset, record) once every batch is imported
        for name, records in [("d0", base)] + [(f"d{k}", b) for k, b in enumerate(batches, 1)]:
            owner.update({len(owner) + 1 + i: (name, raw(r.chrom, r.start, r.end))
                          for i, r in enumerate(records)})
        probes = [("chr1", p) for p in range(0, 50_000, 2500)]

        store = RegionStore()
        store.import_dataset("d0", base)
        store.build_index()
        writer_done = threading.Event()
        seen, failures = [], []

        def read():
            try:
                while not writer_done.is_set():
                    for probe in probes:
                        seen.extend(store.proximity_search(*probe, 400))
            except Exception as exc:  # reported through failures
                failures.append(repr(exc))

        def write():
            try:
                for k, batch in enumerate(batches, 1):
                    store.import_dataset(f"d{k}", batch)
            finally:
                writer_done.set()

        threads = [threading.Thread(target=read) for _ in range(3)]
        threads.append(threading.Thread(target=write))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert any(hit.id > len(base) for hit in seen)  # some probe saw an import
        for hit in seen:
            assert (hit.dataset, hit.region) == owner[hit.id], hit

    def test_drop_index_beside_a_write_is_not_undone(self, monkeypatch):
        # A write extends the index it finds. Hold one write inside that
        # extension while another thread drops the index: the drop must
        # wait for the write, not be undone when the write publishes.
        in_write, dropped = threading.Event(), threading.Event()
        index_dataset = store_module._index_dataset

        def held_index_dataset(rows):
            in_write.set()
            dropped.wait(timeout=0.2)  # a drop that skips the write lock lands here
            return index_dataset(rows)

        def drop():
            in_write.wait(timeout=60)
            store.drop_index()
            dropped.set()

        store = RegionStore()
        store.import_dataset("d1", VALID)
        store.build_index()
        monkeypatch.setattr(store_module, "_index_dataset", held_index_dataset)
        dropper = threading.Thread(target=drop)
        dropper.start()
        store.import_dataset("d2", VALID)
        dropper.join(timeout=60)
        assert not dropper.is_alive()
        assert in_write.is_set() and dropped.is_set()
        assert not store.has_index

    def test_build_index_on_an_indexed_store_takes_no_lock(self):
        # A writer holding the lock must not stall a build that has
        # nothing to do: with an index present, build_index returns at once.
        store = RegionStore()
        store.import_dataset("d1", VALID)
        store.build_index()
        returned = threading.Event()
        with store._write_lock:
            builder = threading.Thread(target=lambda: (store.build_index(), returned.set()))
            builder.start()
            assert returned.wait(timeout=5)
        builder.join(timeout=60)
        assert store.has_index


def test_import_regmap_leaves_numpy_unloaded():
    # The store-mixed benchmark child imports regmap and never joins;
    # numpy would add about 14 MB to its ~140 MB peak, beyond that
    # workload's 5% peak_rss_mb bound. Only the joins load it, inside
    # the calls that join.
    code = (
        "import sys, regmap, regmap.bedio, regmap.store, regmap.joins; "
        "print('numpy' in sys.modules)"
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
    assert result.stdout == "False\n"


def test_writes_scans_and_unindexed_probes_leave_numpy_unloaded():
    # numpy loads at the first build_index, and only there.
    code = (
        "import sys; from regmap import RawRegion, RegionStore; "
        "s = RegionStore(); "
        "s.import_dataset('a', [RawRegion('chr1', 0, 10), RawRegion('chr1', -1, 2**70)]); "
        "s.insert_regions_rowwise('b', [RawRegion('chr1', 5, 2)]); "
        "hits = [r.id for r in s.proximity_search('chr1', 5, 3)] + [r.id for r in s.find_invalid()]; "
        "loaded = ['numpy' in sys.modules]; "
        "s.build_index(); "
        "loaded.append('numpy' in sys.modules); "
        "print(hits, loaded)"
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
    assert result.stdout == "[1, 2, 3] [False, True]\n"


def test_parsed_file_import_and_scan_leave_numpy_unloaded(tmp_path):
    # A parsed file's columns go into the store without numpy.
    bed = tmp_path / "p.bed"
    bed.write_text("chr1\t0\t10\nchr1\t-5\t3\nchr1\tbad\t1\nchr2\t9\t2\n")
    code = (
        "import sys; from regmap.bedio import parse_bed_file; from regmap.store import RegionStore; "
        f"records, _ = parse_bed_file({str(bed)!r}, mode='permissive'); "
        "s = RegionStore(); s.import_dataset('p', records); "
        "print([r.id for r in s.find_invalid()], 'numpy' in sys.modules)"
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
    assert result.stdout == "[2, 3] False\n"


class TestImportParsedColumns:
    """A parsed file imported as its columns equals the same records
    imported one by one."""

    TEXT = (
        "track name=p\r\n"
        "chr1\t0\t10\r\n"
        "chr2\t5\t3\n"
        "chr1\t-4\t8\n"
        "chr1\tbad\t9\n"
        f"chr3\t7\t{10**19}\n"
        "chrX\t٣\t5\n"
        "chr1\t20\t40\t+\n"
        "chr3\t-1\t-1"
    )
    PROBES = [
        ("chr1", 5, 3), ("chr1", 30, 15), ("chr1", 0, 10**6), ("chr2", 4, 2),
        ("chr3", 50, 10), ("chr3", 10**19, 5), ("chrX", 3, 3), ("chr9", 1, 1),
    ]

    def stores(self, tmp_path):
        path = tmp_path / "p.bed"
        path.write_bytes(self.TEXT.encode("utf-8"))
        records, report = parse_bed_file(path, mode="permissive")
        assert isinstance(records, BedRecords)
        assert (report.accepted, report.rejected) == (6, 2)
        built = []
        for regions in (records, list(records)):
            store = RegionStore()
            store.import_dataset("pad", VALID)
            assert store.import_dataset("p", regions) == 6
            built.append(store)
        return built

    def test_rows_scans_and_probes_match(self, tmp_path):
        columns, objects = self.stores(tmp_path)
        assert columns.rows() == objects.rows()
        assert columns.find_invalid() == objects.find_invalid()
        assert [row.id for row in columns.find_invalid()] == [5, 6, 9]
        for indexed in (False, True):
            if indexed:
                columns.build_index()
                objects.build_index()
            for probe in self.PROBES:
                assert columns.proximity_search(*probe) == objects.proximity_search(*probe), probe
        assert [row.id for row in columns.proximity_search("chr3", 10**19 - 1, 5)] == [7]

    def test_later_writes_and_valid_regions_match(self, tmp_path):
        columns, objects = self.stores(tmp_path)
        for store in (columns, objects):
            store.insert_regions_rowwise("q", [raw("chr3", 8, 12)])
        assert columns.valid_regions("p") == objects.valid_regions("p")
        assert columns.rows() == objects.rows()


# Rows of every kind: valid, zero-length, end < start, a negative start
# past int64, and ends past int64 (the exact-int index).
BUILT_DATASETS = [
    ("plain", [raw("chr1", 0, 10), raw("chr1", 5, 5), raw("chr2", 40, 90), raw("chr1", 30, 20)]),
    ("wide", [raw("chr1", -(2**70), 3), raw("chr1", 8, 2**64), raw("chrX", 2**63, 2**63 + 9)]),
    ("more", [raw("chr2", -4, 60), raw("chr1", 2, 12)]),
]
BUILT_RECORDS = dict(enumerate(((n, r) for n, records in BUILT_DATASETS for r in records), 1))


class TestBuiltObjects:
    """Rows read from the columns or the index skip the constructors'
    checks; they must still be what the public constructors build."""

    @staticmethod
    def constructed(row):
        """What the public constructors build for row.id's imported record."""
        name, r = BUILT_RECORDS[row.id]
        return store_module.StoredRegion(row.id, name, RawRegion(r.chrom, r.start, r.end))

    @staticmethod
    def assert_built_like_constructed(rows, want):
        assert rows, "no row to compare"
        for row in rows:
            assert type(row) is store_module.StoredRegion and type(row.region) is RawRegion
            assert row == want(row) and hash(row) == hash(want(row)) and repr(row) == repr(want(row))
            assert hash(row.region) == hash(want(row).region)
            for obj, field, value in ((row, "id", 0), (row, "dataset", "x"), (row, "region", None),
                                      (row.region, "chrom", "chr9"), (row.region, "start", 1),
                                      (row.region, "end", 2)):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, field, value)

    def test_every_read_builds_what_the_constructors_build(self):
        store = RegionStore()
        for name, records in BUILT_DATASETS:
            store.import_dataset(name, records)
        want = self.constructed
        reads = {
            "rows": store.rows,
            "regions": lambda: [row for name, _ in BUILT_DATASETS for row in store.regions(name)],
            "find_invalid": store.find_invalid,
        }
        probes = [("chr1", 6, 5), ("chr1", 2**63 + 100, 2**62), ("chr2", 50, 20), ("chrX", 2**63, 4)]
        for label, read in reads.items():
            first, again = read(), read()
            self.assert_built_like_constructed(first, want)
            assert first == again and all(a is not b for a, b in zip(first, again)), label
        assert [row.id for row in store.rows()] == list(range(1, 10))
        assert [row.id for row in store.find_invalid()] == [4, 5, 8]
        unindexed = [store.proximity_search(*probe) for probe in probes]
        store.build_index()
        indexed = [store.proximity_search(*probe) for probe in probes]
        assert indexed == unindexed
        for hits in (unindexed, indexed):
            self.assert_built_like_constructed([row for found in hits for row in found], want)
        again = [store.proximity_search(*probe) for probe in probes]
        assert all(a is not b for x, y in zip(indexed, again) for a, b in zip(x, y))

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError, match="whitespace"):
            RawRegion("chr 1", 0, 5)
        with pytest.raises(ValueError, match="non-empty"):
            RawRegion("", 0, 5)


class TestInvalidRowsBothWays:
    """``store._dataset`` finds invalid rows in numpy when numpy is
    loaded and with a loop when it is not; both give one tuple."""

    CASES = {
        "int64": ([raw("chr1", -1, 5), raw("chr1", 3, 2), raw("chr1", 0, 0), raw("chr2", 5, 9)], (0, 1)),
        "past int64": ([raw("chr1", 0, 2**70), raw("chr1", 2**70, 3), raw("chr2", -(2**70), 1),
                        raw("chr1", 2**63, 2**63)], (1, 2)),
        "empty": ([], ()),
    }

    @staticmethod
    def both_ways(monkeypatch, records):
        import numpy  # noqa: F401  (loaded, so _dataset takes the numpy path)

        rows = as_records(records)
        with_numpy = store_module._dataset(1, rows).invalid
        with monkeypatch.context() as patched:
            patched.setitem(sys.modules, "numpy", None)  # as in a numpy-free process
            looped = store_module._dataset(1, rows).invalid
        return with_numpy, looped

    @pytest.mark.parametrize("records, want", CASES.values(), ids=CASES.keys())
    def test_numpy_and_loop_agree(self, monkeypatch, records, want):
        assert self.both_ways(monkeypatch, records) == (want, want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(RawRegion, st.sampled_from(["chr1", "chr2"]), COORDS, COORDS), max_size=12))
    def test_numpy_and_loop_agree_on_any_records(self, records):
        with pytest.MonkeyPatch.context() as monkeypatch:
            with_numpy, looped = self.both_ways(monkeypatch, records)
        assert with_numpy == looped == tuple(i for i, r in enumerate(records) if not r.is_valid())


def _written(size: int, seed: int, past_int64: bool) -> list[RawRegion]:
    """``size`` seeded rows on chr1 and chr2 in [0, 2 Mb), 0 bp to 3 kb
    long, a few invalid; with ``past_int64`` one more ends past int64."""
    rng = Random(seed)
    rows = []
    for _ in range(size):
        start = rng.randrange(-50, 2_000_000)
        rows.append(raw(rng.choice(("chr1", "chr2")), start, start + rng.randrange(-20, 3_000)))
    if past_int64:
        rows.append(raw(rng.choice(("chr1", "chr2")), rng.choice((5, 2**63 - 7)), 2**63 + rng.randrange(100)))
    return rows


SMALL_RUN = intervals_module._SMALL_RUN
# write sizes on both sides of the merge rule's floor and ratio
RUN_WRITE = st.tuples(
    st.just("write"),
    st.one_of(st.integers(0, 8), st.integers(0, 1_500), st.sampled_from([SMALL_RUN - 1, SMALL_RUN + 1])),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
RUN_OPS = st.lists(
    st.one_of(
        RUN_WRITE, RUN_WRITE, RUN_WRITE,
        st.just(("long",)),  # one 200 Mb row on chr1
        st.sampled_from([("drop_index",), ("build_index",)]),
    ),
    min_size=2,
    max_size=12,
)
RUN_PROBES = st.lists(
    st.tuples(
        st.sampled_from(["chr1", "chr2", "chr3"]),
        st.one_of(st.integers(-100, 2_100_000), st.sampled_from([2**63 - 5, 2**63 + 50])),
        st.sampled_from([1, 40, 2_000, 100_000, 2**62]),
    ),
    min_size=1,
    max_size=6,
)


def assert_runs_follow_the_merge_rule(store: RegionStore, floor: int = SMALL_RUN) -> None:
    """Each run of an entry but the last is larger than ``floor`` rows
    and than twice the run after it, and the runs hold the entry's rows
    once, each sorted by start."""
    entries = store._index[0]
    for chrom, runs in entries.items():
        sizes = [len(run[0]) for run in runs]
        assert all(older > max(2 * newer, floor) for older, newer in zip(sizes, sizes[1:])), (chrom, sizes)
        ids = [i for run in runs for i in run[2].tolist()]
        assert len(ids) == len(set(ids)) == sum(sizes)
        for start, _, _, _ in runs:
            assert (start[1:] >= start[:-1]).all()


class TestIndexRuns:
    """An index entry is a tuple of sorted runs: a write sorts its own
    rows into a new run, merged only into runs of a comparable size."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, SMALL_RUN]), st.integers(0, 2**32 - 1), RUN_OPS, RUN_PROBES)
    def test_many_small_writes_keep_probes_equal_to_scan(self, floor, seed, ops, probes):
        # A floor of 8 rows lets small writes stack several runs deep.
        store = RegionStore()
        store.build_index()
        indexed = True
        # a first run above the floor on each chromosome, for later runs to sit beside
        ops = [("write", 3 * SMALL_RUN, seed, False)] + ops
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(intervals_module, "_SMALL_RUN", floor)
            for k, (op, *args) in enumerate(ops):
                if op == "write":
                    store.import_dataset(f"w{k}", _written(*args))
                elif op == "long":
                    store.import_dataset(f"w{k}", [raw("chr1", 40_000 * k, 40_000 * k + 200_000_000)])
                else:
                    getattr(store, op)()
                    indexed = op == "build_index"
                assert store.has_index == indexed
                if indexed:
                    assert_runs_follow_the_merge_rule(store, floor)
                for chrom, position, window in probes:
                    want = store_module._scan(store._datasets, chrom, position - window, position + window)
                    assert store.proximity_search(chrom, position, window) == want

    @pytest.mark.parametrize("sizes", ["equal", "seeded"])
    def test_rows_copied_over_writes_grow_as_n_log_n(self, monkeypatch, sizes):
        # The logarithmic method: a write copies its own rows, then merges
        # that copy only into runs at most twice its size or of at most
        # _SMALL_RUN rows, so a row is copied O(log n) times.
        sorted_entry, copied = intervals_module._sorted_entry, []

        def counted(start, end, rows):
            copied.append(len(start))
            return sorted_entry(start, end, rows)

        monkeypatch.setattr(intervals_module, "_sorted_entry", counted)
        rng = Random(7)
        writes = 64
        counts = [3_000] * writes if sizes == "equal" else [rng.randrange(1, 3 * SMALL_RUN) for _ in range(writes)]
        store = RegionStore()
        store.build_index()
        for k, n in enumerate(counts):
            starts = array("q", (rng.randrange(10**8) for _ in range(n)))
            ends = array("q", (s + rng.randrange(1, 500) for s in starts))
            store.import_dataset(f"w{k}", BedRecords(("chr1",), array("i", bytes(4 * n)), starts, ends))
            rows = sum(counts[: k + 1])
            assert len(store._index[0]["chr1"]) <= math.log2(rows / SMALL_RUN + 1) + 2
        rows = sum(counts)
        assert sum(copied) <= 2 * rows * math.log2(writes) + writes * SMALL_RUN
        assert_runs_follow_the_merge_rule(store)

    @pytest.mark.parametrize("limit", [0, 10**9])
    def test_both_candidate_filters_match_scan(self, monkeypatch, limit):
        # A limit of 0 sends every run's candidates to the numpy filter,
        # 10**9 every run's to the Python one. A floor of 8 rows keeps
        # each write a run of its own.
        monkeypatch.setattr(store_module, "_PYTHON_FILTER_MAX", limit)
        monkeypatch.setattr(intervals_module, "_SMALL_RUN", 8)
        writes = [
            _written(6_000, 11, False),
            _written(1_000, 12, False),
            [raw("chr1", 700_000, 50_700_000)] + _written(200, 13, False),
            _written(30, 14, True),
        ]
        store = RegionStore()
        store.build_index()
        for k, rows in enumerate(writes):
            store.import_dataset(f"w{k}", rows)
        entries = store._index[0]
        assert all(len(entries[chrom]) >= 3 for chrom in ("chr1", "chr2"))
        assert any(run[0].dtype.hasobject for chrom in ("chr1", "chr2") for run in entries[chrom])
        probes = [
            (chrom, position, window)
            for chrom in ("chr1", "chr2", "chr3")
            for position in (-10, 0, 650_000, 1_234_567, 60_000_000, 2**63 - 3, 2**63 + 40)
            for window in (1, 40, 2_000, 100_000, 2**62)
        ]
        # windows that leave int64 at either end, and windows that end on its bounds
        probes += [
            ("chr1", 0, 2**63 + 5),
            ("chr1", 2**63 + 40, 1),
            ("chr1", -(2**63), 3),
            ("chr1", 2**63 - 3, 2),
            ("chr1", 3 - 2**63, 3),
        ]
        # windows that end at a row's end or start at its start, sharing no base with it
        probes += [
            (r.chrom, p, window) for rows in writes for r in rows[::40]
            for window in (1, 2_000) for p in (r.end + window, r.start - window)
        ]
        # every run, int64 or not, is searched with bounds int64 holds
        windows, bounds = store_module._windows, []

        def spy(run, first, last):
            bounds.extend((first, last))
            return windows(run, first, last)

        monkeypatch.setattr(store_module, "_windows", spy)
        for chrom, position, window in probes:
            want = store_module._scan(store._datasets, chrom, position - window, position + window)
            assert store.proximity_search(chrom, position, window) == want
        assert bounds and all(-(2**63) <= b < 2**63 for b in bounds)

    def test_long_row_in_a_later_write_widens_no_window(self, monkeypatch):
        # 80K narrow rows and one 200 Mb row at the start of chr1, probed
        # with a 1 kb half-window. Built at once, the long row is in the
        # narrow rows' run and every probe's window reaches back to it;
        # written later, it is a run of its own.
        windows, totals = store_module._windows, []

        def counted(*args):
            lo, hi = windows(*args)
            totals.append(max(int(hi - lo), 0))
            return lo, hi

        monkeypatch.setattr(store_module, "_windows", counted)
        narrow = [raw("chr1", s, s + 300) for s in range(0, 80_000_000, 1_000)]
        long = [raw("chr1", 0, 200_000_000)]
        probes = range(500_000, 80_000_000, 797_000)

        def probed(build_first, datasets):
            store = RegionStore()
            if build_first:
                store.build_index()
            for name, rows in datasets:
                store.import_dataset(name, rows)
            store.build_index()
            totals.clear()
            return store, [store.proximity_search("chr1", p, 1_000) for p in probes], sum(totals)

        store, hits, later = probed(True, [("narrow", narrow), ("long", long)])
        _, single_hits, single = probed(False, [("narrow", narrow), ("long", long)])
        _, _, without = probed(True, [("narrow", narrow)])
        assert hits == single_hits == [
            store_module._scan(store._datasets, "chr1", p - 1_000, p + 1_000) for p in probes
        ]
        assert all(len(found) == 3 for found in hits)  # two narrow rows and the long one
        assert later <= single
        assert later == without + len(probes)  # the long row's own run adds one candidate a probe
