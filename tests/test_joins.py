import io
import math
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regmap.columns as columns_module
from regmap.bedio import CatalogEntry, load_catalog_file, parse_bed_file
from regmap.bench import GenConfig, generate_regions
from regmap.columns import RegionColumns
from regmap.data import toy_catalog_path
from regmap.intervals import GenomicRegion, RawRegion
from regmap.joins import (
    JoinFilter,
    OverlapPair,
    count_overlapping,
    mining_report,
    nested_loop_join,
    overlap_percentage,
    pairwise_mining,
    sweep_join,
    write_mining_tsv,
    write_pairs_tsv,
)
from regmap.store import RegionStore


def ids(regions, start=1):
    return [(start + i, r) for i, r in enumerate(regions)]


def gen_dataset(seed, count, chroms=5):
    config = GenConfig(
        seed=seed,
        count=count,
        chromosomes=tuple(f"chr{i}" for i in range(1, chroms + 1)),
        coord_lower=0,
        coord_upper=5000,
        max_size=500,
    )
    return generate_regions(config)


OUT_OF_RANGE = f"coordinate {2**62} out of range: coordinates must be below 2**62"


def top_and_far_regions():
    """A and B ending at 2**62 - 1, the largest end a join accepts, and
    a set whose second region ends at 2**62."""
    top = 2**62 - 1
    a = ids([GenomicRegion("chr1", top - 10, top)])
    b = ids([GenomicRegion("chr1", 0, 5), GenomicRegion("chr1", top - 4, top)], start=10)
    far = ids([GenomicRegion("chr1", 0, 5), GenomicRegion("chr1", 3, 2**62)], start=20)
    return a, b, far


class TestNestedLoopJoin:
    def test_single_pair_metrics(self):
        a = ids([GenomicRegion("chr1", 0, 10)])
        b = ids([GenomicRegion("chr1", 5, 20)], start=2)
        result = nested_loop_join(a, b)
        assert result == [OverlapPair(1, 2, "chr1", 5, 7.5)]

    def test_self_join_reports_own_length(self):
        regions = [GenomicRegion("chr1", 0, 10), GenomicRegion("chr2", 7, 19)]
        a = ids(regions)
        diagonal = [p for p in nested_loop_join(a, a) if p.a_id == p.b_id]
        assert [(p.a_id, p.bp_overlap) for p in diagonal] == [(1, 10), (2, 12)]

    def test_distance_filter_equals_post_hoc_filtering(self):
        a = ids(gen_dataset(seed=5, count=120))
        b = ids(gen_dataset(seed=6, count=120), start=1000)
        unfiltered = nested_loop_join(a, b, JoinFilter(min_bp=1))
        bounded = nested_loop_join(a, b, JoinFilter(min_bp=1, max_centre_distance=80))
        assert bounded == [p for p in unfiltered if p.centre_distance < 80]

    def test_duplicate_ids_rejected(self):
        a = [(1, GenomicRegion("chr1", 0, 5)), (1, GenomicRegion("chr1", 4, 9))]
        with pytest.raises(ValueError, match="duplicate"):
            nested_loop_join(a, ids([GenomicRegion("chr1", 0, 5)]))
        with pytest.raises(ValueError, match="duplicate"):
            sweep_join(ids([GenomicRegion("chr1", 0, 5)]), a)

    def test_output_sorted_by_id_pair(self):
        a = ids([GenomicRegion("chr1", 0, 100), GenomicRegion("chr1", 10, 60)])
        b = ids([GenomicRegion("chr1", 0, 100), GenomicRegion("chr1", 20, 30)], start=10)
        result = nested_loop_join(a, b)
        assert [(p.a_id, p.b_id) for p in result] == sorted(
            (p.a_id, p.b_id) for p in result
        )


class TestSweepJoin:
    def test_matches_nested_loop_on_random_data(self):
        for seed in range(25):
            a = ids(gen_dataset(seed=seed, count=200))
            b = ids(gen_dataset(seed=seed + 1000, count=180), start=1000)
            assert sweep_join(a, b) == nested_loop_join(a, b)

    def test_matches_nested_loop_with_min_bp_filters(self):
        a = ids(gen_dataset(seed=42, count=150))
        b = ids(gen_dataset(seed=43, count=150), start=500)
        for flt in (
            JoinFilter(min_bp=2),
            JoinFilter(min_bp=25),
            JoinFilter(min_bp=1, max_centre_distance=100),
            JoinFilter(min_bp=0, max_centre_distance=250.5),
            JoinFilter(min_bp=-50, max_centre_distance=300),
            JoinFilter(min_bp=-10_000, max_centre_distance=60),
        ):
            assert sweep_join(a, b, flt) == nested_loop_join(a, b, flt)

    def test_empty_inputs(self):
        a = ids([GenomicRegion("chr1", 0, 10)])
        assert sweep_join(a, []) == []
        assert sweep_join([], a) == []

    def test_non_overlap_join_needs_no_centre_distance_bound(self):
        # The window from the first b whose running maximum of ends reaches
        # a.start + min_bp to the last b.start <= a.end - min_bp is bounded
        # for every min_bp, so gap joins run without a bound.
        a = ids(gen_dataset(seed=44, count=150))
        b = ids(gen_dataset(seed=45, count=150), start=500)
        for min_bp in (0, -1, -50, -5000):
            flt = JoinFilter(min_bp=min_bp)
            assert sweep_join(a, b, flt) == nested_loop_join(a, b, flt)

    def test_zero_length_regions_agree_with_nested(self):
        a = ids(
            [GenomicRegion("chr1", 5, 5), GenomicRegion("chr1", 0, 10)],
        )
        b = ids([GenomicRegion("chr1", 5, 5), GenomicRegion("chr1", 4, 6)], start=10)
        for flt in (JoinFilter(), JoinFilter(min_bp=0, max_centre_distance=50)):
            assert sweep_join(a, b, flt) == nested_loop_join(a, b, flt)

    def test_coordinates_must_be_below_2_to_the_62(self):
        a, b, far = top_and_far_regions()
        (pair,) = sweep_join(a, b)
        assert (pair.a_id, pair.b_id, pair.bp_overlap, pair.centre_distance) == (1, 11, 4, 3.0)
        for x, y in ((a, far), (far, a)):
            with pytest.raises(ValueError, match=re.escape(OUT_OF_RANGE)):
                sweep_join(x, y)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.integers(1, 60),
        st.integers(-30, 5),
    )
    def test_property_equivalence(self, seed, na, nb, min_bp):
        a = ids(gen_dataset(seed=seed, count=na, chroms=2))
        b = ids(gen_dataset(seed=seed ^ 0xFFFF, count=nb, chroms=2), start=10_000)
        flt = JoinFilter(min_bp=min_bp, max_centre_distance=400)
        assert sweep_join(a, b, flt) == nested_loop_join(a, b, flt)


class TestFilterProperties:
    def test_monotone_in_min_bp_and_distance(self):
        a = ids(gen_dataset(seed=9, count=150))
        b = ids(gen_dataset(seed=10, count=150), start=300)
        base = set(
            (p.a_id, p.b_id) for p in sweep_join(a, b, JoinFilter(min_bp=1))
        )
        tighter_bp = set(
            (p.a_id, p.b_id) for p in sweep_join(a, b, JoinFilter(min_bp=30))
        )
        tighter_cd = set(
            (p.a_id, p.b_id)
            for p in sweep_join(a, b, JoinFilter(min_bp=1, max_centre_distance=50))
        )
        assert tighter_bp <= base
        assert tighter_cd <= base

    def test_pair_metrics_recompute_via_core(self):
        from regmap.intervals import bp_overlap, centre_distance

        a = ids(gen_dataset(seed=21, count=100))
        b = ids(gen_dataset(seed=22, count=100), start=200)
        lookup_a = dict(a)
        lookup_b = dict(b)
        for p in sweep_join(a, b):
            ra, rb = lookup_a[p.a_id], lookup_b[p.b_id]
            assert p.bp_overlap == bp_overlap(ra, rb)
            assert p.centre_distance == centre_distance(ra, rb)

    def test_bad_filter(self):
        with pytest.raises(ValueError):
            JoinFilter(max_centre_distance=-1)

    def test_nan_bound_refused(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            JoinFilter(max_centre_distance=float("nan"))

    @pytest.mark.parametrize("bound", [10**400, "5", True])
    def test_bound_that_is_no_real_float_refused(self, bound):
        # 10**400 used to raise OverflowError and "5" TypeError, which the
        # CLI does not catch; True was taken as 1.
        with pytest.raises(ValueError, match="^max_centre_distance must be a real number, got "):
            JoinFilter(max_centre_distance=bound)

    @pytest.mark.parametrize("bound", [300, 2**1000, 0.5, np.float64(7.5), float("inf")])
    def test_real_bound_kept_as_given(self, bound):
        assert JoinFilter(max_centre_distance=bound).max_centre_distance is bound

    @pytest.mark.parametrize("min_bp", [float("nan"), 1.5, True, "3"])
    def test_non_integer_min_bp_refused(self, min_bp):
        # NaN used to reach the joins, which then disagreed on the same rows.
        with pytest.raises(ValueError, match="^min_bp must be an integer, got "):
            JoinFilter(min_bp=min_bp)

    def test_numpy_integer_min_bp_is_kept_as_int(self):
        flt = JoinFilter(min_bp=np.int64(-3))
        assert flt.min_bp == -3 and type(flt.min_bp) is int

    @pytest.mark.parametrize("min_bp", [-(10**30), 10**30])
    def test_huge_integer_min_bp_accepted(self, min_bp):
        a = ids([GenomicRegion("chr1", 0, 10)])
        b = ids([GenomicRegion("chr1", 100, 110)], start=2)
        flt = JoinFilter(min_bp=min_bp)
        expected = nested_loop_join(a, b, flt)
        assert len(expected) == (min_bp < 0)
        assert sweep_join(a, b, flt) == expected
        assert count_overlapping(a, b, flt) == (len(expected), 1)


# Centre-distance bounds of every kind JoinFilter takes: floats from 0,
# -0.0 and the subnormals up to float's largest, those from 2**52 to
# 2**62 (where float spacing passes 1), ints, Fractions, inf and None.
BOUNDS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, math.inf, Fraction(sys.float_info.max)]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0**52, max_value=2.0**62),
    st.integers(0, 2**64),
    st.fractions(min_value=0, max_value=2**64),
    st.fractions(min_value=2**61, max_value=2**63, max_denominator=10**6),
)


class TestTwiceBound:
    """``JoinFilter.twice_bound`` is the exact test on the doubled centre
    distance: t < twice_bound exactly when t < 2 * max_centre_distance."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_exact_comparison(self, data):
        bound = data.draw(BOUNDS, label="bound")
        flt = JoinFilter(max_centre_distance=bound)
        exact = None if bound is None or math.isinf(bound) else 2 * Fraction(bound)
        doubled = st.integers(0, 2**63 - 1)
        if exact is not None and exact < 2**63 + 2:
            near = {min(max(math.floor(exact) + d, 0), 2**63 - 1) for d in (-1, 0, 1, 2)}
            doubled = st.sampled_from(sorted(near)) | doubled
        t = data.draw(doubled, label="doubled distance")
        twice_bound = flt.twice_bound
        assert twice_bound is None or (type(twice_bound) is int and 0 <= twice_bound < 2**63)
        assert (twice_bound is None or t < twice_bound) == (exact is None or t < exact)

    @pytest.mark.parametrize(
        "bound, twice_bound",
        [(None, None), (math.inf, None), (0, 0), (-0.0, 0), (5e-324, 1), (30.25, 61), (30.5, 61),
         (2.0**53, 2**54), (Fraction(2001, 2) - Fraction(1, 10**30), 2001),
         (2**62 - 1, 2**63 - 2), (Fraction(2**63 - 1, 2), 2**63 - 1), (2**62, None),
         (Fraction(sys.float_info.max), None), (sys.float_info.max, None)],
    )
    def test_fixed_bounds(self, bound, twice_bound):
        assert JoinFilter(max_centre_distance=bound).twice_bound == twice_bound


class TestCountOverlapping:
    def test_distinct_query_regions(self):
        a = ids(
            [
                GenomicRegion("chr1", 0, 10),
                GenomicRegion("chr1", 100, 110),
                GenomicRegion("chr1", 200, 210),
            ]
        )
        # first query region hits two references, still counts once
        b = ids(
            [
                GenomicRegion("chr1", 0, 5),
                GenomicRegion("chr1", 5, 10),
                GenomicRegion("chr1", 100, 101),
            ],
            start=10,
        )
        assert count_overlapping(a, b) == (2, 3)

    def test_asymmetric_but_pairs_symmetric(self):
        a = ids(gen_dataset(seed=31, count=80))
        b = ids(gen_dataset(seed=32, count=120), start=500)
        over_ab, total_ab = count_overlapping(a, b)
        over_ba, total_ba = count_overlapping(b, a)
        assert total_ab == 80 and total_ba == 120
        pairs_ab = {(p.a_id, p.b_id) for p in sweep_join(a, b)}
        pairs_ba = {(p.b_id, p.a_id) for p in sweep_join(b, a)}
        assert pairs_ab == pairs_ba

    def test_coordinates_must_be_below_2_to_the_62(self):
        a, b, far = top_and_far_regions()
        assert count_overlapping(a, b) == (1, 1)
        assert count_overlapping(b, a) == (1, 2)
        for x, y in ((a, far), (far, a)):
            with pytest.raises(ValueError, match=re.escape(OUT_OF_RANGE)):
                count_overlapping(x, y)

    def test_percentage_rounding(self):
        assert overlap_percentage(6633, 6839) == 96.99
        assert overlap_percentage(4244, 6839) == 62.06
        assert overlap_percentage(4244, 6839, digits=0) == 62
        assert overlap_percentage(6633, 6839, digits=0) == 97
        assert overlap_percentage(1, 800) == 0.13  # exact .125 rounds up
        assert overlap_percentage(0, 0) == 0.0

    @staticmethod
    def decimal_percentage(overlapping, total, digits):
        """overlap_percentage computed with Decimal, the oracle of the
        integer rounding."""
        if total == 0:
            return 0.0
        exact = Decimal(overlapping * 100) / Decimal(total)
        q = Decimal(1).scaleb(-digits) if digits > 0 else Decimal(1)
        return float(exact.quantize(q, rounding=ROUND_HALF_UP))

    def test_percentage_matches_decimal_rounding_for_small_totals(self):
        for total in range(200):
            for overlapping in range(total + 1):
                for digits in (-1, 0, 1, 2, 3):
                    got = overlap_percentage(overlapping, total, digits)
                    assert got == self.decimal_percentage(overlapping, total, digits), (
                        overlapping, total, digits)

    @settings(max_examples=2000, deadline=None)
    @given(st.integers(1, 10**7), st.floats(0, 1), st.sampled_from([-1, 0, 1, 2, 3]))
    def test_percentage_matches_decimal_rounding(self, total, share, digits):
        overlapping = round(total * share)
        got = overlap_percentage(overlapping, total, digits)
        assert got == self.decimal_percentage(overlapping, total, digits)


def load_toy():
    catalog = load_catalog_file(toy_catalog_path())
    store = RegionStore()
    base = toy_catalog_path().parent
    for entry in catalog:
        regions, _ = parse_bed_file(base / entry.path, mode="permissive")
        store.import_dataset(entry.name, regions)
    return catalog, store


def brute_force_mining(catalog, store, min_bp=1):
    """Independent quadratic recomputation of the mining report."""
    rows = {}
    for q in catalog:
        for ref in catalog:
            if q.name == ref.name or q.assembly != ref.assembly:
                continue
            q_regions = store.valid_regions(q.name)
            r_regions = store.valid_regions(ref.name)
            hits = 0
            for _, qr in q_regions:
                found = False
                for _, rr in r_regions:
                    if qr.chrom != rr.chrom:
                        continue
                    if min(qr.end, rr.end) - max(qr.start, rr.start) >= min_bp:
                        found = True
                        break
                hits += int(found)
            total = len(q_regions)
            pct = Decimal(hits * 100) / Decimal(total) if total else Decimal(0)
            pct = float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
            rows[(q.name, ref.name)] = (hits, total, pct)
    return rows


class TestPairwiseMining:
    def test_toy_catalog_row_count_and_grouping(self):
        catalog, store = load_toy()
        rows = pairwise_mining(catalog, store)
        # 3 hg19 datasets -> 6 ordered pairs; the lone mm9 dataset has no partner
        assert len(rows) == 6
        assert all(r.assembly == "hg19" for r in rows)
        keys = [(r.assembly, r.query_name, r.ref_name) for r in rows]
        assert keys == sorted(keys)

    def test_matches_brute_force_oracle(self):
        catalog, store = load_toy()
        expected = brute_force_mining(catalog, store)
        for row in pairwise_mining(catalog, store):
            hits, total, pct = expected[(row.query_name, row.ref_name)]
            assert (row.overlapping, row.query_total, row.percentage) == (hits, total, pct)

    def test_hand_checked_rows(self):
        catalog, store = load_toy()
        rows = {
            (r.query_name, r.ref_name): r for r in pairwise_mining(catalog, store)
        }
        hnf4g_vs_marks = rows[("hnf4g_hepg2", "h3k4me1_hepg2")]
        assert (hnf4g_vs_marks.overlapping, hnf4g_vs_marks.query_total) == (6, 8)
        assert hnf4g_vs_marks.percentage == 75.0
        stag1_vs_hnf4g = rows[("stag1_hepg2", "hnf4g_hepg2")]
        assert (stag1_vs_hnf4g.overlapping, stag1_vs_hnf4g.query_total) == (4, 6)
        assert stag1_vs_hnf4g.percentage == 66.67

    def test_assembly_partition(self):
        catalog, store = load_toy()
        partial = [c for c in catalog if c.name != "stag1_hepg2"]
        rows = pairwise_mining(partial, store)
        # 2 hg19 datasets + 1 mm9 dataset -> 2 rows
        assert len(rows) == 2

    def test_missing_dataset_errors(self):
        catalog, _ = load_toy()
        with pytest.raises(ValueError, match="not imported"):
            pairwise_mining(catalog, RegionStore())


def reference_mining(catalog, store, flt):
    """The mining report from valid_regions and the reference join."""
    rows = []
    for q in catalog:
        for ref in catalog:
            if q.name == ref.name or q.assembly != ref.assembly:
                continue
            q_regions = store.valid_regions(q.name)
            pairs = nested_loop_join(q_regions, store.valid_regions(ref.name), flt)
            hits, total = len({p.a_id for p in pairs}), len(q_regions)
            pct = Decimal(hits * 100) / Decimal(total) if total else Decimal(0)
            pct = float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
            rows.append((q.assembly, q.name, ref.name, total, hits, pct))
    return sorted(rows)


def entry(name, assembly):
    return CatalogEntry(name, "TF", "cell", None, assembly, f"{name}.bed")


def row_strategy(chroms):
    # start < 0 or a negative length makes an invalid row
    return st.builds(
        lambda c, s, n: RawRegion(c, s, s + n),
        st.sampled_from(chroms),
        st.integers(-20, 300),
        st.integers(-30, 80),
    )


@st.composite
def mining_catalogs(draw):
    """(catalog, {name: rows}) with invalid rows, an all-invalid dataset,
    a chromosome no partner holds and two assemblies."""
    datasets = {
        # every row invalid: query_total 0, percentage 0.00
        "void": ("hg19", [RawRegion("chr1", -5, 10), RawRegion("chr2", 40, 30)]),
        # chrM is on no other dataset
        "mito": ("hg19", draw(st.lists(row_strategy(["chrM"]), min_size=1, max_size=6))),
    }
    for k in range(draw(st.integers(3, 5))):
        assembly = ("hg19", "mm9")[k % 2] if k < 2 else draw(st.sampled_from(["hg19", "mm9"]))
        chroms = draw(st.lists(st.sampled_from(["chr1", "chr2", "chr3"]),
                               min_size=1, max_size=3, unique=True))
        # min_size=1: the store keeps no empty dataset
        rows = draw(st.lists(row_strategy(chroms), min_size=1, max_size=25))
        datasets[f"d{k}"] = (assembly, rows)
    order = draw(st.permutations(sorted(datasets)))
    catalog = [entry(name, datasets[name][0]) for name in order]
    return catalog, {name: rows for name, (_, rows) in datasets.items()}


class TestMiningDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        mining_catalogs(),
        st.sampled_from([1, 0, -50]),
        st.sampled_from([None, 0.5, 3]),
    )
    def test_matches_reference(self, case, min_bp, max_cd):
        catalog, datasets = case
        store = RegionStore()
        for e in catalog:
            store.import_dataset(e.name, datasets[e.name])
        flt = JoinFilter(min_bp=min_bp, max_centre_distance=max_cd)
        got = [
            (r.assembly, r.query_name, r.ref_name, r.query_total, r.overlapping, r.percentage)
            for r in pairwise_mining(catalog, store, flt)
        ]
        assert got == reference_mining(catalog, store, flt)
        assert any(r[1] == "void" and r[3] == 0 and r[5] == 0.0 for r in got)

    @staticmethod
    def out_of_range_store(bad):
        store = RegionStore()
        store.import_dataset("a", [RawRegion("chr1", 0, 10), RawRegion("chr1", 5, 20)])
        store.import_dataset("b", [RawRegion("chr1", 8, 12), RawRegion("chr1", -1, 2**70)])
        store.import_dataset("bad", bad)
        return store

    def test_lone_assembly_out_of_range_is_never_built(self):
        # "bad" has no mm9 partner, so it is never joined; b's invalid
        # row with end 2**70 is dropped like every invalid row.
        store = self.out_of_range_store([RawRegion("chr1", 0, 2**62)])
        catalog = [entry("a", "hg19"), entry("b", "hg19"), entry("bad", "mm9")]
        rows = pairwise_mining(catalog, store)
        assert [(r.query_name, r.ref_name, r.overlapping, r.query_total) for r in rows] == [
            ("a", "b", 2, 2),
            ("b", "a", 1, 1),
        ]

    def test_paired_out_of_range_raises_its_message(self):
        store = self.out_of_range_store([RawRegion("chr1", 0, 5), RawRegion("chr1", 3, 2**62 + 7)])
        catalog = [entry("a", "hg19"), entry("b", "hg19"), entry("bad", "hg19")]
        message = f"coordinate {2**62 + 7} out of range: coordinates must be below 2**62"
        with pytest.raises(ValueError, match=re.escape(message)):
            pairwise_mining(catalog, store)


# mm10, hg38, mm10, hg38, hg38 and a lone dm6, names out of order
ORDER_CATALOG = Path(__file__).parent / "mining" / "order" / "catalog.tsv"


def load_order_catalog():
    """The catalog, each paired dataset's columns, and a store holding
    every dataset, all from the same files."""
    catalog = load_catalog_file(ORDER_CATALOG)
    columns, store = {}, RegionStore()
    for e in catalog:
        regions, _ = parse_bed_file(ORDER_CATALOG.parent / e.path, mode="permissive")
        store.import_dataset(e.name, regions)
        columns[e.name] = RegionColumns.from_records(regions)
    return catalog, columns, store


class TestStreamedReport:
    def test_first_row_counts_one_assembly(self, monkeypatch):
        calls = []
        real = columns_module.hit_counts

        def counted(sets, flt):
            calls.append(len(sets))
            return real(sets, flt)

        monkeypatch.setattr(columns_module, "hit_counts", counted)
        catalog, columns, _ = load_order_catalog()
        first = next(iter(mining_report(catalog, columns)))
        assert calls == [3]
        assert (first.assembly, first.query_name, first.ref_name) == ("hg38", "Omega", "beta")

    def test_rows_come_in_report_order(self):
        catalog, columns, store = load_order_catalog()
        assert [e.assembly for e in catalog] == ["mm10", "hg38", "mm10", "hg38", "hg38", "dm6"]
        rows = list(mining_report(catalog, columns))
        assert rows == sorted(rows, key=lambda r: (r.assembly, r.query_name, r.ref_name))
        assert len(rows) == 3 * 2 + 2 * 1
        assert rows == pairwise_mining(catalog, store)


class TestTsvOutput:
    def test_pairs_tsv(self):
        pairs = [OverlapPair(1, 2, "chr1", 5, 7.5), OverlapPair(1, 3, "chr1", -4, 10.0)]
        buf = io.StringIO()
        write_pairs_tsv(pairs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "a_id\tb_id\tchrom\tbp_overlap\tcentre_distance"
        assert lines[1] == "1\t2\tchr1\t5\t7.5"
        assert lines[2] == "1\t3\tchr1\t-4\t10"

    def test_mining_tsv_two_decimals(self):
        catalog, store = load_toy()
        rows = pairwise_mining(catalog, store)
        buf = io.StringIO()
        write_mining_tsv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("assembly\tquery_name\t")
        assert len(lines) == 7
        for line in lines[1:]:
            pct = line.rsplit("\t", 1)[1]
            whole, frac = pct.split(".")
            assert len(frac) == 2
