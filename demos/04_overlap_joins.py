"""
Joining two datasets on overlap
===============================

A join pairs every query region with every same-chromosome reference
region whose signed overlap clears the threshold. Two implementations
exist: the quadratic reference and a sorted sweep; their outputs are
identical, ordered by (a_id, b_id).
"""

from regmap import GenomicRegion, JoinFilter, nested_loop_join, sweep_join
from regmap.bench import GenConfig, generate_regions

factor_sites = [
    (1, GenomicRegion("chr1", 100, 190)),
    (2, GenomicRegion("chr1", 400, 480)),
    (3, GenomicRegion("chr2", 60, 130)),
]
enhancers = [
    (10, GenomicRegion("chr1", 150, 600)),
    (11, GenomicRegion("chr2", 0, 90)),
    (12, GenomicRegion("chr2", 140, 220)),
]

for pair in nested_loop_join(factor_sites, enhancers):
    print(
        f"site {pair.a_id} x enhancer {pair.b_id} on {pair.chrom}: "
        f"{pair.bp_overlap} bp shared, centres {pair.centre_distance} bp apart"
    )

# Negative thresholds turn the join into a near-miss finder: regions
# that do NOT overlap but sit close. The gap allowance bounds the
# sweep's window; the centre-distance cap filters further.
near_misses = sweep_join(
    factor_sites, enhancers, JoinFilter(min_bp=-200, max_centre_distance=250)
)
for pair in near_misses:
    if pair.bp_overlap < 1:
        print(
            f"near miss: {pair.a_id} and {pair.b_id} "
            f"gap={-pair.bp_overlap} bp, centres {pair.centre_distance} bp apart"
        )

# On bigger inputs both algorithms agree pair for pair.
a = list(enumerate(generate_regions(GenConfig(seed=7, count=800, coord_upper=50_000)), 1))
b = list(enumerate(generate_regions(GenConfig(seed=8, count=800, coord_upper=50_000)), 801))
assert sweep_join(a, b) == nested_loop_join(a, b)
print(f"sweep == nested loop on 800x800 random regions ({len(sweep_join(a, b))} pairs)")
