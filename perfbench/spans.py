"""Per-layer tracing from outside the program.

``install`` replaces regmap's public callables, in the module
namespaces where the CLI, the joins and the store look them up, with
wrappers that record a span per call: name, start, end and the index
of the enclosing span. The program's own code then runs unchanged.
Spans and counters stay in memory until ``dump`` writes them as JSON.

``layer_metrics`` turns one dump into the per-layer metrics. A span's
self time is its duration minus the durations of its direct children;
calls are sequential on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Span names of every wrapped callable; each also gets "<name>.errors".
SPANS = (
    "cli.overlap",
    "cli.mine",
    "bedio.parse",
    "joins.sweep_join",
    "joins.nested_loop_join",
    "joins.count_overlapping",
    "joins.pairwise_mining",
    "joins.write_tsv",
    "store.import",
    "store.valid_regions",
    "store.build_index",
    "store.proximity_search",
    "store.find_invalid",
)

STORE_METHODS = {
    "import_dataset": "store.import",
    "valid_regions": "store.valid_regions",
    "build_index": "store.build_index",
    "proximity_search": "store.proximity_search",
    "find_invalid": "store.find_invalid",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_constructions(self, cls, key: str) -> None:
        original, counts = cls.__post_init__, self.counts

        def counted(obj):
            counts[key] += 1
            original(obj)

        cls.__post_init__ = counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install() -> Tracer:
    """Wrap regmap's layers in place; returns the tracer collecting spans.

    The CLI's namespace is patched only when ``regmap.cli`` is already
    imported, so a store-only child does not pay for importing it.
    """
    from regmap import bedio, intervals, joins, store

    tracer = Tracer()
    counts = tracer.counts

    def on_parse(result):
        counts["bedio.lines_accepted"] += result[1].accepted
        counts["bedio.lines_rejected"] += result[1].rejected

    def on_pairs(pairs):
        counts["joins.pairs_emitted"] += len(pairs)

    bedio.parse_bed_file = tracer.wrap("bedio.parse", bedio.parse_bed_file, on_parse)
    joins.sweep_join = tracer.wrap("joins.sweep_join", joins.sweep_join, on_pairs)
    joins.nested_loop_join = tracer.wrap("joins.nested_loop_join", joins.nested_loop_join, on_pairs)
    joins.count_overlapping = tracer.wrap("joins.count_overlapping", joins.count_overlapping)
    cli = sys.modules.get("regmap.cli")
    if cli is not None:
        cli.parse_bed_file = bedio.parse_bed_file
        cli.sweep_join = joins.sweep_join
        cli.nested_loop_join = joins.nested_loop_join
        cli.pairwise_mining = tracer.wrap("joins.pairwise_mining", joins.pairwise_mining)
        cli.write_pairs_tsv = tracer.wrap("joins.write_tsv", joins.write_pairs_tsv)
        cli.write_mining_tsv = tracer.wrap("joins.write_tsv", joins.write_mining_tsv)
        cli.cmd_overlap = tracer.wrap("cli.overlap", cli.cmd_overlap)
        cli.cmd_mine = tracer.wrap("cli.mine", cli.cmd_mine)
    for method, name in STORE_METHODS.items():
        setattr(store.RegionStore, method, tracer.wrap(name, getattr(store.RegionStore, method)))
    tracer.count_constructions(intervals.RawRegion, "intervals.objects")
    tracer.count_constructions(intervals.GenomicRegion, "intervals.objects")
    return tracer


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "objects/region" if metric.endswith("per_region") else "count"


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer totals of one traced iteration, keyed by metric name."""
    spans, counts = dump["spans"], Counter(dump["counts"])
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent in spans:
        total[name] += end - start
        self_time[name] += end - start
        calls[name] += 1
        if parent is not None:
            self_time[spans[parent][0]] -= end - start
    accepted = counts["bedio.lines_accepted"]
    metrics = {
        "bedio.parse_s": total["bedio.parse"],
        "bedio.parse_calls": calls["bedio.parse"],
        "bedio.lines_accepted": accepted,
        "bedio.lines_rejected": counts["bedio.lines_rejected"],
        "cli.overlap_self_s": self_time["cli.overlap"],
        "cli.mine_self_s": self_time["cli.mine"],
        "intervals.objects_per_region": counts["intervals.objects"] / accepted if accepted else 0.0,
        "joins.sweep_join_s": total["joins.sweep_join"],
        "joins.sweep_join_calls": calls["joins.sweep_join"],
        "joins.nested_loop_join_s": total["joins.nested_loop_join"],
        "joins.count_overlapping_s": total["joins.count_overlapping"],
        "joins.pairwise_mining_self_s": self_time["joins.pairwise_mining"],
        "joins.pairs_emitted": counts["joins.pairs_emitted"],
        "joins.write_tsv_s": total["joins.write_tsv"],
        "store.import_s": total["store.import"],
        "store.valid_regions_s": total["store.valid_regions"],
        "store.build_index_s": total["store.build_index"],
        "store.proximity_search_s": total["store.proximity_search"],
        "store.find_invalid_s": total["store.find_invalid"],
    }
    for name in SPANS:
        metrics[name + ".errors"] = counts[name + ".errors"]
    return metrics
