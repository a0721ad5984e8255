"""One long-lived RegionStore serving the store-mixed operations.

    python perfbench/store_child.py PLAN.json

The plan names the base BED files, one write file per round, and the
rounds of operations in order. The child loads the base files
(permissive parse, one import per file), builds the index, then runs
every round. It times each operation alone and writes the latencies
and the raw results (ids) to the plan's ``out`` file; the parent checks
them.

Operations: ``["probe", chrom, position]`` is one proximity_search,
``["write"]`` parses the round's write file, imports it and rebuilds
the index, so its time is until the new rows are queryable, and
``["scan"]`` is one find_invalid.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.install()
    from regmap import bedio
    from regmap.store import RegionStore

    clock = time.perf_counter
    t0 = clock()
    store = RegionStore()
    for name, path in plan["base"]:
        regions, _ = bedio.parse_bed_file(path, mode="permissive")
        store.import_dataset(name, regions)
    store.build_index()
    setup_s = clock() - t0

    window = plan["window"]
    ops = []
    for ops_of_round, (name, path) in zip(plan["rounds"], plan["writes"]):
        for op in ops_of_round:
            kind = op[0]
            t = clock()
            try:
                if kind == "probe":
                    hits = store.proximity_search(op[1], op[2], window)
                elif kind == "scan":
                    hits = store.find_invalid()
                else:
                    regions, _ = bedio.parse_bed_file(path, mode="permissive")
                    count = store.import_dataset(name, regions)
                    store.build_index()
                latency = clock() - t
            except Exception as exc:  # an operation failure is a result to report
                ops.append([kind, clock() - t, None, f"{type(exc).__name__}: {exc}"])
                continue
            result = count if kind == "write" else [row.id for row in hits]
            ops.append([kind, latency, result, None])
    if tracer is not None:
        tracer.dump(plan["spans"])
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "ops": ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
